"""Dense feed-forward network kernel with hand-derived backpropagation.

Layers compute y = f(x W^T + b). Supported activations are tanh, linear,
and an output head ("softmax_blocks") that applies a softmax to each of
the declared consecutive segments covering its columns. Gradients are
exact chain-rule derivatives; the test suite checks them against central
finite differences.

All math is float64. Networks are plain numpy arrays, safe to share for
inference; training mutates parameters in place through the optimizer.
Training packs every parameter into one contiguous buffer (``pack``), so
one RMSprop pass of a few ufunc calls over one array updates them all;
``backward`` writes gradients into the views of a matching buffer
(``views``), laid out as ``pack`` lays out the parameters.

A layer's weights may carry leading stack axes, (..., out, in) with biases
(..., out): a stack of K networks of one shape, run on a (K, rows, in)
input, each slice on its own rows. ``bind`` makes such a stack of views of a
(K, P) buffer whose row k is network k's ``pack`` layout. Every numpy call
then serves the whole stack, and each slice's result is bit-identical to
the same network run alone. ``step_buffers`` holds the arrays a training
step writes (each layer's output, which ``forward`` writes and ``backward``
reads, and its gradients), so repeated steps allocate none of them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng

ACTIVATIONS = ("tanh", "linear", "softmax_blocks")


class DimensionError(ValueError):
    """Shape mismatch between layers, inputs, or gradients."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (..., out_dim, in_dim)
    biases: np.ndarray  # (..., out_dim)
    activation: str
    blocks: tuple[int, ...] | None = None  # segment widths, for softmax_blocks
    softmax_index: tuple = field(init=False, repr=False, compare=False, default=None)
    head_layout: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim < 2 or self.biases.shape != self.weights.shape[:-1]:
            raise DimensionError("weight/bias shapes inconsistent")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "softmax_blocks":
            if not self.blocks:
                raise ValueError("softmax_blocks needs block declarations")
            if any(width < 1 for width in self.blocks):
                raise ValueError(f"bad block widths {self.blocks}")
            if sum(self.blocks) != self.out_dim:
                raise DimensionError("block widths must sum to out_dim")
            # where each block starts and the block of each column: the
            # segments of the reduceat calls in the head
            block_of = np.repeat(np.arange(len(self.blocks)), self.blocks)
            starts = np.flatnonzero(np.diff(block_of, prepend=-1))
            self.softmax_index = (starts, block_of)
            # sampling's (slots, widest, last): each column's slot in a (blocks, widest) row
            widest = max(self.blocks)
            self.head_layout = (block_of * widest + np.arange(self.out_dim) - starts[block_of],
                                widest, np.array(self.blocks) - 1)
        elif self.blocks:
            raise ValueError("blocks only apply to softmax_blocks activation")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]


@dataclass
class Network:
    layers: list[DenseLayer]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionError(f"layer chain breaks: {a.out_dim} -> {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list (W0, b0, W1, b1, ...), shared references."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    v = np.asarray(v, dtype=float)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _activate(layer: DenseLayer, pre: np.ndarray) -> None:
    """Apply the layer's activation to pre in place."""
    if layer.activation == "tanh":
        np.tanh(pre, out=pre)
    elif layer.activation == "softmax_blocks":
        starts, block_of = layer.softmax_index
        pre -= np.maximum.reduceat(pre, starts, axis=-1)[..., block_of]
        np.exp(pre, out=pre)
        pre /= np.add.reduceat(pre, starts, axis=-1)[..., block_of]


def _activation_backward(layer: DenseLayer, output: np.ndarray, grad_out: np.ndarray,
                         out=None) -> np.ndarray:
    """Gradient through f given the activated output (pre-activation not needed),
    written into out when given (a linear layer passes grad_out through)."""
    if layer.activation == "tanh":
        grad_pre = np.multiply(output, output, out=out)
        np.subtract(1.0, grad_pre, out=grad_pre)
        grad_pre *= grad_out
        return grad_pre
    if layer.activation == "linear":
        return grad_out
    starts, block_of = layer.softmax_index
    grad_pre = np.subtract(grad_out,
                           np.add.reduceat(grad_out * output, starts, axis=-1)[..., block_of],
                           out=out)
    grad_pre *= output
    return grad_pre


def forward(network: Network, x: np.ndarray, out=None) -> np.ndarray:
    """Apply the network to a vector or a batch of row vectors; a stacked
    network takes a (..., rows, in) batch, one slice per network.

    Each layer's activation overwrites its own matmul result, so a layer
    allocates one array, freed once the next layer's exists. out, one array
    per layer shaped like its output, receives the layer outputs instead, so
    repeated passes allocate nothing and backward can read them. x itself is
    never written.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != network.in_dim:
        raise DimensionError(f"input width {x.shape[-1]} != {network.in_dim}")
    y = x
    for i, layer in enumerate(network.layers):
        w, b = layer.weights.swapaxes(-1, -2), layer.biases
        y = np.matmul(y, w, out=None if out is None else out[i])
        y += b if b.ndim == 1 else b[..., None, :]
        _activate(layer, y)
    return y


def backward(network: Network, x: np.ndarray, outputs, output_gradient: np.ndarray, grads,
             input_grad: bool = True, out=None) -> np.ndarray | None:
    """Chain-rule gradients of a scalar loss given dL/doutput for a batch of rows.

    x is the forward pass's input and outputs the layer outputs it wrote
    into ``forward``'s out=. The parameter gradients, summed over the rows,
    are written into grads, the network's (weight views, bias views) from
    ``views``; a stacked network sums each slice's rows into its own slice
    of grads. Returns the input gradient, with the batch shape, or None when
    input_grad is false. out, per layer the (activation gradient, input
    gradient) pair of ``step_buffers``, receives those intermediate
    gradients instead of new arrays; the returned input gradient is then
    out[0][1].
    """
    if len(outputs) != len(network.layers):
        raise DimensionError("layer outputs do not match network")
    if output_gradient.shape != outputs[-1].shape:
        raise DimensionError("output gradient shape mismatch")
    weight_grads, bias_grads = grads
    grad = output_gradient
    for i in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[i]
        grad_buf, input_buf = (None, None) if out is None else out[i]
        grad_pre = _activation_backward(layer, outputs[i], grad, grad_buf)
        np.matmul(grad_pre.swapaxes(-1, -2), outputs[i - 1] if i else x, out=weight_grads[i])
        np.add.reduce(grad_pre, axis=-2, out=bias_grads[i])
        grad = np.matmul(grad_pre, layer.weights, out=input_buf) if i or input_grad else None
    return grad


def step_buffers(network: Network, rows_shape) -> tuple[list, list]:
    """The arrays one training step of network writes over inputs of
    rows_shape, (rows,) or (K, rows) for a stack: each layer's output, for
    forward's out= and backward's outputs, and each layer's (activation
    gradient, input gradient) pair, for backward's out=. Reused from step to
    step, they are allocated once, and the first b rows of each serve a
    batch of b rows."""
    return ([np.empty((*rows_shape, layer.out_dim)) for layer in network.layers],
            [(np.empty((*rows_shape, layer.out_dim)), np.empty((*rows_shape, layer.in_dim)))
             for layer in network.layers])


def parameter_count(networks) -> int:
    """Entries of the buffer ``pack`` lays the networks' parameters out in."""
    return sum(layer.weights.size + layer.out_dim for net in networks for layer in net.layers)


def views(networks, buffer: np.ndarray) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Per network, (weight views, bias views) of buffer laid out W0, b0, W1, b1, ...
    network after network, as ``pack`` lays out the parameters.

    A (..., P) buffer holds one such layout per row; its views carry the
    leading axes, weights (..., out, in) and biases (..., out).
    """
    if buffer.shape[-1:] != (parameter_count(networks),):
        raise DimensionError("buffer size does not match the networks' parameters")
    lead = buffer.shape[:-1]
    out, offset = [], 0
    for net in networks:
        weights, biases = [], []
        for layer in net.layers:
            end = offset + layer.weights.size
            weights.append(buffer[..., offset:end].reshape(*lead, *layer.weights.shape))
            biases.append(buffer[..., end : end + layer.out_dim])
            offset = end + layer.out_dim
        out.append((weights, biases))
    return out


def bind(networks, buffer: np.ndarray) -> list[Network]:
    """Networks shaped like ``networks`` whose parameters are the views of
    buffer; a (K, P) buffer gives each a stack of K, network k in row k."""
    return [Network([DenseLayer(w, b, layer.activation, layer.blocks)
                     for layer, w, b in zip(net.layers, weights, biases)])
            for net, (weights, biases) in zip(networks, views(networks, buffer))]


def pack(networks, out: np.ndarray | None = None) -> np.ndarray:
    """Move every weight and bias of networks into one contiguous buffer.

    Each layer's weights and biases become views of the returned buffer,
    in Network.parameters() order, network after network, with their values
    unchanged. One optimizer pass over the buffer then updates them all.
    out, a one-dimensional buffer of the right size such as one row of a
    stack's buffer, receives them instead of a new array.
    """
    flat = np.empty(parameter_count(networks)) if out is None else out
    for net, (weights, biases) in zip(networks, views(networks, flat)):
        for layer, w, b in zip(net.layers, weights, biases):
            w[...] = layer.weights
            b[...] = layer.biases
            layer.weights, layer.biases = w, b
    return flat


def layer_activations(n_layers: int, head_blocks=None) -> list[str]:
    """tanh hidden layers, then a linear last layer, or the softmax head given its segments."""
    return ["tanh"] * (n_layers - 1) + ["softmax_blocks" if head_blocks else "linear"]


def init_weights(dims, seed: int, head_blocks=None) -> Network:
    """Seeded network with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    dims is the full dimension chain. Hidden layers are tanh and the last
    layer is linear; pass head_blocks, the segment widths, to give the
    final layer the per-segment softmax head instead.
    """
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    activations = layer_activations(len(dims) - 1, head_blocks)
    rng = derive_rng(seed, "init-weights")
    layers = []
    for i in range(len(activations)):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        blocks = tuple(head_blocks) if activations[i] == "softmax_blocks" else None
        layers.append(
            DenseLayer(weights=w, biases=np.zeros(fan_out), activation=activations[i], blocks=blocks)
        )
    return Network(layers=layers)


# ---------------------------------------------------------------------------
# RMSprop


@dataclass
class OptimizerState:
    """Running mean-square accumulator of one packed parameter buffer."""

    accumulator: np.ndarray
    learning_rate: float
    rho: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")


def rmsprop_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    """In-place update: a <- rho a + (1-rho) g^2; p <- p - lr g / sqrt(a + eps).

    params is the one packed buffer (see pack) and grads its gradient, so a
    step is one pass of ufunc calls with two temporaries.
    """
    a = state.accumulator
    if params.shape != grads.shape or params.shape != a.shape:
        raise DimensionError("parameter/gradient shape mismatch")
    step = np.multiply(grads, 1.0 - state.rho)
    step *= grads
    a *= state.rho
    a += step
    denom = np.add(a, state.epsilon)
    np.sqrt(denom, out=denom)
    np.multiply(grads, state.learning_rate, out=step)
    step /= denom
    params -= step
