"""Dense feed-forward network kernel with hand-derived backpropagation.

Layers compute y = f(x W^T + b). Supported activations are tanh, linear,
and a mixed output head ("softmax_blocks") that applies a softmax to each
declared categorical segment and passes the remaining positions through
linearly. Gradients are exact chain-rule derivatives; the test suite
checks them against central finite differences.

All math is float64. Networks are plain numpy arrays, safe to share for
inference; training mutates parameters in place through the optimizer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng

ACTIVATIONS = ("tanh", "linear", "softmax_blocks")
BLOCK_KINDS = ("softmax", "linear")


class DimensionError(ValueError):
    """Shape mismatch between layers, inputs, or gradients."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str
    blocks: tuple[tuple[str, int], ...] | None = None  # for softmax_blocks

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise DimensionError("weight/bias shapes inconsistent")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "softmax_blocks":
            if not self.blocks:
                raise ValueError("softmax_blocks needs block declarations")
            for kind, width in self.blocks:
                if kind not in BLOCK_KINDS or width < 1:
                    raise ValueError(f"bad block ({kind}, {width})")
            if sum(w for _, w in self.blocks) != self.out_dim:
                raise DimensionError("block widths must sum to out_dim")
        elif self.blocks:
            raise ValueError("blocks only apply to softmax_blocks activation")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


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


@dataclass
class ForwardTape:
    """Cached per-layer inputs and activated outputs from one forward pass."""

    inputs: list[np.ndarray] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    n_layers: int = 0


@dataclass
class Gradients:
    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray

    def flat(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weight_grads, self.bias_grads):
            out.append(w)
            out.append(b)
        return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    v = np.asarray(v, dtype=float)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _activate(layer: DenseLayer, pre: np.ndarray) -> np.ndarray:
    if layer.activation == "tanh":
        return np.tanh(pre)
    if layer.activation == "linear":
        return pre
    out = np.empty_like(pre)
    offset = 0
    for kind, width in layer.blocks:
        seg = pre[..., offset : offset + width]
        out[..., offset : offset + width] = softmax(seg) if kind == "softmax" else seg
        offset += width
    return out


def _activation_backward(layer: DenseLayer, output: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through f given the activated output (pre-activation not needed)."""
    if layer.activation == "tanh":
        return grad_out * (1.0 - output * output)
    if layer.activation == "linear":
        return grad_out
    grad_pre = np.empty_like(grad_out)
    offset = 0
    for kind, width in layer.blocks:
        g = grad_out[..., offset : offset + width]
        if kind == "softmax":
            p = output[..., offset : offset + width]
            dot = np.sum(g * p, axis=-1, keepdims=True)
            grad_pre[..., offset : offset + width] = p * (g - dot)
        else:
            grad_pre[..., offset : offset + width] = g
        offset += width
    return grad_pre


def forward(network: Network, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Apply the network to a vector or a batch of row vectors."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != network.in_dim:
        raise DimensionError(f"input width {x.shape[-1]} != {network.in_dim}")
    tape = ForwardTape(n_layers=len(network.layers))
    y = x
    for layer in network.layers:
        tape.inputs.append(y)
        y = _activate(layer, y @ layer.weights.T + layer.biases)
        tape.outputs.append(y)
    return y, tape


def backward(network: Network, tape: ForwardTape, output_gradient: np.ndarray) -> Gradients:
    """Chain-rule gradients of a scalar loss given dL/doutput.

    Batched inputs contribute summed parameter gradients; the input
    gradient keeps the batch shape.
    """
    if tape.n_layers != len(network.layers):
        raise DimensionError("tape does not match network")
    grad = np.asarray(output_gradient, dtype=float)
    if grad.shape != tape.outputs[-1].shape:
        raise DimensionError("output gradient shape mismatch")
    weight_grads = [None] * len(network.layers)
    bias_grads = [None] * len(network.layers)
    for i in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[i]
        grad_pre = _activation_backward(layer, tape.outputs[i], grad)
        x = tape.inputs[i]
        if grad_pre.ndim == 1:
            weight_grads[i] = np.outer(grad_pre, x)
            bias_grads[i] = grad_pre.copy()
        else:
            weight_grads[i] = grad_pre.T @ x
            bias_grads[i] = grad_pre.sum(axis=0)
        grad = grad_pre @ layer.weights
    return Gradients(weight_grads=weight_grads, bias_grads=bias_grads, input_grad=grad)


def init_weights(dims, seed: int, activations=None, output_blocks=None) -> Network:
    """Seeded network with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    dims is the full dimension chain; activations defaults to tanh for
    hidden layers and linear for the last. Pass output_blocks to give the
    final layer the mixed softmax/linear head.
    """
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    n_layers = len(dims) - 1
    if activations is None:
        activations = ["tanh"] * (n_layers - 1) + [
            "softmax_blocks" if output_blocks else "linear"
        ]
    if len(activations) != n_layers:
        raise ValueError("one activation per layer required")
    rng = derive_rng(seed, "init-weights")
    layers = []
    for i in range(n_layers):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        blocks = tuple(output_blocks) if activations[i] == "softmax_blocks" else None
        layers.append(
            DenseLayer(weights=w, biases=np.zeros(fan_out), activation=activations[i], blocks=blocks)
        )
    return Network(layers=layers)


# ---------------------------------------------------------------------------
# RMSprop


@dataclass
class OptimizerState:
    """Running mean-square accumulators, one per parameter array."""

    accumulators: list[np.ndarray]
    learning_rate: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")


def rmsprop_init(params, learning_rate: float = 0.001, rho: float = 0.9, epsilon: float = 1e-8) -> OptimizerState:
    return OptimizerState(
        accumulators=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
        rho=rho,
        epsilon=epsilon,
    )


def rmsprop_step(params, grads, state: OptimizerState):
    """In-place update: a <- rho a + (1-rho) g^2; p <- p - lr g / sqrt(a + eps)."""
    if len(params) != len(grads) or len(params) != len(state.accumulators):
        raise DimensionError("params/grads/state length mismatch")
    for p, g, a in zip(params, grads, state.accumulators):
        if p.shape != g.shape or p.shape != a.shape:
            raise DimensionError("parameter/gradient shape mismatch")
        a *= state.rho
        a += (1.0 - state.rho) * g * g
        p -= state.learning_rate * g / np.sqrt(a + state.epsilon)
    return params, state
