"""Conditional variational autoencoder on encoded survey rows.

The encoder maps the concatenation of a preference row v and its
conditional row c to the mean and log-variance of a diagonal Gaussian over
the latent space. A latent draw z = mu + exp(log_var / 2) * eps is
concatenated with c and decoded back into softmax probabilities for
every one-hot segment of v.

The training objective summed over a batch is

    total = xent + beta * kl

with the cross-entropy of v under the decoder's probabilities and the
analytic Gaussian divergence from the unit prior

    kl = -1/2 * sum_i (1 + log_var_i - mu_i^2 - exp(log_var_i)).

The encoder is parameterized by log-variance, so exp(log_var) is the
latent variance and the divergence above is the exact closed form.

Training works on one parameter vector and one gradient vector per model:
both networks are packed into one buffer (nn.pack), loss_and_grads returns
(xent, kl) and overwrites a buffer of that layout with the gradient of the
total, writing each layer's outputs and gradients into nn.step_buffers made
once per fit, and one nn.rmsprop_step updates the parameters.

Models of one shape and config that differ only in seed train as a stack
(train_stack): row k of one (K, P) buffer is model k's nn.pack layout,
nn.bind views it as stacked networks, and each loss_and_grads call runs all
K batches at once, returning per-model (xent, kl). Each model keeps its own
generators, optimizer step, checkpoint and divergence, so it is bit-identical
to the same model trained alone; train is the stack of one.
"""

import itertools
import json
import math
from dataclasses import dataclass, fields, asdict, replace

import numpy as np

from . import metrics, nn
from .schema import EncodedDataset, Schema, schema_from_dict
from .seeding import derive_rng, derive_seed, map_units

LOG_FLOOR = 1e-12  # clamp inside log() so saturated softmax cannot emit -inf
#: Bound on the arrays a stacked training step allocates afresh, in floats:
#: the rows of every batch of the stack times the widest of them, a network's
#: input or output (each layer's output and gradients go to buffers reused
#: from step to step), stay below it. 8,192 floats are 64 KiB, from which on
#: glibc's free() consolidates the heap and returns its top to the OS, so
#: each step would fault its pages in afresh.
STACK_FLOATS = 8_192
#: version 2: every preference is a softmax segment; head blocks are widths
MODEL_FORMAT_VERSION = 2


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, detail: str = ""):
        super().__init__(f"non-finite loss at epoch {epoch}{': ' + detail if detail else ''}")
        self.epoch = epoch


def _whole(name: str, value) -> int:
    """An int field's value; a number with a fractional part is refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CvaeConfig:
    hidden_layers: tuple[int, ...] = (64, 32)
    latent_dim: int = 5
    beta: float = 0.5
    learning_rate: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        # JSON configs and --set overrides give ints for floats and lists for tuples
        for f in fields(self):
            value = getattr(self, f.name)
            object.__setattr__(self, f.name, tuple(_whole(f.name, h) for h in value)
                               if f.name == "hidden_layers"
                               else _whole(f.name, value) if f.type is int else f.type(value))
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError(f"hidden_layers widths must be >= 1, got {list(self.hidden_layers)}")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainedModel:
    encoder: nn.Network
    decoder: nn.Network
    config: CvaeConfig
    schema: Schema
    training_history: list[tuple[float, float]]
    best_epoch: int


def network_shapes(schema: Schema, config: CvaeConfig) -> dict:
    """The shapes of both networks, {name: (width chain, head segment widths)}.

    The encoder maps v+c to 2*Dz through a linear head (no segments); the
    decoder maps z+c to v through one softmax per preference attribute.
    Both share the config's hidden widths. ``build_networks`` builds these
    shapes and ``load_model`` holds a model file to them.
    """
    heads = tuple(a.n_categories for a in schema.preference_attributes)
    dim_v, dim_c = sum(heads), sum(a.n_categories for a in schema.conditional_attributes)
    hidden, d_z = list(config.hidden_layers), config.latent_dim
    return {"encoder": ([dim_v + dim_c, *hidden, 2 * d_z], None),
            "decoder": ([d_z + dim_c, *hidden, dim_v], heads)}


def build_networks(schema: Schema, config: CvaeConfig) -> tuple[nn.Network, nn.Network]:
    """Freshly initialized encoder and decoder of ``network_shapes``."""
    return tuple(
        nn.init_weights(dims, derive_seed(config.seed, f"{name}-init"), head_blocks=heads)
        for name, (dims, heads) in network_shapes(schema, config).items()
    )


# ---------------------------------------------------------------------------
# Forward pieces


def _batch_sum(x: np.ndarray, lead) -> np.ndarray:
    """Sum over each batch's rows and columns, one sum per leading index."""
    return x.reshape(*lead, -1).sum(-1)


def kl_divergence(mu: np.ndarray, log_var: np.ndarray):
    """Closed-form divergence of N(mu, exp(log_var)) from the unit Gaussian,
    summed over a batch's rows, one sum per batch of a stack."""
    return -0.5 * _batch_sum(1.0 + log_var - mu ** 2 - np.exp(log_var), mu.shape[:-2])


def loss_and_grads(encoder: nn.Network, decoder: nn.Network, V: np.ndarray, C: np.ndarray,
                   eps: np.ndarray, beta: float, grads=None, work=None):
    """Batch loss terms (xent, kl) and, given grads, their exact gradients.

    V, C and eps are 2-D float arrays, one eps draw per record. grads is
    nn.views([encoder, decoder], buffer) of a buffer laid out as nn.pack
    lays out the parameters; every entry of the buffer is overwritten with
    the gradient of xent + beta * kl. With grads None (validation) only the
    loss terms are computed. Stacked networks (nn.bind) take (K, rows, ...)
    arrays and a (K, P) buffer's views, and return (K,) arrays of terms.
    work, nn.step_buffers of the encoder and of the decoder for these rows,
    receives the layer outputs and gradients of a gradient pass; without it
    a gradient pass allocates them for the call.
    """
    if V.shape[-2] == 0:
        raise ValueError("empty batch")
    d_z, lead = eps.shape[-1], V.shape[:-2]
    if grads is not None and work is None:
        work = [nn.step_buffers(net, V.shape[:-1]) for net in (encoder, decoder)]

    # overflow during a diverging run surfaces as a non-finite loss that the
    # training loop reports; no need for numpy to warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        # the validation pass runs no backward, so it keeps no layer outputs
        (enc_outs, enc_grads), (dec_outs, dec_grads) = work or ((None, None), (None, None))
        enc_in = np.concatenate([V, C], axis=-1)
        enc_out = nn.forward(encoder, enc_in, out=enc_outs)
        if grads is None:
            del enc_in  # only backward reads it again
        mu, log_var = enc_out[..., :d_z], enc_out[..., d_z:]
        std = np.exp(0.5 * log_var)
        z = mu + std * eps
        dec_in = np.concatenate([z, C], axis=-1)
        dec_out = nn.forward(decoder, dec_in, out=dec_outs)

        clamped = np.maximum(dec_out, LOG_FLOOR)
        xent = -_batch_sum(V * np.log(clamped), lead)
        kl = kl_divergence(mu, log_var)
        if grads is None:
            return xent, kl

        enc_views, dec_views = grads
        # clamped entries sit on a flat segment of log
        grad_dec_out = np.where(dec_out >= LOG_FLOOR, -V / clamped, 0.0)
        grad_z = nn.backward(decoder, dec_in, dec_outs, grad_dec_out, dec_views,
                             out=dec_grads)[..., :d_z]

        grad_mu = grad_z + beta * mu
        grad_log_var = grad_z * (0.5 * std * eps) + beta * (-0.5) * (1.0 - np.exp(log_var))
        nn.backward(encoder, enc_in, enc_outs, np.concatenate([grad_mu, grad_log_var], axis=-1),
                    enc_views, input_grad=False, out=enc_grads)
    return xent, kl


# ---------------------------------------------------------------------------
# Training


def stack_size(schema: Schema, config: CvaeConfig) -> int:
    """The most models of ``config``'s shape whose stacked step stays below
    STACK_FLOATS: rows of the stack's batches x the widest network input or
    output. Hidden widths do not count; their arrays are reused."""
    widest = max(max(dims[0], dims[-1]) for dims, _ in network_shapes(schema, config).values())
    return max(1, (STACK_FLOATS - 1) // (config.batch_size * widest))


def train_stack(data: EncodedDataset, configs, rows, val_rows, val_data=None) -> list:
    """Train one model per config, as a stack, on rows of one encoding.

    Model k trains on the rows rows[k] of ``data`` and validates on the rows
    val_rows[k] of ``val_data`` (``data`` by default), so no subset is
    copied; each batch is gathered by index. The configs may differ only in
    seed and the training row sets only in their rows, not their counts.
    Each model is what ``train`` makes of it alone, bit for bit: it keeps its
    own train-loop generator (a permutation each epoch, then each batch's eps
    draws), its own validation eps, RMSprop step and best-validation
    checkpoint. Returns, per model, the TrainedModel, whose networks are
    views of its row of the stack's parameter buffer, or the TrainingDiverged
    that stopped it when its loss went non-finite; the others train on.
    """
    configs, rows = list(configs), [np.asarray(r, dtype=np.int64) for r in rows]
    config, k_models = configs[0], len(configs)
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("stacked configs may differ only in seed")
    if not len(rows) == len(val_rows) == k_models:
        raise ValueError("need one training and one validation row set per config")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("stacked training row sets must have one row count")
    if n == 0:
        raise ValueError("empty training set")
    val_data = data if val_data is None else val_data

    models = [build_networks(data.schema, c) for c in configs]
    params = np.empty((k_models, nn.parameter_count(models[0])))
    for model, row in zip(models, params):
        nn.pack(model, out=row)
    # a stack of one runs on 2-D arrays, whose numpy calls cost a little less
    stack = slice(None) if k_models > 1 else 0
    encoder, decoder = nn.bind(models[0], params[stack])
    grads = np.empty_like(params)
    grad_views = nn.views(models[0], grads[stack])
    states = [nn.OptimizerState(np.zeros_like(row), c.learning_rate, c.rho, c.epsilon)
              for row, c in zip(params, configs)]
    best_params = params.copy()

    gens = [derive_rng(c.seed, "train-loop") for c in configs]
    val_eps = [derive_rng(c.seed, "val-eps").standard_normal((len(r), config.latent_dim))
               for c, r in zip(configs, val_rows)]
    eps = np.empty((k_models, config.batch_size, config.latent_dim))
    order = np.empty((k_models, n), dtype=np.int64)
    work = [nn.step_buffers(net, eps[stack].shape[:-1]) for net in (encoder, decoder)]

    live = list(range(k_models))
    failed: dict[int, TrainingDiverged] = {}
    history: list[list[tuple[float, float]]] = [[] for _ in configs]
    best_val = [np.inf] * k_models
    best_epoch = [-1] * k_models
    for epoch in range(config.epochs):
        for k in live:
            order[k] = rows[k][gens[k].permutation(n)]
        epoch_total = [0.0] * k_models
        for start in range(0, n, config.batch_size):
            idx = order[stack, start : start + config.batch_size]
            b = idx.shape[-1]
            for k in live:
                gens[k].standard_normal(out=eps[k, :b])
            xent, kl = loss_and_grads(encoder, decoder, data.preference[idx],
                                      data.conditional[idx], eps[stack, :b], config.beta,
                                      grad_views,
                                      work if b == config.batch_size else _first_rows(work, b))
            totals = (xent + config.beta * kl).reshape(k_models).tolist()
            for k in live:
                if math.isfinite(totals[k]):
                    epoch_total[k] += totals[k]
                else:  # a diverged model stops stepping
                    failed[k] = TrainingDiverged(epoch)
            if failed:
                live = [k for k in live if k not in failed]
            for k in live:
                nn.rmsprop_step(params[k], grads[k], states[k])
        for k in live:
            enc, dec = models[k]
            xent, kl = loss_and_grads(enc, dec, val_data.preference[val_rows[k]],
                                      val_data.conditional[val_rows[k]], val_eps[k],
                                      config.beta)
            val_total = xent + config.beta * kl
            if not np.isfinite(val_total):
                failed[k] = TrainingDiverged(epoch, "validation loss")
                continue
            val_loss = float(val_total / len(val_rows[k]))
            history[k].append((epoch_total[k] / n, val_loss))
            if val_loss < best_val[k]:
                best_val[k], best_epoch[k] = val_loss, epoch
                best_params[k] = params[k]
        live = [k for k in live if k not in failed]
        if not live:
            break

    params[live] = best_params[live]
    return [failed.get(k) or TrainedModel(encoder=enc, decoder=dec, config=c,
                                          schema=data.schema, training_history=history[k],
                                          best_epoch=best_epoch[k])
            for k, ((enc, dec), c) in enumerate(zip(models, configs))]


def _first_rows(work, b: int):
    """nn.step_buffers of full batches cut to their first b rows."""
    return [([a[..., :b, :] for a in outs], [(g[..., :b, :], h[..., :b, :]) for g, h in pairs])
            for outs, pairs in work]


def train(dataset: EncodedDataset, config: CvaeConfig, val_set: EncodedDataset, *,
          rows=None, val_rows=None) -> TrainedModel:
    """Mini-batch RMSprop training with best-validation checkpoint restore.

    Batches are reshuffled every epoch from the config seed. The recorded
    history holds per-record train and validation losses; the returned
    parameters are the snapshot from the epoch with the lowest validation
    loss. Validation eps draws are fixed once per run so the checkpoint
    comparison is apples to apples across epochs. rows and val_rows pick the
    rows of dataset and val_set to use, all of them by default. This is
    ``train_stack`` with one model; a non-finite loss raises TrainingDiverged.
    """
    rows = np.arange(dataset.n_rows) if rows is None else rows
    val_rows = np.arange(val_set.n_rows) if val_rows is None else val_rows
    (model,) = train_stack(dataset, [config], [rows], [val_rows], val_set)
    if isinstance(model, TrainingDiverged):
        raise model
    return model


# ---------------------------------------------------------------------------
# Grid search


@dataclass(frozen=True)
class GridSpec:
    n_layers: tuple[int, ...] = (1, 2, 3)
    n_neurons: tuple[int, ...] = (25, 50, 100, 200, 400)
    latent_dims: tuple[int, ...] = (5, 10, 25)
    betas: tuple[float, ...] = (0.1, 0.5, 1.0, 10.0)

    def cells(self) -> list[tuple[int, int, int, float]]:
        return list(itertools.product(self.n_layers, self.n_neurons, self.latent_dims, self.betas))


def grid_cell_config(base: CvaeConfig, n_layers: int, n_neurons: int, latent_dim: int,
                     beta: float, seed: int) -> CvaeConfig:
    """``base`` with one cell's shape: hidden widths n_neurons // 2**l for layer l
    (integer division), the cell's latent size and divergence weight, and ``seed``."""
    hidden = tuple(n_neurons // (2 ** l) for l in range(n_layers))
    if any(h < 1 for h in hidden):
        raise ValueError(f"layer width collapsed to zero for ({n_layers}, {n_neurons})")
    return replace(base, hidden_layers=hidden, latent_dim=latent_dim, beta=beta, seed=seed)


@dataclass
class GridResult:
    cell: int
    n_layers: int
    n_neurons: int
    latent_dim: int
    beta: float
    mean_srmse: float
    val_loss: float
    best_epoch: int
    diverged: bool


def _pref_histogram(ds: EncodedDataset, subset) -> metrics.JointHistogram:
    """Exact cross tabulation of an encoded set over a preference subset."""
    attrs = ds.schema.preference_attributes
    segments = np.split(ds.preference, np.cumsum([a.n_categories for a in attrs])[:-1], axis=1)
    cols = {a.name: np.argmax(seg, axis=1).astype(np.int64)
            for a, seg in zip(attrs, segments) if a.name in subset}
    return metrics.cross_tabulate_columns(cols, subset, ds.schema)


def evaluate_srmse(model: TrainedModel, val_set: EncodedDataset, eval_subsets, seed: int) -> dict:
    """Validation SRMSE per subset: one model draw conditioned on each
    held-out conditional row versus the held-out preference tabulation."""
    from .sampling import sample_preference_columns

    cols = sample_preference_columns(model, val_set.conditional, draws_per_row=1, seed=seed)
    out = {}
    for subset in eval_subsets:
        subset = tuple(subset)
        model_hist = metrics.cross_tabulate_columns(
            {k: cols[k] for k in subset}, subset, model.schema
        )
        val_hist = _pref_histogram(val_set, subset)
        out[subset] = metrics.srmse(model_hist, val_hist)
    return out


def _run_grid_cell(args):
    (cell_idx, nl, nnrn, dz, beta, train_set, val_set, eval_subsets, base, master_seed) = args
    cfg = grid_cell_config(base, nl, nnrn, dz, beta, derive_seed(master_seed, "grid-cell", cell_idx))
    try:
        model = train(train_set, cfg, val_set)
    except TrainingDiverged:
        return GridResult(cell_idx, nl, nnrn, dz, beta, np.inf, np.inf, -1, diverged=True)
    by_subset = evaluate_srmse(
        model, val_set, eval_subsets, seed=derive_seed(master_seed, "grid-eval", cell_idx)
    )
    return GridResult(
        cell_idx, nl, nnrn, dz, beta,
        float(np.mean(list(by_subset.values()))),
        min(v for _, v in model.training_history),
        model.best_epoch,
        diverged=False,
    )


def grid_search(
    train_set: EncodedDataset,
    val_set: EncodedDataset,
    grid: GridSpec,
    eval_subsets,
    seed: int,
    base: CvaeConfig,
    jobs: int = 1,
) -> tuple[CvaeConfig, list[GridResult]]:
    """Train one model per grid cell and rank by mean validation SRMSE.

    The per-run validation loss decides only each cell's checkpoint epoch;
    ranking across cells uses the distribution distance. Cells run
    independently with seeds derived from (seed, cell index), so the
    leaderboard is identical for any jobs count. Diverged cells stay on
    the leaderboard, flagged, and are excluded from ranking. Every cell and
    the returned winner are ``base`` (learning rate, epochs, ...) with the
    cell's shape and seed, see ``grid_cell_config``.
    """
    cells = grid.cells()
    if not cells:
        raise ValueError("empty grid")
    subsets = [metrics.check_subset(f"eval_subsets[{i}]", s, train_set.schema, "preference", True)
               for i, s in enumerate(eval_subsets)]
    args = [
        (i, nl, nnrn, dz, beta, train_set, val_set, subsets, base, seed)
        for i, (nl, nnrn, dz, beta) in enumerate(cells)
    ]
    results = map_units(_run_grid_cell, args, jobs)
    survivors = [r for r in results if not r.diverged]
    if not survivors:
        raise TrainingDiverged(-1, "every grid cell diverged")
    best = min(survivors, key=lambda r: (r.mean_srmse, r.cell))
    best_cfg = grid_cell_config(base, best.n_layers, best.n_neurons, best.latent_dim, best.beta,
                                derive_seed(seed, "grid-winner"))
    return best_cfg, results


# ---------------------------------------------------------------------------
# Serialization


def _network_to_dict(net: nn.Network) -> dict:
    return {
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
                "activation": layer.activation,
                "blocks": list(layer.blocks) if layer.blocks else None,
            }
            for layer in net.layers
        ]
    }


def _network_from_dict(data: dict) -> nn.Network:
    return nn.Network(layers=[
        nn.DenseLayer(weights=np.array(entry["weights"], dtype=float),
                      biases=np.array(entry["biases"], dtype=float),
                      activation=entry["activation"],
                      blocks=tuple(int(w) for w in entry["blocks"]) if entry["blocks"] else None)
        for entry in data["layers"]])


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "format": "superpanel-model",
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(model.config),
        "schema": model.schema.to_dict(),
        "schema_hash": model.schema.content_hash(),
        "encoder": _network_to_dict(model.encoder),
        "decoder": _network_to_dict(model.decoder),
        "training_history": [[t, v] for t, v in model.training_history],
        "best_epoch": model.best_epoch,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model file; a missing or malformed field is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "superpanel-model":
        raise ValueError(f"{path}: not a model file")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: model format_version {version} is not supported "
                         f"(expected {MODEL_FORMAT_VERSION}); retrain the model")

    def field(key, parse):
        if key not in payload:
            raise ValueError(f"{path}: model file has no {key!r} field")
        try:
            return parse(payload[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed {key!r} field in model file: {exc}") from None

    model = TrainedModel(
        encoder=field("encoder", _network_from_dict),
        decoder=field("decoder", _network_from_dict),
        config=field("config", lambda c: CvaeConfig(**c)),
        schema=field("schema", schema_from_dict),
        training_history=field("training_history", lambda h: [(t, v) for t, v in h]),
        best_epoch=field("best_epoch", int),
    )
    # the sampler slices the decoder output by the schema's preference widths,
    # so a network of other shapes would draw wrong categories without failing
    for key, (dims, heads) in network_shapes(model.schema, model.config).items():
        net = getattr(model, key)
        widths = [net.in_dim] + [layer.out_dim for layer in net.layers]
        if widths != dims:
            raise ValueError(f"{path}: {key!r} network has layer widths {widths}; "
                             f"the schema and config need {dims}")
        want = nn.layer_activations(len(net.layers), heads)
        if [layer.activation for layer in net.layers] != want:
            raise ValueError(f"{path}: {key!r} network's layer 'activation' tags are not {want}")
        blocks = net.layers[-1].blocks
        if blocks != heads:
            raise ValueError(f"{path}: {key} head 'blocks' {list(blocks or ())} do not match "
                             f"the segment widths {list(heads or ())} the schema needs")
    return model
