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

Training works on one parameter vector and one gradient vector: both
networks are packed into one buffer (nn.pack), loss_and_grads returns
(xent, kl) and overwrites a buffer of the same layout with the gradient of
the total, through views that train builds once, and one nn.rmsprop_step
updates the parameters.
"""

import itertools
import json
from dataclasses import dataclass, fields, asdict, replace

import numpy as np

from . import metrics, nn
from .schema import EncodedDataset, Schema, schema_from_dict
from .seeding import derive_rng, derive_seed, map_units

LOG_FLOOR = 1e-12  # clamp inside log() so saturated softmax cannot emit -inf
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


def kl_divergence(mu: np.ndarray, log_var: np.ndarray) -> float:
    """Closed-form divergence of N(mu, exp(log_var)) from the unit Gaussian."""
    return float(-0.5 * np.sum(1.0 + log_var - mu ** 2 - np.exp(log_var)))


def loss_and_grads(encoder: nn.Network, decoder: nn.Network, V: np.ndarray, C: np.ndarray,
                   eps: np.ndarray, beta: float, grads=None):
    """Batch loss terms (xent, kl) and, given grads, their exact gradients.

    V, C and eps are 2-D float arrays, one eps draw per record. grads is
    nn.views([encoder, decoder], buffer) of a buffer laid out as nn.pack
    lays out the parameters; every entry of the buffer is overwritten with
    the gradient of xent + beta * kl. With grads None (validation) only the
    loss terms are computed.
    """
    if V.shape[0] == 0:
        raise ValueError("empty batch")
    d_z = eps.shape[1]

    # overflow during a diverging run surfaces as a non-finite loss that the
    # training loop reports; no need for numpy to warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        # the validation pass runs no backward, so it keeps no tape
        keep_tape = grads is not None
        enc_out, enc_tape = nn.forward(encoder, np.concatenate([V, C], axis=1),
                                       keep_tape=keep_tape)
        mu, log_var = enc_out[:, :d_z], enc_out[:, d_z:]
        std = np.exp(0.5 * log_var)
        z = mu + std * eps
        dec_out, dec_tape = nn.forward(decoder, np.concatenate([z, C], axis=1),
                                       keep_tape=keep_tape)

        clamped = np.maximum(dec_out, LOG_FLOOR)
        xent = -float(np.sum(V * np.log(clamped)))
        kl = kl_divergence(mu, log_var)
        if grads is None:
            return xent, kl

        enc_views, dec_views = grads
        # clamped entries sit on a flat segment of log
        grad_dec_out = np.where(dec_out >= LOG_FLOOR, -V / clamped, 0.0)
        grad_z = nn.backward(decoder, dec_tape, grad_dec_out, dec_views)[:, :d_z]

        grad_mu = grad_z + beta * mu
        grad_log_var = grad_z * (0.5 * std * eps) + beta * (-0.5) * (1.0 - np.exp(log_var))
        nn.backward(encoder, enc_tape, np.concatenate([grad_mu, grad_log_var], axis=1),
                    enc_views, input_grad=False)
    return xent, kl


# ---------------------------------------------------------------------------
# Training


def train(dataset: EncodedDataset, config: CvaeConfig, val_set: EncodedDataset) -> TrainedModel:
    """Mini-batch RMSprop training with best-validation checkpoint restore.

    Batches are reshuffled every epoch from the config seed. The recorded
    history holds per-record train and validation losses; the returned
    parameters are the snapshot from the epoch with the lowest validation
    loss. Validation eps draws are fixed once per run so the checkpoint
    comparison is apples to apples across epochs. All parameters live in
    one packed buffer and the gradients in one matching buffer, so a step
    is one RMSprop pass and the checkpoint one copy.
    """
    if dataset.n_rows == 0:
        raise ValueError("empty training set")
    encoder, decoder = build_networks(dataset.schema, config)
    params = nn.pack([encoder, decoder])
    grads = np.empty_like(params)
    grad_views = nn.views([encoder, decoder], grads)
    state = nn.OptimizerState(np.zeros_like(params), config.learning_rate, config.rho,
                              config.epsilon)

    rng = derive_rng(config.seed, "train-loop")
    val_eps = derive_rng(config.seed, "val-eps").standard_normal(
        (val_set.n_rows, config.latent_dim)
    )

    n = dataset.n_rows
    history: list[tuple[float, float]] = []
    best_val = np.inf
    best_epoch = -1
    best_params = None
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.latent_dim))
            xent, kl = loss_and_grads(encoder, decoder, dataset.preference[idx],
                                      dataset.conditional[idx], eps, config.beta, grad_views)
            total = xent + config.beta * kl
            if not np.isfinite(total):
                raise TrainingDiverged(epoch)
            epoch_total += total
            nn.rmsprop_step(params, grads, state)
        train_loss = epoch_total / n
        xent, kl = loss_and_grads(encoder, decoder, val_set.preference, val_set.conditional,
                                  val_eps, config.beta)
        val_total = xent + config.beta * kl
        if not np.isfinite(val_total):
            raise TrainingDiverged(epoch, "validation loss")
        val_loss = val_total / val_set.n_rows
        history.append((train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = params.copy()

    params[...] = best_params
    return TrainedModel(
        encoder=encoder,
        decoder=decoder,
        config=config,
        schema=dataset.schema,
        training_history=history,
        best_epoch=best_epoch,
    )


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
    prefs = {a.name for a in train_set.schema.preference_attributes}
    bad = [n for s in eval_subsets for n in s if n not in prefs]
    if bad:
        raise ValueError(f"eval subset attribute {bad[0]!r} is not a preference attribute")
    args = [
        (i, nl, nnrn, dz, beta, train_set, val_set, [tuple(s) for s in eval_subsets],
         base, seed)
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
