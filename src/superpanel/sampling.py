"""Conditional sampling from a trained model.

New preference draws come from pushing unit-Gaussian latent vectors
through the decoder under a fixed conditional row. Each preference
segment is resolved by one seeded draw from its softmax distribution, so
the draws keep the full conditional spread of the model. Per-profile
randomness is derived from (master seed, profile id), so sampling many
profiles in parallel or serially yields identical output. Conditional
rows come from ``schema.encode_columns``, like every other encoded row.

Every draw goes through one decoder pass (``_decode_pass``): the decoder,
then the categories its softmax segments give the uniforms. The kernel
(``_decode_with_noise``) serves bulk columns and the panel cube. It draws
whole rows in cache-sized chunks of about ``CHUNK_ROWS`` draws, sends at
most ``CHUNK_ROWS`` of them through one pass and writes their categories
into the caller's array (int64 unless the caller passes a narrower one),
so its decoder working memory grows neither with the number of rows nor
with the draws per row. All passes of a call write their layer outputs
into one set of buffers. ``sample`` draws one profile as the kernel would,
in its stream order and slices, straight into arrays of its own: a
profile of a few draws pays for no chunk plan and no buffers. Generated
populations are column tables, like the survey tables they are drawn from;
their categorical preference columns are of the narrowest unsigned type
that holds every preference's categories, ``np.min_scalar_type(widest - 1)``
(uint8 up to 256 categories), as a panel year's draws are. Conditional rows
are taken in their encoding's dtype (int8) and cast as they enter the
decoder's input.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .cvae import TrainedModel
from .nn import CHUNK_ROWS
from .schema import encode_columns
from .seeding import derive_rng


@dataclass
class PreferenceDraws:
    profile_id: str
    draws: np.ndarray  # (n_draws, n_pref) category indices, columns in preference order


def _resolve(model: TrainedModel, dec_out: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The category indices of the decoder head's output, (rows, blocks),
    block j's index drawn from its softmax segment by uniforms[:, j].

    The segments are gathered into one zero-padded (rows, blocks, widest)
    array, so one cumsum, one compare-and-sum and one clamp serve every
    block. The padding follows each segment's end: it leaves every partial
    sum as it was and adds 0 to each total.
    """
    slots, widest, last = model.decoder.layers[-1].head_layout
    padded = np.zeros((len(dec_out), len(last), widest))
    padded.reshape(len(dec_out), -1)[:, slots] = dec_out
    cum = np.cumsum(padded, axis=2, out=padded)
    u = uniforms * cum[:, :, -1]  # renormalize against fp drift
    idx = (u[:, :, None] >= cum).sum(axis=2)
    return np.minimum(idx, last, out=idx)


def _decode_pass(model: TrainedModel, x: np.ndarray, uniforms: np.ndarray,
                 layers=None) -> np.ndarray:
    """One decoder pass over the input rows x and the categories it draws with
    uniforms; layers, one buffer per decoder layer, receive its layer outputs."""
    return _resolve(model, nn.forward(model.decoder, x, out=layers), uniforms)


def _decode_with_noise(model: TrainedModel, c_rows: np.ndarray, draws_per_row: int,
                       rngs, out: np.ndarray | None = None) -> np.ndarray:
    """The sampling kernel: draws_per_row decoder draws for every conditional row.

    rngs yields each row's generator in row order (rows may share one). It
    is read as the rows are drawn, so a lazy iterable keeps one generator
    alive at a time; each row draws its latent noise, then its category
    uniforms. Whole rows are drawn in chunks of about CHUNK_ROWS draws,
    each built in one reused input buffer, and decoded in slices of at most
    CHUNK_ROWS draws (a row with more draws spans several slices), every
    pass writing its layer outputs into one set of buffers allocated per
    call. The categories are written into out, an (n_rows * draws_per_row,
    n_pref) integer array, int64 and allocated here when not given:
    draws_per_row consecutive rows per conditional row and one column per
    preference attribute. Returns out.
    """
    r, d_z = draws_per_row, model.config.latent_dim
    n, n_blocks = len(c_rows), len(model.schema.preference_attributes)
    if out is None:
        out = np.empty((n * r, n_blocks), dtype=np.int64)
    if n * r == 0:
        return out
    rows_per_chunk = min(n, max(1, CHUNK_ROWS // r))
    x = np.empty((rows_per_chunk, r, d_z + c_rows.shape[1]))
    uniforms = np.empty((rows_per_chunk, r, n_blocks))
    # fresh layer outputs for every pass go back to the OS and are faulted in
    # again: panel-drift's build-panel took 177k page faults against 10k, and
    # 2.5-2.8 s against 1.8-2.0 s
    layers = [np.empty((min(rows_per_chunk * r, CHUNK_ROWS), layer.out_dim))
              for layer in model.decoder.layers]
    rngs = iter(rngs)
    for lo in range(0, n, rows_per_chunk):
        k = min(rows_per_chunk, n - lo)
        for i, rng in zip(range(k), rngs):
            # latent draws from the unit prior are the eps themselves
            x[i, :, :d_z] = rng.standard_normal((r, d_z))
            rng.random(out=uniforms[i])
        x[:k, :, d_z:] = c_rows[lo : lo + k, None, :]
        x_k, u_k = x[:k].reshape(k * r, -1), uniforms[:k].reshape(k * r, n_blocks)
        # several slices only when one row has more than CHUNK_ROWS draws
        for a in range(0, k * r, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, k * r)
            out[lo * r + a : lo * r + b] = _decode_pass(model, x_k[a:b], u_k[a:b],
                                                         [y[: b - a] for y in layers])
    return out


def sample(model: TrainedModel, c_row: np.ndarray, profile_id: str, n_draws: int,
           seed: int) -> PreferenceDraws:
    """Draw preference realizations for one encoded conditional row: the
    kernel's draws for the row and the profile's generator, drawn without its
    chunk plan and buffers."""
    if n_draws < 0:
        raise ValueError("n_draws must be >= 0")
    d_z, n_blocks = model.config.latent_dim, len(model.schema.preference_attributes)
    rng = derive_rng(seed, "profile", profile_id)
    x = np.empty((n_draws, d_z + len(c_row)))
    # latent draws from the unit prior are the eps themselves
    x[:, :d_z] = rng.standard_normal((n_draws, d_z))
    x[:, d_z:] = c_row
    uniforms = rng.random((n_draws, n_blocks))
    draws = np.empty((n_draws, n_blocks), dtype=np.int64)
    for a in range(0, n_draws, CHUNK_ROWS):
        draws[a : a + CHUNK_ROWS] = _decode_pass(model, x[a : a + CHUNK_ROWS],
                                                 uniforms[a : a + CHUNK_ROWS])
    return PreferenceDraws(profile_id, draws)


def sample_preference_columns(model: TrainedModel, cond_matrix: np.ndarray, draws_per_row: int,
                              seed: int) -> dict[str, np.ndarray]:
    """Vectorized draws for many conditional rows at once.

    Returns one column of category indices per preference attribute with
    draws_per_row consecutive entries per conditional row (row-major). All
    rows share one generator and take their draws from it in row order.
    """
    cond_matrix = np.atleast_2d(cond_matrix)
    rngs = [derive_rng(seed, "bulk-sample")] * len(cond_matrix)
    draws = _decode_with_noise(model, cond_matrix, draws_per_row, rngs)
    return {a.name: col for a, col in zip(model.schema.preference_attributes, draws.T)}


@dataclass
class SyntheticPopulation:
    """Generated rows as a column table in source order, and the ids of
    extrapolated sources."""

    columns: dict[str, np.ndarray]
    extrapolated_ids: list[str]


def generate_population(model: TrainedModel, table, draws_per_profile: int,
                        seed: int) -> SyntheticPopulation:
    """Draws for every row of a source table under its own conditional values.

    Row i is profile ``str(i)``: its draws come from its own stream, so
    they do not depend on the other rows. The generated table repeats each
    row's conditional values once per draw; a categorical preference is of
    the narrowest unsigned type that holds the widest preference's
    categories, and a numerical preference takes its bin's midpoint. Raw
    time values outside the declared range are reported as extrapolated.
    """
    schema = model.schema
    c_rows = encode_columns(table, schema.conditional_attributes)
    n, r = len(c_rows), draws_per_profile
    if n == 0:
        raise ValueError("the source table must be nonempty")
    flagged: list[str] = []
    t = schema.time_attribute
    if t is not None and t.kind == "numerical":
        outside = (table[t.name] < t.bin_edges[0]) | (table[t.name] >= t.bin_edges[-1])
        flagged = [str(i) for i in np.flatnonzero(outside)]
    widest = max(a.n_categories for a in schema.preference_attributes)
    draws = np.empty((n * r, len(schema.preference_attributes)),
                     dtype=np.min_scalar_type(widest - 1))
    for i in range(n):
        draws[i * r : (i + 1) * r] = sample(model, c_rows[i], str(i), r, seed).draws
    pref = {a.name: col for a, col in zip(schema.preference_attributes, draws.T)}
    columns = {}
    for attr in schema.attributes:
        if attr.role != "preference":
            columns[attr.name] = np.repeat(table[attr.name], r)
        elif attr.kind == "numerical":
            midpoints = np.array([attr.bin_representative(k) for k in range(attr.n_categories)])
            columns[attr.name] = midpoints[pref[attr.name]]
        else:
            columns[attr.name] = pref[attr.name]
    return SyntheticPopulation(columns, flagged)
