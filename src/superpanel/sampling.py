"""Conditional sampling from a trained model.

New preference draws come from pushing unit-Gaussian latent vectors
through the decoder under a fixed conditional row. Each preference
segment is resolved by one seeded draw from its softmax distribution, so
the draws keep the full conditional spread of the model. Per-profile
randomness is derived from (master seed, profile id), so sampling many
profiles in parallel or serially yields identical output. Conditional
rows come from ``schema.encode_columns``, like every other encoded row.

One kernel (``_decode_with_noise``) serves per-profile draws, bulk
columns and the panel cube. It draws whole rows in cache-sized chunks of
about ``CHUNK_ROWS`` draws, sends at most ``CHUNK_ROWS`` of them through
one decoder pass and writes their categories into int64 columns
allocated once, so its decoder working memory grows neither with the
number of rows nor with the draws per row.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .cvae import TrainedModel
from .schema import Record, encode_columns, record_columns
from .seeding import derive_rng

#: decoder draws pushed through one forward pass: small enough that a chunk's
#: input, layer outputs and category arrays stay near cache size
CHUNK_ROWS = 4096


@dataclass
class PreferenceDraws:
    profile_id: str
    draws: list[dict]


def _resolve_samples(model: TrainedModel, dec_out: np.ndarray, uniforms: np.ndarray):
    """Category indices, (rows, blocks): block j's index is drawn from its softmax
    segment by uniforms[:, j].

    The segments are gathered into one zero-padded (rows, blocks, widest)
    array, so one cumsum, one compare-and-sum and one clamp serve every
    block. The padding follows each segment's end: it leaves every partial
    sum as it was and adds 0 to each total.
    """
    widths = [block.width for block in model.pref_layout]
    widest = max(widths)
    # the decoder's output columns are the segments in order
    slots = [j * widest + m for j, width in enumerate(widths) for m in range(width)]
    padded = np.zeros((len(dec_out), len(widths), widest))
    padded.reshape(len(dec_out), -1)[:, slots] = dec_out
    cum = np.cumsum(padded, axis=2, out=padded)
    u = uniforms * cum[:, :, -1]  # renormalize against fp drift
    idx = np.sum(u[:, :, None] >= cum, axis=2)
    return np.minimum(idx, np.array(widths) - 1, out=idx)


def _decode_with_noise(model: TrainedModel, c_rows: np.ndarray, draws_per_row: int,
                       rngs) -> dict[str, np.ndarray]:
    """The sampling kernel: draws_per_row decoder draws for every conditional row.

    rngs[i] is row i's generator (rows may share one); each row draws its
    latent noise, then its category uniforms. Whole rows are drawn in
    chunks of about CHUNK_ROWS draws, each built in one reused input
    buffer, and decoded in slices of at most CHUNK_ROWS draws (a row with
    more draws spans several slices); their categories are written into
    int64 columns allocated once. Returns one column of category indices
    per preference attribute with draws_per_row consecutive entries per row.
    """
    r, d_z = draws_per_row, model.config.latent_dim
    n, n_blocks = len(c_rows), len(model.pref_layout)
    out = np.empty((n_blocks, n * r), dtype=np.int64)
    cols = {block.name: col for block, col in zip(model.pref_layout, out)}
    if n * r == 0:
        return cols
    rows_per_chunk = min(n, max(1, CHUNK_ROWS // r))
    x = np.empty((rows_per_chunk, r, d_z + c_rows.shape[1]))
    uniforms = np.empty((rows_per_chunk, r, n_blocks))
    for lo in range(0, n, rows_per_chunk):
        k = min(rows_per_chunk, n - lo)
        for i, rng in enumerate(rngs[lo : lo + k]):
            # latent draws from the unit prior are the eps themselves
            x[i, :, :d_z] = rng.standard_normal((r, d_z))
            rng.random(out=uniforms[i])
        x[:k, :, d_z:] = c_rows[lo : lo + k, None, :]
        x_k, u_k = x[:k].reshape(k * r, -1), uniforms[:k].reshape(k * r, n_blocks)
        # several slices only when one row has more than CHUNK_ROWS draws;
        # [0] drops the tape, so no hidden layer outlives its slice
        for a in range(0, k * r, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, k * r)
            out[:, lo * r + a : lo * r + b] = _resolve_samples(
                model, nn.forward(model.decoder, x_k[a:b])[0], u_k[a:b]).T
    return cols


def sample(model: TrainedModel, c_row: np.ndarray, profile_id: str, n_draws: int,
           seed: int) -> PreferenceDraws:
    """Draw preference realizations for one encoded conditional row."""
    if n_draws < 0:
        raise ValueError("n_draws must be >= 0")
    cols = _decode_with_noise(model, np.asarray(c_row, dtype=float)[None, :], n_draws,
                              [derive_rng(seed, "profile", profile_id)])
    values = []
    for block in model.pref_layout:
        attr = model.schema.attribute(block.name)
        if attr.kind == "numerical":
            values.append([attr.bin_representative(v) for v in cols[block.name].tolist()])
        else:
            values.append(cols[block.name].tolist())
    names = [block.name for block in model.pref_layout]
    draws = [dict(zip(names, row)) for row in zip(*values)]
    return PreferenceDraws(profile_id, draws)


def sample_preference_columns(model: TrainedModel, cond_matrix: np.ndarray, draws_per_row: int,
                              seed: int) -> dict[str, np.ndarray]:
    """Vectorized draws for many conditional rows at once.

    Returns one column of category indices per preference attribute with
    draws_per_row consecutive entries per conditional row (row-major). All
    rows share one generator and take their draws from it in row order.
    """
    cond_matrix = np.atleast_2d(np.asarray(cond_matrix, dtype=float))
    rngs = [derive_rng(seed, "bulk-sample")] * len(cond_matrix)
    return _decode_with_noise(model, cond_matrix, draws_per_row, rngs)


@dataclass
class SyntheticPopulation:
    """Generated records in source order, and the ids of extrapolated sources."""

    records: list[Record]
    extrapolated_ids: list[str]


def generate_population(model: TrainedModel, records, draws_per_profile: int,
                        seed: int) -> SyntheticPopulation:
    """Draws for every source record under its own conditional values.

    Record i is profile ``str(i)``: its draws come from its own stream, so
    they do not depend on the other records. Raw time values outside the
    declared range are reported as extrapolated.
    """
    if not records:
        raise ValueError("records must be nonempty")
    schema = model.schema
    cols = record_columns(records, [b.name for b in model.cond_layout], schema)
    c_rows = encode_columns(cols, model.cond_layout, schema)
    flagged: list[str] = []
    t = schema.time_attribute
    if t is not None and t.kind == "numerical":
        outside = (cols[t.name] < t.bin_edges[0]) | (cols[t.name] >= t.bin_edges[-1])
        flagged = [str(i) for i in np.flatnonzero(outside)]
    is_pref = [a.role == "preference" for a in schema.attributes]
    names = [a.name for a in schema.attributes]
    out: list[Record] = []
    for i, rec in enumerate(records):
        for d in sample(model, c_rows[i], str(i), draws_per_profile, seed).draws:
            out.append(Record(tuple([d[n] if p else v
                                     for n, p, v in zip(names, is_pref, rec.values)])))
    return SyntheticPopulation(records=out, extrapolated_ids=flagged)
