"""Conditional sampling from a trained model.

New preference draws come from pushing unit-Gaussian latent vectors
through the decoder under a fixed conditional row. Each preference
segment is resolved by one seeded draw from its softmax distribution, so
the draws keep the full conditional spread of the model. Per-profile
randomness is derived from (master seed, profile id), so sampling many
profiles in parallel or serially yields identical output. Conditional
rows come from ``schema.encode_columns``, like every other encoded row.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .cvae import TrainedModel
from .schema import Record, encode_columns, record_columns
from .seeding import derive_rng

#: decoder rows pushed through one batched forward pass
CHUNK_ROWS = 65536


@dataclass
class PreferenceDraws:
    profile_id: str
    draws: list[dict]


def _resolve_samples(model: TrainedModel, dec_out: np.ndarray, uniforms):
    """One column of category indices per attribute, each drawn from its softmax."""
    cols = {}
    for j, block in enumerate(model.pref_layout):
        cum = np.cumsum(dec_out[:, block.start : block.start + block.width], axis=1)
        u = uniforms[:, j] * cum[:, -1]  # renormalize against fp drift
        idx = np.sum(u[:, None] >= cum, axis=1)
        cols[block.name] = np.minimum(idx, block.width - 1).astype(np.int64)
    return cols


def _decode_with_noise(model: TrainedModel, c_rows: np.ndarray, draws_per_row: int,
                       rngs) -> dict[str, np.ndarray]:
    """The sampling kernel: draws_per_row decoder draws for every conditional row.

    rngs[i] is row i's generator (rows may share one); each row draws its
    latent noise, then its category uniforms. Rows are decoded in chunks of
    about CHUNK_ROWS draws. Returns one column of category indices per
    preference attribute with draws_per_row consecutive entries per row.
    """
    r, d_z = draws_per_row, model.config.latent_dim
    n_blocks = len(model.pref_layout)
    pieces = []
    rows_per_chunk = max(1, CHUNK_ROWS // r)
    for lo in range(0, len(c_rows), rows_per_chunk):
        hi = min(lo + rows_per_chunk, len(c_rows))
        eps = np.empty(((hi - lo) * r, d_z))
        uniforms = np.empty(((hi - lo) * r, n_blocks))
        for k, rng in enumerate(rngs[lo:hi]):
            eps[k * r : (k + 1) * r] = rng.standard_normal((r, d_z))
            uniforms[k * r : (k + 1) * r] = rng.random((r, n_blocks))
        expanded = np.repeat(c_rows[lo:hi], r, axis=0)
        # latent draws from the unit prior are the eps themselves
        dec_out, tape = nn.forward(model.decoder, np.concatenate([eps, expanded], axis=1))
        pieces.append(_resolve_samples(model, dec_out, uniforms))
        # Drop the decoder's buffers before the next chunk allocates its own, but
        # keep this chunk's inputs until then: freed heap memory is then reused
        # rather than handed back to the system and faulted in again.
        del dec_out, tape
    if len(pieces) == 1:
        return pieces[0]
    return {name: np.concatenate([p[name] for p in pieces]) for name in pieces[0]}


def sample(model: TrainedModel, c_row: np.ndarray, profile_id: str, n_draws: int,
           seed: int) -> PreferenceDraws:
    """Draw preference realizations for one encoded conditional row."""
    if n_draws < 0:
        raise ValueError("n_draws must be >= 0")
    if n_draws == 0:
        return PreferenceDraws(profile_id, [])
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
