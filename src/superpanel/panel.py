"""Individual-level pseudo panel built by conditional resampling.

A fixed pool of individuals, described by their reference-year profiles,
is pushed through every requested year: socio and geography values stay
frozen, the time value is set to the target year, and external values may
vary per year through an explicit table. For each (individual, year) cell
the model is sampled R times and the draws are tabulated into preference
distribution estimates. Downstream consumers extract per-year trends,
rank individuals by how far their distributions travel between two years,
and quantify model uncertainty by refitting on bootstrap resamples.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cvae, metrics
from .sampling import generate_population, _decode_with_noise
from .schema import Schema, category_columns, encode, encode_columns, record_columns, take_rows
from .seeding import derive_rng, derive_seed, map_units


class PanelError(ValueError):
    """Unusable panel request (missing years, externals, or draws)."""


MIN_DRAWS_PER_CELL = 10  # distribution estimates below this are meaningless


@dataclass
class PanelCube:
    """Per-(individual, year) preference distribution estimates.

    subset_freqs is the (N, T, n_bins) joint of the distance subset, or
    None when the cube has no subset; attr_freqs holds single-attribute
    marginals for every preference attribute, used by trend extraction.
    conditionals holds each individual's base-year value of every
    conditional attribute, one column per attribute.
    """

    ids: tuple[str, ...]
    conditionals: dict
    years: tuple[int, ...]
    schema: Schema
    subset: tuple[str, ...] | None
    subset_freqs: np.ndarray | None
    attr_freqs: dict
    draws_per_cell: int
    seed: int

    @property
    def n_individuals(self) -> int:
        return len(self.ids)


def default_distance_subset(schema: Schema):
    """All preference attributes jointly when the dense joint fits the bin cap."""
    subset = tuple(a.name for a in schema.preference_attributes)
    n_bins = int(np.prod(metrics.subset_dims(schema, subset)))
    return subset if n_bins <= metrics.DEFAULT_BIN_CAP else None


def _year_columns(base_cols: dict, schema: Schema, year: int, external_by_year) -> dict:
    """Base-year conditional columns moved to ``year``: the time column set
    to it and the external columns taken from the year's columns."""
    cols = dict(base_cols)
    t = schema.time_attribute
    if t is not None:
        cols[t.name] = np.full_like(cols[t.name], year)
    if any(a.role == "external" for a in schema.attributes):
        if external_by_year is None or year not in external_by_year:
            raise PanelError(f"missing external values for year {year}")
        cols.update(external_by_year[year])
    return cols


def _panel_year_block(args):
    """All cells of one year: per-individual subset and marginal frequencies."""
    year, model, ids, cond_rows, subset, draws_per_cell, seed = args
    schema = model.schema
    n, r = len(ids), draws_per_cell
    rngs = [derive_rng(seed, "panel-cell", pid, year) for pid in ids]
    draws = _decode_with_noise(model, cond_rows, r, rngs)
    cat_cols = {a.name: col for a, col in zip(schema.preference_attributes, draws.T)}
    cell = np.arange(n)[:, None]  # row i of a column reshaped to (n, r) holds cell i's draws

    def tabulate(flat, n_bins):
        keys = (cell * n_bins + flat.reshape(n, r)).ravel()
        return np.bincount(keys, minlength=n * n_bins).reshape(n, n_bins) / r

    attr_out = {
        a.name: tabulate(cat_cols[a.name], a.n_categories) for a in schema.preference_attributes
    }
    subset_out = None
    if subset is not None:
        dims = metrics.subset_dims(schema, subset)
        subset_out = tabulate(np.ravel_multi_index([cat_cols[a] for a in subset], dims),
                              int(np.prod(dims)))
    return subset_out, attr_out


def build_panel(model: cvae.TrainedModel, base, years, external_by_year,
                draws_per_cell: int, seed: int, subset=None, jobs: int = 1) -> PanelCube:
    """Sample every (individual, year) cell and tabulate the draws.

    ``base`` is a column table; its row i is individual ``str(i)``, whose
    conditional values stay fixed apart from the time value and the
    externals, which ``external_by_year`` maps year -> {attribute: column
    aligned with the base rows}. Each cell's draws are tabulated per
    preference attribute and over one joint, the distance subset: ``subset``,
    or ``default_distance_subset`` when it is None.
    Each cell owns an rng derived from (seed, individual id, year), so the
    cube is identical however the cells are scheduled; jobs > 1 spreads
    the per-year blocks over worker processes. Each year's cells go through
    the sampling kernel in one call, which decodes them in cache-sized
    chunks, so the decoder's working memory does not grow with the cells.
    """
    schema = model.schema
    base_cols = {a.name: base[a.name] for a in schema.conditional_attributes}
    ids = tuple(str(i) for i in range(len(base_cols[schema.conditional_attributes[0].name])))
    if not ids:
        raise PanelError("base population is empty")
    if draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError(f"draws_per_cell below floor {MIN_DRAWS_PER_CELL}")
    years = tuple(int(y) for y in years)
    if not years:
        raise PanelError("no years requested")
    subset = default_distance_subset(schema) if subset is None else tuple(subset)
    pref_names = tuple(a.name for a in schema.preference_attributes)
    bad = [name for name in subset or () if name not in pref_names]
    if bad:
        raise PanelError(f"subset attribute {bad[0]!r} is not a preference attribute")

    # every year's conditional rows, so missing externals fail before any sampling
    cond_rows = [
        encode_columns(_year_columns(base_cols, schema, year, external_by_year),
                       schema.conditional_attributes)
        for year in years
    ]

    args = [(year, model, ids, rows, subset, draws_per_cell, seed)
            for year, rows in zip(years, cond_rows)]
    subset_outs, attr_outs = zip(*map_units(_panel_year_block, args, jobs))  # one per year

    return PanelCube(
        ids=ids,
        conditionals=base_cols,
        years=years,
        schema=schema,
        subset=subset,
        subset_freqs=None if subset is None else np.stack(subset_outs, axis=1),
        attr_freqs={name: np.stack([a[name] for a in attr_outs], axis=1) for name in pref_names},
        draws_per_cell=draws_per_cell,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Trends


@dataclass(frozen=True)
class TrendSeries:
    attribute: str
    years: tuple[int, ...]
    kind: str  # "numeric" or "categorical"
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    category_probs: np.ndarray | None = None  # (T, D_j)
    n_individuals: int = 0


def aggregate_trend(cube: PanelCube, attribute: str, condition=None) -> TrendSeries:
    """Per-year series over the individuals whose base-year conditional
    values match every {attribute: value} pair of the condition.

    Numerical (binned) attributes yield the mean and standard deviation of
    the sampled values via bin midpoints; categorical attributes yield
    per-year category probabilities. Both are the draws-weighted mixture
    of the per-individual distribution estimates.
    """
    attr = cube.schema.attribute(attribute)
    if attr.role != "preference":
        raise PanelError(f"{attribute} is not a preference attribute")
    mask = np.ones(cube.n_individuals, dtype=bool)
    for k, v in (condition or {}).items():
        if k not in cube.conditionals:
            raise PanelError(f"condition on {k!r}: not a conditional attribute")
        mask &= cube.conditionals[k] == v
    if not mask.any():
        raise PanelError("condition matches no individuals")
    freqs = cube.attr_freqs[attribute][mask]  # (n_sel, T, D)
    mix = freqs.mean(axis=0)  # (T, D)
    if attr.kind == "numerical":
        reps = np.array([attr.bin_representative(i) for i in range(attr.n_categories)])
        mean = mix @ reps
        second = mix @ (reps ** 2)
        var = np.maximum(second - mean ** 2, 0.0)
        return TrendSeries(
            attribute=attribute, years=cube.years, kind="numeric",
            mean=mean, std=np.sqrt(var), n_individuals=int(mask.sum()),
        )
    return TrendSeries(
        attribute=attribute, years=cube.years, kind="categorical",
        category_probs=mix, n_individuals=int(mask.sum()),
    )


def fit_slope(years, values) -> float:
    """Least-squares slope of values against years."""
    x = np.asarray(years, dtype=float)
    y = np.asarray(values, dtype=float)
    x = x - x.mean()
    denom = float(np.sum(x * x))
    if denom == 0.0:
        raise ValueError("need at least two distinct years")
    return float(np.sum(x * (y - y.mean())) / denom)


# ---------------------------------------------------------------------------
# Movers


@dataclass
class MoverReport:
    ids: tuple[str, ...]
    distances: np.ndarray
    fast_ids: tuple[str, ...]
    slow_ids: tuple[str, ...]
    subset: tuple[str, ...]


def classify_movers(cube: PanelCube, t_start: int, t_end: int) -> MoverReport:
    """Rank individuals by the distance their preference distribution moved.

    Distance is the standardized histogram error between the two years'
    estimates over the cube's distance subset. The slow group is the first
    decile of the ascending ranking, the fast group the last; ties break
    on the stable (distance, id) order and both groups have exactly
    floor(N/10) members.
    """
    if t_start not in cube.years or t_end not in cube.years:
        raise PanelError("requested years not in cube")
    if cube.draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError("too few draws per cell for distance estimates")
    if cube.subset_freqs is None:
        raise PanelError("the cube has no distance subset to measure movers over")
    i_start = cube.years.index(t_start)
    i_end = cube.years.index(t_end)
    freqs = cube.subset_freqs
    n_bins = freqs.shape[2]
    diff = freqs[:, i_end, :] - freqs[:, i_start, :]
    # SRMSE with reference frequencies summing to 1: rmse / (1 / n_bins)
    distances = np.sqrt(np.sum(diff ** 2, axis=1) / n_bins) * n_bins

    ids = cube.ids
    order = sorted(range(len(ids)), key=lambda i: (distances[i], ids[i]))
    k = len(ids) // 10
    slow = tuple(ids[i] for i in order[:k])
    fast = tuple(ids[i] for i in order[len(ids) - k :])
    return MoverReport(
        ids=ids,
        distances=distances,
        fast_ids=fast,
        slow_ids=slow,
        subset=cube.subset,
    )


def group_marginals(cube: PanelCube, ids) -> dict:
    """Socio-attribute frequency tables for a group of the cube's individuals.

    Returns {attribute: {"frequencies": array, "mode": index}} in the
    shape used by the mover profile tables.
    """
    members = np.isin(cube.ids, list(ids))
    if not members.any():
        raise PanelError("empty group")
    group = take_rows(cube.conditionals, members)
    out = {}
    for attr in cube.schema.attributes:
        if attr.role != "socio":
            continue
        freqs = metrics.marginals(group, attr.name, cube.schema)
        out[attr.name] = {"frequencies": freqs, "mode": int(np.argmax(freqs))}
    return out


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass(frozen=True)
class StatisticSpec:
    """One tracked statistic.

    Categorical attributes report the frequency of ``category``;
    numerical (binned) attributes report the mean via bin midpoints when
    category is None. An optional condition restricts to a cohort, and
    per_year splits the statistic by the time attribute.
    """

    attribute: str
    category: int | None = None
    condition: tuple[tuple[str, int], ...] = ()
    per_year: bool = True

    @property
    def name(self) -> str:
        parts = [self.attribute]
        if self.category is not None:
            parts.append(f"cat{self.category}")
        for k, v in self.condition:
            parts.append(f"{k}={v}")
        return ":".join(parts)


@dataclass
class BootstrapSummary:
    n_replicates: int
    survivors: int
    diverged: tuple[int, ...]
    rows: list  # (statistic, source, year, mean, std)


def _statistic_values(table, schema: Schema, stat: StatisticSpec) -> dict:
    """Statistic per year (or {None: value} when not split by year) over a column table."""
    time_attr = schema.time_attribute
    by_year = stat.per_year and time_attr is not None
    values = table[stat.attribute]
    if stat.category is not None:  # a category's frequency is the mean of its indicator
        cats = category_columns(table, (stat.attribute,), schema)[stat.attribute]
        values = cats == stat.category
    selected = np.ones(len(values), dtype=bool)
    for k, v in stat.condition:
        selected &= table[k] == v
    if by_year:
        years = table[time_attr.name].astype(np.int64)
        groups = {y: selected & (years == y) for y in sorted(set(years[selected].tolist()))}
    else:
        groups = {None: selected}
    return {year: float(np.mean(values[mask])) if mask.any() else math.nan
            for year, mask in groups.items()}


def _is_category(value, attr) -> bool:
    return isinstance(value, (int, np.integer)) and 0 <= value < attr.n_categories


def _check_statistic(schema: Schema, stat: StatisticSpec) -> None:
    """Refuse a mean of a categorical attribute, or a category or condition
    value that is not one of its attribute's categories."""
    attr = schema.attribute(stat.attribute)
    if stat.category is None and attr.kind != "numerical":
        raise PanelError(f"statistic {stat.name}: a mean needs a numerical attribute")
    if stat.category is not None and not _is_category(stat.category, attr):
        raise PanelError(f"statistic {stat.name}: category {stat.category!r} is not one of "
                         f"{attr.name}'s {attr.n_categories} categories")
    for k, v in stat.condition:
        cond = schema.attribute(k)
        if cond.kind == "categorical" and not _is_category(v, cond):
            raise PanelError(f"statistic {stat.name}: condition value {v!r} is not one of "
                             f"{cond.name}'s {cond.n_categories} categories")


def _bootstrap_replicate(args):
    (rep_idx, table, encoded, schema, config, stats, samples_per_replicate, seed) = args
    rng = derive_rng(seed, "bootstrap-resample", rep_idx)
    n = encoded.n_rows
    resample_idx = rng.integers(0, n, size=n)

    data_stats = {s.name: _statistic_values(take_rows(table, resample_idx), schema, s)
                  for s in stats}

    rep_cfg = replace(config, seed=derive_seed(seed, "bootstrap-train", rep_idx))
    split_at = min(max(1, int(round(n * 0.9))), n - 1)
    try:
        model = cvae.train(encoded.take(resample_idx[:split_at]), rep_cfg,
                           encoded.take(resample_idx[split_at:]))
    except cvae.TrainingDiverged:
        return rep_idx, None, data_stats

    m = min(samples_per_replicate, n)
    synth = generate_population(
        model, take_rows(table, resample_idx[:m]), draws_per_profile=1,
        seed=derive_seed(seed, "bootstrap-generate", rep_idx),
    )
    model_stats = {s.name: _statistic_values(synth.columns, schema, s) for s in stats}
    return rep_idx, model_stats, data_stats


def bootstrap(records, schema: Schema, config: cvae.CvaeConfig, n_replicates: int,
              statistics, seed: int, samples_per_replicate: int = 100,
              jobs: int = 1) -> BootstrapSummary:
    """Refit-and-resample uncertainty estimates.

    Each replicate resamples the survey rows with replacement at full size,
    refits the model, generates preferences for a pool of resampled
    profiles, and evaluates the declared statistics; the same statistics
    are also computed directly on the resample (the data-only reference).
    The summary reports the mean and standard deviation of each statistic
    across surviving replicates for both sources. Every statistic is
    checked against the schema before any replicate trains.
    """
    if n_replicates < 2:
        raise PanelError("need at least 2 replicates")
    stats = tuple(statistics)
    if not stats:
        raise PanelError("no statistics declared")
    for stat in stats:
        _check_statistic(schema, stat)
    # the survey is encoded once; a replicate's rows are taken from it by index
    table, encoded = record_columns(records, schema), encode(records, schema)
    args = [
        (b, table, encoded, schema, config, stats, samples_per_replicate, seed)
        for b in range(n_replicates)
    ]
    results = map_units(_bootstrap_replicate, args, jobs)

    diverged = tuple(r[0] for r in results if r[1] is None)
    survivors = [r for r in results if r[1] is not None]
    if len(survivors) < 2:
        raise PanelError(f"only {len(survivors)} surviving replicates; need >= 2")

    rows = []
    for stat in stats:
        for source in ("model", "data"):
            per_rep = []
            for _, model_stats, data_stats in survivors:
                per_rep.append((model_stats if source == "model" else data_stats)[stat.name])
            years = sorted({y for d in per_rep for y in d}, key=lambda y: (y is None, y))
            for year in years:
                vals = np.array([d.get(year, math.nan) for d in per_rep])
                vals = vals[~np.isnan(vals)]
                if vals.size < 2:
                    continue
                rows.append(
                    (stat.name, source, year, float(vals.mean()), float(vals.std(ddof=1)))
                )
    return BootstrapSummary(
        n_replicates=n_replicates,
        survivors=len(survivors),
        diverged=diverged,
        rows=rows,
    )
