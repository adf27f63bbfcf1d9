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
from .schema import Schema, discretize_array, encode, encode_columns, record_columns
from .seeding import derive_rng, derive_seed, map_units


class PanelError(ValueError):
    """Unusable panel request (missing years, externals, or draws)."""


MIN_DRAWS_PER_CELL = 10  # distribution estimates below this are meaningless


@dataclass
class PanelCube:
    """Per-(individual, year) preference distribution estimates.

    subset_freqs maps each declared subset to an (N, T, n_bins) array;
    attr_freqs holds single-attribute marginals for every preference
    attribute, used by trend extraction. conditionals holds each
    individual's base-year value of every conditional attribute, one
    column per attribute.
    """

    ids: tuple[str, ...]
    conditionals: dict
    years: tuple[int, ...]
    schema: Schema
    subsets: tuple[tuple[str, ...], ...]
    subset_freqs: dict
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


def _year_columns(base_cols: dict, ids, schema: Schema, year: int, external_by_year) -> dict:
    """Base-year conditional columns moved to ``year``: the time column set
    to it and the external columns read from the table."""
    cols = dict(base_cols)
    t = schema.time_attribute
    if t is not None:
        cols[t.name] = np.full(len(ids), year, dtype=cols[t.name].dtype)
    externals = [a for a in schema.attributes if a.role == "external"]
    if not externals:
        return cols
    if external_by_year is None or year not in external_by_year:
        raise PanelError(f"missing external values for year {year}")
    per_id = external_by_year[year]
    for pid in ids:
        if pid not in per_id:
            raise PanelError(f"missing external values for individual {pid} in year {year}")
    for attr in externals:
        missing = [pid for pid in ids if attr.name not in per_id[pid]]
        if missing:
            raise PanelError(f"missing external attribute {attr.name} for {missing[0]}/{year}")
        cols[attr.name] = np.array([per_id[pid][attr.name] for pid in ids],
                                   dtype=cols[attr.name].dtype)
    return cols


def _panel_year_block(args):
    """All cells of one year: per-individual subset and marginal frequencies."""
    t_idx, year, model, ids, cond_rows, subsets, draws_per_cell, seed = args
    schema = model.schema
    n, r = len(ids), draws_per_cell
    rngs = [derive_rng(seed, "panel-cell", pid, year) for pid in ids]
    cat_cols = _decode_with_noise(model, cond_rows, r, rngs)
    cell = np.arange(n)[:, None]  # row i of a column reshaped to (n, r) holds cell i's draws

    def tabulate(flat, n_bins):
        keys = (cell * n_bins + flat.reshape(n, r)).ravel()
        return np.bincount(keys, minlength=n * n_bins).reshape(n, n_bins) / r

    attr_out = {
        a.name: tabulate(cat_cols[a.name], a.n_categories) for a in schema.preference_attributes
    }
    subset_out = {}
    for s in subsets:
        dims = metrics.subset_dims(schema, s)
        subset_out[s] = tabulate(np.ravel_multi_index([cat_cols[a] for a in s], dims),
                                 int(np.prod(dims)))
    return t_idx, subset_out, attr_out


def build_panel(model: cvae.TrainedModel, base_records, years, external_by_year,
                draws_per_cell: int, seed: int, subsets=None, jobs: int = 1) -> PanelCube:
    """Sample every (individual, year) cell and tabulate the draws.

    Base record i is individual ``str(i)``; its conditional values stay
    fixed apart from the time value and the externals, which
    ``external_by_year`` maps year -> individual id -> {attribute: value}.
    Each cell owns an rng derived from (seed, individual id, year), so the
    cube is identical however the cells are scheduled; jobs > 1 spreads
    the per-year blocks over worker processes. Decoding runs in large
    stacked batches for speed.
    """
    if not base_records:
        raise PanelError("base population is empty")
    if draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError(f"draws_per_cell below floor {MIN_DRAWS_PER_CELL}")
    years = tuple(int(y) for y in years)
    if not years:
        raise PanelError("no years requested")
    schema = model.schema
    if subsets is None:
        joint = default_distance_subset(schema)
        subsets = (joint,) if joint is not None else ()
    subsets = tuple(tuple(s) for s in subsets)
    pref_names = tuple(a.name for a in schema.preference_attributes)
    bad = [name for s in subsets for name in s if name not in pref_names]
    if bad:
        raise PanelError(f"subset attribute {bad[0]!r} is not a preference attribute")
    ids = tuple(str(i) for i in range(len(base_records)))
    base_cols = record_columns(base_records, [b.name for b in model.cond_layout], schema)

    # every year's conditional rows, so missing externals fail before any sampling
    cond_rows = [
        encode_columns(_year_columns(base_cols, ids, schema, year, external_by_year),
                       model.cond_layout, schema)
        for year in years
    ]

    n, t_count, r = len(ids), len(years), draws_per_cell
    subset_freqs = {
        s: np.zeros((n, t_count, int(np.prod(metrics.subset_dims(schema, s))))) for s in subsets
    }
    attr_freqs = {
        name: np.zeros((n, t_count, schema.attribute(name).n_categories)) for name in pref_names
    }
    args = [
        (t_idx, year, model, ids, cond_rows[t_idx], subsets, r, seed)
        for t_idx, year in enumerate(years)
    ]
    for t_idx, subset_out, attr_out in map_units(_panel_year_block, args, jobs):
        for s in subsets:
            subset_freqs[s][:, t_idx, :] = subset_out[s]
        for name in pref_names:
            attr_freqs[name][:, t_idx, :] = attr_out[name]

    return PanelCube(
        ids=ids,
        conditionals=base_cols,
        years=years,
        schema=schema,
        subsets=subsets,
        subset_freqs=subset_freqs,
        attr_freqs=attr_freqs,
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
    decile_edges: np.ndarray
    t_start: int
    t_end: int
    subset: tuple[str, ...]


def classify_movers(cube: PanelCube, t_start: int, t_end: int, subset=None) -> MoverReport:
    """Rank individuals by the distance their preference distribution moved.

    Distance is the standardized histogram error between the two years'
    estimates over the declared subset. The slow group is the first
    decile of the ascending ranking, the fast group the last; ties break
    on the stable (distance, id) order and both groups have exactly
    floor(N/10) members.
    """
    if subset is None:
        if not cube.subsets:
            raise PanelError("cube has no stored subsets")
        subset = cube.subsets[0]
    subset = tuple(subset)
    if subset not in cube.subset_freqs:
        raise PanelError(f"subset {subset} not stored in cube")
    if t_start not in cube.years or t_end not in cube.years:
        raise PanelError("requested years not in cube")
    if cube.draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError("too few draws per cell for distance estimates")
    i_start = cube.years.index(t_start)
    i_end = cube.years.index(t_end)
    freqs = cube.subset_freqs[subset]
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
        decile_edges=np.quantile(distances, np.linspace(0, 1, 11)),
        t_start=t_start,
        t_end=t_end,
        subset=subset,
    )


def group_marginals(cube: PanelCube, ids) -> dict:
    """Socio-attribute frequency tables for a group of the cube's individuals.

    Returns {attribute: {"frequencies": array, "mode": index}} in the
    shape used by the mover profile tables.
    """
    members = np.isin(cube.ids, list(ids))
    if not members.any():
        raise PanelError("empty group")
    out = {}
    for attr in cube.schema.attributes:
        if attr.role != "socio":
            continue
        col = cube.conditionals[attr.name][members]
        if attr.kind == "numerical":
            col = discretize_array(col, attr.bin_edges)
        counts = np.bincount(col, minlength=attr.n_categories)
        freqs = counts / counts.sum()
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


def _statistic_values(records, schema: Schema, stat: StatisticSpec) -> dict:
    """Statistic per year (or {None: value} when not split by year)."""
    time_attr = schema.time_attribute
    by_year = stat.per_year and time_attr is not None
    names = {stat.attribute, *(k for k, _ in stat.condition)}
    if by_year:
        names.add(time_attr.name)
    cols = record_columns(records, names, schema)
    selected = np.ones(len(records), dtype=bool)
    for k, v in stat.condition:
        selected &= cols[k] == v
    if by_year:
        years = cols[time_attr.name].astype(np.int64)
        groups = {y: selected & (years == y) for y in sorted(set(years[selected].tolist()))}
    else:
        groups = {None: selected}
    attr = schema.attribute(stat.attribute)
    values = cols[stat.attribute]
    out = {}
    for year, mask in groups.items():
        if not mask.any():
            out[year] = math.nan
        elif stat.category is not None:
            cats = values[mask]
            if attr.kind == "numerical":
                cats = discretize_array(cats, attr.bin_edges)
            out[year] = float(np.mean(cats == stat.category))
        else:
            out[year] = float(np.mean(values[mask]))
    return out


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
    (rep_idx, records, schema, config, stats, samples_per_replicate, seed) = args
    rng = derive_rng(seed, "bootstrap-resample", rep_idx)
    n = len(records)
    resample_idx = rng.integers(0, n, size=n)
    resample = [records[i] for i in resample_idx]

    data_stats = {s.name: _statistic_values(resample, schema, s) for s in stats}

    encoded = encode(resample, schema)
    rep_cfg = replace(config, seed=derive_seed(seed, "bootstrap-train", rep_idx))
    split_at = max(1, int(round(n * 0.9)))
    if split_at >= n:
        split_at = n - 1
    train_idx = np.arange(split_at)
    val_idx = np.arange(split_at, n)
    try:
        model = cvae.train(encoded.take(train_idx), rep_cfg, encoded.take(val_idx))
    except cvae.TrainingDiverged:
        return rep_idx, None, data_stats

    m = min(samples_per_replicate, n)
    synth = generate_population(
        model, resample[:m], draws_per_profile=1,
        seed=derive_seed(seed, "bootstrap-generate", rep_idx),
    )
    model_stats = {s.name: _statistic_values(synth.records, schema, s) for s in stats}
    return rep_idx, model_stats, data_stats


def bootstrap(records, schema: Schema, config: cvae.CvaeConfig, n_replicates: int,
              statistics, seed: int, samples_per_replicate: int = 100,
              jobs: int = 1) -> BootstrapSummary:
    """Refit-and-resample uncertainty estimates.

    Each replicate resamples the records with replacement at full size,
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
    args = [
        (b, records, schema, config, stats, samples_per_replicate, seed)
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
