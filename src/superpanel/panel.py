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
from .sampling import CHUNK_ROWS, generate_population, _decode_with_noise
from .schema import Schema, category_columns, encode, encode_columns, record_columns, take_rows
from .seeding import derive_rng, derive_seed, map_units


class PanelError(ValueError):
    """Unusable panel request (missing years, externals, or draws)."""


MIN_DRAWS_PER_CELL = 10  # distribution estimates below this are meaningless


@dataclass
class PanelCube:
    """Per-(individual, year) preference distribution estimates.

    Individual i is base row i. freqs maps each tabulated subset, a tuple
    of preference attributes, to its (N, T, n_bins) joint; a marginal is a
    one-attribute subset. conditionals holds each individual's base-year
    value of every conditional attribute, one column per attribute.
    """

    conditionals: dict
    years: tuple[int, ...]
    schema: Schema
    freqs: dict
    draws_per_cell: int

    @property
    def n_individuals(self) -> int:
        return len(next(iter(self.conditionals.values())))

    def joint(self, subset) -> np.ndarray:
        """The (N, T, n_bins) joint over ``subset``, which the cube must hold."""
        subset = tuple(subset)
        if subset not in self.freqs:
            raise PanelError(f"the cube holds no joint over {subset}")
        return self.freqs[subset]


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
    """All cells of one year: each subset's (n, n_bins) frequencies, in subsets order.

    The year's draws are held in one array of the narrowest unsigned type
    that holds every preference's categories, and each cell's generator
    lives only while its rows are drawn. Cells are tabulated in slices of
    about CHUNK_ROWS draws, so the keys never grow with the year's draws.
    """
    year, model, cond_rows, subsets, draws_per_cell, seed = args
    schema = model.schema
    prefs = schema.preference_attributes
    n, r = len(cond_rows), draws_per_cell
    widest = max(a.n_categories for a in prefs)
    draws = np.empty((n * r, len(prefs)), dtype=np.min_scalar_type(widest - 1))
    _decode_with_noise(model, cond_rows, r,
                       (derive_rng(seed, "panel-cell", str(i), year) for i in range(n)), draws)
    column = {a.name: j for j, a in enumerate(prefs)}
    dims = [metrics.subset_dims(schema, s) for s in subsets]
    out = [np.empty((n, int(np.prod(d)))) for d in dims]
    step = max(1, CHUNK_ROWS // r)
    for lo in range(0, n, step):
        # row i of block[:, :, j] holds cell lo + i's draws of preference j
        block = draws[lo * r : (lo + step) * r].reshape(-1, r, len(prefs))
        cell = np.arange(len(block))[:, None]
        for subset, d, freqs in zip(subsets, dims, out):
            keys = np.ravel_multi_index((cell, *(block[:, :, column[a]] for a in subset)),
                                        (len(block), *d))
            counts = np.bincount(keys.ravel(), minlength=len(block) * freqs.shape[1])
            freqs[lo : lo + len(block)] = counts.reshape(len(block), -1) / r
    return out


def build_panel(model: cvae.TrainedModel, base, years, external_by_year,
                draws_per_cell: int, seed: int, subsets, jobs: int = 1) -> PanelCube:
    """Sample every (individual, year) cell and tabulate the draws.

    ``base`` is a column table; its row i is individual i, whose
    conditional values stay fixed apart from the time value and the
    externals, which ``external_by_year`` maps year -> {attribute: column
    aligned with the base rows}. Each cell's draws are tabulated over every
    subset of ``subsets``, tuples of preference attributes.
    Each cell owns an rng derived from (seed, str(i), year), so the
    cube is identical however the cells are scheduled; jobs > 1 spreads
    the per-year blocks over worker processes. Each year's cells go through
    the sampling kernel in one call, which decodes them in cache-sized
    chunks, so the decoder's working memory does not grow with the cells.
    """
    schema = model.schema
    base_cols = {a.name: base[a.name] for a in schema.conditional_attributes}
    if not len(base_cols[schema.conditional_attributes[0].name]):
        raise PanelError("base population is empty")
    if draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError(f"draws_per_cell below floor {MIN_DRAWS_PER_CELL}")
    years = tuple(int(y) for y in years)
    if not years:
        raise PanelError("no years requested")
    subsets = [tuple(s) for s in subsets]

    # every year's conditional rows, so missing externals fail before any sampling
    cond_rows = [
        encode_columns(_year_columns(base_cols, schema, year, external_by_year),
                       schema.conditional_attributes)
        for year in years
    ]

    args = [(year, model, rows, subsets, draws_per_cell, seed)
            for year, rows in zip(years, cond_rows)]
    by_year = map_units(_panel_year_block, args, jobs)
    return PanelCube(
        conditionals=base_cols,
        years=years,
        schema=schema,
        freqs={s: np.stack([block[k] for block in by_year], axis=1)
               for k, s in enumerate(subsets)},
        draws_per_cell=draws_per_cell,
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
    freqs = cube.joint((attribute,))[mask]  # (n_sel, T, D)
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
    distances: np.ndarray
    fast: np.ndarray  # base-row positions
    slow: np.ndarray
    subset: tuple[str, ...]


def classify_movers(cube: PanelCube, t_start: int, t_end: int, subset) -> MoverReport:
    """Rank individuals by the distance their preference distribution moved.

    Distance is the standardized histogram error between the two years'
    estimates over the cube's joint of ``subset``. The slow group is the
    first decile of the ascending ranking, the fast group the last; ties
    break on the stable (distance, str(i)) order and both groups have
    exactly floor(N/10) members.
    """
    if t_start not in cube.years or t_end not in cube.years:
        raise PanelError("requested years not in cube")
    if cube.draws_per_cell < MIN_DRAWS_PER_CELL:
        raise PanelError("too few draws per cell for distance estimates")
    freqs = cube.joint(subset)
    i_start = cube.years.index(t_start)
    i_end = cube.years.index(t_end)
    n_bins = freqs.shape[2]
    diff = freqs[:, i_end, :] - freqs[:, i_start, :]
    # SRMSE with reference frequencies summing to 1: rmse / (1 / n_bins)
    distances = np.sqrt(np.sum(diff ** 2, axis=1) / n_bins) * n_bins

    n = len(distances)
    order = np.array(sorted(range(n), key=lambda i: (distances[i], str(i))), dtype=np.int64)
    k = n // 10
    return MoverReport(distances=distances, fast=order[n - k:], slow=order[:k],
                       subset=tuple(subset))


def group_marginals(cube: PanelCube, members) -> dict:
    """Socio-attribute frequency tables for a group of the cube's individuals,
    given by base-row position.

    Returns {attribute: {"frequencies": array, "mode": index}} in the
    shape used by the mover profile tables.
    """
    members = np.asarray(members, dtype=np.int64)
    if not members.size:
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


def _bootstrap_stack(args):
    """One stack of replicates: each resamples the survey, the stack refits
    as one ``cvae.train_stack``, and each surviving model generates its pool.
    Returns (replicate, model statistics or None if it diverged, data
    statistics) per replicate; every draw is keyed by the replicate alone."""
    (reps, table, encoded, schema, config, stats, samples_per_replicate, seed) = args
    n = encoded.n_rows
    split_at = min(max(1, int(round(n * 0.9))), n - 1)
    resamples, data_stats = [], []
    for rep_idx in reps:
        resample_idx = derive_rng(seed, "bootstrap-resample", rep_idx).integers(0, n, size=n)
        resample = take_rows(table, resample_idx)
        data_stats.append({s.name: _statistic_values(resample, schema, s) for s in stats})
        del resample  # not held through the refit
        resamples.append(resample_idx)

    fits = cvae.train_stack(
        encoded, [replace(config, seed=derive_seed(seed, "bootstrap-train", r)) for r in reps],
        [idx[:split_at] for idx in resamples], [idx[split_at:] for idx in resamples])

    m = min(samples_per_replicate, n)
    results = []
    for rep_idx, resample_idx, model, data in zip(reps, resamples, fits, data_stats):
        if isinstance(model, cvae.TrainingDiverged):
            results.append((rep_idx, None, data))
            continue
        synth = generate_population(
            model, take_rows(table, resample_idx[:m]), draws_per_profile=1,
            seed=derive_seed(seed, "bootstrap-generate", rep_idx),
        )
        results.append((rep_idx, {s.name: _statistic_values(synth.columns, schema, s)
                                  for s in stats}, data))
    return results


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

    Replicates refit in balanced stacks of at most ``cvae.stack_size``
    models, at least ``jobs`` stacks, which jobs > 1 spreads over worker
    processes; a replicate's results do not depend on its stack.
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
    n_stacks = max(-(-n_replicates // cvae.stack_size(schema, config)), min(jobs, n_replicates))
    args = [
        (range(i * n_replicates // n_stacks, (i + 1) * n_replicates // n_stacks), table, encoded,
         schema, config, stats, samples_per_replicate, seed)
        for i in range(n_stacks)
    ]
    results = [r for stack in map_units(_bootstrap_stack, args, jobs) for r in stack]

    diverged = tuple(r[0] for r in results if r[1] is None)
    survivors = [r for r in results if r[1] is not None]
    if len(survivors) < 2:
        raise PanelError(f"only {len(survivors)} surviving replicates; need >= 2")

    rows = []
    for stat in stats:
        for source, pos in (("model", 1), ("data", 2)):  # a result is (rep, model, data)
            per_rep = [result[pos][stat.name] for result in survivors]
            years = sorted({y for d in per_rep for y in d}, key=lambda y: (y is None, y))
            for year in years:
                vals = np.array([d.get(year, math.nan) for d in per_rep])
                vals = vals[~np.isnan(vals)]
                if vals.size >= 2:
                    rows.append((stat.name, source, year, float(vals.mean()),
                                 float(vals.std(ddof=1))))
    return BootstrapSummary(n_replicates, len(survivors), diverged, rows)
