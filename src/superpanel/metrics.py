"""Distribution comparison over cross-tabulated joint histograms.

Histograms are dense over the full cross product of the subset's category
counts; zero cells are kept because the standardized error divides by the
total bin count. Two histograms are comparable only when they share the
same subset and dimensions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .schema import Schema, category_columns, named_attribute, record_columns

#: guard against accidentally materializing astronomically large joints; read at call time
DEFAULT_BIN_CAP = 1_000_000


class MetricError(ValueError):
    """Histogram mismatch or degenerate input."""


@dataclass(frozen=True)
class JointHistogram:
    subset: tuple[str, ...]
    dims: tuple[int, ...]
    frequencies: np.ndarray
    n_source: int

    @property
    def n_bins(self) -> int:
        return int(np.prod(self.dims))

    def marginal(self, attribute: str) -> np.ndarray:
        """Axis sum onto one attribute of the subset."""
        if attribute not in self.subset:
            raise MetricError(f"{attribute!r} not in subset {self.subset}")
        axis = self.subset.index(attribute)
        grid = self.frequencies.reshape(self.dims)
        other = tuple(i for i in range(len(self.dims)) if i != axis)
        return grid.sum(axis=other)


@dataclass(frozen=True)
class ComparisonReport:
    subset: tuple[str, ...]
    n_bins: int
    srmse: float
    corr: float
    r2: float


def _check_pair(a: JointHistogram, b: JointHistogram) -> None:
    if a.subset != b.subset or a.dims != b.dims:
        raise MetricError(f"histogram mismatch: {a.subset}/{a.dims} vs {b.subset}/{b.dims}")


def subset_dims(schema: Schema, subset) -> tuple[int, ...]:
    return tuple(schema.attribute(name).n_categories for name in subset)


def check_subset(key: str, names, schema: Schema, role: str | None,
                 joint: bool) -> tuple[str, ...]:
    """``names``: attributes of ``role`` (see ``schema.named_attribute``), at least one
    and each listed once, whose dense joint, or each one alone unless ``joint``, fits
    DEFAULT_BIN_CAP, read at call time, since one panel year's tabulation is N x n_bins
    long; refused naming ``key``, the config key the names came from."""
    names = tuple(names)
    dims = [named_attribute(f"{key}[{i}]", name, schema, role).n_categories
            for i, name in enumerate(names)]
    if not names or len(set(names)) < len(names):
        raise MetricError(f"{key} must list attributes, each once, got {list(names)}")
    n_bins = math.prod(dims) if joint else max(dims)
    if n_bins > DEFAULT_BIN_CAP:
        raise MetricError(f"{key} {list(names)} has {n_bins} bins, above the bin cap "
                          f"{DEFAULT_BIN_CAP}")
    return names


def cross_tabulate_columns(columns: dict[str, np.ndarray], subset,
                           schema: Schema) -> JointHistogram:
    """Dense normalized cross tabulation from pre-extracted index columns over
    ``subset``, which ``check_subset`` holds to its rule for any role."""
    subset = check_subset("subset", subset, schema, None, True)
    dims = subset_dims(schema, subset)
    n_bins = int(np.prod(dims))
    idx = [np.asarray(columns[name], dtype=np.int64) for name in subset]
    n = idx[0].shape[0]
    if n == 0:
        raise MetricError("no records to tabulate")
    flat = np.ravel_multi_index(idx, dims)
    counts = np.bincount(flat, minlength=n_bins).astype(float)
    return JointHistogram(subset=subset, dims=dims, frequencies=counts / n, n_source=n)


def cross_tabulate(records, subset, schema: Schema) -> JointHistogram:
    """Dense normalized cross tabulation of a record list over a subset."""
    cols = category_columns(record_columns(records, schema), subset, schema)
    return cross_tabulate_columns(cols, subset, schema)


def srmse(pi_hat: JointHistogram, pi: JointHistogram) -> float:
    """Root mean squared bin error divided by the mean reference frequency."""
    _check_pair(pi_hat, pi)
    n_b = pi.n_bins
    rmse = math.sqrt(float(np.sum((pi_hat.frequencies - pi.frequencies) ** 2)) / n_b)
    mean_ref = float(np.sum(pi.frequencies)) / n_b
    if mean_ref == 0.0:
        raise MetricError("reference histogram is empty")
    return rmse / mean_ref


def pearson(pi_hat: JointHistogram, pi: JointHistogram) -> float:
    _check_pair(pi_hat, pi)
    a = pi_hat.frequencies - pi_hat.frequencies.mean()
    b = pi.frequencies - pi.frequencies.mean()
    denom = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if denom == 0.0:
        raise MetricError("zero-variance histogram in correlation")
    return float(np.sum(a * b)) / denom


def r2(pi_hat: JointHistogram, pi: JointHistogram) -> float:
    _check_pair(pi_hat, pi)
    resid = float(np.sum((pi.frequencies - pi_hat.frequencies) ** 2))
    total = float(np.sum((pi.frequencies - pi.frequencies.mean()) ** 2))
    if total == 0.0:
        raise MetricError("zero-variance reference histogram")
    return 1.0 - resid / total


def compare(pi_hat: JointHistogram, pi: JointHistogram) -> ComparisonReport:
    return ComparisonReport(
        subset=pi.subset,
        n_bins=pi.n_bins,
        srmse=srmse(pi_hat, pi),
        corr=pearson(pi_hat, pi),
        r2=r2(pi_hat, pi),
    )


def marginals(table, attribute: str, schema: Schema) -> np.ndarray:
    """Per-category frequency vector of one attribute of a column table."""
    col = category_columns(table, (attribute,), schema)[attribute]
    if len(col) == 0:
        raise MetricError("no records")
    counts = np.bincount(col, minlength=schema.attribute(attribute).n_categories)
    return counts.astype(float) / len(col)


def _row_codes(table_a, table_b, schema: Schema) -> tuple[np.ndarray, np.ndarray]:
    """One int64 code per row of a and of b, equal exactly when two rows' full
    category tuples are equal.

    The code is a mixed-radix number over every attribute's category index,
    built over the rows of both tables together. When the radix product would
    pass 2**62, the partial codes are re-ranked to 0..k-1 (k distinct values),
    so the codes stay collision-free for any schema.
    """
    names = tuple(a.name for a in schema.attributes)
    cols_a, cols_b = (category_columns(t, names, schema) for t in (table_a, table_b))
    n_a = len(cols_a[names[0]])
    codes = np.zeros(n_a + len(cols_b[names[0]]), dtype=np.int64)
    radix = 1
    for attr in schema.attributes:
        if radix * attr.n_categories > 2 ** 62:
            distinct, codes = np.unique(codes, return_inverse=True)
            radix = len(distinct)
        codes *= attr.n_categories
        codes[:n_a] += cols_a[attr.name]
        codes[n_a:] += cols_b[attr.name]
        radix *= attr.n_categories
    return codes[:n_a], codes[n_a:]


def overlap_pair(table_a, table_b, schema: Schema) -> tuple[float, float]:
    """Percentage of rows in a whose full category tuple occurs in b, and of
    rows in b that occur in a.

    Numerical attributes are compared in bin space so that generated bin
    midpoints match the raw survey values that fall in the same bin. Rows are
    compared by their integer codes (``_row_codes``).
    """
    codes_a, codes_b = _row_codes(table_a, table_b, schema)
    if not len(codes_a) or not len(codes_b):
        raise MetricError("overlap needs nonempty samples")
    hits_a = int(np.count_nonzero(np.isin(codes_a, codes_b)))
    hits_b = int(np.count_nonzero(np.isin(codes_b, codes_a)))
    return 100.0 * hits_a / len(codes_a), 100.0 * hits_b / len(codes_b)
