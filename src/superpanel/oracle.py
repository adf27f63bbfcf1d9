"""Synthetic data-generating process with analytically known conditionals.

The generator is a small categorical Bayesian network: conditional
attributes are drawn from declared priors, preference attributes from
probability tables over their parents (earlier attributes in schema
order). Optional drift entries shift one category's probability linearly
in the year value for table rows matching a parent filter, with the
remaining categories rescaled proportionally; the shifted category's
probability is therefore exactly base + year * per_year. A generated data
set is a column table, the one reading its CSV back gives.

Because every conditional is explicit, ``exact_panel`` gives the exact
joint preference distribution of every (individual, year) cell of a base
population, the product of the preference tables read at each row, which
turns statistical claims about the trained model into checkable facts.
"""

import json
from dataclasses import dataclass

import numpy as np

from .metrics import JointHistogram, cross_tabulate_columns
from .schema import AttributeSpec, Schema, category_columns, record_columns, schema_from_dict
from .seeding import derive_rng


class DgpError(ValueError):
    """Malformed generating-process declaration."""


@dataclass(frozen=True)
class TableSpec:
    """Probability table of one attribute given its parents.

    probs has shape (prod of parent cardinalities, D_j), row-major over
    parent value tuples in declared parent order; no parents means a
    single prior row.
    """

    attribute: str
    parents: tuple[str, ...]
    probs: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class DriftSpec:
    """Linear per-year shift of one category on matching table rows."""

    attribute: str
    category: int
    per_year: float
    when: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class DgpSpec:
    schema: Schema
    tables: tuple[TableSpec, ...]
    drifts: tuple[DriftSpec, ...] = ()
    years: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "drifts", tuple(self.drifts))
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        declared = {t.attribute for t in self.tables}
        for a in self.schema.attributes:
            if a.role == "time":
                continue
            if a.kind != "categorical":
                raise DgpError("generator supports categorical attributes only")
            if a.name not in declared:
                raise DgpError(f"no table for attribute {a.name}")
        order = {a.name: i for i, a in enumerate(self.schema.attributes)}
        for t in self.tables:
            dims = [self.schema.attribute(p).cardinality for p in t.parents]
            expected_rows = int(np.prod(dims)) if dims else 1
            card = self.schema.attribute(t.attribute).cardinality
            if len(t.probs) != expected_rows or any(len(r) != card for r in t.probs):
                raise DgpError(f"table for {t.attribute} has wrong shape")
            for row in t.probs:
                if abs(sum(row) - 1.0) > 1e-9 or any(p < 0 for p in row):
                    raise DgpError(f"table row for {t.attribute} is not a distribution")
            for p in t.parents:
                if order[p] >= order[t.attribute]:
                    raise DgpError(f"{t.attribute}: parent {p} must come earlier in the schema")
                # the exact conditionals hold the profile fixed, so nothing in it
                # may depend on a preference
                if (self.schema.attribute(p).role == "preference"
                        and self.schema.attribute(t.attribute).role != "preference"):
                    raise DgpError(f"{t.attribute} is not a preference but its parent {p} is")
        for d in self.drifts:
            self._drift_check(d)
        for name in dict.fromkeys(d.attribute for d in self.drifts):
            for year in self.years:
                probs = effective_table(self, self.table_for(name), year)
                if not np.all((probs >= 0.0) & (probs <= 1.0)):
                    raise DgpError(f"drift on {name} leaves [0,1] at year {year}")

    def _drift_check(self, drift: DriftSpec) -> None:
        table = self.table_for(drift.attribute)
        card = self.schema.attribute(drift.attribute).cardinality
        if not 0 <= drift.category < card:
            raise DgpError(f"drift category {drift.category} out of range")
        for name, value in drift.when:
            if name not in table.parents:
                raise DgpError(f"drift filter {name} is not a parent of {drift.attribute}")
            if value not in range(self.schema.attribute(name).cardinality):
                raise DgpError(f"drift filter {name}={value!r} on {drift.attribute} "
                               f"is not a category of {name}")

    def table_for(self, attribute: str) -> TableSpec:
        for t in self.tables:
            if t.attribute == attribute:
                return t
        raise DgpError(f"no table for {attribute}")

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "years": list(self.years),
            "tables": [
                {"attribute": t.attribute, "parents": list(t.parents),
                 "probs": [list(r) for r in t.probs]}
                for t in self.tables
            ],
            "drifts": [
                {"attribute": d.attribute, "category": d.category,
                 "per_year": d.per_year, "when": dict(d.when)}
                for d in self.drifts
            ],
        }


def dgp_from_dict(data: dict) -> DgpSpec:
    try:
        schema = schema_from_dict(data["schema"])
        tables = tuple(
            TableSpec(
                attribute=t["attribute"],
                parents=tuple(t["parents"]),
                probs=tuple(tuple(float(p) for p in row) for row in t["probs"]),
            )
            for t in data["tables"]
        )
        drifts = tuple(
            DriftSpec(
                attribute=d["attribute"],
                category=int(d["category"]),
                per_year=float(d["per_year"]),
                when=tuple(sorted(d.get("when", {}).items())),
            )
            for d in data.get("drifts", [])
        )
    except KeyError as exc:
        raise DgpError(f"generating process: missing key {exc.args[0]!r}") from None
    return DgpSpec(schema=schema, tables=tables, drifts=drifts,
                   years=tuple(data.get("years", [0])))


def load_dgp(path) -> DgpSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return dgp_from_dict(data)
    except DgpError as exc:
        raise DgpError(f"{path}: {exc}") from None


def save_dgp(spec: DgpSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")


def effective_table(spec: DgpSpec, table: TableSpec, year: int) -> np.ndarray:
    """The table at one year, shaped (*parent cardinalities, n_categories).

    Each drift on the table, in declared order, sets its category to
    target = base + year * per_year on the rows its filter selects and
    scales those rows by (1 - target) / (1 - base) first.
    """
    dims = [spec.schema.attribute(p).cardinality for p in table.parents]
    probs = np.array(table.probs, dtype=float).reshape(*dims, -1)
    for drift in spec.drifts:
        if drift.attribute != table.attribute:
            continue
        when = dict(drift.when)
        # basic indexing: a view, so the writes below land in probs
        rows = probs[tuple(int(when[p]) if p in when else slice(None) for p in table.parents)]
        base = rows[..., drift.category].copy()
        target = base + year * drift.per_year
        rest = 1.0 - base
        rows *= np.divide(1.0 - target, rest, out=np.ones_like(rest), where=rest > 0)[..., None]
        rows[..., drift.category] = target
    return probs


def _check_year(spec: DgpSpec, year) -> None:
    """Refuse a year that is not a category of a categorical time attribute:
    no table has a row for it, and ingest would drop its records."""
    t = spec.schema.time_attribute
    if t is not None and t.kind == "categorical" and year not in range(t.cardinality):
        raise DgpError(f"year {year} is not a category of {t.name}")


def generate_dataset(spec: DgpSpec, n_per_year: int, years=None,
                     seed: int = 0) -> dict[str, np.ndarray]:
    """Ancestral sampling: n_per_year rows for each requested year, as a column
    table like ``schema.read_table``'s with the years in the order requested.

    Sampling is vectorized per attribute within a year; each year owns its
    derived stream, so any subset of years reproduces exactly.
    """
    if n_per_year < 0:
        raise ValueError("n_per_year must be >= 0")
    years = tuple(years) if years is not None else spec.years
    for year in years:
        _check_year(spec, year)
    n = n_per_year
    table = {a.name: np.empty(n * len(years), np.int64 if a.kind == "categorical" else np.float64)
             for a in spec.schema.attributes}
    for i, year in enumerate(years):
        rng = derive_rng(seed, "dgp-year", int(year))
        cols = {name: col[i * n:(i + 1) * n] for name, col in table.items()}
        # schema order: a table's parents, the year among them, are drawn first
        for attr in spec.schema.attributes:
            if attr.role == "time":
                cols[attr.name][:] = int(year)
                continue
            table_spec = spec.table_for(attr.name)
            cum = np.cumsum(effective_table(spec, table_spec, int(year)), axis=-1)
            cum = cum[tuple(cols[p] for p in table_spec.parents)]
            u = rng.random(n) * cum[..., -1]
            cols[attr.name][:] = np.minimum(np.sum(u[:, None] >= cum, axis=-1), cum.shape[-1] - 1)
    return table


def exact_panel(spec: DgpSpec, base: dict, years) -> np.ndarray:
    """Exact joint over every preference, (N, T, n_bins): base row i at each
    year, bins in C order over the preferences in schema order.

    Each year is a running product over the preferences in schema order:
    each table is read at the base's columns for its conditional parents
    and at the year for the time attribute, keeps one axis per preference
    parent and multiplies the joint of the preferences before it.
    """
    schema, years = spec.schema, [int(y) for y in years]
    pref = schema.preference_attributes
    axis = {a.name: j for j, a in enumerate(pref)}
    time = schema.time_attribute.name if schema.time_attribute is not None else None
    for year in years:
        _check_year(spec, year)
    for attr in pref:
        for p in spec.table_for(attr.name).parents:
            if p in axis or p == time:
                continue
            if p not in base:
                raise DgpError(f"base has no column for {p}, a parent of {attr.name}")
            col = np.asarray(base[p])
            bad = col[(col < 0) | (col >= schema.attribute(p).cardinality)]
            if len(bad):
                raise DgpError(f"base value {p}={bad[0].item()!r} is not a category of {p}, "
                               f"a parent of {attr.name}")
    n = len(next(iter(base.values()), ()))
    cube = np.empty((n, len(years), int(np.prod([a.cardinality for a in pref]))))
    for t, year in enumerate(years):
        joint = np.ones(n)
        for k, attr in enumerate(pref):
            table = spec.table_for(attr.name)
            # row axis first, then one axis per earlier preference
            idx = tuple(np.arange(pref[axis[p]].cardinality).reshape(-1, *[1] * (k - 1 - axis[p]))
                        if p in axis else np.reshape(year if p == time else base[p], (-1, *[1] * k))
                        for p in table.parents)
            joint = joint[..., None] * effective_table(spec, table, year)[idx]
        cube[:, t] = joint.reshape(n, -1)
    return cube


def baseline_independent(records, subset, schema: Schema) -> JointHistogram:
    """Correlation-blind reference: outer product of empirical marginals."""
    if not records:
        raise ValueError("no records")
    subset = tuple(subset)
    cols = category_columns(record_columns(records, schema), subset, schema)
    joint = cross_tabulate_columns(cols, subset, schema)
    freqs = np.ones(1)
    for name in subset:
        freqs = np.outer(freqs, joint.marginal(name)).ravel()
    return JointHistogram(subset=subset, dims=joint.dims, frequencies=freqs,
                          n_source=len(records))


# ---------------------------------------------------------------------------
# Canned generating processes

CANNED_SPECS = ("static-corr", "drift-split")


def canned_spec(name: str) -> DgpSpec:
    """Shipped ground-truth processes.

    "static-corr": stationary, strongly correlated preference block with a
    2 x 2 x 4 x 6 joint (96 combinations). "drift-split": half the
    population carries a linear preference drift, the other half is
    static; ground truth for trend slopes and mover separation.
    """
    if name == "static-corr":
        schema = Schema(
            attributes=(
                AttributeSpec("year", "time", "categorical", cardinality=5),
                AttributeSpec("segment", "socio", "categorical", cardinality=3),
                AttributeSpec("p_bike", "preference", "categorical", cardinality=2),
                AttributeSpec("p_ticket", "preference", "categorical", cardinality=2),
                AttributeSpec("p_cars", "preference", "categorical", cardinality=4),
                AttributeSpec("p_dist", "preference", "categorical", cardinality=6),
            ),
            version="static-corr-1",
        )
        tables = (
            TableSpec("segment", (), ((0.5, 0.3, 0.2),)),
            TableSpec("p_bike", ("segment",), ((0.75, 0.25), (0.45, 0.55), (0.2, 0.8))),
            # strong coupling to p_bike: the independent baseline misses it
            TableSpec("p_ticket", ("p_bike",), ((0.85, 0.15), (0.2, 0.8))),
            TableSpec(
                "p_cars",
                ("segment",),
                (
                    (0.55, 0.3, 0.1, 0.05),
                    (0.2, 0.45, 0.25, 0.1),
                    (0.05, 0.2, 0.45, 0.3),
                ),
            ),
            # near-deterministic ladder on p_cars keeps the joint concentrated
            TableSpec(
                "p_dist",
                ("p_cars",),
                (
                    (0.6, 0.25, 0.1, 0.03, 0.01, 0.01),
                    (0.15, 0.5, 0.25, 0.05, 0.03, 0.02),
                    (0.05, 0.15, 0.45, 0.25, 0.07, 0.03),
                    (0.02, 0.05, 0.15, 0.35, 0.28, 0.15),
                ),
            ),
        )
        return DgpSpec(schema=schema, tables=tables, drifts=(), years=(0, 1, 2, 3, 4))

    if name == "drift-split":
        schema = Schema(
            attributes=(
                AttributeSpec("year", "time", "categorical", cardinality=5),
                AttributeSpec("group", "socio", "categorical", cardinality=2),
                AttributeSpec("segment", "socio", "categorical", cardinality=3),
                AttributeSpec("p_mode", "preference", "categorical", cardinality=3),
                AttributeSpec("p_trips", "preference", "categorical", cardinality=3),
            ),
            version="drift-split-1",
        )
        tables = (
            TableSpec("group", (), ((0.5, 0.5),)),
            TableSpec("segment", (), ((0.4, 0.35, 0.25),)),
            TableSpec(
                "p_mode",
                ("group",),
                ((0.30, 0.45, 0.25), (0.30, 0.45, 0.25)),
            ),
            TableSpec(
                "p_trips",
                ("p_mode",),
                ((0.7, 0.2, 0.1), (0.15, 0.7, 0.15), (0.1, 0.2, 0.7)),
            ),
        )
        drifts = (
            DriftSpec(attribute="p_mode", category=0, per_year=0.05, when=(("group", 1),)),
        )
        return DgpSpec(schema=schema, tables=tables, drifts=drifts, years=(0, 1, 2, 3, 4))

    raise DgpError(f"unknown canned process {name!r}; have {CANNED_SPECS}")
