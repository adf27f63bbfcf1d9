"""Attribute schemas, CSV ingestion, discretization and one-hot encoding.

A survey column is declared as an :class:`AttributeSpec` with a role
(time / geography / external / socio / preference) and a kind (categorical
with a fixed number of categories, or numerical with sorted bin edges).
A data set is a column table, one array per attribute, which ``read_table``
reads from a survey CSV, ``oracle.generate_dataset`` draws, and every later
stage works on. ``encode_table`` encodes it into a conditional block ``C``
(all non-preference attributes) and a preference block ``V``; categorical
attributes become one-hot segments and numerical attributes one-hot
segments over their bins. Encoded entries are int8, one byte each, which
numpy casts to float exactly wherever they meet float math; int8, not
uint8, so that -V stays -1 and 0. ``ingest_csv`` and ``encode`` are the
same for rows held as :class:`Record` objects.
"""

import array
import csv
import functools
import hashlib
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .seeding import derive_rng

ROLES = ("time", "geography", "external", "socio", "preference")
KINDS = ("categorical", "numerical")


class SchemaError(ValueError):
    """Invalid schema declaration or schema/data mismatch."""


class IngestError(ValueError):
    """Unusable data file (bad header, no surviving rows)."""


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one survey column."""

    name: str
    role: str
    kind: str
    cardinality: int | None = None
    bin_edges: tuple[float, ...] | None = None
    unit: str = ""
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("attribute name must be nonempty")
        if self.role not in ROLES:
            raise SchemaError(f"{self.name}: unknown role {self.role!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if self.cardinality is None or self.cardinality < 1:
                raise SchemaError(f"{self.name}: categorical cardinality must be >= 1")
            if self.bin_edges is not None:
                raise SchemaError(f"{self.name}: categorical attribute cannot have bin_edges")
        else:
            if self.bin_edges is None or len(self.bin_edges) < 2:
                raise SchemaError(f"{self.name}: numerical bin_edges needs length >= 2")
            edges = tuple(float(e) for e in self.bin_edges)
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise SchemaError(f"{self.name}: bin_edges must be strictly increasing")
            object.__setattr__(self, "bin_edges", edges)
            if self.cardinality is not None:
                raise SchemaError(f"{self.name}: numerical attribute cannot have cardinality")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n_categories:
                raise SchemaError(f"{self.name}: label list must match category count")

    @property
    def n_categories(self) -> int:
        """Category count: declared cardinality, or number of bins."""
        if self.kind == "categorical":
            return self.cardinality
        return len(self.bin_edges) - 1

    def bin_representative(self, index: int) -> float:
        """Midpoint of bin ``index`` for a numerical attribute."""
        lo, hi = self.bin_edges[index], self.bin_edges[index + 1]
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Schema:
    attributes: tuple[AttributeSpec, ...]
    version: str = "1"

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names")
        if not self.preference_attributes:
            raise SchemaError("schema needs at least one preference attribute")
        if not self.conditional_attributes:
            raise SchemaError("no conditional attributes")
        if sum(1 for a in self.attributes if a.role == "time") > 1:
            raise SchemaError("at most one time attribute allowed")

    # the preference block V and the conditional block C: each attribute is one
    # one-hot segment, n_categories wide, in this order; computed once per schema
    @functools.cached_property
    def preference_attributes(self) -> tuple[AttributeSpec, ...]:
        return tuple(a for a in self.attributes if a.role == "preference")

    @functools.cached_property
    def conditional_attributes(self) -> tuple[AttributeSpec, ...]:
        return tuple(a for a in self.attributes if a.role != "preference")

    @property
    def time_attribute(self) -> AttributeSpec | None:
        for a in self.attributes:
            if a.role == "time":
                return a
        return None

    def attribute(self, name: str) -> AttributeSpec:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"unknown attribute {name!r}")

    def to_dict(self) -> dict:
        attrs = []
        for a in self.attributes:
            d = {"name": a.name, "role": a.role, "kind": a.kind}
            if a.kind == "categorical":
                d["cardinality"] = a.cardinality
            else:
                d["bin_edges"] = list(a.bin_edges)
            if a.unit:
                d["unit"] = a.unit
            if a.labels is not None:
                d["labels"] = list(a.labels)
            attrs.append(d)
        return {"version": self.version, "attributes": attrs}

    def content_hash(self) -> str:
        """Stable sha256 of the canonical JSON form, for provenance stamps."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def schema_from_dict(data: dict) -> Schema:
    if "attributes" not in data:
        raise SchemaError("schema file missing 'attributes'")
    attrs = []
    for entry in data["attributes"]:
        unknown = sorted(set(entry) - {f.name for f in fields(AttributeSpec)})
        if unknown:
            raise SchemaError(f"{entry.get('name', '?')}: unknown attribute keys {unknown}")
        attrs.append(
            AttributeSpec(
                name=entry.get("name", ""),
                role=entry.get("role", ""),
                kind=entry.get("kind", ""),
                cardinality=entry.get("cardinality"),
                bin_edges=tuple(entry["bin_edges"]) if "bin_edges" in entry else None,
                unit=entry.get("unit", ""),
                labels=tuple(entry["labels"]) if "labels" in entry else None,
            )
        )
    return Schema(attributes=tuple(attrs), version=str(data.get("version", "1")))


def load_schema(path) -> Schema:
    """Load and validate a JSON schema file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"cannot parse schema file {path}: {exc}") from exc
    return schema_from_dict(data)


def save_schema(schema: Schema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class Record:
    """One survey row; values aligned with schema attribute order.

    Categorical values are int indices in [0, D_j); numerical values are
    raw reals.
    """

    values: tuple


# ---------------------------------------------------------------------------
# Ingestion


def _parse_cell(text: str, attr: AttributeSpec):
    """Parse one CSV cell; returns None when missing or unusable."""
    text = text.strip()
    if text == "":
        return None
    if attr.kind == "numerical":
        try:
            v = float(text)
        except ValueError:
            return None
        return v if np.isfinite(v) else None
    if attr.labels is not None and text in attr.labels:
        return attr.labels.index(text)
    try:
        idx = int(text)
    except ValueError:
        return None
    if 0 <= idx < attr.cardinality:
        return idx
    return None


def _read_columns(path, schema: Schema) -> tuple[list[array.array], int]:
    """The one CSV parser: each attribute's parsed values in schema order,
    int64 categories or float64 raw values, and the dropped-row count."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [a.name for a in schema.attributes if a.name not in header]
        if missing:
            raise IngestError(f"{path}: header missing attributes {missing}")
        positions = [header.index(a.name) for a in schema.attributes]
        cols = [array.array("q" if a.kind == "categorical" else "d") for a in schema.attributes]
        # a categorical column repeats a few texts: each is parsed once
        parsed = [{} for _ in schema.attributes]
        dropped = 0
        for row in reader:
            if not row:
                continue
            values = []
            for i, attr, seen in zip(positions, schema.attributes, parsed):
                text = row[i] if i < len(row) else ""
                v = seen.get(text)
                if v is None:
                    v = _parse_cell(text, attr)
                    if v is None:
                        dropped += 1
                        break
                    if attr.kind == "categorical":
                        seen[text] = v
                values.append(v)
            else:
                for col, v in zip(cols, values):
                    col.append(v)
    if not cols[0]:
        raise IngestError(f"{path}: no surviving rows after filtering")
    return cols, dropped


def read_table(path, schema: Schema) -> tuple[dict[str, np.ndarray], int]:
    """Read a CSV with a header row into a column table.

    The table has one array per attribute in schema order, int64 categories
    or float64 raw values, as ``oracle.generate_dataset`` and ``record_columns``
    build them. Rows containing any missing or unparsable cell are dropped;
    the drop count is returned alongside the table. Blank lines are skipped
    and extra columns not named in the schema are ignored.
    """
    cols, dropped = _read_columns(path, schema)
    return {a.name: np.frombuffer(col, np.int64 if a.kind == "categorical" else np.float64)
            for a, col in zip(schema.attributes, cols)}, dropped


def ingest_csv(path, schema: Schema) -> tuple[list[Record], int]:
    """Read a CSV with a header row into records, the rows of ``read_table``'s
    table, and the count of dropped rows."""
    cols, dropped = _read_columns(path, schema)
    return [Record(values) for values in zip(*cols)], dropped


def write_records_csv(path, table, schema: Schema) -> None:
    """Write a column table in the ingestion CSV format (deterministic text)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema.attributes])
        writer.writerows(zip(*(table[a.name].tolist() for a in schema.attributes)))


# ---------------------------------------------------------------------------
# Discretization


def discretize_array(values, edges) -> np.ndarray:
    """Bin index i with edges[i] <= value < edges[i+1], for every value.

    Values below the first edge clamp to bin 0; values at or above the
    last edge clamp to the last bin. Interior edges are right-open.
    """
    edges = np.asarray(edges, dtype=float)
    idx = np.searchsorted(edges, np.asarray(values, dtype=float), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int64)


# ---------------------------------------------------------------------------
# Columns


def record_columns(records, schema: Schema) -> dict[str, np.ndarray]:
    """The column table of a record list: one array per attribute in schema
    order, int64 categories or float64 raw values. Past ingest every stage
    works on such tables."""
    cols = {}
    for pos, attr in enumerate(schema.attributes):
        dtype = np.int64 if attr.kind == "categorical" else np.float64
        cols[attr.name] = np.fromiter((rec.values[pos] for rec in records), dtype, len(records))
    return cols


def take_rows(table, indices) -> dict[str, np.ndarray]:
    """The table's rows at ``indices``, in that order."""
    return {name: col[indices] for name, col in table.items()}


def category_columns(table, subset, schema: Schema) -> dict[str, np.ndarray]:
    """The subset's columns as category indices; numericals go through their bins."""
    cols = {}
    for name in subset:
        attr = schema.attribute(name)
        cols[name] = (table[name] if attr.kind == "categorical"
                      else discretize_array(table[name], attr.bin_edges))
    return cols


def is_category(value, attr: AttributeSpec) -> bool:
    """An index of one of the attribute's categories, its bins when numerical; not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < attr.n_categories)


def named_attribute(key: str, name, schema: Schema, role: str | None) -> AttributeSpec:
    """The attribute ``name``, of ``role`` unless it is None: "preference", or
    "conditional" for every other role; refused naming ``key``, the config key."""
    attr = next((a for a in schema.attributes if a.name == name), None)
    if attr is None or role and (attr.role == "preference") != (role == "preference"):
        raise SchemaError(f"{key} {name!r} is not {f'a {role}' if role else 'an'} attribute "
                          f"of the schema")
    return attr


def condition_mask(key: str, condition, schema: Schema, role: str | None,
                   table) -> np.ndarray:
    """The rows of ``table`` that match ``condition``, a JSON object mapping attributes
    of ``role`` (see ``named_attribute``) to category indices, a numerical attribute's
    being its bin, for raw values and bin midpoints alike; refused naming ``key``."""
    if not isinstance(condition, dict):
        raise SchemaError(f"{key} must be an object mapping attributes to category indices, "
                          f"got {condition!r}")
    mask = np.ones(len(next(iter(table.values()))), dtype=bool)
    for name, value in condition.items():
        attr = named_attribute(key, name, schema, role)
        if not is_category(value, attr):
            raise SchemaError(f"{key}.{name} must be one of {name}'s {attr.n_categories} "
                              f"category indices, got {value!r}")
        mask &= category_columns(table, (name,), schema)[name] == value
    return mask


# ---------------------------------------------------------------------------
# Encoding


@dataclass
class EncodedDataset:
    """Row-aligned encoded matrices: the schema's conditional and preference
    blocks, int8 one-hot rows from ``encode_columns``."""

    conditional: np.ndarray
    preference: np.ndarray
    schema: Schema

    @property
    def n_rows(self) -> int:
        return self.conditional.shape[0]

    def take(self, indices) -> "EncodedDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, conditional=self.conditional[idx], preference=self.preference[idx])


def encode_columns(cols, attrs) -> np.ndarray:
    """One-hot int8 matrix of one block from an attribute -> array table: one
    segment per attribute of ``attrs`` (a schema's conditional or preference
    attributes), n_categories wide, in order.

    Every conditional or preference row in the package is written here:
    survey rows, generated populations and panel cells alike.
    """
    n = len(cols[attrs[0].name])
    out = np.zeros((n, sum(a.n_categories for a in attrs)), dtype=np.int8)
    rows = np.arange(n)
    start = 0
    for attr in attrs:
        col, width = cols[attr.name], attr.n_categories
        if attr.kind == "numerical":
            col = discretize_array(col, attr.bin_edges)
        bad = (col < 0) | (col >= width)
        if bad.any():
            raise ValueError(f"{attr.name}: category {col[bad][0]} out of range "
                             f"for cardinality {width}")
        out[rows, start + col] = 1
        start += width
    return out


def encode_table(table, schema: Schema) -> EncodedDataset:
    """Encode a column table into conditional and preference matrices."""
    return EncodedDataset(
        conditional=encode_columns(table, schema.conditional_attributes),
        preference=encode_columns(table, schema.preference_attributes),
        schema=schema,
    )


def encode(records, schema: Schema) -> EncodedDataset:
    """Encode records into conditional and preference matrices."""
    return encode_table(record_columns(records, schema), schema)


# ---------------------------------------------------------------------------
# Splitting


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if n < 1:
        raise ValueError("dataset must be nonempty")
    k = int(round(n * fraction))
    if k == 0 or k == n:
        raise ValueError(f"fraction {fraction} yields an empty side for n={n}")
    perm = derive_rng(seed, "split").permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])
