"""Attribute schemas, CSV ingestion, discretization and one-hot encoding.

A survey column is declared as an :class:`AttributeSpec` with a role
(time / geography / external / socio / preference) and a kind (categorical
with a fixed number of categories, or numerical with sorted bin edges).
Records are encoded into a conditional block ``C`` (all non-preference
attributes) and a preference block ``V``; categorical attributes become
one-hot segments and numerical attributes one-hot segments over their
bins.
"""

import csv
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

    @property
    def preference_attributes(self) -> tuple[AttributeSpec, ...]:
        return tuple(a for a in self.attributes if a.role == "preference")

    @property
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

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
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


def validate_record(record: Record, schema: Schema) -> None:
    if len(record.values) != len(schema.attributes):
        raise SchemaError("record length does not match schema")
    for v, attr in zip(record.values, schema.attributes):
        if attr.kind == "categorical":
            if not (isinstance(v, (int, np.integer)) and 0 <= v < attr.cardinality):
                raise SchemaError(f"{attr.name}: category {v!r} out of range")
        else:
            if not np.isfinite(float(v)):
                raise SchemaError(f"{attr.name}: non-finite value")


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


def ingest_csv(path, schema: Schema) -> tuple[list[Record], int]:
    """Read a CSV with a header row into records.

    Rows containing any missing or unparsable cell are dropped; the drop
    count is returned alongside the surviving records. Extra columns not
    named in the schema are ignored.
    """
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
        col_of = {a.name: header.index(a.name) for a in schema.attributes}
        records = []
        dropped = 0
        for row in reader:
            if not row:
                continue
            values = []
            ok = True
            for attr in schema.attributes:
                i = col_of[attr.name]
                cell = row[i] if i < len(row) else ""
                v = _parse_cell(cell, attr)
                if v is None:
                    ok = False
                    break
                values.append(v)
            if ok:
                records.append(Record(tuple(values)))
            else:
                dropped += 1
    if not records:
        raise IngestError(f"{path}: no surviving rows after filtering")
    return records, dropped


def write_records_csv(path, records, schema: Schema) -> None:
    """Write records in the ingestion CSV format (deterministic text)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema.attributes])
        for rec in records:
            row = []
            for v, attr in zip(rec.values, schema.attributes):
                if attr.kind == "categorical":
                    row.append(str(int(v)))
                else:
                    row.append(repr(float(v)))
            writer.writerow(row)


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


def record_columns(records, names, schema: Schema) -> dict[str, np.ndarray]:
    """One array per named attribute: int64 categories or float64 raw values."""
    cols = {}
    for name in names:
        pos = schema.index_of(name)
        dtype = np.int64 if schema.attribute(name).kind == "categorical" else np.float64
        cols[name] = np.fromiter((rec.values[pos] for rec in records), dtype, len(records))
    return cols


def category_columns(records, subset, schema: Schema) -> dict[str, np.ndarray]:
    """Column arrays of category indices; numericals go through their bins."""
    cols = record_columns(records, subset, schema)
    for name in subset:
        attr = schema.attribute(name)
        if attr.kind == "numerical":
            cols[name] = discretize_array(cols[name], attr.bin_edges)
    return cols


# ---------------------------------------------------------------------------
# Encoding


@dataclass(frozen=True)
class BlockLayout:
    """Column span of one attribute's one-hot segment inside an encoded block."""

    name: str
    start: int
    width: int


def build_layout(schema: Schema, preference: bool):
    """Column layout for the preference (V) or conditional (C) block."""
    attrs = schema.preference_attributes if preference else schema.conditional_attributes
    blocks = []
    offset = 0
    for a in attrs:
        blocks.append(BlockLayout(a.name, offset, a.n_categories))
        offset += a.n_categories
    return tuple(blocks), offset


@dataclass
class EncodedDataset:
    """Row-aligned encoded matrices plus the layouts used to build them."""

    conditional: np.ndarray
    preference: np.ndarray
    schema: Schema
    cond_layout: tuple[BlockLayout, ...]
    pref_layout: tuple[BlockLayout, ...]

    @property
    def n_rows(self) -> int:
        return self.conditional.shape[0]

    @property
    def dim_c(self) -> int:
        return self.conditional.shape[1]

    @property
    def dim_v(self) -> int:
        return self.preference.shape[1]

    def take(self, indices) -> "EncodedDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, conditional=self.conditional[idx], preference=self.preference[idx])


def encode_columns(cols, layout, schema: Schema) -> np.ndarray:
    """One-hot matrix of one block from an attribute -> array table.

    Every conditional or preference row in the package is written here:
    survey rows, generated populations and panel cells alike.
    """
    n = len(cols[layout[0].name])
    out = np.zeros((n, sum(b.width for b in layout)))
    rows = np.arange(n)
    for block in layout:
        col = cols[block.name]
        attr = schema.attribute(block.name)
        if attr.kind == "numerical":
            col = discretize_array(col, attr.bin_edges)
        bad = (col < 0) | (col >= block.width)
        if bad.any():
            raise ValueError(f"{block.name}: category {col[bad][0]} out of range "
                             f"for cardinality {block.width}")
        out[rows, block.start + col] = 1.0
    return out


def encode(records, schema: Schema) -> EncodedDataset:
    """Encode records into conditional and preference matrices."""
    cond_layout, _ = build_layout(schema, preference=False)
    pref_layout, _ = build_layout(schema, preference=True)
    cols = record_columns(records, [a.name for a in schema.attributes], schema)
    return EncodedDataset(
        conditional=encode_columns(cols, cond_layout, schema),
        preference=encode_columns(cols, pref_layout, schema),
        schema=schema,
        cond_layout=cond_layout,
        pref_layout=pref_layout,
    )


def decode_block(vector, layout, schema: Schema) -> dict:
    """Decode one encoded block row back to attribute values, the inverse of
    encode: the hot column of each segment gives the category, which
    numerical attributes turn into the bin midpoint.
    """
    vector = np.asarray(vector, dtype=float)
    out = {}
    for block in layout:
        attr = schema.attribute(block.name)
        idx = int(np.argmax(vector[block.start : block.start + block.width]))
        out[block.name] = idx if attr.kind == "categorical" else attr.bin_representative(idx)
    return out


def decode(cond_row, pref_row, dataset: EncodedDataset) -> Record:
    """Rebuild a full record from its two encoded rows."""
    values = {}
    values.update(decode_block(cond_row, dataset.cond_layout, dataset.schema))
    values.update(decode_block(pref_row, dataset.pref_layout, dataset.schema))
    return Record(tuple(values[a.name] for a in dataset.schema.attributes))


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
