from itertools import product

import numpy as np
import pytest

from superpanel import metrics as mx
from superpanel import oracle
from superpanel import schema as sm
from superpanel.seeding import derive_rng

from test_schema import table_records


def copy_pair_spec():
    """Two preference attributes where the second copies the first with
    probability 0.9; hand-checkable correlation case."""
    schema = sm.Schema(attributes=(
        sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
        sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
        sm.AttributeSpec("y", "preference", "categorical", cardinality=2),
    ))
    tables = (
        oracle.TableSpec("c", (), ((0.5, 0.5),)),
        oracle.TableSpec("x", (), ((0.5, 0.5),)),
        oracle.TableSpec("y", ("x",), ((0.9, 0.1), (0.1, 0.9))),
    )
    return oracle.DgpSpec(schema=schema, tables=tables)


class TestSpecValidation:
    def test_bad_row_sum_rejected(self):
        schema = copy_pair_spec().schema
        with pytest.raises(oracle.DgpError, match="not a distribution"):
            oracle.DgpSpec(schema=schema, tables=(
                oracle.TableSpec("c", (), ((0.5, 0.6),)),
                oracle.TableSpec("x", (), ((0.5, 0.5),)),
                oracle.TableSpec("y", (), ((0.5, 0.5),)),
            ))

    def test_missing_table_rejected(self):
        schema = copy_pair_spec().schema
        with pytest.raises(oracle.DgpError, match="no table"):
            oracle.DgpSpec(schema=schema, tables=(
                oracle.TableSpec("c", (), ((0.5, 0.5),)),
                oracle.TableSpec("x", (), ((0.5, 0.5),)),
            ))

    def test_drift_leaving_unit_interval_rejected(self):
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match="leaves"):
            oracle.DgpSpec(
                schema=spec.schema,
                tables=spec.tables,
                drifts=(oracle.DriftSpec("p_mode", 0, per_year=0.3, when=(("group", 1),)),),
                years=spec.years,
            )

    def test_drift_filter_value_outside_parent_rejected(self):
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match="group=7 on p_mode is not a category of group"):
            oracle.DgpSpec(
                schema=spec.schema,
                tables=spec.tables,
                drifts=(oracle.DriftSpec("p_mode", 0, per_year=0.05, when=(("group", 7),)),),
                years=spec.years,
            )

    def test_preference_parent_of_non_preference_rejected(self):
        """generate_dataset would draw c after x, which exact_panel ignores."""
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
            sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
        ))
        with pytest.raises(oracle.DgpError, match="c is not a preference but its parent x is"):
            oracle.DgpSpec(schema=schema, tables=(
                oracle.TableSpec("x", (), ((0.5, 0.5),)),
                oracle.TableSpec("c", ("x",), ((0.9, 0.1), (0.1, 0.9))),
            ))

    def test_parent_must_precede_child(self):
        schema = copy_pair_spec().schema
        with pytest.raises(oracle.DgpError, match="earlier"):
            oracle.DgpSpec(schema=schema, tables=(
                oracle.TableSpec("c", (), ((0.5, 0.5),)),
                oracle.TableSpec("x", ("y",), ((0.5, 0.5), (0.5, 0.5))),
                oracle.TableSpec("y", (), ((0.5, 0.5),)),
            ))

    def test_canned_specs_load(self):
        for name in oracle.CANNED_SPECS:
            spec = oracle.canned_spec(name)
            assert spec.schema.preference_attributes

    def test_serialization_roundtrip(self, tmp_path):
        spec = oracle.canned_spec("drift-split")
        path = tmp_path / "dgp.json"
        oracle.save_dgp(spec, path)
        back = oracle.load_dgp(path)
        assert back == spec


def numerical_time_spec():
    """copy_pair_spec's tables under a numerical time attribute, over three years."""
    spec = copy_pair_spec()
    schema = sm.Schema(attributes=(
        sm.AttributeSpec("year", "time", "numerical", bin_edges=(-0.5, 0.5, 1.5, 2.5)),
        *spec.schema.attributes))
    return oracle.DgpSpec(schema=schema, tables=spec.tables, years=(0, 1, 2))


def assert_tables_equal(got, want, schema):
    """Same columns in schema order, same dtypes, same values."""
    assert list(got) == [a.name for a in schema.attributes] == list(want)
    for name in got:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


class TestGenerate:
    def test_zero_records(self):
        """Zero rows a year, or no years, give zero-length columns."""
        spec = copy_pair_spec()
        for n, years in ((0, None), (10, ())):
            table = oracle.generate_dataset(spec, n, years=years, seed=1)
            assert list(table) == ["c", "x", "y"]
            assert all(col.shape == (0,) and col.dtype == np.int64 for col in table.values())

    def test_deterministic(self):
        spec = copy_pair_spec()
        a = oracle.generate_dataset(spec, 50, seed=2)
        b = oracle.generate_dataset(spec, 50, seed=2)
        assert_tables_equal(a, b, spec.schema)

    def test_empirical_frequencies_match_tables(self):
        """Law of large numbers against the declared conditionals."""
        spec = copy_pair_spec()
        table = oracle.generate_dataset(spec, 100_000, seed=3)
        xs, ys = table["x"], table["y"]
        assert abs(xs.mean() - 0.5) < 0.01
        for xv, p_y1 in ((0, 0.1), (1, 0.9)):
            sel = ys[xs == xv]
            assert abs(sel.mean() - p_y1) < 0.01

    def test_year_column_set(self):
        """The years are stacked in the order requested."""
        spec = oracle.canned_spec("drift-split")
        assert set(oracle.generate_dataset(spec, 10, years=(2, 4), seed=4)["year"]) == {2, 4}
        table = oracle.generate_dataset(spec, 10, years=(4, 2), seed=4)
        assert table["year"].tolist() == [4] * 10 + [2] * 10
        # each year owns its stream, so its rows do not depend on the others
        alone = oracle.generate_dataset(spec, 10, years=(2,), seed=4)
        assert_tables_equal(sm.take_rows(table, np.arange(10, 20)), alone, spec.schema)

    def test_numerical_time_holds_float_years(self):
        """A numerical time attribute is float64, as read_table gives it."""
        spec = numerical_time_spec()
        table = oracle.generate_dataset(spec, 4, seed=4)
        assert table["year"].dtype == np.float64
        assert table["year"].tolist() == [0.0] * 4 + [1.0] * 4 + [2.0] * 4
        assert all(table[a.name].dtype == np.int64 for a in spec.schema.attributes[1:])

    @pytest.mark.parametrize("year", [-1, 7])
    def test_year_outside_time_categories_refused(self, year):
        """No drift-split table reads the year: its rows were written anyway and
        dropped at ingest."""
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match=f"year {year} is not a category of year"):
            oracle.generate_dataset(spec, 10, years=(0, year), seed=1)

    def test_table_validates_against_schema(self):
        spec = oracle.canned_spec("static-corr")
        table = oracle.generate_dataset(spec, 100, seed=5)
        assert list(table) == [a.name for a in spec.schema.attributes]
        assert all(col.dtype == np.int64 and col.shape == (500,) for col in table.values())
        for attr, col in zip(spec.schema.attributes, table.values()):
            assert np.all((col >= 0) & (col < attr.n_categories)), attr.name


def profile(**values):
    """One base row: a column table of length 1."""
    return {name: np.array([value]) for name, value in values.items()}


def exact_joint(spec, values, year):
    """The truth cube's one cell for one profile at one year, as a JointHistogram."""
    return truth_histogram(spec, oracle.exact_panel(spec, profile(**values), [year])[0, 0])


def truth_histogram(spec, freqs):
    """Frequencies over every preference, in schema order, as a JointHistogram."""
    pref = spec.schema.preference_attributes
    return mx.JointHistogram(subset=tuple(a.name for a in pref),
                             dims=tuple(a.cardinality for a in pref), frequencies=freqs,
                             n_source=0)


class TestExactConditional:
    """Each cell of the truth cube is one profile's exact conditional at one year."""

    def test_independent_attributes_product_of_marginals(self):
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
            sm.AttributeSpec("y", "preference", "categorical", cardinality=3),
        ))
        spec = oracle.DgpSpec(schema=schema, tables=(
            oracle.TableSpec("c", (), ((1.0, 0.0),)),
            oracle.TableSpec("x", (), ((0.3, 0.7),)),
            oracle.TableSpec("y", (), ((0.2, 0.5, 0.3),)),
        ))
        joint = exact_joint(spec, {"c": 0}, year=0)
        expected = np.outer([0.3, 0.7], [0.2, 0.5, 0.3]).ravel()
        assert np.allclose(joint.frequencies, expected)

    def test_sums_to_one(self):
        spec = oracle.canned_spec("static-corr")
        joint = exact_joint(spec, {"segment": 1, "year": 0}, year=0)
        assert joint.frequencies.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shape_rows_years_bins(self):
        """Row i, year t is that row's joint at years[t]; the base's own year is ignored."""
        spec = oracle.canned_spec("drift-split")
        base = {"year": np.array([3, 0, 0]), "group": np.array([1, 0, 1]),
                "segment": np.array([0, 2, 1])}
        cube = oracle.exact_panel(spec, base, [4, 0])
        assert cube.shape == (3, 2, 9)
        for i in range(3):
            for t, year in enumerate((4, 0)):
                values = {"group": base["group"][i], "segment": base["segment"][i]}
                assert np.array_equal(cube[i, t], exact_joint(spec, values, year).frequencies)
        assert oracle.exact_panel(spec, base, []).shape == (3, 0, 9)

    def test_profile_missing_parent_named(self):
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match="no column for group, a parent of p_mode"):
            exact_joint(spec, {"segment": 0}, year=0)

    @pytest.mark.parametrize("group", [-1, 2])
    def test_profile_value_outside_parent_named(self, group):
        """-1 would wrap to group 1's row and 2 would be a bare IndexError."""
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError,
                           match=f"base value group={group} is not a category of group"):
            exact_joint(spec, {"group": group, "segment": 0}, year=4)

    def test_year_outside_time_categories_named(self):
        """No table reads the year, but the drift arithmetic would extrapolate to it."""
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match="year 9 is not a category of year"):
            exact_joint(spec, {"group": 1, "segment": 0}, year=9)

    def test_drift_linear_by_construction(self):
        spec = oracle.canned_spec("drift-split")
        p0 = spec.table_for("p_mode").probs[1][0]  # row for group=1
        delta = spec.drifts[0].per_year
        for year in spec.years:
            joint = exact_joint(spec, {"group": 1, "segment": 0}, year=year)
            p_mode0 = joint.marginal("p_mode")[0]
            assert p_mode0 == pytest.approx(p0 + year * delta, abs=1e-12)

    def test_static_group_untouched_by_drift(self):
        spec = oracle.canned_spec("drift-split")
        first = exact_joint(spec, {"group": 0, "segment": 1}, year=0)
        last = exact_joint(spec, {"group": 0, "segment": 1}, year=4)
        assert np.allclose(first.frequencies, last.frequencies)

    def test_matches_empirical_at_scale(self):
        """Generated data restricted to one profile agrees with the exact
        joint within 3 sigma of the multinomial noise."""
        spec = oracle.canned_spec("drift-split")
        table = oracle.generate_dataset(spec, 100_000, years=(3,), seed=6)
        sel = sm.take_rows(table, np.flatnonzero((table["group"] == 1) & (table["segment"] == 0)))
        subset = ("p_mode", "p_trips")
        emp = mx.cross_tabulate_columns(sel, subset, spec.schema)
        exact = exact_joint(spec, {"group": 1, "segment": 0}, year=3)
        n = len(sel["year"])
        for e_emp, e_true in zip(emp.frequencies, exact.frequencies):
            sigma = np.sqrt(e_true * (1 - e_true) / n)
            assert abs(e_emp - e_true) <= 3 * sigma + 1e-9

    def test_drift_slope_recovered_from_data(self):
        """Fitted slope of the drifting category across years within 3 sigma."""
        spec = oracle.canned_spec("drift-split")
        table = oracle.generate_dataset(spec, 50_000, seed=7)
        years = np.array(spec.years, dtype=float)
        freqs = []
        ns = []
        for year in spec.years:
            sel = (table["year"] == year) & (table["group"] == 1)
            vals = table["p_mode"][sel] == 0
            freqs.append(vals.mean())
            ns.append(int(sel.sum()))
        x = years - years.mean()
        slope = float(np.sum(x * (np.array(freqs) - np.mean(freqs))) / np.sum(x * x))
        # variance of the LS slope from independent binomial year estimates
        p_bar = np.mean(freqs)
        var_slope = np.sum(x**2 * (p_bar * (1 - p_bar) / np.array(ns))) / np.sum(x**2) ** 2
        delta = spec.drifts[0].per_year
        assert abs(slope - delta) <= 3 * np.sqrt(var_slope)


class TestBaseline:
    def test_output_sums_to_one(self):
        spec = copy_pair_spec()
        records = table_records(oracle.generate_dataset(spec, 5000, seed=8), spec.schema)
        base = oracle.baseline_independent(records, ("x", "y"), spec.schema)
        assert base.frequencies.sum() == pytest.approx(1.0, abs=1e-12)

    def test_independent_attributes_baseline_is_fine(self):
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
            sm.AttributeSpec("y", "preference", "categorical", cardinality=2),
        ))
        spec = oracle.DgpSpec(schema=schema, tables=(
            oracle.TableSpec("c", (), ((1.0,),)),
            oracle.TableSpec("x", (), ((0.4, 0.6),)),
            oracle.TableSpec("y", (), ((0.7, 0.3),)),
        ))
        records = table_records(oracle.generate_dataset(spec, 50_000, seed=9), schema)
        empirical = mx.cross_tabulate(records, ("x", "y"), schema)
        base = oracle.baseline_independent(records, ("x", "y"), schema)
        assert mx.srmse(base, empirical) < 0.05

    def test_correlated_pair_baseline_fails_while_oracle_nails_it(self):
        """On the 0.9-copy table the independent product misses the joint
        by a hand-computable margin while the exact conditional matches."""
        spec = copy_pair_spec()
        records = table_records(oracle.generate_dataset(spec, 100_000, seed=10), spec.schema)
        empirical = mx.cross_tabulate(records, ("x", "y"), spec.schema)
        base = oracle.baseline_independent(records, ("x", "y"), spec.schema)
        truth = oracle.exact_panel(spec, profile(c=0), [0])
        exact = truth_histogram(spec, truth[:, 0].mean(axis=0))
        # true joint diag 0.45/off 0.05; independent product is 0.25 everywhere:
        # srmse = sqrt(4 * 0.2^2 / 4) / (1/4) = 0.8
        assert mx.srmse(base, empirical) == pytest.approx(0.8, abs=0.02)
        assert mx.srmse(exact, empirical) < 0.05


# ---------------------------------------------------------------------------
# Brute-force reference: one parent row and one preference combination at a time


def reference_table(spec, table, year):
    """The table at one year as (rows, D), each drift applied row by row."""
    dims = [spec.schema.attribute(p).cardinality for p in table.parents]
    rows = np.array(table.probs, dtype=float)
    for i, combo in enumerate(product(*[range(d) for d in dims])):
        parent_values = dict(zip(table.parents, combo))
        row = rows[i]
        for drift in spec.drifts:
            if drift.attribute != table.attribute or any(
                    parent_values[k] != v for k, v in drift.when):
                continue
            base = row[drift.category]
            target = base + year * drift.per_year
            rest = 1.0 - base
            if rest > 0:
                row[:] *= (1.0 - target) / rest
            row[drift.category] = target
    return rows


def reference_row(spec, table, values, year):
    idx = 0
    for p in table.parents:
        idx = idx * spec.schema.attribute(p).cardinality + int(values[p])
    return reference_table(spec, table, year)[idx]


def reference_generate(spec, n_per_year, seed):
    """Ancestral sampling, gathering each row's table row by its flat index; the
    years' rows are stacked into a table of int64 categories and float64 raw values."""
    schema = spec.schema
    blocks = []
    for year in spec.years:
        rng = derive_rng(seed, "dgp-year", year)
        cols = {"year": np.full(n_per_year, year, dtype=np.int64)}
        for attr in schema.attributes[1:]:
            table = spec.table_for(attr.name)
            rows = reference_table(spec, table, year)
            if table.parents:
                dims = [schema.attribute(p).cardinality for p in table.parents]
                row_idx = np.ravel_multi_index([cols[p] for p in table.parents], dims)
            else:
                row_idx = np.zeros(n_per_year, dtype=np.int64)
            cum = np.cumsum(rows[row_idx], axis=1)
            u = rng.random(n_per_year) * cum[:, -1]
            cat = np.sum(u[:, None] >= cum, axis=1)
            cols[attr.name] = np.minimum(cat, rows.shape[1] - 1).astype(np.int64)
        blocks.append(cols)
    return {a.name: np.concatenate([b[a.name] for b in blocks]).astype(
                np.int64 if a.kind == "categorical" else np.float64)
            for a in schema.attributes}


def reference_conditional(spec, profile_values, year):
    """Every preference combination, multiplying the table rows in schema order."""
    pref = spec.schema.preference_attributes
    freqs = []
    for combo in product(*[range(a.cardinality) for a in pref]):
        values = dict(profile_values, year=year)
        p = 1.0
        for attr, cat in zip(pref, combo):
            p *= reference_row(spec, spec.table_for(attr.name), values, year)[cat]
            values[attr.name] = cat
        freqs.append(p)
    return np.array(freqs)


def random_spec(rng):
    """Two conditional attributes and three preferences: y reads a conditional
    and a preference parent, z two preferences out of schema order around a
    conditional one, and y's table carries two drifts."""
    def card():
        return int(rng.integers(2, 4))

    schema = sm.Schema(attributes=(
        sm.AttributeSpec("year", "time", "categorical", cardinality=5),
        sm.AttributeSpec("a", "socio", "categorical", cardinality=card()),
        sm.AttributeSpec("b", "geography", "categorical", cardinality=card()),
        sm.AttributeSpec("x", "preference", "categorical", cardinality=card()),
        sm.AttributeSpec("y", "preference", "categorical", cardinality=card()),
        sm.AttributeSpec("z", "preference", "categorical", cardinality=card()),
    ))
    parents = {"a": (), "b": ("a",), "x": ("year", "b"), "y": ("b", "x"), "z": ("y", "a", "x")}

    def table(name):
        dims = [schema.attribute(p).cardinality for p in parents[name]]
        raw = rng.uniform(1.0, 2.0, size=(int(np.prod(dims)), schema.attribute(name).cardinality))
        rows = raw / raw.sum(axis=1, keepdims=True)
        return oracle.TableSpec(name, parents[name], tuple(tuple(map(float, r)) for r in rows))

    def drift(name, when):
        return oracle.DriftSpec(
            name, int(rng.integers(schema.attribute(name).cardinality)),
            per_year=float(rng.uniform(-0.02, 0.02)),
            when=tuple((p, int(rng.integers(schema.attribute(p).cardinality))) for p in when))

    return oracle.DgpSpec(
        schema=schema, tables=tuple(table(n) for n in parents),
        drifts=(drift("y", ("b",)), drift("y", ("x", "b")), drift("z", ())),
        years=(0, 1, 2, 3, 4))


def conditional_profiles(spec):
    conds = [a for a in spec.schema.conditional_attributes if a.role != "time"]
    for combo in product(*[range(a.cardinality) for a in conds]):
        yield dict(zip((a.name for a in conds), combo))


def assert_panel_matches_reference(spec):
    """One exact_panel call over a table of every conditional profile equals
    the enumeration at every profile and year."""
    profiles = list(conditional_profiles(spec))
    base = {name: np.array([p[name] for p in profiles]) for name in profiles[0]}
    cube = oracle.exact_panel(spec, base, spec.years)
    assert cube.shape[:2] == (len(profiles), len(spec.years))
    for i, values in enumerate(profiles):
        for t, year in enumerate(spec.years):
            assert np.array_equal(cube[i, t], reference_conditional(spec, values, year))


class TestAgainstReference:
    """effective_table, generate_dataset and exact_panel equal the
    brute-force enumeration bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_specs(self, seed):
        spec = random_spec(np.random.default_rng(seed))
        for table in spec.tables:
            for year in spec.years:
                got = oracle.effective_table(spec, table, year)
                assert got.shape == tuple(spec.schema.attribute(p).cardinality
                                          for p in (*table.parents, table.attribute))
                assert np.array_equal(got.reshape(-1, got.shape[-1]),
                                      reference_table(spec, table, year))
        assert_tables_equal(oracle.generate_dataset(spec, 200, seed=seed),
                            reference_generate(spec, 200, seed), spec.schema)
        assert_panel_matches_reference(spec)

    @pytest.mark.parametrize("year", [-1, 5])
    def test_year_outside_a_table_parent_refused(self, year):
        """x reads the year: a year outside its categories has no table row."""
        spec = random_spec(np.random.default_rng(0))
        with pytest.raises(oracle.DgpError, match=f"year {year} is not a category of year"):
            oracle.generate_dataset(spec, 10, years=(year,), seed=1)

    @pytest.mark.parametrize("name", oracle.CANNED_SPECS)
    def test_canned_specs(self, name):
        spec = oracle.canned_spec(name)
        assert_tables_equal(oracle.generate_dataset(spec, 300, seed=5),
                            reference_generate(spec, 300, 5), spec.schema)
        assert_panel_matches_reference(spec)
