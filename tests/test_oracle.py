from itertools import product

import numpy as np
import pytest

from superpanel import metrics as mx
from superpanel import oracle
from superpanel import schema as sm
from superpanel.seeding import derive_rng

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
        """generate_dataset would draw c after x, which exact_conditional ignores."""
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


class TestGenerate:
    def test_zero_records(self):
        assert oracle.generate_dataset(copy_pair_spec(), 0, seed=1) == []

    def test_deterministic(self):
        spec = copy_pair_spec()
        a = oracle.generate_dataset(spec, 50, seed=2)
        b = oracle.generate_dataset(spec, 50, seed=2)
        assert a == b

    def test_empirical_frequencies_match_tables(self):
        """Law of large numbers against the declared conditionals."""
        spec = copy_pair_spec()
        records = oracle.generate_dataset(spec, 100_000, seed=3)
        xs = np.array([r.values[1] for r in records])
        ys = np.array([r.values[2] for r in records])
        assert abs(xs.mean() - 0.5) < 0.01
        for xv, p_y1 in ((0, 0.1), (1, 0.9)):
            sel = ys[xs == xv]
            assert abs(sel.mean() - p_y1) < 0.01

    def test_year_column_set(self):
        spec = oracle.canned_spec("drift-split")
        records = oracle.generate_dataset(spec, 10, years=(2, 4), seed=4)
        years = {r.values[0] for r in records}
        assert years == {2, 4}

    def test_records_validate_against_schema(self):
        spec = oracle.canned_spec("static-corr")
        records = oracle.generate_dataset(spec, 100, seed=5)
        assert all(len(rec.values) == len(spec.schema.attributes)
                   and all(type(v) is int for v in rec.values) for rec in records)
        for attr, col in zip(spec.schema.attributes,
                             sm.record_columns(records, spec.schema).values()):
            assert np.all((col >= 0) & (col < attr.n_categories)), attr.name


class TestExactConditional:
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
        joint = oracle.exact_conditional(spec, {"c": 0}, year=0)
        expected = np.outer([0.3, 0.7], [0.2, 0.5, 0.3]).ravel()
        assert np.allclose(joint.frequencies, expected)

    def test_sums_to_one(self):
        spec = oracle.canned_spec("static-corr")
        joint = oracle.exact_conditional(spec, {"segment": 1, "year": 0}, year=0)
        assert joint.frequencies.sum() == pytest.approx(1.0, abs=1e-12)

    def test_profile_missing_parent_named(self):
        spec = oracle.canned_spec("drift-split")
        with pytest.raises(oracle.DgpError, match="no value for group, a parent of p_mode"):
            oracle.exact_conditional(spec, {"segment": 0}, year=0)

    def test_drift_linear_by_construction(self):
        spec = oracle.canned_spec("drift-split")
        p0 = spec.table_for("p_mode").probs[1][0]  # row for group=1
        delta = spec.drifts[0].per_year
        for year in spec.years:
            joint = oracle.exact_conditional(spec, {"group": 1, "segment": 0}, year=year)
            p_mode0 = joint.marginal("p_mode")[0]
            assert p_mode0 == pytest.approx(p0 + year * delta, abs=1e-12)

    def test_static_group_untouched_by_drift(self):
        spec = oracle.canned_spec("drift-split")
        first = oracle.exact_conditional(spec, {"group": 0, "segment": 1}, year=0)
        last = oracle.exact_conditional(spec, {"group": 0, "segment": 1}, year=4)
        assert np.allclose(first.frequencies, last.frequencies)

    def test_matches_empirical_at_scale(self):
        """Generated data restricted to one profile agrees with the exact
        joint within 3 sigma of the multinomial noise."""
        spec = oracle.canned_spec("drift-split")
        records = oracle.generate_dataset(spec, 100_000, years=(3,), seed=6)
        sel = [r for r in records if r.values[1] == 1 and r.values[2] == 0]
        emp = mx.cross_tabulate(sel, ("p_mode", "p_trips"), spec.schema)
        exact = oracle.exact_conditional(spec, {"group": 1, "segment": 0}, year=3)
        n = len(sel)
        for e_emp, e_true in zip(emp.frequencies, exact.frequencies):
            sigma = np.sqrt(e_true * (1 - e_true) / n)
            assert abs(e_emp - e_true) <= 3 * sigma + 1e-9

    def test_drift_slope_recovered_from_data(self):
        """Fitted slope of the drifting category across years within 3 sigma."""
        spec = oracle.canned_spec("drift-split")
        records = oracle.generate_dataset(spec, 50_000, seed=7)
        years = np.array(spec.years, dtype=float)
        freqs = []
        ns = []
        for year in spec.years:
            sel = [r for r in records if r.values[0] == year and r.values[1] == 1]
            vals = np.array([r.values[3] == 0 for r in sel])
            freqs.append(vals.mean())
            ns.append(len(sel))
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
        records = oracle.generate_dataset(spec, 5000, seed=8)
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
        records = oracle.generate_dataset(spec, 50_000, seed=9)
        empirical = mx.cross_tabulate(records, ("x", "y"), schema)
        base = oracle.baseline_independent(records, ("x", "y"), schema)
        assert mx.srmse(base, empirical) < 0.05

    def test_correlated_pair_baseline_fails_while_oracle_nails_it(self):
        """On the 0.9-copy table the independent product misses the joint
        by a hand-computable margin while the exact conditional matches."""
        spec = copy_pair_spec()
        records = oracle.generate_dataset(spec, 100_000, seed=10)
        empirical = mx.cross_tabulate(records, ("x", "y"), spec.schema)
        base = oracle.baseline_independent(records, ("x", "y"), spec.schema)
        exact = oracle.exact_population_joint(spec, [{"c": 0}], year=0)
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
    """Ancestral sampling, gathering each record's table row by its flat index."""
    schema = spec.schema
    records = []
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
        mat = np.stack([cols[a.name] for a in schema.attributes], axis=1)
        records.extend(sm.Record(tuple(int(v) for v in row)) for row in mat)
    return records


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


class TestAgainstReference:
    """effective_table, generate_dataset and exact_conditional equal the
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
        assert oracle.generate_dataset(spec, 200, seed=seed) == reference_generate(spec, 200, seed)
        for profile in conditional_profiles(spec):
            for year in spec.years:
                assert np.array_equal(oracle.exact_conditional(spec, profile, year).frequencies,
                                      reference_conditional(spec, profile, year))

    @pytest.mark.parametrize("year", [-1, 5])
    def test_year_outside_a_table_parent_refused(self, year):
        """x reads the year: a year outside its categories has no table row."""
        spec = random_spec(np.random.default_rng(0))
        with pytest.raises(oracle.DgpError, match=f"year {year} is not a category of year"):
            oracle.generate_dataset(spec, 10, years=(year,), seed=1)

    @pytest.mark.parametrize("name", oracle.CANNED_SPECS)
    def test_canned_specs(self, name):
        spec = oracle.canned_spec(name)
        assert oracle.generate_dataset(spec, 300, seed=5) == reference_generate(spec, 300, 5)
        for profile in conditional_profiles(spec):
            for year in spec.years:
                assert np.array_equal(oracle.exact_conditional(spec, profile, year).frequencies,
                                      reference_conditional(spec, profile, year))
