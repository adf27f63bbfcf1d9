import numpy as np
import pytest

from superpanel import metrics as mx
from superpanel import oracle
from superpanel import schema as sm

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
