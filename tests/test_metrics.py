import math
import sys

import numpy as np
import pytest

from superpanel import metrics as mx
from superpanel import schema as sm
from superpanel.seeding import derive_rng


# ---------------------------------------------------------------------------
# Brute-force reference implementations, kept deliberately independent of the
# vectorized code paths they check.


def tables(schema, *record_lists):
    """The column table of each record list."""
    return [sm.record_columns(records, schema) for records in record_lists]


def brute_srmse(hat, ref):
    n_b = len(ref)
    total = 0.0
    for a, b in zip(hat, ref):
        total += (a - b) ** 2
    rmse = math.sqrt(total / n_b)
    mean_ref = sum(ref) / n_b
    return rmse / mean_ref


def brute_pearson(hat, ref):
    n = len(ref)
    ma = sum(hat) / n
    mb = sum(ref) / n
    cov = sum((a - ma) * (b - mb) for a, b in zip(hat, ref))
    va = sum((a - ma) ** 2 for a in hat)
    vb = sum((b - mb) ** 2 for b in ref)
    return cov / math.sqrt(va * vb)


def brute_r2(hat, ref):
    mb = sum(ref) / len(ref)
    resid = sum((b - a) ** 2 for a, b in zip(hat, ref))
    total = sum((b - mb) ** 2 for b in ref)
    return 1.0 - resid / total


def brute_overlap(a_rows, b_rows):
    hits = 0
    for row in a_rows:
        found = False
        for other in b_rows:
            if row == other:
                found = True
                break
        if found:
            hits += 1
    return 100.0 * hits / len(a_rows)


def brute_marginal(rows, pos, card):
    counts = [0] * card
    for row in rows:
        counts[row[pos]] += 1
    return [c / len(rows) for c in counts]


def two_attr_schema(d1=2, d2=3):
    return sm.Schema(attributes=(
        sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
        sm.AttributeSpec("x", "preference", "categorical", cardinality=d1),
        sm.AttributeSpec("y", "preference", "categorical", cardinality=d2),
    ))


def hist(freqs, subset=("x",), dims=None):
    freqs = np.asarray(freqs, dtype=float)
    return mx.JointHistogram(subset=tuple(subset), dims=dims or (len(freqs),),
                             frequencies=freqs, n_source=100)


class TestCrossTabulate:
    def test_table_of_combination_counts(self):
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("w", "preference", "categorical", cardinality=2),
            sm.AttributeSpec("x", "preference", "categorical", cardinality=2),
            sm.AttributeSpec("y", "preference", "categorical", cardinality=4),
            sm.AttributeSpec("z", "preference", "categorical", cardinality=6),
        ))
        records = [sm.Record((0, 1, 0, 3, 5))]
        h = mx.cross_tabulate(records, ("w", "x", "y", "z"), schema)
        assert h.n_bins == 2 * 2 * 4 * 6 == 96

    def test_single_record_degenerate(self):
        schema = two_attr_schema()
        h = mx.cross_tabulate([sm.Record((0, 1, 2))], ("x", "y"), schema)
        assert h.frequencies.sum() == 1.0
        assert np.count_nonzero(h.frequencies) == 1

    def test_permutation_invariance(self):
        schema = two_attr_schema()
        rng = derive_rng(3, "perm")
        records = [sm.Record((0, int(rng.integers(2)), int(rng.integers(3)))) for _ in range(50)]
        h1 = mx.cross_tabulate(records, ("x", "y"), schema)
        h2 = mx.cross_tabulate(records[::-1], ("x", "y"), schema)
        assert np.array_equal(h1.frequencies, h2.frequencies)

    def test_zero_cells_kept(self):
        schema = two_attr_schema()
        h = mx.cross_tabulate([sm.Record((0, 0, 0))] * 5, ("x", "y"), schema)
        assert len(h.frequencies) == 6
        assert h.frequencies[0] == 1.0

    def test_bin_cap_enforced(self, monkeypatch):
        schema = two_attr_schema()
        monkeypatch.setattr(mx, "DEFAULT_BIN_CAP", 5)
        with pytest.raises(mx.MetricError, match="above the bin cap"):
            mx.cross_tabulate([sm.Record((0, 0, 0))], ("x", "y"), schema)

    def test_repeated_attribute_refused(self):
        """A repeat would add structurally empty bins: ("x", "x") has 4 bins, 2 of them empty."""
        with pytest.raises(mx.MetricError, match="subset must list attributes, each once"):
            mx.cross_tabulate([sm.Record((0, 1, 2))], ("x", "x"), two_attr_schema())

    def test_empty_records_error(self):
        with pytest.raises(mx.MetricError):
            mx.cross_tabulate([], ("x",), two_attr_schema())

    def test_marginal_axis_sum_matches_marginals(self):
        schema = two_attr_schema()
        rng = derive_rng(8, "marg")
        records = [sm.Record((0, int(rng.integers(2)), int(rng.integers(3)))) for _ in range(80)]
        joint = mx.cross_tabulate(records, ("x", "y"), schema)
        (table,) = tables(schema, records)
        for name in ("x", "y"):
            assert np.allclose(joint.marginal(name), mx.marginals(table, name, schema))


class TestCheckSubset:
    def test_returns_the_names(self):
        schema = two_attr_schema()
        assert mx.check_subset("k", ["y", "x"], schema, "preference", True) == ("y", "x")
        assert mx.check_subset("k", iter(["c", "x"]), schema, None, True) == ("c", "x")

    @pytest.mark.parametrize("names, role, message", [
        ([], "preference", "k must list attributes, each once, got []"),
        (["x", "nope"], "preference", "k[1] 'nope' is not a preference attribute of the schema"),
        (["x", "nope"], None, "k[1] 'nope' is not an attribute of the schema"),
        (["x", "c"], "preference", "k[1] 'c' is not a preference attribute of the schema"),
        (["x", "y", "x"], "preference", "k must list attributes, each once, got ['x', 'y', 'x']"),
        (["c", "c"], None, "k must list attributes, each once, got ['c', 'c']"),
    ])
    def test_refusals_name_the_key(self, names, role, message):
        with pytest.raises((mx.MetricError, sm.SchemaError)) as err:
            mx.check_subset("k", names, two_attr_schema(), role, True)
        assert str(err.value) == message

    def test_cap_read_at_call_time(self, monkeypatch):
        """The joint of x and y has 2 x 3 bins; tabulated one at a time, the widest has 3."""
        schema = two_attr_schema()
        monkeypatch.setattr(mx, "DEFAULT_BIN_CAP", 5)
        with pytest.raises(mx.MetricError, match=r"k \['x', 'y'\] has 6 bins, above the bin cap 5"):
            mx.check_subset("k", ["x", "y"], schema, "preference", True)
        assert mx.check_subset("k", ["x", "y"], schema, "preference", False) == ("x", "y")
        monkeypatch.setattr(mx, "DEFAULT_BIN_CAP", 2)
        with pytest.raises(mx.MetricError, match="has 3 bins, above the bin cap 2"):
            mx.check_subset("k", ["x", "y"], schema, "preference", False)

    def test_huge_joint_counted_exactly(self):
        """40 attributes of 3 categories: 3**40 bins, past int64's range, are over the cap."""
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=2),
            *(sm.AttributeSpec(f"p{i}", "preference", "categorical", cardinality=3)
              for i in range(40))))
        with pytest.raises(mx.MetricError, match=f"has {3 ** 40} bins"):
            mx.check_subset("k", [f"p{i}" for i in range(40)], schema, "preference", True)


class TestSrmse:
    def test_identical_zero(self):
        h = hist([0.25, 0.75])
        assert mx.srmse(h, h) == 0.0

    def test_hand_two_bin_case_exact(self):
        # rmse 0.25 over mean reference 0.5
        assert mx.srmse(hist([0.75, 0.25]), hist([0.5, 0.5])) == 0.5

    def test_symmetry_for_normalized(self):
        a, b = hist([0.1, 0.9]), hist([0.4, 0.6])
        assert mx.srmse(a, b) == pytest.approx(mx.srmse(b, a), abs=1e-15)

    def test_perturbation_formula(self):
        # moving delta from one bin to another: srmse = sqrt(2 delta^2 / N) * N
        base = np.array([0.3, 0.3, 0.2, 0.2])
        for delta in (0.01, 0.05, 0.2):
            moved = base.copy()
            moved[0] += delta
            moved[1] -= delta
            expected = math.sqrt(2 * delta**2 / 4) * 4
            got = mx.srmse(hist(moved, dims=(4,)), hist(base, dims=(4,)))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_subset_mismatch(self):
        with pytest.raises(mx.MetricError):
            mx.srmse(hist([1.0], subset=("x",)), hist([1.0], subset=("y",)))

    def test_brute_force_100_random_cases(self):
        rng = derive_rng(17, "srmse-cases")
        for _ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.random(n)
            a /= a.sum()
            b = rng.random(n)
            b /= b.sum()
            got = mx.srmse(hist(a, dims=(n,)), hist(b, dims=(n,)))
            assert got == pytest.approx(brute_srmse(a.tolist(), b.tolist()), abs=1e-12)


class TestPearsonR2:
    def test_identical(self):
        h = hist([0.2, 0.3, 0.5], dims=(3,))
        assert mx.pearson(h, h) == pytest.approx(1.0, abs=1e-12)
        assert mx.r2(h, h) == 1.0

    def test_uniform_vs_skewed_r2_zero(self):
        assert mx.r2(hist([0.5, 0.5]), hist([0.9, 0.1])) == pytest.approx(0.0, abs=1e-15)

    def test_zero_variance_reference_error(self):
        with pytest.raises(mx.MetricError):
            mx.pearson(hist([0.4, 0.6]), hist([0.5, 0.5]))

    def test_brute_force_100_random_cases(self):
        rng = derive_rng(23, "corr-cases")
        for _ in range(100):
            n = int(rng.integers(3, 25))
            a = rng.random(n)
            a /= a.sum()
            b = rng.random(n)
            b /= b.sum()
            assert mx.pearson(hist(a, dims=(n,)), hist(b, dims=(n,))) == pytest.approx(
                brute_pearson(a.tolist(), b.tolist()), abs=1e-12
            )
            assert mx.r2(hist(a, dims=(n,)), hist(b, dims=(n,))) == pytest.approx(
                brute_r2(a.tolist(), b.tolist()), abs=1e-12
            )


class TestMarginals:
    def test_single_category(self):
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=1),
        ))
        (table,) = tables(schema, [sm.Record((0, 0))])
        assert mx.marginals(table, "p", schema).tolist() == [1.0]

    def test_counting(self):
        schema = two_attr_schema()
        records = [sm.Record((0, 0, 0)), sm.Record((0, 0, 1)), sm.Record((0, 1, 2))]
        (table,) = tables(schema, records)
        assert np.allclose(mx.marginals(table, "x", schema), [2 / 3, 1 / 3])

    def test_brute_force_100_random_cases(self):
        schema = two_attr_schema(d1=4, d2=5)
        rng = derive_rng(31, "marg-cases")
        for _ in range(100):
            n = int(rng.integers(1, 40))
            rows = [(0, int(rng.integers(4)), int(rng.integers(5))) for _ in range(n)]
            records = [sm.Record(r) for r in rows]
            got = mx.marginals(sm.record_columns(records, schema), "y", schema)
            want = brute_marginal(rows, 2, 5)
            assert np.allclose(got, want, atol=1e-12)


class TestOverlap:
    def test_self_overlap_100(self):
        schema = two_attr_schema()
        records = [sm.Record((0, 1, 2)), sm.Record((1, 0, 0))]
        assert mx.overlap_pair(*tables(schema, records, records), schema)[0] == 100.0

    def test_disjoint_zero(self):
        schema = two_attr_schema()
        a = [sm.Record((0, 0, 0))]
        b = [sm.Record((1, 1, 1))]
        assert mx.overlap_pair(*tables(schema, a, b), schema)[0] == 0.0

    def test_monotone_in_b(self):
        schema = two_attr_schema()
        rng = derive_rng(4, "mono")
        a = [sm.Record((0, int(rng.integers(2)), int(rng.integers(3)))) for _ in range(30)]
        b = []
        last = 0.0
        for _ in range(30):
            b.append(sm.Record((0, int(rng.integers(2)), int(rng.integers(3)))))
            cur = mx.overlap_pair(*tables(schema, a, b), schema)[0]
            assert cur >= last
            last = cur

    def test_brute_force_100_random_cases(self):
        schema = two_attr_schema()
        rng = derive_rng(41, "overlap-cases")
        for _ in range(100):
            na, nb = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            rows_a = [(int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(3)))
                      for _ in range(na)]
            rows_b = [(int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(3)))
                      for _ in range(nb)]
            rec_a, rec_b = [sm.Record(r) for r in rows_a], [sm.Record(r) for r in rows_b]
            assert mx.overlap_pair(*tables(schema, rec_a, rec_b), schema) == (
                brute_overlap(rows_a, rows_b), brute_overlap(rows_b, rows_a))

    def test_joint_past_int64_matches_brute_force(self, monkeypatch):
        """24 attributes x 7 categories: 7**24 > 2**63, so the row codes are
        re-ranked on the way; rows of b repeat rows of a so that both hit and miss."""
        schema = sm.Schema(attributes=tuple(
            sm.AttributeSpec(f"a{i}", "preference" if i % 2 else "socio", "categorical",
                             cardinality=7) for i in range(24)))
        assert 7 ** 24 > 2 ** 63
        unique, reranks = np.unique, []

        def spy(*args, **kwargs):  # np.isin calls np.unique too; count _row_codes' calls
            reranks.append(sys._getframe(1).f_code.co_name == "_row_codes")
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        rng = derive_rng(43, "overlap-wide")
        for _ in range(20):
            na, nb = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            rows_a = [tuple(int(v) for v in rng.integers(7, size=24)) for _ in range(na)]
            rows_b = [rows_a[int(rng.integers(na))] if rng.random() < 0.5
                      else tuple(int(v) for v in rng.integers(7, size=24)) for _ in range(nb)]
            rec_a, rec_b = [sm.Record(r) for r in rows_a], [sm.Record(r) for r in rows_b]
            assert mx.overlap_pair(*tables(schema, rec_a, rec_b), schema) == (
                brute_overlap(rows_a, rows_b), brute_overlap(rows_b, rows_a))
        assert sum(reranks) == 20  # one re-rank per call

    def test_pair_reports_both_directions(self):
        schema = two_attr_schema()
        a = [sm.Record((0, 0, 0)), sm.Record((0, 1, 1))]
        b = [sm.Record((0, 0, 0))]
        fwd, rev = mx.overlap_pair(*tables(schema, a, b), schema)
        assert fwd == 50.0 and rev == 100.0

    def test_numeric_attributes_compared_in_bin_space(self):
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("c", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("d", "preference", "numerical", bin_edges=(0.0, 10.0, 20.0)),
        ))
        a = [sm.Record((0, 5.0))]  # midpoint of [0, 10)
        b = [sm.Record((0, 7.3))]  # same bin, different raw value
        assert mx.overlap_pair(*tables(schema, a, b), schema)[0] == 100.0
