import numpy as np
import pytest

from superpanel import cvae, metrics, nn, oracle, panel, sampling
from superpanel import schema as sm
from superpanel.seeding import derive_rng

from test_schema import spans

JOINT = ("p_mode", "p_trips")  # every preference attribute of drift-split
SUBSETS = [("p_mode",), ("p_trips",), JOINT]


@pytest.fixture(scope="module")
def drift_setup():
    spec = oracle.canned_spec("drift-split")
    records = oracle.generate_dataset(spec, 800, seed=61)
    encoded = sm.encode(records, spec.schema)
    idx_tr, idx_va = sm.split_indices(len(records), 0.8, seed=62)
    config = cvae.CvaeConfig(hidden_layers=(32, 16), latent_dim=3, beta=5.0,
                             batch_size=64, epochs=15, seed=63)
    model = cvae.train(encoded.take(idx_tr), config, encoded.take(idx_va))
    base = sm.record_columns([r for r in records if r.values[0] == 0][:60], spec.schema)
    return spec, records, model, base


@pytest.fixture(scope="module")
def small_cube(drift_setup):
    spec, records, model, base = drift_setup
    return panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                             draws_per_cell=200, seed=64, subsets=SUBSETS)


class TestBuildPanel:
    def test_every_cell_populated_and_normalized(self, small_cube):
        assert list(small_cube.freqs) == SUBSETS
        freqs = small_cube.joint(JOINT)
        assert freqs.shape[:2] == (60, 3)
        assert np.allclose(freqs.sum(axis=2), 1.0)
        for freqs in small_cube.freqs.values():
            assert np.allclose(freqs.sum(axis=2), 1.0)

    def test_determinism(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        again = panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                                  draws_per_cell=200, seed=64, subsets=SUBSETS)
        assert np.array_equal(small_cube.joint(JOINT), again.joint(JOINT))

    def test_parallel_jobs_identical(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        par = panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                                draws_per_cell=200, seed=64, subsets=SUBSETS, jobs=2)
        assert np.array_equal(small_cube.joint(JOINT), par.joint(JOINT))

    def test_draw_floor_enforced(self, drift_setup):
        spec, records, model, base = drift_setup
        with pytest.raises(panel.PanelError, match="floor"):
            panel.build_panel(model, base, years=[0], external_by_year=None,
                              draws_per_cell=1, seed=65, subsets=SUBSETS)

    def test_empty_population_rejected(self, drift_setup):
        spec, records, model, base = drift_setup
        with pytest.raises(panel.PanelError, match="empty"):
            panel.build_panel(model, sm.take_rows(base, []), years=[0], external_by_year=None,
                              draws_per_cell=50, seed=66, subsets=SUBSETS)

    def test_missing_externals_rejected(self):
        ext_schema = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "categorical", cardinality=3),
            sm.AttributeSpec("access", "external", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ))
        records = [sm.Record((0, i % 2, i % 2)) for i in range(40)]
        config = cvae.CvaeConfig(hidden_layers=(4,), latent_dim=1, epochs=1, seed=69)
        encoded = sm.encode(records, ext_schema)
        model = cvae.train(encoded, config, encoded)
        base = sm.record_columns(records[:2], ext_schema)
        with pytest.raises(panel.PanelError, match="external values for year 1"):
            panel.build_panel(model, base, [1], None, draws_per_cell=10, seed=70,
                              subsets=[("p",)])
        with pytest.raises(panel.PanelError, match="external values for year 1"):
            panel.build_panel(model, base, [1], {0: {"access": np.array([0, 0])}},
                              draws_per_cell=10, seed=70, subsets=[("p",)])
        # the table's values replace the base year's, and the year is moved
        table = {1: {"access": np.array([0, 0])}}
        moved = panel._year_columns({"year": np.array([0, 0]), "access": np.array([0, 1])},
                                    ext_schema, 1, table)
        assert moved["year"].tolist() == [1, 1] and moved["access"].tolist() == [0, 0]
        cube = panel.build_panel(model, base, [1], table, draws_per_cell=10, seed=70,
                                 subsets=[("p",)])
        assert cube.conditionals["access"].tolist() == [0, 1]

    def test_single_individual_single_year_degenerate_draw(self, drift_setup):
        spec, records, model, base = drift_setup
        cube = panel.build_panel(model, sm.take_rows(base, [0]), years=[0], external_by_year=None,
                                 draws_per_cell=panel.MIN_DRAWS_PER_CELL, seed=67,
                                 subsets=SUBSETS)
        assert cube.joint(JOINT).shape[0] == 1


class TestCellDraws:
    def test_cell_recomputed_by_hand(self, drift_setup, small_cube):
        """A cell's generator yields the latent noise, then the category
        uniforms; its decoded draws go through the cumulative-sum rule."""
        spec, records, model, base = drift_setup
        i, t = 7, 1
        year, r = small_cube.years[t], small_cube.draws_per_cell
        rng = derive_rng(64, "panel-cell", str(i), year)
        eps = rng.standard_normal((r, model.config.latent_dim))
        blocks = spans(spec.schema.preference_attributes)
        uniforms = rng.random((r, len(blocks)))
        conditional = spec.schema.conditional_attributes
        cell = sm.encode_columns(sm.take_rows(base, [i]), conditional)[0]
        cols = dict(small_cube.conditionals)
        cols[spec.schema.time_attribute.name] = np.full(small_cube.n_individuals, year)
        c_row = sm.encode_columns(cols, conditional)[i]
        # only the time block differs from the base record's own row
        moved = [a for a, b in spans(conditional) if not np.array_equal(cell[b], c_row[b])]
        assert [a.name for a in moved] == [spec.schema.time_attribute.name]
        dec = nn.forward(model.decoder, np.concatenate([eps, np.tile(c_row, (r, 1))], axis=1))[0]
        cats = {}
        for j, (attr, block) in enumerate(blocks):
            cum = np.cumsum(dec[:, block], axis=1)
            u = uniforms[:, j] * cum[:, -1]
            cats[attr.name] = np.minimum(np.sum(u[:, None] >= cum, axis=1), attr.n_categories - 1)
            expected = np.bincount(cats[attr.name], minlength=attr.n_categories) / r
            assert np.array_equal(small_cube.joint((attr.name,))[i, t], expected)
        s = JOINT
        dims = metrics.subset_dims(spec.schema, s)
        flat = np.ravel_multi_index([cats[a] for a in s], dims)
        expected = np.bincount(flat, minlength=int(np.prod(dims))) / r
        assert np.array_equal(small_cube.joint(JOINT)[i, t], expected)

    def test_chunk_size_does_not_change_cube(self, drift_setup, monkeypatch):
        """Chunks of 70 draws split neither 45 individuals nor R=30 evenly."""
        spec, records, model, base = drift_setup
        build = lambda: panel.build_panel(model, sm.take_rows(base, np.arange(45)),  # noqa: E731
                                          years=[0, 3],
                                          external_by_year=None, draws_per_cell=30, seed=68,
                                          subsets=SUBSETS)
        whole = build()
        rows = []
        forward = nn.forward

        def spy(network, x):
            rows.append(len(x))
            return forward(network, x)

        monkeypatch.setattr(sampling, "CHUNK_ROWS", 70)
        monkeypatch.setattr(nn, "forward", spy)
        chunked = build()
        assert len(rows) == 2 * 23 and max(rows) <= 70
        for subset in SUBSETS:
            assert np.array_equal(whole.joint(subset), chunked.joint(subset))


class TestAggregateTrend:
    def test_mixture_consistency_exact(self, small_cube):
        """Population trend equals the mean of per-individual estimates."""
        series = panel.aggregate_trend(small_cube, "p_mode")
        manual = small_cube.joint(("p_mode",)).mean(axis=0)
        assert np.array_equal(series.category_probs, manual)

    def test_condition_filtering(self, small_cube):
        drifting = panel.aggregate_trend(small_cube, "p_mode", {"group": 1})
        static = panel.aggregate_trend(small_cube, "p_mode", {"group": 0})
        assert drifting.n_individuals + static.n_individuals == 60

    def test_no_match_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="no individuals"):
            panel.aggregate_trend(small_cube, "p_mode", {"group": 99})

    def test_unknown_condition_attribute_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="not a conditional attribute"):
            panel.aggregate_trend(small_cube, "p_mode", {"p_trips": 0})

    def test_non_preference_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="not a preference"):
            panel.aggregate_trend(small_cube, "group")

    def test_numeric_attribute_mean_std(self):
        """Binned numeric attributes aggregate through bin midpoints."""
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "categorical", cardinality=1),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("dist", "preference", "numerical", bin_edges=(0.0, 10.0, 30.0)),
        ))
        freqs = np.array([[[0.25, 0.75]]])  # midpoints 5 and 20
        cube = panel.PanelCube(
            conditionals={"year": np.array([0]), "g": np.array([0])},
            years=(0,), schema=schema, freqs={("dist",): freqs}, draws_per_cell=100,
        )
        series = panel.aggregate_trend(cube, "dist")
        expected_mean = 0.25 * 5 + 0.75 * 20
        expected_var = 0.25 * 25 + 0.75 * 400 - expected_mean ** 2
        assert series.mean[0] == pytest.approx(expected_mean)
        assert series.std[0] == pytest.approx(np.sqrt(expected_var))

    def test_fit_slope_exact_line(self):
        assert panel.fit_slope([0, 1, 2, 3], [1.0, 1.1, 1.2, 1.3]) == pytest.approx(0.1)


class TestClassifyMovers:
    def test_decile_sizes(self, small_cube):
        report = panel.classify_movers(small_cube, 0, 4, JOINT)
        assert len(report.fast) == 6 == len(report.slow)
        assert set(report.fast).isdisjoint(report.slow)

    def test_distance_zero_when_years_equal(self, small_cube):
        report = panel.classify_movers(small_cube, 2, 2, JOINT)
        assert np.allclose(report.distances, 0.0)
        # deciles still filled deterministically by the str(i) tie-break
        assert len(report.fast) == 6 == len(report.slow)
        assert report.slow.tolist() == [0, 1, 10, 11, 12, 13]
        assert report.fast.tolist() == [58, 59, 6, 7, 8, 9]
        again = panel.classify_movers(small_cube, 2, 2, JOINT)
        assert np.array_equal(report.fast, again.fast) and np.array_equal(report.slow, again.slow)

    def test_distance_symmetric_in_years(self, small_cube):
        a = panel.classify_movers(small_cube, 0, 4, JOINT)
        b = panel.classify_movers(small_cube, 4, 0, JOINT)
        assert np.allclose(a.distances, b.distances)

    def test_distance_matches_metric_srmse(self, small_cube):
        """Vectorized distances agree with the histogram metric pairwise."""
        report = panel.classify_movers(small_cube, 0, 4, JOINT)
        subset = report.subset
        freqs = small_cube.joint(JOINT)
        dims = metrics.subset_dims(small_cube.schema, subset)
        r = small_cube.draws_per_cell
        for i in (0, 7, 31):
            h0 = metrics.JointHistogram(subset, dims, freqs[i, 0], r)
            h4 = metrics.JointHistogram(subset, dims, freqs[i, 2], r)  # year 4 is index 2
            assert report.distances[i] == pytest.approx(metrics.srmse(h4, h0), abs=1e-12)

    def test_cube_without_subset_rejected(self):
        """A two-year cube built without the distance subset has nothing to rank movers over."""
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "categorical", cardinality=2),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=1),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ))
        cube = panel.PanelCube(
            conditionals={"year": np.array([0, 0]), "g": np.array([0, 0])},
            years=(0, 1), schema=schema, freqs={}, draws_per_cell=100,
        )
        with pytest.raises(panel.PanelError, match=r"holds no joint over \('p',\)"):
            panel.classify_movers(cube, 0, 1, ("p",))

    def test_fast_distances_dominate_slow(self, small_cube):
        report = panel.classify_movers(small_cube, 0, 4, JOINT)
        assert report.distances[report.fast].min() >= report.distances[report.slow].max()

    def test_missing_year_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="years"):
            panel.classify_movers(small_cube, 0, 3, JOINT)


class TestGroupMarginals:
    def test_whole_population_equals_population_marginals(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        out = panel.group_marginals(small_cube, np.arange(small_cube.n_individuals))
        assert set(out) == {"group", "segment"}
        expected = metrics.marginals(base, "segment", spec.schema)
        assert np.allclose(out["segment"]["frequencies"], expected)

    def test_frequencies_sum_to_one_and_mode_flagged(self, small_cube):
        out = panel.group_marginals(small_cube, [0, 1])
        for name, table in out.items():
            assert table["frequencies"].sum() == pytest.approx(1.0)
            assert table["mode"] == int(np.argmax(table["frequencies"]))

    def test_empty_group_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="empty"):
            panel.group_marginals(small_cube, [])


class TestBootstrap:
    def test_smoke_and_shapes(self, drift_setup):
        spec, records, model, base = drift_setup
        config = cvae.CvaeConfig(hidden_layers=(16,), latent_dim=2, beta=1.0,
                                 batch_size=64, epochs=3, seed=0)
        stats = [panel.StatisticSpec(attribute="p_mode", category=0, per_year=True)]
        summary = panel.bootstrap(records[:1500], spec.schema, config, n_replicates=3,
                                  statistics=stats, seed=71, samples_per_replicate=200)
        assert summary.survivors == 3
        sources = {row[1] for row in summary.rows}
        assert sources == {"model", "data"}
        for _, _, year, mean, std in summary.rows:
            assert np.isfinite(mean) and np.isfinite(std) and std >= 0

    def test_constant_statistic_zero_std(self, drift_setup):
        spec, records, model, base = drift_setup
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=1.0,
                                 batch_size=64, epochs=2, seed=0)
        consts = sm.Schema(attributes=(
            sm.AttributeSpec("year", "time", "categorical", cardinality=1),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=1),
        ))
        recs = [sm.Record((0, i % 2, 0)) for i in range(300)]
        stats = [panel.StatisticSpec(attribute="p", category=0, per_year=False)]
        summary = panel.bootstrap(recs, consts, config, n_replicates=3,
                                  statistics=stats, seed=72, samples_per_replicate=100)
        data_rows = [r for r in summary.rows if r[1] == "data"]
        assert all(r[4] == 0.0 for r in data_rows)  # frequency of the only category

    def test_replicate_floor(self, drift_setup):
        spec, records, model, base = drift_setup
        config = cvae.CvaeConfig(epochs=1, seed=0)
        with pytest.raises(panel.PanelError, match="replicates"):
            panel.bootstrap(records[:100], spec.schema, config, n_replicates=1,
                            statistics=[panel.StatisticSpec(attribute="p_mode", category=0)],
                            seed=73)


def statistic_table():
    schema = sm.Schema(attributes=(
        sm.AttributeSpec("t", "time", "categorical", cardinality=3),
        sm.AttributeSpec("seg", "socio", "categorical", cardinality=2),
        sm.AttributeSpec("mode", "preference", "categorical", cardinality=3),
        sm.AttributeSpec("dist", "preference", "numerical", bin_edges=(0.0, 5.0, 10.0, 20.0)),
    ))
    records = [sm.Record(v) for v in [
        (0, 0, 0, 1.0),
        (0, 1, 2, 7.0),
        (1, 0, 1, 12.0),
        (1, 0, 0, 3.0),
        (2, 1, 0, 15.0),
        (0, 0, 0, 8.0),
    ]]
    return schema, sm.record_columns(records, schema)


class TestStatisticValues:
    def test_condition_and_per_year_groups(self):
        schema, table = statistic_table()
        stat = panel.StatisticSpec(attribute="mode", category=0, condition=(("seg", 0),))
        assert panel._statistic_values(table, schema, stat) == {0: 1.0, 1: 0.5}

    def test_numerical_bin_category_per_year(self):
        schema, table = statistic_table()
        stat = panel.StatisticSpec(attribute="dist", category=1)  # bin [5, 10)
        got = panel._statistic_values(table, schema, stat)
        assert got == {0: pytest.approx(2 / 3), 1: 0.0, 2: 0.0}

    def test_numerical_mean_pooled(self):
        schema, table = statistic_table()
        stat = panel.StatisticSpec(attribute="dist", condition=(("seg", 1),), per_year=False)
        assert panel._statistic_values(table, schema, stat) == {None: 11.0}

    def test_mean_of_categorical_rejected(self):
        schema, table = statistic_table()
        stat = panel.StatisticSpec(attribute="mode", per_year=False)
        with pytest.raises(panel.PanelError, match="numerical"):
            panel._check_statistic(schema, stat)

    def test_empty_selection(self):
        schema, table = statistic_table()
        cond = (("t", 2), ("seg", 0))
        pooled = panel.StatisticSpec(attribute="mode", category=0, condition=cond,
                                     per_year=False)
        got = panel._statistic_values(table, schema, pooled)
        assert list(got) == [None] and np.isnan(got[None])
        per_year = panel.StatisticSpec(attribute="mode", category=0, condition=cond)
        assert panel._statistic_values(table, schema, per_year) == {}

    def test_matches_record_loop(self, drift_setup):
        spec, records, _, _ = drift_setup
        schema = spec.schema
        pos = {a.name: i for i, a in enumerate(schema.attributes)}
        for stat in (panel.StatisticSpec("p_mode", 0),
                     panel.StatisticSpec("p_trips", 2, (("group", 1),), per_year=False),
                     panel.StatisticSpec("p_mode", 1, (("segment", 2), ("group", 0)))):
            picked = [r.values for r in records
                      if all(r.values[pos[k]] == v for k, v in stat.condition)]
            groups = {}
            for v in picked:
                groups.setdefault(v[pos["year"]] if stat.per_year else None, []).append(v)
            want = {y: float(np.mean([v[pos[stat.attribute]] == stat.category for v in vs]))
                    for y, vs in groups.items()}
            assert panel._statistic_values(sm.record_columns(records, schema), schema,
                                           stat) == want
