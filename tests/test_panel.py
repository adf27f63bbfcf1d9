import numpy as np
import pytest

from superpanel import cvae, metrics, nn, oracle, panel, sampling
from superpanel import schema as sm
from superpanel.seeding import derive_rng

@pytest.fixture(scope="module")
def drift_setup():
    spec = oracle.canned_spec("drift-split")
    records = oracle.generate_dataset(spec, 800, seed=61)
    encoded = sm.encode(records, spec.schema)
    idx_tr, idx_va = sm.split_indices(len(records), 0.8, seed=62)
    config = cvae.CvaeConfig(hidden_layers=(32, 16), latent_dim=3, beta=5.0,
                             batch_size=64, epochs=15, seed=63)
    model = cvae.train(encoded.take(idx_tr), config, encoded.take(idx_va))
    base_records = [r for r in records if r.values[0] == 0][:60]
    return spec, records, model, base_records


@pytest.fixture(scope="module")
def small_cube(drift_setup):
    spec, records, model, base = drift_setup
    return panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                             draws_per_cell=200, seed=64)


class TestBuildPanel:
    def test_every_cell_populated_and_normalized(self, small_cube):
        for s in small_cube.subsets:
            freqs = small_cube.subset_freqs[s]
            assert freqs.shape[:2] == (60, 3)
            assert np.allclose(freqs.sum(axis=2), 1.0)
        for name, freqs in small_cube.attr_freqs.items():
            assert np.allclose(freqs.sum(axis=2), 1.0)

    def test_determinism(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        again = panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                                  draws_per_cell=200, seed=64)
        for s in small_cube.subsets:
            assert np.array_equal(small_cube.subset_freqs[s], again.subset_freqs[s])

    def test_parallel_jobs_identical(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        par = panel.build_panel(model, base, years=[0, 2, 4], external_by_year=None,
                                draws_per_cell=200, seed=64, jobs=2)
        for s in small_cube.subsets:
            assert np.array_equal(small_cube.subset_freqs[s], par.subset_freqs[s])

    def test_draw_floor_enforced(self, drift_setup):
        spec, records, model, base = drift_setup
        with pytest.raises(panel.PanelError, match="floor"):
            panel.build_panel(model, base, years=[0], external_by_year=None,
                              draws_per_cell=1, seed=65)

    def test_empty_population_rejected(self, drift_setup):
        spec, records, model, base = drift_setup
        with pytest.raises(panel.PanelError, match="empty"):
            panel.build_panel(model, [], years=[0], external_by_year=None,
                              draws_per_cell=50, seed=66)

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
        base = records[:2]
        with pytest.raises(panel.PanelError, match="external values for year 1"):
            panel.build_panel(model, base, [1], None, draws_per_cell=10, seed=70)
        with pytest.raises(panel.PanelError, match="individual 1 in year 1"):
            panel.build_panel(model, base, [1], {1: {"0": {"access": 0}}}, draws_per_cell=10,
                              seed=70)
        # the table's values replace the base year's, and the year is moved
        table = {1: {"0": {"access": 0}, "1": {"access": 0}}}
        moved = panel._year_columns({"year": np.array([0, 0]), "access": np.array([0, 1])},
                                    ("0", "1"), ext_schema, 1, table)
        assert moved["year"].tolist() == [1, 1] and moved["access"].tolist() == [0, 0]
        cube = panel.build_panel(model, base, [1], table, draws_per_cell=10, seed=70)
        assert cube.conditionals["access"].tolist() == [0, 1]

    def test_single_individual_single_year_degenerate_draw(self, drift_setup):
        spec, records, model, base = drift_setup
        cube = panel.build_panel(model, base[:1], years=[0], external_by_year=None,
                                 draws_per_cell=panel.MIN_DRAWS_PER_CELL, seed=67)
        assert cube.subset_freqs[cube.subsets[0]].shape[0] == 1


class TestCellDraws:
    def test_cell_recomputed_by_hand(self, drift_setup, small_cube):
        """A cell's generator yields the latent noise, then the category
        uniforms; its decoded draws go through the cumulative-sum rule."""
        spec, records, model, base = drift_setup
        i, t = 7, 1
        year, r = small_cube.years[t], small_cube.draws_per_cell
        rng = derive_rng(small_cube.seed, "panel-cell", small_cube.ids[i], year)
        eps = rng.standard_normal((r, model.config.latent_dim))
        blocks = model.pref_layout
        uniforms = rng.random((r, len(blocks)))
        cell = sm.encode([base[i]], spec.schema).conditional[0]
        cols = dict(small_cube.conditionals)
        cols[spec.schema.time_attribute.name] = np.full(len(small_cube.ids), year)
        c_row = sm.encode_columns(cols, model.cond_layout, spec.schema)[i]
        # only the time block differs from the base record's own row
        moved = [b for b in model.cond_layout if not np.array_equal(
            cell[b.start : b.start + b.width], c_row[b.start : b.start + b.width])]
        assert [b.name for b in moved] == [spec.schema.time_attribute.name]
        dec = cvae.decode(model, eps, np.tile(c_row, (r, 1)))
        cats = {}
        for j, block in enumerate(blocks):
            cum = np.cumsum(dec[:, block.start : block.start + block.width], axis=1)
            u = uniforms[:, j] * cum[:, -1]
            cats[block.name] = np.minimum(np.sum(u[:, None] >= cum, axis=1), block.width - 1)
            expected = np.bincount(cats[block.name], minlength=block.width) / r
            assert np.array_equal(small_cube.attr_freqs[block.name][i, t], expected)
        for s in small_cube.subsets:
            dims = metrics.subset_dims(spec.schema, s)
            flat = np.ravel_multi_index([cats[a] for a in s], dims)
            expected = np.bincount(flat, minlength=int(np.prod(dims))) / r
            assert np.array_equal(small_cube.subset_freqs[s][i, t], expected)

    def test_chunk_size_does_not_change_cube(self, drift_setup, monkeypatch):
        """Chunks of 70 draws split neither 45 individuals nor R=30 evenly."""
        spec, records, model, base = drift_setup
        build = lambda: panel.build_panel(model, base[:45], years=[0, 3],  # noqa: E731
                                          external_by_year=None, draws_per_cell=30, seed=68)
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
        for s in whole.subsets:
            assert np.array_equal(whole.subset_freqs[s], chunked.subset_freqs[s])
        for name in whole.attr_freqs:
            assert np.array_equal(whole.attr_freqs[name], chunked.attr_freqs[name])


class TestAggregateTrend:
    def test_mixture_consistency_exact(self, small_cube):
        """Population trend equals the mean of per-individual estimates."""
        series = panel.aggregate_trend(small_cube, "p_mode")
        manual = small_cube.attr_freqs["p_mode"].mean(axis=0)
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
            ids=("0",), conditionals={"year": np.array([0]), "g": np.array([0])},
            years=(0,), schema=schema, subsets=(),
            subset_freqs={}, attr_freqs={"dist": freqs}, draws_per_cell=100, seed=0,
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
        report = panel.classify_movers(small_cube, 0, 4)
        assert len(report.fast_ids) == 6 == len(report.slow_ids)
        assert set(report.fast_ids).isdisjoint(report.slow_ids)

    def test_distance_zero_when_years_equal(self, small_cube):
        report = panel.classify_movers(small_cube, 2, 2)
        assert np.allclose(report.distances, 0.0)
        # deciles still filled deterministically by id tie-break
        assert len(report.fast_ids) == 6 == len(report.slow_ids)
        again = panel.classify_movers(small_cube, 2, 2)
        assert report.fast_ids == again.fast_ids and report.slow_ids == again.slow_ids

    def test_distance_symmetric_in_years(self, small_cube):
        a = panel.classify_movers(small_cube, 0, 4)
        b = panel.classify_movers(small_cube, 4, 0)
        assert np.allclose(a.distances, b.distances)

    def test_distance_matches_metric_srmse(self, small_cube):
        """Vectorized distances agree with the histogram metric pairwise."""
        report = panel.classify_movers(small_cube, 0, 4)
        subset = report.subset
        freqs = small_cube.subset_freqs[subset]
        dims = metrics.subset_dims(small_cube.schema, subset)
        r = small_cube.draws_per_cell
        for i in (0, 7, 31):
            h0 = metrics.JointHistogram(subset, dims, freqs[i, 0], r)
            h4 = metrics.JointHistogram(subset, dims, freqs[i, 2], r)  # year 4 is index 2
            assert report.distances[i] == pytest.approx(metrics.srmse(h4, h0), abs=1e-12)

    def test_fast_distances_dominate_slow(self, small_cube):
        report = panel.classify_movers(small_cube, 0, 4)
        by_id = dict(zip(report.ids, report.distances))
        assert min(by_id[i] for i in report.fast_ids) >= max(by_id[i] for i in report.slow_ids)

    def test_missing_year_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="years"):
            panel.classify_movers(small_cube, 0, 3)


class TestGroupMarginals:
    def test_whole_population_equals_population_marginals(self, drift_setup, small_cube):
        spec, records, model, base = drift_setup
        out = panel.group_marginals(small_cube, small_cube.ids)
        assert set(out) == {"group", "segment"}
        expected = metrics.marginals(base, "segment", spec.schema)
        assert np.allclose(out["segment"]["frequencies"], expected)

    def test_frequencies_sum_to_one_and_mode_flagged(self, small_cube):
        out = panel.group_marginals(small_cube, small_cube.ids[:2])
        for name, table in out.items():
            assert table["frequencies"].sum() == pytest.approx(1.0)
            assert table["mode"] == int(np.argmax(table["frequencies"]))

    def test_empty_group_rejected(self, small_cube):
        with pytest.raises(panel.PanelError, match="empty"):
            panel.group_marginals(small_cube, ["nope"])


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


def statistic_records():
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
    return schema, records


class TestStatisticValues:
    def test_condition_and_per_year_groups(self):
        schema, records = statistic_records()
        stat = panel.StatisticSpec(attribute="mode", category=0, condition=(("seg", 0),))
        assert panel._statistic_values(records, schema, stat) == {0: 1.0, 1: 0.5}

    def test_numerical_bin_category_per_year(self):
        schema, records = statistic_records()
        stat = panel.StatisticSpec(attribute="dist", category=1)  # bin [5, 10)
        got = panel._statistic_values(records, schema, stat)
        assert got == {0: pytest.approx(2 / 3), 1: 0.0, 2: 0.0}

    def test_numerical_mean_pooled(self):
        schema, records = statistic_records()
        stat = panel.StatisticSpec(attribute="dist", condition=(("seg", 1),), per_year=False)
        assert panel._statistic_values(records, schema, stat) == {None: 11.0}

    def test_mean_of_categorical_rejected(self):
        schema, records = statistic_records()
        stat = panel.StatisticSpec(attribute="mode", per_year=False)
        with pytest.raises(panel.PanelError, match="numerical"):
            panel._check_statistic(schema, stat)

    def test_empty_selection(self):
        schema, records = statistic_records()
        cond = (("t", 2), ("seg", 0))
        pooled = panel.StatisticSpec(attribute="mode", category=0, condition=cond,
                                     per_year=False)
        got = panel._statistic_values(records, schema, pooled)
        assert list(got) == [None] and np.isnan(got[None])
        per_year = panel.StatisticSpec(attribute="mode", category=0, condition=cond)
        assert panel._statistic_values(records, schema, per_year) == {}

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
            assert panel._statistic_values(records, schema, stat) == want
