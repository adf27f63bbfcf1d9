import tracemalloc

import numpy as np
import pytest

from superpanel import cvae, nn, oracle, sampling
from superpanel import schema as sm
from superpanel.seeding import derive_rng

from test_schema import spans


@pytest.fixture(scope="module")
def small_model():
    """Lightly trained model on the correlated stationary process."""
    spec = oracle.canned_spec("static-corr")
    encoded = sm.encode_table(oracle.generate_dataset(spec, 400, seed=51), spec.schema)
    idx_tr, idx_va = sm.split_indices(encoded.n_rows, 0.8, seed=52)
    config = cvae.CvaeConfig(hidden_layers=(16,), latent_dim=3, beta=1.0,
                             batch_size=64, epochs=5, seed=53)
    return cvae.train(encoded.take(idx_tr), config, encoded.take(idx_va))


def row_for(model, **values):
    """The encoded conditional row of one profile (year 0, segment 0 by default)."""
    cols = {"year": 0, "segment": 0}
    cols.update(values)
    return sm.encode_columns({k: np.array([v]) for k, v in cols.items()},
                             model.schema.conditional_attributes)[0]


def table_for(model, *segments):
    """Year-0 rows, one per segment, with every preference at category 0."""
    return {a.name: np.array([s if a.name == "segment" else 0 for s in segments], dtype=np.int64)
            for a in model.schema.attributes}


def resolve_per_block(attrs, dec_out, uniforms):
    """Reference category draw: one cumsum, compare and clamp per segment."""
    out = []
    for j, (attr, cols) in enumerate(spans(attrs)):
        cum = np.cumsum(dec_out[:, cols], axis=1)
        u = uniforms[:, j] * cum[:, -1]
        out.append(np.minimum(np.sum(u[:, None] >= cum, axis=1), attr.n_categories - 1))
    return np.stack(out, axis=1)


class TestKernel:
    def test_single_pass_matches_per_block(self, small_model):
        """Unnormalized segments of widths (2, 2, 4, 6) resolve as block by block."""
        attrs = small_model.schema.preference_attributes
        assert [a.n_categories for a in attrs] == [2, 2, 4, 6]
        rng = np.random.default_rng(0)
        dec_out = rng.random((5000, small_model.decoder.out_dim)) ** 3
        uniforms = rng.random((5000, len(attrs)))
        got = sampling._resolve(small_model, dec_out, uniforms)
        assert got.dtype == np.int64
        assert np.array_equal(got, resolve_per_block(attrs, dec_out, uniforms))

    def test_single_pass_matches_per_block_at_clamp_edge(self, small_model):
        """With the largest uniform, u * total reaches total for zero and
        subnormal segment totals; the padding does not move the clamp."""
        attrs = small_model.schema.preference_attributes
        rng = np.random.default_rng(1)
        dec_out = rng.random((300, small_model.decoder.out_dim))
        dec_out[::3] = 0.0
        dec_out[1::3] = 5e-324  # the smallest subnormal
        uniforms = np.full((300, len(attrs)), 1 - 2.0 ** -53)
        totals = np.stack([dec_out[:, cols].sum(axis=1) for _, cols in spans(attrs)], axis=1)
        edge = np.arange(300) % 3 < 2
        assert np.all((uniforms * totals >= totals)[edge])
        got = sampling._resolve(small_model, dec_out, uniforms)
        assert np.array_equal(got, resolve_per_block(attrs, dec_out, uniforms))
        assert np.array_equal(got[edge], np.tile([a.n_categories - 1 for a in attrs], (200, 1)))

    def test_chunk_size_does_not_change_draws(self, small_model, monkeypatch):
        """Chunks of 7 draws give per-profile and bulk draws equal to one chunk."""
        rows = np.stack([row_for(small_model, segment=s, year=y)
                         for s in range(2) for y in range(3)])
        whole_cols = sampling.sample_preference_columns(small_model, rows, 3, seed=8)
        whole_draws = sampling.sample(small_model, rows[1], "ind-1", 20, seed=8).draws
        monkeypatch.setattr(sampling, "CHUNK_ROWS", 7)
        cols = sampling.sample_preference_columns(small_model, rows, 3, seed=8)
        for name, col in whole_cols.items():
            assert np.array_equal(cols[name], col)
        assert np.array_equal(sampling.sample(small_model, rows[1], "ind-1", 20, seed=8).draws,
                              whole_draws)

    def test_long_row_decoded_in_slices(self, small_model, monkeypatch):
        """A row of more than CHUNK_ROWS draws never sends more than CHUNK_ROWS
        rows through one decoder pass, and its draws equal one pass's."""
        draws = 3 * sampling.CHUNK_ROWS + 5
        passes = []
        forward = sampling.nn.forward

        def counted(net, x, **kwargs):
            passes.append(len(x))
            return forward(net, x, **kwargs)

        monkeypatch.setattr(sampling.nn, "forward", counted)
        cols = sampling.sample_preference_columns(small_model, row_for(small_model), draws, seed=3)
        assert max(passes) <= sampling.CHUNK_ROWS and sum(passes) == draws
        monkeypatch.setattr(sampling, "CHUNK_ROWS", 10**9)
        whole = sampling.sample_preference_columns(small_model, row_for(small_model), draws,
                                                   seed=3)
        assert passes[-1] == draws
        for name, col in whole.items():
            assert np.array_equal(cols[name], col)

    @pytest.mark.parametrize("n_draws", [0, 1, 5, sampling.CHUNK_ROWS, sampling.CHUNK_ROWS + 1,
                                         3 * sampling.CHUNK_ROWS + 5])
    def test_sample_is_the_kernel(self, small_model, monkeypatch, n_draws):
        """A profile's draws are the kernel's for its row and generator, bit for
        bit, and no decoder pass takes more than CHUNK_ROWS of them."""
        c = row_for(small_model, segment=1, year=2)
        passes = []
        forward = sampling.nn.forward

        def counted(net, x, **kwargs):
            passes.append(len(x))
            return forward(net, x, **kwargs)

        monkeypatch.setattr(sampling.nn, "forward", counted)
        got = sampling.sample(small_model, c, "p7", n_draws, seed=5).draws
        assert max(passes, default=0) <= sampling.CHUNK_ROWS and sum(passes) == n_draws
        want = sampling._decode_with_noise(small_model, c[None], n_draws,
                                           [derive_rng(5, "profile", "p7")])
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_rows, draws", [(0, 5), (3, 0)])
    def test_no_rows_or_no_draws_give_empty_columns(self, small_model, n_rows, draws):
        rows = np.stack([row_for(small_model)] * 3)[:n_rows]
        cols = sampling.sample_preference_columns(small_model, rows, draws, seed=9)
        assert list(cols) == [a.name for a in small_model.schema.preference_attributes]
        for col in cols.values():
            assert col.dtype == np.int64 and col.shape == (0,)

    def test_working_memory_does_not_grow_with_rows(self):
        """The kernel's traced peak beyond the columns it returns is the same
        for 50 and for 2,000 conditional rows x 500 draws."""
        spec = oracle.canned_spec("static-corr")
        encoded = sm.encode_table(oracle.generate_dataset(spec, 40, seed=54), spec.schema)
        config = cvae.CvaeConfig(hidden_layers=(4,), latent_dim=1, epochs=1, seed=55)
        model = cvae.train(encoded, config, encoded)
        extra = []
        for n_rows in (50, 2000):
            rows = np.repeat(encoded.conditional[:1], n_rows, axis=0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cols = sampling.sample_preference_columns(model, rows, 500, seed=10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = sum(col.nbytes for col in cols.values())
            extra.append(peak - before - returned)
        assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra


class TestSample:
    def test_zero_draws_empty(self, small_model):
        draws = sampling.sample(small_model, row_for(small_model), "ind-0", 0, seed=1)
        assert draws.draws.shape == (0, len(small_model.schema.preference_attributes))

    def test_same_seed_identical(self, small_model):
        c_row = row_for(small_model)
        a = sampling.sample(small_model, c_row, "ind-0", 20, seed=2)
        b = sampling.sample(small_model, c_row, "ind-0", 20, seed=2)
        assert np.array_equal(a.draws, b.draws)

    def test_draw_values_valid_categories(self, small_model):
        draws = sampling.sample(small_model, row_for(small_model), "ind-0", 50, seed=3)
        assert draws.draws.shape == (50, len(small_model.schema.preference_attributes))
        for col, attr in zip(draws.draws.T, small_model.schema.preference_attributes):
            assert np.all((col >= 0) & (col < attr.n_categories))

    def test_profile_out_of_range_rejected(self, small_model):
        with pytest.raises(ValueError, match="out of range"):
            sampling.generate_population(small_model, table_for(small_model, 17), 1, seed=6)

    def test_empirical_frequencies_match_decoder_probabilities(self, small_model):
        """Category frequencies over many draws converge to the softmax
        output at the 1/sqrt(N) rate; 0.01 absolute at N = 100k."""
        c_row = row_for(small_model, segment=1)
        n = 100_000
        cols = sampling.sample_preference_columns(small_model, c_row[None, :], n, seed=7)
        rng = derive_rng(7, "bulk-sample")
        eps = rng.standard_normal((n, small_model.config.latent_dim))
        dec = nn.forward(small_model.decoder,
                         np.concatenate([eps, np.tile(c_row, (n, 1))], axis=1))
        for attr, block in spans(small_model.schema.preference_attributes):
            expected = dec[:, block].mean(axis=0)
            got = np.bincount(cols[attr.name], minlength=attr.n_categories) / n
            assert np.max(np.abs(got - expected)) < 0.01


class TestGeneratePopulation:
    def test_draw_count_arithmetic(self, small_model):
        pop = sampling.generate_population(small_model, table_for(small_model, 0, 1), 3,
                                           seed=15)
        assert list(pop.columns) == [a.name for a in small_model.schema.attributes]
        assert all(len(col) == 6 for col in pop.columns.values())
        assert pop.columns["segment"].tolist() == [0] * 3 + [1] * 3

    def test_records_validate_against_schema(self, small_model):
        pop = sampling.generate_population(small_model, table_for(small_model, 0), 25,
                                           seed=16)
        for attr in small_model.schema.attributes:
            col = pop.columns[attr.name]
            assert col.dtype == np.int64 and col.shape == (25,)
            assert np.all((col >= 0) & (col < attr.n_categories))

    def test_per_profile_streams_invariant_to_batch_shape(self, small_model):
        """The same profile id and seed produce the same draws whether the
        profile is sampled alone or within a population call."""
        alone = sampling.sample(small_model, row_for(small_model), "0", 4, seed=17)
        both = sampling.generate_population(small_model, table_for(small_model, 0, 0), 4,
                                            seed=17)
        got = np.stack([both.columns[a.name][:4] for a in small_model.schema.preference_attributes],
                       axis=1)
        assert np.array_equal(got, alone.draws)

    def test_empty_profiles_rejected(self, small_model):
        with pytest.raises(ValueError):
            sampling.generate_population(small_model, table_for(small_model), 1, seed=18)

    def test_extrapolated_ids_from_time_column(self):
        """Raw time values outside the declared range flag their record."""
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("t", "time", "numerical", bin_edges=(0.0, 5.0)),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=2),
        ))
        records = [sm.Record((float(i % 5), i % 2, i % 2)) for i in range(40)]
        encoded = sm.encode(records, schema)
        config = cvae.CvaeConfig(hidden_layers=(4,), latent_dim=1, epochs=1, seed=21)
        model = cvae.train(encoded, config, encoded)
        source = sm.record_columns([sm.Record((t, 0, 0)) for t in (2.0, 5.0, -0.5, 4.99)],
                                   schema)
        pop = sampling.generate_population(model, source, 1, seed=22)
        assert pop.extrapolated_ids == ["1", "2"]

    def test_conditional_rows_match_encode(self, small_model, monkeypatch):
        """Each row is sampled under its row of encode_table(table).conditional,
        bit for bit, with its index as profile id; conditionals are copied."""
        table = oracle.generate_dataset(oracle.canned_spec("static-corr"), 5, seed=19)
        calls = []
        original = sampling.sample

        def spy(model, c_row, profile_id, *args, **kwargs):
            calls.append((profile_id, c_row.copy()))
            return original(model, c_row, profile_id, *args, **kwargs)

        monkeypatch.setattr(sampling, "sample", spy)
        pop = sampling.generate_population(small_model, table, 2, seed=20)
        expected = sm.encode_table(table, small_model.schema).conditional
        assert [pid for pid, _ in calls] == [str(i) for i in range(len(table["year"]))]
        assert np.array_equal(np.stack([row for _, row in calls]), expected)
        for attr in small_model.schema.conditional_attributes:
            assert np.array_equal(pop.columns[attr.name], np.repeat(table[attr.name], 2))

    def test_columns_equal_per_row_sample_draws(self):
        """Rows i*r .. (i+1)*r of the generated preference columns are row i's
        sample draws; a numerical preference takes its bin midpoint."""
        edges = (0.0, 0.3, 1.0, 7.0)
        schema = sm.Schema(attributes=(
            sm.AttributeSpec("t", "time", "numerical", bin_edges=(0.0, 2.5, 5.0)),
            sm.AttributeSpec("g", "socio", "categorical", cardinality=2),
            sm.AttributeSpec("p", "preference", "categorical", cardinality=3),
            sm.AttributeSpec("q", "preference", "numerical", bin_edges=edges),
        ))
        records = [sm.Record((0.5 * (i % 9), i % 2, i % 3, 0.7 * (i % 7))) for i in range(60)]
        encoded = sm.encode(records, schema)
        config = cvae.CvaeConfig(hidden_layers=(6,), latent_dim=2, epochs=2, seed=24)
        model = cvae.train(encoded, config, encoded)
        r, table = 3, sm.record_columns(records[:7], schema)
        pop = sampling.generate_population(model, table, r, seed=25)
        assert (pop.columns["p"].dtype, pop.columns["q"].dtype) == (np.int64, np.float64)
        midpoints = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
        for i in range(7):
            draws = sampling.sample(model, encoded.conditional[i], str(i), r, seed=25).draws
            rows = slice(i * r, (i + 1) * r)
            assert pop.columns["p"][rows].tolist() == draws[:, 0].tolist()
            assert pop.columns["q"][rows].tolist() == [midpoints[k] for k in draws[:, 1]]
            assert pop.columns["t"][rows].tolist() == [records[i].values[0]] * r
