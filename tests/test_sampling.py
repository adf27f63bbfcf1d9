import numpy as np
import pytest

from superpanel import cvae, oracle, sampling
from superpanel import schema as sm
from superpanel.seeding import derive_rng


@pytest.fixture(scope="module")
def small_model():
    """Lightly trained model on the correlated stationary process."""
    spec = oracle.canned_spec("static-corr")
    records = oracle.generate_dataset(spec, 400, seed=51)
    encoded = sm.encode(records, spec.schema)
    idx_tr, idx_va = sm.split_indices(len(records), 0.8, seed=52)
    config = cvae.CvaeConfig(hidden_layers=(16,), latent_dim=3, beta=1.0,
                             batch_size=64, epochs=5, seed=53)
    return cvae.train(encoded.take(idx_tr), config, encoded.take(idx_va))


def row_for(model, **values):
    """The encoded conditional row of one profile (year 0, segment 0 by default)."""
    cols = {"year": 0, "segment": 0}
    cols.update(values)
    return sm.encode_columns({k: np.array([v]) for k, v in cols.items()},
                             model.cond_layout, model.schema)[0]


def records_for(model, *segments):
    """Year-0 records, one per segment, with every preference at category 0."""
    return [sm.Record(tuple(s if a.name == "segment" else 0 for a in model.schema.attributes))
            for s in segments]


class TestSample:
    def test_zero_draws_empty(self, small_model):
        draws = sampling.sample(small_model, row_for(small_model), "ind-0", 0, seed=1)
        assert draws.draws == []

    def test_same_seed_identical(self, small_model):
        c_row = row_for(small_model)
        a = sampling.sample(small_model, c_row, "ind-0", 20, seed=2)
        b = sampling.sample(small_model, c_row, "ind-0", 20, seed=2)
        assert a.draws == b.draws

    def test_draw_values_valid_categories(self, small_model):
        draws = sampling.sample(small_model, row_for(small_model), "ind-0", 50, seed=3)
        for d in draws.draws:
            for attr in small_model.schema.preference_attributes:
                assert 0 <= d[attr.name] < attr.n_categories

    def test_profile_out_of_range_rejected(self, small_model):
        with pytest.raises(ValueError, match="out of range"):
            sampling.generate_population(small_model, records_for(small_model, 17), 1, seed=6)

    def test_empirical_frequencies_match_decoder_probabilities(self, small_model):
        """Category frequencies over many draws converge to the softmax
        output at the 1/sqrt(N) rate; 0.01 absolute at N = 100k."""
        c_row = row_for(small_model, segment=1)
        n = 100_000
        cols = sampling.sample_preference_columns(small_model, c_row[None, :], n, seed=7)
        rng = derive_rng(7, "bulk-sample")
        eps = rng.standard_normal((n, small_model.config.latent_dim))
        dec = cvae.decode(small_model, eps, np.tile(c_row, (n, 1)))
        for block in small_model.pref_layout:
            expected = dec[:, block.start : block.start + block.width].mean(axis=0)
            got = np.bincount(cols[block.name], minlength=block.width) / n
            assert np.max(np.abs(got - expected)) < 0.01


class TestGeneratePopulation:
    def test_draw_count_arithmetic(self, small_model):
        pop = sampling.generate_population(small_model, records_for(small_model, 0, 1), 3,
                                           seed=15)
        assert len(pop.records) == 6
        seg = small_model.schema.index_of("segment")
        assert [rec.values[seg] for rec in pop.records] == [0] * 3 + [1] * 3

    def test_records_validate_against_schema(self, small_model):
        pop = sampling.generate_population(small_model, records_for(small_model, 0), 25,
                                           seed=16)
        for rec in pop.records:
            sm.validate_record(rec, small_model.schema)

    def test_per_profile_streams_invariant_to_batch_shape(self, small_model):
        """The same profile id and seed produce the same draws whether the
        profile is sampled alone or within a population call."""
        alone = sampling.sample(small_model, row_for(small_model), "0", 4, seed=17)
        both = sampling.generate_population(small_model, records_for(small_model, 0, 0), 4,
                                            seed=17)
        pref_names = [a.name for a in small_model.schema.preference_attributes]
        for i in range(4):
            rec = both.records[i]
            got = {n: rec.values[small_model.schema.index_of(n)] for n in pref_names}
            assert got == alone.draws[i]

    def test_empty_profiles_rejected(self, small_model):
        with pytest.raises(ValueError):
            sampling.generate_population(small_model, [], 1, seed=18)

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
        source = [sm.Record((t, 0, 0)) for t in (2.0, 5.0, -0.5, 4.99)]
        pop = sampling.generate_population(model, source, 1, seed=22)
        assert pop.extrapolated_ids == ["1", "2"]

    def test_conditional_rows_match_encode(self, small_model, monkeypatch):
        """Each record is sampled under its row of encode(records).conditional,
        bit for bit, with its index as profile id; conditionals are copied."""
        records = oracle.generate_dataset(oracle.canned_spec("static-corr"), 5, seed=19)
        calls = []
        original = sampling.sample

        def spy(model, c_row, profile_id, *args, **kwargs):
            calls.append((profile_id, c_row.copy()))
            return original(model, c_row, profile_id, *args, **kwargs)

        monkeypatch.setattr(sampling, "sample", spy)
        pop = sampling.generate_population(small_model, records, 2, seed=20)
        expected = sm.encode(records, small_model.schema).conditional
        assert [pid for pid, _ in calls] == [str(i) for i in range(len(records))]
        assert np.array_equal(np.stack([row for _, row in calls]), expected)
        cond = [i for i, a in enumerate(small_model.schema.attributes) if a.role != "preference"]
        for k, rec in enumerate(pop.records):
            assert [rec.values[i] for i in cond] == [records[k // 2].values[i] for i in cond]
