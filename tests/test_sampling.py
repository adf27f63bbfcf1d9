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


def profile_for(model, **values):
    base = {"year": 0, "segment": 0}
    base.update(values)
    return sampling.ConditionProfile(id="ind-0", values=base)


class TestSample:
    def test_zero_draws_empty(self, small_model):
        draws = sampling.sample(small_model, profile_for(small_model), 0, seed=1)
        assert draws.draws == []

    def test_same_seed_identical(self, small_model):
        p = profile_for(small_model)
        a = sampling.sample(small_model, p, 20, seed=2)
        b = sampling.sample(small_model, p, 20, seed=2)
        assert a.draws == b.draws

    def test_draw_values_valid_categories(self, small_model):
        draws = sampling.sample(small_model, profile_for(small_model), 50, seed=3)
        for d in draws.draws:
            for attr in small_model.schema.preference_attributes:
                assert 0 <= d[attr.name] < attr.n_categories

    def test_argmax_mode_constant_given_z(self, small_model):
        p = profile_for(small_model)
        a = sampling.sample(small_model, p, 30, seed=4, decode_mode="argmax")
        b = sampling.sample(small_model, p, 30, seed=4, decode_mode="argmax")
        assert a.draws == b.draws
        # variation can only come through z, never through category noise
        c_row = sampling.encode_profile(p, small_model.schema, small_model.cond_layout)
        z = np.zeros((2, small_model.config.latent_dim))
        out = cvae.decode(small_model, z, np.tile(c_row, (2, 1)))
        assert np.array_equal(out[0], out[1])

    def test_profile_missing_attribute_rejected(self, small_model):
        bad = sampling.ConditionProfile(id="x", values={"year": 0})
        with pytest.raises(ValueError, match="missing value"):
            sampling.sample(small_model, bad, 1, seed=5)

    def test_profile_out_of_range_rejected(self, small_model):
        bad = profile_for(small_model, segment=17)
        with pytest.raises(ValueError, match="out of range"):
            sampling.sample(small_model, bad, 1, seed=6)

    def test_empirical_frequencies_match_decoder_probabilities(self, small_model):
        """Category frequencies over many draws converge to the softmax
        output at the 1/sqrt(N) rate; 0.01 absolute at N = 100k."""
        p = profile_for(small_model, segment=1)
        c_row = sampling.encode_profile(p, small_model.schema, small_model.cond_layout)
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
        profiles = [profile_for(small_model), profile_for(small_model, segment=1)]
        profiles[1] = sampling.ConditionProfile(id="ind-1", values=profiles[1].values)
        pop = sampling.generate_population(small_model, profiles, 3, seed=15)
        assert len(pop.records) == 6
        assert pop.profile_ids == ["ind-0"] * 3 + ["ind-1"] * 3

    def test_records_validate_against_schema(self, small_model):
        pop = sampling.generate_population(small_model, [profile_for(small_model)], 25, seed=16)
        for rec in pop.records:
            sm.validate_record(rec, small_model.schema)

    def test_per_profile_streams_invariant_to_batch_shape(self, small_model):
        """The same profile id and seed produce the same draws whether the
        profile is sampled alone or within a population call."""
        p0 = profile_for(small_model)
        alone = sampling.sample(small_model, p0, 4, seed=17)
        both = sampling.generate_population(
            small_model,
            [p0, sampling.ConditionProfile(id="other", values=p0.values)],
            4,
            seed=17,
        )
        pref_names = [a.name for a in small_model.schema.preference_attributes]
        for i in range(4):
            rec = both.records[i]
            got = {n: rec.values[small_model.schema.index_of(n)] for n in pref_names}
            assert got == alone.draws[i]

    def test_empty_profiles_rejected(self, small_model):
        with pytest.raises(ValueError):
            sampling.generate_population(small_model, [], 1, seed=18)


class TestProfiles:
    def test_profiles_from_records(self, small_model):
        schema = small_model.schema
        records = oracle.generate_dataset(oracle.canned_spec("static-corr"), 5, seed=19)
        profiles = sampling.profiles_from_records(records, schema)
        assert len(profiles) == 25  # 5 per year over 5 years
        assert set(profiles[0].values) == {"year", "segment"}

    def test_encode_profile_onehot(self, small_model):
        row = sampling.encode_profile(
            profile_for(small_model, segment=2), small_model.schema, small_model.cond_layout
        )
        assert row.sum() == 2.0  # one-hot year plus one-hot segment
        assert row[0] == 1.0  # year 0
