import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from superpanel import cvae, nn
from superpanel import schema as sm
from superpanel.seeding import derive_rng

from test_nn import numeric_gradients, assert_grads_close, nan_buffer
from test_schema import spans


def tiny_schema():
    """dim(V) = 6 as three one-hot blocks of width 2, the last over the bins
    of a numerical preference; dim(C) = 4."""
    return sm.Schema(attributes=(
        sm.AttributeSpec("c1", "socio", "categorical", cardinality=3),
        sm.AttributeSpec("c2", "socio", "categorical", cardinality=1),
        sm.AttributeSpec("p1", "preference", "categorical", cardinality=2),
        sm.AttributeSpec("p2", "preference", "categorical", cardinality=2),
        sm.AttributeSpec("p3", "preference", "numerical", bin_edges=(0.0, 0.5, 1.0)),
    ))


def tiny_encoded(n=5, seed=0):
    rng = derive_rng(seed, "tiny-data")
    records = [
        sm.Record((int(rng.integers(3)), 0, int(rng.integers(2)), int(rng.integers(2)),
                   float(rng.random())))
        for _ in range(n)
    ]
    return sm.encode(records, tiny_schema())


def tiny_model(config=None, data=None, seed=1):
    data = data if data is not None else tiny_encoded()
    config = config or cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.7,
                                       epochs=1, batch_size=4, seed=seed)
    encoder, decoder = cvae.build_networks(data.schema, config)
    return cvae.TrainedModel(
        encoder=encoder, decoder=decoder, config=config, schema=data.schema,
        training_history=[], best_epoch=-1,
    )


def model_loss(model, V, C, eps):
    """Batch (xent, kl) of a trained model with supplied eps draws."""
    return cvae.loss_and_grads(model.encoder, model.decoder, V, C, eps, model.config.beta)


def model_total(model, V, C, eps):
    """Batch objective xent + beta * kl, as training computes it."""
    xent, kl = model_loss(model, V, C, eps)
    return xent + model.config.beta * kl


class TestEncodeDecodeOps:
    def test_network_dimension_contract(self):
        data = tiny_encoded()
        model = tiny_model(data=data)
        d_z = model.config.latent_dim
        dim_c, dim_v = data.conditional.shape[1], data.preference.shape[1]
        assert model.encoder.in_dim == dim_v + dim_c
        assert model.encoder.out_dim == 2 * d_z
        assert model.decoder.in_dim == d_z + dim_c
        assert model.decoder.out_dim == dim_v

    def test_decode_blocks_are_distributions(self):
        model = tiny_model()
        rng = derive_rng(5, "dec")
        out = nn.forward(model.decoder, np.concatenate([rng.standard_normal(2),
                                                        rng.random(4)])[None, :])[0]
        for lo in (0, 2, 4):
            assert abs(out[lo : lo + 2].sum() - 1.0) < 1e-12

    def test_zero_decoder_uniform_blocks(self):
        model = tiny_model()
        for layer in model.decoder.layers:
            layer.weights[...] = 0.0
            layer.biases[...] = 0.0
        out = nn.forward(model.decoder, np.zeros((1, 6)))
        assert np.allclose(out, 1 / 2)


class TestKl:
    def test_prior_match_zero(self):
        assert cvae.kl_divergence(np.zeros(4), np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_mean_one(self):
        # kl = mu^2 / 2 when the variance is 1
        assert cvae.kl_divergence(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = derive_rng(13, "klpos")
        for _ in range(500):
            mu = rng.uniform(-2, 2, 3)
            log_var = rng.uniform(math.log(0.1), math.log(4.0), 3)
            kl = cvae.kl_divergence(mu, log_var)
            assert kl >= 0.0
            if abs(kl) < 1e-12:
                assert np.allclose(mu, 0, atol=1e-6) and np.allclose(log_var, 0, atol=1e-6)

    def test_matches_monte_carlo(self):
        """Closed form against a plain Monte Carlo average of log q - log p."""
        rng = derive_rng(17, "klmc")
        n = 1_000_000
        for _ in range(20):
            mu = float(rng.uniform(-2, 2))
            var = float(rng.uniform(0.1, 4.0))
            closed = cvae.kl_divergence(np.array([mu]), np.array([math.log(var)]))
            x = mu + math.sqrt(var) * rng.standard_normal(n)
            log_q = -0.5 * (math.log(2 * math.pi * var) + (x - mu) ** 2 / var)
            log_p = -0.5 * (math.log(2 * math.pi) + x ** 2)
            mc = float(np.mean(log_q - log_p))
            assert closed == pytest.approx(mc, abs=1e-2)


class TestLoss:
    def test_doubling_beta_doubles_kl_share(self):
        data = tiny_encoded(6)
        eps = derive_rng(23, "eps2").standard_normal((6, 2))
        model = tiny_model(data=data)
        xent1, kl1 = cvae.loss_and_grads(model.encoder, model.decoder, data.preference,
                                         data.conditional, eps, 1.0)
        xent2, kl2 = cvae.loss_and_grads(model.encoder, model.decoder, data.preference,
                                         data.conditional, eps, 2.0)
        assert kl1 >= 0 and xent1 >= 0
        assert (xent2 + 2.0 * kl2 - xent2) == pytest.approx(2 * (xent1 + 1.0 * kl1 - xent1),
                                                            rel=1e-12)

    def test_perfect_categorical_reconstruction_zero_xent(self):
        # drive every softmax block to (almost) the one-hot target
        data = tiny_encoded(1)
        model = tiny_model(data=data)
        target = data.preference[0]
        for layer in model.decoder.layers:
            layer.weights[...] = 0.0
            layer.biases[...] = 0.0
        final = model.decoder.layers[-1]
        for _, cols in spans(model.schema.preference_attributes):
            idx = int(np.argmax(target[cols]))
            final.biases[cols.start + idx] = 500.0  # softmax saturates to 1
        eps = np.zeros((1, 2))
        xent, _ = model_loss(model, data.preference[:1], data.conditional[:1], eps)
        assert xent == pytest.approx(0.0, abs=1e-9)

    def test_empty_batch_rejected(self):
        data = tiny_encoded(2)
        model = tiny_model(data=data)
        with pytest.raises(ValueError, match="empty batch"):
            model_loss(model, np.zeros((0, 6)), np.zeros((0, 4)), np.zeros((0, 2)))


class TestFullGradient:
    def test_composite_loss_gradients_vs_finite_differences(self):
        """Every encoder and decoder parameter, fixed eps draws; the rows fill
        both bins of the numerical preference p3."""
        data = tiny_encoded(5, seed=2)
        attr, p3 = next(s for s in spans(data.schema.preference_attributes) if s[0].name == "p3")
        assert attr.kind == "numerical" and attr.n_categories >= 2
        assert np.all(data.preference[:, p3].sum(axis=0) > 0)
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.7,
                                 epochs=1, seed=3)
        encoder, decoder = cvae.build_networks(data.schema, config)
        eps = derive_rng(29, "fixed-eps").standard_normal((5, 2))

        def loss_fn():
            xent, kl = cvae.loss_and_grads(encoder, decoder, data.preference,
                                           data.conditional, eps, config.beta)
            return xent + config.beta * kl

        grads = nan_buffer([encoder, decoder])
        cvae.loss_and_grads(encoder, decoder, data.preference, data.conditional, eps,
                            config.beta, nn.views([encoder, decoder], grads))
        arrays = encoder.parameters() + decoder.parameters()
        numeric = numeric_gradients(loss_fn, arrays)
        assert_grads_close([grads], [np.concatenate([g.ravel() for g in numeric])])

    def test_grads_buffer_overwritten_not_accumulated(self):
        """Every entry of a NaN-filled buffer is written; a second call writes the
        same bits; without a buffer the loss terms are the same and nothing is written."""
        data = tiny_encoded(5, seed=2)
        model = tiny_model(data=data)
        eps = derive_rng(31, "grads-contract").standard_normal((5, 2))
        args = (model.encoder, model.decoder, data.preference, data.conditional, eps,
                model.config.beta)
        grads = nan_buffer([model.encoder, model.decoder])
        views = nn.views([model.encoder, model.decoder], grads)
        terms = cvae.loss_and_grads(*args, views)
        assert not np.isnan(grads).any()
        first = grads.copy()
        assert cvae.loss_and_grads(*args, views) == terms
        assert np.array_equal(grads, first)
        assert cvae.loss_and_grads(*args) == terms
        assert np.array_equal(grads, first)


class TestValidationPass:
    """The no-gradient pass of loss_and_grads keeps no layer outputs."""

    ROWS, HIDDEN = 4000, (64, 32)

    def setup_method(self):
        self.data = tiny_encoded(self.ROWS, seed=5)
        config = cvae.CvaeConfig(hidden_layers=self.HIDDEN, latent_dim=2, seed=4)
        self.model = tiny_model(config=config, data=self.data)
        self.eps = derive_rng(37, "val-pass").standard_normal((self.ROWS, 2))

    def networks(self):
        return [self.model.encoder, self.model.decoder]

    def loss(self, grads=None):
        return cvae.loss_and_grads(self.model.encoder, self.model.decoder, self.data.preference,
                                   self.data.conditional, self.eps, self.model.config.beta, grads)

    def peak_bytes(self, grads=None):
        tracemalloc.start()
        try:
            self.loss(grads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_terms_bit_identical_to_gradient_pass(self):
        grads = nan_buffer([self.model.encoder, self.model.decoder])
        with_grads = self.loss(nn.views([self.model.encoder, self.model.decoder], grads))
        assert self.loss() == with_grads

    def test_peak_below_gradient_pass_by_encoder_hidden_outputs(self):
        """The gradient pass holds every layer output for backward; the
        validation pass peaks below it by at least the encoder's hidden
        outputs, and below the bytes of all layer outputs held at once."""
        grads = nn.views(self.networks(), nan_buffer(self.networks()))
        free, gradient = self.peak_bytes(), self.peak_bytes(grads)
        encoder_hidden = self.ROWS * sum(self.HIDDEN) * 8
        every_output = self.ROWS * 8 * sum(layer.out_dim for net in self.networks()
                                           for layer in net.layers)
        assert gradient - free >= encoder_hidden, (gradient, free)
        assert free < every_output, (free, every_output)


class TestTrain:
    def test_toy_set_overfits(self):
        data = tiny_encoded(50, seed=4)
        config = cvae.CvaeConfig(hidden_layers=(32,), latent_dim=4, beta=0.05,
                                 batch_size=4, epochs=50, seed=5)
        model = cvae.train(data, config, data)
        first = model.training_history[0][0]
        last = model.training_history[-1][0]
        assert last <= 0.5 * first, (first, last)

    def test_same_seed_identical_history(self):
        data = tiny_encoded(30, seed=6)
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.5,
                                 batch_size=8, epochs=5, seed=7)
        h1 = cvae.train(data, config, data).training_history
        h2 = cvae.train(data, config, data).training_history
        assert h1 == h2

    def test_defaults_match_protocol(self):
        config = cvae.CvaeConfig()
        assert config.batch_size == 64 and config.epochs == 50
        assert config.learning_rate == 0.001 and config.rho == 0.9

    def test_checkpoint_restore_minimum_val(self):
        data = tiny_encoded(40, seed=8)
        val = tiny_encoded(12, seed=9)
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.5,
                                 batch_size=8, epochs=12, seed=10)
        model = cvae.train(data, config, val)
        val_losses = [v for _, v in model.training_history]
        assert model.best_epoch == int(np.argmin(val_losses))
        # recompute with the same fixed validation eps used during training
        val_eps = derive_rng(config.seed, "val-eps").standard_normal((val.n_rows, 2))
        recomputed = model_total(model, val.preference, val.conditional, val_eps) / val.n_rows
        assert recomputed == pytest.approx(min(val_losses), rel=1e-12)

    def test_divergence_reported_with_epoch(self):
        data = tiny_encoded(20, seed=11)
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.5,
                                 learning_rate=1e9, batch_size=8, epochs=3, seed=12)
        with pytest.raises(cvae.TrainingDiverged, match="epoch"):
            cvae.train(data, config, data)


def reference_train(dataset, config, val_set):
    """The one-model training loop that train_stack replaced, on take copies,
    kept as the reference its fits must equal bit for bit."""
    encoder, decoder = cvae.build_networks(dataset.schema, config)
    params = nn.pack([encoder, decoder])
    grads = np.empty_like(params)
    grad_views = nn.views([encoder, decoder], grads)
    state = nn.OptimizerState(np.zeros_like(params), config.learning_rate, config.rho,
                              config.epsilon)
    rng = derive_rng(config.seed, "train-loop")
    val_eps = derive_rng(config.seed, "val-eps").standard_normal((val_set.n_rows,
                                                                  config.latent_dim))
    n, history, best_val, best_epoch, best_params = dataset.n_rows, [], np.inf, -1, None
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            eps = rng.standard_normal((len(idx), config.latent_dim))
            xent, kl = cvae.loss_and_grads(encoder, decoder, dataset.preference[idx],
                                           dataset.conditional[idx], eps, config.beta,
                                           grad_views)
            epoch_total += xent + config.beta * kl
            nn.rmsprop_step(params, grads, state)
        xent, kl = cvae.loss_and_grads(encoder, decoder, val_set.preference,
                                       val_set.conditional, val_eps, config.beta)
        val_loss = (xent + config.beta * kl) / val_set.n_rows
        history.append((epoch_total / n, val_loss))
        if val_loss < best_val:
            best_val, best_epoch, best_params = val_loss, epoch, params.copy()
    params[...] = best_params
    return encoder, decoder, history, best_epoch


def assert_same_fit(model, encoder, decoder, history, best_epoch):
    for net, want in ((model.encoder, encoder), (model.decoder, decoder)):
        for a, b in zip(net.parameters(), want.parameters()):
            assert np.array_equal(a, b)
    assert model.training_history == history and model.best_epoch == best_epoch


def stack_setup(k):
    """One 60-row encoding, k configs differing in seed, and per model a
    different resample of 37 training rows (a partial last batch of 5) and
    11 validation rows."""
    data = tiny_encoded(60, seed=21)
    base = cvae.CvaeConfig(hidden_layers=(8, 6), latent_dim=2, beta=0.7, batch_size=8,
                           epochs=4, learning_rate=0.01)
    configs = [replace(base, seed=100 + j) for j in range(k)]
    draws = [derive_rng(22, "stack-rows", j).integers(0, 60, size=48) for j in range(k)]
    return data, configs, [d[:37] for d in draws], [d[37:] for d in draws]


class TestTrainStack:
    def test_train_equals_reference_loop(self):
        data, (config,), (rows,), (val_rows,) = stack_setup(1)
        model = cvae.train(data, config, data, rows=rows, val_rows=val_rows)
        assert_same_fit(model, *reference_train(data.take(rows), config, data.take(val_rows)))
        assert_same_fit(cvae.train(data.take(rows), config, data.take(val_rows)),
                        *reference_train(data.take(rows), config, data.take(val_rows)))

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_stacked_fits_equal_solo_fits(self, k):
        data, configs, rows, val_rows = stack_setup(k)
        fits = cvae.train_stack(data, configs, rows, val_rows)
        assert len(fits) == k
        for fit, config, r, v in zip(fits, configs, rows, val_rows):
            solo = cvae.train(data, config, data, rows=r, val_rows=v)
            assert_same_fit(fit, solo.encoder, solo.decoder, solo.training_history,
                            solo.best_epoch)

    def test_nan_weights_diverge_alone(self, monkeypatch):
        data, configs, rows, val_rows = stack_setup(3)
        solo = [cvae.train(data, c, data, rows=r, val_rows=v)
                for c, r, v in zip(configs, rows, val_rows)]
        build = cvae.build_networks

        def nan_second(schema, config):
            encoder, decoder = build(schema, config)
            if config.seed == configs[1].seed:
                encoder.layers[0].weights[...] = np.nan
            return encoder, decoder

        steps = []
        step = nn.rmsprop_step
        monkeypatch.setattr(cvae, "build_networks", nan_second)
        monkeypatch.setattr(nn, "rmsprop_step", lambda *a: steps.append(1) or step(*a))
        fits = cvae.train_stack(data, configs, rows, val_rows)
        # its first batch loss is NaN, so it never steps: 4 epochs x 5 batches for the others
        assert isinstance(fits[1], cvae.TrainingDiverged) and fits[1].epoch == 0
        assert "validation" not in str(fits[1]) and len(steps) == 2 * 4 * 5
        for j in (0, 2):
            assert_same_fit(fits[j], solo[j].encoder, solo[j].decoder,
                            solo[j].training_history, solo[j].best_epoch)

    def test_configs_differing_beyond_seed_refused(self):
        data, configs, rows, val_rows = stack_setup(2)
        configs[1] = replace(configs[1], beta=0.5)
        with pytest.raises(ValueError, match="only in seed"):
            cvae.train_stack(data, configs, rows, val_rows)

    def test_row_counts_must_match(self):
        data, configs, rows, val_rows = stack_setup(2)
        with pytest.raises(ValueError, match="one row count"):
            cvae.train_stack(data, configs, [rows[0], rows[1][:30]], val_rows)

    def test_stack_size_bounds_the_widest_input_or_output(self):
        """The encoder's input, 6 + 4 wide, is the widest array a step of
        tiny_schema's model allocates afresh; hidden widths do not count, a
        latent width does (the encoder's output is twice as wide)."""
        config = cvae.CvaeConfig(hidden_layers=(32, 16), latent_dim=3, batch_size=64)
        k = cvae.stack_size(tiny_schema(), config)
        assert k * 64 * 10 < cvae.STACK_FLOATS <= (k + 1) * 64 * 10
        assert cvae.stack_size(tiny_schema(), replace(config, hidden_layers=(20_000,))) == k
        assert cvae.stack_size(tiny_schema(), replace(config, latent_dim=4_096)) == 1


class TestGridSearch:
    def test_cell_count_matches_protocol_grid(self):
        grid = cvae.GridSpec()
        assert len(grid.cells()) == 180

    def test_hidden_widths_halve(self):
        cfg = cvae.grid_cell_config(cvae.CvaeConfig(), 3, 200, 5, 0.5, seed=0)
        assert cfg.hidden_layers == (200, 100, 50)

    def test_cell_keeps_base_fields(self):
        base = cvae.CvaeConfig(learning_rate=0.01, batch_size=8, epochs=3, seed=1)
        cfg = cvae.grid_cell_config(base, 2, 8, 3, 1.0, seed=2)
        assert cfg == cvae.CvaeConfig(hidden_layers=(8, 4), latent_dim=3, beta=1.0,
                                      learning_rate=0.01, batch_size=8, epochs=3, seed=2)

    def test_zero_width_cell_fails(self):
        with pytest.raises(ValueError, match="collapsed to zero"):
            cvae.grid_cell_config(cvae.CvaeConfig(), 3, 2, 5, 0.5, seed=0)

    def test_single_point_grid_returns_it(self):
        data = tiny_encoded(40, seed=13)
        val = tiny_encoded(10, seed=14)
        grid = cvae.GridSpec(n_layers=(1,), n_neurons=(8,), latent_dims=(2,), betas=(0.5,))
        best, leaderboard = cvae.grid_search(
            data, val, grid, [("p1", "p2")], seed=15,
            base=cvae.CvaeConfig(epochs=3, batch_size=8),
        )
        assert best.hidden_layers == (8,) and best.latent_dim == 2 and best.epochs == 3
        assert len(leaderboard) == 1 and not leaderboard[0].diverged

    def test_all_cells_diverged_is_an_error(self):
        data = tiny_encoded(30, seed=21)
        grid = cvae.GridSpec(n_layers=(1,), n_neurons=(8,), latent_dims=(2,), betas=(0.5,))
        with pytest.raises(cvae.TrainingDiverged, match="every grid cell"):
            cvae.grid_search(
                data, data, grid, [("p1",)], seed=22,
                base=cvae.CvaeConfig(epochs=2, batch_size=8, learning_rate=1e9),
            )

    def test_winner_minimizes_leaderboard(self):
        data = tiny_encoded(60, seed=16)
        val = tiny_encoded(15, seed=17)
        grid = cvae.GridSpec(n_layers=(1,), n_neurons=(4, 8), latent_dims=(2,), betas=(0.5, 1.0))
        best, leaderboard = cvae.grid_search(
            data, val, grid, [("p1", "p2")], seed=18,
            base=cvae.CvaeConfig(epochs=2, batch_size=16),
        )
        survivors = [r for r in leaderboard if not r.diverged]
        best_row = min(survivors, key=lambda r: (r.mean_srmse, r.cell))
        assert best_row.mean_srmse <= min(r.mean_srmse for r in survivors)
        assert (best.latent_dim, best.beta) == (best_row.latent_dim, best_row.beta)


class TestConfig:
    @pytest.mark.parametrize("hidden", [(0,), (8, 0)])
    def test_hidden_width_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden_layers"):
            cvae.CvaeConfig(hidden_layers=hidden)

    @pytest.mark.parametrize("rate", [0.0, -0.01])
    def test_nonpositive_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            cvae.CvaeConfig(learning_rate=rate)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.7), ("latent_dim", 1.5), ("batch_size", 64.5), ("seed", -0.5),
        ("hidden_layers", (16, 8.5)),
    ])
    def test_fractional_int_field_rejected(self, field, value):
        """int() would truncate 2.7 epochs to 2."""
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            cvae.CvaeConfig(**{field: value})

    def test_fields_coerced_to_declared_types(self):
        cfg = cvae.CvaeConfig(hidden_layers=[16, 8.0], latent_dim=2.0, beta=5, learning_rate=1,
                              rho=1, epsilon=0, batch_size="32", epochs=3.0, seed=True)
        assert cfg.hidden_layers == (16, 8) and type(cfg.hidden_layers[1]) is int
        assert [type(getattr(cfg, n)) for n in ("latent_dim", "batch_size", "epochs", "seed")] \
            == [int] * 4
        assert [type(getattr(cfg, n)) for n in ("beta", "learning_rate", "rho", "epsilon")] \
            == [float] * 4
        assert cfg == cvae.CvaeConfig(hidden_layers=(16, 8), latent_dim=2, beta=5.0,
                                      learning_rate=1.0, rho=1.0, epsilon=0.0, batch_size=32,
                                      epochs=3, seed=1)


class TestSerialization:
    def test_roundtrip_bitexact(self, tmp_path):
        data = tiny_encoded(20, seed=19)
        config = cvae.CvaeConfig(hidden_layers=(8,), latent_dim=2, beta=0.5,
                                 batch_size=8, epochs=2, seed=20)
        model = cvae.train(data, config, data)
        path = tmp_path / "model.json"
        cvae.save_model(model, path)
        back = cvae.load_model(path)
        for a, b in zip(model.encoder.parameters() + model.decoder.parameters(),
                        back.encoder.parameters() + back.decoder.parameters()):
            assert np.array_equal(a, b)
        assert back.config == model.config
        assert back.training_history == model.training_history
        v, c = data.preference[:3], data.conditional[:3]
        eps = np.zeros((3, 2))
        assert model_total(back, v, c, eps) == model_total(model, v, c, eps)

    def test_hidden_widths_checked_against_config(self, tmp_path):
        """A file whose config states hidden widths (4, 8) for layers built at
        (8, 4) fails naming the encoder, the first network checked."""
        config = cvae.CvaeConfig(hidden_layers=(8, 4), latent_dim=2, epochs=1, seed=21)
        path = tmp_path / "model.json"
        cvae.save_model(tiny_model(config=config), path)
        payload = json.loads(path.read_text())
        payload["config"]["hidden_layers"] = [4, 8]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'encoder' network has layer widths"):
            cvae.load_model(path)
