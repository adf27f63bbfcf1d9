import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superpanel import nn
from superpanel.seeding import derive_rng


# ---------------------------------------------------------------------------
# Finite-difference oracle


def numeric_gradients(loss_fn, arrays, h=1e-5):
    """Central differences of a scalar function over a list of arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = loss_fn()
            arr[idx] = orig - h
            f_minus = loss_fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-8, abs_tol=1e-7):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        assert not np.isnan(a).any(), "an analytic gradient entry was never written"
        for av, nv in zip(a.ravel(), n.ravel()):
            if abs(av) < abs_floor and abs(nv) < abs_floor:
                assert abs(av - nv) < abs_tol
            else:
                rel = abs(av - nv) / max(abs(av), abs(nv))
                worst = max(worst, rel)
    assert worst < rel_tol, f"worst relative gradient error {worst}"


def tiny_net(dims, seed=0, output_blocks=None):
    return nn.init_weights(dims, seed=seed, head_blocks=output_blocks)


def nan_buffer(networks):
    """A NaN-filled gradient buffer laid out as nn.pack(networks) lays out the parameters."""
    return np.full(sum(p.size for net in networks for p in net.parameters()), np.nan)


def forward_outputs(net, x):
    """forward writing into nn.step_buffers' layer outputs: (output, layer outputs)."""
    outputs, _ = nn.step_buffers(net, x.shape[:-1])
    return nn.forward(net, x, out=outputs), outputs


def run_backward(net, x, outputs, output_gradient):
    """backward into a fresh buffer: (flat gradient buffer, (weight views, bias views),
    input gradient)."""
    buffer = nan_buffer([net])
    (grads,) = nn.views([net], buffer)
    return buffer, grads, nn.backward(net, x, outputs, output_gradient, grads)


SOFTMAX_HEAD = (3, 2, 2)  # segment widths


class TestForward:
    def test_zero_network_tanh_zero_output(self):
        layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "tanh")
        net = nn.Network([layer])
        y = nn.forward(net, np.array([1.0, -2.0]))
        assert np.all(y == 0.0)

    def test_identity_linear(self):
        layer = nn.DenseLayer(np.eye(4), np.zeros(4), "linear")
        net = nn.Network([layer])
        x = np.array([0.5, -1.0, 2.0, 0.0])
        y = nn.forward(net, x)
        assert np.array_equal(y, x)

    def test_hand_matrix_arithmetic(self):
        layer = nn.DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]),
                              np.array([0.5, -0.5]), "linear")
        y = nn.forward(nn.Network([layer]), np.array([1.0, 1.0]))
        assert np.allclose(y, [3.5, 6.5])

    def test_dimension_mismatch(self):
        net = tiny_net([3, 2])
        with pytest.raises(nn.DimensionError):
            nn.forward(net, np.zeros(4))

    def test_batch_matches_per_row(self):
        net = tiny_net([4, 5, 3], seed=2)
        x = derive_rng(0, "batch").standard_normal((6, 4))
        batch_y = nn.forward(net, x)
        for i in range(6):
            row_y = nn.forward(net, x[i])
            assert np.allclose(batch_y[i], row_y)

    def test_deterministic(self):
        net = tiny_net([3, 3], seed=5)
        x = np.array([0.1, 0.2, 0.3])
        a = nn.forward(net, x)
        b = nn.forward(net, x)
        assert np.array_equal(a, b)

    def test_input_untouched_and_repeatable_through_in_place_layers(self):
        net = tiny_net([4, 6, 5, 7], seed=6, output_blocks=SOFTMAX_HEAD)
        x = derive_rng(3, "in-place").standard_normal((9, 4))
        before = x.copy()
        a, outputs = forward_outputs(net, x)
        b = nn.forward(net, x)
        assert np.array_equal(x, before)
        assert np.array_equal(a, b)
        assert outputs[-1] is a

    def test_out_buffers_bit_identical_and_reused(self):
        """Layer outputs written into given arrays equal the allocating pass bit
        for bit, also when the arrays are views of larger ones holding stale values."""
        net = tiny_net([4, 6, 5, 7], seed=8, output_blocks=SOFTMAX_HEAD)
        x = derive_rng(5, "out-buffers").standard_normal((9, 4))
        fresh = nn.forward(net, x)
        bufs = [np.full((12, layer.out_dim), np.nan) for layer in net.layers]
        for _ in range(2):
            got = nn.forward(net, x, out=[b[:9] for b in bufs])
            assert np.shares_memory(got, bufs[-1])
            assert np.array_equal(got, fresh)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        assert np.allclose(nn.softmax(np.zeros(3)), [1 / 3] * 3)

    def test_direct_evaluation(self):
        v = np.log([1.0, 2.0, 3.0])
        assert np.allclose(nn.softmax(v), [1 / 6, 2 / 6, 3 / 6])

    def test_sums_to_one_within_tolerance(self):
        rng = derive_rng(1, "sm")
        for _ in range(200):
            p = nn.softmax(rng.standard_normal(int(rng.integers(1, 12))) * 10)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=100)
    def test_shift_invariance(self, values, c):
        v = np.array(values)
        assert np.allclose(nn.softmax(v + c), nn.softmax(v), atol=1e-12)

    def test_extreme_logits_stable(self):
        p = nn.softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


class TestSoftmaxBlocksHead:
    """The segment-reduction head against nn.softmax applied block by block."""

    @staticmethod
    def head():
        # identity weights and zero biases: the layer's output is the head of x
        return nn.Network([nn.DenseLayer(np.eye(7), np.zeros(7), "softmax_blocks",
                                         blocks=SOFTMAX_HEAD)])

    @staticmethod
    def reference(x):
        return np.concatenate([nn.softmax(x[..., 0:3]), nn.softmax(x[..., 3:5]),
                               nn.softmax(x[..., 5:7])], axis=-1)

    @staticmethod
    def reference_backward(p, g):
        out = g.copy()
        for lo, hi in ((0, 3), (3, 5), (5, 7)):
            pb, gb = p[..., lo:hi], g[..., lo:hi]
            out[..., lo:hi] = pb * (gb - np.sum(gb * pb, axis=-1, keepdims=True))
        return out

    @pytest.mark.parametrize("shape", [(40, 7), (1, 7)])
    def test_forward_and_backward_match_per_block(self, shape):
        rng = derive_rng(31, "head", len(shape))
        x = rng.standard_normal(shape) * 10
        g = rng.standard_normal(shape)
        net = self.head()
        y, outputs = forward_outputs(net, x)
        assert y.shape == shape
        assert np.allclose(y, self.reference(x), rtol=0, atol=1e-15)
        _, _, input_grad = run_backward(net, x, outputs, g)
        assert np.allclose(input_grad, self.reference_backward(y, g), rtol=0, atol=1e-15)


class TestBackward:
    def test_zero_output_gradient(self):
        net = tiny_net([3, 4, 2], seed=3)
        x = np.array([[0.3, -0.2, 0.9]])
        _, outputs = forward_outputs(net, x)
        buffer, _, _ = run_backward(net, x, outputs, np.zeros((1, 2)))
        assert np.all(buffer == 0.0)

    def test_textbook_linear_layer(self):
        # loss = 0.5 ||y - t||^2 for a single linear layer: dL/dW = (y - t) x^T
        w = np.array([[0.5, -1.0], [2.0, 0.25]])
        layer = nn.DenseLayer(w.copy(), np.array([0.1, -0.1]), "linear")
        net = nn.Network([layer])
        x = np.array([[1.5, -0.5]])
        t = np.array([[1.0, 0.0]])
        y, outputs = forward_outputs(net, x)
        _, (weight_grads, bias_grads), _ = run_backward(net, x, outputs, y - t)
        assert np.allclose(weight_grads[0], np.outer(y - t, x))
        assert np.allclose(bias_grads[0], (y - t)[0])

    def test_random_tanh_net_vs_finite_differences(self):
        net = tiny_net([8, 6, 4], seed=11)
        rng = derive_rng(7, "fd")
        x = rng.standard_normal(8)[None, :]
        t = rng.standard_normal(4)[None, :]

        def loss_fn():
            y = nn.forward(net, x)
            return 0.5 * float(np.sum((y - t) ** 2))

        y, outputs = forward_outputs(net, x)
        analytic, _, _ = run_backward(net, x, outputs, y - t)
        numeric = numeric_gradients(loss_fn, net.parameters())
        assert_grads_close([analytic], [np.concatenate([g.ravel() for g in numeric])])

    def test_softmax_blocks_head_vs_finite_differences(self):
        net = nn.init_weights([5, 6, 7], seed=13, head_blocks=SOFTMAX_HEAD)
        rng = derive_rng(19, "fd2")
        x = rng.standard_normal(5)[None, :]
        target = np.zeros((1, 7))
        target[0, [1, 4, 5]] = 1.0  # one-hot in each block

        def loss_fn():
            y = nn.forward(net, x)
            return -float(np.sum(target * np.log(y)))

        y, outputs = forward_outputs(net, x)
        grad_out = -target / y
        analytic, _, _ = run_backward(net, x, outputs, grad_out)
        numeric = numeric_gradients(loss_fn, net.parameters())
        assert_grads_close([analytic], [np.concatenate([g.ravel() for g in numeric])])

    def test_batched_gradients_sum_of_rows(self):
        net = tiny_net([4, 3], seed=17)
        rng = derive_rng(23, "sum")
        x = rng.standard_normal((5, 4))
        g_out = rng.standard_normal((5, 3))
        _, outputs = forward_outputs(net, x)
        _, (batched_w, batched_b), _ = run_backward(net, x, outputs, g_out)
        summed_w = np.zeros_like(net.layers[0].weights)
        summed_b = np.zeros_like(net.layers[0].biases)
        for i in range(5):
            _, outputs_i = forward_outputs(net, x[i : i + 1])
            _, (w, b), _ = run_backward(net, x[i : i + 1], outputs_i, g_out[i : i + 1])
            summed_w += w[0]
            summed_b += b[0]
        assert np.allclose(batched_w[0], summed_w)
        assert np.allclose(batched_b[0], summed_b)


class TestPacking:
    def test_pack_makes_views_of_one_buffer(self):
        nets = [tiny_net([5, 4, 6], seed=1), tiny_net([3, 4, 7], seed=2, output_blocks=SOFTMAX_HEAD)]
        before = [p.copy() for net in nets for p in net.parameters()]
        flat = nn.pack(nets)
        after = [p for net in nets for p in net.parameters()]
        assert flat.flags.c_contiguous and flat.dtype == np.float64
        assert flat.size == sum(p.size for p in before)
        for old, new in zip(before, after):
            assert np.shares_memory(new, flat)
            assert np.array_equal(old, new)
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in before]))

    def test_backward_writes_into_gradient_views(self):
        net = tiny_net([5, 4, 7], seed=4, output_blocks=SOFTMAX_HEAD)
        nn.pack([net])
        rng = derive_rng(37, "views")
        x, g = rng.standard_normal((6, 5)), rng.standard_normal((6, 7))
        _, outputs = forward_outputs(net, x)
        buffer = nan_buffer([net])
        (views,) = nn.views([net], buffer)
        assert nn.backward(net, x, outputs, g, views, input_grad=False) is None
        again, _, input_grad = run_backward(net, x, outputs, g)
        assert input_grad.shape == x.shape
        for a in views[0] + views[1]:
            assert np.shares_memory(a, buffer)
        assert not np.isnan(buffer).any()
        assert np.array_equal(buffer, again)
        assert np.array_equal(buffer, np.concatenate(
            [a.ravel() for w, b in zip(*views) for a in (w, b)]))

    @pytest.mark.parametrize("k", [1, 3])
    def test_stack_slices_bit_identical_to_each_network_alone(self, k):
        """A stack bound to a (K, P) buffer runs forward and backward on a
        (K, rows, in) batch; slice k equals network k run alone, bit for bit,
        and its gradients land in row k laid out as pack lays it out."""
        shapes = [([5, 6, 4], None), ([3, 6, 7], SOFTMAX_HEAD)]
        alone = [[tiny_net(dims, seed=10 * j + i, output_blocks=heads)
                  for i, (dims, heads) in enumerate(shapes)] for j in range(k)]
        buffer = np.empty((k, nn.parameter_count(alone[0])))
        for nets, row in zip(alone, buffer):
            nn.pack(nets, out=row)
        stacked = nn.bind(alone[0], buffer)
        assert stacked[0].layers[0].weights.shape == (k, 6, 5)
        assert all(np.shares_memory(p, buffer) for net in stacked for p in net.parameters())
        rng = derive_rng(43, "stack")
        grads = np.full_like(buffer, np.nan)
        for i, (dims, _) in enumerate(shapes):
            x = rng.standard_normal((k, 9, dims[0]))
            g = rng.standard_normal((k, 9, dims[-1]))
            y, outputs = forward_outputs(stacked[i], x)
            input_grad = nn.backward(stacked[i], x, outputs, g, nn.views(alone[0], grads)[i])
            for j in range(k):
                y_j, outputs_j = forward_outputs(alone[j][i], x[j])
                _, (w_j, b_j), input_grad_j = run_backward(alone[j][i], x[j], outputs_j, g[j])
                w, b = nn.views(alone[0], grads[j])[i]
                assert np.array_equal(y[j], y_j)
                assert np.array_equal(input_grad[j], input_grad_j)
                assert all(np.array_equal(a, c) for a, c in zip(w + b, w_j + b_j))
        assert not np.isnan(grads).any()

    def test_step_buffers_hold_a_step_bit_identical_to_fresh_arrays(self):
        """forward and backward writing into one set of step_buffers give the
        outputs and gradients of fresh buffers bit for bit, twice over the same
        buffers, and a batch of fewer rows uses their first rows."""
        net = tiny_net([5, 6, 4, 7], seed=9, output_blocks=SOFTMAX_HEAD)
        outs, pairs = nn.step_buffers(net, (8,))
        rng = derive_rng(47, "step-buffers")
        for rows in (8, 8, 5):
            x, g = rng.standard_normal((rows, 5)), rng.standard_normal((rows, 7))
            y, outputs = forward_outputs(net, x)
            fresh, _, input_grad = run_backward(net, x, outputs, g)
            cut = [a[:rows] for a in outs]
            nn.forward(net, x, out=cut)
            buffer = nan_buffer([net])
            (views,) = nn.views([net], buffer)
            got = nn.backward(net, x, cut, g, views,
                              out=[(a[:rows], c[:rows]) for a, c in pairs])
            assert np.array_equal(cut[-1], y) and np.array_equal(buffer, fresh)
            assert np.array_equal(got, input_grad) and np.shares_memory(got, pairs[0][1])

    def test_rmsprop_on_flat_buffer_equals_per_array_reference(self):
        nets = [tiny_net([5, 4, 2], seed=5), tiny_net([3, 4, 7], seed=6, output_blocks=SOFTMAX_HEAD)]
        flat = nn.pack(nets)
        views = [p for net in nets for p in net.parameters()]
        ref_params = [p.copy() for p in views]
        ref_acc = [np.zeros_like(p) for p in views]
        state = nn.OptimizerState(np.zeros_like(flat), learning_rate=0.01, rho=0.8, epsilon=1e-7)
        rng = derive_rng(41, "flat-rms")
        for _ in range(5):
            grads = rng.standard_normal(flat.size)
            nn.rmsprop_step(flat, grads, state)
            offset = 0
            for p, a in zip(ref_params, ref_acc):
                g = grads[offset : offset + p.size].reshape(p.shape)
                offset += p.size
                a *= 0.8
                a += (1.0 - 0.8) * g * g
                p -= 0.01 * g / np.sqrt(a + 1e-7)
        for view, ref in zip(views, ref_params):
            assert np.array_equal(view, ref)
        assert np.array_equal(state.accumulator,
                              np.concatenate([a.ravel() for a in ref_acc]))


class TestRmsprop:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = nn.OptimizerState(np.full(2, 0.5), learning_rate=0.001, rho=0.9, epsilon=1e-8)
        nn.rmsprop_step(params, np.zeros(2), state)
        assert np.array_equal(params, [1.0, -2.0])
        assert np.allclose(state.accumulator, 0.45)  # decayed by rho

    def test_first_step_hand_computation(self):
        lr, rho, eps = 0.001, 0.9, 1e-8
        g = 0.3
        params = np.array([2.0])
        state = nn.OptimizerState(np.zeros(1), lr, rho, eps)
        nn.rmsprop_step(params, np.array([g]), state)
        expected = 2.0 - lr * g / math.sqrt((1 - rho) * g * g + eps)
        assert params[0] == pytest.approx(expected, rel=1e-12)
        # for |g| >> sqrt(eps) this is close to -lr * sign(g) / sqrt(1 - rho)
        assert params[0] == pytest.approx(2.0 - lr / math.sqrt(1 - rho), rel=1e-4)

    def test_accumulator_nonnegative_always(self):
        rng = derive_rng(29, "acc")
        params = rng.standard_normal(9)
        state = nn.OptimizerState(np.zeros(9), learning_rate=0.001, rho=0.9, epsilon=1e-8)
        for _ in range(100):
            nn.rmsprop_step(params, rng.standard_normal(9) * 10, state)
            assert np.all(state.accumulator >= 0)

    def test_shape_mismatch(self):
        params = np.zeros(2)
        state = nn.OptimizerState(np.zeros(2), learning_rate=0.001, rho=0.9, epsilon=1e-8)
        with pytest.raises(nn.DimensionError):
            nn.rmsprop_step(params, np.zeros(3), state)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = nn.init_weights([10, 5, 2], seed=42)
        b = nn.init_weights([10, 5, 2], seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_biases_zero(self):
        net = nn.init_weights([6, 4, 2], seed=1)
        for layer in net.layers:
            assert np.all(layer.biases == 0.0)

    def test_weight_variance_matches_fan_rule(self):
        net = nn.init_weights([200, 100], seed=7)
        w = net.layers[0].weights
        assert w.size >= 10_000
        expected = 2.0 / (200 + 100)
        assert np.var(w) == pytest.approx(expected, rel=0.1)

    def test_layer_chain_validated(self):
        with pytest.raises(nn.DimensionError):
            nn.Network([
                nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "tanh"),
                nn.DenseLayer(np.zeros((2, 4)), np.zeros(2), "linear"),
            ])

    def test_block_widths_must_sum(self):
        with pytest.raises(nn.DimensionError):
            nn.DenseLayer(np.zeros((5, 2)), np.zeros(5), "softmax_blocks",
                          blocks=(2, 2))
