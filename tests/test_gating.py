import numpy as np
import pytest

from conceptqa.gating import (
    GateParams,
    gate_backward,
    gate_forward,
    gradient_check,
)

TABLE3_FACTORS = [3.00, 2.41, 2.10, 1.74]


def scalar_loop_forward(x, boost, w, b, skip=True):
    """Element-by-element reference for the gated residual block."""
    seq_len, dim = x.shape
    r = np.zeros_like(x)
    for i in range(seq_len):
        for j in range(dim):
            z = b[j]
            for k in range(dim):
                z += x[i, k] * w[k, j]
            g = 1.0 / (1.0 + np.exp(-z))
            r[i, j] = g * x[i, j] * boost[i]
            if skip:
                r[i, j] += x[i, j]
    return r


class TestForward:
    def test_saturated_gate_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 8))
        params = GateParams(np.zeros((8, 8)), np.full(8, -40.0))
        r, _ = gate_forward(x, np.full(6, 3.0), params)
        assert np.max(np.abs(r - x)) < 1e-12

    def test_closed_form_scalar(self):
        params = GateParams(np.zeros((1, 1)), np.zeros(1))
        r, cache = gate_forward(np.array([[1.0]]), np.array([3.0]), params)
        assert cache[1][0, 0] == pytest.approx(0.5)
        assert r[0, 0] == pytest.approx(2.5)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 8))
        w = rng.standard_normal((8, 8)) * 0.3
        b = rng.standard_normal(8) * 0.1
        boost = np.array(TABLE3_FACTORS)
        r, _ = gate_forward(x, boost, GateParams(w, b))
        np.testing.assert_allclose(r, scalar_loop_forward(x, boost, w, b), rtol=0, atol=1e-13)

    def test_neutral_boost_matches_dictionary_absent_path(self):
        # an all-ones vector from an empty dictionary is bit-identical to the
        # explicit neutral path, so both forwards agree exactly
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        params = GateParams(rng.standard_normal((4, 4)) * 0.02, np.zeros(4))
        r1, _ = gate_forward(x, np.ones(5), params)
        r2, _ = gate_forward(x, np.ones(5, dtype=np.float64), params)
        assert r1.tobytes() == r2.tobytes()

    def test_amplification_monotonicity(self):
        rng = np.random.default_rng(2)
        x = np.abs(rng.standard_normal((3, 4))) + 0.1
        params = GateParams(rng.standard_normal((4, 4)) * 0.2, np.zeros(4))
        low, _ = gate_forward(x, np.array([1.0, 1.5, 1.0]), params)
        high, _ = gate_forward(x, np.array([1.0, 2.5, 1.0]), params)
        assert np.all(high[1] > low[1])
        np.testing.assert_array_equal(high[0], low[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
    def test_a_boost_that_is_not_finite_and_at_least_one_is_refused(self, bad):
        params = GateParams(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="boost values must be finite and >= 1.0"):
            gate_forward(np.ones((3, 4)), np.array([1.0, bad, 2.0]), params)

    def test_shape_and_range_errors(self):
        params = GateParams(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="boost length"):
            gate_forward(np.zeros((3, 4)), np.ones(2), params)
        with pytest.raises(ValueError, match="width"):
            gate_forward(np.zeros((3, 5)), np.ones(3), params)
        with pytest.raises(ValueError, match=">= 1"):
            gate_forward(np.zeros((3, 4)), np.full(3, 0.5), params)
        with pytest.raises(ValueError, match="square"):
            GateParams(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            GateParams(np.full((2, 2), np.nan), np.zeros(2))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        params = GateParams(rng.standard_normal((4, 4)) * 0.02, np.zeros(4))
        _, cache = gate_forward(x, np.full(4, 2.0), params)
        dx, dw, db = gate_backward(np.zeros_like(x), cache, params)
        assert np.all(dx == 0) and np.all(dw == 0) and np.all(db == 0)

    def test_scalar_hand_chain_rule(self):
        params = GateParams(np.zeros((1, 1)), np.zeros(1))
        _, cache = gate_forward(np.array([[1.0]]), np.array([3.0]), params)
        dx, dw, db = gate_backward(np.array([[1.0]]), cache, params)
        # dX = 1 + G * M + X * M * G(1-G) * W = 1 + 1.5 + 0
        assert dx[0, 0] == pytest.approx(2.5)
        # dW = X * dZ = X * (dR * U * G(1-G)) = 1 * 3 * 0.25
        assert dw[0, 0] == pytest.approx(0.75)
        assert db[0] == pytest.approx(0.75)

    def test_hundred_random_instances_match_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            seq_len = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 17))
            params = GateParams(rng.standard_normal((dim, dim)) * 0.5,
                                rng.standard_normal(dim) * 0.5)
            x = rng.standard_normal((seq_len, dim))
            boost = 1.0 + 2.0 * rng.random(seq_len)
            worst = max(worst, gradient_check(params, x, boost, epsilon=1e-5))
        assert worst < 1e-6

    def test_dx_equals_dr_when_gate_closed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 6))
        params = GateParams(np.zeros((6, 6)), np.full(6, -40.0))
        _, cache = gate_forward(x, np.full(5, 3.0), params)
        dr = rng.standard_normal((5, 6))
        dx, _, _ = gate_backward(dr, cache, params)
        assert np.max(np.abs(dx - dr)) < 1e-12

    def test_cache_mismatch_errors(self):
        params = GateParams(np.zeros((4, 4)), np.zeros(4))
        _, cache = gate_forward(np.zeros((3, 4)), np.ones(3), params)
        with pytest.raises(ValueError, match="dR shape"):
            gate_backward(np.zeros((2, 4)), cache, params)
        other = GateParams(np.zeros((5, 5)), np.zeros(5))
        with pytest.raises(ValueError, match="does not match gate"):
            gate_backward(np.zeros((3, 4)), cache, other)


class TestNoResidualAblation:
    def test_skip_term_is_exactly_the_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        params = GateParams(rng.standard_normal((4, 4)) * 0.02, np.zeros(4))
        boost = 1.0 + rng.random(4)
        with_skip, _ = gate_forward(x, boost, params, skip=True)
        without, _ = gate_forward(x, boost, params, skip=False)
        np.testing.assert_allclose(with_skip - without, x, rtol=0, atol=1e-12)

    def test_no_skip_gradients_check_out(self):
        rng = np.random.default_rng(6)
        params = GateParams(rng.standard_normal((5, 5)) * 0.4, rng.standard_normal(5) * 0.2)
        x = rng.standard_normal((4, 5))
        boost = 1.0 + rng.random(4)
        assert gradient_check(params, x, boost, epsilon=1e-5, skip=False) < 1e-6


class TestGradientCheck:
    def test_zero_configuration_is_exact(self):
        params = GateParams(np.zeros((4, 4)), np.zeros(4))
        err = gradient_check(params, np.zeros((3, 4)), np.full(3, 2.0))
        assert err < 1e-12

    def test_seeded_instance_small_error(self):
        rng = np.random.default_rng(42)
        params = GateParams(rng.standard_normal((6, 6)) * 0.5, rng.standard_normal(6) * 0.5)
        x = rng.standard_normal((4, 6))
        boost = 1.0 + 2.0 * rng.random(4)
        assert gradient_check(params, x, boost, epsilon=1e-5) < 1e-6

    def test_error_shrinks_with_epsilon(self):
        rng = np.random.default_rng(9)
        params = GateParams(rng.standard_normal((6, 6)), rng.standard_normal(6))
        x = rng.standard_normal((4, 6)) * 2.0
        boost = 1.0 + 2.0 * rng.random(4)
        coarse = gradient_check(params, x, boost, epsilon=1e-3)
        fine = gradient_check(params, x, boost, epsilon=1e-5)
        assert fine < coarse / 30.0  # central differences are second order

    def test_epsilon_validated(self):
        params = GateParams(np.zeros((2, 2)), np.zeros(2))
        for bad in (1e-8, 1e-2):
            with pytest.raises(ValueError, match="epsilon"):
                gradient_check(params, np.zeros((2, 2)), np.ones(2), epsilon=bad)

    def test_corrupt_hook_fails(self):
        rng = np.random.default_rng(10)
        params = GateParams(rng.standard_normal((4, 4)) * 0.5, np.zeros(4))
        x = rng.standard_normal((3, 4))
        err = gradient_check(params, x, np.ones(3), corrupt=1e-3)
        assert err >= 1e-5


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_pre_activations_raise_nothing(self, dtype):
        # exp(-z) overflows float32 below z = -88; the gate must not compute it
        b = np.array([1e4, -1e4, 100.0, -100.0, -89.0, 0.0], dtype)
        params = GateParams(np.zeros((6, 6), dtype), b)
        with np.errstate(all="raise"):
            r, cache = gate_forward(np.ones((2, 6), dtype), np.full(2, 2.0, dtype), params)
        assert cache[1].dtype == r.dtype == dtype
        with np.errstate(over="ignore"):  # the float64 reference: exp(1e4) is inf
            expected = 1.0 / (1.0 + np.exp(-b.astype(np.float64)))
        np.testing.assert_allclose(cache[1], np.broadcast_to(expected, (2, 6)),
                                   rtol=0, atol=1e-15)

    def test_float32_gate_matches_the_float64_logistic(self):
        z = np.linspace(-100.0, 100.0, 80_000, dtype=np.float32).reshape(-1, 8)
        params = GateParams(np.eye(8, dtype=np.float32), np.zeros(8, np.float32))
        _, cache = gate_forward(z, np.ones(len(z), np.float32), params)
        assert cache[1].dtype == np.float32
        expected = 1.0 / (1.0 + np.exp(-z.astype(np.float64)))
        assert np.max(np.abs(cache[1] - expected)) <= 2.5e-7
