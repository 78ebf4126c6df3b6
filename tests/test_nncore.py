import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakrank import nncore
from weakrank.nncore import (
    LstmParams,
    OptimizerState,
    ParamGroup,
    ParamTensor,
    cosine_backward,
    cosine_forward,
    cosine_rows_backward,
    cosine_rows_forward,
    default_kernel_bank,
    dense_backward,
    dense_forward,
    finite_difference_check,
    init_param,
    kernel_pool_backward,
    kernel_pool_forward,
    lstm_backward,
    log_sigmoid,
    lstm_forward,
    optimizer_step,
    scatter_add_rows,
    sigmoid,
    zero_grads,
)


def _two_branch_sigmoid(x):
    # the textbook form: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) below
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_EDGE_VALUES = np.array([0.0, -0.0, 1e-300, -1e-300, 700.5, -700.5, 745.2, -745.2,
                         1e4, -1e4, np.inf, -np.inf])


class TestSigmoid:
    @given(hnp.arrays(np.float64, st.integers(0, 60),
                      elements=st.floats(-1e3, 1e3, allow_subnormal=True)))
    @example(_EDGE_VALUES)
    def test_bitwise_equal_to_two_branch_formula(self, x):
        with np.errstate(over="ignore"):
            expected = _two_branch_sigmoid(x)
        assert sigmoid(x).tobytes() == expected.tobytes()

    @given(hnp.arrays(np.float64, st.integers(0, 60), elements=st.floats(-1e3, 1e3)))
    @example(_EDGE_VALUES)
    def test_log_sigmoid_bitwise_equal_to_softplus_form(self, x):
        # log sigma(x) = -softplus(-x), each branch with its own log1p(exp(-|x|))
        expected = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                            x - np.log1p(np.exp(-np.abs(x))))
        assert log_sigmoid(x).tobytes() == expected.tobytes()
        assert np.all(log_sigmoid(x) <= 0.0)


class TestScatterAddRows:
    @given(st.data())
    def test_bitwise_equal_to_add_at_with_repeated_rows(self, data):
        n_rows = data.draw(st.integers(1, 4))
        dim = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 40))
        idx = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_rows - 1)))
        # magnitudes far apart, so a change in the order of the adds shows
        rows = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.sampled_from(
            [1.0, -1.0, 1e-17, 3.3e16, -3.3e16, 0.1, 2.5e-9])))
        table = data.draw(hnp.arrays(np.float64, (n_rows, dim), elements=st.floats(-1, 1)))
        expected = table.copy()
        np.add.at(expected, idx, rows)
        shape = data.draw(st.sampled_from(["flat", "grid"]))
        if shape == "grid" and n % 2 == 0:
            idx, rows = idx.reshape(2, -1), rows.reshape(2, -1, dim)
        scatter_add_rows(table, idx, rows)
        assert table.tobytes() == expected.tobytes()

    def test_refuses_a_non_contiguous_table(self):
        table = np.zeros((3, 4)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(table, np.array([0, 1]), np.ones((2, 3)))
        assert not table.any()


class TestDense:
    def test_identity_passthrough(self):
        W = ParamTensor("W", np.eye(3))
        b = ParamTensor("b", np.zeros(3))
        x = np.array([1.0, -2.0, 3.0])
        y, _ = dense_forward(x, W, b, "identity")
        assert np.allclose(y, x)

    def test_tanh_bounded(self, rng):
        W = init_param("W", (4, 3), rng, scale=1.0)
        b = init_param("b", (4,), rng, scale=1.0)
        y, _ = dense_forward(rng.normal(size=3), W, b, "tanh")
        assert np.all(np.abs(y) < 1.0)
        # float64 saturates at exactly +-1 for huge inputs but never exceeds it
        y_big, _ = dense_forward(rng.normal(size=3) * 1e3, W, b, "tanh")
        assert np.all(np.abs(y_big) <= 1.0)

    @pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
    def test_gradient_vs_finite_differences(self, act):
        rng = np.random.default_rng(17)
        W = init_param("W", (4, 3), rng)
        b = init_param("b", (4,), rng)
        x = ParamTensor("x", rng.normal(size=3))
        probe = rng.normal(size=4)

        def fb():
            zero_grads([W, b, x])
            y, cache = dense_forward(x.value, W, b, act)
            x.grad += dense_backward(probe, cache)
            return float(probe @ y)

        assert finite_difference_check(fb, [W, b, x]) < 1e-4

    def test_shape_mismatch(self):
        W = ParamTensor("W", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dim"):
            dense_forward(np.zeros(4), W, None)

    def test_batched_matches_loop(self, rng):
        W = init_param("W", (4, 3), rng)
        b = init_param("b", (4,), rng)
        X = rng.normal(size=(5, 3))
        Y, _ = dense_forward(X, W, b, "tanh")
        for i in range(5):
            yi, _ = dense_forward(X[i], W, b, "tanh")
            assert np.allclose(Y[i], yi)

    @pytest.mark.parametrize("act", ["identity", "tanh", "relu"])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_frozen_input_gives_the_same_parameter_gradients(self, rng, act, with_bias):
        X = rng.normal(size=(7, 5))
        dy = rng.normal(size=(7, 4))
        grads = []
        for input_grad in (True, False):
            W = ParamTensor("W", np.random.default_rng(3).normal(size=(4, 5)))
            b = ParamTensor("b", np.random.default_rng(4).normal(size=4)) if with_bias else None
            _, cache = dense_forward(X, W, b, act)
            dx = dense_backward(dy, cache, input_grad=input_grad)
            assert (dx is None) == (not input_grad)
            grads.append((W.grad.tobytes(), None if b is None else b.grad.tobytes()))
        assert grads[0] == grads[1]


def _masked_cosine_rows(U, V):
    """The masked row cosine for every row: zero-norm rows score 0 and get
    zero gradient. Returns (c, backward(dc) -> (dU, dV))."""
    nu = np.linalg.norm(U, axis=1)
    nv = np.linalg.norm(V, axis=1)
    denom = nu * nv
    ok = denom > 0.0
    c = np.zeros(U.shape[0])
    c[ok] = np.einsum("ij,ij->i", U[ok], V[ok]) / denom[ok]

    def backward(dc):
        dU = np.zeros_like(U)
        dV = np.zeros_like(V)
        s = np.where(ok, dc, 0.0)
        nu_s = np.where(ok, nu, 1.0)
        nv_s = np.where(ok, nv, 1.0)
        inv = 1.0 / (nu_s * nv_s)
        dU[:] = (s * inv)[:, None] * V - (s * c / (nu_s * nu_s))[:, None] * U
        dV[:] = (s * inv)[:, None] * U - (s * c / (nv_s * nv_s))[:, None] * V
        dU[~ok] = 0.0
        dV[~ok] = 0.0
        return dU, dV

    return c, backward


class TestCosine:
    @given(st.data())
    def test_rows_bitwise_equal_to_masked_formula(self, data):
        n = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 40))
        elements = st.floats(-1e3, 1e3, allow_subnormal=False)
        U = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
        V = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
        if data.draw(st.booleans()):  # some zero rows: the masked path
            for side in (U, V):
                side[data.draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
        dc = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-10, 10)))
        with np.errstate(all="ignore"):  # tiny norms overflow alike in both
            c, cache = cosine_rows_forward(U, V)
            dU, dV = cosine_rows_backward(dc, cache)
            c_ref, backward = _masked_cosine_rows(U, V)
            dU_ref, dV_ref = backward(dc)
        assert c.tobytes() == c_ref.tobytes()
        assert dU.tobytes() == dU_ref.tobytes()
        assert dV.tobytes() == dV_ref.tobytes()

    def test_identical_vectors(self):
        u = np.array([1.0, 2.0, 3.0])
        c, _ = cosine_forward(u, u.copy())
        assert c == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        u, v = rng.normal(size=4), rng.normal(size=4)
        c1, _ = cosine_forward(u, v)
        c2, _ = cosine_forward(3.0 * u, v)
        assert c1 == pytest.approx(c2)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_forward(np.zeros(3), np.ones(3))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        u = ParamTensor("u", rng.normal(size=5))
        v = ParamTensor("v", rng.normal(size=5))

        def fb():
            zero_grads([u, v])
            c, cache = cosine_forward(u.value, v.value)
            du, dv = cosine_backward(1.0, cache)
            u.grad += du
            v.grad += dv
            return c

        assert finite_difference_check(fb, [u, v]) < 1e-4

    def test_rows_variant_matches_scalar(self, rng):
        U, V = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        c, _ = cosine_rows_forward(U, V)
        for i in range(6):
            ci, _ = cosine_forward(U[i], V[i])
            assert c[i] == pytest.approx(ci)

    def test_rows_zero_norm_scores_zero_with_zero_grad(self):
        U = np.array([[0.0, 0.0], [1.0, 0.0]])
        V = np.array([[1.0, 1.0], [1.0, 0.0]])
        c, cache = cosine_rows_forward(U, V)
        assert c[0] == 0.0 and c[1] == pytest.approx(1.0)
        dU, dV = cosine_rows_backward(np.ones(2), cache)
        assert np.all(dU[0] == 0.0) and np.all(dV[0] == 0.0)

    def test_rows_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        U = ParamTensor("U", rng.normal(size=(3, 4)))
        V = ParamTensor("V", rng.normal(size=(3, 4)))
        probe = rng.normal(size=3)

        def fb():
            zero_grads([U, V])
            c, cache = cosine_rows_forward(U.value, V.value)
            dU, dV = cosine_rows_backward(probe, cache)
            U.grad += dU
            V.grad += dV
            return float(probe @ c)

        assert finite_difference_check(fb, [U, V]) < 1e-4


class TestKernelPool:
    def test_all_values_at_mu_gives_count(self):
        mus = np.array([0.5])
        sigmas = np.array([0.1])
        K, _ = kernel_pool_forward(np.full(7, 0.5), mus, sigmas)
        assert K[0] == pytest.approx(7.0)

    def test_far_tail_vanishes(self):
        K, _ = kernel_pool_forward(np.array([0.0]), np.array([0.9]), np.array([0.1]))
        assert K[0] < 1e-7

    def test_positive_exponent_variant_diverges(self):
        K_neg, _ = kernel_pool_forward(np.array([0.0]), np.array([0.9]), np.array([0.1]))
        K_pos, _ = kernel_pool_forward(
            np.array([0.0]), np.array([0.9]), np.array([0.1]), negative_exponent=False
        )
        assert K_pos[0] > 1.0 > K_neg[0]

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_pool_forward(np.zeros(3), np.array([0.0]), np.array([0.0]))

    def test_default_bank_shape(self):
        mus, sigmas = default_kernel_bank()
        assert len(mus) == 11 and len(sigmas) == 11
        assert mus[0] == 1.0 and sigmas[0] == 1e-3

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        mus = np.array([0.9, 0.5, -0.3])
        sigmas = np.array([0.1, 0.2, 0.3])
        s = ParamTensor("s", rng.uniform(-1, 1, size=8))
        probe = rng.normal(size=3)

        def fb():
            zero_grads([s])
            K, cache = kernel_pool_forward(s.value, mus, sigmas)
            s.grad += kernel_pool_backward(probe, cache)
            return float(probe @ K)

        assert finite_difference_check(fb, [s]) < 1e-4


class TestLstm:
    def test_zero_weights_zero_inputs(self):
        params = LstmParams(
            ParamTensor("W", np.zeros((8, 4))), ParamTensor("b", np.zeros(8)), hidden=2
        )
        h, c, _ = lstm_forward(np.zeros(2), np.zeros(2), np.zeros(2), params)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_hidden_state_bounded(self, rng):
        params = LstmParams.create("lstm", 3, 4, rng, scale=2.0)
        h = np.zeros(4)
        c = np.zeros(4)
        for _ in range(10):
            h, c, _ = lstm_forward(rng.normal(size=3) * 3, h, c, params)
        assert np.all(np.abs(h) < 1.0)

    def test_three_step_unroll_gradient(self):
        rng = np.random.default_rng(6)
        params = LstmParams.create("lstm", 3, 4, rng)
        xs = [ParamTensor(f"x{t}", rng.normal(size=3)) for t in range(3)]
        probe = rng.normal(size=4)
        tensors = params.tensors() + xs

        def fb():
            zero_grads(tensors)
            h = np.zeros(4)
            c = np.zeros(4)
            caches = []
            for x in xs:
                h, c, cache = lstm_forward(x.value, h, c, params)
                caches.append(cache)
            dh, dc = probe.copy(), np.zeros(4)
            for t in reversed(range(3)):
                dx, dh, dc = lstm_backward(dh, dc, caches[t])
                xs[t].grad += dx
            return float(probe @ h)

        assert finite_difference_check(fb, tensors) < 1e-3


class TestOptimizers:
    def test_sgd_basic(self):
        p = ParamTensor("p", np.array([1.0]))
        p.grad[:] = 1.0
        optimizer_step([p], OptimizerState("sgd", lr=0.1))
        assert p.value[0] == pytest.approx(0.9)

    def test_sgd_zero_gradient_no_change(self):
        p = ParamTensor("p", np.array([2.0, -1.0]))
        optimizer_step([p], OptimizerState("sgd", lr=0.1))
        assert np.array_equal(p.value, np.array([2.0, -1.0]))

    def test_adam_first_step_moves_by_lr(self):
        # Bias correction makes m_hat=g, v_hat=g^2, so the step is
        # lr * g / (|g| + eps) which is about lr for g > 0.
        p = ParamTensor("p", np.array([1.0]))
        p.grad[:] = 0.37
        optimizer_step([p], OptimizerState("adam", lr=0.01))
        assert p.value[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_nonfinite_gradient_names_parameter(self):
        p = ParamTensor("theta", np.array([1.0]))
        p.grad[:] = np.nan
        with pytest.raises(ValueError, match="theta"):
            optimizer_step([p], OptimizerState("sgd", lr=0.1))

    def test_step_reduces_convex_quadratic(self, rng):
        # f(p) = 0.5 * p'Ap with curvature bound lr < 2/lambda_max
        A = np.diag([1.0, 4.0])
        p = ParamTensor("p", rng.normal(size=2))
        f0 = 0.5 * p.value @ A @ p.value
        p.grad[:] = A @ p.value
        optimizer_step([p], OptimizerState("sgd", lr=0.4))
        f1 = 0.5 * p.value @ A @ p.value
        assert f1 < f0

    def test_adam_state_tracks_moments(self):
        p = ParamTensor("p", np.array([0.0]))
        state = OptimizerState("adam", lr=0.1)
        for _ in range(3):
            p.grad[:] = 1.0
            optimizer_step([p], state)
        assert state.t == 3
        assert "p" in state.moments


def _per_tensor_step(values, grads, state, moments):
    """Reference optimizer: one tensor at a time, as separate arrays."""
    if state.algorithm == "sgd":
        for v, g in zip(values, grads):
            v -= state.lr * g
        return
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i, (p, g) in enumerate(zip(values, grads)):
        m, v = moments.setdefault(i, (np.zeros_like(p), np.zeros_like(p)))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


class TestParamGroup:
    SHAPES = [(3, 4), (4,), (2, 2, 3), (1,)]

    def _group(self, rng):
        return ParamGroup(ParamTensor(f"t{i}", rng.normal(size=s))
                          for i, s in enumerate(self.SHAPES))

    def test_tensors_are_views_of_the_flat_buffers(self, rng):
        before = [rng.normal(size=s) for s in self.SHAPES]
        group = ParamGroup(ParamTensor(f"t{i}", v.copy()) for i, v in enumerate(before))
        assert group.values.size == sum(v.size for v in before)
        for p, v in zip(group, before):
            assert np.array_equal(p.value, v) and p.value.shape == v.shape
        group[2].value[1, 0, 2] = 7.0
        group.grads[-1] = 3.0
        assert 7.0 in group.values and group[3].grad[0] == 3.0
        group[0].grad[:] = 1.0
        zero_grads(group)
        assert not group.grads.any() and not group[0].grad.any()

    @pytest.mark.parametrize("algorithm", ["sgd", "adam"])
    def test_flat_step_bitwise_equals_per_tensor_reference(self, rng, algorithm):
        group = self._group(rng)
        ref_values = [p.value.copy() for p in group]
        state = OptimizerState(algorithm, lr=0.05)
        ref_state = OptimizerState(algorithm, lr=0.05)
        ref_moments = {}
        for step in range(20):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 3) for s in self.SHAPES]
            for p, g in zip(group, grads):
                p.grad[...] = g
            optimizer_step(group, state)
            _per_tensor_step(ref_values, grads, ref_state, ref_moments)
            for p, v in zip(group, ref_values):
                assert np.array_equal(p.value, v), (algorithm, step, p.name)
        if algorithm == "adam":
            assert state.t == ref_state.t == 20
            for i, p in enumerate(group):
                assert np.array_equal(state.moments[p.name][0], ref_moments[i][0])
                assert np.array_equal(state.moments[p.name][1], ref_moments[i][1])

    def test_restored_moments_continue_bitwise(self, rng):
        # a checkpoint restores moments as separate arrays; the next step
        # must pack them into its flat buffers unchanged
        group = self._group(rng)
        twin = ParamGroup(ParamTensor(p.name, p.value.copy()) for p in group)
        state = OptimizerState("adam", lr=0.01)
        grads = [[rng.normal(size=s) for s in self.SHAPES] for _ in range(10)]
        for step in range(5):
            for p, g in zip(group, grads[step]):
                p.grad[...] = g
            optimizer_step(group, state)
        np.copyto(twin.values, group.values)
        restored = OptimizerState("adam", lr=0.01, t=state.t, moments={
            name: (m.copy(), v.copy()) for name, (m, v) in state.moments.items()})
        for step in range(5, 10):
            for g_group, g_twin, g in zip(group, twin, grads[step]):
                g_group.grad[...] = g
                g_twin.grad[...] = g
            optimizer_step(group, state)
            optimizer_step(twin, restored)
        assert np.array_equal(group.values, twin.values)

    def test_nonfinite_gradient_names_the_offending_tensor(self, rng):
        group = self._group(rng)
        group[2].grad[1, 1, 0] = np.inf
        with pytest.raises(ValueError, match="gradient for parameter 't2'"):
            optimizer_step(group, OptimizerState("adam", lr=0.1))

    def test_nonfinite_value_after_update_names_the_offending_tensor(self, rng):
        group = self._group(rng)
        group[1].value[...] = 1e308
        group[1].grad[...] = -1e308
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="parameter 't1'.* after update"):
            optimizer_step(group, OptimizerState("sgd", lr=10.0))


class TestFiniteDifferenceHarness:
    def test_catches_wrong_gradient(self):
        p = ParamTensor("p", np.array([0.5]))

        def fb():
            zero_grads([p])
            p.grad[:] = 1.0  # claimed gradient of f(p)=2p is wrong
            return float(2.0 * p.value[0])

        assert finite_difference_check(fb, [p]) > 0.1

    def test_multiseed_gradients_all_ops(self):
        # 20-seed sweep across every differentiable op at its tolerance.
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            W = init_param("W", (3, 3), rng)
            b = init_param("b", (3,), rng)
            x = ParamTensor("x", rng.normal(size=3))
            probe = rng.normal(size=3)

            def fb_dense():
                zero_grads([W, b, x])
                y, cache = dense_forward(x.value, W, b, "tanh")
                x.grad += dense_backward(probe, cache)
                return float(probe @ y)

            assert finite_difference_check(fb_dense, [W, b, x]) < 1e-4

            u = ParamTensor("u", rng.normal(size=4))
            v = ParamTensor("v", rng.normal(size=4))

            def fb_cos():
                zero_grads([u, v])
                c, cache = cosine_forward(u.value, v.value)
                du, dv = cosine_backward(1.0, cache)
                u.grad += du
                v.grad += dv
                return c

            assert finite_difference_check(fb_cos, [u, v]) < 1e-4
