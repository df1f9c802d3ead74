"""GPR against dense linear-algebra, hand-solved, and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky

from albench.errors import AlbenchError, ConfigError, FitError, InputError, ShapeError
from albench.gpr import (
    KernelParams,
    TrainingConstants,
    fit_gpr,
    kernel_matrix,
    log_marginal_likelihood,
    predict_gpr,
)


def dense_lml(X, y, params):
    """Explicit-inverse recomputation, no Cholesky."""
    K = kernel_matrix(X, X, params, same_inputs=True)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * y @ np.linalg.inv(K) @ y - 0.5 * logdet - 0.5 * len(y) * math.log(2 * math.pi)


def dense_posterior(X_train, y, params, X_query):
    K_inv = np.linalg.inv(kernel_matrix(X_train, X_train, params, same_inputs=True))
    ks = kernel_matrix(X_query, X_train, params, same_inputs=False)
    mean = ks @ K_inv @ y
    var = (params.scale_c + params.noise_n) - np.einsum("ij,jk,ik->i", ks, K_inv, ks)
    return mean, np.maximum(var, 0.0)


def reference_lml(X, y, params):
    """LML and gradient as computed before per-fit constants: everything
    rebuilt per evaluation, K formed as rbf + noise * I. The reference for
    bit-for-bit checks."""
    n = X.shape[0]
    sq = np.maximum((X * X).sum(1)[:, None] + (X * X).sum(1)[None, :] - 2.0 * X @ X.T, 0.0)
    rbf = params.scale_c * np.exp(-sq / (2.0 * params.length_l**2))
    L = cholesky(rbf + params.noise_n * np.eye(n), lower=True)
    alpha = cho_solve((L, True), y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - 0.5 * n * math.log(2.0 * math.pi)
    inner = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n))
    grads = np.empty(3)
    grads[0] = 0.5 * float((inner * rbf).sum())
    grads[1] = 0.5 * float((inner * (rbf * sq / params.length_l**2)).sum())
    grads[2] = 0.5 * float(params.noise_n * np.trace(inner))
    return lml, grads


class TestKernelMatrix:
    def test_diagonal_includes_noise(self):
        params = KernelParams(scale_c=2.0, length_l=1.0, noise_n=0.25)
        A = np.array([[0.0, 1.0], [2.0, -1.0]])
        K = kernel_matrix(A, A, params, same_inputs=True)
        assert np.allclose(np.diag(K), 2.25)

    def test_rbf_decay(self):
        params = KernelParams(scale_c=1.0, length_l=1.0, noise_n=0.1)
        K = kernel_matrix([[0.0]], [[60.0]], params, same_inputs=False)
        assert K[0, 0] < 1e-300

    def test_three_by_three_scalar_formula_oracle(self):
        params = KernelParams(scale_c=1.7, length_l=0.8, noise_n=0.3)
        A = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 2.0]])
        K = kernel_matrix(A, A, params, same_inputs=True)
        for i in range(3):
            for j in range(3):
                d2 = sum((A[i, k] - A[j, k]) ** 2 for k in range(2))
                expect = 1.7 * math.exp(-d2 / (2 * 0.8**2)) + (0.3 if i == j else 0.0)
                assert abs(K[i, j] - expect) < 1e-12

    def test_dimension_mismatch(self):
        params = KernelParams(1.0, 1.0, 0.1)
        with pytest.raises(ShapeError):
            kernel_matrix([[0.0, 1.0]], [[0.0]], params, same_inputs=False)

    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            KernelParams(scale_c=1e6, length_l=1.0, noise_n=1.0)
        with pytest.raises(ConfigError):
            KernelParams(scale_c=1.0, length_l=1.0, noise_n=1e-4)


class TestLogMarginalLikelihood:
    def test_scalar_case(self):
        params = KernelParams(scale_c=2.0, length_l=1.0, noise_n=0.5)
        got = log_marginal_likelihood(np.array([[0.0]]), np.array([0.0]), params)
        expect = -0.5 * math.log(2.5) - 0.5 * math.log(2 * math.pi)
        assert abs(got - expect) < 1e-12

    def test_matches_dense_recomputation(self, rng):
        for _ in range(5):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            params = KernelParams(
                scale_c=math.exp(rng.uniform(-2, 2)),
                length_l=math.exp(rng.uniform(-1, 1)),
                noise_n=math.exp(rng.uniform(-2, 1)),
            )
            assert abs(log_marginal_likelihood(X, y, params) - dense_lml(X, y, params)) < 1e-8

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(8):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            theta0 = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-2, 1)])
            params = KernelParams.from_log_vector(theta0)
            _, grad = log_marginal_likelihood(X, y, params, eval_gradient=True)
            for j in range(3):
                tp, tm = theta0.copy(), theta0.copy()
                tp[j] += h
                tm[j] -= h
                fd = (
                    log_marginal_likelihood(X, y, KernelParams.from_log_vector(tp))
                    - log_marginal_likelihood(X, y, KernelParams.from_log_vector(tm))
                ) / (2 * h)
                assert abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-10) < 1e-5


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 4),
        shared=st.booleans(),
    )
    def test_same_bits_as_per_evaluation_reference(self, seed, n, d, shared):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(n, d))
        y = gen.normal(size=n) * 3.0
        # L-BFGS-B steps land anywhere in the box, bounds included
        theta = gen.uniform([-11.6, -6.9, -6.9], [11.6, 6.9, 13.9])
        params = KernelParams.from_log_vector(theta)
        constants = TrainingConstants.of(X, y) if shared else None
        lml, grads = log_marginal_likelihood(X, y, params, eval_gradient=True, constants=constants)
        ref_lml, ref_grads = reference_lml(X, y, params)
        assert lml == ref_lml
        assert grads.tobytes() == ref_grads.tobytes()


class TestFit:
    def test_pure_noise_absorbed_by_noise_term(self):
        # evenly spaced 1-D inputs keep the length scale away from its lower
        # bound, where c and noise become one unidentifiable diagonal term
        gen = np.random.default_rng(1)
        X = gen.permutation(np.linspace(0, 1, 30))[:, None]
        y = gen.normal(size=30)
        params = fit_gpr(X, y, seed=0)
        assert params.noise_n >= 0.9 * y.var()

    def test_zero_targets_stay_in_bounds(self, rng):
        X = rng.uniform(size=(12, 2))
        params = fit_gpr(X, np.zeros(12), seed=1)
        assert 1e-5 <= params.scale_c <= 1e5
        assert 1e-3 <= params.length_l <= 1e3
        assert 1e-3 <= params.noise_n <= 1e6

    def test_improves_on_fixed_start(self, rng):
        for trial in range(4):
            X = rng.normal(size=(8, 2))
            y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=8)
            fitted = fit_gpr(X, y, seed=trial)
            assert log_marginal_likelihood(X, y, fitted) >= log_marginal_likelihood(
                X, y, KernelParams(1.0, 1.0, 1.0)
            ) - 1e-9

    def test_single_point_fit(self):
        params = fit_gpr(np.array([[0.0]]), np.array([1.0]), seed=0)
        assert params.noise_n >= 1e-3

    def test_empty_training_set(self):
        with pytest.raises(FitError):
            fit_gpr(np.empty((0, 2)), np.empty(0), seed=0)

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_training_value_is_a_typed_error(self, rng, where, bad):
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        (X if where == "X" else y)[3] = bad
        with pytest.raises(InputError):
            fit_gpr(X, y, seed=0)
        with pytest.raises(InputError):
            log_marginal_likelihood(X, y, KernelParams(1.0, 1.0, 1.0))

    def test_overflowing_distances_are_a_typed_error(self):
        X = np.array([[0.0], [1e200]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AlbenchError):
            fit_gpr(X, np.zeros(2), seed=0)

    def test_precomputed_constants_give_the_same_bits(self, rng):
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        constants = TrainingConstants.of(X, y)
        for theta in rng.uniform(-3, 3, size=(5, 3)):
            params = KernelParams.from_log_vector(theta)
            plain = log_marginal_likelihood(X, y, params, eval_gradient=True)
            shared = log_marginal_likelihood(X, y, params, eval_gradient=True, constants=constants)
            assert plain[0] == shared[0]
            assert plain[1].tobytes() == shared[1].tobytes()
        # evaluations leave the shared constants untouched
        assert constants.sq.tobytes() == TrainingConstants.of(X, y).sq.tobytes()


class TestPredict:
    def test_interpolation_limit(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 0.5])
        params = KernelParams(scale_c=1.0, length_l=1.0, noise_n=1e-3)
        mean, _ = predict_gpr(X, y, params, X)
        assert np.abs(mean - y).max() < 1e-2

    def test_prior_reversion_far_away(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([3.0, -1.0])
        params = KernelParams(scale_c=2.0, length_l=1.0, noise_n=0.5)
        (far_mean,), (far_std,) = predict_gpr(X, y, params, [[1e3]])
        assert abs(far_mean) < 1e-10
        assert abs(far_std**2 - 2.5) < 1e-10

    def test_two_point_hand_solved_posterior(self):
        # closed-form 2x2 solve: K = [[c+n, k], [k, c+n]], query at x*
        c, l, n = 1.5, 1.0, 0.1
        params = KernelParams(c, l, n)
        x1, x2, xq = 0.0, 1.0, 0.25
        y = np.array([1.0, -2.0])
        k12 = c * math.exp(-((x1 - x2) ** 2) / (2 * l * l))
        K = np.array([[c + n, k12], [k12, c + n]])
        ks = np.array(
            [
                c * math.exp(-((xq - x1) ** 2) / (2 * l * l)),
                c * math.exp(-((xq - x2) ** 2) / (2 * l * l)),
            ]
        )
        alpha = np.linalg.solve(K, y)
        mean_hand = ks @ alpha
        var_hand = (c + n) - ks @ np.linalg.solve(K, ks)
        (mean,), (std,) = predict_gpr([[x1], [x2]], y, params, [[xq]])
        assert abs(mean - mean_hand) < 1e-10
        assert abs(std**2 - var_hand) < 1e-10

    def test_matches_dense_posterior_oracle(self, rng):
        for _ in range(5):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            params = KernelParams(
                scale_c=math.exp(rng.uniform(-1, 2)),
                length_l=math.exp(rng.uniform(-1, 1)),
                noise_n=math.exp(rng.uniform(-2, 0)),
            )
            Q = rng.normal(size=(6, 2))
            mean, std = predict_gpr(X, y, params, Q)
            dense_mean, dense_var = dense_posterior(X, y, params, Q)
            assert np.abs(mean - dense_mean).max() < 1e-8
            assert np.abs(std**2 - dense_var).max() < 1e-8


class TestPosteriorProperties:
    def test_variance_within_prior_bounds(self, rng):
        params = KernelParams(1.2, 0.7, 0.4)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        _, std = predict_gpr(X, y, params, rng.normal(size=(40, 2)) * 3)
        prior = params.scale_c + params.noise_n
        assert ((0.0 <= std**2) & (std**2 <= prior + 1e-12)).all()

    def test_permutation_invariance(self, rng):
        params = KernelParams(1.0, 1.0, 0.2)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        perm = rng.permutation(6)
        Q = rng.normal(size=(5, 2))
        a = predict_gpr(X, y, params, Q)
        b = predict_gpr(X[perm], y[perm], params, Q)
        assert np.allclose(a[0], b[0])
        assert np.allclose(a[1], b[1])

    def test_duplicate_training_point_never_increases_variance(self, rng):
        params = KernelParams(1.0, 1.0, 0.3)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        X_dup = np.vstack([X, X[2]])
        y_dup = np.append(y, y[2])
        Q = rng.normal(size=(30, 2)) * 2
        _, before = predict_gpr(X, y, params, Q)
        _, after = predict_gpr(X_dup, y_dup, params, Q)
        assert (after <= before + 1e-9).all()
