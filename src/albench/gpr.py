"""Gaussian-process regression with a scaled-RBF + white-noise kernel.

K[i,j] = c * exp(-||a_i - b_j||^2 / (2 l^2)) + noise * [same inputs, i==j]

Hyperparameters are fitted by box-constrained L-BFGS-B ascent on the log
marginal likelihood in log-parameter space, from a fixed start (1, 1, 1)
plus seeded random restarts drawn uniformly within the log bounds.
Targets are not standardized by default; inputs are expected to arrive
already standardized against the labeled pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

from .errors import ConfigError, FitError, InputError, NumericalError, ShapeError
from .types import as_matrix

SCALE_BOUNDS = (1e-5, 1e5)
LENGTH_BOUNDS = (1e-3, 1e3)
NOISE_BOUNDS = (1e-3, 1e6)

#: Relative diagonal bumps tried, in order, when Cholesky fails.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class KernelParams:
    """RBF scaling constant, length scale, and white-noise level."""

    scale_c: float
    length_l: float
    noise_n: float

    def __post_init__(self):
        for name, value, (lo, hi) in (
            ("scale_c", self.scale_c, SCALE_BOUNDS),
            ("length_l", self.length_l, LENGTH_BOUNDS),
            ("noise_n", self.noise_n, NOISE_BOUNDS),
        ):
            if not (lo <= value <= hi):
                raise ConfigError(f"{name}={value} outside bounds [{lo}, {hi}]")

    @classmethod
    def from_log_vector(cls, theta) -> "KernelParams":
        # clip for round-off at the box boundary
        c, l, n = np.clip(np.exp(np.asarray(theta, dtype=float)), _LOWER, _UPPER).tolist()
        return cls(scale_c=c, length_l=l, noise_n=n)


_LOWER = np.array([SCALE_BOUNDS[0], LENGTH_BOUNDS[0], NOISE_BOUNDS[0]])
_UPPER = np.array([SCALE_BOUNDS[1], LENGTH_BOUNDS[1], NOISE_BOUNDS[1]])


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d, 0.0)


def kernel_matrix(A, B, params: KernelParams, same_inputs: bool) -> np.ndarray:
    """Scaled RBF between every pair, white noise on the diagonal when A is B."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ShapeError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    K = params.scale_c * np.exp(-_sq_dists(A, B) / (2.0 * params.length_l**2))
    if same_inputs:
        if A.shape[0] != B.shape[0]:
            raise ShapeError("same_inputs requires square A, B")
        K[np.diag_indices_from(K)] += params.noise_n
    return K


def _chol_with_jitter(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of K, bumping the diagonal along JITTER_LADDER.

    K must be finite (the callers check that once), so scipy's own
    finiteness scan is skipped.
    """
    for jitter in JITTER_LADDER:
        try:
            bumped = K if jitter == 0.0 else K + np.diag(jitter * np.diag(K))
            return cholesky(bumped, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("kernel matrix not positive definite after jitter escalation")


@dataclass(frozen=True)
class TrainingConstants:
    """What every LML evaluation on one training input X shares."""

    sq: np.ndarray  # pairwise squared distances
    neg_sq: np.ndarray  # -sq
    eye: np.ndarray  # identity, the right-hand side of the K^-1 solve
    log_norm: float  # 0.5 * n * log(2 pi)

    @classmethod
    def of(cls, X, y) -> "TrainingConstants":
        """Constants of (X, y), after checking once that every value is finite."""
        X = as_matrix(X)
        if not (np.isfinite(X).all() and np.isfinite(np.asarray(y, dtype=float)).all()):
            raise InputError("GPR training inputs or targets contain NaN or inf")
        sq = _sq_dists(X, X)
        if not np.isfinite(sq).all():
            raise InputError("GPR training inputs overflow their pairwise squared distances")
        n = X.shape[0]
        return cls(sq=sq, neg_sq=-sq, eye=np.eye(n), log_norm=0.5 * n * math.log(2.0 * math.pi))


def log_marginal_likelihood(
    X, y, params: KernelParams, *, eval_gradient: bool = False, constants: TrainingConstants | None = None
):
    """LML via Cholesky; optional gradient w.r.t. (log c, log l, log noise).

    constants: `TrainingConstants.of(X, y)`, for a caller that evaluates
    many params on one training set (as `fit_gpr` does); built here when
    omitted. Either way X and y must be finite (InputError otherwise).
    """
    if constants is None:
        constants = TrainingConstants.of(X, y)
    y = np.asarray(y, dtype=float)
    n = constants.eye.shape[0]
    rbf = constants.neg_sq / (2.0 * params.length_l**2)
    np.exp(rbf, out=rbf)
    rbf *= params.scale_c
    # K = rbf + noise * I, formed in place: adding 0.0 off the diagonal
    # leaves rbf >= 0 unchanged, so these are the same bits
    diagonal = rbf.diagonal().copy()
    rbf.flat[:: n + 1] += params.noise_n
    try:
        L = _chol_with_jitter(rbf)
    finally:
        rbf.flat[:: n + 1] = diagonal
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) - constants.log_norm
    if not eval_gradient:
        return lml
    inner = np.outer(alpha, alpha)
    inner -= cho_solve((L, True), constants.eye, check_finite=False)
    grads = np.empty(3)
    term = inner * rbf
    grads[0] = 0.5 * float(term.sum())  # d/d log c
    np.multiply(rbf, constants.sq, out=term)
    term /= params.length_l**2
    term *= inner
    grads[1] = 0.5 * float(term.sum())  # d/d log l
    grads[2] = 0.5 * float(params.noise_n * np.trace(inner))  # d/d log noise
    return lml, grads


_LOG_BOUNDS = [
    (math.log(SCALE_BOUNDS[0]), math.log(SCALE_BOUNDS[1])),
    (math.log(LENGTH_BOUNDS[0]), math.log(LENGTH_BOUNDS[1])),
    (math.log(NOISE_BOUNDS[0]), math.log(NOISE_BOUNDS[1])),
]


def fit_gpr(X, y, seed: int, n_restarts: int = 4) -> KernelParams:
    """Maximize LML within the box, fixed start plus seeded restarts.

    The returned params always score at least as well as the fixed start
    (c=1, l=1, noise=1); a restart that fails numerically is skipped.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad training set: |X|={X.shape[0]}, |y|={y.shape[0]}")
    constants = TrainingConstants.of(X, y)

    def objective(theta):
        try:
            lml, grad = log_marginal_likelihood(
                X, y, KernelParams.from_log_vector(theta), eval_gradient=True, constants=constants
            )
        except NumericalError:
            return 1e25, np.zeros(3)
        if not math.isfinite(lml):
            return 1e25, np.zeros(3)
        return -lml, -grad

    rng = np.random.default_rng(seed)
    fixed_start = np.zeros(3)
    starts = [fixed_start] + [
        rng.uniform([lo for lo, _ in _LOG_BOUNDS], [hi for _, hi in _LOG_BOUNDS])
        for _ in range(n_restarts)
    ]

    candidates: list[tuple[float, np.ndarray]] = []
    baseline_neg, _ = objective(fixed_start)
    if baseline_neg < 1e25:
        candidates.append((baseline_neg, fixed_start))
    for start in starts:
        result = minimize(
            objective, start, jac=True, method="L-BFGS-B", bounds=_LOG_BOUNDS
        )
        if math.isfinite(result.fun) and result.fun < 1e25:
            candidates.append((float(result.fun), np.asarray(result.x)))
    if not candidates:
        raise FitError("all hyperparameter starts failed numerically")
    best = min(candidates, key=lambda c: c[0])
    return KernelParams.from_log_vector(np.clip(best[1], [b[0] for b in _LOG_BOUNDS], [b[1] for b in _LOG_BOUNDS]))


def predict_gpr(X_train, y_train, params: KernelParams, X_query) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior mean and std at the queries, each of shape (n,).

    The predictive variance includes the white-noise term: far from all
    training points it reverts to scale_c + noise_n.
    """
    X_train, X_query = as_matrix(X_train), as_matrix(X_query)
    y_train = np.asarray(y_train, dtype=float)
    if X_train.shape[0] == 0:
        raise FitError("empty training set")
    K = kernel_matrix(X_train, X_train, params, same_inputs=True)
    if not np.isfinite(K).all():
        raise InputError("GPR training inputs give a non-finite kernel matrix")
    L = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y_train)
    k_star = kernel_matrix(X_query, X_train, params, same_inputs=False)
    mean = k_star @ alpha
    v = solve_triangular(L, k_star.T, lower=True)
    prior = params.scale_c + params.noise_n
    var = np.maximum(prior - (v * v).sum(axis=0), 0.0)
    return mean, np.sqrt(var)
