"""Ridgeless regression under a feature transform, with risk estimators.

The predictor is x^T b with coefficients b = T X^T (X T X^T)^+ y for a
FeatureTransform T, read only through T.apply.  Monte Carlo estimators
quantify its bias (error of the mean predictor over training-set draws),
variance (label-noise contribution), and total excess risk; the three are
related by risk = bias + variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from convkernel.kernels import FeatureTransform, _check_symmetric_psd
from convkernel.rng import trial_chunks

PINV_RTOL = 1e-12
DEFAULT_BIAS_TRIALS = 500
DEFAULT_VARIANCE_TRIALS = 2000
DEFAULT_RISK_TRIALS = 500
DEFAULT_RISK_TEST_POINTS = 256


@dataclass(frozen=True)
class RegressionProblem:
    """Population model: rows x ~ N(0, covariance), y = x.coef + noise.

    covariance and coef are held as read-only copies, so the caller's
    arrays stay writeable.  covariance_sqrt, the PSD root the estimators
    draw designs with, is computed once here, after the covariance is
    checked.
    """

    covariance: np.ndarray
    coef: np.ndarray
    noise_var: float
    n_train: int
    covariance_sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        covariance = np.array(self.covariance, dtype=float)
        coef = np.array(self.coef, dtype=float)
        p = coef.shape[0] if coef.ndim == 1 else -1
        if coef.ndim != 1:
            raise ValueError(f"coef must be a vector, got shape {coef.shape}")
        if covariance.shape != (p, p):
            raise ValueError(
                f"covariance shape {covariance.shape} does not match coef length {p}"
            )
        _check_symmetric_psd(covariance, "covariance")
        if self.noise_var < 0:
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")
        if not 1 <= self.n_train < p:
            raise ValueError(
                f"need 1 <= n_train < p for the over-parameterized regime, "
                f"got n_train={self.n_train}, p={p}"
            )
        covariance_sqrt = psd_sqrt(covariance)
        for array in (covariance, coef, covariance_sqrt):
            array.setflags(write=False)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "covariance_sqrt", covariance_sqrt)

    @property
    def p(self) -> int:
        return self.coef.shape[0]


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean with its standard error; deterministic per (seed, trials)."""

    mean: float
    std_error: float
    trials: int


def _apply_pinv(kernel: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-inverse solve of a symmetric PSD kernel, or of each kernel in a
    stack (..., n, n), for a vector rhs (..., n) or a matrix rhs (..., n, k);
    eigenvalues up to n * max * PINV_RTOL are dropped.

    Returns (solution, kept): for one kernel the rank kept, for a stack the
    number of kernels kept at full rank.  Either way kept is below
    kernel.shape[0] exactly when some rank was dropped.
    """
    n = kernel.shape[-1]
    single = kernel.ndim == 2
    kernel = (kernel + np.swapaxes(kernel, -1, -2)) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(
        kernel.reshape((math.prod(kernel.shape[:-2]), n, n)))
    cutoff = n * np.max(eigenvalues, axis=-1, initial=0.0) * PINV_RTOL
    keep = eigenvalues > cutoff[:, None]
    ranks = np.sum(keep, axis=-1)
    vector = rhs.ndim == kernel.ndim - 1
    columns = rhs.reshape((ranks.size, n, 1 if vector else rhs.shape[-1]))
    # A dropped eigenvalue divides as inf, so its terms are exact zeros.
    # Each transposed basis is made contiguous, so the products run one gemv
    # or gemm per kernel with the same operands whatever the stack: a
    # kernel's solution does not depend on the kernels stacked with it.
    basis_t = np.ascontiguousarray(np.swapaxes(eigenvectors, -1, -2))
    divisors = np.where(keep, eigenvalues, np.inf)[..., None]
    solution = np.swapaxes(basis_t, -1, -2) @ ((basis_t @ columns) / divisors)
    solution = solution.reshape(rhs.shape)
    if single:
        return solution, int(ranks[0])
    return solution, int(np.sum(ranks == n))


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector over stacks of either, one gemv per vector as for a
    single 1-D vector, so each trial of a stack rounds as it would alone
    (vectors @ matrix.T, one gemm, need not)."""
    return (matrix @ vector[..., None])[..., 0]


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped to zero.

    The matrix must be symmetric PSD; RegressionProblem checks its
    covariance once, before taking the root.
    """
    matrix = np.asarray(matrix, dtype=float)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    root = (eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ eigenvectors.T
    return (root + root.T) / 2.0


def fit_ridgeless(
    transform: FeatureTransform, x_train: np.ndarray, y_train: np.ndarray
) -> np.ndarray:
    """Coefficients b = T X^T (X T X^T)^+ y of the minimum-complexity
    interpolant under the given feature transform T; it predicts x @ b.

    x_train (..., n, p) and y_train (..., n) may carry leading trial axes;
    then each trial is fitted and b is (..., p).
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    if x_train.ndim < 2:
        raise ValueError(f"x_train must be at least 2-D, got shape {x_train.shape}")
    if transform.p != x_train.shape[-1] or y_train.shape != x_train.shape[:-1]:
        raise ValueError(f"inconsistent shapes: transform size {transform.p}, "
                         f"x_train {x_train.shape}, y_train {y_train.shape}")
    x_train_t = np.swapaxes(x_train, -1, -2)
    dual_weights, _ = _apply_pinv(transform.apply(x_train) @ x_train_t, y_train)
    # One (1, p) row per trial, so each trial rounds as it would alone.
    return transform.apply(_matvec(x_train_t, dual_weights)[..., None, :])[..., 0, :]


def bias_conditional(
    transform: FeatureTransform, problem: RegressionProblem, x_train: np.ndarray
) -> float | np.ndarray:
    """Squared covariance-norm of the part of the problem's coef the mean
    predictor misses.

    Computes r = (I - T X^T (X T X^T)^+ X) coef and returns r^T covariance r,
    a float for one design x_train (n, p) and an array for a stack (..., n, p).
    """
    coef = problem.coef
    x_train = np.asarray(x_train, dtype=float)
    residual = (coef - fit_ridgeless(transform, x_train, x_train @ coef))[..., None, :]
    value = np.maximum(
        (residual @ problem.covariance @ np.swapaxes(residual, -1, -2))[..., 0, 0], 0.0)
    return float(value) if value.ndim == 0 else value


def _estimate(values: np.ndarray) -> RiskEstimate:
    trials = len(values)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RiskEstimate(mean, std_error, trials)


def _monte_carlo(
    trial_values: Callable[..., np.ndarray],
    shapes: tuple[tuple[int, ...], ...],
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Mean and standard error of the trial values over trials, where trial t
    draws standard normal arrays of the given shapes, in order, from
    trial_rng(seed, t).  Trials run in chunks: trial_values takes one stack
    per shape, trials on axis 0, and returns one value per trial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    values = np.empty(trials)
    for start, draws in trial_chunks(seed, trials, shapes):
        values[start:start + draws[0].shape[0]] = trial_values(*draws)
    return _estimate(values)


def bias_mc(
    transform: FeatureTransform,
    problem: RegressionProblem,
    trials: int = DEFAULT_BIAS_TRIALS,
    seed: int = 0,
) -> RiskEstimate:
    """Mean conditional bias over training designs drawn from the problem."""

    def trial_values(z: np.ndarray) -> np.ndarray:
        return bias_conditional(transform, problem, z @ problem.covariance_sqrt)

    return _monte_carlo(trial_values, ((problem.n_train, problem.p),), trials, seed)


def variance_mc(
    transform: FeatureTransform,
    problem: RegressionProblem,
    trials: int = DEFAULT_VARIANCE_TRIALS,
    seed: int = 0,
) -> RiskEstimate:
    """Label-noise contribution to the excess risk, averaged over designs.

    Per trial draws a standard normal design Z and evaluates
    noise_var * trace((Z S Z^T)^+^2  Z S^2 Z^T) = noise_var * ||(Z S Z^T)^+ Z S||_F^2
    with S the covariance-conjugated transform sqrt(cov) T sqrt(cov).
    """
    sqrt_cov = problem.covariance_sqrt
    conjugated = transform.apply(sqrt_cov) @ sqrt_cov
    conjugated = (conjugated + conjugated.T) / 2.0

    def trial_values(z: np.ndarray) -> np.ndarray:
        zs = z @ conjugated
        solution, _ = _apply_pinv(zs @ np.swapaxes(z, -1, -2), zs)
        return problem.noise_var * np.sum(solution**2, axis=(-2, -1))

    return _monte_carlo(trial_values, ((problem.n_train, problem.p),), trials, seed)


def excess_risk_mc(
    transform: FeatureTransform,
    problem: RegressionProblem,
    trials: int = DEFAULT_RISK_TRIALS,
    seed: int = 0,
    test_points: int = DEFAULT_RISK_TEST_POINTS,
) -> RiskEstimate:
    """Direct Monte Carlo of squared prediction error on fresh test draws.

    Per trial: draw a training set with noisy labels, fit, then average
    (x.coef - prediction)^2 over test_points fresh covariate draws.
    """
    if test_points < 1:
        raise ValueError(f"test_points must be >= 1, got {test_points}")
    sqrt_cov = problem.covariance_sqrt
    noise_scale = np.sqrt(problem.noise_var)

    def trial_values(z: np.ndarray, noise: np.ndarray, z_test: np.ndarray) -> np.ndarray:
        x_train = z @ sqrt_cov
        y_train = x_train @ problem.coef + noise_scale * noise
        fitted = fit_ridgeless(transform, x_train, y_train)
        x_test = z_test @ sqrt_cov
        errors = x_test @ problem.coef - _matvec(x_test, fitted)
        return np.mean(errors**2, axis=-1)

    shapes = ((problem.n_train, problem.p), (problem.n_train,), (test_points, problem.p))
    return _monte_carlo(trial_values, shapes, trials, seed)


def misalignment(transform: FeatureTransform, coef: np.ndarray) -> float:
    """Fraction of the transform's spectrum not aligned with coef, in [0, 1].

    1 - (u^T T u)^2 for the unit coef direction u and the unit-Frobenius T:
    zero when T is the coef outer product, one when coef lies in its null
    space.
    """
    coef = np.asarray(coef, dtype=float)
    coef_norm = float(np.linalg.norm(coef))
    if not 0.0 < coef_norm < math.inf:
        raise ValueError("coef must be nonzero and finite")
    unit = coef / coef_norm
    aligned = float(unit @ transform.apply(unit))
    return float(np.clip(1.0 - aligned**2, 0.0, 1.0))
