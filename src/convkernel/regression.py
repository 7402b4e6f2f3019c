"""Ridgeless regression under a feature transform, with risk estimators.

The predictor is x^T b with coefficients b = T X^T (X T X^T)^+ y for a
PSD transform T.  Monte Carlo estimators quantify its bias (error of the mean
predictor over training-set draws), variance (label-noise contribution),
and total excess risk; the three are related by risk = bias + variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from convkernel.kernels import _check_symmetric_psd
from convkernel.rng import trial_chunks

PINV_RTOL = 1e-12
DEFAULT_BIAS_TRIALS = 500
DEFAULT_VARIANCE_TRIALS = 2000
DEFAULT_RISK_TRIALS = 500
DEFAULT_RISK_TEST_POINTS = 256


@dataclass(frozen=True)
class RegressionProblem:
    """Population model: rows x ~ N(0, covariance), y = x.coef + noise.

    covariance_sqrt, the PSD root the estimators draw designs with, is
    computed once here, after the covariance is checked.
    """

    covariance: np.ndarray
    coef: np.ndarray
    noise_var: float
    n_train: int
    covariance_sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        covariance = np.asarray(self.covariance, dtype=float)
        coef = np.asarray(self.coef, dtype=float)
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
    seed: int


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
    ranks = np.sum(eigenvalues > cutoff[:, None], axis=-1)
    vector = rhs.ndim == kernel.ndim - 1
    columns = rhs.reshape((ranks.size, n, 1 if vector else rhs.shape[-1]))
    solution = np.zeros(columns.shape)
    # Eigenvalues ascend, so the kept ones are the trailing `rank`.  Each
    # (n, rank) basis is column-major, the layout of eigenvectors[:, keep]:
    # the products then run one gemv or gemm per kernel with the same
    # operands whatever the stack, so a kernel's solution does not depend
    # on the kernels stacked with it.
    for rank in set(ranks.tolist()) - {0}:
        group = ranks == rank
        basis_t = np.ascontiguousarray(
            np.swapaxes(eigenvectors[group][..., n - rank:], -1, -2))
        kept = eigenvalues[group][:, n - rank:, None]
        solution[group] = np.swapaxes(basis_t, -1, -2) @ ((basis_t @ columns[group]) / kept)
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
    transform: np.ndarray, x_train: np.ndarray, y_train: np.ndarray
) -> np.ndarray:
    """Coefficients b = T X^T (X T X^T)^+ y of the minimum-complexity
    interpolant under the given feature transform T; it predicts x @ b.

    x_train (..., n, p) and y_train (..., n) may carry leading trial axes;
    then each trial is fitted and b is (..., p).  The transform must be
    symmetric PSD; callers check that once, where it enters
    (FeatureTransform, the Monte Carlo estimators), not per fit.
    """
    transform = np.asarray(transform, dtype=float)
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    if x_train.ndim < 2:
        raise ValueError(f"x_train must be at least 2-D, got shape {x_train.shape}")
    p = x_train.shape[-1]
    if transform.shape != (p, p):
        raise ValueError(
            f"transform shape {transform.shape} does not match feature count {p}"
        )
    if y_train.shape != x_train.shape[:-1]:
        raise ValueError(
            f"y_train shape {y_train.shape} does not match rows {x_train.shape[:-1]}"
        )
    x_train_t = np.swapaxes(x_train, -1, -2)
    dual_weights, _ = _apply_pinv(x_train @ transform @ x_train_t, y_train)
    return _matvec(transform, _matvec(x_train_t, dual_weights))


def bias_conditional(
    transform: np.ndarray,
    coef: np.ndarray,
    covariance: np.ndarray,
    x_train: np.ndarray,
) -> float | np.ndarray:
    """Squared covariance-norm of the part of coef the mean predictor misses.

    Computes r = (I - T X^T (X T X^T)^+ X) coef and returns r^T covariance r,
    a float for one design x_train (n, p) and an array for a stack (..., n, p).
    """
    transform = np.asarray(transform, dtype=float)
    coef = np.asarray(coef, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    x_train = np.asarray(x_train, dtype=float)
    p = coef.shape[0]
    if transform.shape != (p, p) or covariance.shape != (p, p) or x_train.shape[-1] != p:
        raise ValueError(
            f"inconsistent shapes: transform {transform.shape}, covariance "
            f"{covariance.shape}, x_train {x_train.shape}, coef {coef.shape}"
        )
    residual = (coef - fit_ridgeless(transform, x_train, x_train @ coef))[..., None, :]
    value = np.maximum((residual @ covariance @ np.swapaxes(residual, -1, -2))[..., 0, 0], 0.0)
    return float(value) if value.ndim == 0 else value


def _estimate(values: np.ndarray, trials: int, seed: int) -> RiskEstimate:
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RiskEstimate(mean, std_error, trials, seed)


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
    return _estimate(values, trials, seed)


def bias_mc(
    transform: np.ndarray,
    problem: RegressionProblem,
    trials: int = DEFAULT_BIAS_TRIALS,
    seed: int = 0,
) -> RiskEstimate:
    """Mean conditional bias over training designs drawn from the problem."""
    _check_symmetric_psd(np.asarray(transform, dtype=float), "transform")

    def trial_values(z: np.ndarray) -> np.ndarray:
        return bias_conditional(
            transform, problem.coef, problem.covariance, z @ problem.covariance_sqrt
        )

    return _monte_carlo(trial_values, ((problem.n_train, problem.p),), trials, seed)


def variance_mc(
    transform: np.ndarray,
    problem: RegressionProblem,
    trials: int = DEFAULT_VARIANCE_TRIALS,
    seed: int = 0,
) -> RiskEstimate:
    """Label-noise contribution to the excess risk, averaged over designs.

    Per trial draws a standard normal design Z and evaluates
    noise_var * trace((Z S Z^T)^+^2  Z S^2 Z^T) = noise_var * ||(Z S Z^T)^+ Z S||_F^2
    with S the covariance-conjugated transform sqrt(cov) T sqrt(cov).
    """
    _check_symmetric_psd(np.asarray(transform, dtype=float), "transform")
    sqrt_cov = problem.covariance_sqrt
    conjugated = sqrt_cov @ transform @ sqrt_cov
    conjugated = (conjugated + conjugated.T) / 2.0

    def trial_values(z: np.ndarray) -> np.ndarray:
        zs = z @ conjugated
        solution, _ = _apply_pinv(zs @ np.swapaxes(z, -1, -2), zs)
        return problem.noise_var * np.sum(solution**2, axis=(-2, -1))

    return _monte_carlo(trial_values, ((problem.n_train, problem.p),), trials, seed)


def excess_risk_mc(
    transform: np.ndarray,
    problem: RegressionProblem,
    trials: int = DEFAULT_RISK_TRIALS,
    seed: int = 0,
    test_points: int = DEFAULT_RISK_TEST_POINTS,
) -> RiskEstimate:
    """Direct Monte Carlo of squared prediction error on fresh test draws.

    Per trial: draw a training set with noisy labels, fit, then average
    (x.coef - prediction)^2 over test_points fresh covariate draws.
    """
    _check_symmetric_psd(np.asarray(transform, dtype=float), "transform")
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


def variance_lower_bound(noise_var: float, n: int, p: int) -> float:
    """Floor noise_var * n / (p - n - 1) on the variance, attained at the
    inverse-covariance transform."""
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    if p <= n + 1:
        raise ValueError(f"bound diverges unless p > n + 1, got n={n}, p={p}")
    return noise_var * n / (p - n - 1)


def misalignment(transform: np.ndarray, coef: np.ndarray) -> float:
    """Fraction of the transform's spectrum not aligned with coef, in [0, 1].

    Zero when the transform is a multiple of the coef outer product, one
    when coef lies in its null space; invariant to scaling the transform.
    """
    transform = np.asarray(transform, dtype=float)
    coef = np.asarray(coef, dtype=float)
    coef_norm = float(np.linalg.norm(coef))
    fro = float(np.linalg.norm(transform))
    if coef_norm == 0.0:
        raise ValueError("coef must be nonzero")
    if fro == 0.0:
        raise ValueError("transform must be nonzero")
    unit = coef / coef_norm
    aligned = float(unit @ transform @ unit)
    return float(np.clip(1.0 - (aligned / fro) ** 2, 0.0, 1.0))
