"""Ridgeless regression under a feature transform, with risk estimators.

The predictor is x^T b with coefficients b = T X^T (X T X^T)^+ y for a
FeatureTransform T, read only through T.apply.  Monte Carlo estimators
quantify its bias (error of the mean predictor over training-set draws),
variance (label-noise contribution), and total excess risk; the three are
related by risk = bias + variance.  Every Gram X T X^T is solved by one
PSD pseudo-inverse kernel, _apply_pinv: through its Cholesky factor where
that factor certifies full rank under the PINV_RTOL cutoff, with the
factor's inverse taken by blocked forward substitution, and through its
eigendecomposition otherwise; the eigendecomposition runs only for the
kernels that fail the certificate.  Each estimator takes a sequence of
transforms and draws every chunk of trials once for all of them, so the
transforms ride on common random numbers; each transform's estimate is
bit for bit the one it gets alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from convkernel.kernels import FeatureTransform, _check_symmetric_psd, cholesky_or_nan, scaled_norm
from convkernel.rng import trial_chunks

PINV_RTOL = 1e-12
# Triangular inverses of at most this order are taken row by row; larger
# ones are split in 2 x 2 blocks, so their work is matrix products.
SUBSTITUTION_MAX = 16


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
        if not 0 <= self.noise_var < math.inf:
            raise ValueError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        if isinstance(self.n_train, bool) or not isinstance(self.n_train, numbers.Integral):
            raise ValueError(f"n_train must be an integer, got {self.n_train!r}")
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
    """Monte Carlo means with their standard errors; deterministic per
    (seed, trials).

    mean and std_error hold one float per transform, in the order the
    estimator was given them, and trials is the trial count of each;
    estimate reduces a (transforms, trials) array of per-trial values to
    one.
    """

    mean: tuple[float, ...]
    std_error: tuple[float, ...]
    trials: int


def _lower_triangular_inverse(factors: np.ndarray) -> np.ndarray:
    """Inverse of each lower-triangular matrix of a stack (k, n, n), read
    from its lower triangle.

    Up to SUBSTITUTION_MAX rows it is forward substitution, one stacked
    (k, 1, i) @ (k, i, i) product per row i with the row pre-scaled by
    minus the diagonal's reciprocal; above, the 2 x 2 block split
    X11 = L11^-1, X22 = L22^-1, X21 = -X22 (L21 X11).  Both are as accurate
    as a general inverse (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 14).  Every product runs once per matrix on operands of
    the same strides whatever k, so each inverse's bits depend on its own
    matrix only.  A NaN entry or a zero diagonal leaves NaN or inf in the
    inverse, as does an inverse that overflows; no warning is raised.
    """
    n = factors.shape[-1]
    inverses = np.zeros_like(factors)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n > SUBSTITUTION_MAX:
            half = n // 2
            leading = _lower_triangular_inverse(factors[:, :half, :half])
            trailing = _lower_triangular_inverse(factors[:, half:, half:])
            inverses[:, :half, :half] = leading
            inverses[:, half:, half:] = trailing
            inverses[:, half:, :half] = -(trailing @ (factors[:, half:, :half] @ leading))
            return inverses
        reciprocals = 1.0 / np.diagonal(factors, axis1=-2, axis2=-1)
        scaled = factors * -reciprocals[:, :, None]
        diagonal = np.arange(n)
        inverses[:, diagonal, diagonal] = reciprocals
        for i in range(1, n):
            inverses[:, i:i + 1, :i] = scaled[:, i:i + 1, :i] @ inverses[:, :i, :i]
    return inverses


def _apply_pinv(kernel: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-inverse solve of a symmetric PSD kernel, or of each kernel in a
    stack (..., n, n), for a vector rhs (..., n) or a matrix rhs (..., n, k);
    eigenvalues up to n * max * PINV_RTOL are dropped.

    A kernel K with Cholesky factor L is certified when
    2 * n * PINV_RTOL * trace(K) * ||L^-1||_F^2 < 1: its least eigenvalue,
    at least 1 / ||L^-1||_F^2, is then above the cutoff n * max * PINV_RTOL
    (max <= trace(K)) with a factor 2 to spare for rounding, so it keeps
    full rank and is solved as L^-T (L^-1 rhs), with L^-1 from
    _lower_triangular_inverse.  Only when some kernel fails the certificate
    does an eigendecomposition run, on those kernels alone, dropping what
    the cutoff drops.  Each kernel's path and bits depend on that kernel
    alone, not on the kernels stacked with it.

    Returns (solution, kept): for one kernel the rank kept, for a stack the
    number of kernels kept at full rank (certified kernels count as full
    rank).  Either way kept is below kernel.shape[0] exactly when some rank
    was dropped.
    """
    n = kernel.shape[-1]
    single = kernel.ndim == 2
    kernel = (kernel + np.swapaxes(kernel, -1, -2)) / 2.0
    kernels = kernel.reshape((math.prod(kernel.shape[:-2]), n, n))
    vector = rhs.ndim == kernel.ndim - 1
    columns = rhs.reshape((len(kernels), n, 1 if vector else rhs.shape[-1]))
    # A kernel that does not factor (a zero kernel, say) has a NaN factor,
    # whose NaN inverse fails the certificate.
    inverses = _lower_triangular_inverse(cholesky_or_nan(kernels))
    # The product form holds for n = 0 too; an inverse overflowing to inf
    # fails the certificate.
    with np.errstate(over="ignore"):
        certified = (2 * n * PINV_RTOL * np.trace(kernels, axis1=-2, axis2=-1)
                     * np.sum(np.square(inverses), axis=(-2, -1)) < 1.0)
    rest = ~certified
    solution = np.empty(columns.shape)
    # Boolean indexing copies each operand contiguous, so the products run
    # one gemv or gemm per kernel with the same operands whatever the stack.
    factor_inverses = inverses[certified]
    solution[certified] = (np.swapaxes(factor_inverses, -1, -2)
                           @ (factor_inverses @ columns[certified]))
    kept = int(np.sum(certified))
    if rest.any():
        eigenvalues, eigenvectors = np.linalg.eigh(kernels[rest])
        cutoff = n * np.max(eigenvalues, axis=-1, initial=0.0) * PINV_RTOL
        keep = eigenvalues > cutoff[:, None]
        ranks = np.sum(keep, axis=-1)
        kept += int(np.sum(ranks == n))
        # A dropped eigenvalue divides as inf, so its terms are exact zeros.
        basis_t = np.ascontiguousarray(np.swapaxes(eigenvectors, -1, -2))
        divisors = np.where(keep, eigenvalues, np.inf)[..., None]
        solution[rest] = np.swapaxes(basis_t, -1, -2) @ ((basis_t @ columns[rest]) / divisors)
    solution = solution.reshape(rhs.shape)
    if single:
        return solution, n if certified[0] else int(ranks[0])
    return solution, kept


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


def estimate(values: np.ndarray) -> RiskEstimate:
    """Mean and standard error of each row of values (k, trials), one trial
    per entry.  A C-contiguous row reduces as it would alone, bit for bit."""
    trials = values.shape[-1]
    mean = np.mean(values, axis=-1)
    if trials > 1:
        std_error = np.std(values, axis=-1, ddof=1) / np.sqrt(trials)
    else:
        std_error = np.zeros_like(mean)
    return RiskEstimate(tuple(mean.tolist()), tuple(std_error.tolist()), trials)


def _monte_carlo(
    chunk_values: Callable[..., Iterator[np.ndarray]],
    shapes: tuple[tuple[int, ...], ...],
    count: int,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Mean and standard error of each of count transforms' trial values
    over trials, where trial t draws standard normal arrays of the
    given shapes, in order, from trial_rng(seed, t).  Trials run in chunks,
    each drawn once: chunk_values takes one stack per shape, trials on axis
    0, and yields each transform's values in turn, one per trial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # One contiguous row per transform, so each reduces as it would alone.
    values = np.empty((count, trials))
    for start, draws in trial_chunks(seed, trials, shapes):
        stop = start + draws[0].shape[0]
        for row, chunk in zip(values, chunk_values(*draws), strict=True):
            row[start:stop] = chunk
    return estimate(values)


def bias_mc(
    transforms: Sequence[FeatureTransform],
    problem: RegressionProblem,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Mean conditional bias of each transform over training designs drawn
    from the problem, the same designs for every transform."""

    def chunk_values(z: np.ndarray) -> Iterator[np.ndarray]:
        x_train = z @ problem.covariance_sqrt
        for transform in transforms:
            yield bias_conditional(transform, problem, x_train)

    shapes = ((problem.n_train, problem.p),)
    return _monte_carlo(chunk_values, shapes, len(transforms), trials, seed)


def variance_mc(
    transforms: Sequence[FeatureTransform],
    problem: RegressionProblem,
    trials: int,
    seed: int,
) -> RiskEstimate:
    """Label-noise contribution to the excess risk of each transform,
    averaged over designs, the same designs for every transform.

    Per trial draws a standard normal design Z and evaluates
    noise_var * trace((Z S Z^T)^+^2  Z S^2 Z^T) = noise_var * ||(Z S Z^T)^+ Z S||_F^2
    with S the covariance-conjugated transform sqrt(cov) T sqrt(cov); one
    p x p S per transform is held while the estimator runs.
    """
    sqrt_cov = problem.covariance_sqrt
    conjugated = []
    for transform in transforms:
        matrix = transform.apply(sqrt_cov) @ sqrt_cov
        conjugated.append((matrix + matrix.T) / 2.0)

    def noise_energy(zs: np.ndarray, z_t: np.ndarray) -> np.ndarray:
        solution, _ = _apply_pinv(zs @ z_t, zs)
        return problem.noise_var * np.sum(solution**2, axis=(-2, -1))

    def chunk_values(z: np.ndarray) -> Iterator[np.ndarray]:
        # A transform's temporaries live in one call, so none is held while
        # the next transform is solved.
        z_t = np.swapaxes(z, -1, -2)
        for matrix in conjugated:
            yield noise_energy(z @ matrix, z_t)

    shapes = ((problem.n_train, problem.p),)
    return _monte_carlo(chunk_values, shapes, len(transforms), trials, seed)


def excess_risk_mc(
    transforms: Sequence[FeatureTransform],
    problem: RegressionProblem,
    trials: int,
    seed: int,
    test_points: int,
) -> RiskEstimate:
    """Direct Monte Carlo of squared prediction error on fresh test draws,
    for each transform on the same draws.

    Per trial: draw a training set with noisy labels, fit, then average
    (x.coef - prediction)^2 over test_points fresh covariate draws.
    """
    if test_points < 1:
        raise ValueError(f"test_points must be >= 1, got {test_points}")
    sqrt_cov = problem.covariance_sqrt
    noise_scale = np.sqrt(problem.noise_var)

    def chunk_values(
        z: np.ndarray, noise: np.ndarray, z_test: np.ndarray
    ) -> Iterator[np.ndarray]:
        x_train = z @ sqrt_cov
        y_train = x_train @ problem.coef + noise_scale * noise
        x_test = z_test @ sqrt_cov
        y_test = x_test @ problem.coef
        for transform in transforms:
            fitted = fit_ridgeless(transform, x_train, y_train)
            errors = y_test - _matvec(x_test, fitted)
            yield np.mean(errors**2, axis=-1)

    shapes = ((problem.n_train, problem.p), (problem.n_train,), (test_points, problem.p))
    return _monte_carlo(chunk_values, shapes, len(transforms), trials, seed)


def misalignment(transform: FeatureTransform, coef: np.ndarray) -> float:
    """Fraction of the transform's spectrum not aligned with coef, in [0, 1].

    1 - (u^T T u)^2 for the unit coef direction u and the unit-Frobenius T:
    zero when T is the coef outer product, one when coef lies in its null
    space.
    """
    coef = np.asarray(coef, dtype=float)
    coef_norm = scaled_norm(coef)
    if not 0.0 < coef_norm < math.inf:
        raise ValueError("coef must be nonzero and finite")
    unit = coef / coef_norm
    aligned = float(unit @ transform.apply(unit))
    return float(np.clip(1.0 - aligned**2, 0.0, 1.0))
