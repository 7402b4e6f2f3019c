"""Reference constructions that only the tests use.

The shift-basis form of the convolution operator is the oracle the stencil
and the closed form are held to, dense forms a transform's p x p matrix
as the Kronecker power of its factor, variance_lower_bound is the analytic
variance floor the estimators are checked against, eigh_pinv_solve is
the eigendecomposition pseudo-inverse solve the fast Cholesky path is held
to, and save_matrix_csv writes the covariance and coefficient files the
file-reading paths load.
"""

from __future__ import annotations

import itertools
from functools import reduce
from pathlib import Path

import numpy as np

from convkernel.fileio import format_float, write_text_atomic
from convkernel.kernels import ConvGeometry, FeatureTransform, Padding
from convkernel.regression import PINV_RTOL


def _shift_matrix_1d(p: int, shift: int, padding: Padding) -> np.ndarray:
    out = np.zeros((p, p))
    for row in range(p):
        col = row - shift
        if padding is Padding.CIRCULAR:
            out[row, col % p] = 1.0
        elif 0 <= col < p:
            out[row, col] = 1.0
    return out


def basis_matrices(geometry: ConvGeometry, padding: Padding) -> list[np.ndarray]:
    """Shift bases of the convolution operator, one per filter tap.

    Returns 3 matrices (1-D) ordered by shift -1, 0, +1, or 9 matrices
    (2-D) ordered row-major over shift pairs, each the Kronecker product
    of one 1-D basis per axis.  Conjugating by the shift-k basis moves
    entry (i, j) to (i+k, j+k); zero padding drops out-of-range entries,
    circular padding wraps them.
    """
    if not isinstance(padding, Padding):
        raise ValueError(f"unsupported padding: {padding!r}")
    axes = geometry.axes
    return [reduce(np.kron, [_shift_matrix_1d(n, k, padding) for n, k in zip(axes, taps)])
            for taps in itertools.product((-1, 0, 1), repeat=len(axes))]


def dense(transform: FeatureTransform) -> np.ndarray:
    """The p x p matrix of a transform: the power-th Kronecker power of its factor."""
    return reduce(np.kron, [transform.factor] * transform.power)


def variance_lower_bound(noise_var: float, n: int, p: int) -> float:
    """Floor noise_var * n / (p - n - 1) on the variance, attained at the
    inverse-covariance transform."""
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    if p <= n + 1:
        raise ValueError(f"bound diverges unless p > n + 1, got n={n}, p={p}")
    return noise_var * n / (p - n - 1)


def save_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Dense comma-separated rows, no header, 17 significant digits."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(format_float(v) for v in row) for row in matrix]
    write_text_atomic(path, "\n".join(lines) + "\n")


def eigh_pinv_solve(kernel: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Pseudo-inverse solve of one symmetric PSD kernel (n, n) for a vector
    or matrix rhs through its eigendecomposition, dropping eigenvalues up to
    n * max * PINV_RTOL; returns (solution, rank).  Each step is the one
    regression._apply_pinv takes for a kernel it does not certify, on a
    stack of one, so such a kernel's solution matches this bit for bit."""
    n = kernel.shape[-1]
    kernel = ((kernel + kernel.T) / 2.0)[None]
    columns = rhs.reshape((1, n, -1))
    eigenvalues, eigenvectors = np.linalg.eigh(kernel)
    cutoff = n * np.max(eigenvalues, axis=-1, initial=0.0) * PINV_RTOL
    keep = eigenvalues > cutoff[:, None]
    basis_t = np.ascontiguousarray(np.swapaxes(eigenvectors, -1, -2))
    divisors = np.where(keep, eigenvalues, np.inf)[..., None]
    solution = np.swapaxes(basis_t, -1, -2) @ ((basis_t @ columns) / divisors)
    return solution.reshape(rhs.shape), int(np.sum(keep))
