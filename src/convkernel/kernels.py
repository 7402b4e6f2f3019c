"""Linear convolutional kernel transforms.

The depth-d feature transform of a linear convolutional network is the
depth-0 PSD matrix after d applications of the convolution overlap
operator (a sum of shift-conjugations, one per filter tap), renormalized
to unit Frobenius norm.  This module builds the shift bases, applies the
operator as a direct stencil (for the shallowest depths, and as the
reference the tests hold the closed form to), computes deeper transforms
in closed form, and provides the closed-form spectra and infinite-depth
limits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
UNIT_NORM_ATOL = 1e-12
CONVERGENCE_MAX_ITER = 100_000
# Zero-padding depths up to this one iterate the stencil instead of using the
# closed form.  Both agree to about 1e-16, but ridgeless regression on pooled
# images amplifies a last-bit change of the depth-1 or depth-2 transform up
# to 1e-6 relative (Gram condition numbers near 5e10), and outputs recorded
# from the iterate are compared at that tolerance.
STENCIL_DEPTH_MAX = 2


class GeometryKind(Enum):
    ONE_D = "1d"
    TWO_D = "2d"


class Padding(Enum):
    ZERO = "zero"
    CIRCULAR = "circular"


class Architecture(Enum):
    FLATTENING = "flattening"
    POOLING = "pooling"


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial layout of the input: a line of p pixels or an s-by-s grid.

    For TWO_D, p must be a perfect square and pixels are flattened
    row-major: grid position (i, j) maps to index i*s + j.  Filters are
    3 taps wide (1-D) or 3x3 (2-D).
    """

    kind: GeometryKind
    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GeometryKind):
            raise ValueError(f"unsupported geometry kind: {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"pixel count must be >= 1, got {self.p}")
        if math.prod(self.axes) != self.p:
            raise ValueError(f"2-D geometry needs a perfect-square pixel count, got {self.p}")

    @property
    def side(self) -> int:
        if self.kind is not GeometryKind.TWO_D:
            raise ValueError("side is only defined for 2-D geometry")
        return math.isqrt(self.p)

    @property
    def axes(self) -> tuple[int, ...]:
        """Axis lengths, (p,) or (s, s), that pixels flatten row-major over."""
        return (self.p,) if self.kind is GeometryKind.ONE_D else (self.side, self.side)


def _check_symmetric_psd(matrix: np.ndarray, what: str) -> None:
    # Every comparison with NaN is false, so the tests below would pass it.
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{what} has non-finite entries")
    fro = float(np.linalg.norm(matrix))
    if fro == 0.0:
        return
    # The difference is antisymmetric, so its max is its max magnitude: no abs.
    asym = float(np.max(matrix - matrix.T))
    if asym > SYMMETRY_RTOL * fro:
        raise ValueError(f"{what} is not symmetric (max asymmetry {asym:.3e})")
    smallest = float(np.linalg.eigvalsh(matrix)[0])
    if smallest < -PSD_RTOL * fro:
        raise ValueError(f"{what} is not PSD (smallest eigenvalue {smallest:.3e})")


@dataclass(frozen=True)
class FeatureTransform:
    """A PSD feature-transform matrix together with how it was produced.

    depth is an integer for finite-depth iterates and math.inf for the
    closed-form limit.  The matrix has unit Frobenius norm.

    factors are PSD matrices whose Kronecker product, normalized, is the
    matrix: one s x s factor per axis for a closed-form zero-padding
    transform (the same array twice on a square grid), else the matrix
    alone.  Pass either the matrix, or None and factors=..., from which
    the matrix is formed; the PSD check then runs on each distinct factor
    instead of the p x p product.
    """

    matrix: np.ndarray | None
    geometry: ConvGeometry
    padding: Padding
    architecture: Architecture
    depth: int | float
    factors: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if self.factors and self.matrix is not None:
            raise ValueError("pass a transform's matrix or its factors, not both")
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors or (self.matrix,))
        p = self.geometry.p
        if (any(f.ndim != 2 or f.shape[0] != f.shape[1] for f in factors)
                or math.prod(f.shape[0] for f in factors) != p):
            shapes = " x ".join(str(f.shape) for f in factors)
            raise ValueError(f"matrix shape {shapes} does not match geometry p={p}")
        # If each factor's smallest eigenvalue is at least -PSD_RTOL times its
        # Frobenius norm, so is their normalized product's: a product of
        # eigenvalues is negative only through one negative factor eigenvalue,
        # and the others are at most their factors' norms.
        for factor in {id(f): f for f in factors}.values():
            _check_symmetric_psd(factor, "feature transform")
        if self.factors:
            matrix = reduce(np.kron, factors)
            matrix = matrix / np.linalg.norm(matrix)
        else:
            (matrix,) = factors
        if not np.all(np.isfinite(matrix)):
            raise ValueError("feature transform has non-finite entries")
        fro = float(np.linalg.norm(matrix))
        if abs(fro - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"normalized transform has Frobenius norm {fro!r}")
        for array in (matrix,) + factors:
            array.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class SpectralSummary:
    """Descending eigenvalues plus the sign-fixed unit leading eigenvector."""

    eigenvalues: np.ndarray
    leading_eigenvector: np.ndarray
    spectral_gap: float


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


def _shift_slices(size: int, shift: int) -> tuple[slice, slice]:
    # Destination and source ranges so dst[d] = src[d + shift] stays in range.
    lo = max(0, -shift)
    hi = size - max(0, shift)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def apply_conv_operator(
    matrix: np.ndarray, geometry: ConvGeometry, padding: Padding
) -> np.ndarray:
    """Apply the convolution overlap operator as a direct index-shift stencil.

    Entry (i, j) of the result sums the input entries shifted by each
    filter tap along both axes at once.  Accumulation order over taps is
    fixed so results are bit-reproducible.  feature_transforms iterates it
    only up to STENCIL_DEPTH_MAX; iterated with renormalization, it is the
    reference the closed form is tested against.
    """
    matrix = np.asarray(matrix, dtype=float)
    p = geometry.p
    if matrix.shape != (p, p):
        raise ValueError(f"matrix shape {matrix.shape} does not match geometry p={p}")
    if not isinstance(padding, Padding):
        raise ValueError(f"unsupported padding: {padding!r}")
    axes = geometry.axes
    grid = matrix.reshape(axes + axes)
    out = np.zeros_like(grid)
    for taps in itertools.product((-1, 0, 1), repeat=len(axes)):
        if padding is Padding.CIRCULAR:
            out += np.roll(grid, tuple(-k for k in taps) * 2, axis=tuple(range(grid.ndim)))
        else:
            dst, src = zip(*(_shift_slices(n, k) for n, k in zip(axes, taps)))
            out[dst + dst] += grid[src + src]
    return out.reshape(p, p)


def initial_transform(geometry: ConvGeometry, architecture: Architecture) -> np.ndarray:
    """Depth-0 matrix: identity (flattening) or all-ones (pooling), unit Frobenius."""
    if architecture is Architecture.FLATTENING:
        start = np.eye(geometry.p)
    elif architecture is Architecture.POOLING:
        start = np.ones((geometry.p, geometry.p))
    else:
        raise ValueError(f"unsupported architecture: {architecture!r}")
    return start / np.linalg.norm(start)


def _zero_padding_power(start: np.ndarray, depth: int) -> np.ndarray:
    """The 1-D zero-padding operator applied depth times to a symmetric matrix,
    up to a positive scale.

    The operator maps each diagonal i - j = offset to itself, acting on it
    as the all-ones tridiagonal Toeplitz matrix of its length L = p - offset.
    That matrix has the orthonormal sine eigenbasis sqrt(2/(L+1)) *
    sin(t*h*pi/(L+1)) with eigenvalues 1 + 2*cos(h*pi/(L+1)) (see
    toeplitz_spectrum), so each diagonal is projected on it, scaled by the
    eigenvalues' depth-th powers and mapped back.  Eigenvalues are divided
    by the largest over all diagonals (the main one's) so nothing overflows;
    the scale this drops is (1 + 2*cos(pi/(p+1)))**depth.
    """
    p = start.shape[0]
    largest = 1.0 + 2.0 * math.cos(math.pi / (p + 1))
    out = np.zeros((p, p))
    for offset in range(p):
        length = p - offset
        t = np.arange(length)
        diagonal = start[t, t + offset]
        if not diagonal.any():
            continue
        angles = np.arange(1, length + 1) * (math.pi / (length + 1))
        basis = math.sqrt(2.0 / (length + 1)) * np.sin(np.outer(t + 1, angles))
        scale = ((1.0 + 2.0 * np.cos(angles)) / largest) ** depth
        values = basis @ (scale * (basis.T @ diagonal))
        out[t, t + offset] = values
        out[t + offset, t] = values
    return out


def _feature_transform(
    depth: int, geometry: ConvGeometry, padding: Padding, architecture: Architecture
) -> FeatureTransform:
    """The unit-Frobenius depth-`depth` transform.

    Circular padding leaves both depth-0 matrices fixed (each tap's shift
    permutes the identity and the all-ones matrix onto themselves), so
    every depth is depth 0.  Under zero padding, depths up to
    STENCIL_DEPTH_MAX iterate the stencil, so depth 0 is initial_transform
    bit for bit and the next ones keep the iterate's bits; deeper ones are
    in closed form.  The operator acts on each axis's index pair of the
    axes + axes tensor separately, and both depth-0 matrices are Kronecker
    products of one factor per axis, so the transform is the product over
    geometry.axes of the 1-D transform on each axis (kron(V, V) in 2-D),
    and it keeps those factors.
    """
    if padding is Padding.ZERO and depth > STENCIL_DEPTH_MAX:
        # One factor per distinct axis length: a square grid computes it once.
        factors = {n: _zero_padding_power(initial_transform(ConvGeometry(GeometryKind.ONE_D, n),
                                                            architecture), depth)
                   for n in set(geometry.axes)}
        return FeatureTransform(None, geometry, padding, architecture, depth,
                                factors=tuple(factors[n] for n in geometry.axes))
    matrix = initial_transform(geometry, architecture)
    if padding is Padding.ZERO:
        for _ in range(depth):
            matrix = apply_conv_operator(matrix, geometry, padding)
            matrix /= np.linalg.norm(matrix)
    return FeatureTransform(matrix, geometry, padding, architecture, depth)


def feature_transforms(
    depths: Sequence[int],
    geometry: ConvGeometry,
    padding: Padding,
    architecture: Architecture,
) -> list[FeatureTransform]:
    """Feature transforms at the given strictly increasing depths.

    Each depth is computed on its own, beyond STENCIL_DEPTH_MAX in closed
    form (see _feature_transform) at a cost that does not depend on the
    depth; apply_conv_operator, iterated with renormalization, is the
    reference it matches.  The recursion's scale factor does not affect
    downstream regression quantities, so every transform has unit
    Frobenius norm.
    """
    depths = list(depths)
    if not depths:
        raise ValueError("depths must be nonempty")
    if any(d != int(d) or d < 0 for d in depths):
        raise ValueError(f"depths must be non-negative integers, got {depths}")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError(f"depths must be strictly increasing, got {depths}")
    if not isinstance(padding, Padding):
        raise ValueError(f"unsupported padding: {padding!r}")
    return [_feature_transform(int(d), geometry, padding, architecture) for d in depths]


def sine_profile(dim: int) -> np.ndarray:
    """Entries sin(i*pi/(dim+1)) for i = 1..dim; all strictly positive."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    i = np.arange(1, dim + 1)
    return np.sin(i * np.pi / (dim + 1))


def toeplitz_spectrum(dim: int) -> SpectralSummary:
    """Closed-form spectrum of the all-ones tridiagonal Toeplitz matrix.

    Eigenvalues are 1 + 2*cos(h*pi/(dim+1)) for h = 1..dim (already
    descending); the eigenvector for index h has entries proportional to
    sin(h*j*pi/(dim+1)).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    h = np.arange(1, dim + 1)
    eigenvalues = 1.0 + 2.0 * np.cos(h * np.pi / (dim + 1))
    leading = sine_profile(dim)
    leading = leading / np.linalg.norm(leading)
    gap = float(eigenvalues[0] - eigenvalues[1]) if dim >= 2 else 0.0
    return SpectralSummary(eigenvalues, leading, gap)


def tridiagonal_ones(dim: int) -> np.ndarray:
    """The dim-by-dim matrix with ones on the three central diagonals."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    out = np.eye(dim)
    idx = np.arange(dim - 1)
    out[idx, idx + 1] = 1.0
    out[idx + 1, idx] = 1.0
    return out


def limiting_transform(
    geometry: ConvGeometry, padding: Padding, architecture: Architecture
) -> FeatureTransform:
    """Infinite-depth limit of the normalized recursion.

    Zero padding drives every starting matrix to the same diagonal limit:
    sine-profile pixel weights in 1-D, the outer product of two sine
    profiles over grid coordinates in 2-D.  Circular padding leaves the
    normalized depth-0 matrix fixed, so the limit is identity (flattening)
    or all-ones (pooling).
    """
    if padding is Padding.CIRCULAR:
        limit = initial_transform(geometry, architecture)
    else:
        profiles = [sine_profile(n) for n in geometry.axes]
        limit = np.diag(reduce(np.multiply.outer, profiles).ravel())
        limit /= np.linalg.norm(limit)
    return FeatureTransform(limit, geometry, padding, architecture, math.inf)


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(vector)))
    if scale == 0.0:
        return vector
    nonzero = np.nonzero(np.abs(vector) > 1e-12 * scale)[0]
    if nonzero.size and vector[nonzero[0]] < 0:
        return -vector
    return vector


def symmetric_spectrum(matrix: np.ndarray) -> SpectralSummary:
    """Numerical eigendecomposition of a symmetric matrix, descending order."""
    matrix = np.asarray(matrix, dtype=float)
    fro = float(np.linalg.norm(matrix))
    asym = float(np.max(matrix - matrix.T)) if matrix.size else 0.0
    if fro > 0.0 and asym > SYMMETRY_RTOL * fro:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = eigenvalues[::-1].copy()
    leading = _fix_sign(eigenvectors[:, -1].copy())
    gap = float(eigenvalues[0] - eigenvalues[1]) if eigenvalues.size >= 2 else 0.0
    return SpectralSummary(eigenvalues, leading, gap)


def leading_eigenvector(transform: FeatureTransform) -> np.ndarray:
    """Sign-fixed unit leading eigenvector of transform.matrix.

    The Kronecker product of each factor's leading eigenvector (the top
    eigenvalue of a product of PSD factors is the product of theirs), so
    each distinct factor is solved once, at its own size.  Under a tied top
    eigenvalue any unit vector of its eigenspace is leading, and the one
    returned may differ from a dense solve's.
    """
    distinct = {id(f): f for f in transform.factors}
    vectors = {key: symmetric_spectrum(f).leading_eigenvector for key, f in distinct.items()}
    return _fix_sign(reduce(np.kron, [vectors[id(f)] for f in transform.factors]))
