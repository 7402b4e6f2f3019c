"""Linear convolutional kernel transforms.

The depth-d feature transform of a linear convolutional network is the
depth-0 PSD matrix after d applications of the convolution overlap
operator (a sum of shift-conjugations, one per filter tap), renormalized
to unit Frobenius norm.  This module applies the operator as a direct
stencil (for the zero-padding depths a caller names as dense, and as the
reference the tests hold the closed form to), builds every other
transform as a Kronecker power of one axis factor (depth 0 is the start
itself; under zero padding every deeper factor of one call comes from one
batched pass, one real FFT per nonzero diagonal), and provides numerical
spectra.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
# A Frobenius norm below this is recomputed from the scaled matrix.  Above it,
# squares that underflow (each below about 2e-308) move the sum of squares
# (at least 1e-280) by less than an ulp, for any matrix that fits in memory.
TINY_NORM = 1e-140
# By default, these zero-padding depths iterate the stencil from the dense
# start instead of using the closed form.  Both agree to about 1e-13 of the
# largest entry (the 28x28 pooling transform at depth 2), but ridgeless
# regression on pooled images amplifies a last-bit change of the depth-1 or
# depth-2 transform up to 1e-6 relative (Gram condition numbers near 5e10),
# and outputs recorded from the iterate are compared at that tolerance.
# Depth 0 is not among them: its pooled Gram has rank one, far from the
# pinv cutoff, so the factored start serves.  The eigenvector gallery, which
# nothing pins at depths 1 and 2, passes {0}: the eigh rounding noise of its
# dense depth-0 start is what its recorded depth-0 image holds.
DENSE_DEPTHS = frozenset({1, 2})
DEPTH_MAX = 2**63 - 1  # the largest int64, so every depth is a numpy integer


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


def _check_finite_symmetric(matrix: np.ndarray, what: str) -> float:
    """Raise unless matrix and its Frobenius norm are finite and it is
    symmetric to SYMMETRY_RTOL of that norm; return the norm."""
    # Every comparison with NaN is false, so the tests below would pass it.
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{what} has non-finite entries")
    # np.linalg.norm sums squares, which overflow for entries above about 1e154
    # and lose precision below about 1e-154: a norm under TINY_NORM is taken
    # again as m * ||A / m||, m the largest magnitude, unless m is subnormal.
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(matrix))
    if fro == math.inf:
        raise ValueError(f"{what} is too large (its Frobenius norm overflows)")
    if fro < TINY_NORM:
        largest = float(np.max(np.abs(matrix), initial=0.0))
        if 0.0 < largest < sys.float_info.min:
            raise ValueError(f"{what} is too small (its entries are subnormal)")
        if largest > 0.0:
            fro = largest * float(np.linalg.norm(matrix / largest))
    # The difference is antisymmetric, so its max is its max magnitude: no abs.
    # It is taken 16 rows at a time, so the temporary is 16 x n, not n x n
    # (100 KB at n = 784, under glibc's initial 128 KiB mmap threshold).
    asym = 0.0
    for first in range(0, matrix.shape[0], 16):
        block = matrix[first:first + 16] - matrix[:, first:first + 16].T
        asym = max(asym, float(np.max(block, initial=0.0)))
    if asym > SYMMETRY_RTOL * fro:
        raise ValueError(f"{what} is not symmetric (max asymmetry {asym:.3e})")
    return fro


def cholesky_or_nan(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix of a stack (k, n, n), read from
    its lower triangle; all NaN for a matrix that does not factor.

    The stack is factored in one call; when that raises, each matrix of a
    larger stack is factored alone, so one failure spoils none of its
    stackmates and each factor's bits depend on its own matrix only.  A
    one-matrix stack is not factored again: it would fail again.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.full_like(stack, np.nan)
        for factor, matrix in zip(factors, stack if len(stack) > 1 else ()):
            with contextlib.suppress(np.linalg.LinAlgError):
                factor[...] = np.linalg.cholesky(matrix)
        return factors


def _check_symmetric_psd(matrix: np.ndarray, what: str) -> float:
    """_check_finite_symmetric, then PSD to PSD_RTOL of the norm: raise unless
    the smallest eigenvalue of matrix (of its lower triangle, as eigvalsh
    reads it) is at least -PSD_RTOL * fro; returns the norm fro.

    A Cholesky factorization certifies most matrices without an eigen-solve.
    With unit roundoff u and g = (n + 1) u / (1 - (n + 1) u), B = fl(matrix
    / fro + s I), s = PSD_RTOL / 2, is factored.  If that succeeds, B + E is
    PSD with ||E||_2 <= g tr(B) / (1 - g) (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), and rounding the scale and the shift
    moves B by less than 4u in norm.  So the smallest eigenvalue of
    matrix / fro is at least -(s + 2 g tr(B) / (1 - g) + 4u), where the
    factor 2 covers the rounding of the computed trace, and the matrix is
    certified when

        2 g tr(B) / (1 - g) + 4u <= PSD_RTOL / 2.

    Otherwise eigvalsh decides, and it alone builds the error message: the
    factorization fails, or the bound is too loose (tr(B) <= sqrt(n) + n s,
    so every PSD matrix up to n of about 3700 can be certified).
    """
    fro = _check_finite_symmetric(matrix, what)
    if fro == 0.0:
        return fro
    n = matrix.shape[0]
    shifted = matrix / fro
    shifted.flat[::n + 1] += PSD_RTOL / 2
    unit = np.finfo(float).eps / 2
    gamma = (n + 1) * unit / (1 - (n + 1) * unit)
    # A matrix that does not factor comes back all NaN.
    if (2 * gamma * float(np.trace(shifted)) / (1 - gamma) + 4 * unit <= PSD_RTOL / 2
            and not np.isnan(cholesky_or_nan(shifted[None])[0, 0, 0])):
        return fro
    del shifted  # eigvalsh makes its own copy
    smallest = float(np.linalg.eigvalsh(matrix)[0])
    if smallest < -PSD_RTOL * fro:
        raise ValueError(f"{what} is not PSD (smallest eigenvalue {smallest:.3e})")
    return fro


@dataclass(frozen=True)
class FeatureTransform:
    """A PSD feature transform T on p pixels: the power-th Kronecker power of
    one symmetric PSD factor, power 1 on a line or a dense p x p matrix and
    power 2 on an s x s grid (one copy per axis).  The factor f is replaced
    at construction by a new, read-only f / ||f||, so T has unit Frobenius
    norm and is exactly the power of the stored factor.
    """

    factor: np.ndarray
    power: int = 1

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=float)
        if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
            raise ValueError(f"a transform takes a square factor, got shape {factor.shape}")
        if not isinstance(self.power, int) or self.power not in (1, 2):
            raise ValueError(f"a transform's power must be 1 or 2, got {self.power!r}")
        # The power's eigenvalues are products of the factor's: one check covers it.
        norm = _check_symmetric_psd(factor, "feature transform")
        if norm == 0.0:
            raise ValueError("feature transform has a zero factor")
        object.__setattr__(self, "factor", factor / norm)
        self.factor.setflags(write=False)

    @property
    def p(self) -> int:
        return self.factor.shape[0] ** self.power

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T x over the last axis of x, which has length p.

        Power 1 is one product, x @ f.T.  Power 2 acts on the (..., s, s)
        grid of each vector as f @ grid @ f.T, which is kron(f, f) on its
        row-major flattening, without forming T.
        """
        f = self.factor
        if self.power == 1:
            return x @ f.T
        grid = x.reshape(x.shape[:-1] + f.shape)
        return (f @ grid @ f.T).reshape(x.shape)


def apply_conv_operator(
    matrix: np.ndarray, geometry: ConvGeometry, padding: Padding
) -> np.ndarray:
    """Apply the convolution overlap operator as a direct index-shift stencil.

    Entry (i, j) of the result sums the input entries shifted by each
    filter tap along both axes at once: the (axes + axes) grid is padded
    once, with zeros or by wrapping, and each tap adds one window of it.
    Accumulation order over taps is fixed so results are bit-reproducible.
    feature_transforms iterates it only for the depths in dense_depths;
    iterated with renormalization, it is the reference the closed form is
    tested against.
    """
    matrix = np.asarray(matrix, dtype=float)
    p = geometry.p
    if matrix.shape != (p, p):
        raise ValueError(f"matrix shape {matrix.shape} does not match geometry p={p}")
    if not isinstance(padding, Padding):
        raise ValueError(f"unsupported padding: {padding!r}")
    axes = geometry.axes
    grid = matrix.reshape(axes + axes)
    padded = np.pad(grid, 1, mode="wrap" if padding is Padding.CIRCULAR else "constant")
    out = np.zeros_like(grid)
    for taps in itertools.product((-1, 0, 1), repeat=len(axes)):
        out += padded[tuple(slice(1 + k, 1 + k + n) for n, k in zip(axes * 2, taps * 2))]
    return out.reshape(p, p)


def _start(n: int, architecture: Architecture) -> np.ndarray:
    """Unnormalized depth-0 matrix on n pixels: identity or all-ones."""
    return np.eye(n) if architecture is Architecture.FLATTENING else np.ones((n, n))


def _zero_padding_power(n: int, architecture: Architecture,
                        depths: Sequence[int]) -> np.ndarray:
    """The 1-D zero-padding operator applied depth times to the depth-0
    matrix on n pixels, up to a positive scale, for each depth: a stack of
    shape (len(depths), n, n).

    The operator maps each diagonal i - j = offset to itself, acting on it
    as the all-ones tridiagonal Toeplitz matrix of its length m = n - offset,
    whose eigenvalue h (h = 1..m) is 1 + 2*cos(h*pi/(m+1)) with the sine
    (DST-I) eigenvector sqrt(2/(m+1)) * sin(t*h*pi/(m+1)), t = 1..m.  Each
    nonzero start diagonal (all n under pooling, the main one under
    flattening) is all ones, whose coefficient h is sqrt(2/(m+1)) *
    cot(h*pi/(2(m+1))) for odd h and 0 for even h.  Coefficients are
    scaled by their eigenvalues' depth-th powers, divided by the largest
    over all diagonals (the main one's h = 1, so its ratio is exactly 1 and
    nothing overflows or vanishes), and each diagonal is mapped back by
    one DST-I: the imaginary part of one real FFT of length 2(m+1).  The
    scale this drops is (1 + 2*cos(pi/(n+1)))**depth.

    Everything but the powers is computed once per call, and each nonzero
    diagonal takes one FFT over every depth's row.  FFT rows are computed
    independently, and each depth's powers are taken on their own, so a
    depth's slice has the same bits whichever depths share the call.  The
    coefficients hold len(depths) * n * (n + 1) floats under pooling (n + 1
    under flattening), and the stack len(depths) * n * n.
    """
    diagonals = n if architecture is Architecture.POOLING else 1
    lengths = np.arange(n, n - diagonals, -1)[:, None]
    h = np.arange(n + 1)
    odd = (h % 2 == 1) & (h <= lengths)
    # Masked entries take angle pi/2, where every factor below is finite.
    angles = np.where(odd, h * np.pi / (lengths + 1), np.pi / 2)
    ratios = np.where(odd, 1.0 + 2.0 * np.cos(angles), 0.0)
    ratios /= ratios[0, 1]
    scale = 2.0 / (lengths + 1) / np.tan(angles / 2)
    coefficients = np.empty((len(depths),) + odd.shape)
    for block, depth in zip(coefficients, depths):
        # One power per depth, with an int exponent: a broadcast power over
        # an array of depths takes numpy's vectorized pow, which rounds unlike
        # the int path (2 is a plain square) and by the array's shape, so a
        # depth's bits would depend on its batch.
        block[...] = np.where(odd, scale * ratios**depth, 0.0)
    out = np.zeros((len(depths), n, n))
    flat = out.reshape(len(depths), n * n)
    for m, rows in zip(lengths[:, 0], coefficients.transpose(1, 0, 2)):
        values = -np.fft.rfft(rows[:, :m + 1], 2 * (m + 1)).imag[:, 1:m + 1]
        flat[:, n - m::n + 1][:, :m] = values
        flat[:, (n - m) * n::n + 1][:, :m] = values
    return out


def _stencil_transform(depth: int, geometry: ConvGeometry, padding: Padding,
                       architecture: Architecture) -> FeatureTransform:
    """The stencil iterated depth times from the unnormalized dense p x p
    start, normalizing before each layer, so the transform's own scaling
    keeps the iterate's bits (depth 0 runs no layer: the dense start)."""
    matrix = _start(geometry.p, architecture)
    for _ in range(depth):
        matrix /= np.linalg.norm(matrix)
        matrix = apply_conv_operator(matrix, geometry, padding)
    return FeatureTransform(matrix)


def check_depths(depths: Sequence[int]) -> list[int]:
    """depths as a list of ints; ValueError unless they are nonempty,
    integers in [0, DEPTH_MAX] and strictly increasing."""
    depths = list(depths)
    if not depths:
        raise ValueError("depths must be a nonempty list")
    # d % 1 is exact for ints of any size, where float(d) overflows.
    if any(not 0 <= d <= DEPTH_MAX or d % 1 != 0 for d in depths):
        raise ValueError(f"depths must be non-negative integers <= {DEPTH_MAX}, got {depths}")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError(f"depths must be strictly increasing, got {depths}")
    return [int(d) for d in depths]


def feature_transforms(
    depths: Sequence[int],
    geometry: ConvGeometry,
    padding: Padding,
    architecture: Architecture,
    dense_depths: frozenset[int] = DENSE_DEPTHS,
) -> list[FeatureTransform]:
    """Unit-Frobenius feature transforms at the given strictly increasing
    depths, in order.

    Circular padding leaves both depth-0 matrices fixed (each tap's shift
    permutes the identity and the all-ones matrix onto themselves), so
    every depth is depth 0.  Under zero padding, the depths in dense_depths
    are stencil iterates (_stencil_transform).  The operator acts on each
    axis's index pair of the axes + axes tensor separately, and both
    depth-0 matrices are products of one factor per axis, so every other
    transform is the 1-D transform V of one axis raised to one Kronecker
    power per axis (kron(V, V) in 2-D): at depth 0, V is the axis's start,
    and the deeper zero-padding factors all come from one batched
    _zero_padding_power pass, whose cost per depth does not depend on the
    depth and whose bits are those of building each depth alone.
    apply_conv_operator, iterated with renormalization, is the reference
    the closed form matches.  The recursion's scale factor does not affect
    downstream regression quantities, so every transform has unit
    Frobenius norm.

    dense_depths exists because two callers need different dense depths:
    the mnist runner keeps the default {1, 2}, whose iterated bits its
    recorded outputs pin, and the eigenvector gallery passes {0}, whose
    dense start's eigh noise its recorded depth-0 image pins.  It goes away
    with the stencil branch once those outputs are re-recorded from the
    closed form.
    """
    depths = check_depths(depths)
    if not isinstance(padding, Padding):
        raise ValueError(f"unsupported padding: {padding!r}")
    if not isinstance(architecture, Architecture):
        raise ValueError(f"unsupported architecture: {architecture!r}")
    zero = padding is Padding.ZERO
    n, power = geometry.axes[0], len(geometry.axes)
    closed = [d for d in depths if zero and d > 0 and d not in dense_depths]
    # numpy.fft loads on first use: a call with no closed-form depth must not
    # load it, or mnist holds the module through its dense depths' peak.
    factors = dict(zip(closed, _zero_padding_power(n, architecture, closed))) if closed else {}
    return [_stencil_transform(d, geometry, padding, architecture)
            if zero and d in dense_depths
            else FeatureTransform(factors[d] if d in factors else _start(n, architecture), power)
            for d in depths]


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(vector)))
    nonzero = np.nonzero(np.abs(vector) > 1e-12 * scale)[0]
    if nonzero.size and vector[nonzero[0]] < 0:
        return -vector
    return vector


def symmetric_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, leading_eigenvector) of a symmetric matrix: eigenvalues
    descending, and the sign-fixed unit eigenvector of the first."""
    matrix = np.asarray(matrix, dtype=float)
    _check_finite_symmetric(matrix, "matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return eigenvalues[::-1].copy(), _fix_sign(eigenvectors[:, -1].copy())


def leading_eigenvector(transform: FeatureTransform) -> np.ndarray:
    """Sign-fixed unit leading eigenvector of the p x p transform.

    The Kronecker power of the factor's leading eigenvector (the top
    eigenvalue of a power of a PSD factor is the power of its own), so the
    factor is solved once, at its own size.  Under a tied top eigenvalue any
    unit vector of its eigenspace is leading, and the one returned may
    differ from a dense solve's.
    """
    _, vector = symmetric_spectrum(transform.factor)
    return _fix_sign(reduce(np.kron, [vector] * transform.power))
