"""Feature-transform recursion: initial conditions, normalization, fixed points,
and the closed form against the stencil iterate."""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import convkernel.kernels
from _oracles import dense, toeplitz_spectrum
from _util import unit_start
from convkernel.experiments import participation_ratio
from convkernel.kernels import (
    DEPTH_MAX,
    PSD_RTOL,
    Architecture,
    ConvGeometry,
    FeatureTransform,
    GeometryKind,
    Padding,
    _check_symmetric_psd,
    _start,
    _zero_padding_power,
    apply_conv_operator,
    feature_transforms,
    leading_eigenvector,
    sine_profile,
    symmetric_spectrum,
)

ARCHS = (Architecture.FLATTENING, Architecture.POOLING)
PADDINGS = (Padding.ZERO, Padding.CIRCULAR)


def geom_1d(p: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.ONE_D, p)


class TestInitialConditions:
    def test_pooling_starts_all_ones(self):
        ft = feature_transforms([0], geom_1d(5), Padding.ZERO, Architecture.POOLING)[0]
        assert_allclose(dense(ft), np.ones((5, 5)) / 5.0, atol=0, rtol=0)

    def test_flattening_starts_identity(self):
        ft = feature_transforms([0], geom_1d(5), Padding.ZERO, Architecture.FLATTENING)[0]
        assert_allclose(dense(ft), np.eye(5) / np.sqrt(5.0), atol=0, rtol=0)


class TestCircularFixedPoints:
    def test_flattening_p4_is_half_identity_at_every_depth(self):
        depths = [0, 1, 2, 7, 33]
        for ft in feature_transforms(depths, geom_1d(4), Padding.CIRCULAR, Architecture.FLATTENING):
            assert_array_equal(dense(ft), np.eye(4) / 2.0)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("p", (3, 6, 11))
    def test_normalized_iterates_never_move(self, p, arch):
        start = unit_start(geom_1d(p), arch)
        for ft in feature_transforms([0, 1, 2, 5, 20], geom_1d(p), Padding.CIRCULAR, arch):
            assert np.max(np.abs(dense(ft) - start)) <= 1e-12


class TestRecursionPlumbing:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    def test_snapshots_match_single_calls(self, padding, arch):
        geometry = geom_1d(6)
        depths = [0, 3, 7]
        for depth, ft in zip(depths, feature_transforms(depths, geometry, padding, arch)):
            single = feature_transforms([depth], geometry, padding, arch)[0]
            assert_array_equal(dense(ft), dense(single))

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(7), ConvGeometry(GeometryKind.TWO_D, 9)])
    def test_iterates_are_normalized_symmetric_psd(self, geometry, padding, arch):
        for ft in feature_transforms([0, 1, 4, 9], geometry, padding, arch):
            matrix = dense(ft)
            assert abs(np.linalg.norm(matrix) - 1.0) <= 1e-12
            assert_array_equal(matrix, matrix.T)
            assert np.linalg.eigvalsh(matrix)[0] >= -1e-10

    def test_depth_list_validation(self):
        geometry = geom_1d(4)
        with pytest.raises(ValueError, match="nonempty"):
            feature_transforms([], geometry, Padding.ZERO, Architecture.POOLING)
        with pytest.raises(ValueError, match="strictly increasing"):
            feature_transforms([1, 2, 2], geometry, Padding.ZERO, Architecture.POOLING)
        with pytest.raises(ValueError, match="non-negative"):
            feature_transforms([-1, 2], geometry, Padding.ZERO, Architecture.POOLING)

    @pytest.mark.parametrize("depth", [0, 3])
    def test_rejects_an_unknown_architecture(self, depth):
        # The closed form's diagonal count and the stencil's start both read it.
        with pytest.raises(ValueError, match="unsupported architecture: 'pooling'"):
            feature_transforms([depth], geom_1d(4), Padding.ZERO, "pooling")

    # Integrality is tested without float(), which overflows above about 1e308.
    def test_depth_bound(self):
        check, top = convkernel.kernels.check_depths, convkernel.kernels.DEPTH_MAX
        assert check([0, top, math.inf]) == [0, top, math.inf]
        for depths in ([0, top + 1], [1, 10**400], [1, 1e300]):
            with pytest.raises(ValueError, match=f"integers <= {top}"):
                check(depths)

    def test_only_the_last_depth_may_be_infinite(self):
        geometry = geom_1d(4)
        for depths in ([math.inf, 5], [1, math.inf, math.inf], [0.5, math.inf]):
            with pytest.raises(ValueError, match="depths must be"):
                feature_transforms(depths, geometry, Padding.ZERO, Architecture.POOLING)


class TestFeatureTransformValidation:
    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        bad /= np.linalg.norm(bad)
        with pytest.raises(ValueError, match="symmetric"):
            FeatureTransform(bad)

    def test_rejects_indefinite(self):
        bad = np.diag([1.0, -1.0])
        bad /= np.linalg.norm(bad)
        with pytest.raises(ValueError, match="PSD"):
            FeatureTransform(bad)

    # The check runs before any arithmetic on the factor, which would warn.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        bad = np.diag([value, 1.0, 1.0]) / np.sqrt(3.0)
        with pytest.raises(ValueError, match="feature transform has non-finite entries"):
            FeatureTransform(bad)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2, 2), (4,)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="square factor"):
            FeatureTransform(np.ones(shape))

    def test_scales_a_single_factor(self):
        f = np.array([[2.0, 1.0], [1.0, 3.0]])
        ft = FeatureTransform(f)
        assert_array_equal(dense(ft), f / np.linalg.norm(f))
        assert ft.power == 1 and ft.p == 2

    @pytest.mark.parametrize("shape, power", [((4, 4), 1), ((2, 2), 2)])
    def test_rejects_zero_factor_without_warning(self, shape, power):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero"):
                FeatureTransform(np.zeros(shape), power)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.filterwarnings("error")
    def test_rejects_factors_whose_product_overflows(self, power):
        with pytest.raises(ValueError, match="too large"):
            FeatureTransform(np.eye(4) * 1e200, power)

    # The factor is scaled before its power is formed, so only the factor's
    # own norm must be finite, not the power's.
    @pytest.mark.filterwarnings("error")
    def test_scales_factors_whose_unscaled_product_overflows(self):
        big = np.eye(2) * 1e100
        ft = FeatureTransform(big, 2)
        assert_is_square_of_unit_factor(ft, big)
        assert_within_ulps(dense(ft), np.eye(4) / 2.0, 4)

    # Squared entries below about 1e-162 underflow, so numpy's norm alone
    # would call these zero or scale them off unit norm.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_scales_tiny_factors_to_unit_norm(self, scale):
        f = np.array([[2.0, 1.0], [1.0, 3.0]])
        ft = FeatureTransform(f * scale)
        assert_within_ulps(dense(ft), f / np.linalg.norm(f), 2)
        assert abs(np.linalg.norm(dense(ft)) - 1.0) <= 4e-16

    def test_rejects_subnormal_factor(self):
        with pytest.raises(ValueError, match="feature transform is too small"):
            FeatureTransform(np.eye(2) * 1e-310)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-139])
    def test_ordinary_norms_are_numpys(self, scale):
        f = np.array([[2.0, 1.0], [1.0, 3.0]]) * scale
        assert_array_equal(dense(FeatureTransform(f)), f / np.linalg.norm(f))

    def test_factor_is_read_only(self):
        ft = feature_transforms([2], geom_1d(4), Padding.ZERO, Architecture.POOLING)[0]
        with pytest.raises(ValueError):
            ft.factor[0, 0] = 9.0


def spy_eigvalsh():
    return mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh)


class TestPsdCertificate:
    """The shifted Cholesky certificate of _check_symmetric_psd decides as
    eigvalsh would, and spares the eigen-solve whenever it certifies."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 60),
        rank_share=st.floats(0.0, 1.0),
        least=st.sampled_from([None, -2.0, -0.1]),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decides_as_eigvalsh(self, n, rank_share, least, scale, seed):
        # A random PSD matrix of random rank; or, for least = c, a symmetric
        # one whose smallest eigenvalue is c * PSD_RTOL * ||A||_F.
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = rng.uniform(0.0, 1.0, n) * (np.arange(n) < round(rank_share * n))
        if least is not None:
            assume(eigenvalues[:-1].any())
            eigenvalues[-1] = least * PSD_RTOL * np.linalg.norm(eigenvalues[:-1])
        matrix = (basis * eigenvalues) @ basis.T
        matrix = scale * (matrix + matrix.T) / 2.0
        fro = np.linalg.norm(matrix)
        smallest = np.linalg.eigvalsh(matrix)[0]
        with spy_eigvalsh() as eigvalsh:
            if least == -2.0:
                assert smallest < -PSD_RTOL * fro
                with pytest.raises(ValueError, match=r"m is not PSD \(smallest eigenvalue "):
                    _check_symmetric_psd(matrix, "m")
            else:
                assert smallest >= -PSD_RTOL * fro
                assert _check_symmetric_psd(matrix, "m") == pytest.approx(fro, rel=1e-15)
                assert eigvalsh.call_count == 0

    def test_uncertified_matrix_is_factored_once(self):
        # Smallest eigenvalue -0.7 * PSD_RTOL * ||A||_F: inside the tolerance,
        # but below the shift, so the factorization fails and eigvalsh passes it.
        matrix = np.eye(784)
        matrix[-1, -1] = -0.7 * PSD_RTOL * math.sqrt(784)
        with spy_eigvalsh() as eigvalsh, mock.patch.object(
                np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
            assert _check_symmetric_psd(matrix, "m") == np.linalg.norm(matrix)
        assert (cholesky.call_count, eigvalsh.call_count) == (1, 1)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_dense_image_depths_take_no_eigen_solve(self, arch):
        geometry = ConvGeometry(GeometryKind.TWO_D, 784)
        with spy_eigvalsh() as eigvalsh:
            transforms = feature_transforms([0, 1, 2], geometry, Padding.ZERO, arch)
        assert [ft.factor.shape for ft in transforms] == [(784, 784)] * 3
        assert eigvalsh.call_count == 0

    def test_indefinite_matrix_names_its_smallest_eigenvalue(self):
        with spy_eigvalsh() as eigvalsh:
            with pytest.raises(ValueError,
                               match=r"^m is not PSD \(smallest eigenvalue -1\.000e\+00\)$"):
                _check_symmetric_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), "m")
        assert eigvalsh.call_count == 1

    @pytest.mark.parametrize("matrix, fro", [
        (1e-170 * np.eye(2), 1e-170 * math.sqrt(2.0)),
        (1e150 * np.array([[2.0, 1.0], [1.0, 2.0]]), 1e150 * math.sqrt(10.0)),
    ])
    def test_extreme_scales_are_certified(self, matrix, fro):
        with spy_eigvalsh() as eigvalsh:
            assert _check_symmetric_psd(matrix, "m") == pytest.approx(fro, rel=1e-15)
            with pytest.raises(ValueError, match=r"m is not PSD \(smallest eigenvalue -"):
                _check_symmetric_psd(matrix * np.array([[1.0, -1.0], [-1.0, -1.0]]), "m")
        assert eigvalsh.call_count == 1


def stencil_iterates(depth: int, geometry, padding, arch) -> list[np.ndarray]:
    """Depths 0..depth of the normalized recursion, by the direct stencil."""
    current = unit_start(geometry, arch)
    out = [current]
    for _ in range(depth):
        current = apply_conv_operator(current, geometry, padding)
        current = current / np.linalg.norm(current)
        out.append(current)
    return out


class TestClosedForm:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        geometry=st.one_of(
            st.builds(geom_1d, st.integers(1, 12)),
            st.builds(lambda s: ConvGeometry(GeometryKind.TWO_D, s * s), st.integers(1, 5)),
        ),
        padding=st.sampled_from(PADDINGS),
        arch=st.sampled_from(ARCHS),
        depth=st.integers(0, 80),
    )
    def test_matches_stencil_iterate(self, geometry, padding, arch, depth):
        closed = feature_transforms(range(depth + 1), geometry, padding, arch)
        iterates = stencil_iterates(depth, geometry, padding, arch)
        for d, (ft, iterate) in enumerate(zip(closed, iterates)):
            assert np.max(np.abs(dense(ft) - iterate)) <= 1e-13, d

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("side", (1, 2, 3, 5))
    def test_two_d_is_kron_of_side_transform(self, side, padding, arch):
        depths = [0, 1, 2, 9, 64]
        grid = feature_transforms(depths, ConvGeometry(GeometryKind.TWO_D, side * side),
                                  padding, arch)
        line = feature_transforms(depths, geom_1d(side), padding, arch)
        for square, factor in zip(grid, line):
            assert_allclose(dense(square), np.kron(dense(factor), dense(factor)),
                            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(7), ConvGeometry(GeometryKind.TWO_D, 784)])
    def test_depth_zero_is_initial_transform_bit_for_bit(self, geometry, padding, arch):
        ft = feature_transforms([0], geometry, padding, arch)[0]
        start = unit_start(geometry, arch)
        if padding is Padding.CIRCULAR and geometry.kind is GeometryKind.TWO_D:
            # The square of a unit s x s factor, not one p x p scaling.
            assert_within_ulps(dense(ft), start, 4)
        else:
            assert_array_equal(dense(ft), start)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("geometry", [geom_1d(10), ConvGeometry(GeometryKind.TWO_D, 784)])
    def test_depth_beyond_any_iteration_reaches_the_limit(self, geometry, arch):
        # Powers of the unscaled eigenvalues would overflow long before this depth.
        ft, limit = feature_transforms([10**6, math.inf], geometry, Padding.ZERO, arch)
        assert_allclose(dense(ft), dense(limit), rtol=0, atol=1e-12)

    def test_deep_transforms_never_call_the_stencil(self, monkeypatch):
        def stencil(*args):
            raise AssertionError("apply_conv_operator called")

        monkeypatch.setattr(convkernel.kernels, "apply_conv_operator", stencil)
        deep = [convkernel.kernels.STENCIL_DEPTH_MAX + 1, 5, 300]
        for geometry in (geom_1d(6), ConvGeometry(GeometryKind.TWO_D, 16)):
            for arch in ARCHS:
                feature_transforms(deep, geometry, Padding.ZERO, arch)
                feature_transforms([0, 1, 2] + deep, geometry, Padding.CIRCULAR, arch)


def sine_table_power(n: int, arch, depth: int) -> np.ndarray:
    """_zero_padding_power by explicit sine tables: each diagonal of the start
    projected on toeplitz_spectrum's basis, scaled, and mapped back."""
    start = _start(n, arch)
    largest = toeplitz_spectrum(n)[0][0]
    out = np.zeros((n, n))
    for offset in range(n):
        t = np.arange(n - offset)
        eigenvalues, basis = toeplitz_spectrum(n - offset)
        values = basis @ ((eigenvalues / largest) ** depth * (basis.T @ start[t, t + offset]))
        out[t, t + offset] = values
        out[t + offset, t] = values
    return out


class TestZeroPaddingFFT:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 50, 10**6, DEPTH_MAX])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_matches_the_sine_table_oracle(self, arch, depth):
        # The oracle's own sums are off by up to 1.05e-14 of the largest
        # entry at depth 0 (n = 56 on), where the FFT path is within 4 ulp.
        for n in range(1, 65):
            expected = sine_table_power(n, arch, depth)
            got = _zero_padding_power(n, arch, depth)
            assert np.max(np.abs(got - expected)) <= 2e-14 * np.max(np.abs(expected)), n

    @pytest.mark.parametrize("arch", ARCHS)
    def test_depth_zero_is_the_start(self, arch):
        for n in range(1, 65):
            assert_within_ulps(_zero_padding_power(n, arch, 0), _start(n, arch), 4)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("geometry", [geom_1d(40), ConvGeometry(GeometryKind.TWO_D, 784)])
    def test_one_fft_per_nonzero_diagonal_and_no_sine_table(self, monkeypatch, geometry,
                                                            arch):
        # Pooling starts with every diagonal nonzero, flattening with the main one.
        rfft, calls = np.fft.rfft, []

        def counted(*args, **kwargs):
            calls.append(args)
            return rfft(*args, **kwargs)

        def no_sine(*args, **kwargs):
            raise AssertionError("np.sin called")

        monkeypatch.setattr(np.fft, "rfft", counted)
        monkeypatch.setattr(np, "sin", no_sine)
        expected = geometry.axes[0] if arch is Architecture.POOLING else 1
        for depth in (3, 10**6):
            calls.clear()
            feature_transforms([depth], geometry, Padding.ZERO, arch)
            assert len(calls) == expected, depth


class TestZeroPaddingStructure:
    # Under zero padding each layer sums shifts whose edges fall off, so a
    # pooled transform is a sum of outer products of the all-ones vector cut
    # short at either end by up to D pixels per axis.  Those span the
    # all-ones vector and D unit vectors at each end, and the rank is
    # min(2D + 1, s) per axis.  A flattened transform never leaves the diagonal.
    GEOMETRIES = [geom_1d(7), geom_1d(8), geom_1d(28),
                  ConvGeometry(GeometryKind.TWO_D, 9), ConvGeometry(GeometryKind.TWO_D, 49)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_pooling_rank_grows_by_two_per_layer(self, geometry):
        side, dim = geometry.axes[0], len(geometry.axes)
        depths = range(16)
        for depth, ft in zip(depths, feature_transforms(depths, geometry, Padding.ZERO,
                                                        Architecture.POOLING)):
            singular = np.linalg.svd(dense(ft), compute_uv=False)
            assert np.sum(singular > 1e-10 * singular[0]) == min(2 * depth + 1, side) ** dim

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_flattening_is_diagonal_at_every_depth(self, geometry):
        for ft in feature_transforms(list(range(16)) + [math.inf], geometry, Padding.ZERO,
                                     Architecture.FLATTENING):
            matrix = dense(ft)
            assert_array_equal(matrix, np.diag(np.diagonal(matrix)))


def assert_within_ulps(got: np.ndarray, expected: np.ndarray, ulps: int) -> None:
    assert np.max(np.abs(got - expected)) <= ulps * np.spacing(np.max(np.abs(expected)))


def assert_is_square_of_unit_factor(ft: FeatureTransform, factor: np.ndarray) -> None:
    unit = factor / np.linalg.norm(factor)
    assert ft.power == 2
    assert_array_equal(ft.factor, unit)
    assert_array_equal(dense(ft), np.kron(unit, unit))


class TestFactors:
    # Closed-form 2-D zero-padding transforms keep their per-axis factor; the
    # PSD check and the leading eigenvector run on it.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(side=st.integers(1, 6), arch=st.sampled_from(ARCHS), depth=st.integers(3, 80))
    def test_leading_eigenvector_matches_dense_solve(self, side, arch, depth):
        geometry = ConvGeometry(GeometryKind.TWO_D, side * side)
        (ft,) = feature_transforms([depth], geometry, Padding.ZERO, arch)
        assert ft.power == 2 and ft.factor.shape == (side, side)
        eigenvalues, solved = symmetric_spectrum(dense(ft))
        # A tied top eigenvalue (flattening on an even side) has no unique
        # leading eigenvector to compare.  Under a relative gap g the dense
        # solve's vector is itself only determined to about eps / g.
        gap = 1.0 if side == 1 else (eigenvalues[0] - eigenvalues[1]) / eigenvalues[0]
        assume(gap >= 1e-8)
        tol = 1e-12 + 10 * np.finfo(float).eps / gap
        factored = leading_eigenvector(ft)
        assert_allclose(factored, solved, rtol=0, atol=tol)
        assert_allclose(participation_ratio(factored), participation_ratio(solved),
                        rtol=tol, atol=0)

    def test_matrix_is_kron_square_of_unit_factor(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        ft = FeatureTransform(a, 2)
        assert_is_square_of_unit_factor(ft, a)
        assert ft.p == 9

    def test_leaves_the_callers_factor_alone(self):
        a = np.eye(2)
        ft = FeatureTransform(a, 2)
        assert a.flags.writeable and ft.factor is not a
        assert_array_equal(a, np.eye(2))
        assert not ft.factor.flags.writeable

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(1), geom_1d(2), geom_1d(7), geom_1d(20),
                                          ConvGeometry(GeometryKind.TWO_D, 1),
                                          ConvGeometry(GeometryKind.TWO_D, 4),
                                          ConvGeometry(GeometryKind.TWO_D, 25)])
    def test_every_factor_has_unit_norm(self, geometry, padding, arch):
        depths = list(range(61)) + [math.inf]
        for depth, ft in zip(depths, feature_transforms(depths, geometry, padding, arch)):
            assert abs(np.linalg.norm(ft.factor) - 1.0) <= 1e-15, depth

    def test_apply_never_forms_the_product(self, monkeypatch):
        calls = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or kron(a, b))
        ft = FeatureTransform(np.ones((3, 3)), 2)
        ft.apply(np.ones((4, 9)))
        assert calls == []

    # Per-axis transforms are exactly the square of their unit factor, and
    # within a few ulp of the dense construction scaled once.
    @pytest.mark.parametrize("side", (1, 2, 3, 5, 28))
    def test_per_axis_transforms_keep_the_dense_bits(self, side):
        geometry = ConvGeometry(GeometryKind.TWO_D, side * side)
        profile = sine_profile(side)
        diagonal = np.diag(np.multiply.outer(profile, profile).ravel())
        line = np.diag(profile)
        for arch in ARCHS:
            (limit,) = feature_transforms([math.inf], geometry, Padding.ZERO, arch)
            assert_is_square_of_unit_factor(limit, line)
            assert_within_ulps(dense(limit), diagonal / np.linalg.norm(diagonal), 4)
            start = np.eye(side) if arch is Architecture.FLATTENING else np.ones((side, side))
            circular = feature_transforms([0, 1, 5, math.inf], geometry, Padding.CIRCULAR, arch)
            for ft in circular:
                assert_is_square_of_unit_factor(ft, start)
                assert_within_ulps(dense(ft), unit_start(geometry, arch), 4)

    def test_dense_transform_is_its_own_factor(self):
        for ft in feature_transforms([0, 1, 2], ConvGeometry(GeometryKind.TWO_D, 9),
                                     Padding.ZERO, Architecture.POOLING):
            assert ft.power == 1 and ft.factor.shape == (9, 9)

    def test_rejects_indefinite_factor(self):
        flip = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="PSD"):
            FeatureTransform(flip, 2)

    def test_rejects_non_finite_factor(self):
        with pytest.raises(ValueError, match="feature transform has non-finite entries"):
            FeatureTransform(np.diag([np.nan, 1.0]), 2)

    @pytest.mark.parametrize("power", [0, 3, 2.0, None])
    def test_rejects_a_power_other_than_one_or_two(self, power):
        with pytest.raises(ValueError, match="power must be 1 or 2"):
            FeatureTransform(np.eye(2), power)


class TestApply:
    # apply is the only way the regressions read a transform; the power of
    # the factor over the grid's axes must act as the p x p matrix does.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        geometry=st.one_of(
            st.builds(geom_1d, st.integers(1, 12)),
            st.builds(lambda s: ConvGeometry(GeometryKind.TWO_D, s * s), st.integers(1, 6)),
        ),
        padding=st.sampled_from(PADDINGS),
        arch=st.sampled_from(ARCHS),
        depth=st.integers(0, 60),
        leading=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_matrix(self, geometry, padding, arch, depth, leading, seed):
        (ft,) = feature_transforms([depth], geometry, padding, arch)
        x = np.random.default_rng(seed).standard_normal(tuple(leading) + (geometry.p,))
        expected = (dense(ft) @ x[..., None])[..., 0]
        got = ft.apply(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
