"""Feature-transform recursion: initial conditions, normalization, fixed points,
and the closed form against the stencil iterate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import convkernel.kernels
from convkernel import (
    Architecture,
    ConvGeometry,
    FeatureTransform,
    GeometryKind,
    Padding,
    apply_conv_operator,
    feature_transforms,
    initial_transform,
    leading_eigenvector,
    limiting_transform,
    symmetric_spectrum,
)
from convkernel.experiments import participation_ratio

ARCHS = (Architecture.FLATTENING, Architecture.POOLING)
PADDINGS = (Padding.ZERO, Padding.CIRCULAR)


def geom_1d(p: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.ONE_D, p)


class TestInitialConditions:
    def test_pooling_starts_all_ones(self):
        ft = feature_transforms([0], geom_1d(5), Padding.ZERO, Architecture.POOLING)[0]
        assert_allclose(ft.matrix, np.ones((5, 5)) / 5.0, atol=0, rtol=0)

    def test_flattening_starts_identity(self):
        ft = feature_transforms([0], geom_1d(5), Padding.ZERO, Architecture.FLATTENING)[0]
        assert_allclose(ft.matrix, np.eye(5) / np.sqrt(5.0), atol=0, rtol=0)


class TestCircularFixedPoints:
    def test_flattening_p4_is_half_identity_at_every_depth(self):
        depths = [0, 1, 2, 7, 33]
        for ft in feature_transforms(depths, geom_1d(4), Padding.CIRCULAR, Architecture.FLATTENING):
            assert_array_equal(ft.matrix, np.eye(4) / 2.0)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("p", (3, 6, 11))
    def test_normalized_iterates_never_move(self, p, arch):
        start = initial_transform(geom_1d(p), arch)
        for ft in feature_transforms([0, 1, 2, 5, 20], geom_1d(p), Padding.CIRCULAR, arch):
            assert np.max(np.abs(ft.matrix - start)) <= 1e-12


class TestRecursionPlumbing:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    def test_snapshots_match_single_calls(self, padding, arch):
        geometry = geom_1d(6)
        batch = feature_transforms([0, 3, 7], geometry, padding, arch)
        for ft in batch:
            single = feature_transforms([ft.depth], geometry, padding, arch)[0]
            assert_array_equal(ft.matrix, single.matrix)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(7), ConvGeometry(GeometryKind.TWO_D, 9)])
    def test_iterates_are_normalized_symmetric_psd(self, geometry, padding, arch):
        for ft in feature_transforms([0, 1, 4, 9], geometry, padding, arch):
            fro = np.linalg.norm(ft.matrix)
            assert abs(fro - 1.0) <= 1e-12
            assert_array_equal(ft.matrix, ft.matrix.T)
            assert np.linalg.eigvalsh(ft.matrix)[0] >= -1e-10

    def test_depth_list_validation(self):
        geometry = geom_1d(4)
        with pytest.raises(ValueError, match="nonempty"):
            feature_transforms([], geometry, Padding.ZERO, Architecture.POOLING)
        with pytest.raises(ValueError, match="strictly increasing"):
            feature_transforms([1, 2, 2], geometry, Padding.ZERO, Architecture.POOLING)
        with pytest.raises(ValueError, match="non-negative"):
            feature_transforms([-1, 2], geometry, Padding.ZERO, Architecture.POOLING)


class TestFeatureTransformValidation:
    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        bad /= np.linalg.norm(bad)
        with pytest.raises(ValueError, match="symmetric"):
            FeatureTransform(bad, geom_1d(2), Padding.ZERO, Architecture.POOLING, 1)

    def test_rejects_indefinite(self):
        bad = np.diag([1.0, -1.0])
        bad /= np.linalg.norm(bad)
        with pytest.raises(ValueError, match="PSD"):
            FeatureTransform(bad, geom_1d(2), Padding.ZERO, Architecture.POOLING, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        bad = np.diag([value, 1.0, 1.0]) / np.sqrt(3.0)
        with pytest.raises(ValueError, match="feature transform has non-finite entries"):
            FeatureTransform(bad, geom_1d(3), Padding.ZERO, Architecture.POOLING, 1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            FeatureTransform(np.eye(3) / np.sqrt(3), geom_1d(2), Padding.ZERO,
                             Architecture.POOLING, 0)

    def test_rejects_unnormalized_when_flagged(self):
        with pytest.raises(ValueError, match="norm"):
            FeatureTransform(np.eye(4), geom_1d(4), Padding.ZERO, Architecture.POOLING, 0)

    def test_matrix_is_read_only(self):
        ft = feature_transforms([2], geom_1d(4), Padding.ZERO, Architecture.POOLING)[0]
        with pytest.raises(ValueError):
            ft.matrix[0, 0] = 9.0


def stencil_iterates(depth: int, geometry, padding, arch) -> list[np.ndarray]:
    """Depths 0..depth of the normalized recursion, by the direct stencil."""
    current = initial_transform(geometry, arch)
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
        for ft, iterate in zip(closed, stencil_iterates(depth, geometry, padding, arch)):
            assert np.max(np.abs(ft.matrix - iterate)) <= 1e-13, ft.depth

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("side", (1, 2, 3, 5))
    def test_two_d_is_kron_of_side_transform(self, side, padding, arch):
        depths = [0, 1, 2, 9, 64]
        grid = feature_transforms(depths, ConvGeometry(GeometryKind.TWO_D, side * side),
                                  padding, arch)
        line = feature_transforms(depths, geom_1d(side), padding, arch)
        for square, factor in zip(grid, line):
            assert_allclose(square.matrix, np.kron(factor.matrix, factor.matrix),
                            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(7), ConvGeometry(GeometryKind.TWO_D, 784)])
    def test_depth_zero_is_initial_transform_bit_for_bit(self, geometry, padding, arch):
        ft = feature_transforms([0], geometry, padding, arch)[0]
        assert_array_equal(ft.matrix, initial_transform(geometry, arch))

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("geometry", [geom_1d(10), ConvGeometry(GeometryKind.TWO_D, 784)])
    def test_depth_beyond_any_iteration_reaches_the_limit(self, geometry, arch):
        # Powers of the unscaled eigenvalues would overflow long before this depth.
        ft = feature_transforms([10**6], geometry, Padding.ZERO, arch)[0]
        limit = limiting_transform(geometry, Padding.ZERO, arch)
        assert_allclose(ft.matrix, limit.matrix, rtol=0, atol=1e-12)

    def test_deep_transforms_never_call_the_stencil(self, monkeypatch):
        def stencil(*args):
            raise AssertionError("apply_conv_operator called")

        monkeypatch.setattr(convkernel.kernels, "apply_conv_operator", stencil)
        deep = [convkernel.kernels.STENCIL_DEPTH_MAX + 1, 5, 300]
        for geometry in (geom_1d(6), ConvGeometry(GeometryKind.TWO_D, 16)):
            for arch in ARCHS:
                feature_transforms(deep, geometry, Padding.ZERO, arch)
                feature_transforms([0, 1, 2] + deep, geometry, Padding.CIRCULAR, arch)


class TestFactors:
    # Closed-form 2-D zero-padding transforms keep their per-axis factor; the
    # PSD check and the leading eigenvector run on it.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(side=st.integers(1, 6), arch=st.sampled_from(ARCHS), depth=st.integers(3, 80))
    def test_leading_eigenvector_matches_dense_solve(self, side, arch, depth):
        geometry = ConvGeometry(GeometryKind.TWO_D, side * side)
        (ft,) = feature_transforms([depth], geometry, Padding.ZERO, arch)
        assert len(ft.factors) == 2 and ft.factors[0] is ft.factors[1]
        assert ft.factors[0].shape == (side, side)
        dense = symmetric_spectrum(ft.matrix)
        # A tied top eigenvalue (flattening on an even side) has no unique
        # leading eigenvector to compare.  Under a relative gap g the dense
        # solve's vector is itself only determined to about eps / g.
        gap = 1.0 if side == 1 else dense.spectral_gap / dense.eigenvalues[0]
        assume(gap >= 1e-8)
        tol = 1e-12 + 10 * np.finfo(float).eps / gap
        factored = leading_eigenvector(ft)
        assert_allclose(factored, dense.leading_eigenvector, rtol=0, atol=tol)
        assert_allclose(participation_ratio(factored),
                        participation_ratio(dense.leading_eigenvector), rtol=tol, atol=0)

    def test_matrix_is_normalized_kron_of_factors(self):
        a, b = np.diag([1.0, 2.0]), np.ones((3, 3))
        ft = FeatureTransform(None, geom_1d(6), Padding.ZERO, Architecture.POOLING, 3,
                              factors=(a, b))
        product = np.kron(a, b)
        assert_array_equal(ft.matrix, product / np.linalg.norm(product))
        assert ft.factors == (a, b)

    def test_dense_transform_is_its_own_factor(self):
        for ft in feature_transforms([0, 1, 2], ConvGeometry(GeometryKind.TWO_D, 9),
                                     Padding.ZERO, Architecture.POOLING):
            assert len(ft.factors) == 1 and ft.factors[0] is ft.matrix

    def test_rejects_indefinite_factor(self):
        flip = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="PSD"):
            FeatureTransform(None, ConvGeometry(GeometryKind.TWO_D, 4), Padding.ZERO,
                             Architecture.POOLING, 3, factors=(flip, flip))

    def test_rejects_non_finite_factor(self):
        with pytest.raises(ValueError, match="feature transform has non-finite entries"):
            FeatureTransform(None, ConvGeometry(GeometryKind.TWO_D, 4), Padding.ZERO,
                             Architecture.POOLING, 3,
                             factors=(np.diag([np.nan, 1.0]), np.eye(2)))

    def test_rejects_factors_that_do_not_match_geometry(self):
        with pytest.raises(ValueError, match="shape"):
            FeatureTransform(None, ConvGeometry(GeometryKind.TWO_D, 9), Padding.ZERO,
                             Architecture.POOLING, 3, factors=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="shape"):
            FeatureTransform(None, geom_1d(6), Padding.ZERO, Architecture.POOLING, 3,
                             factors=(np.ones((2, 3)), np.ones((3, 2))))

    def test_rejects_matrix_beside_factors(self):
        with pytest.raises(ValueError, match="not both"):
            FeatureTransform(np.eye(4) / 2.0, ConvGeometry(GeometryKind.TWO_D, 4), Padding.ZERO,
                             Architecture.FLATTENING, 3, factors=(np.eye(2), np.eye(2)))
