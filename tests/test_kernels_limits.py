"""Infinite-depth limits and convergence-rate envelope."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import dense, limit_transform, sine_profile
from _util import unit_start
from convkernel.kernels import (
    DEPTH_MAX,
    Architecture,
    ConvGeometry,
    GeometryKind,
    Padding,
    apply_conv_operator,
    feature_transforms,
)

ARCHS = (Architecture.FLATTENING, Architecture.POOLING)


def geom_1d(p: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.ONE_D, p)


def geom_2d(side: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.TWO_D, side * side)


def limit_of(geometry, padding, arch):
    # Every circular depth is the start, so the deepest one is the limit.
    if padding is Padding.CIRCULAR:
        return feature_transforms([DEPTH_MAX], geometry, padding, arch)[0]
    return limit_transform(geometry, arch)


def distances_to_limit(geometry, padding, arch, depth: int) -> np.ndarray:
    limit = dense(limit_of(geometry, padding, arch))
    current = unit_start(geometry, arch)
    out = [np.linalg.norm(current - limit)]
    for _ in range(depth):
        current = apply_conv_operator(current, geometry, padding)
        current /= np.linalg.norm(current)
        out.append(np.linalg.norm(current - limit))
    return np.asarray(out)


class TestLimitValues:
    def test_one_d_p3_sine_diagonal(self):
        ft = limit_of(geom_1d(3), Padding.ZERO, Architecture.POOLING)
        expected = np.diag([1.0 / np.sqrt(2.0), 1.0, 1.0 / np.sqrt(2.0)]) / np.sqrt(2.0)
        assert_allclose(dense(ft), expected, atol=1e-15, rtol=0)
        assert np.linalg.norm(dense(ft)) == pytest.approx(1.0, abs=1e-12)

    def test_two_d_side2_uniform_diagonal(self):
        ft = limit_of(geom_2d(2), Padding.ZERO, Architecture.FLATTENING)
        assert_allclose(dense(ft), np.eye(4) / 2.0, atol=1e-15, rtol=0)

    def test_circular_pooling_all_ones(self):
        ft = limit_of(geom_1d(4), Padding.CIRCULAR, Architecture.POOLING)
        assert_allclose(dense(ft), np.ones((4, 4)) / 4.0, atol=0, rtol=0)

    def test_circular_flattening_identity(self):
        ft = limit_of(geom_1d(9), Padding.CIRCULAR, Architecture.FLATTENING)
        assert_allclose(dense(ft), np.eye(9) / 3.0, atol=0, rtol=0)

    def test_two_d_diagonal_is_sine_outer_product(self):
        side = 5
        ft = limit_of(geom_2d(side), Padding.ZERO, Architecture.POOLING)
        profile = sine_profile(side)
        weights = np.outer(profile, profile).ravel()
        weights /= np.linalg.norm(weights)
        matrix = dense(ft)
        assert_allclose(np.diagonal(matrix), weights, atol=1e-15, rtol=0)
        assert np.all(matrix == np.diag(np.diagonal(matrix)))


class TestZeroPaddingConvergence:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_one_d_reaches_limit(self, arch):
        dists = distances_to_limit(geom_1d(5), Padding.ZERO, arch, 600)
        assert dists[-1] < 1e-10

    @pytest.mark.parametrize("arch", ARCHS)
    def test_two_d_reaches_limit(self, arch):
        dists = distances_to_limit(geom_2d(3), Padding.ZERO, arch, 250)
        assert dists[-1] < 1e-10

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("p", (5, 8))
    def test_monotone_decrease(self, p, arch):
        dists = distances_to_limit(geom_1d(p), Padding.ZERO, arch, 300)
        live = dists[dists > 1e-13]
        assert np.all(np.diff(live) <= 1e-15)

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("p", (5, 8, 10))
    def test_geometric_envelope_one_d(self, p, arch):
        # Second-fastest surviving mode: within the main diagonal for
        # flattening (which stays diagonal under zero padding), and
        # additionally the first off-diagonal's top mode for pooling.
        lam1 = 1.0 + 2.0 * np.cos(np.pi / (p + 1))
        lam2_main = 1.0 + 2.0 * np.cos(2.0 * np.pi / (p + 1))
        lam2 = lam2_main if arch is Architecture.FLATTENING else max(
            lam2_main, 1.0 + 2.0 * np.cos(np.pi / p)
        )
        ratio = lam2 / lam1
        dists = distances_to_limit(geom_1d(p), Padding.ZERO, arch, 300)
        # Post-transient geometric rate must not exceed the eigenvalue ratio.
        live = np.nonzero(dists > 1e-11)[0]
        last = live[-1]
        first = max(5, min(60, last - 15))
        assert last - first >= 15
        rate = (dists[last] / dists[first]) ** (1.0 / (last - first))
        assert rate <= ratio + 2e-3


class TestCircularDepthInvariance:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("geometry", [geom_1d(5), geom_1d(10), geom_2d(4)])
    def test_every_iterate_equals_start(self, geometry, arch):
        start = unit_start(geometry, arch)
        current = start.copy()
        for _ in range(40):
            current = apply_conv_operator(current, geometry, Padding.CIRCULAR)
            current /= np.linalg.norm(current)
            assert np.max(np.abs(current - start)) <= 1e-12
