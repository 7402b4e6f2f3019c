"""Spectra: tridiagonal closed form vs numerical eigendecomposition."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convkernel import (
    ConvGeometry,
    GeometryKind,
    Padding,
    apply_conv_operator,
    symmetric_spectrum,
    toeplitz_spectrum,
    tridiagonal_ones,
)


class TestToeplitzClosedForm:
    @pytest.mark.parametrize("dim", range(1, 51))
    def test_matches_numerical_eigendecomposition(self, dim):
        closed = toeplitz_spectrum(dim)
        numerical = np.linalg.eigvalsh(tridiagonal_ones(dim))[::-1]
        assert_allclose(closed.eigenvalues, numerical, atol=1e-10, rtol=0)

    def test_dim4_values(self):
        closed = toeplitz_spectrum(4)
        assert_allclose(
            closed.eigenvalues,
            [2.618034, 1.618034, 0.381966, -0.618034],
            atol=1e-6,
            rtol=0,
        )

    def test_dim4_leading_eigenvector_is_sine_profile(self):
        closed = toeplitz_spectrum(4)
        sines = np.sin(np.arange(1, 5) * np.pi / 5.0)
        assert_allclose(closed.leading_eigenvector, sines / np.linalg.norm(sines),
                        atol=1e-12, rtol=0)
        numerical = symmetric_spectrum(tridiagonal_ones(4))
        assert_allclose(closed.leading_eigenvector, numerical.leading_eigenvector,
                        atol=1e-10, rtol=0)

    def test_dim1(self):
        closed = toeplitz_spectrum(1)
        assert_allclose(closed.eigenvalues, [1.0], atol=1e-12, rtol=0)
        assert closed.spectral_gap == 0.0

    def test_dim0_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            toeplitz_spectrum(0)
        with pytest.raises(ValueError, match="dim"):
            tridiagonal_ones(0)


class TestSymmetricSpectrum:
    def test_scaled_identity(self):
        summary = symmetric_spectrum(np.eye(4) / 2.0)
        assert_allclose(summary.eigenvalues, [0.5] * 4, atol=0, rtol=0)
        assert summary.spectral_gap == 0.0

    def test_rank_one_all_ones(self):
        summary = symmetric_spectrum(np.ones((4, 4)) / 4.0)
        assert_allclose(summary.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12, rtol=0)
        assert_allclose(summary.leading_eigenvector, np.full(4, 0.5), atol=1e-12, rtol=0)

    def test_sign_convention_flips_negative_leader(self):
        u = np.array([-3.0, 1.0]) / np.sqrt(10.0)
        summary = symmetric_spectrum(np.outer(u, u))
        assert summary.leading_eigenvector[0] > 0
        assert_allclose(summary.leading_eigenvector, -u, atol=1e-12, rtol=0)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        summary = symmetric_spectrum((a + a.T) / 2.0)
        assert np.all(np.diff(summary.eigenvalues) <= 0)
        assert_allclose(np.linalg.norm(summary.leading_eigenvector), 1.0, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))



class TestOperatorDiagonalRestriction:
    """Zero padding acts on each diagonal offset as the smaller tridiagonal matrix."""

    @pytest.mark.parametrize("offset", [0, 1, 2, 4])
    def test_restriction_matches_tridiagonal(self, offset):
        p = 6
        geometry = ConvGeometry(GeometryKind.ONE_D, p)
        dim = p - offset
        restricted = np.zeros((dim, dim))
        for j in range(dim):
            basis = np.zeros((p, p))
            basis[np.arange(dim - 0)[j], j + offset] = 1.0
            if offset:
                basis[j + offset, j] = 1.0
            out = apply_conv_operator(basis, geometry, Padding.ZERO)
            restricted[:, j] = np.diagonal(out, offset=offset)
        assert_allclose(restricted, tridiagonal_ones(dim), atol=0, rtol=0)
        numerical = symmetric_spectrum(restricted)
        assert_allclose(
            numerical.eigenvalues, toeplitz_spectrum(dim).eigenvalues, atol=1e-10, rtol=0
        )
