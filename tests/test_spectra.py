"""Spectra: tridiagonal closed form vs numerical eigendecomposition."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import toeplitz_spectrum
from convkernel.kernels import (
    ConvGeometry,
    GeometryKind,
    Padding,
    _fix_sign,
    apply_conv_operator,
    sine_profile,
    symmetric_spectrum,
)


def tridiagonal_ones(dim):
    return np.eye(dim) + np.eye(dim, k=1) + np.eye(dim, k=-1)


class TestToeplitzClosedForm:
    @pytest.mark.parametrize("dim", range(1, 51))
    def test_matches_numerical_eigendecomposition(self, dim):
        eigenvalues, _ = toeplitz_spectrum(dim)
        numerical = np.linalg.eigvalsh(tridiagonal_ones(dim))[::-1]
        assert_allclose(eigenvalues, numerical, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("dim", range(1, 51))
    def test_basis_diagonalizes_the_tridiagonal_matrix(self, dim):
        # The basis of the oracle the FFT closed form is held to.
        eigenvalues, basis = toeplitz_spectrum(dim)
        assert basis.shape == (dim, dim)
        assert_allclose(basis.T @ basis, np.eye(dim), atol=1e-12, rtol=0)
        assert_allclose(basis.T @ tridiagonal_ones(dim) @ basis, np.diag(eigenvalues),
                        atol=1e-12, rtol=0)
        profile = sine_profile(dim)
        assert_allclose(basis[:, 0], profile / np.linalg.norm(profile), atol=1e-12, rtol=0)

    def test_dim4_values(self):
        eigenvalues, _ = toeplitz_spectrum(4)
        assert_allclose(
            eigenvalues,
            [2.618034, 1.618034, 0.381966, -0.618034],
            atol=1e-6,
            rtol=0,
        )

    def test_dim4_leading_eigenvector_is_sine_profile(self):
        _, basis = toeplitz_spectrum(4)
        sines = np.sin(np.arange(1, 5) * np.pi / 5.0)
        assert_allclose(basis[:, 0], sines / np.linalg.norm(sines), atol=1e-12, rtol=0)
        _, numerical = symmetric_spectrum(tridiagonal_ones(4))
        assert_allclose(basis[:, 0], numerical, atol=1e-10, rtol=0)

    def test_dim1(self):
        eigenvalues, basis = toeplitz_spectrum(1)
        assert_allclose(eigenvalues, [1.0], atol=1e-12, rtol=0)
        assert_allclose(basis, [[1.0]], atol=1e-12, rtol=0)

    def test_dim0_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            toeplitz_spectrum(0)


class TestSymmetricSpectrum:
    def test_scaled_identity(self):
        eigenvalues, _ = symmetric_spectrum(np.eye(4) / 2.0)
        assert_allclose(eigenvalues, [0.5] * 4, atol=0, rtol=0)

    def test_rank_one_all_ones(self):
        eigenvalues, leading = symmetric_spectrum(np.ones((4, 4)) / 4.0)
        assert_allclose(eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12, rtol=0)
        assert_allclose(leading, np.full(4, 0.5), atol=1e-12, rtol=0)

    def test_sign_convention_flips_negative_leader(self):
        u = np.array([-3.0, 1.0]) / np.sqrt(10.0)
        _, leading = symmetric_spectrum(np.outer(u, u))
        assert leading[0] > 0
        assert_allclose(leading, -u, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("vector, expected", [
        ([0.0, -1e-13, -2.0, 1.0], [0.0, 1e-13, 2.0, -1.0]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ], ids=["noise-before-leader", "zero"])
    def test_sign_fix_reads_the_first_entry_above_rounding(self, vector, expected):
        # Entries up to 1e-12 of the largest are rounding noise and do not set
        # the sign; a zero vector has no such entry and is returned as it is.
        assert_allclose(_fix_sign(np.array(vector)), expected, atol=0, rtol=0)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        eigenvalues, leading = symmetric_spectrum((a + a.T) / 2.0)
        assert np.all(np.diff(eigenvalues) <= 0)
        assert_allclose(np.linalg.norm(leading), 1.0, atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            symmetric_spectrum(np.array([[value, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_norm_without_warning(self):
        with pytest.raises(ValueError, match="matrix is too large"):
            symmetric_spectrum(np.array([[1e200, 0.0], [5e199, -1e200]]))



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
        numerical, _ = symmetric_spectrum(restricted)
        assert_allclose(numerical, toeplitz_spectrum(dim)[0], atol=1e-10, rtol=0)
