"""Convolution operator: shift bases as the oracle for the stencil."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from convkernel import (
    Architecture,
    ConvGeometry,
    GeometryKind,
    Padding,
    apply_conv_operator,
)
from _oracles import basis_matrices
from _util import random_symmetric

ONE_D_SIZES = range(3, 11)
TWO_D_SIDES = (2, 3, 4)
PADDINGS = (Padding.ZERO, Padding.CIRCULAR)


def geom_1d(p: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.ONE_D, p)


def geom_2d(side: int) -> ConvGeometry:
    return ConvGeometry(GeometryKind.TWO_D, side * side)


def operator_via_bases(x: np.ndarray, geometry: ConvGeometry, padding: Padding) -> np.ndarray:
    return sum(b.T @ x @ b for b in basis_matrices(geometry, padding))


class TestBasisMatrices:
    def test_zero_padding_p4_shift_matrices(self):
        superdiag = np.diag(np.ones(3), k=1)
        subdiag = np.diag(np.ones(3), k=-1)
        got = basis_matrices(geom_1d(4), Padding.ZERO)
        assert len(got) == 3
        assert_array_equal(got[0], superdiag)
        assert_array_equal(got[1], np.eye(4))
        assert_array_equal(got[2], subdiag)

    def test_zero_padding_p1_no_room_to_shift(self):
        got = basis_matrices(geom_1d(1), Padding.ZERO)
        assert_array_equal(got[0], np.zeros((1, 1)))
        assert_array_equal(got[1], np.ones((1, 1)))
        assert_array_equal(got[2], np.zeros((1, 1)))

    def test_circular_p3_cyclic_permutations(self):
        # Shift-k basis maps column index a to a - k mod 3.
        forward = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        got = basis_matrices(geom_1d(3), Padding.CIRCULAR)
        assert_array_equal(got[0], forward)
        assert_array_equal(got[1], np.eye(3))
        assert_array_equal(got[2], forward.T)

    @pytest.mark.parametrize("p", ONE_D_SIZES)
    def test_row_occupancy(self, p):
        for b in basis_matrices(geom_1d(p), Padding.CIRCULAR):
            assert_array_equal(b.sum(axis=1), np.ones(p))
            assert set(np.unique(b)) <= {0.0, 1.0}
        for b in basis_matrices(geom_1d(p), Padding.ZERO):
            assert b.sum(axis=1).max() <= 1.0
            assert set(np.unique(b)) <= {0.0, 1.0}

    def test_two_d_count_and_single_entry(self):
        got = basis_matrices(geom_2d(2), Padding.ZERO)
        assert len(got) == 9
        # Shift pair (+1, +1) moves grid pixel (0, 0) to (1, 1):
        # a single one at row index 1*2+1 = 3, column index 0.
        expected = np.zeros((4, 4))
        expected[3, 0] = 1.0
        assert_array_equal(got[8], expected)

    def test_bad_padding_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            basis_matrices(geom_1d(4), "reflective")


class TestApplyMatchesBases:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("p", ONE_D_SIZES)
    def test_one_d(self, p, padding):
        rng = np.random.default_rng(100 * p + (padding is Padding.ZERO))
        geometry = geom_1d(p)
        for _ in range(100):
            x = random_symmetric(rng, p)
            assert_allclose(
                apply_conv_operator(x, geometry, padding),
                operator_via_bases(x, geometry, padding),
                atol=1e-12,
                rtol=0,
            )

    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("side", TWO_D_SIDES)
    def test_two_d(self, side, padding):
        rng = np.random.default_rng(200 * side + (padding is Padding.ZERO))
        geometry = geom_2d(side)
        for _ in range(100):
            x = random_symmetric(rng, side * side)
            assert_allclose(
                apply_conv_operator(x, geometry, padding),
                operator_via_bases(x, geometry, padding),
                atol=1e-12,
                rtol=0,
            )


class TestTwoDIsPerAxisProduct:
    # On an s-by-s grid the operator acts on each axis separately: it maps
    # kron(A, B) to kron(op(A), op(B)) with op the 1-D operator on s pixels.
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("side", range(1, 6))
    def test_operator_maps_kron_to_kron(self, side, padding):
        rng = np.random.default_rng(300 * side + (padding is Padding.ZERO))
        for _ in range(20):
            a, b = random_symmetric(rng, side), random_symmetric(rng, side)
            assert_allclose(
                apply_conv_operator(np.kron(a, b), geom_2d(side), padding),
                np.kron(apply_conv_operator(a, geom_1d(side), padding),
                        apply_conv_operator(b, geom_1d(side), padding)),
                atol=1e-12,
                rtol=0,
            )

    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("side", range(1, 6))
    def test_bases_are_kron_of_1d_bases(self, side, padding):
        line = basis_matrices(geom_1d(side), padding)
        grid = basis_matrices(geom_2d(side), padding)
        for k in range(3):
            for kp in range(3):
                assert_array_equal(grid[3 * k + kp], np.kron(line[k], line[kp]))


class TestApplyKnownValues:
    def test_identity_zero_padding(self):
        got = apply_conv_operator(np.eye(4), geom_1d(4), Padding.ZERO)
        assert_array_equal(got, np.diag([2.0, 3.0, 3.0, 2.0]))

    def test_identity_circular_padding(self):
        got = apply_conv_operator(np.eye(4), geom_1d(4), Padding.CIRCULAR)
        assert_array_equal(got, 3.0 * np.eye(4))

    def test_all_ones_zero_padding(self):
        # Entry (i, j) counts shifts that keep both indices in range.
        expected = np.array(
            [
                [2, 2, 2, 1],
                [2, 3, 3, 2],
                [2, 3, 3, 2],
                [1, 2, 2, 2],
            ],
            dtype=float,
        )
        got = apply_conv_operator(np.ones((4, 4)), geom_1d(4), Padding.ZERO)
        assert_array_equal(got, expected)

    def test_all_ones_circular_padding(self):
        got = apply_conv_operator(np.ones((5, 5)), geom_1d(5), Padding.CIRCULAR)
        assert_array_equal(got, 3.0 * np.ones((5, 5)))

    # On the 3 x 3 grid, entry ((a, b), (c, d)) counts the 3 x 3 shift pairs
    # that keep all four coordinates in range: a row count times a column
    # count, each the 1-D count on 3 pixels.  A window misaligned by one
    # along any of the four axes changes some of them.
    def test_two_d_identity_zero_padding(self):
        got = apply_conv_operator(np.eye(9), geom_2d(3), Padding.ZERO)
        assert_array_equal(got, np.diag([4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]))

    def test_two_d_all_ones_zero_padding(self):
        line = np.array([[2, 2, 1], [2, 3, 2], [1, 2, 2]], dtype=float)
        got = apply_conv_operator(np.ones((9, 9)), geom_2d(3), Padding.ZERO)
        assert_array_equal(got, np.kron(line, line))

    @pytest.mark.parametrize("start", [np.eye(9), np.ones((9, 9))], ids=["identity", "all_ones"])
    def test_two_d_circular_padding(self, start):
        got = apply_conv_operator(start, geom_2d(3), Padding.CIRCULAR)
        assert_array_equal(got, 9.0 * start)


class TestOperatorProperties:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(7), geom_2d(3)])
    def test_linearity(self, geometry, padding):
        rng = np.random.default_rng(42)
        p = geometry.p
        for _ in range(20):
            x = random_symmetric(rng, p)
            y = random_symmetric(rng, p)
            a, b = rng.standard_normal(2)
            assert_allclose(
                apply_conv_operator(a * x + b * y, geometry, padding),
                a * apply_conv_operator(x, geometry, padding)
                + b * apply_conv_operator(y, geometry, padding),
                atol=1e-12,
                rtol=0,
            )

    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("geometry", [geom_1d(8), geom_2d(3)])
    def test_preserves_symmetry_and_psd(self, geometry, padding):
        rng = np.random.default_rng(7)
        p = geometry.p
        for _ in range(20):
            root = rng.standard_normal((p, p))
            x = root @ root.T
            out = apply_conv_operator(x, geometry, padding)
            assert_array_equal(out, out.T)
            fro = np.linalg.norm(out)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * fro

    def test_zero_padding_preserves_diagonal_offset(self):
        p = 9
        geometry = geom_1d(p)
        rng = np.random.default_rng(3)
        for offset in range(p):
            x = np.zeros((p, p))
            vals = rng.standard_normal(p - offset)
            x += np.diag(vals, k=offset)
            if offset:
                x += np.diag(vals, k=-offset)
            out = apply_conv_operator(x, geometry, Padding.ZERO)
            mask = np.abs(np.subtract.outer(np.arange(p), np.arange(p))) != offset
            assert np.all(out[mask] == 0.0)

    @pytest.mark.parametrize("padding", PADDINGS)
    def test_side_28_holds_one_padded_copy(self, padding):
        # One (30, 30, 30, 30) padded grid (6.48 MB) plus the output
        # (4.92 MB), not a shifted copy per tap.
        x = random_symmetric(np.random.default_rng(28), 784)
        tracemalloc.start()
        try:
            apply_conv_operator(x, geom_2d(28), padding)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            apply_conv_operator(np.eye(3), geom_1d(4), Padding.ZERO)
        with pytest.raises(ValueError, match="shape"):
            apply_conv_operator(np.eye(3), geom_2d(3), Padding.ZERO)


class TestGeometryValidation:
    def test_two_d_requires_perfect_square(self):
        with pytest.raises(ValueError, match="square"):
            ConvGeometry(GeometryKind.TWO_D, 8)

    def test_positive_pixel_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            ConvGeometry(GeometryKind.ONE_D, 0)

    def test_kind_must_be_enum(self):
        with pytest.raises(ValueError, match="kind"):
            ConvGeometry("1d", 5)

    def test_side_only_for_two_d(self):
        assert geom_2d(4).side == 4
        with pytest.raises(ValueError, match="2-D"):
            _ = geom_1d(5).side
