"""Data module: IDX parsing, digit subsets, min-norm solve."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from convkernel import (
    Dataset,
    IdxFormatError,
    binary_digit_subset,
    load_idx_images,
    min_norm_solve,
)
from _digits import make_synthetic_idx, synthetic_digit_arrays, write_idx_pair


class TestDatasetInvariants:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(np.ones((3, 2)), np.ones(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset(np.array([[np.nan, 0.0]]), np.zeros(1))

    def test_callers_arrays_stay_writeable_and_unshared(self):
        x, y = np.ones((2, 3)), np.ones(2)
        ds = Dataset(x, y)
        assert x.flags.writeable and y.flags.writeable
        x[0, 0] = 5.0
        y[1] = 7.0
        assert_array_equal(ds.x, np.ones((2, 3)))
        assert_array_equal(ds.y, np.ones(2))
        assert not ds.x.flags.writeable and not ds.y.flags.writeable

    def test_read_only_input_is_kept(self):
        x, y = np.ones((2, 3)), np.ones(2)
        x.setflags(write=False)
        y.setflags(write=False)
        ds = Dataset(x, y)
        assert ds.x is x and ds.y is y


class TestIdxParsing:
    def test_loads_synthetic_pair(self, tmp_path):
        images, labels = synthetic_digit_arrays(count_per_class=3, seed=1)
        images_path, labels_path = write_idx_pair(tmp_path, images, labels)
        ds = load_idx_images(images_path, labels_path)
        assert ds.x.shape == (6, 784)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert_array_equal(np.sort(np.unique(ds.y)), [0.0, 1.0])
        assert_allclose(ds.x[0], images[0].ravel() / 255.0, atol=0, rtol=0)

    def test_two_images_header_arithmetic(self, tmp_path):
        images_path = tmp_path / "img"
        labels_path = tmp_path / "lbl"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(1568))
        labels_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
        ds = load_idx_images(images_path, labels_path)
        assert ds.x.shape == (2, 784)
        assert_array_equal(ds.x, np.zeros((2, 784)))

    def test_bad_magic(self, tmp_path):
        images_path = tmp_path / "img"
        labels_path = tmp_path / "lbl"
        images_path.write_bytes(struct.pack(">IIII", 0x802, 1, 28, 28) + bytes(784))
        labels_path.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="unsupported magic"):
            load_idx_images(images_path, labels_path)

    def test_truncated_payload(self, tmp_path):
        images_path = tmp_path / "img"
        labels_path = tmp_path / "lbl"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(1000))
        labels_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="payload"):
            load_idx_images(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        images_path = tmp_path / "img"
        labels_path = tmp_path / "lbl"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(1568))
        labels_path.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx_images(images_path, labels_path)


class TestBinaryDigitSubset:
    def test_fifty_fifty_labels(self, tmp_path):
        ds = load_idx_images(*make_synthetic_idx(tmp_path, count_per_class=60, seed=2))
        subset = binary_digit_subset(ds, 0, 1, 50)
        assert len(subset) == 100
        assert_array_equal(subset.y[:50], np.ones(50))
        assert_array_equal(subset.y[50:], -np.ones(50))

    def test_file_order_selection(self, tmp_path):
        ds = load_idx_images(*make_synthetic_idx(tmp_path, count_per_class=5, seed=3))
        subset = binary_digit_subset(ds, 0, 1, 2)
        zero_rows = ds.x[ds.y == 0]
        assert_array_equal(subset.x[:2], zero_rows[:2])

    def test_shuffle_is_seeded(self, tmp_path):
        ds = load_idx_images(*make_synthetic_idx(tmp_path, count_per_class=30, seed=4))
        a = binary_digit_subset(ds, 0, 1, 10, seed=5, shuffle=True)
        b = binary_digit_subset(ds, 0, 1, 10, seed=5, shuffle=True)
        c = binary_digit_subset(ds, 0, 1, 10, seed=6, shuffle=True)
        assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_zero_count(self, tmp_path):
        ds = load_idx_images(*make_synthetic_idx(tmp_path, count_per_class=3, seed=7))
        subset = binary_digit_subset(ds, 0, 1, 0)
        assert len(subset) == 0
        assert subset.x.shape == (0, 784)

    def test_missing_digit_named(self, tmp_path):
        ds = load_idx_images(*make_synthetic_idx(tmp_path, count_per_class=3, seed=8))
        with pytest.raises(ValueError, match="digit 7"):
            binary_digit_subset(ds, 0, 7, 2)

    def test_insufficient_count_named(self, tmp_path):
        images, labels = synthetic_digit_arrays(count_per_class=4, seed=9)
        # Drop one class-1 example so only digit 1 is short.
        keep = np.ones(len(labels), dtype=bool)
        keep[np.nonzero(labels == 1)[0][-1]] = False
        pair = write_idx_pair(tmp_path, images[keep], labels[keep])
        ds = load_idx_images(*pair)
        with pytest.raises(ValueError, match="digit 1"):
            binary_digit_subset(ds, 0, 1, 4)


class TestMinNormSolve:
    def test_identity_system(self):
        y = np.array([1.0, -2.0, 3.0])
        assert_allclose(min_norm_solve(Dataset(np.eye(3), y)), y, atol=0, rtol=0)

    def test_single_row(self):
        x = np.array([[3.0, 4.0]])
        coef = min_norm_solve(Dataset(x, np.array([5.0])))
        assert_allclose(coef, np.array([3.0, 4.0]) / 5.0, atol=1e-12, rtol=0)

    def test_min_norm_against_generator(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 50))
        generator = rng.standard_normal(50)
        y = x @ generator
        coef = min_norm_solve(Dataset(x, y))
        assert np.linalg.norm(x @ coef - y) <= 1e-8 * np.linalg.norm(y)
        assert np.linalg.norm(coef) <= np.linalg.norm(generator) + 1e-10

    def test_orthogonal_to_null_space(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 12))
        y = rng.standard_normal(4)
        coef = min_norm_solve(Dataset(x, y))
        # Any null-space perturbation only grows the norm.
        _, _, vt = np.linalg.svd(x)
        for null_dir in vt[4:]:
            assert abs(null_dir @ coef) <= 1e-10
            assert np.linalg.norm(coef + null_dir) >= np.linalg.norm(coef)

    def test_empty_system(self):
        coef = min_norm_solve(Dataset(np.zeros((0, 5)), np.zeros(0)))
        assert_array_equal(coef, np.zeros(5))

    def test_inconsistent_system_reports_residual(self):
        x = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="residual"):
            min_norm_solve(Dataset(x, np.array([1.0, 1.0])))

    def test_wide_requirement(self):
        with pytest.raises(ValueError, match="rows <= columns"):
            min_norm_solve(Dataset(np.ones((3, 2)), np.ones(3)))

