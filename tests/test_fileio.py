"""File output: float formatting, atomic CSV, PGM."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from convkernel.fileio import (
    format_float,
    grayscale,
    load_matrix_csv,
    load_vector_csv,
    save_matrix_csv,
    write_pgm,
    write_text_atomic,
)


class TestFloatFormat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [
                rng.standard_normal(200),
                rng.standard_normal(200) * 1e-300,
                rng.standard_normal(200) * 1e300,
                [0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, np.pi],
            ]
        )
        for v in values:
            assert float(format_float(v)) == v


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((7, 5))
        path = tmp_path / "m.csv"
        save_matrix_csv(matrix, path)
        assert_array_equal(load_matrix_csv(path), matrix)

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vector = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        save_matrix_csv(vector, path)
        assert_array_equal(load_vector_csv(path), vector)
        save_matrix_csv(vector.reshape(-1, 1), path)
        assert_array_equal(load_vector_csv(path), vector)

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(np.eye(3), path)
        with pytest.raises(ValueError, match="single row or column"):
            load_vector_csv(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n\n3,{cell}\n")
        with pytest.raises(ValueError, match="bad.csv: row on line 3 is not finite"):
            load_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix_csv(path)


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "one\n")
        write_text_atomic(path, "two\n")
        assert path.read_text() == "two\n"


class TestGrayscale:
    def test_min_max_scaling(self):
        out = grayscale(np.array([0.0, 0.5, 1.0]))
        assert_array_equal(out, np.array([0, 128, 255], dtype=np.uint8))

    def test_constant_maps_to_mid_gray(self):
        out = grayscale(np.full(9, 3.7))
        assert_array_equal(out, np.full(9, 127, dtype=np.uint8))


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        image = np.arange(16, dtype=np.uint8).reshape(4, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert raw[len(b"P5\n4 4\n255\n"):] == image.tobytes()
        assert len(raw) == 11 + 16

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(tmp_path / "img.pgm", np.zeros((4, 4)))
