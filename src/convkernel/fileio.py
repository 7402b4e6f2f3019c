"""Deterministic file output: 17-significant-digit CSV and binary PGM.

All writes are atomic (temp file in the target directory, then rename) so
partial results never appear under the final name.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np


def format_float(value: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return f"{float(value):.17g}"


def _write_atomic(path: str | Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    _write_atomic(path, text.encode())


def save_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Dense comma-separated rows, no header, 17 significant digits."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(format_float(v) for v in row) for row in matrix]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """Dense comma-separated rows of finite numbers; blank lines are skipped."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
                if not np.all(np.isfinite(rows[-1])):
                    raise ValueError(f"{path}: row on line {line_no} is not finite")
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows with lengths {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def load_vector_csv(path: str | Path) -> np.ndarray:
    """A vector stored as a single CSV row or a single column."""
    matrix = load_matrix_csv(path)
    if 1 not in matrix.shape:
        raise ValueError(f"{path}: expected a single row or column, got {matrix.shape}")
    return matrix.ravel()


def grayscale(values: np.ndarray) -> np.ndarray:
    """Min-max scale to bytes 0..255; a constant input maps to mid-gray."""
    values = np.asarray(values, dtype=float)
    low, high = float(values.min()), float(values.max())
    if high == low:
        return np.full(values.shape, 127, dtype=np.uint8)
    scaled = np.rint((values - low) / (high - low) * 255.0)
    return np.clip(scaled, 0, 255).astype(np.uint8)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255; image must be a 2-D uint8 array."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"image must be 2-D uint8, got {image.dtype} {image.shape}")
    rows, cols = image.shape
    header = f"P5\n{cols} {rows}\n255\n".encode()
    _write_atomic(path, header + image.tobytes())
