"""Data sources: IDX image ingestion, digit subsets and the min-norm solve.

IDX files are the standard big-endian MNIST container: a 32-bit magic
(0x00000803 for image tensors, 0x00000801 for label vectors), one 32-bit
size per dimension, then raw bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from convkernel.regression import _apply_pinv
from convkernel.rng import trial_rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
MIN_NORM_RESIDUAL_RTOL = 1e-8


class IdxFormatError(ValueError):
    """Raised when an IDX file violates the container format."""


@dataclass(frozen=True)
class Dataset:
    """Flattened examples with labels, held read-only: a writeable input is
    copied, so the caller's arrays stay its own, and a read-only one kept."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        x, y = (a.copy() if a.flags.writeable else a for a in (x, y))
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"need matching row counts, got x {x.shape} and y {y.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains NaN or Inf entries")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]


def _read_idx(path: str | Path, expected_magic: int, what: str) -> tuple[tuple, bytes]:
    """The dims and payload of an IDX file, checked against expected_magic."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated magic in {what} file")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: unsupported magic 0x{magic:08x} in {what} file, "
            f"expected 0x{expected_magic:08x}"
        )
    ndims = magic & 0xFF
    header_size = 4 + 4 * ndims
    if len(raw) < header_size:
        raise IdxFormatError(f"{path}: truncated dims in {what} file")
    dims = struct.unpack(f">{ndims}I", raw[4:header_size])
    payload = raw[header_size:]
    expected_bytes = math.prod(dims)  # exact: an int64 product can wrap
    if len(payload) != expected_bytes:
        raise IdxFormatError(
            f"{path}: payload of {what} file holds {len(payload)} bytes, "
            f"dims {dims} require {expected_bytes}"
        )
    return dims, payload


def load_idx_images(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Images plus companion labels; pixels scaled to [0, 1], flattened row-major."""
    (count, rows, cols), pixels = _read_idx(images_path, IMAGES_MAGIC, "images")
    (label_count,), labels = _read_idx(labels_path, LABELS_MAGIC, "labels")
    if rows != cols:
        raise IdxFormatError(
            f"{images_path}: images must be square, got {rows}x{cols}"
        )
    if label_count != count:
        raise IdxFormatError(
            f"count mismatch: {images_path} holds {count} images but "
            f"{labels_path} holds {label_count} labels"
        )
    x = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols) / 255.0
    y = np.frombuffer(labels, dtype=np.uint8).astype(float)
    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(x, y)


def binary_digit_subset(
    dataset: Dataset,
    digit_pos: int,
    digit_neg: int,
    count_per_class: int,
    seed: int = 0,
    shuffle: bool = False,
) -> Dataset:
    """count_per_class examples of each digit, labeled +1 (pos) then -1 (neg).

    Examples are taken in file order; with shuffle=True the selection is a
    seeded draw without replacement instead.
    """
    if count_per_class < 0:
        raise ValueError(f"count_per_class must be >= 0, got {count_per_class}")
    picks = []
    for digit, sign in ((digit_pos, 1.0), (digit_neg, -1.0)):
        indices = np.nonzero(dataset.y == digit)[0]
        if indices.size < count_per_class:
            raise ValueError(
                f"need {count_per_class} examples of digit {digit}, "
                f"found {indices.size}"
            )
        if shuffle:
            indices = trial_rng(seed, digit).permutation(indices)
        picks.append((indices[:count_per_class], sign))
    x = np.vstack([dataset.x[idx] for idx, _ in picks])
    y = np.concatenate([np.full(count_per_class, sign) for _, sign in picks])
    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(x, y)


def min_norm_solve(dataset: Dataset) -> np.ndarray:
    """Minimum-Euclidean-norm interpolant of the under-determined system x b = y."""
    x, y = dataset.x, dataset.y
    m, p = x.shape
    if m > p:
        raise ValueError(f"need rows <= columns, got {x.shape}")
    dual, _ = _apply_pinv(x @ x.T, y)
    coef = x.T @ dual
    residual = float(np.linalg.norm(x @ coef - y))
    y_norm = float(np.linalg.norm(y))
    if residual > MIN_NORM_RESIDUAL_RTOL * max(y_norm, 1e-300):
        raise ValueError(
            f"labels are not in the row space: residual {residual:.3e} "
            f"exceeds {MIN_NORM_RESIDUAL_RTOL:.0e} * {y_norm:.3e}"
        )
    return coef

