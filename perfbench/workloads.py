"""Workload inputs, output checks and reference comparison for the benchmark.

Each workload is one CLI experiment with a fixed shape.  Its inputs (the
config file and, for `mnist-deep`, a synthetic two-digit IDX pair) are
written from the benchmark seed into a scratch directory; nothing is read
from the repository's tests, so editing them cannot shift a workload.

The seed selects one of VARIANTS input variants (`seed % VARIANTS`).
Reference outputs for every variant were recorded at the commit that
introduced the benchmark (see record_refs.py), so every run, whatever its
seed, is compared against a recorded reference.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

VARIANTS = 16
REFERENCES = Path(__file__).with_name("references.json")

# Values in CSV and JSON outputs must match the recorded reference within
# this tolerance; it admits reordered floating-point sums, not a new result.
REF_RTOL = 1e-6
REF_ATOL = 1e-12
# PGM pixels are rounded eigenvector entries; a last-bit change may move one
# across a rounding boundary.
PGM_PIXEL_ATOL = 1


# Why each workload is there: see BENCHMARK.json and README.md.
WORKLOADS = ("sweep-matched", "mnist-deep", "eigvec-dense")

SWEEP_DEPTHS = (10, 25, 40, 50, 65, 90)
SWEEP_MATCHED_DEPTH = 50
MNIST_DEPTHS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
EIGVEC_DEPTHS = tuple(range(49))
SE_MARGIN = 3.0


def variant(seed: int) -> int:
    return seed % VARIANTS


def write_inputs(name: str, seed: int, workdir: Path, outdir: Path) -> Path:
    """Write the workload's config (and data files) under workdir; return the config."""
    v = variant(seed)
    if name == "sweep-matched":
        body = (
            "experiment = sweep\n"
            "p = 20\nn = 10\npadding = zero\narchitecture = pooling\n"
            f"depths = {','.join(map(str, SWEEP_DEPTHS))}\n"
            f"sigma_source = inverse_theta\nsigma_depth = {SWEEP_MATCHED_DEPTH}\n"
            "noise_var = 0.01\n"
            "trials_bias = 60\ntrials_var = 6000\ntrials_risk = 60\n"
            f"risk_test_points = 128\nseed = {v}\n"
        )
    elif name == "mnist-deep":
        images, labels = synthetic_digit_arrays(count_per_class=60, seed=v)
        images_path, labels_path = write_idx_pair(workdir, images, labels)
        body = (
            f"experiment = mnist\nimages = {images_path}\nlabels = {labels_path}\n"
            "count_per_class = 50\nn = 20\ntrials = 10\n"
            f"depths = {','.join(map(str, MNIST_DEPTHS))}\n"
            f"padding = zero\narchitecture = pooling\nseed = {v}\n"
        )
    elif name == "eigvec-dense":
        body = (
            "experiment = eigvec\np = 784\npadding = zero\narchitecture = pooling\n"
            f"depths = {','.join(map(str, EIGVEC_DEPTHS))}\n"
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    config = workdir / f"{name}.cfg"
    config.write_text(body + f"outdir = {outdir}\n")
    return config


# --- synthetic digits ------------------------------------------------------
# Class 0 is a jittered horizontal bar hugging the top edge, class 1 the same
# bar hugging the bottom edge.  Total ink per image is equalized so the
# global-sum feature carries no class signal, and a faint uniform speckle
# keeps the sample matrix well conditioned.

SIDE = 28
INK_TARGET = 30.0
SPECKLE = 0.03
ROW_JITTER = 2.5


def _edge_bar(rng: np.random.Generator, near_top: bool) -> np.ndarray:
    row = (3.0 if near_top else 25.0) + rng.uniform(-ROW_JITTER, ROW_JITTER)
    width = rng.uniform(0.9, 1.6)
    left = rng.integers(3, 7)
    right = rng.integers(21, 25)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    body = np.exp(-((yy - row) ** 2) / (2.0 * width**2))
    body[(xx < left) | (xx > right)] = 0.0
    return body


def synthetic_digit_arrays(count_per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved uint8 images (m, 28, 28) and labels (m,) with digits 0/1."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for _ in range(count_per_class):
        for digit, near_top in ((0, True), (1, False)):
            img = _edge_bar(rng, near_top)
            img *= INK_TARGET / img.sum()
            img += rng.uniform(0.0, SPECKLE, size=(SIDE, SIDE))
            images.append(np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8))
            labels.append(digit)
    return np.stack(images), np.asarray(labels, dtype=np.uint8)


def write_idx_pair(directory: Path, images: np.ndarray, labels: np.ndarray
                   ) -> tuple[Path, Path]:
    count = images.shape[0]
    images_path = directory / "digits-images-idx3-ubyte"
    labels_path = directory / "digits-labels-idx1-ubyte"
    images_path.write_bytes(
        struct.pack(">IIII", 0x00000803, count, SIDE, SIDE) + images.tobytes()
    )
    labels_path.write_bytes(struct.pack(">II", 0x00000801, count) + labels.tobytes())
    return images_path, labels_path


# --- output checks ---------------------------------------------------------


class CheckFailed(Exception):
    """An output of a workload run is missing, malformed or wrong."""


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON constant {token}")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise CheckFailed(f"{path.name} has no data rows")
    try:
        values = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as error:
        raise CheckFailed(f"{path.name}: {error}") from None
    if values.ndim != 2 or values.shape[1] != len(rows[0]):
        raise CheckFailed(f"{path.name} rows do not match its header")
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{path.name} holds a non-finite value")
    return rows[0], values


def _finite_numbers(value, where: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for item in value:
            _finite_numbers(item, where)
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckFailed(f"non-finite value at {where}")


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"),
                             parse_constant=_reject_constant)
    except json.JSONDecodeError as error:
        raise CheckFailed(f"{path.name} is not valid JSON: {error}") from None
    _finite_numbers(payload, path.name)
    return payload


def _read_pgm(path: Path) -> np.ndarray:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise CheckFailed(f"{path.name} is not a binary PGM with maxval 255")
    try:
        cols, rows = (int(v) for v in parts[1].split())
    except ValueError:
        raise CheckFailed(f"{path.name} has a malformed size line") from None
    if (rows, cols) != (SIDE, SIDE) or len(parts[3]) != rows * cols:
        raise CheckFailed(f"{path.name} is not a {SIDE}x{SIDE} image")
    return np.frombuffer(parts[3], dtype=np.uint8)


def read_outputs(name: str, outdir: Path) -> dict:
    """Parse a workload's outputs, rejecting malformed or non-finite values."""
    if name == "sweep-matched":
        header, values = _read_csv(outdir / "sweep.csv")
        _read_json(outdir / "sweep_meta.json")
        return {"header": header, "csv": values}
    if name == "mnist-deep":
        header, values = _read_csv(outdir / "mnist.csv")
        meta = _read_json(outdir / "mnist_meta.json")
        fields = ("baseline_identity_loss_mean", "baseline_identity_loss_se")
        if not isinstance(meta, dict) or not all(isinstance(meta.get(f), float) for f in fields):
            raise CheckFailed(f"mnist_meta.json lacks one of {fields}")
        return {"header": header, "csv": values, "meta": {f: meta[f] for f in fields}}
    header, values = _read_csv(outdir / "gallery.csv")
    images = {int(d): _read_pgm(outdir / f"eigvec_D{int(d)}.pgm") for d in values[:, 0]}
    return {"header": header, "csv": values, "images": images}


def _column(out: dict, name: str) -> np.ndarray:
    if name not in out["header"]:
        raise CheckFailed(f"CSV has no column {name!r}")
    return out["csv"][:, out["header"].index(name)]


def check_science(name: str, out: dict) -> None:
    """The workload's headline property must hold."""
    depths = [int(d) for d in out["csv"][:, 0]]
    if name == "sweep-matched":
        if depths != list(SWEEP_DEPTHS):
            raise CheckFailed(f"sweep.csv depths {depths} != {list(SWEEP_DEPTHS)}")
        var_mean = _column(out, "var_mean")
        argmin = depths[int(np.argmin(var_mean))]
        if argmin != SWEEP_MATCHED_DEPTH:
            raise CheckFailed(f"variance argmin at D={argmin}, expected {SWEEP_MATCHED_DEPTH}")
    elif name == "mnist-deep":
        # Loss is flat within Monte Carlo noise over depths ~16..512, so the
        # argmin itself wanders between them from one input variant to the
        # next; the property is stated in standard errors instead.
        if depths != list(MNIST_DEPTHS):
            raise CheckFailed(f"mnist.csv depths {depths} != {list(MNIST_DEPTHS)}")
        loss = _column(out, "loss_mean")
        se = _column(out, "loss_se")
        k = int(np.argmin(loss))
        m = int(np.argmin(_column(out, "misalignment")))
        if loss[0] - loss[k] <= SE_MARGIN * (se[0] + se[k]):
            raise CheckFailed(f"depth-0 loss is not clearly above the minimum at D={depths[k]}")
        if loss[m] - loss[k] > SE_MARGIN * (se[m] + se[k]):
            raise CheckFailed(
                f"loss at the misalignment argmin D={depths[m]} exceeds the minimum at "
                f"D={depths[k]} by more than {SE_MARGIN} standard errors"
            )
    elif depths != list(EIGVEC_DEPTHS):
        # read_outputs has already read one valid PGM per gallery row.
        raise CheckFailed(f"gallery.csv depths do not match 0..{EIGVEC_DEPTHS[-1]}")


def encode_reference(out: dict) -> dict:
    """The JSON form of a run's outputs, as stored in references.json."""
    ref = {"header": out["header"], "csv": out["csv"].tolist()}
    if "meta" in out:
        ref["meta"] = out["meta"]
    if "images" in out:
        ref["images"] = {
            str(d): base64.b64encode(img.tobytes()).decode() for d, img in out["images"].items()
        }
    return ref


def check_reference(name: str, seed: int, out: dict, references: dict) -> None:
    """Outputs must match the recorded reference for this input variant."""
    key = name if name == "eigvec-dense" else f"{name}/{variant(seed)}"
    ref = references.get(key)
    if ref is None:
        raise CheckFailed(f"no recorded reference for {key}")
    if out["header"] != ref["header"]:
        raise CheckFailed(f"CSV header {out['header']} != reference {ref['header']}")
    expected = np.array(ref["csv"])
    if out["csv"].shape != expected.shape or not np.allclose(
        out["csv"], expected, rtol=REF_RTOL, atol=REF_ATOL
    ):
        raise CheckFailed(f"CSV values differ from reference {key} beyond rtol {REF_RTOL}")
    for field, value in ref.get("meta", {}).items():
        if not math.isclose(out["meta"][field], value, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            raise CheckFailed(f"meta {field}={out['meta'][field]!r} != reference {value!r}")
    for depth, encoded in ref.get("images", {}).items():
        expected_pixels = np.frombuffer(base64.b64decode(encoded), dtype=np.uint8)
        diff = np.abs(out["images"][int(depth)].astype(int) - expected_pixels.astype(int))
        if diff.max() > PGM_PIXEL_ATOL:
            raise CheckFailed(f"eigvec_D{depth}.pgm differs from reference by {diff.max()}")


def check_outputs(name: str, seed: int, outdir: Path, references: dict) -> dict:
    """Run every output check; raise CheckFailed on the first that fails."""
    out = read_outputs(name, outdir)
    check_science(name, out)
    if references is not None:
        check_reference(name, seed, out, references)
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
