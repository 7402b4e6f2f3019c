"""Experiment runners behind the CLI: depth sweeps, eigenvector gallery,
two-digit image regression.

Every runner computes all records first and only then writes its outputs
atomically, so a failed run leaves no partial files.  Output is fully
determined by the config (including its seed) and the BLAS thread count:
reruns at the same thread count are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from convkernel.config import (
    EigvecConfig,
    MnistConfig,
    SweepConfig,
    THETA_FAMILY_ALIGNED_SPIKE,
)
from convkernel.data import binary_digit_subset, load_idx_images, min_norm_solve
from convkernel.fileio import (
    format_float,
    grayscale,
    load_matrix_csv,
    load_vector_csv,
    write_pgm,
    write_text_atomic,
)
from convkernel.kernels import (
    ConvGeometry,
    GeometryKind,
    feature_transforms,
    leading_eigenvector,
)
from convkernel.regression import (
    RegressionProblem,
    RiskEstimate,
    _estimate,
    bias_mc,
    excess_risk_mc,
    fit_ridgeless,
    misalignment,
    variance_mc,
)
from convkernel.rng import derive_seed, trial_rng

RIDGE_EPSILON_RTOL = 1e-10


@dataclass(frozen=True)
class DepthSweepRecord:
    depth: int
    bias_mean: float
    bias_se: float
    var_mean: float
    var_se: float
    risk_mean: float
    risk_se: float
    misalignment: float


@dataclass(frozen=True)
class GalleryRecord:
    depth: int
    participation_ratio: float
    image_file: str


@dataclass(frozen=True)
class MnistDepthRecord:
    depth: int
    loss_mean: float
    loss_se: float
    misalignment: float


def _csv_text(name: str, header: list[str], rows: list[list[float]]) -> str:
    """CSV with 17-digit floats; a NaN or Inf cell raises, naming file and column."""
    lines = [",".join(header)]
    for row in rows:
        for column, value in zip(header, row):
            if not np.isfinite(value):
                raise ValueError(f"{name}: column {column} has non-finite value {value}")
        cells = [str(v) if isinstance(v, (int, np.integer)) else format_float(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_value(value: Enum | Path) -> str:
    """Enums by their config spelling, paths as text."""
    return value.value if isinstance(value, Enum) else str(value)


def _meta_json(cfg: SweepConfig | MnistConfig, **derived) -> str:
    """The resolved config without outdir, plus run-derived fields, as strict JSON."""
    payload = {k: v for k, v in asdict(cfg).items() if k != "outdir"}
    payload.update(derived)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_value) + "\n"


def _synthetic_coef(p: int, seed: int) -> np.ndarray:
    coef = trial_rng(derive_seed(seed, "coef"), 0).standard_normal(p)
    return coef / np.linalg.norm(coef)


def _resolve_coef(cfg: SweepConfig) -> np.ndarray:
    p = cfg.geometry.p
    if cfg.beta_source == "file":
        coef = load_vector_csv(cfg.beta_file)
        if coef.shape[0] != p:
            raise ValueError(
                f"coefficient file {cfg.beta_file} has length {coef.shape[0]}, expected {p}"
            )
        if not np.any(coef):
            raise ValueError(f"coefficient file {cfg.beta_file} is all zeros")
        return coef
    return _synthetic_coef(p, cfg.seed)


def _transform(cfg: SweepConfig, coef: np.ndarray, depth: int) -> np.ndarray:
    if cfg.theta_family == THETA_FAMILY_ALIGNED_SPIKE:
        return np.outer(coef, coef) + abs(depth - cfg.family_center) * np.eye(cfg.geometry.p)
    (ft,) = feature_transforms([depth], cfg.geometry, cfg.padding, cfg.architecture)
    return ft.matrix


def _ridged_inverse(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse after adding a tiny ridge so near-singular transforms invert."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    epsilon = RIDGE_EPSILON_RTOL * float(eigenvalues[-1])
    inverse = (eigenvectors / (eigenvalues + epsilon)) @ eigenvectors.T
    return (inverse + inverse.T) / 2.0, epsilon


def _resolve_covariance(cfg: SweepConfig) -> np.ndarray | None:
    """The identity or file covariance; None for inverse_theta, which needs
    the transform at sigma_depth."""
    p = cfg.geometry.p
    if cfg.sigma_source == "identity":
        return np.eye(p)
    if cfg.sigma_source == "file":
        covariance = load_matrix_csv(cfg.sigma_file)
        if covariance.shape != (p, p):
            raise ValueError(
                f"covariance file {cfg.sigma_file} has shape {covariance.shape}, "
                f"expected ({p}, {p})"
            )
        return covariance
    return None


def run_depth_sweep(cfg: SweepConfig) -> list[DepthSweepRecord]:
    """Bias, variance, risk and misalignment per depth; writes sweep.csv.

    The three estimator seeds are derived once from the master seed and
    shared across depths, so per-depth estimates ride on common random
    numbers and depth comparisons are free of independent-sampling noise.
    Input files are read before any transform is built, so a bad one fails
    before the depth work; one transform is built and held at a time, and
    every output is checked before any is written.
    """
    coef = _resolve_coef(cfg)
    covariance = _resolve_covariance(cfg)
    ridge_epsilon = None
    if covariance is None:
        covariance, ridge_epsilon = _ridged_inverse(_transform(cfg, coef, cfg.sigma_depth))
    problem = RegressionProblem(covariance, coef, cfg.noise_var, cfg.n_train)
    seeds = {name: derive_seed(cfg.seed, name) for name in ("bias", "variance", "risk")}

    records = []
    for depth in cfg.depths:
        transform = _transform(cfg, coef, depth)
        bias = bias_mc(transform, problem, trials=cfg.trials_bias, seed=seeds["bias"])
        variance = variance_mc(transform, problem, trials=cfg.trials_var,
                               seed=seeds["variance"])
        risk = excess_risk_mc(transform, problem, trials=cfg.trials_risk,
                              seed=seeds["risk"], test_points=cfg.risk_test_points)
        records.append(
            DepthSweepRecord(
                depth,
                bias.mean, bias.std_error,
                variance.mean, variance.std_error,
                risk.mean, risk.std_error,
                misalignment(transform, coef),
            )
        )

    meta = _meta_json(cfg, derived_seeds=seeds, ridge_epsilon=ridge_epsilon)
    csv = _csv_text(
        "sweep.csv",
        ["depth", "bias_mean", "bias_se", "var_mean", "var_se",
         "risk_mean", "risk_se", "misalignment"],
        [[r.depth, r.bias_mean, r.bias_se, r.var_mean, r.var_se,
          r.risk_mean, r.risk_se, r.misalignment] for r in records],
    )
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(cfg.outdir / "sweep.csv", csv)
    write_text_atomic(cfg.outdir / "sweep_meta.json", meta)
    return records


def participation_ratio(vector: np.ndarray) -> float:
    """(sum v^2)^2 / sum v^4: effective number of pixels carrying the vector."""
    squared = np.asarray(vector, dtype=float) ** 2
    total = float(squared.sum())
    if total == 0.0:
        raise ValueError("zero vector has no participation ratio")
    return total**2 / float(np.sum(squared**2))


def run_eigvec_gallery(cfg: EigvecConfig) -> list[GalleryRecord]:
    """Leading-eigenvector images across depths as PGM files plus gallery.csv.

    One transform is built and held at a time; only the images are kept
    until all are written.
    """
    if cfg.geometry.kind is not GeometryKind.TWO_D:
        raise ValueError("the eigenvector gallery requires 2-D geometry")
    side = cfg.geometry.side
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    records = []
    images: list[tuple[Path, np.ndarray]] = []
    for depth in cfg.depths:
        (ft,) = feature_transforms([depth], cfg.geometry, cfg.padding, cfg.architecture)
        leading = leading_eigenvector(ft)
        name = f"eigvec_D{ft.depth}.pgm"
        images.append((cfg.outdir / name, grayscale(leading.reshape(side, side))))
        records.append(GalleryRecord(ft.depth, participation_ratio(leading), name))
    csv = _csv_text("gallery.csv", ["depth", "participation_ratio"],
                    [[r.depth, r.participation_ratio] for r in records])
    for path, image in images:
        write_pgm(path, image)
    write_text_atomic(cfg.outdir / "gallery.csv", csv)
    return records


def run_mnist_experiment(cfg: MnistConfig) -> list[MnistDepthRecord]:
    """Two-digit ridgeless regression across depths; writes mnist.csv.

    Builds the ground-truth set (count_per_class of each digit, labels
    +1/-1), solves the minimum-norm interpolant as the true coefficient
    vector, then per depth averages the squared loss on all ground-truth
    points over independent n-point training subsamples.  The subsamples
    are drawn once and reused at every depth and for the identity-
    transform baseline recorded in mnist_meta.json; one transform is built
    and held at a time.
    """
    dataset = load_idx_images(cfg.images, cfg.labels)
    subset = binary_digit_subset(
        dataset, cfg.digit_pos, cfg.digit_neg, cfg.count_per_class,
        seed=derive_seed(cfg.seed, "subset"), shuffle=cfg.shuffle,
    )
    total = len(subset)
    p = subset.x.shape[1]
    coef = min_norm_solve(subset.x, subset.y)

    geometry = ConvGeometry(GeometryKind.TWO_D, p)
    subsample_seed = derive_seed(cfg.seed, "subsample")
    # Row t holds trial t's n_train subsample indices; every depth fits all
    # trials in one stacked call.
    rows = np.stack([
        trial_rng(subsample_seed, trial).choice(total, size=cfg.n_train, replace=False)
        for trial in range(cfg.trials)
    ])
    x_trials, y_trials = subset.x[rows], subset.y[rows]

    def loss_estimate(transform: np.ndarray) -> RiskEstimate:
        fitted = fit_ridgeless(transform, x_trials, y_trials)
        errors = subset.x @ fitted.T - subset.y[:, None]
        return _estimate(np.mean(errors**2, axis=0), cfg.trials, subsample_seed)

    records = []
    for depth in cfg.depths:
        (ft,) = feature_transforms([depth], geometry, cfg.padding, cfg.architecture)
        loss = loss_estimate(ft.matrix)
        records.append(MnistDepthRecord(ft.depth, loss.mean, loss.std_error,
                                        misalignment(ft.matrix, coef)))

    baseline = loss_estimate(np.eye(p))
    meta = _meta_json(
        cfg, side=geometry.side,
        baseline_identity_loss_mean=baseline.mean,
        baseline_identity_loss_se=baseline.std_error,
    )
    csv = _csv_text(
        "mnist.csv",
        ["depth", "loss_mean", "loss_se", "misalignment"],
        [[r.depth, r.loss_mean, r.loss_se, r.misalignment] for r in records],
    )
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(cfg.outdir / "mnist.csv", csv)
    write_text_atomic(cfg.outdir / "mnist_meta.json", meta)
    return records
