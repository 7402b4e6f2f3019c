"""Experiment runners behind the CLI: depth sweeps, eigenvector gallery,
two-digit image regression.

A sweep runs its depths in groups whose p x p arrays and per-trial values
fit DEPTH_GROUP_BUDGET_BYTES; each estimator draws its trials once per group
and solves every depth of the group on them as if it were alone.

Every runner computes all records first and only then writes its outputs
atomically, so a failed run leaves no partial files.  Output is fully
determined by the config (including its seed) and the BLAS thread count:
reruns at the same thread count are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from convkernel.config import (
    NOISE_VAR_MAX,
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
    FeatureTransform,
    GeometryKind,
    feature_transforms,
    leading_eigenvector,
)
from convkernel.regression import (
    RegressionProblem,
    RiskEstimate,
    bias_mc,
    estimate,
    excess_risk_mc,
    fit_ridgeless,
    misalignment,
    variance_mc,
)
from convkernel.rng import derive_seed, trial_rng

RIDGE_EPSILON_RTOL = 1e-10
# Bytes a sweep holds per group of depths.  Each depth costs its transform
# (at most p x p), variance_mc's conjugated p x p matrix and one float per
# trial of the largest estimator's per-trial values.  Larger groups draw the
# trials fewer times; a p = 20 sweep at 6000 trials holds 54.4 KB per depth,
# and a depth over the budget forms a group of one.
DEPTH_GROUP_BUDGET_BYTES = 16 * 2**20


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

    @property
    def image_file(self) -> str:
        return f"eigvec_D{self.depth}.pgm"


@dataclass(frozen=True)
class MnistDepthRecord:
    depth: int
    loss_mean: float
    loss_se: float
    misalignment: float


def _csv_text(name: str, records: list) -> str:
    """CSV of dataclass records, one column per field, with 17-digit floats;
    a NaN or Inf cell raises, naming file and column."""
    header = [field.name for field in fields(records[0])]
    lines = [",".join(header)]
    for row in map(astuple, records):
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
        # The sum of squares underflows to 0 when every entry is below about
        # 1e-162, and misalignment divides by its root; one that overflows
        # is left to the signal-variance check.
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(coef))
        if norm == 0.0:
            raise ValueError(
                f"coefficient file {cfg.beta_file} is all zeros or its norm underflows")
        return coef
    return _synthetic_coef(p, cfg.seed)


def _transform(cfg: SweepConfig, coef: np.ndarray, depth: int) -> FeatureTransform:
    if cfg.theta_family == THETA_FAMILY_ALIGNED_SPIKE:
        spike = np.outer(coef, coef) + abs(depth - cfg.family_center) * np.eye(cfg.geometry.p)
        return FeatureTransform(spike)
    return feature_transforms([depth], cfg.geometry, cfg.padding, cfg.architecture)[0]


def _resolve_covariance(cfg: SweepConfig, coef: np.ndarray) -> tuple[np.ndarray, float | None]:
    """(covariance, ridge_epsilon): the identity or file covariance with no
    ridge (None), or for inverse_theta the inverse of T + epsilon I, T the
    depth-sigma_depth transform as apply on the identity and epsilon
    RIDGE_EPSILON_RTOL times its largest eigenvalue, so a near-singular T
    inverts."""
    p = cfg.geometry.p
    if cfg.sigma_source == "identity":
        return np.eye(p), None
    if cfg.sigma_source == "file":
        covariance = load_matrix_csv(cfg.sigma_file)
        if covariance.shape != (p, p):
            raise ValueError(
                f"covariance file {cfg.sigma_file} has shape {covariance.shape}, "
                f"expected ({p}, {p})"
            )
        return covariance, None
    theta = _transform(cfg, coef, cfg.sigma_depth).apply(np.eye(p))
    eigenvalues, eigenvectors = np.linalg.eigh(theta)
    epsilon = RIDGE_EPSILON_RTOL * float(eigenvalues[-1])
    inverse = (eigenvectors / (eigenvalues + epsilon)) @ eigenvectors.T
    return (inverse + inverse.T) / 2.0, epsilon


def _check_signal_variance(cfg: SweepConfig, coef: np.ndarray, covariance: np.ndarray) -> None:
    """Refuse a signal variance coef^T covariance coef above NOISE_VAR_MAX,
    the cap on the noise: the estimators square it, and past the cap they
    overflow.  Only an input file can pass the cap (a synthetic coef has
    unit norm, and an inverse_theta covariance's eigenvalues are at most
    about sqrt(p) / RIDGE_EPSILON_RTOL), so the message names the files."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        signal = float(coef @ covariance @ coef)
    if not signal <= NOISE_VAR_MAX:
        files = ", ".join(f"{key} {path}" for key, path in
                          (("beta_file", cfg.beta_file), ("sigma_file", cfg.sigma_file))
                          if path is not None)
        raise ValueError(f"signal variance {signal:.3g} exceeds {NOISE_VAR_MAX:g} ({files})")


def _sweep_group(
    cfg: SweepConfig,
    coef: np.ndarray,
    problem: RegressionProblem,
    seeds: dict[str, int],
    depths: tuple[int, ...],
) -> list[DepthSweepRecord]:
    """The records of one group of depths, whose transforms are built one
    call at a time and freed on return."""
    transforms = [_transform(cfg, coef, depth) for depth in depths]
    bias = bias_mc(transforms, problem, trials=cfg.trials_bias, seed=seeds["bias"])
    variance = variance_mc(transforms, problem, trials=cfg.trials_var,
                           seed=seeds["variance"])
    risk = excess_risk_mc(transforms, problem, trials=cfg.trials_risk,
                          seed=seeds["risk"], test_points=cfg.risk_test_points)
    columns = zip(
        depths,
        bias.mean, bias.std_error,
        variance.mean, variance.std_error,
        risk.mean, risk.std_error,
        [misalignment(transform, coef) for transform in transforms],
    )
    return [DepthSweepRecord(*column) for column in columns]


def run_depth_sweep(cfg: SweepConfig) -> list[DepthSweepRecord]:
    """Bias, variance, risk and misalignment per depth; writes sweep.csv.

    The three estimator seeds are derived once from the master seed and
    shared across depths, so per-depth estimates ride on common random
    numbers and depth comparisons are free of independent-sampling noise.
    Input files are read, and their signal variance checked, before any
    depth's transform is built, so a bad one fails before the depth work.
    Depths run in consecutive groups under DEPTH_GROUP_BUDGET_BYTES, one
    group held at a time, and every output is checked before any is
    written.
    """
    coef = _resolve_coef(cfg)
    covariance, ridge_epsilon = _resolve_covariance(cfg, coef)
    _check_signal_variance(cfg, coef, covariance)
    problem = RegressionProblem(covariance, coef, cfg.noise_var, cfg.n_train)
    seeds = {name: derive_seed(cfg.seed, name) for name in ("bias", "variance", "risk")}

    p = cfg.geometry.p
    trials = max(cfg.trials_bias, cfg.trials_var, cfg.trials_risk)
    group = max(1, DEPTH_GROUP_BUDGET_BYTES // (8 * (2 * p * p + trials)))
    records = []
    for first in range(0, len(cfg.depths), group):
        records += _sweep_group(cfg, coef, problem, seeds, cfg.depths[first:first + group])

    meta = _meta_json(cfg, derived_seeds=seeds, ridge_epsilon=ridge_epsilon)
    csv = _csv_text("sweep.csv", records)
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

    Every depth is built by one feature_transforms call, so the closed-form
    depths share one batched pass; each transform is released once its
    image is taken, and only the images are kept until all are written.
    Only depth 0 under zero padding is a dense p x p matrix
    (dense_depths={0}): its recorded image holds the rounding noise of that
    start's eigh, which a factored start does not reproduce.  Every deeper
    depth is the square of its closed-form s x s factor, whose leading
    eigenvector is solved at size s.
    """
    if cfg.geometry.kind is not GeometryKind.TWO_D:
        raise ValueError("the eigenvector gallery requires 2-D geometry")
    transforms = feature_transforms(cfg.depths, cfg.geometry, cfg.padding, cfg.architecture,
                                    dense_depths=frozenset({0}))
    records = []
    images: list[np.ndarray] = []
    for depth in cfg.depths:
        # Popped, so the list no longer holds a transform once it is solved.
        leading = leading_eigenvector(transforms.pop(0))
        records.append(GalleryRecord(depth, participation_ratio(leading)))
        images.append(grayscale(leading.reshape(cfg.geometry.axes)))
    csv = _csv_text("gallery.csv", records)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    for record, image in zip(records, images):
        write_pgm(cfg.outdir / record.image_file, image)
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
    coef = min_norm_solve(subset)

    geometry = ConvGeometry(GeometryKind.TWO_D, p)
    subsample_seed = derive_seed(cfg.seed, "subsample")
    # Slice t holds trial t's n_train subsample; every depth fits all trials
    # in one stacked call.  The stacks are allocated before the draws, so a
    # trial count too large to hold fails at once.
    x_trials = np.empty((cfg.trials, cfg.n_train, p))
    y_trials = np.empty((cfg.trials, cfg.n_train))
    for trial in range(cfg.trials):
        rows = trial_rng(subsample_seed, trial).choice(total, size=cfg.n_train, replace=False)
        x_trials[trial], y_trials[trial] = subset.x[rows], subset.y[rows]

    def loss_estimate(transform: FeatureTransform) -> RiskEstimate:
        fitted = fit_ridgeless(transform, x_trials, y_trials)
        errors = subset.x @ fitted.T - subset.y[:, None]
        return estimate(np.mean(errors**2, axis=0)[None])

    records = []
    for depth in cfg.depths:
        (ft,) = feature_transforms([depth], geometry, cfg.padding, cfg.architecture)
        loss = loss_estimate(ft)
        records.append(MnistDepthRecord(depth, loss.mean[0], loss.std_error[0],
                                        misalignment(ft, coef)))
        del ft  # so the next depth is built and checked without it

    baseline = loss_estimate(FeatureTransform(np.eye(geometry.side), 2))
    meta = _meta_json(
        cfg, side=geometry.side,
        baseline_identity_loss_mean=baseline.mean[0],
        baseline_identity_loss_se=baseline.std_error[0],
    )
    csv = _csv_text("mnist.csv", records)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(cfg.outdir / "mnist.csv", csv)
    write_text_atomic(cfg.outdir / "mnist_meta.json", meta)
    return records
