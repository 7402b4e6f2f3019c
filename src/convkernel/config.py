"""Flat key=value experiment configuration.

One `key = value` pair per line, `#` starts a comment, unknown keys are
rejected.  The required `experiment` key (sweep | eigvec | mnist) selects
a schema: a table with one row per key, read by one interpreter.  Every
key other than `images` and `labels` has a default.  Errors name the
offending line and key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from convkernel.kernels import Architecture, ConvGeometry, GeometryKind, Padding
from convkernel.regression import (
    DEFAULT_BIAS_TRIALS,
    DEFAULT_RISK_TEST_POINTS,
    DEFAULT_RISK_TRIALS,
    DEFAULT_VARIANCE_TRIALS,
)

THETA_FAMILY_CONV = "conv"
THETA_FAMILY_ALIGNED_SPIKE = "aligned_spike"


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration files."""


@dataclass(frozen=True)
class SweepConfig:
    """Depth sweep of bias/variance/risk/misalignment over one problem."""

    experiment: str
    geometry: ConvGeometry
    padding: Padding
    architecture: Architecture
    theta_family: str
    family_center: int
    depths: tuple[int, ...]
    sigma_source: str
    sigma_depth: int
    sigma_file: Path | None
    beta_source: str
    beta_file: Path | None
    noise_var: float
    n_train: int
    trials_bias: int
    trials_var: int
    trials_risk: int
    risk_test_points: int
    seed: int
    outdir: Path


@dataclass(frozen=True)
class EigvecConfig:
    """Leading-eigenvector image gallery across depths (2-D only)."""

    experiment: str
    geometry: ConvGeometry
    padding: Padding
    architecture: Architecture
    depths: tuple[int, ...]
    outdir: Path


@dataclass(frozen=True)
class MnistConfig:
    """Two-digit regression depth sweep on IDX image files."""

    experiment: str
    images: Path
    labels: Path
    digit_pos: int
    digit_neg: int
    count_per_class: int
    n_train: int
    trials: int
    depths: tuple[int, ...]
    padding: Padding
    architecture: Architecture
    shuffle: bool
    seed: int
    outdir: Path


def log_spaced_depths(low: int, high: int, count: int) -> tuple[int, ...]:
    """Unique integer depths spread geometrically between low and high."""
    if low < 1:
        raise ValueError(f"log-spaced depths need depth_min >= 1, got {low}")
    if high < low:
        raise ValueError(f"need depth_max >= depth_min, got {low}..{high}")
    if count < 1:
        raise ValueError(f"need depth_count >= 1, got {count}")
    grid = np.rint(np.geomspace(low, high, count)).astype(int)
    return tuple(sorted(set(int(d) for d in grid)))


# Key kinds.  A kind may also be a tuple of allowed strings, or an Enum
# class whose values are the allowed strings.
INT, FLOAT, BOOL, PATH, FILE, DEPTHS = "int", "float", "bool", "path", "file", "depths"
REQUIRED = "required"
_RANGE_KEYS = ("depth_min", "depth_max", "depth_count")


@dataclass(frozen=True)
class Key:
    """One schema row: a config key, its kind, its default and its minimum.

    FILE must name an existing file.  DEPTHS reads either the `depths`
    list or the depth_min/depth_max/depth_count log-spaced range.  field
    names the config dataclass field when it differs from the key.
    """

    name: str
    kind: str | tuple[str, ...] | type[Enum]
    default: object = None
    minimum: int | float | None = None
    field: str | None = None


class _Pairs:
    """Parsed key/value pairs with line numbers, consumed one key at a time."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.entries: dict[str, tuple[str, int]] = {}
        self.lines: dict[str, int] = {}
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{self.path}:{line_no}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{self.path}:{line_no}: missing key before '='")
            if key in self.entries:
                raise ConfigError(
                    f"{self.path}:{line_no}: duplicate key '{key}' "
                    f"(first set on line {self.entries[key][1]})"
                )
            self.entries[key] = (value, line_no)
            self.lines[key] = line_no

    def error(self, message: str, *keys: str) -> ConfigError:
        """Error at the line of the first of keys set in the file, else line 0."""
        line = next((self.lines[k] for k in keys if k in self.lines), 0)
        return ConfigError(f"{self.path}:{line}: {message}")

    def take(self, key: str) -> tuple[str, int] | None:
        return self.entries.pop(key, None)

    def reject_unknown(self, experiment: str) -> None:
        if self.entries:
            key = min(self.entries, key=lambda k: self.entries[k][1])
            line = self.entries[key][1]
            raise ConfigError(
                f"{self.path}:{line}: unknown key '{key}' for {experiment} experiment"
            )


def _take(pairs: _Pairs, key: Key):
    """The value of one non-DEPTHS key, or its default when the key is absent."""
    name, kind = key.name, key.kind
    entry = pairs.take(name)
    if entry is None:
        if key.default is REQUIRED:
            raise pairs.error(f"missing required key '{name}'")
        return key.default
    text = entry[0]
    if kind == PATH:
        return Path(text)
    if kind == FILE:
        path = Path(text)
        if not path.is_file():
            raise pairs.error(f"{name} references a missing file: {path}", name)
        return path
    if kind == BOOL:
        if text.lower() not in ("true", "false"):
            raise pairs.error(f"{name} must be true or false, got {text!r}", name)
        return text.lower() == "true"
    if kind in (INT, FLOAT):
        try:
            value = int(text) if kind == INT else float(text)
        except ValueError:
            what = "an integer" if kind == INT else "a number"
            raise pairs.error(f"{name} must be {what}, got {text!r}", name) from None
        if not math.isfinite(value):
            raise pairs.error(f"{name} must be finite, got {text!r}", name)
        if key.minimum is not None and value < key.minimum:
            raise pairs.error(f"{name} must be >= {key.minimum}, got {value}", name)
        return value
    choices = tuple(m.value for m in kind) if isinstance(kind, type) else kind
    if text.lower() not in choices:
        raise pairs.error(
            f"unknown {name} {text!r}; choose from {', '.join(choices)}", name
        )
    return kind(text.lower()) if isinstance(kind, type) else text.lower()


def _take_depths(pairs: _Pairs, default: tuple[int, ...]) -> tuple[int, ...]:
    explicit = pairs.take("depths")
    bounds = [_take(pairs, Key(name, INT)) for name in _RANGE_KEYS]
    given = sorted((k for k in _RANGE_KEYS if k in pairs.lines), key=pairs.lines.get)
    if explicit is not None and given:
        raise pairs.error(
            "give either depths or depth_min/depth_max/depth_count, not both", "depths"
        )
    if explicit is not None:
        value, _ = explicit
        try:
            depths = tuple(int(part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise pairs.error(f"depths must be integers, got {value!r}", "depths") from None
        if not depths:
            raise pairs.error("depths must be a nonempty list", "depths")
        if any(d < 0 for d in depths):
            raise pairs.error(f"depths must be non-negative, got {list(depths)}", "depths")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise pairs.error(
                f"depths must be strictly increasing, got {list(depths)}", "depths"
            )
        return depths
    if not given:
        return default
    if len(given) < len(_RANGE_KEYS):
        raise pairs.error(
            "depth_min, depth_max and depth_count must be given together", *given
        )
    try:
        return log_spaced_depths(*bounds)
    except ValueError as exc:
        raise pairs.error(str(exc), *given) from None


# Cross-key checks.  Each error names the line of the first listed key that
# the file sets, so it reads line 0 only when every key involved is defaulted.
def _check_sweep(values: dict, pairs: _Pairs) -> None:
    for source in ("sigma", "beta"):
        chosen, path = values[f"{source}_source"], values[f"{source}_file"]
        if chosen == "file" and path is None:
            raise pairs.error(
                f"{source}_source = file requires {source}_file", f"{source}_source"
            )
        if chosen != "file" and path is not None:
            raise pairs.error(
                f"{source}_file is set but {source}_source is {chosen}, not file",
                f"{source}_file",
            )
    n, p = values["n_train"], values["geometry"].p
    if n >= p:
        raise pairs.error(
            f"need n < p for the over-parameterized regime, got n={n}, p={p}", "n", "p"
        )


def _check_mnist(values: dict, pairs: _Pairs) -> None:
    if values["digit_pos"] == values["digit_neg"]:
        raise pairs.error(
            f"digit_pos and digit_neg must differ, both are {values['digit_pos']}",
            "digit_neg", "digit_pos",
        )
    n, points = values["n_train"], 2 * values["count_per_class"]
    if n > points:
        raise pairs.error(
            f"n={n} exceeds the {points} ground-truth points", "n", "count_per_class"
        )


_PADDING = Key("padding", Padding, Padding.ZERO)
_ARCHITECTURE = Key("architecture", Architecture, Architecture.POOLING)
_N_TRAIN = Key("n", INT, 10, 1, field="n_train")
_SEED = Key("seed", INT, 0)
_OUTDIR = Key("outdir", PATH, Path("out"))

# Experiment -> (config class, schema rows in parse order, cross-key check).
SCHEMAS = {
    "sweep": (SweepConfig, (
        Key("geometry", GeometryKind, GeometryKind.ONE_D),
        Key("p", INT, 20, 1),
        _PADDING,
        _ARCHITECTURE,
        Key("theta_family", (THETA_FAMILY_CONV, THETA_FAMILY_ALIGNED_SPIKE),
            THETA_FAMILY_CONV),
        Key("family_center", INT, 10, 0),
        Key("depths", DEPTHS, log_spaced_depths(1, 100, 10)),
        Key("sigma_source", ("identity", "inverse_theta", "file"), "identity"),
        Key("sigma_depth", INT, 50, 0),
        Key("sigma_file", FILE),
        Key("beta_source", ("synthetic", "file"), "synthetic"),
        Key("beta_file", FILE),
        Key("noise_var", FLOAT, 0.01, 0.0),
        _N_TRAIN,
        Key("trials_bias", INT, DEFAULT_BIAS_TRIALS, 1),
        Key("trials_var", INT, DEFAULT_VARIANCE_TRIALS, 1),
        Key("trials_risk", INT, DEFAULT_RISK_TRIALS, 1),
        Key("risk_test_points", INT, DEFAULT_RISK_TEST_POINTS, 1),
        _SEED,
        _OUTDIR,
    ), _check_sweep),
    "eigvec": (EigvecConfig, (
        Key("p", INT, 784, 1),
        _PADDING,
        _ARCHITECTURE,
        Key("depths", DEPTHS, (0, 1, 4, 16, 64, 256, 1024)),
        _OUTDIR,
    ), None),
    "mnist": (MnistConfig, (
        Key("images", FILE, REQUIRED),
        Key("labels", FILE, REQUIRED),
        Key("digit_pos", INT, 0, 0),
        Key("digit_neg", INT, 1, 0),
        Key("count_per_class", INT, 50, 1),
        _N_TRAIN,
        Key("trials", INT, 20, 1),
        Key("depths", DEPTHS, (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)),
        _PADDING,
        _ARCHITECTURE,
        Key("shuffle", BOOL, False),
        _SEED,
        _OUTDIR,
    ), _check_mnist),
}


def parse_config(path: str | Path) -> SweepConfig | EigvecConfig | MnistConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    pairs = _Pairs(path)
    entry = pairs.take("experiment")
    if entry is None:
        raise ConfigError(f"{pairs.path}:0: missing required key 'experiment'")
    experiment, line_no = entry[0].lower(), entry[1]
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"{pairs.path}:{line_no}: unknown experiment {entry[0]!r}; "
            f"choose from {', '.join(sorted(SCHEMAS))}"
        )
    config_class, keys, check = SCHEMAS[experiment]
    values: dict = {"experiment": experiment}
    for key in keys:
        value = _take_depths(pairs, key.default) if key.kind == DEPTHS else _take(pairs, key)
        values[key.field or key.name] = value
    if "p" in values:  # p and the geometry kind (2-D when not a key) form one field
        kind = values.pop("geometry", GeometryKind.TWO_D)
        try:
            values["geometry"] = ConvGeometry(kind, values.pop("p"))
        except ValueError as exc:
            raise pairs.error(str(exc), "p") from None
    pairs.reject_unknown(experiment)
    if check is not None:
        check(values, pairs)
    return config_class(**values)
