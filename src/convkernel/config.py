"""Flat key=value experiment configuration.

UTF-8 text (a leading byte-order mark is dropped), one `key = value` pair
per line, `#` starts a comment, unknown keys are rejected.  The required
`experiment` key (sweep | eigvec | mnist) selects a config dataclass,
which is the schema: each field declares its key's kind, default and
bounds, and one interpreter reads the fields in order.  Every key other
than `images` and `labels` has a default.  Errors name the offending line
and key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from convkernel.kernels import (
    DEPTH_MAX,
    Architecture,
    ConvGeometry,
    GeometryKind,
    Padding,
    check_depths,
)

THETA_FAMILY_CONV = "conv"
THETA_FAMILY_ALIGNED_SPIKE = "aligned_spike"

# Key kinds.  A kind may also be a tuple of allowed strings, or an Enum
# class whose values are the allowed strings.  An INT or FLOAT field may
# set a minimum and a maximum (DEPTH_MAX for a depth).  PATH is an output
# directory: it, or its nearest existing ancestor, must be a directory.
# FILE must name an existing file.  DEPTHS reads either the `depths` list
# or the depth_min/depth_max/depth_count log-spaced range, whose keys are
# INTs bounded by _RANGE_KEYS.  GEOMETRY reads
# `geometry` (1d | 2d) and the pixel count `p`; SQUARE reads `p` of a 2-D grid.
INT, FLOAT, BOOL = "int", "float", "bool"
PATH, FILE, DEPTHS = "path", "file", "depths"
GEOMETRY, SQUARE = "geometry", "square"
# The most depths a log-spaced range may ask for; its grid builds in about 10 ms.
DEPTH_COUNT_MAX = 10_000
# Range key -> its maximum; each is an INT of at least 1.
_RANGE_KEYS = {"depth_min": DEPTH_MAX, "depth_max": DEPTH_MAX, "depth_count": DEPTH_COUNT_MAX}
# The largest noise_var: 1e120 runs clean, and 1e160 overflows np.std at p = 20.
NOISE_VAR_MAX = 1e100
# IDX labels are unsigned bytes.
DIGIT_MAX = 255
# rng keys its streams on a seed's low 64 bits, so a seed outside
# [0, SEED_MAX] would draw exactly as one inside does.
SEED_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration files."""


def _key(kind, default=MISSING, minimum=None, maximum=None, name=None):
    """A config dataclass field, read from the config key `name` (the field
    name unless given) as `kind`.  A field without a default is a required key."""
    return field(default=default, metadata={"kind": kind, "minimum": minimum,
                                            "maximum": maximum, "key": name})


def _log_spaced_depths(low: int, high: int, count: int) -> tuple[int, ...]:
    """Unique integer depths spread geometrically between low and high."""
    # Near 2**63 a rounded float can exceed high (and int64), so ints are clipped.
    grid = np.rint(np.geomspace(low, high, count))
    return tuple(sorted({min(max(int(d), low), high) for d in grid}))


# Each config class is its experiment's schema: its fields after
# `experiment`, in order, are the keys it reads.
@dataclass(frozen=True)
class SweepConfig:
    """Depth sweep of bias/variance/risk/misalignment over one problem."""

    experiment: str
    geometry: ConvGeometry = _key(GEOMETRY, ConvGeometry(GeometryKind.ONE_D, 20))
    padding: Padding = _key(Padding, Padding.ZERO)
    architecture: Architecture = _key(Architecture, Architecture.POOLING)
    theta_family: str = _key((THETA_FAMILY_CONV, THETA_FAMILY_ALIGNED_SPIKE), THETA_FAMILY_CONV)
    family_center: int = _key(INT, 10, 0, maximum=DEPTH_MAX)
    depths: tuple[int, ...] = _key(DEPTHS, _log_spaced_depths(1, 100, 10))
    sigma_source: str = _key(("identity", "inverse_theta", "file"), "identity")
    sigma_depth: int = _key(INT, 50, 0, maximum=DEPTH_MAX)
    sigma_file: Path | None = _key(FILE, None)
    beta_source: str = _key(("synthetic", "file"), "synthetic")
    beta_file: Path | None = _key(FILE, None)
    noise_var: float = _key(FLOAT, 0.01, 0.0, maximum=NOISE_VAR_MAX)
    n_train: int = _key(INT, 10, 1, name="n")
    trials_bias: int = _key(INT, 500, 1)
    trials_var: int = _key(INT, 2000, 1)
    trials_risk: int = _key(INT, 500, 1)
    risk_test_points: int = _key(INT, 256, 1)
    seed: int = _key(INT, 0, 0, maximum=SEED_MAX)
    outdir: Path = _key(PATH, Path("out"))


@dataclass(frozen=True)
class EigvecConfig:
    """Leading-eigenvector image gallery across depths (2-D only)."""

    experiment: str
    geometry: ConvGeometry = _key(SQUARE, ConvGeometry(GeometryKind.TWO_D, 784))
    padding: Padding = _key(Padding, Padding.ZERO)
    architecture: Architecture = _key(Architecture, Architecture.POOLING)
    depths: tuple[int, ...] = _key(DEPTHS, (0, 1, 4, 16, 64, 256, 1024))
    outdir: Path = _key(PATH, Path("out"))


@dataclass(frozen=True)
class MnistConfig:
    """Two-digit regression depth sweep on IDX image files."""

    experiment: str
    images: Path = _key(FILE)
    labels: Path = _key(FILE)
    digit_pos: int = _key(INT, 0, 0, maximum=DIGIT_MAX)
    digit_neg: int = _key(INT, 1, 0, maximum=DIGIT_MAX)
    count_per_class: int = _key(INT, 50, 1)
    n_train: int = _key(INT, 10, 1, name="n")
    trials: int = _key(INT, 20, 1)
    depths: tuple[int, ...] = _key(DEPTHS, (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
    padding: Padding = _key(Padding, Padding.ZERO)
    architecture: Architecture = _key(Architecture, Architecture.POOLING)
    shuffle: bool = _key(BOOL, False)
    seed: int = _key(INT, 0, 0, maximum=SEED_MAX)
    outdir: Path = _key(PATH, Path("out"))


class _Pairs:
    """Parsed key/value pairs with line numbers, consumed one key at a time."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.entries: dict[str, tuple[str, int]] = {}
        self.lines: dict[str, int] = {}
        try:
            lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
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


def _take(pairs: _Pairs, name: str, kind, default=None, minimum=None, maximum=None):
    """The value of one scalar key, or its default when the key is absent."""
    entry = pairs.take(name)
    if entry is None:
        if default is MISSING:
            raise pairs.error(f"missing required key '{name}'")
        return default
    text = entry[0]
    if kind in (PATH, FILE):
        path = Path(text)
        try:  # raises for a name too long for the file system, say
            if kind == FILE:
                problem = None if path.is_file() else f"references a missing file: {path}"
            else:  # mkdir(parents=True) needs the nearest existing path to be a directory
                nearest = next((a for a in (path, *path.parents) if a.exists()), path)
                problem = (None if nearest.is_dir()
                           else f"cannot be made: {nearest} is not a directory")
        except OSError as exc:
            raise pairs.error(f"{name} cannot be checked: {exc}", name) from None
        if problem is not None:
            raise pairs.error(f"{name} {problem}", name)
        return path
    if kind == BOOL:
        if text.lower() not in ("true", "false"):
            raise pairs.error(f"{name} must be true or false, got {text!r}", name)
        return text.lower() == "true"
    if kind in (INT, FLOAT):
        try:
            value = float(text) if kind == FLOAT else int(text)
        except ValueError:
            what = "a number" if kind == FLOAT else "an integer"
            raise pairs.error(f"{name} must be {what}, got {text!r}", name) from None
        if kind == FLOAT and not math.isfinite(value):
            raise pairs.error(f"{name} must be finite, got {text!r}", name)
        if minimum is not None and value < minimum:
            raise pairs.error(f"{name} must be >= {minimum}, got {value}", name)
        if maximum is not None and value > maximum:
            raise pairs.error(f"{name} must be <= {maximum}, got {value}", name)
        return value
    choices = tuple(m.value for m in kind) if isinstance(kind, type) else kind
    if text.lower() not in choices:
        raise pairs.error(
            f"unknown {name} {text!r}; choose from {', '.join(choices)}", name
        )
    return kind(text.lower()) if isinstance(kind, type) else text.lower()


def _take_geometry(pairs: _Pairs, kind: str, default: ConvGeometry) -> ConvGeometry:
    layout = default.kind
    if kind == GEOMETRY:
        layout = _take(pairs, "geometry", GeometryKind, layout)
    try:
        return ConvGeometry(layout, _take(pairs, "p", INT, default.p, 1))
    except ValueError as exc:
        raise pairs.error(str(exc), "p", "geometry") from None


def _take_depths(pairs: _Pairs, default: tuple[int, ...]) -> tuple[int, ...]:
    explicit = pairs.take("depths")
    low, high, count = (_take(pairs, name, INT, minimum=1, maximum=maximum)
                        for name, maximum in _RANGE_KEYS.items())
    given = sorted((k for k in _RANGE_KEYS if k in pairs.lines), key=pairs.lines.get)
    if explicit is not None and given:
        raise pairs.error(
            "give either depths or depth_min/depth_max/depth_count, not both", "depths"
        )
    if explicit is not None:
        value, _ = explicit
        parts = value.split(",") if value else []
        if not all(part.strip() for part in parts):
            raise pairs.error(f"depths has an empty item, got {value!r}", "depths")
        try:
            depths = tuple(int(part) for part in parts)
        except ValueError:
            raise pairs.error(f"depths must be integers, got {value!r}", "depths") from None
        try:
            check_depths(depths)
        except ValueError as exc:
            raise pairs.error(str(exc), "depths") from None
        return depths
    if not given:
        return default
    if len(given) < len(_RANGE_KEYS):
        raise pairs.error(
            "depth_min, depth_max and depth_count must be given together", *given
        )
    if high < low:
        raise pairs.error(f"need depth_max >= depth_min, got {low}..{high}",
                          *sorted(("depth_min", "depth_max"), key=pairs.lines.get))
    return _log_spaced_depths(low, high, count)


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


# Experiment -> (config class, cross-key check).
SCHEMAS = {
    "sweep": (SweepConfig, _check_sweep),
    "eigvec": (EigvecConfig, None),
    "mnist": (MnistConfig, _check_mnist),
}


def parse_config(path: str | Path) -> SweepConfig | EigvecConfig | MnistConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    pairs = _Pairs(path)
    experiment = _take(pairs, "experiment", tuple(sorted(SCHEMAS)), MISSING)
    config_class, check = SCHEMAS[experiment]
    values: dict = {"experiment": experiment}
    for f in fields(config_class)[1:]:  # every field after experiment is a key
        kind, default = f.metadata["kind"], f.default
        if kind == DEPTHS:
            values[f.name] = _take_depths(pairs, default)
        elif kind in (GEOMETRY, SQUARE):
            values[f.name] = _take_geometry(pairs, kind, default)
        else:
            values[f.name] = _take(pairs, f.metadata["key"] or f.name, kind, default,
                                   f.metadata["minimum"], f.metadata["maximum"])
    pairs.reject_unknown(experiment)
    if check is not None:
        check(values, pairs)
    return config_class(**values)
