"""Config fuzz: strategies built from the config schema.

Each key's strategy comes from its config field's metadata (kind, minimum,
maximum), and the log-spaced range's from config._RANGE_KEYS, so the fuzz
follows the schema: a new key or a new bound is fuzzed without an edit
here.  Every generated file either parses or fails with its line number;
a validated sweep, clamped to tiny sizes, either runs to finite outputs
or fails with a documented data error.
"""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convkernel.cli import main
from convkernel.config import (
    _RANGE_KEYS,
    BOOL,
    DEPTHS,
    FILE,
    FLOAT,
    GEOMETRY,
    INT,
    PATH,
    SCHEMAS,
    SEED_MAX,
    SQUARE,
    ConfigError,
    SweepConfig,
    parse_config,
)
from convkernel.kernels import DEPTH_MAX, GeometryKind

# An integer key without a maximum draws up to this, and one without a
# minimum down to its negative.
INT_SPAN = 2**70
# The runtime errors a validated sweep may exit 2 with: a bad data file, as
# README "Where inputs are validated" documents.
DATA_ERRORS = re.compile(
    r"runtime error: (signal variance \S+ exceeds 1e\+100"
    r"|coefficient file .* is all zeros"
    r"|covariance is (not PSD|too large|too small)"
    r"|coef must be nonzero and finite)"
)
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


def int_texts(minimum, maximum):
    """An integer key's value: in range, on or just past a bound, or no integer."""
    low = -INT_SPAN if minimum is None else minimum - 1
    high = INT_SPAN if maximum is None else maximum + 1
    edges = sorted({low, high} | {b for b in (minimum, maximum) if b is not None})
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(edges).map(str),
                     st.sampled_from(["x", "1.5", ""]))


def tiny_ints(minimum, maximum):
    """An in-range integer for a sweep that runs in milliseconds: a depth or
    a seed spans its whole range, every other integer (the trial counts,
    depth_count) is at most its minimum + 3."""
    if minimum is None or maximum in (DEPTH_MAX, SEED_MAX):
        high = INT_SPAN if maximum is None else maximum
        low = -high if minimum is None else minimum
        return st.one_of(st.integers(low, high), st.sampled_from([low, high])).map(str)
    return st.integers(minimum, minimum + 3).map(str)


def float_texts(minimum, maximum, runnable):
    edges = [b for b in (minimum, maximum) if b is not None]
    texts = [st.floats(minimum, maximum, allow_nan=False), st.sampled_from(edges)]
    if not runnable:
        texts.append(st.sampled_from([minimum - 1.0, maximum * 10.0, math.nan, math.inf]))
    return st.one_of(texts).map(repr)


def choice_texts(kind, runnable):
    choices = [m.value for m in kind] if isinstance(kind, type) else list(kind)
    return st.sampled_from(choices + [c.upper() for c in choices]
                           + ([] if runnable else ["bogus"]))


def optional(key, texts):
    """No line for key, or one `key = text` line."""
    return st.one_of(st.just([]), texts.map(lambda text: [(key, text)]))


def range_lines(ints):
    """All three log-spaced range keys, depth_min <= depth_max."""
    bounds = [ints(1, maximum) for maximum in _RANGE_KEYS.values()]
    return st.tuples(*bounds).map(lambda texts: list(zip(
        _RANGE_KEYS, sorted(texts[:2], key=int) + [texts[2]])))


def field_lines(f, workdir, runnable):
    """The lines a config file may set for one field.  With runnable, only
    values the field accepts, and tiny integers."""
    kind, key = f.metadata["kind"], f.metadata["key"] or f.name
    ints = tiny_ints if runnable else int_texts
    if kind == DEPTHS:
        if runnable:
            lists = st.lists(st.integers(0, DEPTH_MAX), min_size=1, max_size=3,
                             unique=True).map(sorted)
            return st.one_of(st.just([]), range_lines(ints),
                             lists.map(lambda ds: [("depths", ",".join(map(str, ds)))]))
        lists = st.lists(st.integers(-1, DEPTH_MAX + 1), max_size=3)
        lines = [optional("depths", lists.map(lambda ds: ",".join(map(str, ds))))]
        lines += [optional(name, ints(1, maximum)) for name, maximum in _RANGE_KEYS.items()]
    elif kind in (GEOMETRY, SQUARE):
        lines = [optional("geometry", choice_texts(GeometryKind, runnable))
                 ] if kind == GEOMETRY else []
        lines.append(optional("p", ints(1, None)))
    elif kind == INT:
        lines = [optional(key, ints(f.metadata["minimum"], f.metadata["maximum"]))]
    elif kind == FLOAT:
        lines = [optional(key, float_texts(f.metadata["minimum"], f.metadata["maximum"],
                                           runnable))]
    elif kind == BOOL:
        lines = [optional(key, st.sampled_from(["true", "False"]
                                               + ([] if runnable else ["maybe"])))]
    elif kind in (FILE, PATH):
        # The first name is accepted, the second refused.
        names = ([workdir / f"{key}.csv", workdir / "absent.csv"] if kind == FILE
                 else [workdir / "out", workdir / "file_key.csv" / "sub"])
        names = names[:1] if runnable else names
        lines = [optional(key, st.sampled_from([str(name) for name in names]))]
    else:
        lines = [optional(key, choice_texts(kind, runnable))]
    return st.tuples(*lines).map(lambda parts: [line for part in parts for line in part])


def config_files(experiment, workdir, runnable=False):
    """The (key, text) lines of a config file for experiment, in any order;
    unless runnable, sometimes with an unknown key."""
    config_class, _ = SCHEMAS[experiment]
    parts = [field_lines(f, workdir, runnable) for f in fields(config_class)[1:]]
    if not runnable:
        parts.append(optional("bogus_key", st.just("1")))
    lines = st.tuples(*parts).map(
        lambda groups: [("experiment", experiment)] + [line for g in groups for line in g])
    return lines.flatmap(st.permutations)


@st.composite
def tiny_sweeps(draw, workdir):
    """A sweep config that validates, with p <= 9 and at most 4 trials:
    runnable field values, with every source, trial count and outdir set
    (their defaults are the identity covariance, synthetic coefficients,
    hundreds of trials and ./out), made to meet the cross-key rules (a file key
    exactly when its source is file, and n < p)."""
    lines = dict(draw(config_files("sweep", workdir, runnable=True)))
    schema = {f.name: f.metadata for f in fields(SweepConfig)}
    for source in ("sigma", "beta"):
        chosen = draw(choice_texts(schema[f"{source}_source"]["kind"], runnable=True))
        lines[f"{source}_source"] = chosen
        lines.pop(f"{source}_file", None)
        if chosen.lower() == "file":
            lines[f"{source}_file"] = str(workdir / f"{source}_file.csv")
    for key in ("trials_bias", "trials_var", "trials_risk", "risk_test_points"):
        lines.setdefault(key, draw(tiny_ints(schema[key]["minimum"], None)))
    lines["outdir"] = str(workdir / "out")  # not the default, under the working directory
    two_d = lines.get("geometry", "").lower() == "2d"
    p = draw(st.sampled_from([4, 9]) if two_d else st.integers(2, 6))
    lines.update(p=str(p), n=str(draw(st.integers(1, p - 1))))
    return draw(st.permutations(list(lines.items())))


def write(path, lines):
    path.write_text("".join(f"{key} = {text}\n" for key, text in lines))
    return path


@pytest.fixture
def workdir(tmp_path):
    for f in fields(SweepConfig) + fields(SCHEMAS["mnist"][0]):
        if f.metadata.get("kind") == FILE:
            (tmp_path / f"{f.metadata['key'] or f.name}.csv").write_text("1\n")
    (tmp_path / "file_key.csv").write_text("1\n")
    return tmp_path


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_every_file_parses_or_names_a_line(workdir, experiment):
    @SETTINGS
    @given(lines=config_files(experiment, workdir))
    def check(lines):
        path = write(workdir / "run.cfg", lines)
        try:
            cfg = parse_config(path)
        except ConfigError as error:
            line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(error))
            assert line is not None, str(error)
            assert int(line.group(1)) <= len(lines), str(error)
        else:
            assert type(cfg) is SCHEMAS[experiment][0]

    check()


MAGNITUDES = [0.0, 1e-170, 1e-5, 1.0, 1e40, 1e60, 1e153]


def test_validated_tiny_sweeps_run_or_exit_2_with_a_data_error(workdir, capsys):
    @settings(SETTINGS, max_examples=60)
    @given(lines=tiny_sweeps(workdir), data=st.data())
    def check(lines, data):
        path = write(workdir / "run.cfg", lines)
        cfg = parse_config(path)
        p = cfg.geometry.p
        scale = data.draw(st.sampled_from(MAGNITUDES[1:]), label="sigma scale")
        factor = np.random.default_rng(data.draw(st.integers(0, 9))).standard_normal((p, p))
        (workdir / "sigma_file.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in scale * factor @ factor.T))
        beta = data.draw(st.lists(st.sampled_from(MAGNITUDES), min_size=p, max_size=p),
                         label="beta")
        (workdir / "beta_file.csv").write_text(",".join(map(repr, beta)) + "\n")
        capsys.readouterr()
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        if code == 0:
            rows = np.genfromtxt(cfg.outdir / "sweep.csv", delimiter=",", skip_header=1,
                                 ndmin=2)
            assert np.isfinite(rows).all()
        else:
            assert code == 2 and DATA_ERRORS.search(err), err

    check()
