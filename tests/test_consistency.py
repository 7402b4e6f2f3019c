"""The README's config tables and the benchmark's traced functions match the
code, and the package defines nothing that it does not use itself."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from _digits import make_synthetic_idx
from convkernel.config import GEOMETRY, SCHEMAS, SQUARE, parse_config
from convkernel.experiments import run_depth_sweep, run_eigvec_gallery, run_mnist_experiment

ROOT = Path(__file__).resolve().parents[1]
# Loads the benchmark's tracer as test_traced_functions_exist does, wraps
# every traced function, runs the configs named on the command line and
# prints the span summary and counters.
TRACE_SCRIPT = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
from convkernel import config, experiments

tracer.install()
for path in sys.argv[2:]:
    cfg = config.parse_config(path)
    experiments.RUNNERS[cfg.experiment](cfg)
trace = tracer.export()
print(json.dumps({"traced": [f"{owner}.{name}" for owner, names in spans.TRACED.items()
                             for name in names],
                  "summary": spans.summarize(trace), "counters": trace["counters"]}))
"""
HEADING = re.compile(r"^#### `(\w+)`$")
ROW = re.compile(r"^\| `(\w+)` \| (`[^`]*`|required|none) \|")
CSV_HEADER = re.compile(r"^- `(\w+\.csv)`: `([\w,]+)`", re.MULTILINE)


def readme_tables() -> dict[str, dict[str, str]]:
    """Experiment -> {key: default as written} from the README's config tables."""
    tables: dict[str, dict[str, str]] = {}
    experiment = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        heading = HEADING.match(line)
        if heading:
            experiment = heading.group(1)
            tables[experiment] = {}
        row = ROW.match(line)
        if row and experiment is not None:
            tables[experiment][row.group(1)] = row.group(2)
    return tables


def test_readme_documents_every_experiment():
    assert set(readme_tables()) == set(SCHEMAS)


def schema_keys(experiment: str) -> dict[str, object]:
    """Config key -> default, from the fields of the experiment's config class."""
    config_class, _ = SCHEMAS[experiment]
    keys: dict[str, object] = {}
    for f in fields(config_class)[1:]:
        kind = f.metadata["kind"]
        if kind == GEOMETRY:
            keys["geometry"] = f.default.kind
        if kind in (GEOMETRY, SQUARE):
            keys["p"] = f.default.p
        else:
            keys[f.metadata["key"] or f.name] = f.default
    return keys


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_readme_keys_and_defaults_match_schema(tmp_path, experiment):
    documented = readme_tables()[experiment]
    keys = schema_keys(experiment)
    assert set(documented) == set(keys)

    required = ""
    for name, default in keys.items():
        if default is MISSING:
            (tmp_path / name).write_bytes(b"")
            required += f"{name} = {tmp_path / name}\n"

    def parse(text):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\n{required}{text}")
        return parse_config(path)

    baseline = parse("")
    for name, default in keys.items():
        written = documented[name]
        if written == "required":
            assert default is MISSING, name
        elif written == "none":
            assert default is None, name
        else:
            assert parse(f"{name} = {written.strip('`')}\n") == baseline, name


def test_readme_csv_headers_match_outputs(tmp_path):
    """The README's Outputs headers are the header lines the runners write."""
    outputs = (ROOT / "README.md").read_text(encoding="utf-8").split("### Outputs", 1)[1]
    documented = dict(CSV_HEADER.findall(outputs))
    images, labels = make_synthetic_idx(tmp_path, count_per_class=10)
    configs = {
        "sweep.csv": (run_depth_sweep, "experiment = sweep\np = 6\nn = 3\ndepths = 1\n"
                      "trials_bias = 2\ntrials_var = 2\ntrials_risk = 2\n"
                      "risk_test_points = 2\n"),
        "mnist.csv": (run_mnist_experiment, f"experiment = mnist\nimages = {images}\n"
                      f"labels = {labels}\ncount_per_class = 10\nn = 4\ntrials = 1\n"
                      "depths = 0\n"),
        "gallery.csv": (run_eigvec_gallery, "experiment = eigvec\np = 16\ndepths = 0,3\n"),
    }
    assert set(documented) == set(configs)
    for name, (run, text) in configs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text + f"outdir = {tmp_path / name}\n")
        run(parse_config(path))
        header = (tmp_path / name / name).read_text(encoding="utf-8").splitlines()[0]
        assert header == documented[name], name


def test_traced_functions_exist():
    """Every function the benchmark's tracer wraps is still defined where it looks."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, functions in spans.TRACED.items():
        module = importlib.import_module(f"convkernel.{owner}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"{owner}.{function}"


def test_traced_run_records_every_traced_function(tmp_path):
    """A traced run of tiny sweep, eigvec and mnist configs, as the benchmark's
    --trace 1 makes, records a span for every traced function.  It runs in a
    subprocess because the tracer patches module attributes."""
    images, labels = make_synthetic_idx(tmp_path, count_per_class=3)
    # Only mnist's depth 1, a dense stencil depth, reaches apply_conv_operator:
    # the sweep's and the gallery's depths are closed form or the start, and
    # mnist's depth 0 is the square of its 28 x 28 start.
    configs = {
        "sweep": "p = 8\nn = 4\ndepths = 1,2\nsigma_source = inverse_theta\nsigma_depth = 1\n"
                 "trials_bias = 2\ntrials_var = 2\ntrials_risk = 2\nrisk_test_points = 2\n",
        "eigvec": "p = 9\ndepths = 0,1\n",
        "mnist": f"images = {images}\nlabels = {labels}\ncount_per_class = 3\nn = 4\n"
                 "trials = 2\ndepths = 0,1\n",
    }
    paths = []
    for name, body in configs.items():
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(f"experiment = {name}\n{body}outdir = {tmp_path / name}\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             "1"))
    result = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, str(ROOT / "perfbench" / "spans.py"), *paths],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert [name for name in report["traced"] if name not in report["summary"]] == []
    for counter in ("kernels.transforms_built", "regression.mc_trials",
                    "kernels.conv_op.adds_computed"):
        assert report["counters"][counter] > 0, counter


def test_every_package_definition_has_a_caller():
    """Each module-level function and class in src/convkernel is referenced
    by the package outside its own definition, so no code is kept that only
    the tests reach."""
    package = ROOT / "src" / "convkernel"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in own
                       and definition.name in (getattr(node, "id", None),
                                               getattr(node, "attr", None))
                       for caller in trees.values() for node in ast.walk(caller)):
                unused.append(f"{module}.{definition.name}")
    assert unused == []


def test_package_init_is_only_a_docstring():
    """src/convkernel/__init__.py re-exports nothing: every caller imports a
    name from the module that defines it."""
    init = ast.parse((ROOT / "src" / "convkernel" / "__init__.py").read_text(encoding="utf-8"))
    assert len(init.body) == 1 and ast.get_docstring(init) is not None


def test_config_imports_only_kernels_from_the_package():
    """The config schema owns every key's default and bound: config.py
    imports from no convkernel module but kernels, for the geometry types
    and the depth rule."""
    tree = ast.parse((ROOT / "src" / "convkernel" / "config.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name for name in imported if name.split(".")[0] == "convkernel"} == {
        "convkernel.kernels"}


def name_owners(node: ast.AST, name: str, owner: str):
    """The innermost function enclosing each name or attribute called name
    under node, or owner where none does."""
    if isinstance(node, ast.FunctionDef):
        owner = node.name
    if name in (getattr(node, "id", None), getattr(node, "attr", None)):
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from name_owners(child, name, owner)


def package_owners(name: str) -> set[str]:
    """module.function for each package function that uses name."""
    return {f"{path.stem}.{owner}"
            for path in sorted((ROOT / "src" / "convkernel").glob("*.py"))
            for owner in name_owners(ast.parse(path.read_text(encoding="utf-8")), name,
                                     "<module>")}


def test_only_a_vector_takes_a_kronecker_power():
    """No package code forms the p x p Kronecker power of a factor: kron
    appears only in leading_eigenvector, which takes the power of a vector."""
    assert package_owners("kron") == {"kernels.leading_eigenvector"}


def test_one_kernel_solves_a_gram():
    """Cholesky factors come from one helper, kernels.cholesky_or_nan, and
    only the two certificates call it: the one PSD pseudo-inverse kernel
    and the PSD check.  So no second fast path factors a matrix outside a
    certificate.  No package code takes a general inverse, and the factor's
    triangular inverse serves the pseudo-inverse kernel alone (and its own
    block recursion)."""
    assert package_owners("cholesky") == {"kernels.cholesky_or_nan"}
    assert package_owners("cholesky_or_nan") == {"regression._apply_pinv",
                                                 "kernels._check_symmetric_psd"}
    assert package_owners("inv") == set()
    assert package_owners("_lower_triangular_inverse") == {
        "regression._apply_pinv", "regression._lower_triangular_inverse"}


def test_one_scale_safe_norm():
    """The TINY_NORM rescue of a norm is written once, in kernels.scaled_norm,
    and both norms that need it, the PSD check's and misalignment's, call it."""
    assert package_owners("TINY_NORM") == {"kernels.<module>", "kernels.scaled_norm",
                                           "kernels._check_finite_symmetric"}
    assert package_owners("scaled_norm") == {"regression.misalignment",
                                             "kernels._check_finite_symmetric"}


def test_readme_library_example_runs(capsys):
    """The README's library example runs against the current API."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "RiskEstimate(" in capsys.readouterr().out
