"""The README's config tables and the benchmark's traced functions match the code."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from convkernel.config import REQUIRED, SCHEMAS, parse_config

ROOT = Path(__file__).resolve().parents[1]
HEADING = re.compile(r"^#### `(\w+)`$")
ROW = re.compile(r"^\| `(\w+)` \| (`[^`]*`|required|none) \|")


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


@pytest.mark.parametrize("experiment", sorted(SCHEMAS))
def test_readme_keys_and_defaults_match_schema(tmp_path, experiment):
    documented = readme_tables()[experiment]
    _, keys, _ = SCHEMAS[experiment]
    assert set(documented) == {key.name for key in keys}

    required = ""
    for key in keys:
        if key.default is REQUIRED:
            (tmp_path / key.name).write_bytes(b"")
            required += f"{key.name} = {tmp_path / key.name}\n"

    def parse(text):
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\n{required}{text}")
        return parse_config(path)

    baseline = parse("")
    for key in keys:
        default = documented[key.name]
        if default == "required":
            assert key.default is REQUIRED, key.name
        elif default == "none":
            assert key.default is None, key.name
        else:
            assert parse(f"{key.name} = {default.strip('`')}\n") == baseline, key.name


def test_traced_functions_exist():
    """Every function the benchmark's tracer wraps is still defined where it looks."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, functions in spans.TRACED.items():
        module = importlib.import_module(f"convkernel.{owner}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"{owner}.{function}"


def test_readme_library_example_runs(capsys):
    """The README's library example runs against the current API."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "RiskEstimate(" in capsys.readouterr().out
