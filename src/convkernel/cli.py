"""Command-line entry point.

`run CONFIG` runs the experiment that the config's `experiment` key names
and prints the paths of the files it wrote; `validate CONFIG` parses a
config and reports the experiment it describes without running anything.

Exit codes: 0 on success, 1 for config errors (bad keys, bad values,
missing input files), 2 for runtime or data errors encountered while
running.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from convkernel.config import ConfigError, parse_config
from convkernel.experiments import RUNNERS, output_files

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convkernel",
        description=(
            "Depth-dependent feature transforms of convolutional kernels and "
            "the bias/variance of ridgeless regression on top of them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the experiment a config file describes"),
        ("validate", "parse a config file and report what it describes"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", type=Path, help="path to a key=value config file")
    return parser


def _run(command: str, config_path: Path) -> int:
    try:
        cfg = parse_config(config_path)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG

    if command == "validate":
        print(f"config OK: {cfg.experiment} experiment, output to {cfg.outdir}")
        return EXIT_OK

    try:
        RUNNERS[cfg.experiment](cfg)
    except (ValueError, ArithmeticError, OSError, MemoryError) as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return EXIT_RUNTIME

    for path in output_files(cfg):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _run(args.command, args.config)


if __name__ == "__main__":
    sys.exit(main())
