"""Command-line entry point.

Subcommands `sweep`, `eigvec` and `mnist` run the matching experiment from
a flat key=value config file; `validate` parses a config and reports the
experiment it describes without running anything.

Exit codes: 0 on success, 1 for config errors (bad keys, bad values,
missing input files, experiment/subcommand mismatch), 2 for runtime or
data errors encountered while running.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from convkernel.config import ConfigError, parse_config
from convkernel.data import IdxFormatError
from convkernel.experiments import (
    run_depth_sweep,
    run_eigvec_gallery,
    run_mnist_experiment,
)

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
        ("sweep", "run a depth sweep of bias, variance and excess risk"),
        ("eigvec", "render leading-eigenvector images across depths"),
        ("mnist", "run two-digit image regression across depths"),
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
    except OSError as error:
        print(f"config error: cannot read {config_path}: {error}", file=sys.stderr)
        return EXIT_CONFIG

    if command == "validate":
        print(f"config OK: {cfg.experiment} experiment, output to {cfg.outdir}")
        return EXIT_OK

    if cfg.experiment != command:
        print(
            f"config error: {config_path} describes a {cfg.experiment} experiment, "
            f"but the {command} subcommand was invoked",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    try:
        if command == "sweep":
            run_depth_sweep(cfg)
            written = ["sweep.csv", "sweep_meta.json"]
        elif command == "eigvec":
            records = run_eigvec_gallery(cfg)
            written = [r.image_file for r in records] + ["gallery.csv"]
        else:
            run_mnist_experiment(cfg)
            written = ["mnist.csv", "mnist_meta.json"]
    except (IdxFormatError, ValueError, ArithmeticError, OSError) as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return EXIT_RUNTIME

    for name in written:
        print(cfg.outdir / name)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _run(args.command, args.config)


if __name__ == "__main__":
    sys.exit(main())
