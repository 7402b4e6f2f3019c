"""Record reference outputs for every workload input variant into references.json.

Usage (from the repository root):

    python3 perfbench/record_refs.py

Each variant runs once through the benchmark's own child process, and its
outputs must pass every check but the reference comparison.  If one does
not, nothing is written.  Re-record only when the program's results are
meant to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    references = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        # eigvec-dense draws nothing at random, so one variant covers every seed.
        seeds = [0] if name == "eigvec-dense" else range(workloads.VARIANTS)
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_ROOT))
            try:
                bench = run.Bench(name, seed, workdir, run._now() + 600.0, None)
                sample = bench.sample("run")
                if sample.problem is not None:
                    print(f"{name} variant {seed}: {sample.problem}", file=sys.stderr)
                    return 1
                out = workloads.read_outputs(name, workdir / "out")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            key = name if name == "eigvec-dense" else f"{name}/{seed}"
            references[key] = workloads.encode_reference(out)
            print(f"{key}: run_s {sample.run_s:.2f}", flush=True)
    run.WORK_ROOT.rmdir()
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
