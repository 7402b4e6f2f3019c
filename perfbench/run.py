"""convkernel benchmark: end-to-end CLI experiment runs, with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop: this process runs one workload sample at a time,
each in a fresh interpreter (child.py), and starts the next only after the
previous one has exited and its outputs have been checked.  Samples repeat
while the next one is expected to end within S seconds; one always runs.

--trace 0 reports the end-to-end metrics (medians over samples):
  setup_s      interpreter start through `import convkernel` and parse_config
  run_s        the experiment runner's call until its outputs are written
  peak_rss_mb  peak resident memory of the sample process (its VmHWM at exit)
The two times are in reference-core seconds: this process and every sample
run on one CPU, a thread on that CPU times a fixed unit of work every
CAL_PERIOD_S, and each sample's wall time is multiplied by the core's mean
speed around it, CAL_REF_S over the unit time (see Calibrator).  The
machine block holds the wall-clock medians and the core's median speed.
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones (see README.md).

Every sample's outputs are checked (exit code, finite CSV/JSON values,
the workload's science property, recorded reference values); a failed
sample counts in `failed` and does not stop the run.  The last stdout line
is the result JSON; the line before it is the machine block.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK_ROOT = Path.cwd() / ".perfbench_work"
# One BLAS thread: the closed loop runs one process at a time and single-
# threaded BLAS keeps timings steady on a shared machine; at most nproc.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Set-up-only samples before each run sample, so that setup_s is a median
# over the whole run and not over its first seconds.
SETUP_PROBES = 5
HARD_LIMIT_S = 150.0  # kill a sample that would push the run past this
# Every traced span lies inside the runner's root span, so the layer self
# times plus experiments.self_s equal the traced run_s by construction.  What
# can fail is coverage: runner time outside every traced call (the root's
# self time, experiments.self_s) may be at most this share of the traced run_s.
RUNNER_SELF_SHARE = 0.05
# A vCPU of a shared host slows by up to 1.8x for seconds to minutes at a
# time (measured on a 2-vCPU Xeon VM: CPU time grows with wall time, so it is
# not steal), and the two vCPUs do so independently.  A unit of work timed
# on the sample's own CPU tracks it: over 1 s windows the unit's time and a
# numpy workload's correlated at 0.97, and their ratio varied 4% where each
# varied 17%.  Of the units tried (interpreter loop, small numpy kernels,
# small pinv and draws, 60x60 eigh, 200x200 matmul), small numpy kernels plus
# the eigh left the least spread between 40 s runs on all three workloads.
# Times are scaled to a core on which one unit takes CAL_REF_S.
CAL_PERIOD_S = 0.05
CAL_PAD_S = 0.25  # unit timings this far either side of a sample count for it
CAL_EIGH_SIZE = 60
CAL_REF_S = 0.001  # about the median unit time on that VM


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_unit(symmetric: np.ndarray) -> float:
    """The fixed unit of work: small numpy kernels and one LAPACK eigensolve.

    Both are below OpenBLAS's threading threshold, so the unit runs on the
    calling thread's CPU whatever the BLAS thread count.
    """
    a = np.arange(1024, dtype=np.float64).reshape(32, 32) / 1024.0
    for _ in range(8):
        a = np.sin(a @ a)
    return float(a.sum() + np.linalg.eigh(symmetric)[0][-1])


class Calibrator:
    """Times calibration_unit() every CAL_PERIOD_S on the calling thread's CPU.

    Unit times are thread CPU time, so a unit preempted by the sample it
    measures is still timed right.
    """

    def __init__(self) -> None:
        base = np.random.default_rng(0).standard_normal((CAL_EIGH_SIZE, CAL_EIGH_SIZE))
        self._symmetric = base @ base.T
        # units is appended before starts, so every index into starts is valid in units.
        self.starts: list[float] = []
        self.units: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Calibrator":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(CAL_PERIOD_S):
            start, cpu = _now(), time.thread_time()
            calibration_unit(self._symmetric)
            self.units.append(time.thread_time() - cpu)
            self.starts.append(start)

    def speed(self, start: float, end: float) -> float:
        """The core's mean speed in [start - pad, end + pad], relative to CAL_REF_S.

        A sample's work is its wall time times the mean rate at which the
        core worked, so the rates CAL_REF_S / unit time are averaged, not
        the unit times.
        """
        lo = bisect.bisect_left(self.starts, start - CAL_PAD_S)
        hi = bisect.bisect_right(self.starts, end + CAL_PAD_S)
        window = self.units[lo:hi]
        if not window:
            raise RuntimeError("no calibration unit was timed around a sample")
        return statistics.fmean(CAL_REF_S / unit for unit in window)


@dataclass
class Sample:
    mode: str
    report: dict = field(default_factory=dict)
    problem: str | None = None

    @property
    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_kb"] / 1024.0

    @property
    def setup_s(self) -> float:
        return self.report["t_setup_done"] - self.report["t_spawn"]

    @property
    def run_s(self) -> float:
        return self.report["t_run_end"] - self.report["t_run_start"]


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float,
                 references: dict | None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.references = references
        self.config = workloads.write_inputs(workload, seed, workdir, workdir / "out")
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
        self.count = 0

    def sample(self, mode: str) -> Sample:
        """Start one child, wait for it, and check what it wrote."""
        self.count += 1
        report_path = self.workdir / f"report{self.count}.json"
        log_path = self.workdir / f"stderr{self.count}.txt"
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        with open(log_path, "wb") as log:
            t_spawn = _now()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(self.config),
                 str(report_path)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=log,
            )
            killer = threading.Timer(max(self.deadline - _now(), 1.0), proc.kill)
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
        sample = Sample(mode)
        try:
            sample.report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            sample.problem = f"no report (exit code {proc.returncode})"
            return sample
        sample.report["t_spawn"] = t_spawn
        if proc.returncode != 0:
            error = sample.report.get("error", "").strip().splitlines()
            sample.problem = f"exit code {proc.returncode}: {error[-1] if error else ''}"
        elif mode != "setup":
            outdir = self.workdir / "out"
            try:
                workloads.check_outputs(self.workload, self.seed, outdir, self.references)
            except workloads.CheckFailed as error:
                sample.problem = f"output check: {error}"
            except Exception as error:  # an output malformed in a way no check foresaw
                sample.problem = f"output check: {type(error).__name__}: {error}"
            written = list(outdir.iterdir()) if outdir.is_dir() else []
            sample.report["files_written"] = len(written)
            sample.report["bytes_written"] = sum(p.stat().st_size for p in written)
        return sample

    def loop(self, cycle: list[str], end: float) -> list[Sample]:
        """Repeat `cycle` of sample modes while one more is expected to end by `end`.

        The cycle always runs once.  The last cycle's duration is the
        estimate, so a run ends close to `end` however slow the workload.
        """
        samples: list[Sample] = []
        while True:
            start = _now()
            samples += [self.sample(mode) for mode in cycle]
            if 2 * _now() - start > end:
                return samples


def machine_block(seed: int) -> dict:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "convkernel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "l3_cache": l3,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "variant": workloads.variant(seed),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, seconds: float, cal: Calibrator
               ) -> tuple[list[Sample], dict, dict]:
    """End-to-end metrics in reference-core seconds, and their wall-clock medians."""
    bench.sample("setup")  # warm-up: byte-compile and fill the page cache
    samples = bench.loop(["setup"] * SETUP_PROBES + ["run"], _now() + seconds)
    good = [s for s in samples if s.mode == "run" and s.problem is None]
    probes = [s for s in samples if "t_setup_done" in s.report]
    setup_speeds = [cal.speed(s.report["t_spawn"], s.report["t_setup_done"]) for s in probes]
    run_speeds = [cal.speed(s.report["t_run_start"], s.report["t_run_end"]) for s in good]
    metrics = {
        "setup_s": (_median([s.setup_s * k for s, k in zip(probes, setup_speeds)]), "s"),
        "run_s": (_median([s.run_s * k for s, k in zip(good, run_speeds)]), "s"),
        "peak_rss_mb": (_median([s.peak_rss_mb for s in good]), "MB"),
    }
    wall = {
        "setup_s": _median([s.setup_s for s in probes]),
        "run_s": _median([s.run_s for s in good]),
        "core_speed": _median(run_speeds),
    }
    return samples, metrics, wall


def per_layer(bench: Bench, seconds: float) -> tuple[list[Sample], dict, list[str]]:
    bench.sample("setup")
    samples = bench.loop(["run", "trace"], _now() + seconds)
    untraced = [s for s in samples if s.mode == "run" and s.problem is None]
    traced = [s for s in samples if s.mode == "trace" and s.problem is None]
    problems: list[str] = []
    if not traced:
        return samples, {}, problems
    layer_runs = [layer_metrics(s) for s in traced]
    counters = [{k: v for k, (v, unit) in m.items() if unit in ("count", "B", "ratio")}
                for m in layer_runs]
    if any(c != counters[0] for c in counters[1:]):
        problems.append("exact counters differ between traced samples (nondeterminism)")
    metrics = {}
    for key, (_, unit) in layer_runs[0].items():
        values = [m[key][0] for m in layer_runs]
        metrics[key] = (_median(values), unit)
    traced_run = metrics["trace.run_s"][0]
    runner_self = metrics["experiments.self_s"][0]
    if runner_self > RUNNER_SELF_SHARE * traced_run:
        problems.append(f"experiments.self_s {runner_self:.4f}s is over {RUNNER_SELF_SHARE:.0%} "
                        f"of the traced run_s {traced_run:.4f}s: traced layers miss that time")
    metrics["experiments.cpu_s"] = (_median([s.report["cpu_run_s"] for s in untraced]), "s")
    metrics["trace.overhead_s"] = (traced_run - _median([s.run_s for s in untraced]), "s")
    return samples, metrics, problems


def layer_metrics(sample: Sample) -> dict[str, tuple[float, str]]:
    trace = sample.report["trace"]
    by_name = spans.summarize(trace)
    counters = trace["counters"]

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(by_name.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer: str) -> float:
        return sum((v["self_s"] for n, v in by_name.items() if n.split(".")[0] == layer), 0.0)

    transforms = counters["kernels.transforms_built"]
    trials = counters["regression.mc_trials"]
    estimators = ("regression.bias_mc", "regression.variance_mc", "regression.excess_risk_mc")
    estimator_s = sum(by_name.get(n, {}).get("total_s", 0.0) for n in estimators)
    keys = counters["rng.distinct_keys"]
    out = {
        "config.parse_s": (self_s("config.parse_config"), "s"),
        "data.load_idx_s": (self_s("data.load_idx_images"), "s"),
        "data.min_norm_solve_s": (self_s("data.min_norm_solve"), "s"),
        "data.self_s": (layer_self("data"), "s"),
        "kernels.conv_op.calls": (calls("kernels.apply_conv_operator"), "count"),
        "kernels.conv_op_s": (self_s("kernels.apply_conv_operator"), "s"),
        "kernels.conv_op.adds_computed": (counters["kernels.conv_op.adds_computed"], "count"),
        "kernels.conv_op.bytes_computed": (counters["kernels.conv_op.bytes_computed"], "B"),
        "kernels.psd_check.calls": (calls("kernels._check_symmetric_psd"), "count"),
        "kernels.psd_check_s": (self_s("kernels._check_symmetric_psd"), "s"),
        "kernels.transforms_built": (transforms, "count"),
        "kernels.psd_checks_per_transform": (
            calls("kernels._check_symmetric_psd") / transforms if transforms else 0.0, "ratio"),
        "kernels.symmetric_spectrum.calls": (calls("kernels.symmetric_spectrum"), "count"),
        "kernels.symmetric_spectrum_s": (self_s("kernels.symmetric_spectrum"), "s"),
        "kernels.feature_transforms_s": (self_s("kernels.feature_transforms"), "s"),
        "kernels.self_s": (layer_self("kernels"), "s"),
        "regression.bias_mc_s": (self_s("regression.bias_mc"), "s"),
        "regression.variance_mc_s": (self_s("regression.variance_mc"), "s"),
        "regression.excess_risk_mc_s": (self_s("regression.excess_risk_mc"), "s"),
        "regression.mc_trials": (trials, "count"),
        "regression.us_per_trial": (1e6 * estimator_s / trials if trials else 0.0, "us"),
        "regression.pinv.calls": (calls("regression._apply_pinv"), "count"),
        "regression.pinv.rank_drops": (counters["regression.pinv.rank_drops"], "count"),
        "regression.pinv_s": (self_s("regression._apply_pinv"), "s"),
        "regression.fit_ridgeless.calls": (calls("regression.fit_ridgeless"), "count"),
        "regression.fit_ridgeless_s": (self_s("regression.fit_ridgeless"), "s"),
        "regression.psd_sqrt.calls": (calls("regression.psd_sqrt"), "count"),
        "regression.misalignment_s": (self_s("regression.misalignment"), "s"),
        "regression.self_s": (layer_self("regression"), "s"),
        "rng.trial_rng.calls": (calls("rng.trial_rng"), "count"),
        "rng.trial_rng_s": (self_s("rng.trial_rng"), "s"),
        "rng.streams_per_key": (calls("rng.trial_rng") / keys if keys else 0.0, "ratio"),
        "rng.self_s": (layer_self("rng"), "s"),
        "fileio.write_s": (layer_self("fileio"), "s"),
        "fileio.files_written": (sample.report["files_written"], "count"),
        "fileio.bytes_written": (sample.report["bytes_written"], "B"),
        "experiments.self_s": (self_s("experiments.run"), "s"),
        "trace.run_s": (sample.run_s, "s"),
        "trace.spans": (len(trace["spans"]), "count"),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convkernel" / "__init__.py").is_file():
        print(f"error: {SRC / 'convkernel'} not found; run from the repository root",
              file=sys.stderr)
        return 2

    # One CPU for this thread, the threads it starts and every sample process,
    # so that the calibrator times the core the samples run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = _now()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    wall: dict = {}
    try:
        bench = Bench(args.workload, args.seed, workdir, start + HARD_LIMIT_S,
                      workloads.load_references())
        with Calibrator() as cal:
            if args.trace:
                samples, metrics, problems = per_layer(bench, args.seconds)
            else:
                samples, metrics, wall = end_to_end(bench, args.seconds, cal)
                problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    failed = [s for s in samples if s.problem is not None]
    for s in failed:
        print(f"failed {s.mode} sample: {s.problem}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine_block(args.seed),
                      "samples": {m: sum(s.mode == m for s in samples)
                                  for m in ("setup", "run", "trace")},
                      "wall": wall}))
    print(json.dumps({
        "correct": not failed and not problems and bool(metrics),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
