"""One workload run in a fresh interpreter, started by run.py.

Usage: child.py MODE CONFIG REPORT, with MODE one of
  setup  import convkernel and parse the config, then exit;
  run    also call the experiment runner, as the CLI does;
  trace  as run, with every traced function wrapped (see spans.py).

REPORT receives a JSON object with monotonic-clock timestamps (comparable
with the parent's clock), the CPU time the runner used, the process's peak
resident memory and, in trace mode, the recorded spans and counters.  Exit
code 0 on success, 2 on any error.
"""

import json
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """VmHWM, the high-water mark of this process image's resident memory.

    Not ru_maxrss: across fork and exec that keeps the parent's resident
    size, so it would report the harness for workloads smaller than it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    mode, config_path, report_path = sys.argv[1:4]
    report: dict = {"mode": mode}
    try:
        tracer = None
        if mode == "trace":
            import spans  # the benchmark's own module, next to this file

            tracer = spans.Tracer()
        import convkernel  # noqa: F401  (part of the measured set-up)
        from convkernel import config, experiments

        if tracer is not None:
            tracer.install()
        cfg = config.parse_config(config_path)
        report["t_setup_done"] = _now()
        if mode != "setup":
            runner = {
                "sweep": experiments.run_depth_sweep,
                "eigvec": experiments.run_eigvec_gallery,
                "mnist": experiments.run_mnist_experiment,
            }[cfg.experiment]
            if tracer is not None:
                runner = tracer.wrap("experiments.run", runner)
            cpu_start = _cpu_s()
            report["t_run_start"] = _now()
            runner(cfg)
            report["t_run_end"] = _now()
            report["cpu_run_s"] = _cpu_s() - cpu_start
        if tracer is not None:
            report["trace"] = tracer.export()
        report["peak_rss_kb"] = _peak_rss_kb()
        status = 0
    except Exception:  # report any failure of the program under test
        report["error"] = traceback.format_exc()
        status = 2
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
