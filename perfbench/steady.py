"""Steadiness check: two sets of benchmark runs of the same code, compared.

Usage (from the repository root):

    python3 perfbench/steady.py [--out perfbench/baseline.json]

Reads BENCHMARK.json and runs its command on every workload, RUNS times
in each of SETS sets, each time with another seed (set k uses seeds
k*RUNS .. k*RUNS+RUNS-1; the workloads interleave).  For every workload
and end-to-end metric it reports the median, the quartile spread
(Q3 - Q1, from statistics.quantiles(n=4)) as a share of the median, and
whether each later set's median lies within the metric's bound of the
first set's, in either direction.  A metric is steady when both hold:
every spread and every drift within its bound.  One traced run per
workload and set (seed 0) checks that the exact counters repeat exactly.
The full record goes to --out; the exit code is 0 only if all is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")
EXACT_UNITS = ("count", "B", "ratio")
RUNS = 10
SETS = 2


def invoke(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    result.update(info, seed=seed, stderr=proc.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("perfbench/baseline.json"))
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(SETS):
        runs = {name: [] for name in names}
        traces = {}
        for i in range(RUNS):
            for name in names:
                result = invoke(spec["command"], name, k * RUNS + i,
                                spec["run_seconds"], 0)
                runs[name].append(result)
                print(f"set {k} {name} seed {result['seed']}: correct={result['correct']} "
                      + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                      flush=True)
        for name in names:
            traces[name] = invoke(spec["command"], name, 0, spec["run_seconds"], 1)
            print(f"set {k} {name} traced: correct={traces[name]['correct']}", flush=True)
        sets.append({"runs": runs, "traces": traces})

    verdicts = []
    steady = True
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][key]["value"] for r in s["runs"][name]]) for s in sets]
            first = stats[0][0]
            drifts = [(st[0] - first) / first for st in stats[1:]]
            agree = all(abs(d) <= bound for d in drifts)
            spread_ok = all(st[3] <= bound for st in stats)
            steady &= agree and spread_ok
            verdicts.append({
                "workload": name, "metric": key, "bound": bound,
                "medians": [st[0] for st in stats], "quartiles": [[st[1], st[2]] for st in stats],
                "spreads": [st[3] for st in stats], "drifts": drifts,
                "agree": agree, "spread_within_bound": spread_ok,
            })
            print(f"{name:14s} {key:12s} medians "
                  + " ".join(f"{st[0]:.4f}" for st in stats)
                  + " spreads " + " ".join(f"{st[3]:.2%}" for st in stats)
                  + f" drift {' '.join(f'{d:+.2%}' for d in drifts)} bound {bound:.0%}"
                  + ("" if agree and spread_ok else "  NOT STEADY"))
        counters = [{k: v["value"] for k, v in s["traces"][name]["metrics"].items()
                     if v["unit"] in EXACT_UNITS} for s in sets]
        repeat = all(c == counters[0] for c in counters[1:])
        failed = sum(r["failed"] for s in sets for r in s["runs"][name])
        attempted = sum(r["attempted"] for s in sets for r in s["runs"][name])
        all_correct = all(r["correct"] for s in sets for r in s["runs"][name]) and all(
            s["traces"][name]["correct"] for s in sets)
        steady &= repeat and all_correct
        verdicts.append({"workload": name, "counters_repeat": repeat,
                         "failed": failed, "attempted": attempted, "all_correct": all_correct})
        print(f"{name:14s} counters repeat: {repeat}; failed {failed}/{attempted}; "
              f"all correct: {all_correct}")

    record = {
        "benchmark": spec,
        "machine": sets[0]["runs"][names[0]][0]["machine"],
        "steady": steady,
        "verdicts": verdicts,
        "sets": [{"runs": {n: [{"seed": r["seed"], "correct": r["correct"],
                                "attempted": r["attempted"], "failed": r["failed"],
                                "samples": r["samples"], "wall": r["wall"],
                                "metrics": r["metrics"]}
                               for r in s["runs"][n]] for n in names},
                  "traces": {n: {"correct": s["traces"][n]["correct"],
                                 "samples": s["traces"][n]["samples"],
                                 "metrics": s["traces"][n]["metrics"]} for n in names}}
                 for s in sets],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"steady: {steady}; record written to {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
