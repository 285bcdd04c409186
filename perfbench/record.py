"""Run every workload on several seeds and append one trajectory entry.

Each seed is one ``run.py`` run (a fresh process per workload).  For each
end-to-end metric the entry keeps the median of the runs, their first
and third quartiles and the spread, (q3 - q1) / median, which must stay
within the metric's bound in ``BENCHMARK.json``.  One traced run per
workload adds the per-layer medians.  Usage, from the root of a
checkout::

    python3 perfbench/record.py --seeds 0-9 --sha "$(git rev-parse HEAD)"
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def run(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sha", required=True)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    entry = {
        "sha": args.sha,
        "nproc": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d"),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "units": {m["name"]: m["unit"]
                  for m in bench["end_to_end"] + bench["per_layer"]},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, bench["run_seconds"], 0)
                for seed in seeds]
        metrics = {name: summary([r[name] for r in runs])
                   for name in runs[0]}
        for name, stats in metrics.items():
            flag = "" if name == "setup_s" or stats["spread"] <= bounds[name] \
                else "  OVER BOUND"
            print(f"{workload:<11} {name:<12} median {stats['median']:10.4g} "
                  f"spread {stats['spread']:6.1%} (bound {bounds[name]:.0%})"
                  f"{flag}", file=sys.stderr)
        why = next(w["why"] for w in bench["workloads"]
                   if w["name"] == workload)
        entry["workloads"][workload] = {
            "why": why,
            "end_to_end": metrics,
            "per_layer": run(workload, seeds[0], bench["run_seconds"], 1),
        }

    trajectory = (json.loads(TRAJECTORY.read_text())
                  if TRAJECTORY.exists() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
