"""The repo's end-to-end benchmark: curation, training + evaluation, checking.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload curate --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload run happens in a fresh process (``worker.py``) with every
inherited ``REPRO_*`` variable scrubbed, ``REPRO_OBS=off``, no sim disk
cache and a fixed hash seed, so no cache or registry leaks between runs.
This process reduces the worker's per-pass numbers, checks the outputs
(``oracle.py``), prints a report, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` (``internal`` verdicts)
and ``metrics``.  It exits non-zero when any check fails.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; each is the median over the run's timed passes
(``setup_s`` over its set-ups).  Every time is in seconds at the
reference machine speed of ``speed.py``: the raw time of each set-up
or pass scaled by the speed the probe measured around it.  With ``--trace 1`` they are the
per-layer metrics, from a separate run whose traced passes time each
layer by wrapping its functions (``layers.py``); the report then shows
the per-layer self times, ``unattributed.s`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from layers import SETUP_TIMES, layer_of
from oracle import check, has_expectation, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curate", "train_eval", "sim_check")
#: a run that takes longer is killed and fails
CHILD_TIMEOUT_S = 170

#: the paper's headline numbers, printed next to ours as a shape check
PAPER_PASSK_DELTA = {"1": 0.7, "5": 7.9, "10": 10.1}
PAPER_VIOLATIONS = (0.02, 0.03)


def child_env(extra: Dict[str, str] = None) -> Dict[str, str]:
    # The worker finds the program in its own checkout, never elsewhere.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(REPRO_OBS="off", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(extra or {})
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def percentile_report(samples: List[float]) -> str:
    """Median, and the highest of p90/p99 with >= 10 samples beyond it."""
    n = len(samples)
    parts = [f"p50={statistics.median(samples):.4g}"]
    for p in (90, 99):
        if n * (100 - p) / 100 >= 10:
            parts.append(f"p{p}={_quantile(samples, p / 100):.4g}")
    return ", ".join(parts) + f" (n={n})"


def _quantile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def scaled(passes: List[Dict[str, Any]], key: str) -> List[float]:
    """One raw time per pass, at the reference speed."""
    return [p[key] * p["speed"] for p in passes]


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    passes = result["passes"]
    wall = statistics.median(scaled(passes, "wall_s"))
    return {
        "setup_s": statistics.median(
            t * f for t, f in zip(result["setup_s"], result["setup_speed"])),
        "wall_s": wall,
        "cpu_s": statistics.median(scaled(passes, "cpu_s")),
        "items_per_s": passes[0]["items"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def workload_extras(result: Dict[str, Any]) -> Dict[str, float]:
    """train_s/eval_s and verdict latencies: 0 where a workload has none."""
    passes = result["passes"]
    latencies = [s * p["speed"] for p in passes for s in p["latencies"]]
    out = {
        name: statistics.median(p["parts"].get(name, 0.0) * p["speed"]
                                for p in passes)
        for name in ("train_s", "eval_s")
    }
    out["verdict_ms_p50"] = (
        statistics.median(latencies) * 1e3 if latencies else 0.0)
    out["verdict_ms_p90"] = (
        _quantile(latencies, 0.9) * 1e3 if latencies else 0.0)
    return out


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    traced = result["traced"]
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    base = statistics.median(scaled(result["passes"], "wall_s"))
    wall = statistics.median(scaled(traced, "wall_s"))
    out.update(workload_extras(result))
    out["trace.base_wall_s"] = base
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - base
    out["trace.overhead_ratio"] = (wall - base) / base
    return out


def all_passes(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    return result["passes"] + result.get("traced", [])


def print_report(workload, seed, result, metrics, units, failures, trace,
                 committed):
    passes = result["passes"]
    attempted = sum(p["items"] for p in all_passes(result))
    failed = sum(p["failed"] for p in all_passes(result))
    print(f"== {workload} (seed {seed}): {len(passes)} timed passes of "
          f"{passes[0]['items']} items, {len(result['setup_s'])} set-ups")
    if not trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:12.5g} {units[name]}")
        print(f"  {'error_frac':<34} {failed / attempted:12.5g} ratio "
              f"({failed} of {attempted} operations)")
        print(f"  wall_s per pass: {percentile_report(scaled(passes, 'wall_s'))}")
        print(f"  raw wall_s per pass: "
              f"{percentile_report([p['wall_s'] for p in passes])}, machine "
              f"speed factor {statistics.median(p['speed'] for p in passes):.3f}")
        extras = workload_extras(result)
        if workload == "train_eval":
            print(f"  train_s {extras['train_s']:.4g} s, "
                  f"eval_s {extras['eval_s']:.4g} s")
            print_paper_shape(passes[0]["outputs"])
        if workload == "sim_check":
            latencies = [s * p["speed"] * 1e3
                         for p in passes for s in p["latencies"]]
            print(f"  verdict_ms: {percentile_report(latencies)}")
    else:
        print_layers(metrics, units)
    print("  outputs checked against the committed expectation" if committed
          else "  no committed expectation for this seed: seed-independent "
          "checks only")
    for failure in failures:
        print(f"  FAILED {failure}")


def print_paper_shape(outputs):
    base = outputs["pass_at_k"]["base"]
    freev = outputs["pass_at_k"]["freev"]
    for k, paper in PAPER_PASSK_DELTA.items():
        print(f"  pass@{k}: base {base[k]:.1%} -> FreeV {freev[k]:.1%} "
              f"({(freev[k] - base[k]) * 100:+.1f} points; paper {paper:+.1f})")
    rates = outputs["violation_rate"]
    print(f"  violations: base {rates['base']:.1%} -> FreeV "
          f"{rates['freev']:.1%} (paper {PAPER_VIOLATIONS[0]:.0%} -> "
          f"{PAPER_VIOLATIONS[1]:.0%})")


def print_layers(metrics, units):
    wall = metrics["trace.wall_s"]
    for name in SETUP_TIMES:
        print(f"  set-up: {name} {metrics[name]:.4f} s")
    times = {n: v for n, v in metrics.items() if n.endswith(".s")
             and n != "vereval.parse.s" and n not in SETUP_TIMES}
    print(f"  self time per span, traced pass median (wall {wall:.4g} s):")
    for name, value in sorted(times.items(), key=lambda kv: -kv[1]):
        if value:
            print(f"    {name:<32} {value:9.4f} s {value / wall:7.1%}")
    layers_total: Dict[str, float] = {}
    for name, value in times.items():
        if name != "unattributed.s":
            layer = layer_of(name)
            layers_total[layer] = layers_total.get(layer, 0.0) + value
    ranked = sorted(layers_total.items(), key=lambda kv: -kv[1])
    print("  per layer: " + ", ".join(
        f"{layer} {value:.3f} s" for layer, value in ranked if value))
    print(f"  attributed {1 - metrics['unattributed.s'] / wall:.1%} of wall_s;"
          f" vereval.parse.s {metrics['vereval.parse.s']:.4f} s is the total "
          "under parse_source_fast")
    print(f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s = "
          f"{metrics['trace.overhead_ratio']:+.1%} of the untraced "
          f"{metrics['trace.base_wall_s']:.4f} s")
    for name, value in sorted(metrics.items()):
        if not name.endswith(".s") and value:
            print(f"    {name:<32} {value:12.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Workloads are described in perfbench/workloads.py.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    expected = load_expected()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    combined: Dict[str, Dict[str, float]] = {}
    for workload in names:
        try:
            result = run_worker(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        metrics = per_layer(result) if args.trace else end_to_end(result)
        if set(metrics) != set(units):
            print(f"{workload}: metrics {sorted(set(metrics) ^ set(units))} "
                  "differ from BENCHMARK.json", file=sys.stderr)
            return 2
        passes = all_passes(result)
        failures = check(workload, args.seed, [p["outputs"] for p in passes],
                         expected)
        print_report(workload, args.seed, result, metrics, units, failures,
                     args.trace, has_expectation(workload, args.seed, expected))
        correct = correct and not failures
        attempted += sum(p["items"] for p in passes)
        failed += sum(p["failed"] for p in passes)
        combined[workload] = metrics

    # With --workload all, each metric name gets its workload as a prefix.
    metrics = {
        (f"{workload}." if len(names) > 1 else "") + name:
            {"value": value, "unit": units[name]}
        for workload, values in combined.items()
        for name, value in values.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
