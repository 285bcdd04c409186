"""One run of one workload, in the fresh process ``run.py`` starts.

Sets the workload up several times (the median is ``setup_s``), then
makes timed passes until ``--seconds`` have gone by, and prints one JSON
object with the raw per-pass numbers for ``run.py`` to reduce.  Each
set-up and pass carries its ``speed`` factor from the probe in
``speed.py``.  The cyclic GC is handled the same way in every run:
everything set-up built is frozen out of collection, and a full
collection runs before each pass, outside its timing.

With ``--trace 1`` the run sets up once with the layer wrappers
installed, then alternates untraced and traced passes for ``--seconds``,
and writes every span to ``perfbench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS  # first: it puts the program on sys.path

import layers
from repro import obs
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3
#: two passes at least, so that every run compares two outputs
MIN_PASSES = 2


def obs_totals():
    """Counters, plus histogram sums, of the always-on obs registry."""
    snap = obs.snapshot()
    totals = dict(snap.counters)
    for name, (_, total, _, _) in snap.hists.items():
        totals[name] = total
    return totals


def one_pass(workload, state, probe, before=None, after=None):
    probe.factor()
    gc.collect()
    if before is not None:
        before()
    wall = time.perf_counter()
    cpu = time.process_time()
    result = workload.run(state)
    record = dataclasses.asdict(result)
    record["wall_s"] = time.perf_counter() - wall
    record["cpu_s"] = time.process_time() - cpu
    record["speed"] = probe.factor()
    if after is not None:
        after(record)
    return record


def timed_passes(workload, state, seconds, probe):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(one_pass(workload, state, probe))
    return passes


def setup(workload, seed, repeats, probe):
    times = []
    speeds = []
    state = None
    for _ in range(repeats):
        state = None  # drop the last set-up first, so peak memory is one
        gc.collect()
        probe.factor()
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
        speeds.append(probe.factor())
    gc.collect()
    gc.freeze()
    return state, {"setup_s": times, "setup_speed": speeds}


def traced_run(workload, seed, seconds, probe):
    """Untraced and traced passes alternate, so drift in machine speed
    and warm-up hit both sides of the tracing overhead alike."""
    tracer = Tracer()
    layers.install(tracer)
    state, result = setup(workload, seed, 1, probe)
    tracer.unwrap_all()
    marks = {}

    def before():
        tracer.begin_phase(len(traced))
        marks.update(obs_totals())

    def after(record):
        delta = {k: v - marks.get(k, 0) for k, v in obs_totals().items()}
        record["layers"] = layers.pass_metrics(
            tracer, len(traced), record["wall_s"], delta, record["outputs"],
            record["speed"], result["setup_speed"][0])

    base, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        base.append(one_pass(workload, state, probe))
        layers.install(tracer)
        try:
            traced.append(one_pass(workload, state, probe, before, after))
        finally:
            tracer.unwrap_all()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-{seed}.jsonl")
    result.update(passes=base, traced=traced)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, probe)
    else:
        state, result = setup(workload, args.seed, SETUP_REPEATS, probe)
        result["passes"] = timed_passes(workload, state, args.seconds, probe)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
