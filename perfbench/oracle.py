"""Correctness checks on a run's outputs, and the committed expectations.

``expected.json`` holds, per workload and seed, the outputs a correct
program gives: the funnel counts and a digest of the kept file ids for
``curate``, pass@1/5/10 and violation rates of both models for
``train_eval``, and a digest of every candidate's verdict for
``sim_check``.  The ``sim_check`` verdicts come from the interpreter as
the independent reference (``check_candidate_source`` one candidate at a
time, with the lockstep and all-vectors paths off), never from the fast
path under test.  The others were recorded from the program itself.

Seeds with no entry get only the seed-independent checks, which every
seed gets: all passes of a run give identical outputs, the funnel
shrinks stage by stage, rates lie in [0, 1] and FreeV's pass@10 is at
least the base's, and each constructed ``sim_check`` candidate class
gets its known verdict.

Regenerate entries (each seed runs in a fresh process)::

    python3 perfbench/oracle.py --workload sim_check --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

#: the interpreter reference: scalar checking on the interpreter only
REFERENCE_ENV = {
    "REPRO_SIM_BACKEND": "interp",
    "REPRO_SIM_LOCKSTEP_CHECK": "0",
    "REPRO_SIM_BATCH_CHECK": "0",
}


#: class of each constructed ``sim_check`` candidate -> the verdict it
#: must get whatever the seed (mutants may pass or fail)
KNOWN_VERDICTS = {
    "golden": "pass",
    "resample": "pass",
    "syntax_error": "syntax",
    "renamed": "missing_module",
    "undeclared": "elaboration",
}


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED) as f:
        return json.load(f)


def _curate_invariants(out) -> List[str]:
    failures = []
    funnel = out["funnel"]
    if not funnel:
        return ["curate: empty funnel"]
    previous = funnel[0][1]
    for name, n_in, n_out in funnel:
        if n_in != previous or not 0 <= n_out <= n_in:
            failures.append(
                f"curate: funnel not monotone at {name}: {n_in} -> {n_out} "
                f"after {previous}")
        previous = n_out
    return failures


def _train_eval_invariants(out) -> List[str]:
    failures = []
    rates = [*out["violation_rate"].values()]
    for scores in out["pass_at_k"].values():
        rates += scores.values()
        ordered = [scores[k] for k in sorted(scores, key=int)]
        if ordered != sorted(ordered):
            failures.append(f"train_eval: pass@k falls with k: {scores}")
    if any(not 0.0 <= r <= 1.0 for r in rates):
        failures.append(f"train_eval: a rate outside [0, 1]: {out}")
    if out["pass_at_k"]["freev"]["10"] < out["pass_at_k"]["base"]["10"]:
        failures.append("train_eval: FreeV pass@10 below the base's")
    return failures


def _sim_check_invariants(out) -> List[str]:
    failures = []
    for kind, verdict in KNOWN_VERDICTS.items():
        tally = out["classes"].get(kind, {})
        if not tally or set(tally) != {verdict}:
            failures.append(
                f"sim_check: {kind} candidates got {tally}, all must be "
                f"{verdict}")
    return failures


INVARIANTS = {
    "curate": _curate_invariants,
    "train_eval": _train_eval_invariants,
    "sim_check": _sim_check_invariants,
}


def check(workload: str, seed: int, outputs: List[Dict[str, Any]],
          expected: Dict[str, Dict[str, Any]]) -> List[str]:
    """Every failed check on the outputs of one run's passes."""
    first = outputs[0]
    failures = [
        f"{workload}: pass {index} gave other outputs than pass 0"
        for index, out in enumerate(outputs[1:], 1) if out != first
    ]
    failures += INVARIANTS[workload](first)
    for key, value in expected.get(workload, {}).get(str(seed), {}).items():
        if first.get(key) != value:
            failures.append(
                f"{workload}: {key} is {first.get(key)!r}, expected {value!r}")
    return failures


def has_expectation(workload: str, seed: int, expected) -> bool:
    return str(seed) in expected.get(workload, {})


# -- regeneration -----------------------------------------------------------


def _reference_sim_outputs(seed: int) -> Dict[str, Any]:
    """``sim_check`` outputs from the interpreter, in this process."""
    from workloads import sim_cases, sim_outputs
    from repro.vereval import harness

    cases = sim_cases(seed)
    verdicts = [
        [harness.check_candidate_source(problem, source)
         for _, source in cands]
        for problem, cands in cases
    ]
    return sim_outputs(cases, verdicts)


def _regenerate(workload: str, seed: int) -> Dict[str, Any]:
    from run import child_env

    if workload == "sim_check":
        command = [sys.executable, str(HERE / "oracle.py"),
                   "--reference", str(seed)]
        env = child_env(REFERENCE_ENV)
    else:
        command = [sys.executable, str(HERE / "worker.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", "0"]
        env = child_env()
    done = subprocess.run(command, env=env, cwd=HERE.parent, check=True,
                          capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if workload == "sim_check":
        return {"verdict_digest": result["verdict_digest"]}
    return result["passes"][0]["outputs"]


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(INVARIANTS))
    group.add_argument("--reference", type=int, metavar="SEED",
                       help="print the interpreter's sim_check outputs")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 4")
    args = parser.parse_args(argv)

    if args.reference is not None:
        print(json.dumps(_reference_sim_outputs(args.reference)))
        return 0
    for seed in _seeds(args.seeds):
        entry = _regenerate(args.workload, seed)
        expected = load_expected() if EXPECTED.exists() else {}
        expected.setdefault(args.workload, {})[str(seed)] = entry
        print(f"{args.workload} seed {seed}: {entry}", file=sys.stderr)
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
