"""The benchmark's three workloads.

Each workload is a closed loop: one caller in one process drives one
part of the paper's pipeline through its public entry points on the
serial executor, and makes its next call only when the last returned.
``setup(seed)`` builds the inputs from the workload seed and ``run``
makes one timed pass over them.

* ``curate`` scrapes the bench world and curates it into FreeSet
  (license -> dedup -> copyright -> syntax).  The Verilog front end and
  dedup are about half of the paper's pipeline; ``llm`` and ``sim`` do no
  work here, so a change to them must leave this workload unchanged.
* ``train_eval`` builds the base model, continually pre-trains FreeV and
  scores both on pass@k and the copyright benchmark (the headline
  config).  The tokenizer, n-gram and sampler do most of the work; most
  candidates die at parse or elaboration, so little is simulated.
  Curation happens only in set-up.
* ``sim_check`` checks ~9 constructed candidates per problem (golden,
  three whitespace/comment resamples, the near-miss mutants, and one
  syntax error, renamed module and undeclared signal each) with one
  ``check_candidates_lockstep`` call per problem.  Most candidates
  elaborate and simulate the full stimulus, so compile, lockstep lanes,
  retirement and scalar replay do the work.

The seed picks the world for ``curate``.  For the other two it picks
what varies at a fixed amount of work: the sampling seeds of the
evaluation over the bench world's FreeSet, and the stimulus of every
problem.  A world drawn per seed changes the base model's completion
lengths, and so the work of ``train_eval``, twofold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

# The program is imported from the checkout this file sits in.
_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(1, _path)

from benchmarks.conftest import BENCH_WORLD_CONFIG
from repro.core.freeset import FreeSetBuilder
from repro.core.freev import FreeVTrainer
from repro.curation import CurationConfig, CurationPipeline
from repro.utils.rng import DeterministicRNG
from repro.vereval import EvalConfig, build_problem_set, harness
from repro.vgen.mutate import mutate

from layers import verdict_class

#: the ``bench_headline`` configuration
HEADLINE_PROBLEMS = 20
HEADLINE_PROMPTS = 100


def headline_config(seed: int) -> EvalConfig:
    return EvalConfig(n_samples=10, ks=(1, 5, 10), temperatures=(0.2, 0.8),
                      max_new_tokens=600, seed=seed)

@dataclasses.dataclass
class Pass:
    """What one timed pass did."""

    #: work units completed (files, eval samples, candidates)
    items: int
    #: failed operations: ``internal`` verdicts
    failed: int
    #: what the oracle checks; identical on every pass of one seed
    outputs: Dict[str, Any]
    #: named parts of the pass wall time, in seconds
    parts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: seconds per operation the caller waited on (one per problem)
    latencies: List[float] = dataclasses.field(default_factory=list)


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _warm_goldens(problems) -> None:
    # The golden parse/elaborate/trace is cached per problem for the life
    # of the process; fill it here so every timed pass is alike.
    for problem in problems:
        harness.check_candidates_lockstep(problem, [problem.golden_source])


class Curate:
    name = "curate"

    def setup(self, seed: int) -> FreeSetBuilder:
        return FreeSetBuilder(
            world_config=dataclasses.replace(BENCH_WORLD_CONFIG, seed=seed))

    def run(self, builder: FreeSetBuilder) -> Pass:
        files, _ = builder.scrape()
        dataset = CurationPipeline(CurationConfig()).run(files)
        funnel = [[s.name, s.in_count, s.out_count]
                  for s in dataset.funnel.stages]
        kept = digest([f.file_id for f in dataset.files])
        return Pass(items=len(files), failed=0,
                    outputs={"funnel": funnel, "kept_digest": kept})


class TrainEval:
    name = "train_eval"

    def setup(self, seed: int):
        freeset = FreeSetBuilder(world_config=BENCH_WORLD_CONFIG).build()
        _warm_goldens(build_problem_set(n_problems=HEADLINE_PROBLEMS))
        return freeset, seed

    def run(self, state) -> Pass:
        freeset, seed = state
        start = time.perf_counter()
        trainer = FreeVTrainer(freeset=freeset)
        trainer.base_model()
        trainer.train()
        trained = time.perf_counter()
        report = trainer.headline(
            n_problems=HEADLINE_PROBLEMS, eval_config=headline_config(seed),
            num_prompts=HEADLINE_PROMPTS, seed=seed)
        done = time.perf_counter()

        outcomes = [
            outcome
            for result in (report.base_eval, report.freev_eval)
            for per_temperature in result.outcomes.values()
            for outcome in per_temperature
        ]
        prompts = min(HEADLINE_PROMPTS, len(trainer.copyrighted_corpus))
        outputs = {
            "pass_at_k": {
                "base": _rounded(report.base_eval.best()),
                "freev": _rounded(report.freev_eval.best()),
            },
            "violation_rate": {
                "base": round(report.base_violation_rate, 12),
                "freev": round(report.freev_violation_rate, 12),
            },
        }
        return Pass(
            items=sum(o.samples for o in outcomes) + 2 * prompts,
            failed=sum(o.failures.get("internal", 0) for o in outcomes),
            outputs=outputs,
            parts={"train_s": trained - start, "eval_s": done - trained},
        )


def _rounded(scores: Dict[int, float]) -> Dict[str, float]:
    return {str(k): round(v, 12) for k, v in sorted(scores.items())}


def candidates(problem) -> List[tuple]:
    """``(class, source)`` for every constructed candidate of a problem."""
    golden = problem.golden_source
    name = problem.module.name
    end = golden.rindex("endmodule")
    out = [
        ("golden", golden),
        ("resample", "// resampled completion\n" + golden),
        ("resample", golden.replace("    ", "\t")),
        ("resample", "\n" + golden.replace("\n", "  \n")),
    ]
    out += [("mutant", mutant.source) for mutant in mutate(problem.module)]
    out += [
        ("syntax_error", golden[:end]),
        ("renamed", golden.replace(f"module {name}",
                                   f"module {name}_renamed", 1)),
        ("undeclared", golden[:end] + "    assign undeclared_net = 1'b0;\n"
         + golden[end:]),
    ]
    return out


class SimCheck:
    name = "sim_check"

    def setup(self, seed: int):
        cases = sim_cases(seed)
        _warm_goldens(problem for problem, _ in cases)
        return cases

    def run(self, cases) -> Pass:
        verdicts = []
        latencies = []
        for problem, cands in cases:
            start = time.perf_counter()
            verdicts.append(harness.check_candidates_lockstep(
                problem, [source for _, source in cands]))
            latencies.append(time.perf_counter() - start)
        return Pass(
            items=sum(len(cands) for _, cands in cases),
            failed=sum(reason == "internal"
                       for problem_verdicts in verdicts
                       for _, reason in problem_verdicts),
            outputs=sim_outputs(cases, verdicts),
            latencies=latencies,
        )


def sim_cases(seed: int) -> List[tuple]:
    """``(problem, candidates)`` for ~106 distinct problems, with the
    stimulus of each drawn from ``seed``."""
    problems = build_problem_set(n_problems=120, stimulus_cycles=256)
    return [
        (dataclasses.replace(problem, stimulus_seed=DeterministicRNG(seed)
                             .fork("perfbench-stimulus", problem.problem_id)
                             .seed),
         candidates(problem))
        for problem in problems
    ]


def sim_outputs(cases, verdicts) -> Dict[str, Any]:
    """The verdict digest and, per candidate class, the verdict counts."""
    classes: Dict[str, Dict[str, int]] = {}
    for (_, cands), problem_verdicts in zip(cases, verdicts):
        for (kind, _), verdict in zip(cands, problem_verdicts):
            tally = classes.setdefault(kind, {})
            label = verdict_class(verdict)
            tally[label] = tally.get(label, 0) + 1
    return {
        "verdict_digest": digest([[list(v) for v in problem_verdicts]
                                  for problem_verdicts in verdicts]),
        "classes": classes,
    }


WORKLOADS = {w.name: w for w in (Curate(), TrainEval(), SimCheck())}
