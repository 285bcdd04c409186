"""Which functions the traced run wraps, and the per-layer metrics.

Each entry of :data:`WRAPS` names a function at the name its caller
resolves it through: ``repro.llm.model`` binds ``train_tokenizer`` at
import, so its span wraps ``repro.llm.model:train_tokenizer`` and not the
definition in ``repro.llm.tokenizer``.  The pool, cluster and service
layers are not measured: on two shared cores their numbers would
measure the scheduler.

Every ``*.s`` metric is the summed self time of its spans in one timed
pass, except ``vereval.parse.s``, which is the total time inside
``parse_source_fast``; its lexing and parsing self times are also in
``verilog.lex.s`` and ``verilog.parse.s``.  ``github.world.s`` is taken
from set-up, the only place the world is generated.
"""

from __future__ import annotations

from typing import Any, Dict

#: verdict classes, as ``(passed, failure_reason)`` maps to them
VERDICTS = ("pass", "mismatch", "syntax", "missing_module", "elaboration",
            "simulation", "internal")

#: counters the program keeps in the always-on ``repro.obs`` registry
OBS_COUNTERS = (
    "lockstep.groups", "lockstep.settles", "lockstep.settle_nodes_run",
    "lockstep.settle_nodes_skipped", "retire.lanes_retired",
    "retire.lanes_passed", "retire.scalar_replays", "batch.allvec_checks",
    "batch.fallback_scalar", "batch.rep.int64", "batch.rep.spill",
    "batch.rep.bitslice", "sim.cache.hit", "sim.cache.miss",
)

#: curation stages, in funnel order
STAGES = ("license_filter", "dedup", "copyright_filter", "syntax_check")


def verdict_class(verdict) -> str:
    passed, reason = verdict
    if passed:
        return "pass"
    return reason if reason in VERDICTS else "mismatch"


def _chunk_of_stages(tracer, args):
    return tracer.next_item(args[0][0].name)


def _chunk(key):
    return lambda tracer, args: tracer.next_item(key)


def _problem(tracer, args):
    return args[0].problem_id


def _scraped(tracer, args, result):
    files, report = result
    tracer.count("github.scrape.files", len(files))
    tracer.count("github.scrape.queries", report.queries_issued)


def _lexed(tracer, args, tokens):
    tracer.count("verilog.chars", len(args[0]))
    tracer.count("verilog.tokens", len(tokens))


def _deduped(tracer, args, result):
    # Cumulative over one curation run, which starts a fresh index.
    dedup = args[0].dedup.result
    tracer.gauge("dedup.candidate_checks", dedup.candidate_checks)
    tracer.gauge("dedup.removed", dedup.removed_count)


def _encoded(tracer, args, ids):
    tracer.count("llm.tokenizer.tokens", len(ids))


def _matched(tracer, args, result):
    tracer.count("copyright.best_match.calls")


def _batch_checked(tracer, args, records):
    tracer.count("evalkit.check.records", len(records))


def _verdicts(tracer, args, verdicts):
    for verdict in verdicts:
        tracer.count("vereval.verdict." + verdict_class(verdict))


def _eval_verdicts(tracer, args, verdicts):
    tracer.count("evalkit.check.distinct", len(args[1]))
    _verdicts(tracer, args, verdicts)


#: (target, span name, metric, item, after)
WRAPS = (
    ("repro.core.freeset:generate_world", "github.world", "github.world", None, None),
    ("repro.core.freeset:FreeSetBuilder.scrape", "github.scrape", "github.scrape", None, _scraped),
    ("repro.curation.pipeline:CurationPipeline.run", "curation.run", "engine.self", None, None),
    ("repro.engine.graph:StageGraph.ingest", "engine.ingest", "engine.self", None, None),
    ("repro.engine.executor:apply_stages", "engine.chunk", "engine.self", _chunk_of_stages, None),
    ("repro.engine.stages:LicenseFilterStage.process", "curation.license", "curation.license", None, None),
    ("repro.engine.stages:CopyrightFilterStage.process", "curation.copyright_filter", "curation.copyright_filter", None, None),
    ("repro.engine.stages:SyntaxCheckStage.process", "verilog.syntax", "verilog.syntax", None, None),
    ("repro.engine.stages:DedupStage.process", "dedup", "dedup", _chunk("dedup"), _deduped),
    ("repro.dedup.minhash:shingle_hashes", "dedup.shingle", "dedup.shingle", None, None),
    ("repro.dedup.minhash:MinHasher.signatures", "dedup.minhash", "dedup.minhash", None, None),
    ("repro.dedup.lsh:LSHIndex.candidates_in_order", "dedup.lsh.query", "dedup.lsh", None, None),
    ("repro.dedup.lsh:LSHIndex.insert", "dedup.lsh.insert", "dedup.lsh", None, None),
    ("repro.verilog.fastlex:lex_fast", "verilog.lex", "verilog.lex", None, _lexed),
    ("repro.verilog.parser:Parser.parse_source", "verilog.parse", "verilog.parse", None, None),
    ("repro.core.freev:FreeVTrainer.base_model", "llm.base_model", "llm.model", None, None),
    ("repro.core.freev:FreeVTrainer.train", "llm.train", "llm.model", None, None),
    ("repro.core.freev:build_base_corpus", "llm.base_corpus", "llm.base_corpus", None, None),
    ("repro.core.freev:collect_copyrighted_corpus", "copyright.corpus", "copyright.corpus", None, None),
    ("repro.llm.model:LanguageModel.pretrain", "llm.pretrain", "llm.model", None, None),
    ("repro.llm.model:LanguageModel.continual_pretrain", "llm.continual_pretrain", "llm.model", None, None),
    ("repro.llm.model:train_tokenizer", "llm.tokenizer.train", "llm.tokenizer.train", None, None),
    ("repro.llm.tokenizer:BPETokenizer.encode", "llm.tokenizer.encode", "llm.tokenizer.encode", None, _encoded),
    ("repro.llm.ngram:NGramCounts.train", "llm.ngram.train", "llm.ngram.train", None, None),
    ("repro.llm.ngram:NGramCounts.merged_with", "llm.ngram.merge", "llm.ngram.merge", None, None),
    ("repro.llm.sampler:Sampler.generate", "llm.sampler", "llm.sampler", None, None),
    ("repro.core.freev:FreeVTrainer.headline", "evalkit.headline", "evalkit.plan", None, None),
    ("repro.core.freev:build_problem_set", "vereval.problems", "vereval.problems", None, None),
    ("repro.evalkit.plan:EvalPlan.run", "evalkit.plan", "evalkit.plan", None, None),
    ("repro.evalkit.stages:GenerationStage.process", "evalkit.generate", "evalkit.generate", None, None),
    ("repro.evalkit.stages:CheckStage.process", "evalkit.check", "evalkit.check", None, None),
    ("repro.evalkit.tasks:PassAtKChecker.check_batch", "evalkit.check_batch", "evalkit.check", None, _batch_checked),
    ("repro.evalkit.tasks:check_candidates_lockstep", "vereval.check", "vereval.check", None, _eval_verdicts),
    ("repro.vereval.harness:check_candidates_lockstep", "vereval.check", "vereval.check", _problem, _verdicts),
    ("repro.vereval.harness:parse_source_fast", "vereval.parse", None, None, None),
    ("repro.vereval.harness:elaborate", "vereval.elaborate", "vereval.elaborate", None, None),
    ("repro.sim.compile:compile_design", "sim.compile", "sim.compile", None, None),
    ("repro.sim.batch:compile_design", "sim.compile", "sim.compile", None, None),
    ("repro.sim.batch:batch_design", "sim.batch_design", "sim.batch_design", None, None),
    ("repro.textsim.index:SimilarityIndex.add", "copyright.index", "copyright.index", None, None),
    ("repro.textsim.index:SimilarityIndex.best_match", "copyright.best_match", "copyright.best_match", None, _matched),
)

#: self times measured in set-up, not in the timed passes
SETUP_TIMES = ("github.world.s",)

#: self-time metrics, by span name
SPAN_METRIC = {span: metric for _, span, metric, _, _ in WRAPS if metric}
TIME_METRICS = sorted(set(SPAN_METRIC.values()) | {"vereval.parse"})


def install(tracer) -> None:
    for target, span, _, item, after in WRAPS:
        tracer.wrap(target, span, item=item, after=after)


def pass_metrics(tracer, phase, wall_s: float, obs_delta: Dict[str, float],
                 outputs: Dict[str, Any], speed: float,
                 setup_speed: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, times scaled by ``speed``
    (``setup_speed`` for the set-up time ``github.world.s``)."""
    times = tracer.phase_times(phase)
    counts = tracer.counts[phase]
    out: Dict[str, float] = {f"{name}.s": 0.0 for name in TIME_METRICS}
    for span, seconds in times["self"].items():
        if span in SPAN_METRIC:
            out[f"{SPAN_METRIC[span]}.s"] += seconds
    out["vereval.parse.s"] = times["total"].get("vereval.parse", 0.0)
    out["unattributed.s"] = wall_s - times["roots"]
    out = {name: seconds * speed for name, seconds in out.items()}
    out["github.world.s"] = tracer.phase_times("setup")["self"].get(
        "github.world", 0.0) * setup_speed

    for name in ("github.scrape.files", "github.scrape.queries",
                 "verilog.chars", "verilog.tokens", "dedup.candidate_checks",
                 "dedup.removed", "llm.tokenizer.tokens",
                 "copyright.best_match.calls", "evalkit.check.records",
                 "evalkit.check.distinct"):
        out[name] = counts.get(name, 0)
    for verdict in VERDICTS:
        out[f"vereval.verdict.{verdict}"] = counts.get(
            f"vereval.verdict.{verdict}", 0)
    for name in OBS_COUNTERS:
        out[name] = obs_delta.get(name, 0)
    out["lockstep.group_lanes"] = obs_delta.get("lockstep.group_lanes", 0)
    out["llm.sampler.tokens"] = obs_delta.get("sampler.tokens", 0)
    out["engine.chunks"] = sum(
        1 for record in tracer.spans
        if record[5] == phase and record[0] == "engine.chunk")

    funnel = {name: (n_in, n_out) for name, n_in, n_out in
              outputs.get("funnel", ())}
    for stage in STAGES:
        n_in, n_out = funnel.get(stage, (0, 0))
        out[f"curation.{stage}.in"] = n_in
        out[f"curation.{stage}.out"] = n_out

    out["dedup.hit_ratio"] = _ratio(out["dedup.removed"],
                                    out["dedup.candidate_checks"])
    out["evalkit.memo_ratio"] = (
        1.0 - _ratio(out["evalkit.check.distinct"],
                     out["evalkit.check.records"])
        if out["evalkit.check.records"] else 0.0)
    lanes = out["retire.lanes_retired"] + out["retire.lanes_passed"]
    out["sim.lane_ratio"] = _ratio(lanes, lanes + out["retire.scalar_replays"])
    out["llm.sampler.tokens_per_s"] = _ratio(out["llm.sampler.tokens"],
                                             out["llm.sampler.s"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_of(metric: str) -> str:
    """The module a metric belongs to, for the per-layer totals."""
    head = metric.split(".")[0]
    return {"lockstep": "sim", "retire": "sim", "batch": "sim"}.get(head, head)
