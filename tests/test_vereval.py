"""Tests for pass@k, problems, and the functional-eval harness."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import LanguageModel
from repro.vereval import (
    EvalConfig,
    build_problem_set,
    check_candidate_source,
    check_candidates_lockstep,
    check_completion,
    evaluate_model,
    pass_at_k,
)
from repro.vereval.passk import mean_pass_at_k


class TestPassAtK:
    def test_known_values(self):
        assert pass_at_k(10, 0, 1) == 0.0
        assert pass_at_k(10, 10, 1) == 1.0
        assert pass_at_k(10, 1, 1) == pytest.approx(0.1)
        assert pass_at_k(10, 1, 10) == 1.0
        # 1 - C(8,5)/C(10,5) = 1 - 56/252
        assert pass_at_k(10, 2, 5) == pytest.approx(1 - 56 / 252)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pass_at_k(5, 0, 6)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 3, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 30), st.integers(1, 30))
    def test_in_unit_interval_and_monotone_in_c(self, n, c, k):
        if k > n or c > n:
            return
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0
        if c + 1 <= n:
            assert pass_at_k(n, c + 1, k) >= value

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 20), st.integers(1, 19))
    def test_monotone_in_k(self, n, c, k):
        if c > n or k + 1 > n:
            return
        assert pass_at_k(n, c, k + 1) >= pass_at_k(n, c, k)

    def test_matches_binomial_formula(self):
        n, c, k = 12, 4, 3
        expected = 1 - (
            math.comb(n - c, k) / math.comb(n, k)
        )
        assert pass_at_k(n, c, k) == pytest.approx(expected)

    def test_mean(self):
        assert mean_pass_at_k([10, 0], 10, 1) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            mean_pass_at_k([], 10, 1)


class TestProblemSet:
    def test_size_and_unique_ids(self):
        problems = build_problem_set(n_problems=20, seed=1)
        assert len(problems) == 20
        ids = [p.problem_id for p in problems]
        assert len(set(ids)) == 20

    def test_prompt_format(self):
        problem = build_problem_set(n_problems=1, seed=2)[0]
        prompt = problem.prompt()
        assert prompt.startswith("// ")
        assert f"module {problem.module.name}" in prompt
        assert prompt.rstrip().endswith(");")

    def test_golden_passes_its_own_check(self):
        for problem in build_problem_set(n_problems=8, seed=3):
            golden_body = problem.golden_source[
                len(problem.module.header_prompt()) - 1:
            ]
            ok, reason = check_completion(problem, golden_body)
            assert ok, (problem.problem_id, reason)

    def test_problems_deterministic(self):
        a = build_problem_set(n_problems=6, seed=9)
        b = build_problem_set(n_problems=6, seed=9)
        assert [p.golden_source for p in a] == [p.golden_source for p in b]

    def test_family_coverage(self):
        problems = build_problem_set(n_problems=40, seed=4)
        families = {p.module.family for p in problems}
        assert len(families) >= 25


class TestCheckCompletion:
    def _problem(self):
        return build_problem_set(n_problems=4, seed=5, families=["adder"])[0]

    def test_syntax_failure(self):
        ok, reason = check_completion(self._problem(), "\n  garbage (((")
        assert not ok and reason == "syntax"

    @pytest.mark.parametrize(
        "item",
        [
            "wire deep_w = " + "(" * 3000 + "1'b1" + ")" * 3000 + ";",
            "wire [3:0] hex_w = 4'dA;",
        ],
        ids=["deep-nesting", "hex-digit-decimal"],
    )
    def test_hostile_front_end_input_is_syntax_not_internal(self, item):
        problem = self._problem()
        hostile = problem.golden_source.replace(
            "endmodule", item + "\nendmodule"
        )
        assert check_candidate_source(problem, hostile) == (False, "syntax")
        assert check_candidates_lockstep(
            problem, [hostile, problem.golden_source]
        ) == [(False, "syntax"), (True, "")]

    def test_wrong_logic_fails(self):
        problem = self._problem()
        golden_body = problem.golden_source[
            len(problem.module.header_prompt()) - 1:
        ]
        broken = golden_body.replace("a + b", "a - b")
        ok, reason = check_completion(problem, broken)
        assert not ok

    def test_interface_change_fails(self):
        problem = self._problem()
        ok, reason = check_completion(
            problem, "\n    assign nonexistent = 1;\nendmodule"
        )
        assert not ok


class TestEvaluateModel:
    def test_finetuned_beats_base_and_passk_monotone(
        self, tiny_verilog_corpus, module_pool
    ):
        base = LanguageModel.pretrain(
            "eval-base", tiny_verilog_corpus[:20], num_merges=150
        )
        tuned = base.continual_pretrain("eval-tuned", tiny_verilog_corpus)
        problems = build_problem_set(n_problems=8, seed=6)
        config = EvalConfig(
            n_samples=4, ks=(1, 4), temperatures=(0.2, 0.8),
            max_new_tokens=350, seed=0,
        )
        base_result = evaluate_model(base, problems, config)
        tuned_result = evaluate_model(tuned, problems, config)
        base_best = base_result.best()
        tuned_best = tuned_result.best()
        assert tuned_best[4] >= tuned_best[1]  # pass@k monotone in k
        assert tuned_best[4] >= base_best[4]   # fine-tuning helps
        assert tuned_best[4] > 0               # the tuned model solves some

    def test_n_samples_validated(self, tiny_model):
        problems = build_problem_set(n_problems=1, seed=7)
        with pytest.raises(ValueError):
            evaluate_model(
                tiny_model, problems, EvalConfig(n_samples=2, ks=(5,))
            )

    def test_outcome_bookkeeping(self, tiny_model):
        problems = build_problem_set(n_problems=2, seed=8)
        config = EvalConfig(
            n_samples=2, ks=(1, 2), temperatures=(0.8,), max_new_tokens=150
        )
        result = evaluate_model(tiny_model, problems, config)
        outcomes = result.outcomes[0.8]
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.passes + sum(outcome.failures.values()) == 2
        assert "pass@1" in result.summary()
