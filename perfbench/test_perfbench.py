"""The benchmark's own tests: span accounting, the oracle, and exit codes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracle import check
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _inner():
    time.sleep(0.01)


def _outer():
    time.sleep(0.01)
    _inner()
    _inner()


class _Base:
    def step(self):
        return "base"

    @classmethod
    def make(cls):
        return cls.__name__


class _Child(_Base):
    pass


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.wrap(f"{__name__}:_outer", "outer", item=lambda t, a: "item0")
    tracer.wrap(f"{__name__}:_inner", "inner")
    tracer.begin_phase(0)
    try:
        _outer()
    finally:
        tracer.unwrap_all()
    times = tracer.phase_times(0)
    assert times["total"]["outer"] == pytest.approx(
        times["self"]["outer"] + times["total"]["inner"])
    assert times["self"]["inner"] == times["total"]["inner"] >= 0.02
    assert times["roots"] == times["total"]["outer"]
    assert [s[4] for s in tracer.spans] == ["item0"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert _outer.__name__ == "_outer" and not hasattr(_outer, "__wrapped__")


def test_wrapping_inherited_methods_and_classmethods_is_undone():
    tracer = Tracer()
    tracer.wrap(f"{__name__}:_Child.step", "step")
    tracer.wrap(f"{__name__}:_Child.make", "make")
    try:
        assert _Child().step() == "base"
        assert _Child.make() == "_Child"
        assert _Base().step() == "base"
    finally:
        tracer.unwrap_all()
    assert [s[0] for s in tracer.spans] == ["step", "make"]
    assert "step" not in vars(_Child) and "make" not in vars(_Child)


def test_generators_are_refused():
    def gen():
        yield 1

    module = sys.modules[__name__]
    module._gen = gen
    with pytest.raises(TypeError):
        Tracer().wrap(f"{__name__}:_gen", "gen")


def _curate_outputs():
    return {"funnel": [["license_filter", 10, 6], ["dedup", 6, 4]],
            "kept_digest": "abc"}


def test_oracle_flags_wrong_and_unsteady_outputs():
    good = _curate_outputs()
    assert check("curate", 3, [good, good],
                 {"curate": {"3": dict(good)}}) == []
    assert check("curate", 3, [good],
                 {"curate": {"3": {"kept_digest": "def"}}})
    other = dict(good, kept_digest="def")
    assert check("curate", 4, [good, other], {})
    growing = dict(good, funnel=[["license_filter", 10, 6], ["dedup", 6, 7]])
    assert check("curate", 4, [growing], {})


def test_oracle_sim_check_classes():
    classes = {"golden": {"pass": 2}, "resample": {"pass": 6},
               "syntax_error": {"syntax": 2},
               "renamed": {"missing_module": 2},
               "undeclared": {"elaboration": 2}, "mutant": {"mismatch": 3}}
    out = {"verdict_digest": "x", "classes": classes}
    assert check("sim_check", 99, [out], {}) == []
    broken = dict(classes, renamed={"missing_module": 1, "syntax": 1})
    assert check("sim_check", 99, [dict(out, classes=broken)], {})


def _checkout(tmp_path, with_program=True):
    """A copy of the benchmark, with the program linked in or left out."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        for name in ("src", "benchmarks"):
            (tmp_path / name).symlink_to(ROOT / name)
    return tmp_path


def _run(checkout, workload="curate", seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)


def test_run_fails_without_the_program(tmp_path):
    done = _run(_checkout(tmp_path, with_program=False))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_run_fails_on_a_wrong_output(tmp_path):
    checkout = _checkout(tmp_path)
    expected_path = checkout / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected.setdefault("curate", {})["0"] = {"kept_digest": "0" * 64}
    expected_path.write_text(json.dumps(expected))
    done = _run(checkout)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert "FAILED curate: kept_digest" in done.stdout
