"""Tests for the syntax checker (the Icarus-substitute filter)."""

import pytest

from repro.errors import ParseError
from repro.verilog import check_syntax, check_syntax_fast
from repro.verilog.parser import parse_source, parse_source_fast


GOOD = """
module good(input wire clk, input wire rst, output reg [3:0] q);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else q <= q + 1'b1;
    end
endmodule
"""


class TestAccepts:
    def test_valid_module(self):
        report = check_syntax(GOOD)
        assert report.ok
        assert report.module_names == ["good"]
        assert report.errors == []

    def test_bool_protocol(self):
        assert check_syntax(GOOD)
        assert not check_syntax("module broken(")

    def test_unknown_submodule_is_not_an_error(self):
        # The paper keeps files whose only issue is cross-file references.
        source = (
            "module top(input a, output y);"
            " other_module u0 (.in(a), .out(y)); endmodule"
        )
        assert check_syntax(source).ok

    def test_directives_ignored(self):
        assert check_syntax("`timescale 1ns/1ps\n" + GOOD).ok


class TestRejects:
    def test_missing_endmodule(self):
        assert not check_syntax("module m(input a);").ok

    def test_dropped_semicolon(self):
        bad = GOOD.replace("q <= 4'd0;", "q <= 4'd0", 1)
        assert not check_syntax(bad).ok

    def test_duplicate_module_names(self):
        report = check_syntax("module m; endmodule module m; endmodule")
        assert not report.ok
        assert "duplicate module" in report.errors[0]

    def test_duplicate_port(self):
        report = check_syntax("module m(input a, input a); endmodule")
        assert not report.ok

    def test_undeclared_header_port(self):
        report = check_syntax("module m(a, b); input a; endmodule")
        assert not report.ok
        assert any("never declared" in e for e in report.errors)

    def test_duplicate_parameter(self):
        report = check_syntax(
            "module m; parameter P = 1; parameter P = 2; endmodule"
        )
        assert not report.ok

    def test_empty_file(self):
        assert not check_syntax("").ok

    @pytest.mark.parametrize("check", [check_syntax, check_syntax_fast])
    def test_hex_digits_in_decimal_literal(self, check):
        # 'dA lexes as a based literal; its value is a syntax error, not
        # a ValueError escaping the checker.
        report = check("module m; wire [3:0] x = 4'dA; endmodule")
        assert not report.ok
        assert "invalid for base 10" in report.errors[0]


#: far deeper than the recursive descent can follow
DEEP = (
    "module deep(output wire y);\n  assign y = "
    + "(" * 3000 + "1'b1" + ")" * 3000 + ";\nendmodule\n"
)


class TestDeepNesting:
    """A hostile nesting depth is a syntax error, never a crash."""

    @pytest.mark.parametrize("parse", [parse_source, parse_source_fast])
    def test_parse_raises_parse_error(self, parse):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(DEEP)

    @pytest.mark.parametrize("check", [check_syntax, check_syntax_fast])
    def test_checkers_reject(self, check):
        report = check(DEEP)
        assert not report.ok
        assert "nesting too deep" in report.errors[0]

    def test_moderate_nesting_still_parses(self):
        source = DEEP.replace("(" * 3000, "(" * 20).replace(")" * 3000, ")" * 20)
        assert check_syntax(source).ok and check_syntax_fast(source).ok


class TestWorldCorruptions:
    """The corruption kinds injected by the world generator must all be
    caught — otherwise the funnel's syntax stage undercounts."""

    def test_all_corruption_kinds_detected(self):
        from repro.github.world import _corrupt
        from repro.utils.rng import DeterministicRNG

        detected = 0
        total = 0
        for seed in range(24):
            rng = DeterministicRNG(seed)
            bad = _corrupt(GOOD, rng)
            total += 1
            if not check_syntax(bad).ok:
                detected += 1
        # 'typo' corruption replaces 'module' with 'modul', which still
        # fails (no module at top level); all kinds should be caught here.
        assert detected == total
