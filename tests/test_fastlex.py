"""Equivalence tests: the regex lexer must match the reference lexer.

``lex_fast`` underpins the engine's syntax stage, whose output must be
byte-identical to the seed pipeline's — so these tests assert *exact*
token equality (kind, text, line, column) on corpus files and verdict
equality on a gallery of adversarial inputs.
"""

import dataclasses
import importlib.util
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freeset import FreeSetBuilder
from repro.curation import CurationConfig, CurationPipeline
from repro.errors import LexError
from repro.verilog import (
    Token,
    TokenKind,
    check_syntax,
    check_syntax_fast,
    lex,
    lex_fast,
)

#: Inputs covering every token class and every reference-lexer error path.
ADVERSARIAL = [
    "",
    "   \t\r\n  ",
    "// line comment only",
    "/* block */",
    "/* unterminated",
    "a /* nested /* still one */ tail",
    "module m; endmodule",
    "`timescale 1ns/1ps\nmodule m; endmodule",
    "`define FOO \\\n  multi \\\n  line\nmodule m; endmodule",
    "`",
    "`\\\n",
    "wire [7:0] x = 8'hFF;",
    "x = 'b1010; y = 'd_; z = 12'sb01_zx?;",
    "v = 1_000.5; w = 1.; u = 16'hDEAD_beef;",
    "1'b0 2'o7 3'd9 4'hA 5'sHff",
    "12'",
    "12'q",
    "'sb1",
    "9'",
    "12.34.56",
    "$display(\"esc \\n \\t \\\\ \\\" \\q done\")",
    "$",
    "a $ b",
    "\"unterminated",
    "\"newline\nin string\"",
    "\"trailing backslash \\",
    '"escaped \\\n newline" wire w;',
    '"two \\\n escaped \\\n newlines" x; // and\ny',
    "x <= y; a <<< b; c >>> d; e === f; g !== h;",
    "i -> j; k +: l; m -: n; o ** p;",
    "~& ~| ~^ ^~ && || == != < > <= >=",
    "\\escaped_ident_unsupported",
    "x\x0cy",
    "_leading $sys0 trailing$",
    "{a, b[3:0], {2{c}}} @ # ;",
]


#: Fragments that sit on token-class boundaries: quotes, ticks, sigils,
#: comment markers, escapes, a form feed and escaped newlines.
FRAGMENTS = [
    "'", "12'", "$", "`", '"', "/*", "*/", "//", "\\", "\x0c", "\\\n",
    "\n", " ", "\t", "\r", "a", "b1", "_x$", "8'hFF", "'b1", "4'sd", "'s",
    "1.5", "1.", "9", "0_1", "h", "x", "z", "?", "module", "end", "(", ")",
    "<=", "<<<", "~^", "**", "+:", "/", "*", "-", "@", '"\\n"',
]


def _same_lexing(source):
    """``lex_fast`` returns exactly ``lex``'s tokens, or both raise."""
    try:
        reference = lex(source)
    except LexError:
        with pytest.raises(LexError):
            lex_fast(source)
        return
    assert lex_fast(source) == reference


class TestToken:
    def test_equality_and_hash_are_field_for_field(self):
        a = Token(TokenKind.IDENT, "clk", 3, 7)
        assert a == Token(TokenKind.IDENT, "clk", 3, 7)
        assert hash(a) == hash(Token(TokenKind.IDENT, "clk", 3, 7))
        assert a != Token(TokenKind.IDENT, "clk", 3, 8)
        assert a != Token(TokenKind.KEYWORD, "clk", 3, 7)
        assert len({a, Token(TokenKind.IDENT, "clk", 3, 7)}) == 1

    def test_immutable(self):
        token = Token(TokenKind.OP, ";", 1, 1)
        with pytest.raises(AttributeError):
            token.text = ","

    def test_indexes_unpacks_and_pickles(self):
        token = Token(TokenKind.NUMBER, "42", 2, 5)
        kind, text, line, col = token
        assert (kind, text, line, col) == (TokenKind.NUMBER, "42", 2, 5)
        assert token[1] == token.text == "42"
        assert pickle.loads(pickle.dumps(token)) == token

    def test_is_op_and_is_keyword(self):
        op = Token(TokenKind.OP, "(", 1, 1)
        keyword = Token(TokenKind.KEYWORD, "begin", 1, 1)
        assert op.is_op("(") and not op.is_keyword("(")
        assert keyword.is_keyword("begin") and not keyword.is_op("begin")
        assert not Token(TokenKind.STRING, "(", 1, 1).is_op("(")

    def test_lexers_build_tokens(self):
        for tokens in (lex("a;"), lex_fast("a;")):
            assert all(type(t) is Token for t in tokens)


class TestTokenEquivalence:
    @pytest.mark.parametrize("source", ADVERSARIAL)
    def test_adversarial_inputs(self, source):
        _same_lexing(source)

    def test_generated_corpus_identical(self, tiny_verilog_corpus):
        for source in tiny_verilog_corpus:
            assert lex_fast(source) == lex(source)

    def test_world_corpus_identical(self, raw_files):
        for record in raw_files[:400]:
            _same_lexing(record.content)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
    def test_fuzzed_fragment_interleavings(self, source):
        _same_lexing(source)

    def test_positions_track_lines_and_columns(self):
        tokens = lex_fast("module m;\n  wire x;\nendmodule\n")
        reference = lex("module m;\n  wire x;\nendmodule\n")
        assert [(t.line, t.col) for t in tokens] == [
            (t.line, t.col) for t in reference
        ]


class TestVerdictEquivalence:
    def test_corpus_verdicts(self, raw_files):
        for record in raw_files[:300]:
            fast = check_syntax_fast(record.content)
            slow = check_syntax(record.content)
            assert fast.ok == slow.ok
            assert fast.module_names == slow.module_names

    @pytest.mark.parametrize(
        "source",
        [
            "module m; endmodule",
            "module m(input a; endmodule",   # parse error
            "module m; /* unterminated",     # lex error
            "module m; endmodule module m; endmodule",  # lint: duplicate
            "not verilog at all",
        ],
    )
    def test_error_paths(self, source):
        assert check_syntax_fast(source).ok == check_syntax(source).ok


def _bench_world_config():
    # The bench world is declared next to the benchmarks, which are not a
    # package on the test path; load its module by file.
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCH_WORLD_CONFIG


@pytest.fixture(scope="module")
def bench_syntax_inputs():
    """Every file that reaches the syntax stage of the bench world."""
    files, _ = FreeSetBuilder(world_config=_bench_world_config()).scrape()
    config = dataclasses.replace(CurationConfig(), syntax_check=False)
    return [f.content for f in CurationPipeline(config).run(files).files]


class TestBenchWorldVerdicts:
    def test_every_syntax_stage_input_gets_the_reference_verdict(
        self, bench_syntax_inputs
    ):
        assert len(bench_syntax_inputs) > 1000
        verdicts = set()
        for source in bench_syntax_inputs:
            fast = check_syntax_fast(source)
            slow = check_syntax(source)
            assert (fast.ok, fast.module_names) == (slow.ok, slow.module_names)
            verdicts.add(fast.ok)
        # The stage must see both verdicts for the identity to mean much.
        assert verdicts == {True, False}
