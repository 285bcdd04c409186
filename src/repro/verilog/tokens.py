"""Token definitions for the Verilog lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"        # plain decimal: 42
    BASED_NUMBER = "based"   # sized/based: 8'hFF, 'b1010, 4'd9
    STRING = "string"
    OP = "op"                # operators and punctuation
    SYSTEM_IDENT = "system"  # $display, $signed, ...
    DIRECTIVE = "directive"  # `define, `timescale, ... (skipped bodies)
    EOF = "eof"


#: Verilog-2001 keywords recognized by the subset grammar.  Keywords outside
#: the subset are still lexed as keywords so the parser can produce precise
#: "unsupported construct" errors instead of misparsing them as identifiers.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case
    casez casex endcase default for while repeat forever posedge negedge
    or and not nand nor xor xnor buf bufif0 bufif1 notif0 notif1
    supply0 supply1 tri triand trior tri0 tri1 trireg
    function endfunction task endtask generate endgenerate genvar
    signed unsigned defparam specify endspecify primitive endprimitive
    table endtable fork join wait disable deassign force release
    event real realtime scalared vectored small medium large
    strong0 strong1 pull0 pull1 weak0 weak1 highz0 highz1
    macromodule cell config endconfig design instance liblist library
    use automatic cmos rcmos nmos pmos rnmos rpmos rtran tran tranif0
    tranif1 rtranif0 rtranif1 pulldown pullup
    """.split()
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPS = (
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "**", "+:", "-:", "~&", "~|", "~^", "^~", "->",
)

#: All single-character operator / punctuation characters.
SINGLE_CHAR_OPS = frozenset("+-*/%><=!&|^~?:;,.()[]{}#@")


class Token(NamedTuple):
    """A single lexed token with source position for error reporting.

    A plain named tuple: immutable, hashable, equal field for field, and
    cheap to build (the lexers create one per token).  Being a tuple it
    also indexes and unpacks as ``kind, text, line, col``.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"

    def is_op(self, text: str) -> bool:
        return self.kind is TokenKind.OP and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text
