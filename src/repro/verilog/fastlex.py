"""One-pass regex lexer with a token stream identical to :mod:`lexer`.

The hand-written :class:`repro.verilog.lexer.Lexer` advances one character
per Python-level loop iteration, which makes the syntax-check stage the
dominant cost of corpus curation.  This module implements the *same* token
grammar as a single compiled pattern driven by one ``scanner.match`` loop:
every match is the trivia (whitespace and comments) before a token plus
the token itself, so the per-token cost is one C-level match, one span
lookup and one tuple build.  The alternation also matches a complete
string literal (decoded by :func:`_lex_string`), an unterminated ``/*``
(an error) and the end of input (the EOF token).  When no alternative
matches, the input has a lexical error; :func:`_raise_at` reproduces it.

Equivalence contract (relied on by the execution engine and enforced by
``tests/test_fastlex.py``): for any input, ``lex_fast(source)`` either
returns exactly ``lex(source)`` — same kinds, texts, lines, and columns —
or raises :class:`LexError` exactly when ``lex`` raises (error messages
and positions may differ; the success/failure verdict may not).  Feeding
the tokens to the shared :class:`repro.verilog.parser.Parser` therefore
yields byte-identical parse results, and :func:`check_syntax_fast` is a
drop-in replacement for :func:`repro.verilog.syntax.check_syntax`.
"""

from __future__ import annotations

import re
from typing import List, NoReturn

from repro.errors import LexError
from repro.verilog.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPS,
    SINGLE_CHAR_OPS,
    Token,
    TokenKind,
)

#: whitespace, line comments, and *terminated* block comments; an
#: unterminated ``/*`` is left for the token alternation to reject.
#: Possessive, so a failed token match never backtracks into it.
_TRIVIA = r"(?:[ \t\r\n]++|//[^\n]*+|/\*.*?\*/)*+"

_OP_PATTERN = "|".join(re.escape(op) for op in MULTI_CHAR_OPS) + (
    "|[" + re.escape("".join(sorted(SINGLE_CHAR_OPS))) + "]"
)

#: Leading trivia, then one token per alternative; the group number of the
#: token is ``match.lastindex`` and indexes :data:`_GROUP_KINDS`.  Where
#: prefixes overlap the reference lexer's dispatch order is kept:
#: sized/unsized based numbers before plain numbers, an unterminated block
#: comment before the ``/`` operator.  Unsized based literals admit no
#: sign flag — ``'sb1`` is an error in the reference lexer, so it must
#: not match here.  A string literal's escape consumes any character,
#: newline included; a raw newline or end of input before the closing
#: quote leaves the literal unmatched, which is an error.
_TOKEN_RE = re.compile(
    _TRIVIA
    + r"(?:([A-Za-z_][A-Za-z0-9_$]*)"                           # 1 ident
    r"|(/\*)"                                                   # 2 unterminated
    rf"|({_OP_PATTERN})"                                        # 3 op
    r"|([0-9][0-9_]*'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+"
    r"|'[bBoOdDhH][0-9a-fA-FxXzZ?_]+)"                          # 4 based
    r"|([0-9][0-9_]*(?:\.[0-9]+)?)"                             # 5 number
    r"|(\$[A-Za-z_][A-Za-z0-9_$]*)"                             # 6 system
    r"|(`(?:\\\n|[^\n])*+)"                                     # 7 directive
    r'|("(?:[^"\\\n]|\\.)*+")'                                  # 8 string
    r"|(\Z))",                                                  # 9 end
    re.DOTALL,
)

#: group number -> token kind (identifiers split on :data:`KEYWORDS`)
_GROUP_KINDS = (
    None,
    TokenKind.IDENT,
    None,
    TokenKind.OP,
    TokenKind.BASED_NUMBER,
    TokenKind.NUMBER,
    TokenKind.SYSTEM_IDENT,
    TokenKind.DIRECTIVE,
    TokenKind.STRING,
    TokenKind.EOF,
)
_UNTERMINATED = 2
#: groups after this one need more than a plain token append
_LAST_PLAIN = 6
_STRING = 8
_END = 9

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD

_TRIVIA_RE = re.compile(_TRIVIA, re.DOTALL)

_STRING_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


def _lex_string(source: str, pos: int, line: int, col: int):
    """Scan a string literal starting at the opening quote.

    Mirrors the reference lexer exactly: recognized escapes are decoded,
    unknown escapes keep the escaped character, a raw newline or EOF
    before the closing quote is an error.  Returns ``(token, end_pos)``.
    """
    n = len(source)
    i = pos + 1
    chars: List[str] = []
    while True:
        if i >= n:
            raise LexError("unterminated string literal", line, col)
        ch = source[i]
        if ch == "\n":
            raise LexError("newline in string literal", line, col)
        if ch == "\\":
            nxt = source[i + 1] if i + 1 < n else ""
            chars.append(_STRING_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        if ch == '"':
            return Token(TokenKind.STRING, "".join(chars), line, col), i + 1
        chars.append(ch)
        i += 1


def _raise_at(source: str, pos: int, line: int, bol: int) -> NoReturn:
    """Raise the :class:`LexError` for the text the scanner could not
    match: an illegal character or a malformed string literal after the
    trivia that starts at ``pos``."""
    trivia_end = _TRIVIA_RE.match(source, pos).end()
    newlines = source.count("\n", pos, trivia_end)
    if newlines:
        line += newlines
        bol = source.rfind("\n", pos, trivia_end) + 1
    col = trivia_end - bol + 1
    ch = source[trivia_end]
    if ch == '"':
        _lex_string(source, trivia_end, line, col)  # raises
    raise LexError(f"illegal character {ch!r}", line, col)


def lex_fast(source: str) -> List[Token]:
    """Lex ``source`` into the same token list :func:`lexer.lex` returns."""
    tokens: List[Token] = []
    append = tokens.append
    # tuple.__new__ skips the named tuple's Python-level __new__; the
    # fields are built in declaration order, so the result is identical.
    new = tuple.__new__
    kinds = _GROUP_KINDS
    keywords = KEYWORDS
    line = 1
    bol = 0  # index of the first character of the current line
    prev_end = 0

    for match in iter(_TOKEN_RE.scanner(source).match, None):
        group = match.lastindex
        start, end = match.span(group)
        if start != prev_end:
            newlines = source.count("\n", prev_end, start)
            if newlines:
                line += newlines
                bol = source.rfind("\n", prev_end, start) + 1
        prev_end = end
        text = source[start:end]
        if group == 1:
            kind = _KEYWORD if text in keywords else _IDENT
        elif group > _LAST_PLAIN:
            if group == _END:
                append(new(Token, (kinds[group], "", line, start - bol + 1)))
                return tokens
            if group == _STRING:
                append(_lex_string(source, start, line, start - bol + 1)[0])
            else:
                append(new(Token, (kinds[group], text, line, start - bol + 1)))
            # Multi-line `define continuations and escaped newlines inside
            # strings span lines; keep the line/column bookkeeping in step.
            newlines = text.count("\n")
            if newlines:
                line += newlines
                bol = start + text.rfind("\n") + 1
            continue
        elif group == _UNTERMINATED:
            raise LexError("unterminated block comment", line, start - bol + 1)
        else:
            kind = kinds[group]
        append(new(Token, (kind, text, line, start - bol + 1)))
    _raise_at(source, prev_end, line, bol)


def check_syntax_fast(source: str):
    """:func:`repro.verilog.syntax.check_syntax` via the fast lexer.

    Identical verdicts by the equivalence contract above; the engine's
    syntax stage uses this entry point on whole-corpus runs.
    """
    from repro.verilog.syntax import check_with_lexer

    return check_with_lexer(source, lex_fast)
