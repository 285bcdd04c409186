"""Recursive-descent parser for the Verilog-2001 subset.

The grammar covers the synthesizable constructs produced by the corpus
generators in :mod:`repro.vgen` (see the package docstring of
:mod:`repro.verilog` for the exact subset).  Anything outside the subset
raises :class:`~repro.errors.ParseError` with a position, which is exactly
the behaviour the curation pipeline needs: a file either parses (kept) or
does not (dropped), mirroring the paper's Icarus-based syntax filter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.verilog import ast
from repro.verilog.lexer import lex
from repro.verilog.tokens import Token, TokenKind

# Enum member lookups go through the enum metaclass; module aliases keep
# the per-token kind tests to a global load.
_BASED_NUMBER = TokenKind.BASED_NUMBER
_DIRECTIVE = TokenKind.DIRECTIVE
_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_NUMBER = TokenKind.NUMBER
_OP = TokenKind.OP
_STRING = TokenKind.STRING
_SYSTEM_IDENT = TokenKind.SYSTEM_IDENT

# Binary operator precedence, low to high.  Each tier is left-associative
# except ** (handled specially).
_BINARY_TIERS: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^", "^~", "~^"),
    ("&",),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", "<<<", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: operator -> tier index (higher binds tighter), for precedence climbing
_BINARY_OP_TIER = {
    op: tier for tier, ops in enumerate(_BINARY_TIERS) for op in ops
}

_UNARY_OPS = frozenset(["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"])

_CASE_KEYWORDS = frozenset(["case", "casez", "casex"])
_DIRECTIONS = frozenset(["input", "output", "inout"])

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BITS_PER_DIGIT = {2: 1, 8: 3, 16: 4}
_RADIX_DIGITS = {
    2: frozenset("01"),
    8: frozenset("01234567"),
    10: frozenset("0123456789"),
    16: frozenset("0123456789abcdefABCDEF"),
}
_UNKNOWN_DIGITS = frozenset("xXzZ?")


def parse_based_literal(text: str, line: int = 0) -> ast.Number:
    """Parse a sized/based literal such as ``8'hF0`` or ``4'b10x?``.

    X/Z/? digits are recorded in ``unknown_mask`` (used by casez/casex
    matching) and contribute zero to ``value`` (two-state semantics).
    """
    tick = text.index("'")
    size_text = text[:tick].replace("_", "")
    width = int(size_text) if size_text else None
    rest = text[tick + 1:]
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    if not rest:
        raise ParseError("malformed based literal", line)
    radix = _BASE_RADIX.get(rest[0].lower())
    if radix is None:
        raise ParseError(f"unknown number base {rest[0]!r}", line)
    digits = rest[1:].replace("_", "")
    if not digits:
        raise ParseError("based literal has no digits", line)
    if _RADIX_DIGITS[radix].issuperset(digits):
        # Plain digits only: int() reads them as the digit loop below
        # would, and the check lets no 0b/0o/0x prefix through.
        value = int(digits, radix)
        unknown = 0
    elif radix == 10:
        if _UNKNOWN_DIGITS.isdisjoint(digits):
            raise ParseError(f"digits {digits!r} invalid for base 10", line)
        # A decimal x/z literal sets every bit unknown.
        value = 0
        unknown = (1 << (width or 32)) - 1
    else:
        bits_per_digit = _BITS_PER_DIGIT[radix]
        value = 0
        unknown = 0
        for digit in digits:
            value <<= bits_per_digit
            unknown <<= bits_per_digit
            if digit in _UNKNOWN_DIGITS:
                unknown |= (1 << bits_per_digit) - 1
            else:
                try:
                    value |= int(digit, radix)
                except ValueError:
                    raise ParseError(
                        f"digit {digit!r} invalid for base {radix}", line
                    ) from None
    if width is not None:
        mask = (1 << width) - 1
        value &= mask
        unknown &= mask
    return ast.Number(
        line=line,
        value=value,
        width=width,
        signed=signed,
        has_unknown=bool(unknown),
        unknown_mask=unknown,
    )


class Parser:
    """Parses a token stream into a :class:`repro.verilog.ast.SourceFile`.

    Operator and keyword tests read ``_marks``, built once per parse: the
    token text at each position where the token is an operator or a
    keyword, ``None`` elsewhere.  Operator and keyword texts are disjoint,
    so ``self._marks[self._pos] == "("`` is exactly
    ``self._peek().is_op("(")`` and ``== "begin"`` exactly
    ``is_keyword("begin")``, without a method call per test.
    """

    def __init__(self, tokens: List[Token]) -> None:
        # Directives are position markers only; the subset ignores them.
        self._tokens = [t for t in tokens if t.kind is not _DIRECTIVE]
        self._marks = [
            text if kind is _OP or kind is _KEYWORD else None
            for kind, text, _, _ in self._tokens
        ]
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # The token list always ends with EOF and _advance never moves
        # past it, so the zero-offset hot path needs no bounds clamp.
        if offset:
            idx = min(self._pos + offset, len(self._tokens) - 1)
            return self._tokens[idx]
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not _EOF:
            self._pos += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(f"{message}, got {tok.text!r}", tok.line, tok.col)

    # A mark never matches at EOF (its mark is None), so the helpers
    # below step past a matched token without _advance's EOF guard.

    def _expect_op(self, text: str) -> Token:
        pos = self._pos
        if self._marks[pos] != text:
            raise self._error(f"expected {text!r}")
        self._pos = pos + 1
        return self._tokens[pos]

    def _expect_keyword(self, text: str) -> Token:
        pos = self._pos
        if self._marks[pos] != text:
            raise self._error(f"expected keyword {text!r}")
        self._pos = pos + 1
        return self._tokens[pos]

    def _expect_ident(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not _IDENT:
            raise self._error("expected identifier")
        self._pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the operator or keyword ``text``."""
        if self._marks[self._pos] == text:
            self._pos += 1
            return True
        return False

    def _parse_range(self) -> ast.Range:
        """Parse ``[msb:lsb]``."""
        self._expect_op("[")
        msb = self._parse_expr()
        self._expect_op(":")
        lsb = self._parse_expr()
        self._expect_op("]")
        return ast.Range(msb=msb, lsb=lsb)

    def _maybe_range(self) -> Optional[ast.Range]:
        if self._marks[self._pos] == "[":
            return self._parse_range()
        return None

    # -- top level -----------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        """Parse the whole token stream.

        Raises :class:`ParseError` for any input outside the subset,
        including nesting too deep for the recursive descent: a hostile
        file must be rejected as a syntax error, not crash its caller.
        """
        try:
            return self._parse_source_file()
        except RecursionError:
            raise self._error("nesting too deep") from None

    def _parse_source_file(self) -> ast.SourceFile:
        source = ast.SourceFile()
        while self._peek().kind is not _EOF:
            mark = self._marks[self._pos]
            if mark == "module" or mark == "macromodule":
                source.modules.append(self._parse_module())
            else:
                raise self._error("expected 'module' at top level")
        if not source.modules:
            raise ParseError("source contains no modules")
        return source

    def _parse_module(self) -> ast.Module:
        start = self._advance()  # module
        name = self._expect_ident().text
        module = ast.Module(name=name, line=start.line)
        if self._accept("#"):
            self._parse_module_param_list(module)
        if self._marks[self._pos] == "(":
            self._parse_port_list(module)
        self._expect_op(";")
        while self._marks[self._pos] != "endmodule":
            if self._peek().kind is _EOF:
                raise self._error("unexpected end of file inside module")
            self._parse_module_item(module)
        self._advance()  # endmodule
        return module

    def _parse_module_param_list(self, module: ast.Module) -> None:
        """``#(parameter A = 1, parameter [3:0] B = 2, ...)``"""
        self._expect_op("(")
        while True:
            self._accept("parameter")
            rng = self._maybe_range()
            name_tok = self._expect_ident()
            self._expect_op("=")
            value = self._parse_expr()
            module.params.append(
                ast.ParamDecl(
                    name=name_tok.text,
                    value=value,
                    local=False,
                    range=rng,
                    line=name_tok.line,
                )
            )
            if not self._accept(","):
                break
        self._expect_op(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        self._expect_op("(")
        if self._accept(")"):
            return
        # Decide ANSI vs non-ANSI from the first token.
        direction: Optional[str] = None
        is_reg = False
        signed = False
        rng: Optional[ast.Range] = None
        while True:
            if self._marks[self._pos] in _DIRECTIONS:
                direction = self._advance().text
                is_reg = self._accept("reg")
                if self._accept("wire"):
                    pass
                signed = self._accept("signed")
                rng = self._maybe_range()
            name_tok = self._expect_ident()
            module.port_order.append(name_tok.text)
            if direction is not None:
                module.ports.append(
                    ast.PortDecl(
                        direction=direction,
                        name=name_tok.text,
                        range=rng,
                        is_reg=is_reg,
                        signed=signed,
                        line=name_tok.line,
                    )
                )
            if not self._accept(","):
                break
        self._expect_op(")")

    # -- module items ----------------------------------------------------

    def _parse_module_item(self, module: ast.Module) -> None:
        tok = self._tokens[self._pos]
        if tok.kind is _KEYWORD:
            handler = _MODULE_ITEMS.get(tok.text)
            if handler is None:
                raise self._error(f"unsupported module item {tok.text!r}")
            handler(self, module)
            return
        if tok.kind is _IDENT:
            module.instances.extend(self._parse_instances())
            return
        if self._marks[self._pos] == ";":
            self._pos += 1
            return
        raise self._error("expected module item")

    def _parse_body_port(self, module: ast.Module) -> None:
        direction = self._advance().text
        is_reg = self._accept("reg")
        if self._accept("wire"):
            pass
        signed = self._accept("signed")
        rng = self._maybe_range()
        while True:
            name_tok = self._expect_ident()
            module.ports.append(
                ast.PortDecl(
                    direction=direction,
                    name=name_tok.text,
                    range=rng,
                    is_reg=is_reg,
                    signed=signed,
                    line=name_tok.line,
                )
            )
            if not self._accept(","):
                break
        self._expect_op(";")

    def _parse_net_decl(self, module: ast.Module) -> None:
        kind = self._advance().text
        signed = self._accept("signed")
        rng = self._maybe_range() if kind != "integer" else None
        while True:
            name_tok = self._expect_ident()
            dims: List[ast.Range] = []
            while self._marks[self._pos] == "[":
                dims.append(self._parse_range())
            init = None
            if self._accept("="):
                init = self._parse_expr()
            module.nets.append(
                ast.NetDecl(
                    kind=kind,
                    name=name_tok.text,
                    range=rng,
                    array_dims=dims,
                    signed=signed,
                    init=init,
                    line=name_tok.line,
                )
            )
            if not self._accept(","):
                break
        self._expect_op(";")

    def _parse_param_decl(self, module: ast.Module) -> None:
        local = self._advance().text == "localparam"
        rng = self._maybe_range()
        while True:
            name_tok = self._expect_ident()
            self._expect_op("=")
            value = self._parse_expr()
            module.params.append(
                ast.ParamDecl(
                    name=name_tok.text,
                    value=value,
                    local=local,
                    range=rng,
                    line=name_tok.line,
                )
            )
            if not self._accept(","):
                break
        self._expect_op(";")

    def _parse_continuous_assign(self, module: ast.Module) -> None:
        start = self._advance()  # assign
        while True:
            target = self._parse_lvalue()
            self._expect_op("=")
            value = self._parse_expr()
            module.assigns.append(
                ast.ContinuousAssign(target=target, value=value, line=start.line)
            )
            if not self._accept(","):
                break
        self._expect_op(";")

    def _parse_always(self, module: ast.Module) -> None:
        start = self._advance()  # always
        sensitivity: Optional[List[ast.SensItem]] = None
        if self._accept("@"):
            if self._accept("*"):
                sensitivity = None
            else:
                self._expect_op("(")
                if self._accept("*"):
                    sensitivity = None
                else:
                    sensitivity = [self._parse_sens_item()]
                    while self._accept("or") or self._accept(","):
                        sensitivity.append(self._parse_sens_item())
                self._expect_op(")")
        else:
            raise self._error("always block without sensitivity list")
        body = self._parse_statement()
        module.always_blocks.append(
            ast.AlwaysBlock(sensitivity=sensitivity, body=body, line=start.line)
        )

    def _parse_sens_item(self) -> ast.SensItem:
        if self._accept("posedge"):
            return ast.SensItem(edge="posedge", signal=self._expect_ident().text)
        if self._accept("negedge"):
            return ast.SensItem(edge="negedge", signal=self._expect_ident().text)
        return ast.SensItem(edge="level", signal=self._expect_ident().text)

    def _parse_initial(self, module: ast.Module) -> None:
        start = self._advance()
        body = self._parse_statement()
        module.initial_blocks.append(ast.InitialBlock(body=body, line=start.line))

    def _parse_instances(self) -> List[ast.Instance]:
        """One instantiation statement (may declare several instances)."""
        module_tok = self._expect_ident()
        param_overrides: List[Tuple[Optional[str], ast.Expr]] = []
        if self._accept("#"):
            self._expect_op("(")
            param_overrides = self._parse_connection_list()
            self._expect_op(")")
        instances: List[ast.Instance] = []
        while True:
            inst_tok = self._expect_ident()
            self._expect_op("(")
            raw = [] if self._marks[self._pos] == ")" else self._parse_connection_list()
            self._expect_op(")")
            connections = [
                ast.PortConnection(name=name, expr=expr) for name, expr in raw
            ]
            instances.append(
                ast.Instance(
                    module_name=module_tok.text,
                    instance_name=inst_tok.text,
                    param_overrides=list(param_overrides),
                    connections=connections,
                    line=inst_tok.line,
                )
            )
            if not self._accept(","):
                break
        self._expect_op(";")
        return instances

    def _parse_connection_list(self) -> List[Tuple[Optional[str], ast.Expr]]:
        """Named (``.a(x)``) or positional expression list."""
        out: List[Tuple[Optional[str], ast.Expr]] = []
        while True:
            if self._accept("."):
                name = self._expect_ident().text
                self._expect_op("(")
                expr = None if self._marks[self._pos] == ")" else self._parse_expr()
                self._expect_op(")")
                out.append((name, expr))
            else:
                out.append((None, self._parse_expr()))
            if not self._accept(","):
                return out

    # -- statements --------------------------------------------------------

    def _parse_statement(self) -> ast.Stmt:
        tok = self._tokens[self._pos]
        mark = self._marks[self._pos]
        if mark == "begin":
            return self._parse_block()
        if mark == "if":
            return self._parse_if()
        if mark in _CASE_KEYWORDS:
            return self._parse_case()
        if mark == "for":
            return self._parse_for()
        if mark == ";":
            self._pos += 1
            return ast.NullStmt(line=tok.line)
        if tok.kind is _SYSTEM_IDENT:
            return self._parse_system_task()
        if tok.kind is _IDENT or mark == "{":
            stmt = self._parse_assignment()
            self._expect_op(";")
            return stmt
        raise self._error("expected statement")

    def _parse_block(self) -> ast.Block:
        start = self._expect_keyword("begin")
        name = None
        if self._accept(":"):
            name = self._expect_ident().text
        stmts: List[ast.Stmt] = []
        while self._marks[self._pos] != "end":
            if self._peek().kind is _EOF:
                raise self._error("unexpected end of file inside begin/end")
            stmts.append(self._parse_statement())
        self._advance()  # end
        return ast.Block(line=start.line, stmts=stmts, name=name)

    def _parse_if(self) -> ast.If:
        start = self._expect_keyword("if")
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        then = self._parse_statement()
        other = None
        if self._accept("else"):
            other = self._parse_statement()
        return ast.If(line=start.line, cond=cond, then=then, other=other)

    def _parse_case(self) -> ast.Case:
        start = self._advance()
        kind = start.text
        self._expect_op("(")
        subject = self._parse_expr()
        self._expect_op(")")
        items: List[ast.CaseItem] = []
        while self._marks[self._pos] != "endcase":
            if self._peek().kind is _EOF:
                raise self._error("unexpected end of file inside case")
            if self._accept("default"):
                self._accept(":")
                items.append(ast.CaseItem(labels=[], body=self._parse_statement()))
                continue
            labels = [self._parse_expr()]
            while self._accept(","):
                labels.append(self._parse_expr())
            self._expect_op(":")
            items.append(ast.CaseItem(labels=labels, body=self._parse_statement()))
        self._advance()  # endcase
        return ast.Case(line=start.line, kind=kind, subject=subject, items=items)

    def _parse_for(self) -> ast.For:
        start = self._expect_keyword("for")
        self._expect_op("(")
        init = self._parse_assignment()
        if not isinstance(init, ast.Assign) or not init.blocking:
            raise self._error("for-loop init must be a blocking assignment")
        self._expect_op(";")
        cond = self._parse_expr()
        self._expect_op(";")
        step = self._parse_assignment()
        if not isinstance(step, ast.Assign) or not step.blocking:
            raise self._error("for-loop step must be a blocking assignment")
        self._expect_op(")")
        body = self._parse_statement()
        return ast.For(line=start.line, init=init, cond=cond, step=step, body=body)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        tok = self._advance()
        args: List[ast.Expr] = []
        if self._accept("("):
            if self._marks[self._pos] != ")":
                args.append(self._parse_expr())
                while self._accept(","):
                    args.append(self._parse_expr())
            self._expect_op(")")
        self._expect_op(";")
        return ast.SystemTaskCall(line=tok.line, name=tok.text, args=args)

    def _parse_assignment(self) -> ast.Assign:
        target = self._parse_lvalue()
        tok = self._tokens[self._pos]
        mark = self._marks[self._pos]
        if mark == "=":
            self._pos += 1
            return ast.Assign(
                line=tok.line, target=target, value=self._parse_expr(), blocking=True
            )
        if mark == "<=":
            self._pos += 1
            return ast.Assign(
                line=tok.line, target=target, value=self._parse_expr(), blocking=False
            )
        raise self._error("expected '=' or '<=' in assignment")

    def _parse_lvalue(self) -> ast.Expr:
        """Identifier with optional selects, or a concatenation of lvalues."""
        if self._marks[self._pos] == "{":
            return self._parse_concat()
        name_tok = self._expect_ident()
        expr: ast.Expr = ast.Identifier(line=name_tok.line, name=name_tok.text)
        while self._marks[self._pos] == "[":
            expr = self._parse_select_suffix(expr)
        return expr

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept("?"):
            then = self._parse_ternary()
            self._expect_op(":")
            other = self._parse_ternary()
            return ast.Ternary(line=cond.line, cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, tier: int) -> ast.Expr:
        # Precedence climbing: equivalent to the straightforward
        # one-method-per-tier cascade (left-associative within a tier,
        # higher tiers bind tighter) but recurses only where an operator
        # actually appears instead of through every tier per operand.
        lhs = self._parse_power()
        marks = self._marks
        while True:
            op = marks[self._pos]
            op_tier = _BINARY_OP_TIER.get(op)
            if op_tier is None or op_tier < tier:
                return lhs
            self._pos += 1
            rhs = self._parse_binary(op_tier + 1)
            lhs = ast.Binary(line=lhs.line, op=op, lhs=lhs, rhs=rhs)

    def _parse_power(self) -> ast.Expr:
        base = self._parse_unary()
        if self._marks[self._pos] == "**":
            self._pos += 1
            exponent = self._parse_power()  # right associative
            return ast.Binary(line=base.line, op="**", lhs=base, rhs=exponent)
        return base

    def _parse_unary(self) -> ast.Expr:
        op = self._marks[self._pos]
        if op in _UNARY_OPS:
            line = self._tokens[self._pos].line
            self._pos += 1
            operand = self._parse_unary()
            return ast.Unary(line=line, op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        # The kinds tested here are mutually exclusive, so the order only
        # puts the common cases first.
        kind, text, line, _ = tok = self._tokens[self._pos]
        if kind is _IDENT:
            self._pos += 1
            expr: ast.Expr = ast.Identifier(line=line, name=text)
            while self._marks[self._pos] == "[":
                expr = self._parse_select_suffix(expr)
            return expr
        if kind is _NUMBER:
            self._pos += 1
            if "." in text:
                raise self._error("real literals are not supported", tok)
            return ast.Number(line=line, value=int(text.replace("_", "")))
        if kind is _BASED_NUMBER:
            self._pos += 1
            return parse_based_literal(text, line)
        if kind is _OP:
            if text == "(":
                self._pos += 1
                inner = self._parse_expr()
                self._expect_op(")")
                return inner
            if text == "{":
                return self._parse_concat()
        elif kind is _STRING:
            self._pos += 1
            return ast.StringLiteral(line=line, value=text)
        elif kind is _SYSTEM_IDENT:
            return self._parse_system_call()
        raise self._error("expected expression")

    def _parse_system_call(self) -> ast.SystemCall:
        tok = self._advance()
        args: List[ast.Expr] = []
        if self._accept("("):
            if self._marks[self._pos] != ")":
                args.append(self._parse_expr())
                while self._accept(","):
                    args.append(self._parse_expr())
            self._expect_op(")")
        return ast.SystemCall(line=tok.line, name=tok.text, args=args)

    def _parse_concat(self) -> ast.Expr:
        start = self._expect_op("{")
        first = self._parse_expr()
        if self._marks[self._pos] == "{":
            # Replication: {N{...}}
            inner = self._parse_concat()
            if not isinstance(inner, ast.Concat):
                inner = ast.Concat(line=start.line, parts=[inner])
            self._expect_op("}")
            return ast.Repeat(line=start.line, count=first, inner=inner)
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_expr())
        self._expect_op("}")
        return ast.Concat(line=start.line, parts=parts)

    def _parse_select_suffix(self, base: ast.Expr) -> ast.Expr:
        """Parse one ``[...]`` suffix: index, part, or indexed part select."""
        start = self._expect_op("[")
        first = self._parse_expr()
        if self._accept(":"):
            lsb = self._parse_expr()
            self._expect_op("]")
            return ast.PartSelect(line=start.line, base=base, msb=first, lsb=lsb)
        if self._accept("+:"):
            width = self._parse_expr()
            self._expect_op("]")
            return ast.IndexedPartSelect(
                line=start.line, base=base, start=first, width=width, ascending=True
            )
        if self._accept("-:"):
            width = self._parse_expr()
            self._expect_op("]")
            return ast.IndexedPartSelect(
                line=start.line, base=base, start=first, width=width, ascending=False
            )
        self._expect_op("]")
        return ast.Index(line=start.line, base=base, index=first)


#: module-item keyword -> the Parser method that parses the item
_MODULE_ITEMS = {
    "input": Parser._parse_body_port,
    "output": Parser._parse_body_port,
    "inout": Parser._parse_body_port,
    "wire": Parser._parse_net_decl,
    "reg": Parser._parse_net_decl,
    "integer": Parser._parse_net_decl,
    "parameter": Parser._parse_param_decl,
    "localparam": Parser._parse_param_decl,
    "assign": Parser._parse_continuous_assign,
    "always": Parser._parse_always,
    "initial": Parser._parse_initial,
}


def parse_source(source: str) -> ast.SourceFile:
    """Lex and parse Verilog ``source`` text into a :class:`SourceFile`."""
    return Parser(lex(source)).parse_source()


def parse_source_fast(source: str) -> ast.SourceFile:
    """:func:`parse_source` through the regex lexer.

    ``lex_fast`` produces the exact token stream of ``lex`` (the contract
    :mod:`repro.verilog.fastlex` states and ``tests/test_fastlex.py``
    enforces), so the resulting AST is identical; only the lexing cost
    changes.  Evaluation-side hot paths use this entry point.
    """
    from repro.verilog.fastlex import lex_fast

    return Parser(lex_fast(source)).parse_source()
