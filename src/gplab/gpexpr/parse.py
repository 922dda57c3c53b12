"""Recursive-descent parser for the expression surface syntax.

Grammar (UTF-8 text)::

    program   := (letdecl ";")* expr
    letdecl   := "let" IDENT "=" (rootexpr | expr)
    rootexpr  := "root(" expr "," expr "," expr ")"
    expr      := ["-"] term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*      -- "/" only by constants
    factor    := base ("^" UINT)?
    base      := UINT | IDENT | VAR
               | "floor(" expr ")" | "frac(" expr ")"
               | "nint(" expr ")" | "dist(" expr ")" | "(" expr ")"

Rationals are written with the division operator (``1/2``), so there is no
separate fraction token.  Division is restricted to divisors that do not
involve the variable; the divisor is evaluated exactly and folded into a
constant, keeping the tree inside the +, *, floor closure.  Folding stops
at :data:`~gplab.gpexpr.evaluate.MAX_CONST_BITS`, checked before a product
or power is formed, with a ``ParseError`` at the ``/``.  ``theta`` is a
reserved identifier bound to the built-in transcendental surrogate constant.

There is one grammar.  ``VAR`` is ``n``, except in the first argument of
``root()``, where it is ``x``: that argument is read as an expression and
expanded into integer coefficients, taking only integers, ``x``, ``+``,
``-``, ``*`` and powers with an exponent of at most 3, and a term of
degree above 3 is refused before it is expanded; the expansion must be
monic of degree 2 or 3.  The two bounds of ``root()`` and a ``let``
rational are expressions too, and must fold to a rational constant, so
``x^2 - 4/2`` and a bound ``(1/3)`` are read as written.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import DivisionByZero, ParseError, PreconditionError
from ..realnum import THETA, FieldElement, NumberField, is_exact_zero, rinv
from ..realnum.polys import Poly, poly_add, poly_mul, poly_trim
from .ast import (
    Add,
    Const,
    Dist,
    Expr,
    Floor,
    Frac,
    Mul,
    N,
    Nint,
    Pow,
    RationalConst,
    Sub,
    Var,
    depends_on_var,
    map_tree,
)
from .evaluate import check_const_bits, const_bits, eval_exact

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),;=]))"
)

_KEYWORDS = {"let", "root", "floor", "frac", "nint", "dist", "n", "x"}

# Deepest nesting of parentheses and integer-part calls.  Each level costs
# four frames of recursive descent, so this stays well inside Python's
# recursion limit; printed builder certificates nest about 15 deep.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind, text, line, col, value=None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value  # the int of an integer literal


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            nl = text.count("\n", 0, pos)
            raise ParseError(f"unexpected character {stripped[0]!r}", nl + 1, pos - line_start + 1)
        line += text.count("\n", pos, m.start())
        if "\n" in text[pos : m.start()]:
            line_start = text.rfind("\n", pos, m.start()) + 1
        col = m.start() - line_start + 1
        digits = m.group("int")
        if digits is not None:
            try:
                value = int(digits)
            except ValueError:  # past Python's int-string limit (4300 digits by default)
                msg = f"integer literal of {len(digits)} digits is too long"
                raise ParseError(msg, line, col) from None
            tokens.append(_Token("int", digits, line, col, value))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), line, col))
        else:
            tokens.append(_Token("op", m.group("op"), line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.bindings: dict[str, Const] = {}
        self.var = "n"  # the name read as the variable; "x" inside root()

    # -- token plumbing ----------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            what = "end of input" if t.kind == "eof" else repr(t.text)
            raise ParseError(f"expected {text!r}, found {what}", t.line, t.col)
        return t

    def nested(self, parse_inner, opener: _Token):
        """Parse a parenthesised sub-expression, bounding the nesting depth."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels", opener)
        inner = parse_inner()
        self.depth -= 1
        self.expect(")")
        return inner

    def error(self, msg: str, t: _Token | None = None):
        t = t or self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- program -------------------------------------------------------------
    def parse_program(self) -> Expr:
        while self.peek().text == "let":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident" or name_tok.text in _KEYWORDS | {"theta"}:
                self.error("expected a fresh identifier after 'let'", name_tok)
            self.expect("=")
            value = self.parse_constexpr(name_tok.text)
            self.expect(";")
            self.bindings[name_tok.text] = Const(name_tok.text, value)
        e = self.parse_expr()
        t = self.peek()
        if t.kind != "eof":
            self.error(f"unexpected trailing input {t.text!r}", t)
        return e

    def parse_constexpr(self, name: str):
        if self.peek().text != "root":
            return self.parse_rational()
        self.next()
        self.expect("(")
        self.var, at = "x", self.peek()
        poly = self.parse_expr()
        self.var = "n"
        coeffs = map_tree(poly, lambda node, kids: self._expand(node, kids, at))
        if len(coeffs) - 1 not in (2, 3) or coeffs[-1] != 1:
            self.error("root() requires a monic polynomial of degree 2 or 3", at)
        self.expect(",")
        lo = self.parse_rational()
        self.expect(",")
        hi = self.parse_rational()
        self.expect(")")
        try:
            field = NumberField(coeffs, lo, hi, name)
        except PreconditionError as exc:
            self.error(f"malformed root(): {exc}", at)
        return field.generator()

    def parse_rational(self) -> Fraction:
        at = self.peek()
        e = self.parse_expr()
        if not isinstance(e, RationalConst):
            self.error("expected a rational number", at)
        return e.value

    def _expand(self, node: Expr, kids: tuple, at: _Token) -> Poly:
        """One step of expanding a root() polynomial into integer coefficients."""
        if isinstance(node, Var):
            out = (0, 1)
        elif isinstance(node, RationalConst) and node.value.denominator == 1:
            out = poly_trim((node.value.numerator,))
        elif isinstance(node, Add):
            out = poly_add(*kids)
        elif isinstance(node, Sub):
            out = poly_add(kids[0], poly_mul(kids[1], (-1,)))
        elif isinstance(node, Mul):
            out = poly_mul(*kids)
        elif isinstance(node, Pow) and node.exponent <= 3:
            out = (1,)
            for _ in range(node.exponent):
                out = poly_mul(out, kids[0])
        else:
            self.error("root() takes integers, 'x', '+', '-', '*' and powers up to 3", at)
        if len(out) > 4:
            self.error("root() polynomial has a term of degree above 3", at)
        return out

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            first = self._negated(self.parse_term())
        else:
            first = self.parse_term()
        acc = first
        while self.peek().text in ("+", "-"):
            op = self.next().text
            term = self.parse_term()
            acc = Add(acc, term) if op == "+" else Sub(acc, term)
        return acc

    @staticmethod
    def _negated(e: Expr) -> Expr:
        if isinstance(e, RationalConst):
            return RationalConst(-e.value)
        return Sub(RationalConst(Fraction(0)), e)

    def parse_term(self) -> Expr:
        acc = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op_tok = self.next()
            rhs = self.parse_factor()
            if op_tok.text == "*":
                acc = Mul(acc, rhs)
            else:
                try:
                    inv = self._fold_divisor(rhs, op_tok)
                    if isinstance(acc, RationalConst) and isinstance(inv, RationalConst):
                        check_const_bits(const_bits(acc.value) + const_bits(inv.value))
                        acc = RationalConst(acc.value * inv.value)
                    else:
                        acc = Mul(acc, inv)
                except ParseError as exc:
                    if exc.line is not None:
                        raise
                    self.error(exc.message, op_tok)  # a folded constant past the cap
        return acc

    def _fold_divisor(self, rhs: Expr, op_tok: _Token) -> Expr:
        if depends_on_var(rhs):
            self.error("division is only allowed by constant expressions", op_tok)
        value = eval_exact(rhs, 0)  # compiling rhs folds it, within the size cap
        if is_exact_zero(value):
            raise DivisionByZero("division by a constant that is exactly zero")
        inv = rinv(value)
        if isinstance(inv, Fraction):
            return RationalConst(inv)
        if isinstance(inv, FieldElement):
            return Const(inv.field.name, inv)
        return Const("inv", inv)

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "int":
                self.error("expected a nonnegative integer exponent", t)
            return Pow(base, t.value)
        return base

    def parse_base(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return RationalConst(Fraction(t.value))
        if t.text == self.var:
            return N
        if t.text in ("floor", "frac", "nint", "dist"):
            inner = self.nested(self.parse_expr, self.expect("("))
            return {"floor": Floor, "frac": Frac, "nint": Nint, "dist": Dist}[t.text](inner)
        if t.text == "(":
            return self.nested(self.parse_expr, t)
        if t.kind == "ident":
            if t.text == "theta":
                return Const("theta", THETA)
            if t.text in self.bindings:
                return self.bindings[t.text]
            self.error(f"unknown identifier {t.text!r}", t)
        if t.kind == "eof":
            self.error("unexpected end of input", t)
        self.error(f"unexpected token {t.text!r}", t)


def parse(text: str) -> Expr:
    """Parse a program (let declarations followed by one expression)."""
    return _Parser(text).parse_program()
