"""Recursive-descent parser for the expression surface syntax.

Grammar (UTF-8 text)::

    program   := (letdecl ";")* expr
    letdecl   := "let" IDENT "=" constexpr
    constexpr := "root(" intpoly "," rational "," rational ")" | srational
    expr      := ["-"] term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*      -- "/" only by constants
    factor    := base ("^" UINT)?
    base      := UINT | IDENT | "n"
               | "floor(" expr ")" | "frac(" expr ")"
               | "nint(" expr ")" | "dist(" expr ")" | "(" expr ")"

Rationals are written with the division operator (``1/2``), so there is no
separate fraction token.  Division is restricted to divisors that do not
involve ``n``; the divisor is evaluated exactly and folded into a constant,
keeping the tree inside the +, *, floor closure.  ``theta`` is a reserved
identifier bound to the built-in transcendental surrogate constant.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import DivisionByZero, ParseError, PreconditionError
from ..realnum import THETA, FieldElement, NumberField, is_exact_zero, rinv
from ..realnum.polys import Poly, poly_add, poly_mul
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
    depends_on_var,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),;=]))"
)

_KEYWORDS = {"let", "root", "floor", "frac", "nint", "dist", "n", "x"}

# Deepest nesting of parentheses and integer-part calls.  Each level costs
# four frames of recursive descent, so this stays well inside Python's
# recursion limit; printed builder certificates nest about 15 deep.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


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
        if m.group("int") is not None:
            tokens.append(_Token("int", m.group("int"), line, col))
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
        if self.peek().text == "root":
            self.next()
            self.expect("(")
            coeffs = self.parse_intpoly()
            self.expect(",")
            lo = self.parse_signed_rational()
            self.expect(",")
            hi = self.parse_signed_rational()
            self.expect(")")
            try:
                field = NumberField(coeffs, lo, hi, name)
            except PreconditionError as exc:
                self.error(f"malformed root(): {exc}")
            return field.generator()
        return self.parse_signed_rational()

    def parse_signed_rational(self) -> Fraction:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        t = self.next()
        if t.kind != "int":
            self.error("expected a rational number", t)
        num = int(t.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            t2 = self.next()
            if t2.kind != "int":
                self.error("expected a denominator", t2)
            den = int(t2.text)
            if den == 0:
                self.error("zero denominator", t2)
        q = Fraction(num, den)
        return -q if neg else q

    # -- integer polynomials in x (inside root) -------------------------------
    def parse_intpoly(self) -> tuple[int, ...]:
        out = self._poly_expr()  # trimmed, with integer coefficients
        if len(out) - 1 not in (2, 3):
            self.error("root() requires a polynomial of degree 2 or 3")
        if out[-1] != 1:
            self.error("root() requires a monic polynomial")
        return out

    def _poly_expr(self) -> Poly:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        acc = poly_mul(self._poly_term(), (sign,))
        while self.peek().text in ("+", "-"):
            op = self.next().text
            term = self._poly_term()
            if op == "-":
                term = poly_mul(term, (-1,))
            acc = poly_add(acc, term)
        return acc

    def _poly_term(self) -> Poly:
        acc = self._poly_factor()
        while self.peek().text == "*":
            self.next()
            acc = poly_mul(acc, self._poly_factor())
        return acc

    def _poly_factor(self) -> Poly:
        base = self._poly_base()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "int":
                self.error("expected an exponent", t)
            out: Poly = (1,)
            for _ in range(int(t.text)):
                out = poly_mul(out, base)
            return out
        return base

    def _poly_base(self) -> Poly:
        t = self.next()
        if t.kind == "int":
            return (int(t.text),)
        if t.text == "x":
            return (0, 1)
        if t.text == "(":
            return self.nested(self._poly_expr, t)
        self.error("expected an integer, 'x', or '(' in root() polynomial", t)

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
                inv = self._fold_divisor(rhs, op_tok)
                if isinstance(acc, RationalConst) and isinstance(inv, RationalConst):
                    acc = RationalConst(acc.value * inv.value)
                else:
                    acc = Mul(acc, inv)
        return acc

    def _fold_divisor(self, rhs: Expr, op_tok: _Token) -> Expr:
        if depends_on_var(rhs):
            self.error("division is only allowed by constant expressions", op_tok)
        from .evaluate import eval_exact

        value = eval_exact(rhs, 0)
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
            return Pow(base, int(t.text))
        return base

    def parse_base(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return RationalConst(Fraction(int(t.text)))
        if t.text == "n":
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
