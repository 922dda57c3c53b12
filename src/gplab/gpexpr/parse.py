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

The parser hash-conses: every node it makes is looked up by its type and
its children's identities (a leaf by its value), so structurally equal
subterms of the text are one object, as the builders share them.  A printed
certificate, which writes each shared subterm out in full wherever it
occurs, re-parses to a tree of as many distinct nodes as the structure has.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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

# one alternative per token kind, and any other non-space character as "bad"
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),;=])|(?P<bad>\S)"
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
    """The tokens of ``text``, in one ``finditer`` pass, each at the line and
    column of its first character, read off the precomputed line starts by
    bisection; a bad character raises at its own position, and the end
    token stands just past the text."""
    starts = [0]
    at = text.find("\n")
    while at >= 0:
        starts.append(at + 1)
        at = text.find("\n", at + 1)
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, pos, word = m.lastgroup, m.start(), m.group()
        if line < len(starts) and pos >= starts[line]:
            line = bisect_right(starts, pos)
            line_start = starts[line - 1]
        col = pos - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        value = None
        if kind == "int":
            try:
                value = int(word)
            except ValueError:  # past Python's int-string limit (4300 digits by default)
                raise ParseError(f"integer literal of {len(word)} digits is too long", line, col) from None
        tokens.append(_Token(kind, word, line, col, value))
    tokens.append(_Token("eof", "", len(starts), len(text) - starts[-1] + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.bindings: dict[str, Const] = {}
        self.var = "n"  # the name read as the variable; "x" inside root()
        self.nodes: dict[tuple, Expr] = {}  # hash-consing: one node per structure

    def node(self, cls, *kids: Expr) -> Expr:
        """The one node ``cls(*kids)``, keyed by its interned children's identities."""
        return self.interned((cls, *map(id, kids)), cls, kids)

    def interned(self, key: tuple, cls, args: tuple) -> Expr:
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = cls(*args)
        return got

    def rational(self, q: Fraction) -> Expr:
        return self.interned((RationalConst, q.numerator, q.denominator), RationalConst, (q,))

    def const(self, name: str, value) -> Expr:
        return self.interned((Const, name, value), Const, (name, value))

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
            self.bindings[name_tok.text] = self.const(name_tok.text, value)
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
            acc = self.node(Add if op == "+" else Sub, acc, term)
        return acc

    def _negated(self, e: Expr) -> Expr:
        if isinstance(e, RationalConst):
            return self.rational(-e.value)
        return self.node(Sub, self.rational(Fraction(0)), e)

    def parse_term(self) -> Expr:
        acc = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op_tok = self.next()
            rhs = self.parse_factor()
            if op_tok.text == "*":
                acc = self.node(Mul, acc, rhs)
            else:
                try:
                    inv = self._fold_divisor(rhs, op_tok)
                    if isinstance(acc, RationalConst) and isinstance(inv, RationalConst):
                        check_const_bits(const_bits(acc.value) + const_bits(inv.value))
                        acc = self.rational(acc.value * inv.value)
                    else:
                        acc = self.node(Mul, acc, inv)
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
            return self.rational(inv)
        if isinstance(inv, FieldElement):
            return self.const(inv.field.name, inv)
        return self.const("inv", inv)

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "int":
                self.error("expected a nonnegative integer exponent", t)
            return self.interned((Pow, id(base), t.value), Pow, (base, t.value))
        return base

    def parse_base(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return self.rational(Fraction(t.value))
        if t.text == self.var:
            return N
        if t.text in ("floor", "frac", "nint", "dist"):
            inner = self.nested(self.parse_expr, self.expect("("))
            return self.node({"floor": Floor, "frac": Frac, "nint": Nint, "dist": Dist}[t.text], inner)
        if t.text == "(":
            return self.nested(self.parse_expr, t)
        if t.kind == "ident":
            if t.text == "theta":
                return self.const("theta", THETA)
            if t.text in self.bindings:
                return self.bindings[t.text]
            self.error(f"unknown identifier {t.text!r}", t)
        if t.kind == "eof":
            self.error("unexpected end of input", t)
        self.error(f"unexpected token {t.text!r}", t)


def parse(text: str) -> Expr:
    """Parse a program (let declarations followed by one expression)."""
    return _Parser(text).parse_program()
