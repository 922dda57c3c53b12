"""Indicator constructions and canonical forms.

The closure operations are addition, multiplication and floor; ``frac``,
``nint`` and even powers of ``dist`` rewrite into that closure.  Membership
predicates are built from two primitives:

* zero test: ``[h = 0]`` is ``floor(1 - frac(theta * h))`` for a constant
  ``theta`` chosen so ``theta*h(n)`` is irrational whenever ``h(n) != 0``.
  When h is a floor, an integer, irrationality of ``theta`` suffices; the
  built-in ``theta`` is irrational because its binary expansion is not
  periodic.  Only a zero test on any other h (``small_fp_family``'s
  ``[q = 0]``) rests on ``theta`` being transcendental, which suffices for
  h with algebraic constants;
* half-open range: ``[a <= h < b]`` rescales to ``[0, 1)`` and zero-tests
  the floor.

Strict threshold predicates on the distance-to-nearest-integer rewrite to
the union of two fractional-part ranges (sum minus product), which keeps
exported certificates inside the closure.  The evaluator compiles each
range test and each distance threshold to one op (see
:mod:`gplab.gpexpr.evaluate`); the trees keep the forms written here.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionError
from ..realnum import THETA
from .ast import (
    Add,
    Const,
    Dist,
    Expr,
    Floor,
    Frac,
    Mul,
    Nint,
    Pow,
    RationalConst,
    Sub,
    map_tree,
    walk,
    with_children,
)


def canonicalize(e: Expr) -> Expr:
    """Rewrite frac/nint (and even powers of dist) into floor-only form.

    A bare ``dist`` node is left in place: it is in the closure, as
    ||x|| = {x} + floor(2{x})(1 - 2{x}), but it is also a primitive of the
    language, which both evaluators read directly.
    """

    def rewrite(node: Expr, kids: tuple) -> Expr:
        if isinstance(node, Frac):
            return frac_expr(kids[0])
        if isinstance(node, Nint):
            return nint_expr(kids[0])
        if isinstance(node, Pow) and isinstance(kids[0], Dist) and node.exponent % 2 == 0:
            inner = kids[0].arg
            return Pow(Sub(inner, nint_expr(inner)), node.exponent)
        return with_children(node, kids)

    return map_tree(e, rewrite)


def is_floor_only(e: Expr) -> bool:
    return not any(isinstance(node, (Frac, Nint, Dist)) for node in walk(e))


def frac_expr(e: Expr) -> Expr:
    return Sub(e, Floor(e))


def nint_expr(e: Expr) -> Expr:
    return Floor(Add(e, RationalConst(Fraction(1, 2))))


def indicator_of_zero_set(h: Expr) -> Expr:
    """Indicator of {n : h(n) = 0}, assuming theta*h(n) irrational off zeros."""
    return Floor(Sub(RationalConst(Fraction(1)), frac_expr(Mul(Const("theta", THETA), h))))


def indicator_of_range(h: Expr, a, b) -> Expr:
    """Indicator of {n : a <= h(n) < b} for rationals a < b."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise PreconditionError(f"empty range [{a}, {b})")
    scaled = Mul(Sub(h, RationalConst(a)), RationalConst(1 / (b - a)))
    return indicator_of_zero_set(Floor(scaled))


def ind_not(p: Expr) -> Expr:
    return Sub(RationalConst(Fraction(1)), p)


def ind_and(p: Expr, q: Expr) -> Expr:
    return Mul(p, q)


def ind_or(p: Expr, q: Expr) -> Expr:
    return Sub(Add(p, q), Mul(p, q))


def dist_lt_scaled(e: Expr, scale: Expr) -> Expr:
    """Indicator of {n : scale(n) * ||e(n)|| < 1} for scale(n) >= 0.

    Equivalent to ``||e|| < 1/scale`` where scale is positive; both branches
    ``scale*{e} < 1`` and ``scale*(1-{e}) < 1`` are half-open ranges since
    the scaled quantities are nonnegative.
    """
    f = frac_expr(e)
    a = indicator_of_range(Mul(scale, f), 0, 1)
    b = indicator_of_range(Mul(scale, Sub(RationalConst(Fraction(1)), f)), 0, 1)
    return ind_or(a, b)


def dist_lt_const(e: Expr, t) -> Expr:
    """Indicator of {n : ||e(n)|| < t} for a rational threshold t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise PreconditionError("threshold must be positive")
    return dist_lt_scaled(e, RationalConst(1 / t))
