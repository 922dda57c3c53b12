"""Indicators for sets {n : 0 < q(n) < p(n)^b} with b a negative rational.

The rational exponent is cleared to integer powers before canonicalization:
with b = -num/den the condition q < p^b becomes q^den * p^num < 1, both
sides nonnegative, and the strict lower bound 0 < q becomes the complement
of a zero test.  When q is a distance-to-nearest-integer term it enters
only through its square, which stays inside the +, *, floor closure.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionError
from ..gpexpr import (
    Const,
    Dist,
    Expr,
    Mul,
    N,
    Pow,
    Sub,
    canonicalize,
    ind_and,
    ind_not,
    indicator_of_range,
    indicator_of_zero_set,
    nint_expr,
)
from ..realnum import NumberField
from .certificate import Certificate


def small_fp_family(q: Expr, p: Expr, b) -> Expr:
    """Indicator of {n : 0 < q(n) < p(n)^b} as a floor-closure expression.

    ``q`` must be nonnegative-valued and ``p`` positive and unbounded.
    """
    b = Fraction(b)
    if b >= 0:
        raise PreconditionError("exponent must be negative")
    num, den = -b.numerator, b.denominator
    if isinstance(q, Dist):
        # enter through the square: q^(2 den) p^(2 num) < 1
        offset = Sub(q.arg, nint_expr(q.arg))
        y = Mul(Pow(Pow(offset, 2), den), Pow(p, 2 * num))
        positive = ind_not(indicator_of_zero_set(offset))
    else:
        y = Mul(Pow(q, den), Pow(p, num))
        positive = ind_not(indicator_of_zero_set(q))
    in_range = indicator_of_range(y, 0, 1)
    return canonicalize(ind_and(positive, in_range))


def sqrt2_small_dist_certificate() -> Certificate:
    """Certificate for E = {n >= 1 : ||n sqrt(2)|| < 1/sqrt(n)}.

    The indicator tests 0 < ||n sqrt2|| and ||n sqrt2||^4 * n^2 < 1.  Both
    are even in n, so the indicator also holds at -m for every member m; the
    scan proposes n >= 1 only and the indicator decides each of them.
    """
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    return Certificate(
        indicator=small_fp_family(Dist(Mul(N, Const("s", sq2))), N, Fraction(-1, 2)),
        target_description="integers with ||n sqrt(2)|| below 1/sqrt(n)",
        candidates=lambda lo, hi: range(max(lo, 1), hi + 1),
        meta={"construction": "small_fp sqrt2 b=-1/2"},
    )
