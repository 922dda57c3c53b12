"""Indicators for sets {n : 0 < q(n) < p(n)^b} with b a negative rational.

The rational exponent is cleared to integer powers: with b = -num/den the
condition q < p^b becomes q^den * p^num < 1, both sides nonnegative, and the
strict lower bound 0 < q becomes the complement of a zero test.  A distance
term q = ||x|| enters as written, since ``dist`` is a primitive of the
language.
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
    ind_and,
    ind_not,
    indicator_of_range,
    indicator_of_zero_set,
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
    y = Mul(Pow(q, den), Pow(p, num))
    return ind_and(ind_not(indicator_of_zero_set(q)), indicator_of_range(y, 0, 1))


def sqrt2_small_dist_certificate() -> Certificate:
    """Certificate for E = {n >= 1 : ||n sqrt(2)|| < 1/sqrt(n)}.

    The indicator tests 0 < ||n sqrt2|| and 0 <= ||n sqrt2||^2 * n < 1, so it
    is 0 at every n <= 0 and the scan needs no proposer.
    """
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    return Certificate(
        indicator=small_fp_family(Dist(Mul(N, Const("s", sq2))), N, Fraction(-1, 2)),
        target_description="integers with ||n sqrt(2)|| below 1/sqrt(n)",
        meta={"construction": "small_fp sqrt2 b=-1/2"},
    )
