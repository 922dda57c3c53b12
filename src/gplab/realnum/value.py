"""Unified operations on real values.

A real value is one of: an exact rational (``Fraction``), an exact element
of a degree-2/3 real number field (``FieldElement``), or a computable real
given by a nested integer enclosure stream (``RefinableReal``).  Two
rationals, or elements of one field (a rational embeds in every field),
combine with the values' own operators and stay exact; a stream operand or
elements of two fields degrade to streams, which read a field element
through its dyadic enclosure and a rational as a constant stream.
Comparisons and integer-part operations on exact values are decided
exactly; on streams they refine until decided or the precision budget
``max_bits`` runs out, in which case
:class:`~gplab.errors.PrecisionExhausted` is raised.  Rational intervals
(``interval_of``, ``to_float``) are only for printing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

from ..errors import DivisionByZero, PrecisionExhausted
from .field import FieldElement, dyadic_enclosure
from .refine import (
    DEFAULT_MAX_BITS,
    RefinableReal,
    constant,
    rr_add,
    rr_inv,
    rr_mul,
    rr_neg,
)

Real = Union[Fraction, FieldElement, RefinableReal]


def as_stream(x: Real) -> RefinableReal:
    t = type(x)
    if t is Fraction:
        return constant(x)
    if t is FieldElement:
        return RefinableReal(lambda bits: dyadic_enclosure(x, bits), repr(x))
    return x


def interval_of(x: Real, k: int) -> tuple[Fraction, Fraction]:
    """A rational interval of width at most ``2^-k`` around ``x``, for printing.

    An irrational field element is read at ``k + 1`` bits and a stream at
    ``k + 2``; each enclosure is at most two grid units wide.
    """
    t = type(x)
    if t is Fraction:
        return x, x
    if t is FieldElement:
        if x.is_rational():
            q = x.as_rational()
            return q, q
        bits = k + 1
        lo, hi = dyadic_enclosure(x, bits)
    else:
        bits = k + 2
        lo, hi = x.interval(bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def is_exact_zero(x: Real) -> bool:
    t = type(x)
    if t is Fraction:
        return not x
    if t is FieldElement:
        return x.is_zero()
    return False


def _exact_pair(a: Real, b: Real) -> bool:
    """Whether the values' own operators apply: both rational, or elements of
    one field (a rational operand embeds in the other's field)."""
    ta, tb = type(a), type(b)
    if ta is Fraction:
        return tb is Fraction or tb is FieldElement
    if ta is FieldElement:
        return tb is Fraction or (tb is FieldElement and a._same_field(b))
    return False


def radd(a: Real, b: Real) -> Real:
    if _exact_pair(a, b):
        return a + b
    return rr_add(as_stream(a), as_stream(b))


def rneg(a: Real) -> Real:
    if type(a) is RefinableReal:
        return rr_neg(a)
    return -a


def rsub(a: Real, b: Real) -> Real:
    if _exact_pair(a, b):
        return a - b
    return radd(a, rneg(b))


def rmul(a: Real, b: Real) -> Real:
    if _exact_pair(a, b):
        return a * b
    if is_exact_zero(a) or is_exact_zero(b):
        return Fraction(0)
    return rr_mul(as_stream(a), as_stream(b))


def rinv(a: Real, max_bits: int = DEFAULT_MAX_BITS) -> Real:
    if is_exact_zero(a):
        raise DivisionByZero("division by exact zero")
    t = type(a)
    if t is Fraction:
        return 1 / a
    if t is FieldElement:
        return a.inverse()
    return rr_inv(a, max_bits)


def rpow(a: Real, e: int) -> Real:
    if (type(a) is Fraction or type(a) is FieldElement) and not is_exact_zero(a):
        return a**e
    if e < 0:
        return rpow(rinv(a), -e)
    out: Real = Fraction(1)
    base = a
    while e:
        if e & 1:
            out = rmul(out, base)
        base = rmul(base, base)
        e >>= 1
    return out


def _ladder(max_bits: int) -> Iterator[int]:
    """The precisions a stream is read at: 4, 8, 16, ... below ``max_bits``,
    then ``max_bits`` itself, so the whole budget is spent."""
    k = 4
    while k < max_bits:
        yield k
        k *= 2
    if max_bits > 0:
        yield max_bits


def sign_of(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> int:
    t = type(x)
    if t is Fraction:
        return (x > 0) - (x < 0)
    if t is FieldElement:
        return x.sign()
    for k in _ladder(max_bits):
        lo, hi = x.interval(k)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            return 0  # 0 <= x * 2^k <= 0
    raise PrecisionExhausted("sign undecided within budget", bits=max_bits)


def compare(a: Real, b: Real, max_bits: int = DEFAULT_MAX_BITS) -> int:
    return sign_of(rsub(a, b), max_bits)


def floor_frac(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, Real]:
    """(floor(x), {x}) with 0 <= {x} < 1 and x = floor + frac.

    Exact for rationals and field elements.  For streams the floor is
    decided by refinement; an interval that keeps straddling an integer up
    to the budget raises ``PrecisionExhausted`` (possible exact boundary).
    """
    t = type(x)
    if t is Fraction:
        m = x.numerator // x.denominator
        return m, x - m
    if t is FieldElement:
        m = x.floor()
        return m, x - m
    for k in _ladder(max_bits):
        lo, hi = x.interval(k)
        flo = lo >> k
        if flo == hi >> k:
            return flo, radd(x, Fraction(-flo))
    raise PrecisionExhausted("floor straddles an integer within budget", bits=max_bits)


def nint_of(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> int:
    m, _ = floor_frac(radd(x, Fraction(1, 2)), max_bits)
    return m


def frac_of(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> Real:
    return floor_frac(x, max_bits)[1]


def dist_of(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> Real:
    """Distance to the nearest integer: min({x}, 1 - {x})."""
    f = frac_of(x, max_bits)
    g = rsub(Fraction(1), f)
    return f if compare(f, g, max_bits) <= 0 else g


def to_float(x: Real, bits: int = 80) -> float:
    """The nearest float to an enclosure's midpoint; +-inf past the float range."""
    lo, hi = interval_of(x, bits)
    mid = (lo + hi) / 2
    try:
        return float(mid)
    except OverflowError:
        return math.inf if mid > 0 else -math.inf
