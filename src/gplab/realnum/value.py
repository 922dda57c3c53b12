"""Unified operations on real values.

A real value is one of: an exact rational (``Fraction``), an exact element
of a degree-2/3 real number field (``FieldElement``), or a computable real
given by a nested-interval stream (``RefinableReal``).  Two rationals, or
elements of one field (a rational embeds in every field), combine with the
values' own operators and stay exact; a stream operand or elements of two
fields degrade to interval streams.  Comparisons and
integer-part operations on exact values are decided exactly; on streams
they refine until decided or the precision budget ``max_bits`` runs out,
in which case :class:`~gplab.errors.PrecisionExhausted` is raised.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..errors import DivisionByZero, PrecisionExhausted
from .field import FieldElement
from .refine import (
    DEFAULT_MAX_BITS,
    RefinableReal,
    constant,
    rr_add,
    rr_add_rational,
    rr_inv,
    rr_mul,
    rr_neg,
    rr_scale,
)

Real = Union[Fraction, FieldElement, RefinableReal]


def as_stream(x: Real) -> RefinableReal:
    if isinstance(x, RefinableReal):
        return x
    if isinstance(x, Fraction):
        return constant(x)
    return RefinableReal(lambda k: x.enclosure(Fraction(1, 2**k)), repr(x))


def interval_of(x: Real, k: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, Fraction):
        return x, x
    if isinstance(x, FieldElement):
        return x.enclosure(Fraction(1, 2**k))
    return x.interval(k)


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
    if isinstance(a, Fraction):
        return rr_add_rational(as_stream(b), a)
    if isinstance(b, Fraction):
        return rr_add_rational(as_stream(a), b)
    return rr_add(as_stream(a), as_stream(b))


def rneg(a: Real) -> Real:
    if isinstance(a, RefinableReal):
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
    if isinstance(a, Fraction):
        return rr_scale(as_stream(b), a)
    if isinstance(b, Fraction):
        return rr_scale(as_stream(a), b)
    return rr_mul(as_stream(a), as_stream(b))


def rinv(a: Real, max_bits: int = DEFAULT_MAX_BITS) -> Real:
    if is_exact_zero(a):
        raise DivisionByZero("division by exact zero")
    if isinstance(a, Fraction):
        return 1 / a
    if isinstance(a, FieldElement):
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


def sign_of(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> int:
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if isinstance(x, FieldElement):
        return x.sign()
    k = 4
    while k <= max_bits:
        lo, hi = x.interval(k)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            return 0  # the stream collapsed to an exact point
        k *= 2
    raise PrecisionExhausted("sign undecided within budget", bits=max_bits)


def compare(a: Real, b: Real, max_bits: int = DEFAULT_MAX_BITS) -> int:
    return sign_of(rsub(a, b), max_bits)


def floor_frac(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> tuple[int, Real]:
    """(floor(x), {x}) with 0 <= {x} < 1 and x = floor + frac.

    Exact for rationals and field elements.  For streams the floor is
    decided by refinement; an interval that keeps straddling an integer up
    to the budget raises ``PrecisionExhausted`` (possible exact boundary).
    """
    if isinstance(x, Fraction):
        m = x.numerator // x.denominator
        return m, x - m
    if isinstance(x, FieldElement):
        m = x.floor()
        return m, x - m
    k = 4
    while k <= max_bits:
        lo, hi = x.interval(k)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo, rr_add_rational(x, Fraction(-flo))
        k *= 2
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
    lo, hi = interval_of(x, bits)
    return float((lo + hi) / 2)
