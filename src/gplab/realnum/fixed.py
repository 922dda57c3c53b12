"""Integer fixed-point enclosures: the one prefilter layer.

A real ``x`` is enclosed at ``bits`` as integers ``lo <= x * 2^bits <= hi``.
Sums, products and integer multiples of enclosures are plain integer
operations, and the interval kernels below take floors and distances to the
nearest integer of them.  A floor that an enclosure straddles raises
:class:`NeedBits`, so every answer these kernels give is certified; callers
either retry at more bits (the dyadic evaluator of compiled programs) or
fall back to exact arithmetic (the growth scans).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .field import FieldElement, dyadic_enclosure

if TYPE_CHECKING:
    from .value import Real

#: guard bits a prefilter keeps beyond the integer bits of its range
PREFILTER_BITS = 64


class NeedBits(Exception):
    """A floor/nint decision is ambiguous at the current precision."""


def prefilter_bits(range_bits: int, max_bits: int) -> int:
    """Precision of a scan prefilter: guard bits plus ``range_bits``.

    Never more than the caller's budget ``max_bits`` (and at least 1), so a
    prefilter never settles a point with more precision than the exact
    path it stands in front of may use.
    """
    return max(1, min(max_bits, PREFILTER_BITS + range_bits))


def fixed_enclosure(value: Real, bits: int) -> tuple[int, int]:
    """Integers ``lo <= value * 2^bits <= hi`` with ``hi - lo <= 2``.

    Rationals are rounded outward, field elements are read at ``bits + 2``
    through the field's certified root bracket and rounded outward, and
    streams answer at ``bits`` directly, under this same contract.
    """
    t = type(value)
    if t is Fraction:
        p, q = value.numerator, value.denominator
        return (p << bits) // q, -((-p << bits) // q)
    if t is FieldElement:
        lo, hi = dyadic_enclosure(value, bits + 2)
        return lo >> 2, -((-hi) >> 2)
    return value.interval(bits)


def scale_iv(k: int, v: tuple[int, int]) -> tuple[int, int]:
    """Enclosure of ``k * x`` from one of ``x``, for an integer k: exact."""
    return (k * v[0], k * v[1]) if k >= 0 else (k * v[1], k * v[0])


def mul_iv(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    """Enclosure of ``x * y`` at ``bits`` from enclosures of x and y, rounded outward."""
    al, ah = a
    bl, bh = b
    if al >= 0 and bl >= 0:
        lo, hi = al * bl, ah * bh
    else:
        p1, p2, p3, p4 = al * bl, al * bh, ah * bl, ah * bh
        lo = min(p1, p2, p3, p4)
        hi = max(p1, p2, p3, p4)
    return lo >> bits, -((-hi) >> bits)


def floor_iv(v: tuple[int, int], bits: int) -> int:
    """floor(x) for x in ``v * 2^-bits``; raises NeedBits if v straddles it."""
    flo = v[0] >> bits
    fhi = v[1] >> bits
    if flo != fhi:
        raise NeedBits
    return flo


def dist_iv(a: tuple[int, int], bits: int) -> tuple[int, int]:
    """Enclosure of ||x||, the distance to the nearest integer, at ``bits``."""
    f = floor_iv(a, bits) << bits
    flo, fhi = a[0] - f, a[1] - f
    one = 1 << bits
    half = 1 << (bits - 1)
    if fhi <= half:
        return flo, fhi
    if flo >= half:
        return one - fhi, one - flo
    return min(flo, one - fhi), half
