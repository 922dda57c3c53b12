"""Computable reals as deterministic nested-interval streams.

A :class:`RefinableReal` wraps a procedure mapping a precision index ``k``
to a rational interval of width at most ``2^-k``.  Queries are cached and
successive answers are intersected, so the stream is deterministic and
nested regardless of the supplied procedure's internal slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from ..errors import DivisionByZero, PrecisionExhausted

Interval = tuple[Fraction, Fraction]

DEFAULT_MAX_BITS = 4096


class RefinableReal:
    def __init__(self, approximant: Callable[[int], Interval], name: str = ""):
        self._approximant = approximant
        self.name = name
        self._best: Interval | None = None
        self._best_k = -1
        self._cache: dict[int, Interval] = {}

    def interval(self, k: int) -> Interval:
        """Nested rational interval of width <= 2^-k."""
        if k in self._cache:
            return self._cache[k]
        if self._best is not None and self._best[1] - self._best[0] <= Fraction(1, 2**k):
            self._cache[k] = self._best
            return self._best
        lo, hi = self._approximant(k)
        if self._best is not None:
            blo, bhi = self._best
            lo, hi = max(lo, blo), min(hi, bhi)
            if lo > hi:
                raise PrecisionExhausted(
                    f"inconsistent refinement of {self.name or 'stream'}", bits=k
                )
        if hi - lo > Fraction(1, 2**k):
            raise PrecisionExhausted(
                f"approximant for {self.name or 'stream'} too wide at k={k}", bits=k
            )
        self._best = (lo, hi)
        self._best_k = k
        self._cache[k] = self._best
        return self._best

    def __repr__(self):
        tag = self.name or "stream"
        if self._best is None:
            return f"RefinableReal({tag})"
        lo, hi = self._best
        return f"RefinableReal({tag} in [{float(lo):.6g}, {float(hi):.6g}])"


def constant(q: Fraction, name: str = "") -> RefinableReal:
    q = Fraction(q)
    return RefinableReal(lambda k: (q, q), name or str(q))


def _mag_bits(x: RefinableReal) -> int:
    lo, hi = x.interval(2)
    m = max(abs(lo), abs(hi))
    return max(1, (m.numerator // m.denominator).bit_length() + 1)


def rr_neg(x: RefinableReal) -> RefinableReal:
    def fn(k: int) -> Interval:
        lo, hi = x.interval(k)
        return -hi, -lo

    return RefinableReal(fn, f"-({x.name})" if x.name else "")


def rr_add(x: RefinableReal, y: RefinableReal) -> RefinableReal:
    def fn(k: int) -> Interval:
        xlo, xhi = x.interval(k + 1)
        ylo, yhi = y.interval(k + 1)
        return xlo + ylo, xhi + yhi

    return RefinableReal(fn)


def rr_mul(x: RefinableReal, y: RefinableReal) -> RefinableReal:
    def fn(k: int) -> Interval:
        extra = _mag_bits(x) + _mag_bits(y) + 2
        xlo, xhi = x.interval(k + extra)
        ylo, yhi = y.interval(k + extra)
        cands = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        return min(cands), max(cands)

    return RefinableReal(fn)


def rr_inv(x: RefinableReal, max_bits: int = DEFAULT_MAX_BITS) -> RefinableReal:
    # find a separation from zero first
    k = 4
    while True:
        lo, hi = x.interval(k)
        if lo > 0 or hi < 0:
            break
        if k > max_bits:
            raise DivisionByZero("cannot separate divisor from zero")
        k *= 2
    sep_bits = k + _mag_bits(x)

    def fn(kk: int) -> Interval:
        lo, hi = x.interval(kk + 2 * sep_bits + 2)
        a, b = 1 / hi, 1 / lo
        return (a, b) if a <= b else (b, a)

    return RefinableReal(fn)


def rr_scale(x: RefinableReal, q: Fraction) -> RefinableReal:
    q = Fraction(q)
    if q == 0:
        return constant(Fraction(0))
    shift = max(1, abs(q.numerator).bit_length() - q.denominator.bit_length() + 2)

    def fn(k: int) -> Interval:
        lo, hi = x.interval(k + shift)
        a, b = lo * q, hi * q
        return (a, b) if a <= b else (b, a)

    return RefinableReal(fn)


def rr_add_rational(x: RefinableReal, q: Fraction) -> RefinableReal:
    q = Fraction(q)

    def fn(k: int) -> Interval:
        lo, hi = x.interval(k)
        return lo + q, hi + q

    return RefinableReal(fn)


def sqrt_interval(lo: Fraction, hi: Fraction, k: int) -> Interval:
    """Enclosure of sqrt over a nonnegative rational interval, width ~2^-k."""
    if lo < 0:
        raise PrecisionExhausted("sqrt of an interval reaching below zero", bits=k)
    scale = 2 ** (2 * k + 2)
    slo = math.isqrt(lo.numerator * scale // lo.denominator)
    nhi = hi.numerator * scale // hi.denominator
    shi = math.isqrt(nhi)
    if shi * shi < nhi:
        shi += 1
    r = 2 ** (k + 1)
    return Fraction(slo, r), Fraction(shi, r)


def rr_sqrt(x: RefinableReal) -> RefinableReal:
    def fn(k: int) -> Interval:
        lo, hi = x.interval(2 * k + 4)
        lo = max(lo, Fraction(0))
        return sqrt_interval(lo, hi, k + 1)

    return RefinableReal(fn, f"sqrt({x.name})" if x.name else "")


def _theta_interval(k: int) -> Interval:
    """Partial sums of sum_{j>=1} 2^-(2^j); tail below the last kept term."""
    total = Fraction(0)
    j = 1
    while 2**j <= k + 2:
        total += Fraction(1, 2 ** (2**j))
        j += 1
    # tail bound: first omitted term is 2^-(2^j) <= 2^-(k+3), tail < twice that
    return total, total + Fraction(1, 2 ** (k + 2))


#: Transcendental surrogate used by the zero-set indicator construction.
#: The doubly exponential binary expansion makes it a Liouville-type number,
#: hence transcendental, so its product with any nonzero algebraic number is
#: irrational.  Multiples m*theta for 0 < |m| < 2^64 stay at distance more
#: than 2^-130 from the integers (the partial sums have odd numerator over a
#: power-of-two denominator), so floor decisions on them resolve quickly.
THETA = RefinableReal(_theta_interval, "theta")
