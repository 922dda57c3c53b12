"""Computable reals as deterministic nested enclosure streams.

A :class:`RefinableReal` wraps a procedure mapping a precision ``bits`` to
integers ``lo <= x * 2^bits <= hi`` with ``hi - lo <= 2``: the contract of
field elements' :func:`~gplab.realnum.field.dyadic_enclosure` and of
:func:`~gplab.realnum.fixed_enclosure`, so streams, field elements and the
prefilters share one integer enclosure protocol (Moore, *Interval
Analysis*, 1966).  Queries are cached: a query finer than every cached
answer calls the procedure and intersects with the finest answer, and any
other query rounds the cached answer at the fewest bits above it, which
contains every finer answer.  So the stream is deterministic and nested
regardless of the supplied procedure's internal slack.  Stream arithmetic
is integer arithmetic; a rational enters it as :func:`constant`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from ..errors import DivisionByZero, PrecisionExhausted, PreconditionError
from .fixed import mul_iv

Interval = tuple[int, int]

DEFAULT_MAX_BITS = 4096


class RefinableReal:
    """A stream.  Its name, for messages, is a string or a function that
    makes one, called the first time the name is read."""

    def __init__(self, approximant: Callable[[int], Interval], name: str | Callable[[], str] = ""):
        self._approximant = approximant
        self._name = name
        self._best: tuple[int, int, int] | None = None  # (bits, lo, hi): the finest answer
        self._cache: dict[int, Interval] = {}

    @property
    def name(self) -> str:
        name = self._name
        if not isinstance(name, str):
            name = self._name = name()
        return name

    def interval(self, bits: int) -> Interval:
        """Integers ``lo <= x * 2^bits <= hi`` with ``hi - lo <= 2``, nested across ``bits``."""
        iv = self._cache.get(bits)
        if iv is not None:
            return iv
        best = self._best
        if best is not None and best[0] > bits:
            # the next finer answer rounded outward, at most 2 wide: it holds
            # every finer answer and lies in every coarser one, whose ends
            # are on this grid
            c = min(b for b in self._cache if b > bits)
            lo, hi = self._cache[c]
            iv = lo >> (c - bits), -(-hi >> (c - bits))
        else:
            lo, hi = self._approximant(bits)
            if best is not None:
                d = bits - best[0]
                lo, hi = max(lo, best[1] << d), min(hi, best[2] << d)
                if lo > hi:
                    raise PrecisionExhausted(
                        f"inconsistent refinement of {self.name or 'stream'}", bits=bits
                    )
            if hi - lo > 2:
                raise PrecisionExhausted(
                    f"approximant for {self.name or 'stream'} too wide at bits={bits}", bits=bits
                )
            self._best = (bits, lo, hi)
            iv = (lo, hi)
        self._cache[bits] = iv
        return iv

    def __repr__(self):
        tag = self.name or "stream"
        if self._best is None:
            return f"RefinableReal({tag})"
        bits, lo, hi = self._best
        return f"RefinableReal({tag} in [{lo / (1 << bits):.6g}, {hi / (1 << bits):.6g}])"


def _shown(v: int | Fraction) -> str:
    """A rational for a message; one past 256 bits by its size, since
    Python will not print an integer of more than 4300 digits."""
    v = Fraction(v)
    num, den = v.numerator.bit_length(), v.denominator.bit_length()
    if max(num, den) <= 256:
        return str(v)
    return f"a {num}-bit integer" if den == 1 else f"a {num}-bit / {den}-bit fraction"


def constant(q: Fraction, name: str = "") -> RefinableReal:
    """The stream of a rational, named by ``_shown(q)`` only if the name is read."""
    q = Fraction(q)
    p, d = q.numerator, q.denominator
    return RefinableReal(
        lambda bits: ((p << bits) // d, -((-p << bits) // d)), name or (lambda: _shown(q))
    )


def _mag_bits(x: RefinableReal) -> int:
    """``m`` with ``2^m`` above every endpoint of ``x``: all answers nest in the 0-bit one."""
    lo, hi = x.interval(0)
    return max(abs(lo), abs(hi)).bit_length()


def rr_neg(x: RefinableReal) -> RefinableReal:
    def fn(bits: int) -> Interval:
        lo, hi = x.interval(bits)
        return -hi, -lo

    return RefinableReal(fn, lambda: f"-({x.name})" if x.name else "")


def rr_add(x: RefinableReal, y: RefinableReal) -> RefinableReal:
    def fn(bits: int) -> Interval:
        # two answers at most 2 wide at bits + 2 sum to at most 1 at bits
        xlo, xhi = x.interval(bits + 2)
        ylo, yhi = y.interval(bits + 2)
        return (xlo + ylo) >> 2, -((-xhi - yhi) >> 2)

    return RefinableReal(fn)


def rr_mul(x: RefinableReal, y: RefinableReal) -> RefinableReal:
    def fn(bits: int) -> Interval:
        # at p = bits + e both endpoints bound below 2^(m+p) and both answers
        # are at most 2 wide, so the product is at most 2^(m+p+2) wide on the
        # 2^-2p grid: at most 2^(m+2-e) = 1 on the 2^-bits grid
        e = max(_mag_bits(x), _mag_bits(y)) + 2
        p = bits + e
        return mul_iv(x.interval(p), y.interval(p), p + e)

    return RefinableReal(fn)


def _ladder(max_bits: int) -> Iterator[int]:
    """The precisions a stream is read at: 4, 8, 16, ... below ``max_bits``,
    then ``max_bits`` itself, so the whole budget is spent."""
    k = 4
    while k < max_bits:
        yield k
        k *= 2
    if max_bits > 0:
        yield max_bits


def rr_inv(x: RefinableReal, max_bits: int = DEFAULT_MAX_BITS) -> RefinableReal:
    """1/x, once x is separated from zero within ``max_bits``.

    Raises ``DivisionByZero`` where an answer is exactly ``(0, 0)`` (x is
    0), and ``PrecisionExhausted`` where x stays undecided on the budget.
    """
    for k in _ladder(max_bits):
        lo, hi = x.interval(k)
        if lo > 0 or hi < 0:
            break  # |x| >= 2^-k
        if lo == hi:
            raise DivisionByZero(f"division by {x.name or 'a stream'}, exactly 0")
    else:
        raise PrecisionExhausted("cannot separate divisor from zero within budget", bits=max_bits)
    negative = hi < 0

    def fn(bits: int) -> Interval:
        # 2^bits / x lies in [2^(bits+c) / hi, 2^(bits+c) / lo] for the answer
        # at c; with lo >= 2^(c-k) that is at most 2^(bits-c+2k+1) = 1 wide
        c = bits + 2 * k + 1
        lo, hi = x.interval(c)
        if negative:
            lo, hi = -hi, -lo
        one = 1 << (bits + c)
        a, b = one // hi, -(-one // lo)
        return (-b, -a) if negative else (a, b)

    return RefinableReal(fn)


def _isqrt_iv(lo: int, hi: int) -> Interval:
    """``(floor(sqrt(lo)), ceil(sqrt(hi)))`` for integers ``0 <= lo <= hi``."""
    r = math.isqrt(hi)
    return math.isqrt(lo), r + (r * r < hi)


def rr_sqrt(x: RefinableReal) -> RefinableReal:
    def fn(bits: int) -> Interval:
        # sqrt(x) * 2^bits = sqrt(x * 4^bits); a 2-wide radicand gives a root
        # interval under sqrt(2) wide, so its floor and ceiling are at most 2 apart
        lo, hi = x.interval(2 * bits)
        if hi < 0:
            raise PreconditionError(f"sqrt of a negative value {x!r}")
        return _isqrt_iv(max(lo, 0), hi)

    return RefinableReal(fn, lambda: f"sqrt({x.name})" if x.name else "")


def _theta_interval(bits: int) -> Interval:
    """Partial sums of sum_{j>=1} 2^-(2^j), scaled by 2^bits, over the terms with
    2^j <= bits: exact integers.  The omitted tail is positive and below twice
    its first term 2^(bits - 2^j) <= 1/2."""
    total = 0
    j = 1
    while 2**j <= bits:
        total += 1 << (bits - 2**j)
        j += 1
    return total, total + 1


#: Transcendental surrogate used by the zero-set indicator construction.
#: The doubly exponential binary expansion makes it a Liouville-type number,
#: hence transcendental, so its product with any nonzero algebraic number is
#: irrational.  Multiples m*theta for 0 < |m| < 2^64 stay at distance more
#: than 2^-130 from the integers (the partial sums have odd numerator over a
#: power-of-two denominator), so floor decisions on them resolve quickly.
THETA = RefinableReal(_theta_interval, "theta")
