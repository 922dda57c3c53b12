"""Dense univariate polynomial helpers over the integers.

Coefficients are stored low degree first, e.g. ``x^2 - x - 1`` is
``(-1, -1, 1)``.  This module is the one home of integer-polynomial
arithmetic: the root isolation and refinement of the number fields, the
expansion of ``root()`` polynomials by the expression parser and the
dominant-root data of recurrences all use it.  Real roots are counted with
a Sturm chain of integer pseudo-remainders (Cohen, GTM 138, 3.1-3.3), each
scaled by a positive factor so the chain keeps its signs, and signs at a
rational ``u/v`` or a dyadic ``x * 2^-g`` come from homogenised integer
Horner evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

Poly = tuple[int, ...]


def poly_trim(coeffs: Sequence[int]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: Sequence[int], b: Sequence[int]) -> Poly:
    return poly_trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def poly_mul(a: Sequence[int], b: Sequence[int]) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_derivative(p: Sequence[int]) -> Poly:
    return tuple(i * c for i, c in enumerate(p))[1:]


def poly_eval(p: Sequence, x):
    """``p(x)`` by Horner's rule, for ``x`` of any ring type (int, Fraction, field element)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def scaled_eval(p: Sequence[int], x: int, g: int) -> int:
    """``2^(g*deg) * p(x / 2^g)``: an integer with the sign of ``p`` at ``x * 2^-g``."""
    deg = len(p) - 1
    acc = 0
    for i in range(deg, -1, -1):
        acc = acc * x + (p[i] << (g * (deg - i)))
    return acc


def poly_sign(p: Sequence[int], x: int | Fraction) -> int:
    """Sign of ``p`` at the rational ``x = u/v``: that of ``v^deg p(u/v)``, as v > 0."""
    u, v = x.numerator, x.denominator
    acc, vk = 0, 1
    for c in reversed(p):
        acc = acc * u + c * vk
        vk *= v
    return (acc > 0) - (acc < 0)


def _primitive(p: Sequence[int]) -> Poly:
    """``p`` trimmed and divided by the gcd of its coefficients (a positive factor)."""
    p = poly_trim(p)
    g = math.gcd(*p) if p else 1
    return tuple(c // g for c in p)


def _neg_prem(a: Poly, b: Poly) -> Poly:
    """A positive multiple of ``-(a mod b)``: the pseudo-remainder of
    ``|lc b|^(deg a - deg b + 1) a`` by ``b``, negated, primitive part."""
    r, m = list(a), abs(b[-1])
    s = 1 if b[-1] > 0 else -1
    for k in range(len(a) - len(b), -1, -1):
        # r <- m r - s lead(r) x^k b cancels the lead, as s * lc(b) = m
        f = s * r.pop()
        r = [c * m for c in r]
        for i, c in enumerate(b[:-1]):
            r[k + i] -= f * c
    return _primitive([-c for c in r])


@lru_cache(maxsize=128)
def _sturm(p: Poly) -> tuple[Poly, ...]:
    """Sturm chain p, p', -rem, ...; its last member is gcd(p, p') up to a positive factor."""
    chain = [_primitive(p), _primitive(poly_derivative(p))]
    while len(chain[-1]) > 1:
        rem = _neg_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return tuple(chain)


def _variations(chain: tuple[Poly, ...], x: int | Fraction | None, at_plus_inf: bool) -> int:
    """Sign changes along ``chain`` at x (``None``: the infinity on the side given)."""
    out, prev = 0, 0
    for q in chain:
        if x is None:
            s = 1 if q[-1] > 0 else -1
            if not at_plus_inf and len(q) % 2 == 0:
                s = -s
        else:
            s = poly_sign(q, x)
        if s:
            out += prev * s < 0
            prev = s
    return out


def count_real_roots(
    p: Sequence[int], lo: int | Fraction | None = None, hi: int | Fraction | None = None
) -> int:
    """Number of distinct real roots of the integer polynomial ``p`` in ``(lo, hi]`` (Sturm).

    ``None`` endpoints mean -inf / +inf.  ``p`` must be squarefree for the
    count to equal the number of roots; irreducible polynomials always are.
    """
    chain = _sturm(tuple(p))
    return _variations(chain, lo, False) - _variations(chain, hi, True)


def is_irreducible_low_degree(int_coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q for monic integer polynomials of degree 2 or 3.

    In these degrees reducibility forces a linear factor, hence an integer
    root dividing the constant term c0, or a repeated factor, which leaves
    a nonconstant last member in the Sturm chain.  A squarefree chain counts
    roots exactly, so bisecting (-|c0| - 1, |c0|] by root counts isolates
    each real root in a unit interval (m, m + 1] in O(log |c0|) counts, and
    only m + 1 is tested.
    """
    cs = tuple(int(c) for c in int_coeffs)
    if len(cs) - 1 not in (2, 3) or cs[-1] != 1:
        raise ValueError("expected a monic integer polynomial of degree 2 or 3")
    chain = _sturm(cs)
    if len(chain[-1]) > 1:
        return False

    def var(x: int) -> int:
        return _variations(chain, x, False)

    bound = abs(cs[0])
    stack = [(-bound - 1, var(-bound - 1), bound, var(bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = var(mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
        elif poly_sign(cs, hi) == 0:
            return False
    return True
