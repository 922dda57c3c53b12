"""Continued fractions and best approximations.

``complete_quotients`` is the one walk x_0 = x, a_k = floor(x_k),
x_(k+1) = 1/(x_k - a_k): exact on rationals and field elements, and
decided within ``max_bits`` on streams.  ``cf_expand`` reads a quadratic
irrational's expansion off it, the period ending where a complete quotient
first recurs as an equal field element; ``cf_of_rational`` is Euclid's
algorithm on integers.  ``convergent_walk`` is the one walk over the
convergents of either kind, and ``legendre_candidates`` the one candidate
walk of the small-distance sets over it.  The 1-D best approximations are
the convergent denominators (Lagrange's theorem), each compared exactly
with the last record.  The planar norm is ``|u*x1 + v*x2|`` for a complex
constant ``u`` and real ``v``, evaluated through its exact squared value in
the ground field.  ``nearest_lattice_sq`` is the one computation of the
planar distance N0(q theta): a window derived on integer enclosures, with
exact field comparisons only among the points those enclosures cannot
order.  ``lattice_box_points`` is the one enumerator of the q near a
lattice point, for the planar records and the cubic scan.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import NondegenerateNormRequired, NotFound, PreconditionError
from .realnum import (
    DEFAULT_MAX_BITS,
    FieldElement,
    NumberField,
    Real,
    as_stream,
    compare,
    dist_of,
    dyadic_enclosure,
    fixed_enclosure,
    floor_frac,
    is_exact_zero,
    mul_iv,
    nint_of,
    rinv,
    rmul,
    rpow,
    rr_sqrt,
    rsub,
    scale_iv,
)

#: ``cf_expand`` gives up on a period not found within this many terms
CF_MAX_TERMS = 10_000


@dataclass(frozen=True)
class ContinuedFraction:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    source: object = None

    def __str__(self):
        pre = ";".join(str(a) for a in self.preperiod)
        per = ",".join(str(a) for a in self.period)
        return f"[{pre}; ({per})*]" if per else f"[{pre}]"


@dataclass(frozen=True)
class BestApprox:
    """Best approximation record: q beats every smaller positive integer."""

    q: int
    p: tuple[int, ...]
    value_sq: object  # exact squared distance when available (FieldElement/Fraction)
    value: object  # Real: the distance itself (may be a sqrt stream)


def complete_quotients(x: Real, max_bits: int = DEFAULT_MAX_BITS) -> Iterator[tuple[int, Real]]:
    """(a_k, x_k) for k = 0, 1, ...: x_0 = x, a_k = floor(x_k) and
    x_(k+1) = 1/(x_k - a_k), each x_(k+1) formed only when asked for.

    The walk ends at the first x_k = a_k, which a rational reaches; an
    irrational's walk has no end.
    """
    while True:
        a, f = floor_frac(x, max_bits)
        yield a, x
        if is_exact_zero(f):
            return
        x = rinv(f, max_bits)


def cf_expand(x: FieldElement) -> ContinuedFraction:
    """Exact continued fraction of a real quadratic irrational.

    The complete quotients of a quadratic irrational recur (Lagrange), and
    the period is read off the first that equals an earlier one as a field
    element, so it is exact rather than heuristic.
    """
    if x.field.degree != 2:
        raise PreconditionError("continued fraction expansion needs a quadratic element")
    if x.is_rational():
        raise PreconditionError("continued fraction expansion needs an irrational element")
    terms: list[int] = []
    seen: dict[FieldElement, int] = {}
    for a, xk in complete_quotients(x):
        start = seen.setdefault(xk, len(terms))
        if start < len(terms):
            pre, per = terms[:start], terms[start:]
            if not pre:
                # normalize purely periodic expansions to start with one term
                pre, per = per[:1], per[1:] + per[:1]
            return ContinuedFraction(tuple(pre), tuple(per), x)
        if len(terms) == CF_MAX_TERMS:
            raise PreconditionError(f"period not detected within {CF_MAX_TERMS} terms")
        terms.append(a)


def cf_of_rational(x: Fraction) -> ContinuedFraction:
    """The finite continued fraction of a rational, by Euclid's algorithm.

    ``complete_quotients`` gives the same quotients, but each of its
    ``Fraction`` steps reduces by a gcd: on a 2000-bit rational it takes
    about ten times as long, and a very sparse alpha has a denominator near
    n_last^C.
    """
    terms = []
    num, den = x.numerator, x.denominator
    while den:
        a, r = divmod(num, den)
        terms.append(a)
        num, den = den, r
    return ContinuedFraction(tuple(terms), (), x)


def convergent_walk(cf: ContinuedFraction) -> Iterator[tuple[int, int, int | None]]:
    """(p_k, q_k, a_(k+1)) for k = 0, 1, ...: without end for a periodic
    expansion, and for a finite one up to its last convergent, the value
    itself, where a_(k+1) is None."""
    quotients = itertools.chain(cf.preperiod, itertools.cycle(cf.period))
    p_prev, q_prev = 1, 0
    p, q = next(quotients), 1
    for a in quotients:
        yield p, q, a
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    yield p, q, None

def legendre_candidates(
    cf: ContinuedFraction, lo: int, hi: int, holds: Callable[[int, int, int, int], bool]
) -> Iterator[int]:
    """The points n = g q_k in [lo, hi], g >= 1, with
    ``holds(g, p_k, q_k, a_(k+1))``, over the convergents p_k/q_k of
    x = ``cf.source``: the candidates of a small-distance set.

    Take n >= 1 with |x - p/n| < 1/(2 n^2) for p = nint(n x), and
    g = gcd(p, n).  By Legendre's theorem (Khinchin, *Continued Fractions*,
    Thm 19) p/n reduces to a convergent p_k/q_k, so n = g q_k and
    ||n x|| = g d_k with d_k = |q_k x - p_k|.  The caller writes its set's
    condition on ||n x|| as ``holds``, a bound on g that fails for every g
    past the first that fails it, so the g-loop stops there.  At a
    rational's last convergent, x itself, d_k = 0: its multiples have
    ||n x|| = 0, which the caller's set must exclude, and the walk stops
    there, as it does at the first q_k > hi.
    """
    for p, q, a_next in convergent_walk(cf):
        if q > hi or a_next is None:
            return
        g = max(1, -(-lo // q))
        while g * q <= hi and holds(g, p, q, a_next):
            yield g * q
            g += 1


def convergents(cf: ContinuedFraction, count: int) -> list[tuple[int, int]]:
    """First ``count`` convergents (p_j, q_j); determinant identity holds."""
    if count < 1:
        raise PreconditionError("count must be at least 1")
    out = [(p, q) for p, q, _ in itertools.islice(convergent_walk(cf), count)]
    if len(out) < count:
        raise PreconditionError("finite expansion exhausted")
    return out


def legendre_check(x: Real, m: int, n: int, max_bits: int = DEFAULT_MAX_BITS) -> bool:
    """|x - m/n| <= 1/(2 n^2), decided exactly where the value is exact."""
    if n < 1:
        raise PreconditionError("denominator must be positive")
    if math.gcd(m, n) != 1:
        raise PreconditionError("m and n must be coprime")
    d = rsub(x, Fraction(m, n))
    t = Fraction(1, 2 * n * n)
    return compare(d, t, max_bits) <= 0 and compare(d, -t, max_bits) >= 0


def best_approx_1d(x: Real, Q: int, max_bits: int = DEFAULT_MAX_BITS) -> list[BestApprox]:
    """All best approximations with q <= Q: the records of ||q x||.

    By Lagrange's theorem (Khinchin, *Continued Fractions*, Thms 16-17)
    every record is a convergent denominator q_k, and every q_k with k >= 1
    is a record, so only the q_k <= Q are read, each decided exactly
    (``dist_of``/``compare``) against the last record.  When a_1 = 1,
    q_1 = q_0 = 1 is read once.  No complete quotient past the first with
    q_k > Q is formed, so a stream spends its ``max_bits`` only on
    quotients the answer uses.
    """
    if Q < 1:
        raise PreconditionError("Q must be at least 1")
    out: list[BestApprox] = []
    best: Real | None = None
    q_prev, q = 1, 0  # q_(-2), q_(-1)
    for a, _ in complete_quotients(x, max_bits):
        q_prev, q = q, a * q + q_prev
        if q > Q:
            break
        if q == q_prev:
            continue
        qx = rmul(Fraction(q), x)
        d = dist_of(qx, max_bits)
        if best is None or compare(d, best, max_bits) < 0:
            out.append(BestApprox(q, (nint_of(qx, max_bits),), rpow(d, 2), d))
            best = d
    return out


class RauzyNorm:
    """Planar norm N(x) = |u x1 + v x2| with Im(u) != 0 and real v != 0.

    ``u`` is given by its exact real part and exact squared imaginary part
    in a real number field; ``v`` lies in the same field.  ``norm_sq`` is
    then exact field arithmetic.
    """

    def __init__(self, re_u: FieldElement, im_u_sq: FieldElement, v: FieldElement):
        if im_u_sq.sign() <= 0:
            raise NondegenerateNormRequired("norm needs a nonzero imaginary part")
        if v.is_zero():
            raise NondegenerateNormRequired("norm needs a nonzero coefficient v")
        self.field = re_u.field
        self.re_u = re_u
        self.im_u_sq = im_u_sq
        self.v = v
        self._enclosures: dict[int, tuple] = {}

    @classmethod
    def for_cubic_field(cls, field: NumberField, b: int) -> "RauzyNorm":
        """Norm attached to x^3 - a x^2 - b x - 1: u = alpha + b/beta, v = 1/beta."""
        if field.degree != 3:
            raise PreconditionError("cubic field required")
        beta = field.generator()
        inv_beta = beta.inverse()
        re_alpha = field.complex_pair_real_part()
        im_sq = field.complex_pair_modulus_sq() - re_alpha * re_alpha
        return cls(re_alpha + b * inv_beta, im_sq, inv_beta)

    def enclosures(self, bits: int) -> tuple[int, tuple, tuple, tuple]:
        """``(b, Re(u), v, Im(u)^2)`` in integers at scale 2^b, b the first of
        bits, bits + 64, ... that excludes Im(u)^2 = 0 and v = 0; v > 0 (N is
        unchanged when Re(u) and v both change sign).  Cached per ``bits``."""
        got = self._enclosures.get(bits)
        if got is None:
            b = bits
            while True:
                re, v, im = (dyadic_enclosure(c, b) for c in (self.re_u, self.v, self.im_u_sq))
                if im[0] > 0 and (v[0] > 0 or v[1] < 0):
                    break
                b += 64
            if v[1] < 0:
                re, v = (-re[1], -re[0]), (-v[1], -v[0])
            got = self._enclosures[bits] = (b, re, v, im)
        return got

    @functools.cached_property
    def dual(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        """Re(u)/v, 1/Im(u)^2 and 1/v^2, formed once: with them w^T M^-1 w =
        (w1 - (Re(u)/v) w2)^2 / Im(u)^2 + w2^2 / v^2, M the Gram matrix of N^2."""
        inv_v = self.v.inverse()
        return self.re_u * inv_v, self.im_u_sq.inverse(), inv_v * inv_v

    def norm_sq(self, x1: FieldElement, x2: FieldElement) -> FieldElement:
        re = self.re_u * x1 + self.v * x2
        return re * re + self.im_u_sq * x1 * x1


def nearest_lattice_sq(
    norm: RauzyNorm, theta: tuple[FieldElement, FieldElement], q: int
) -> tuple[FieldElement, tuple[int, int]]:
    """Exact min over p in Z^2 of N(q theta - p)^2, and the p attaining it.

    q theta, Re(u), v and Im(u)^2 are enclosed in integers at scale 2^bits,
    bits >= 64 + q.bit_length(), from the field's dyadic brackets (the
    norm's three through ``RauzyNorm.enclosures``, v > 0).  The point
    p nearest to q theta gives an upper bound U of the minimum, and with
    x = q theta - p every p with N(x)^2 <= U satisfies
    |x1| <= sqrt(U / Im(u)^2) and |v x2 + Re(u) x1| <= sqrt(U).  N(x)^2 is
    enclosed at every p of that window; only the p whose lower bound is at
    most the least upper bound are compared exactly in the field, and a tie
    goes to the least (p1, p2).
    """
    th1, th2 = theta
    bits, re, v, im = norm.enclosures(64 + q.bit_length())
    t1 = scale_iv(q, dyadic_enclosure(th1, bits))
    t2 = scale_iv(q, dyadic_enclosure(th2, bits))
    half = 1 << (bits - 1)

    def row(p1: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Enclosures of Re(u) x1 and Im(u)^2 x1^2."""
        x1 = (t1[0] - (p1 << bits), t1[1] - (p1 << bits))
        return mul_iv(re, x1, bits), mul_iv(im, mul_iv(x1, x1, bits), bits)

    def enclose(w: tuple[int, int], i: tuple[int, int], p2: int) -> tuple[int, int]:
        b = mul_iv(v, (t2[0] - (p2 << bits), t2[1] - (p2 << bits)), bits)
        r = (w[0] + b[0], w[1] + b[1])
        r = mul_iv(r, r, bits)
        return r[0] + i[0], r[1] + i[1]

    u_hi = enclose(*row((t1[0] + half) >> bits), (t2[0] + half) >> bits)[1]
    s = math.isqrt(u_hi << bits) + 1  # sqrt(U), scaled
    r1 = math.isqrt((u_hi << (2 * bits)) // im[0]) + 1  # sqrt(U / Im(u)^2), scaled
    cands = []
    for p1 in range(-((r1 - t1[0]) >> bits), ((t1[1] + r1) >> bits) + 1):
        w, i = row(p1)
        # v x2 in [lo, hi], so x2 in [lo, hi] / v, rounded outward
        lo, hi = -s - w[1], s - w[0]
        x2_lo = (lo << bits) // (v[1] if lo >= 0 else v[0])
        x2_hi = -((-hi << bits) // (v[0] if hi >= 0 else v[1]))
        for p2 in range(-((x2_hi - t2[0]) >> bits), ((t2[1] - x2_lo) >> bits) + 1):
            cands.append((enclose(w, i, p2), (p1, p2)))
    least = min(iv[1] for iv, _ in cands)
    y1, y2 = th1 * q, th2 * q
    best = best_p = None
    for iv, p in cands:
        if iv[0] <= least:
            val = norm.norm_sq(y1 - p[0], y2 - p[1])
            if best is None or val.compare(best) < 0:
                best, best_p = val, p
    return best, best_p


def _inverse_rows(m: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
    """Rows of m^-1 for an integer 3x3 matrix m of determinant +-1 (the adjugate)."""
    (a, b, c), (d, e, f), (g, h, k) = m
    adj = (
        (e * k - f * h, c * h - b * k, b * f - c * e),
        (f * g - d * k, a * k - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if abs(det) != 1:
        raise PreconditionError(f"shift basis has determinant {det}, not +-1")
    return [tuple(det * x for x in row) for row in adj]


def lattice_box_points(
    theta: tuple[FieldElement, FieldElement], norm: RauzyNorm, lo: int, hi: int, bits: int,
    radius: Callable[[int], int],
) -> Iterator[int]:
    """The q in [lo, hi] that may lie within the caller's radius of a
    lattice point, increasing and each once: every q < max(R_2, 2), then
    the first coordinates of the box points of each slab [R_i, R_(i+1)].

    theta = (1/beta, 1/beta^2), beta generating x^3 - a x^2 - b x - 1, and
    R_i = a R_(i-1) + b R_(i-2) + R_(i-3) from R_-2 = R_-1 = 0, R_0 = 1 must
    not decrease from i = 2 (it then grows: the minimal polynomial has no
    root 1).  A slab part [q_a, q_b] is enumerated once the caller has taken
    every point before it, reading r_hi = ``radius(q_a)`` then: r_hi 2^-bits
    must bound N(q theta - p)^2 at every (q, p) the caller needs from it.

    Completeness: with x = (q, p1, p2) and y = q theta - (p1, p2),
    N(y)^2 = y^T M y for the norm's Gram matrix M.  A_i = C^i A_0, with the
    columns (R_j, R_(j-1), R_(j-2)), j = i..i+2 (C the companion matrix, A_0
    unipotent; |det A_i| = 1 is checked), gives x = A_i c with c in Z^3,
    and row w_j of A_i^-1 gives c_j = q w_j . (1, theta) - w'_j . y, w'_j
    its last two entries, with |w'_j . y|^2 <= r w'_j^T M^-1 w'_j by
    Cauchy-Schwarz.  A_i only changes coordinates: completeness rests on
    these bounds, taken on integer enclosures rounded outward, not on which
    q the R_i are.  At 64 + 2 hi.bit_length() bits q w_j . (1, theta) stays
    well within one unit, as |w_j| grows like q^(1/2); a box that grew
    would be cut by Fincke-Pohst enumeration (Math. Comp. 44, 1985).
    """
    fld = theta[0].field if isinstance(theta[0], FieldElement) else None
    if not (fld and fld.degree == 3 and fld.minpoly[0] == -1 and theta[0] * fld.generator() == 1
            and theta[1] == theta[0] * theta[0]):
        raise PreconditionError("theta is not (1/beta, 1/beta^2) for a cubic unit beta")
    a, b = -fld.minpoly[2], -fld.minpoly[1]
    R = [0, 0, 1, a, a * a + b]  # R[j + 2] = R_j
    while R[-3] <= hi:
        R.append(a * R[-1] + b * R[-2] + R[-3])
        if R[-1] < R[-2]:
            raise PreconditionError(f"x^3 - {a}x^2 - {b}x - 1: recurrence terms decrease")
    last = min(hi, max(R[4], 2) - 1)  # q = 1 is taken before a radius is read
    yield from range(lo, last + 1)
    ib, ib2, re_v, inv_im, inv_v_sq = (fixed_enclosure(c, bits) for c in theta + norm.dual)

    def up(x: int) -> int:
        return -((-x) >> bits)

    for i in range(2, len(R) - 4):
        qa, qb = max(R[i + 2], lo), min(R[i + 3], hi)
        first = max(qa, last + 1)
        if first > qb:
            continue
        # A_i has the columns v_j = (R_j, R_(j-1), R_(j-2)), j = i, i+1, i+2
        a_rows = (R[i + 2 : i + 5], R[i + 1 : i + 4], R[i : i + 3])
        r_hi = radius(qa)
        ranges = []
        for e0, e1, e2 in _inverse_rows(a_rows):
            s1, s2 = scale_iv(e1, ib), scale_iv(e2, ib2)
            s = ((e0 << bits) + s1[0] + s2[0], (e0 << bits) + s1[1] + s2[1])
            d = scale_iv(e2, re_v)
            d = max(abs((e1 << bits) - d[0]), abs((e1 << bits) - d[1]))
            quad = up(up(d * d) * inv_im[1]) + e2 * e2 * inv_v_sq[1]
            rho = math.isqrt(up(r_hi * quad) << bits) + 1
            c_lo = -((rho - min(qa * s[0], qb * s[0])) >> bits)
            ranges.append(range(c_lo, ((max(qa * s[1], qb * s[1]) + rho) >> bits) + 1))
        qs = {sum(r * c for r, c in zip(a_rows[0], cs)) for cs in itertools.product(*ranges)}
        yield from sorted(q for q in qs if first <= q <= qb)
        last = qb


def best_approx_2d(
    theta: tuple[FieldElement, FieldElement],
    norm: RauzyNorm,
    Q: int,
) -> list[BestApprox]:
    """Best approximations of theta = (1/beta, 1/beta^2), beta a cubic unit,
    under ``norm``, q <= Q.  The record after q_k is the least q > q_k with
    N0(q theta)^2 below q_k's, so every record is a point of
    ``lattice_box_points`` with the current record's upper bound as radius
    (the proof is there), decided once, exactly, by ``nearest_lattice_sq``.
    """
    if Q < 1:
        raise PreconditionError("Q must be at least 1")
    bits = 64 + 2 * Q.bit_length()
    out: list[BestApprox] = []

    def radius(q_a: int) -> int:
        return fixed_enclosure(out[-1].value_sq, bits)[1]

    for q in lattice_box_points(theta, norm, 1, Q, bits, radius):
        n0_sq, p = nearest_lattice_sq(norm, theta, q)
        if not out or n0_sq.compare(out[-1].value_sq) < 0:
            out.append(BestApprox(q, p, n0_sq, rr_sqrt(as_stream(n0_sq))))
    return out


def coprime_in_interval(start, length, q: int) -> int:
    """Least integer n in [start, start+length) with gcd(n, q) = 1."""
    if q < 1:
        raise PreconditionError("q must be a positive integer")
    start = Fraction(start)
    length = Fraction(length)
    n = math.ceil(start)
    end = start + length
    while Fraction(n) < end:
        if math.gcd(n, q) == 1:
            return n
        n += 1
    raise NotFound(f"no integer coprime to {q} in [{start}, {end})")
