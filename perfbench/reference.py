"""Reference oracles for the benchmark, independent of gplab.

Everything here uses plain integers (``math.isqrt``), ``fractions`` and
``mpmath``; nothing imports gplab, so a check compares the program against
a second computation that shares none of its code.  Real-valued oracles run
mpmath at ``MP_DPS`` decimal digits and refuse to guess: a quantity within
``2**-100`` of the threshold it is compared with is reported as ambiguous.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

MP_DPS = 250
AMBIGUOUS = 2.0**-100
# Two field elements of the small heights used here whose mpmath values
# differ by less than this are the same element (250 digits is ~830 bits).
TIE = 2.0**-400


# ---------------------------------------------------------------------------
# integer recurrences and surds
# ---------------------------------------------------------------------------

FIBONACCI = ((1, 1), (0, 1))
PELL = ((2, 1), (0, 1))
TRIBONACCI = ((1, 1, 1), (1, 1, 2))
CUBIC_2_1 = ((2, 1, 1), (1, 2, 5))


def recurrence_values(coeffs, initial, bound: int) -> list[int]:
    """Sorted distinct values <= bound of x_{i+d} = sum c_j x_{i+d-j}.

    Every recurrence used here has positive coefficients and positive
    terms from index 1 on, so the terms grow and generation stops at the
    first term past the bound.
    """
    window = list(initial)
    out = {t for t in window if t <= bound}
    while True:
        nxt = sum(c * window[-j - 1] for j, c in enumerate(coeffs))
        if nxt > bound:
            return sorted(out)
        out.add(nxt)
        window = window[1:] + [nxt]


def cf_convergents(P: int, D: int, Q: int, qmax: int) -> list[tuple[int, int]]:
    """Convergents (p_k, q_k) of (P + sqrt(D))/Q with q_k <= qmax.

    D is a nonsquare positive integer, Q > 0 divides D - P^2; the integer
    surd recursion keeps every partial quotient exact.
    """
    if (D - P * P) % Q:
        raise ValueError("Q must divide D - P^2")
    root = isqrt(D)
    p0, q0, p1, q1 = 1, 0, 0, 1
    out = []
    while True:
        a = (P + root) // Q
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        if q0 > qmax:
            return out
        out.append((p0, q0))
        P = a * Q - P
        Q = (D - P * P) // Q


def best_approx_records(P: int, D: int, Q: int, qmax: int) -> list[tuple[int, int]]:
    """Records of ||q x|| for q = 1..qmax, as (q, nint(q x)).

    These are the convergents (Lagrange): for a repeated denominator
    q_0 = q_1 = 1 the later convergent is the nearer one.
    """
    out: dict[int, int] = {}
    for p, q in cf_convergents(P, D, Q, qmax):
        out[q] = p
    return sorted(out.items())


def odd_index_denominators(a: int, bound: int) -> list[int]:
    """q_1, q_3, q_5, ... <= bound for the root (a + sqrt(a^2-4))/2, a >= 4."""
    d = a * a - 4
    qs = [q for _, q in cf_convergents(a, d, 2, bound)]
    return sorted(set(qs[1::2]))


def nearest_power_integers(a: int, norm: int, bound: int) -> list[int]:
    """nint(beta^i) <= bound for beta^2 = a*beta - norm, by exact integers.

    beta = (a + sqrt(d))/2 with d = a^2 - 4*norm; (a + sqrt(d))^i = X + Y sqrt(d)
    and nint(beta^i) = floor((2X + 2^i + sqrt(4 Y^2 d)) / 2^(i+1)), where the
    floor of an integer plus an irrational square root only needs isqrt.
    """
    d = a * a - 4 * norm
    X, Y, i = 1, 0, 0
    out = []
    while True:
        v = (2 * X + (1 << i) + isqrt(4 * Y * Y * d)) >> (i + 1)
        if v > bound:
            return out
        out.append(v)
        X, Y, i = a * X + d * Y, X + a * Y, i + 1


def golden_frac_below_half_over_n(n: int) -> bool:
    """{n*phi} < 1/(2n) for n >= 1, phi = (1 + sqrt 5)/2, exactly.

    m = floor(n*phi) = (n + isqrt(5 n^2)) // 2, and the inequality
    n^2 sqrt(5) < 1 + 2nm - n^2 squares to 5 n^4 < (1 + 2nm - n^2)^2.
    """
    m = (n + isqrt(5 * n * n)) // 2
    rhs = 1 + 2 * n * m - n * n
    return rhs > 0 and 5 * n**4 < rhs * rhs


# ---------------------------------------------------------------------------
# finite sums
# ---------------------------------------------------------------------------

def first_ip_witness(members: set[int], r: int, bound: int, shifts=(0,)):
    """Least (shift order, then lexicographic) distinct g_1 < ... < g_r with
    every nonempty subset sum s satisfying s + shift in ``members`` and
    g_1 + ... + g_r <= bound; ``(None, None)`` if there is none.

    Each generator is itself a subset sum, so candidates come from
    ``members - shift`` only.
    """
    for shift in shifts:
        cands = sorted(m - shift for m in members if m - shift >= 1)
        for gens in itertools.combinations(cands, r):
            if sum(gens) > bound:
                continue
            if all(
                sum(g for g, bit in zip(gens, mask) if bit) + shift in members
                for mask in itertools.product((0, 1), repeat=r)
                if any(mask)
            ):
                return gens, shift
    return None, None


# ---------------------------------------------------------------------------
# mpmath oracles
# ---------------------------------------------------------------------------

def _mp():
    import mpmath

    return mpmath


def field_value(x, generator):
    """mpmath value of an exact number given by coordinates in a generator."""
    mp = _mp()
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return mp.mpf(x.numerator) / x.denominator
    total = mp.mpf(0)
    power = mp.mpf(1)
    for c in x.coords:
        total += mp.mpf(c.numerator) / c.denominator * power
        power *= generator
    return total


def _frac(x):
    mp = _mp()
    return x - mp.floor(x)


def heisenberg_count(N: int, c: Fraction):
    """S(N) = #{1 <= n < N : ||n sqrt2 floor(n sqrt3)|| < n^(-c)}.

    Returns ``(count, ambiguous)``: ``ambiguous`` lists the n whose distance
    lies within 2^-100 of the threshold; they are left out of ``count``.
    """
    mp = _mp()
    with mp.workdps(MP_DPS):
        s2, s3 = mp.sqrt(2), mp.sqrt(3)
        count, ambiguous = 0, []
        for n in range(1, N):
            f = _frac(n * s2 * mp.floor(n * s3))
            d = min(f, 1 - f)
            gap = d - mp.power(n, -mp.mpf(c.numerator) / c.denominator)
            if abs(gap) < AMBIGUOUS:
                ambiguous.append(n)
            elif gap < 0:
                count += 1
    return count, ambiguous


def heisenberg_orbit(n: int):
    """({-n sqrt2}, {n sqrt3}, {n sqrt2 floor(n sqrt3)}) and ambiguity flag."""
    mp = _mp()
    with mp.workdps(MP_DPS):
        s2, s3 = mp.sqrt(2), mp.sqrt(3)
        coords = (_frac(-n * s2), _frac(n * s3), _frac(n * s2 * mp.floor(n * s3)))
        ambiguous = any(min(v, 1 - v) < AMBIGUOUS for v in coords)
    return coords, ambiguous


class CubicNorm:
    """Planar data of x^3 - a x^2 - b x - 1 in mpmath.

    theta = (1/beta, 1/beta^2), the norm is |u x1 + v x2| with u = alpha + b/beta
    for the complex root alpha and v = 1/beta.
    """

    def __init__(self, a: int, b: int):
        mp = _mp()
        with mp.workdps(MP_DPS):
            roots = mp.polyroots([1, -a, -b, -1], maxsteps=200, extraprec=4 * MP_DPS)
            self.beta = max((r for r in roots if abs(mp.im(r)) < 1e-100), key=mp.re).real
            alpha = next(r for r in roots if mp.im(r) > 0)
            u = alpha + b / self.beta
            self.re_u, self.im_u = mp.re(u), mp.im(u)
            self.v = 1 / self.beta
            self.th1, self.th2 = 1 / self.beta, 1 / self.beta**2

    def n0_sq(self, q: int):
        """min over integer p of N(q theta - p)^2, by brute force.

        N >= |im_u x1| and N >= v|x2| - |re_u x1| bound the box around the
        nearest lattice point that can hold the minimum.
        """
        mp = _mp()
        with mp.workdps(MP_DPS):
            y1, y2 = q * self.th1, q * self.th2
            c1, c2 = int(mp.nint(y1)), int(mp.nint(y2))
            start = self._norm_sq(y1 - c1, y2 - c2)
            r1 = mp.sqrt(start) / abs(self.im_u)
            best = start
            for p1 in range(int(mp.floor(y1 - r1)), int(mp.ceil(y1 + r1)) + 1):
                x1 = y1 - p1
                r2 = (mp.sqrt(start) + abs(self.re_u * x1)) / self.v
                for p2 in range(int(mp.floor(y2 - r2)), int(mp.ceil(y2 + r2)) + 1):
                    best = min(best, self._norm_sq(x1, y2 - p2))
            return best

    def h_sq(self, q: int):
        """The closed form h(q)^2 of the cubic construction, in mpmath."""
        mp = _mp()
        with mp.workdps(MP_DPS):
            t = q * self.th1 - mp.nint(q * self.th1)
            p2 = mp.nint(self.beta * self.re_u * t + self.th2 * q)
            re = self.re_u * t + (self.th2 * q - p2) * self.th1
            return re * re + self.im_u**2 * t * t

    def _norm_sq(self, x1, x2):
        re = self.re_u * x1 + self.v * x2
        return re * re + self.im_u**2 * x1 * x1


def sign_or_ambiguous(diff) -> int | None:
    """Sign of an mpmath difference of exact numbers; None when ambiguous."""
    if abs(diff) < TIE:
        return 0
    if abs(diff) < AMBIGUOUS:
        return None
    return 1 if diff > 0 else -1


def close(x, y) -> bool:
    """Relative agreement of two mpmath values to 2^-100."""
    return abs(x - y) <= AMBIGUOUS * max(1, abs(y))
