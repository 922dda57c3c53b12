"""Heisenberg nilmanifold simulator.

Group elements are upper-triangular unipotent matrices in coordinates
``[x, y, z]`` with the product ``[x1,y1,z1]*[x2,y2,z2] =
[x1+x2, y1+y2, z1+z2+x1*y2]``.  The lattice of integer-coordinate elements
acts on the right; reduction factors any element as (fractional part) *
(integral part) with the fractional part in the unit-cube section.

Orbits of g(n) = [-n*alpha, n*beta, 0] are the driving example: the
reduced third coordinate is {n*alpha*floor(n*beta)}, whose small values
are counted by ``growth_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhausted, PreconditionError
from .realnum import (
    DEFAULT_MAX_BITS,
    NeedBits,
    NumberField,
    Real,
    ceil_root,
    compare,
    dist_iv,
    fixed_enclosure,
    floor_frac,
    floor_iv,
    prefilter_bits,
    radd,
    rmul,
    rneg,
    rpow,
    rsub,
    scale_iv,
)

_Zero = Fraction(0)


@dataclass(frozen=True)
class HeisenbergElem:
    x: Real
    y: Real
    z: Real

    def __iter__(self):
        return iter((self.x, self.y, self.z))


IDENTITY = HeisenbergElem(_Zero, _Zero, _Zero)


def elem(x, y, z) -> HeisenbergElem:
    def conv(v):
        return Fraction(v) if isinstance(v, (int, Fraction)) else v

    return HeisenbergElem(conv(x), conv(y), conv(z))


def heis_mul(g: HeisenbergElem, h: HeisenbergElem) -> HeisenbergElem:
    return HeisenbergElem(
        radd(g.x, h.x),
        radd(g.y, h.y),
        radd(radd(g.z, h.z), rmul(g.x, h.y)),
    )


def heis_inv(g: HeisenbergElem) -> HeisenbergElem:
    return HeisenbergElem(rneg(g.x), rneg(g.y), radd(rneg(g.z), rmul(g.x, g.y)))


def heis_pow(g: HeisenbergElem, n: int) -> HeisenbergElem:
    if n < 0:
        return heis_pow(heis_inv(g), -n)
    out = IDENTITY
    base = g
    while n:
        if n & 1:
            out = heis_mul(out, base)
        base = heis_mul(base, base)
        n >>= 1
    return out


def heis_reduce(
    g: HeisenbergElem, max_bits: int = DEFAULT_MAX_BITS
) -> tuple[HeisenbergElem, HeisenbergElem]:
    """Factor g = fractional * integral with fractional coords in [0, 1)."""
    xi, xf = floor_frac(g.x, max_bits)
    yi, yf = floor_frac(g.y, max_bits)
    rest = rsub(g.z, rmul(xf, Fraction(yi)))
    zi, zf = floor_frac(rest, max_bits)
    frac = HeisenbergElem(xf, yf, zf)
    integral = HeisenbergElem(Fraction(xi), Fraction(yi), Fraction(zi))
    return frac, integral


@dataclass(frozen=True)
class OrbitSpec:
    """Orbit data: g(n) = [-n*alpha, n*beta, 0], threshold n^(-c)."""

    alpha: Real
    beta: Real
    c: Fraction

    def __post_init__(self):
        if not (0 < self.c < 1):
            raise PreconditionError("exponent c must lie in (0, 1)")


def default_orbit_spec(c=Fraction(1, 20), _orbit_length: int | None = None) -> OrbitSpec:
    """The sqrt2/sqrt3 preset; 1, sqrt2, sqrt3 are independent over Q.

    A second argument (the orbit length perfbench's workloads still pass) is
    ignored: each count or sample takes its own range.
    """
    alpha = NumberField((-2, 0, 1), 1, 2, "sqrt2").generator()
    beta = NumberField((-3, 0, 1), 1, 2, "sqrt3").generator()
    return OrbitSpec(alpha, beta, Fraction(c))


def orbit_point(spec: OrbitSpec, n: int, max_bits: int = DEFAULT_MAX_BITS) -> HeisenbergElem:
    """Reduced fractional part of g(n), whose third coordinate is
    {n*alpha*floor(n*beta)}."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    g = HeisenbergElem(rmul(Fraction(-n), spec.alpha), rmul(Fraction(n), spec.beta), _Zero)
    return heis_reduce(g, max_bits)[0]


def _threshold_at_least_half(n: int, c: Fraction) -> bool:
    # n^(-c) >= 1/2  <=>  n^num <= 2^den
    return n ** c.numerator <= 2**c.denominator


def small_value_indicator(spec: OrbitSpec, n: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """f(n) = 1 iff ||n*alpha*floor(n*beta)|| < n^(-c); f(0) = 0.

    The distance is read from the reduced orbit point, whose third
    coordinate is {n*alpha*floor(n*beta)}.
    """
    if n < 1:
        return 0
    if _threshold_at_least_half(n, spec.c):
        # the distance is strictly below 1/2 for irrational arguments
        return 1
    f = orbit_point(spec, n, max_bits).z
    d = f if compare(f, Fraction(1, 2), max_bits) <= 0 else rsub(Fraction(1), f)
    # d < n^(-c)  <=>  d^den * n^num < 1
    lhs = rmul(rpow(d, spec.c.denominator), Fraction(n**spec.c.numerator))
    return 1 if compare(lhs, Fraction(1), max_bits) < 0 else 0


def _fixed_bits(spec: OrbitSpec, N: int, max_bits: int) -> int:
    """Prefilter precision for n < N: n*floor(n*beta) has this many integer bits."""
    beta_abs = max(map(abs, fixed_enclosure(spec.beta, 0)))
    return prefilter_bits((N * N * beta_abs).bit_length(), max_bits)


def _block_bound(n0: int, c: Fraction, bits: int) -> int:
    """U = ceil(2^bits n0^(-c)), the least integer with U^den n0^num >=
    2^(bits den): a distance of at least ``U * 2^-bits`` is at least
    n^(-c) for every n >= n0."""
    num, den = c.numerator, c.denominator
    return ceil_root(-(-(1 << (bits * den)) // n0**num), den)


def _fixed_indicator(
    n: int, c: Fraction, alpha: tuple[int, int], beta: tuple[int, int], bits: int, bound: int
) -> int | None:
    """f(n), for n past the region where n^(-c) >= 1/2, from enclosures
    ``alpha, beta * 2^-bits``, or None if they cannot decide.

    m = floor(n*beta) must be decided; then d = ||n*m*alpha|| lies in
    ``[d_lo, d_hi] * 2^-bits``.  f = 0 (the common case) when d_lo reaches
    ``bound``, a :func:`_block_bound` of some n0 <= n.  Otherwise
    ``d^den * n^num < 1`` is settled when ``d_lo^den * n^num >=
    2^(bits*den)`` (f = 0) or ``d_hi^den * n^num < 2^(bits*den)`` (f = 1).
    """
    try:
        m = floor_iv(scale_iv(n, beta), bits)
        d_lo, d_hi = dist_iv(scale_iv(n * m, alpha), bits)
    except NeedBits:
        return None
    if d_lo >= bound:
        return 0
    num, den = c.numerator, c.denominator
    t = n**num
    one = 1 << (bits * den)
    if d_lo**den * t >= one:
        return 0
    if d_hi**den * t < one:
        return 1
    return None


@dataclass
class GrowthRow:
    N: int
    count: int
    ratio: float  # count / N^(1-c)
    skipped: int


def growth_count(
    spec: OrbitSpec,
    ladder: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6),
    max_bits: int = DEFAULT_MAX_BITS,
) -> list[GrowthRow]:
    """S(N) = #{0 <= n < N : f(n) = 1} along a geometric ladder of N.

    Every n with n^(-c) >= 1/2 is a member.  Past them the points run in
    blocks [n0, 2 n0), and each n is decided on fixed-point enclosures of
    alpha and beta when they settle it, first against the block's one bound
    on n^(-c), and by ``small_value_indicator`` otherwise.  Precision
    failures of the exact decision are skipped and reported per row, never
    counted.
    """
    ladder = tuple(sorted(ladder))
    if ladder and ladder[0] < 1:
        raise PreconditionError("ladder values N must be positive")
    c = spec.c
    bits = _fixed_bits(spec, ladder[-1] if ladder else 0, max_bits)
    alpha = fixed_enclosure(spec.alpha, bits)
    beta = fixed_enclosure(spec.beta, bits)
    rows = []
    count = 0
    skipped = 0
    n = 1
    near = True  # n^(-c) >= 1/2 so far; it fails for good at the first n it fails at
    for N in ladder:
        while near and n < N:
            near = _threshold_at_least_half(n, c)
            count += near
            n += near
        while n < N:
            stop = min(N, 2 * n)
            bound = _block_bound(n, c, bits)
            for k in range(n, stop):
                f = _fixed_indicator(k, c, alpha, beta, bits, bound)
                if f is None:
                    try:
                        f = small_value_indicator(spec, k, max_bits)
                    except PrecisionExhausted:
                        f = 0
                        skipped += 1
                count += f
            n = stop
        exponent = 1 - float(spec.c)
        rows.append(GrowthRow(N=N, count=count, ratio=count / N**exponent, skipped=skipped))
    return rows


@dataclass
class BoxCount:
    index: tuple[int, int, int]
    count: int
    volume: float
    deviation: float


def equidist_stats(
    spec: OrbitSpec,
    N: int,
    divisions: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> tuple[list[BoxCount], float]:
    """Counts of reduced orbit points per box of a uniform grid on [0,1)^3.

    Returns the per-box table and the maximum discrepancy |count/N - vol|.
    """
    if N < 0:
        raise PreconditionError("N must be nonnegative")
    if divisions < 1:
        raise PreconditionError("need at least one division per axis")
    k = divisions
    counts = [[[0] * k for _ in range(k)] for _ in range(k)]

    def box_of(v: Real) -> int:
        # floor(k * v) for v in [0,1): decided by refinement
        m, _ = floor_frac(rmul(Fraction(k), v), max_bits)
        return min(max(m, 0), k - 1)

    def exact_boxes(n: int) -> tuple[int, int, int]:
        return tuple(box_of(v) for v in orbit_point(spec, n, max_bits))

    # fixed-point enclosures decide the boxes; undecided points go exact
    bits = _fixed_bits(spec, N, max_bits)
    alpha = fixed_enclosure(spec.alpha, bits)
    beta = fixed_enclosure(spec.beta, bits)

    def fixed_box(v: tuple[int, int]) -> int:
        # floor(k * {x}) for x in v * 2^-bits
        f = floor_iv(v, bits) << bits
        return floor_iv((k * (v[0] - f), k * (v[1] - f)), bits)

    for n in range(N):
        try:
            y = scale_iv(n, beta)
            z = scale_iv(n * floor_iv(y, bits), alpha)
            bx, by, bz = fixed_box(scale_iv(-n, alpha)), fixed_box(y), fixed_box(z)
        except NeedBits:
            bx, by, bz = exact_boxes(n)
        counts[bx][by][bz] += 1

    vol = 1.0 / k**3
    table = []
    worst = 0.0
    for i in range(k):
        for j in range(k):
            for l in range(k):
                c = counts[i][j][l]
                dev = abs(c / N - vol) if N else vol
                table.append(BoxCount((i, j, l), c, vol, dev))
                worst = max(worst, dev if N else 0.0)
    if N == 0:
        worst = 0.0
    return table, worst
