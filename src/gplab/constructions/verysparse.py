"""Compiling very sparse integer sequences into small-distance certificates.

Given a fast-growing sequence (n_i) with n_i^D < n_{i+1} < n_i^{2D} and
5 <= C < D <= (C-1)^2/2, a real alpha is built as the intersection of the
nested intervals I_i = [m_i/n_i + n_i^{-C}/4, m_i/n_i + n_i^{-C}/2], with
numerators m_i chosen coprime to n_i from the first index where that is
possible.  The set

    E' = {n : n^{-C+1}/4 <= ||n * alpha|| <= n^{-C+1}/2}

then differs from {n_i} by a finite set.  Membership is decided by
closed-interval containment against the deepest available chain interval,
which is decidable for *every* real compatible with the data; queries that
would need depth beyond the supplied sequence raise PrecisionExhausted.

``densify_sequence`` implements the interpolation that upgrades any
sequence with growth exponent at least ``DENSIFY_C_MIN`` into one
satisfying the 6 < log-ratio < 12 window, together with the pairing plan
(original terms vs. shifted interpolated terms) whose two certificates
intersect to the original set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

import mpmath

from ..errors import NoCoprimeCandidate, NotFound, NoValidL, PrecisionExhausted, PreconditionError
from ..gpexpr import (
    Const,
    Dist,
    Mul,
    N,
    Pow,
    RationalConst,
    Sub,
    ind_or,
    indicator_of_range,
    indicator_of_zero_set,
    map_tree,
    with_children,
)
from ..realnum import NeedBits, RefinableReal, dist_iv, fixed_enclosure, scale_iv
from ..cf import coprime_in_interval
from .certificate import Certificate

#: Smallest growth exponent for which the plain interpolation always finds
#: an admissible depth l: every A >= this lies strictly inside some open
#: interval (7^l, 11^l), since 7^(l+1) < 11^l from l = 5 on.
DENSIFY_C_MIN = 7**5 + 1


@dataclass
class VerySparseParams:
    C: int
    D: int
    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    coprime_from: int
    alpha: RefinableReal = dc_field(repr=False, default=None)


def very_sparse_alpha(n_seq, C: int, D: int) -> VerySparseParams:
    """Construct the interval chain and alpha for the given sequence."""
    n_seq = tuple(int(n) for n in n_seq)
    if not (5 <= C < D <= (C - 1) ** 2 / 2):
        raise PreconditionError("need 5 <= C < D <= (C-1)^2/2")
    if not n_seq or n_seq[0] < 2:
        raise PreconditionError("need n_0 >= 2")
    for i in range(len(n_seq) - 1):
        if not n_seq[i] ** D < n_seq[i + 1] < n_seq[i] ** (2 * D):
            raise PreconditionError(
                f"growth violated at step {i}: need n_{i}^{D} < n_{i+1} < n_{i}^{2 * D}"
            )
    m_seq = [0]
    intervals = []

    def interval_for(m: int, n: int) -> tuple[Fraction, Fraction]:
        base = Fraction(m, n)
        quarter = Fraction(1, 4 * n**C)
        return base + quarter, base + 2 * quarter

    intervals.append(interval_for(0, n_seq[0]))
    coprime_from = 0 if math.gcd(m_seq[0], n_seq[0]) == 1 else 1
    for i in range(1, len(n_seq)):
        lo_prev, hi_prev = intervals[-1]
        n = n_seq[i]
        quarter = Fraction(1, 4 * n**C)
        # nesting: m/n + quarter >= lo_prev and m/n + 2*quarter <= hi_prev
        m_lo = (lo_prev - quarter) * n
        m_hi = (hi_prev - 2 * quarter) * n
        lo_int = math.ceil(m_lo)
        hi_int = math.floor(m_hi)
        if lo_int > hi_int:
            raise NoCoprimeCandidate(f"empty numerator window at step {i}", index=i)
        try:
            m = coprime_in_interval(Fraction(lo_int), Fraction(hi_int - lo_int + 1), n)
        except NotFound:
            m = lo_int
            coprime_from = i + 1
        m_seq.append(m)
        intervals.append(interval_for(m, n))

    chain = tuple(intervals)
    deepest = len(chain) - 1

    def approximant(bits: int) -> tuple[int, int]:
        # the first chain interval at most 2^-bits wide, rounded outward
        for lo, hi in chain:
            if (hi - lo) * (1 << bits) <= 1:
                return (
                    (lo.numerator << bits) // lo.denominator,
                    -((-hi.numerator << bits) // hi.denominator),
                )
        raise PrecisionExhausted(
            f"alpha known only to the depth of n_{deepest}; extend the sequence",
            bits=bits,
        )

    params = VerySparseParams(
        C=C,
        D=D,
        n_seq=n_seq,
        m_seq=tuple(m_seq),
        intervals=chain,
        coprime_from=coprime_from,
        alpha=RefinableReal(approximant, "alpha"),
    )
    return params


def _member_by_containment(params: VerySparseParams, n: int) -> bool:
    """Decide n in E' by closed containment against the deepest interval.

    True if n*I maps inside the closed distance window for every point of
    the deepest interval; False if it misses it entirely; PrecisionExhausted
    if the data cannot decide (only possible past the available depth).
    The chain is nested, so a shallower interval decides nothing the
    deepest one leaves open.
    """
    if n < 1:
        return False
    lo_t = Fraction(1, 4 * n ** (params.C - 1))
    hi_t = Fraction(1, 2 * n ** (params.C - 1))
    lo_a, hi_a = params.intervals[-1]
    xlo, xhi = n * lo_a, n * hi_a
    if xhi - xlo <= Fraction(1, 2):  # else the distance is not defined at this depth
        m = (xlo + xhi) / 2
        r = m.numerator // m.denominator
        if m - r > Fraction(1, 2):
            r += 1
        dlo_l, dlo_h = abs(xlo - r), abs(xhi - r)
        dist_lo = Fraction(0) if (xlo <= r <= xhi) else min(dlo_l, dlo_h)
        dist_hi = max(dlo_l, dlo_h)
        if lo_t <= dist_lo and dist_hi <= hi_t:
            return True
        if dist_hi < lo_t or dist_lo > hi_t:
            return False
    raise PrecisionExhausted(
        f"membership of {n} undecidable at available chain depth", n=n
    )


def very_sparse_set(params: VerySparseParams) -> Certificate:
    """Certificate for E' with thresholds at exponent -C+1."""
    C = params.C
    # scaled form: 1 <= 4 n^(C-1) ||n alpha|| <= 2, i.e. the closed window
    alpha_const = Const("alpha", params.alpha)
    y = Mul(Mul(RationalConst(Fraction(4)), Pow(N, C - 1)), Dist(Mul(N, alpha_const)))
    indicator = ind_or(
        indicator_of_range(y, 1, 2),
        indicator_of_zero_set(Sub(y, RationalConst(Fraction(2)))),
    )

    cert = Certificate(
        indicator=indicator,
        target_description=f"terms of the supplied sequence {params.n_seq[:3]}...",
        fast_scan=lambda lo, hi, max_bits: _very_sparse_scan(
            params, lambda n: cert.confirm(n, max_bits), lo, hi
        ),
        meta={
            "construction": f"very_sparse C={params.C} D={params.D}",
            "coprime_from": params.coprime_from,
            "alpha_lo": str(params.intervals[-1][0]),
            "alpha_hi": str(params.intervals[-1][1]),
        },
    )
    return cert


def very_sparse_snapshot(params: VerySparseParams) -> Certificate:
    """``very_sparse_set`` with alpha in the indicator replaced by the midpoint
    of the deepest chain interval, an exact rational, so it can be printed.

    Scans and membership tests still decide by the interval chain.
    """
    cert = very_sparse_set(params)
    lo, hi = params.intervals[-1]
    mid = (lo + hi) / 2
    snap = Const("alpha", mid)

    def replace(node, kids):
        if isinstance(node, Const) and node.value is params.alpha:
            return snap
        return with_children(node, kids)

    cert.indicator = map_tree(cert.indicator, replace)
    cert.meta["alpha_snapshot"] = f"{mid.numerator}/{mid.denominator}"
    cert.meta["valid_to"] = str(params.n_seq[-1])
    return cert


def _very_sparse_scan(
    params: VerySparseParams, confirm: Callable[[int], bool], lo: int, hi: int
) -> list[int]:
    """Scan by fixed-point arithmetic on the deepest interval; exact logic.

    ``dist_iv`` encloses ||n alpha|| from an enclosure of the deepest chain
    interval, and the enclosure is compared exactly with the closed window
    [n^{-C+1}/4, n^{-C+1}/2].  Points it leaves open (an enclosure of
    n alpha across an integer, NeedBits, or of the distance across a window
    end) go to ``_member_by_containment``, which raises PrecisionExhausted
    at the rare undecidable ones.  That test, not the compiled indicator,
    confirms n >= 1 here: the indicator over the alpha stream raises
    PrecisionExhausted already at n = 2^49, a term of the default sequence,
    where containment decides.  Points n <= 0 are left to ``confirm``.
    """
    out = [n for n in range(lo, min(0, hi) + 1) if confirm(n)]
    alo, ahi = params.intervals[-1]
    bits = max(64, (hi * (ahi - alo)).numerator.bit_length() + 64)
    alpha = fixed_enclosure(alo, bits)[0], fixed_enclosure(ahi, bits)[1]
    scale = 1 << bits
    for n in range(max(lo, 1), hi + 1):
        t = 4 * n ** (params.C - 1)  # the window is [scale / t, 2 scale / t]
        try:
            d_lo, d_hi = dist_iv(scale_iv(n, alpha), bits)
            if scale <= d_lo * t and d_hi * t <= 2 * scale:
                out.append(n)
                continue
            if d_hi * t < scale or d_lo * t > 2 * scale:
                continue
        except NeedBits:
            pass
        if _member_by_containment(params, n):
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# densifier
# ---------------------------------------------------------------------------

@dataclass
class DensifyPlan:
    interpolated: tuple[int, ...]
    original_positions: tuple[int, ...]  # j with interpolated[j] = original term
    shifted: tuple[int, ...]  # second sequence: +1 off the original positions
    depth_per_step: tuple[int, ...]
    ratio_window_from: int  # first index from which 6 < log-ratio < 12 holds


def _cmp_power(x: int, base: int, e: int) -> int:
    """Sign of x - base^e for x >= 1 and base >= 2, exact.

    2^(e (b-1)) <= base^e < 2^(e b) for b = base.bit_length(), so the bit
    length of x settles most comparisons before any power is formed.
    """
    b = base.bit_length()
    if x.bit_length() <= e * (b - 1):
        return -1
    if x.bit_length() > e * b:
        return 1
    p = base**e
    return (x > p) - (x < p)


def _select_depth(n_lo: int, n_hi: int, step: int) -> int:
    """The least l >= 1 with n_lo^(7^l) < n_hi < n_lo^(11^l), decided in integers.

    That is 7^l < A < 11^l for A = log n_hi / log n_lo.  Once n_hi is at
    most n_lo^(7^l), no larger l works, and NoValidL reports the open
    interval (log A / log 11, log A / log 7) in floats, for reading only.
    """
    l = 1
    while _cmp_power(n_hi, n_lo, 7**l) > 0:
        if _cmp_power(n_hi, n_lo, 11**l) < 0:
            return l
        l += 1
    log_a = math.log(math.log(n_hi) / math.log(n_lo))
    raise NoValidL(
        f"no admissible interpolation depth at step {step}",
        step=step,
        ratio_lo=log_a / math.log(11),
        ratio_hi=log_a / math.log(7),
    )


class _IvPrec:
    """Temporarily raise the interval context's working precision."""

    def __init__(self, prec: int):
        self.prec = prec

    def __enter__(self):
        self._old = mpmath.iv.prec
        mpmath.iv.prec = self.prec
        return mpmath.iv

    def __exit__(self, *exc):
        mpmath.iv.prec = self._old


def _exact_log(n_hi: int, n_lo: int) -> int | None:
    """M with n_lo^M = n_hi exactly, if it exists."""
    est = max(1, n_hi.bit_length() // max(1, n_lo.bit_length() - 1))
    for m in range(max(1, est - 2), est + 3):
        if n_lo**m == n_hi:
            return m
    return None


def _exact_root(m: int, r: int) -> int | None:
    """t with t^r = m exactly, if it exists."""
    if r == 1:
        return m
    t = round(m ** (1.0 / r))
    for cand in (t - 1, t, t + 1):
        if cand >= 1 and cand**r == m:
            return cand
    return None


def _interp_term(n_lo: int, n_hi: int, k: int, l: int) -> int:
    """floor(exp((log n_hi)^(k/l) * (log n_lo)^(1-k/l))), validated.

    When n_hi = n_lo^M and M^(k/l) is an exact integer the value is an
    exact power and the floor is taken symbolically; otherwise the
    interpolation exponent is algebraic irrational, the value is
    transcendental, and interval refinement terminates.
    """
    m_exp = _exact_log(n_hi, n_lo)
    if m_exp is not None:
        g = math.gcd(k, l)
        t = _exact_root(m_exp, l // g)
        if t is not None:
            return n_lo ** (t ** (k // g))
    for prec in (192, 384, 768, 1536, 6144):
        with _IvPrec(prec) as iv:
            lhi = iv.log(iv.mpf(n_hi))
            llo = iv.log(iv.mpf(n_lo))
            a = iv.exp(iv.log(lhi) * k / l + iv.log(llo) * (l - k) / l)
            v = iv.exp(a)
            flo = mpmath.floor(v.a)
            fhi = mpmath.floor(v.b)
            if flo == fhi:
                return int(flo)
    raise PrecisionExhausted("floor(exp(...)) undecided; value too close to an integer")


def densify_sequence(n_seq, c: int | None = None) -> DensifyPlan:
    """Interpolate the sequence so consecutive log-ratios land in (6, 12).

    Each gap A = log n_{i+1} / log n_i is split into l equal geometric steps
    with l the least integer with 7^l < A < 11^l (``_select_depth``, in
    integers).  Such an l exists for every A >= DENSIFY_C_MIN; where none
    does, NoValidL is raised with diagnostics.
    """
    n_seq = [int(n) for n in n_seq]
    if not n_seq or n_seq[0] < 2:
        raise PreconditionError("need n_0 >= 2")
    for i in range(len(n_seq) - 1):
        if n_seq[i + 1] < n_seq[i] ** 2:
            raise PreconditionError(f"sequence must grow at least quadratically (step {i})")
    interp: list[int] = [n_seq[0]]
    positions = [0]
    depths = []
    for i in range(len(n_seq) - 1):
        l = _select_depth(n_seq[i], n_seq[i + 1], i)
        depths.append(l)
        for k in range(1, l):
            interp.append(_interp_term(n_seq[i], n_seq[i + 1], k, l))
        interp.append(n_seq[i + 1])
        positions.append(len(interp) - 1)
    pos_set = set(positions)
    shifted = tuple((v if j in pos_set else v + 1) for j, v in enumerate(interp))
    # the first index from which every step has t^6 < u < t^12
    window_from = len(interp) - 1
    while window_from > 0:
        t, u = interp[window_from - 1], interp[window_from]
        if _cmp_power(u, t, 6) <= 0 or _cmp_power(u, t, 12) >= 0:
            break
        window_from -= 1
    return DensifyPlan(
        interpolated=tuple(interp),
        original_positions=tuple(positions),
        shifted=shifted,
        depth_per_step=tuple(depths),
        ratio_window_from=window_from,
    )
