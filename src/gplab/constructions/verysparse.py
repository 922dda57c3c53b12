"""Compiling very sparse integer sequences into small-distance certificates.

Given a fast-growing sequence (n_i) with n_i^D < n_{i+1} < n_i^{2D} and
5 <= C < D <= (C-1)^2/2, the nested intervals
I_i = [m_i/n_i + n_i^{-C}/4, m_i/n_i + n_i^{-C}/2] are built, with
numerators m_i chosen coprime to n_i from the first index where that is
possible.  For every alpha in all of them the set

    E' = {n : n^{-C+1}/4 <= ||n * alpha|| <= n^{-C+1}/2}

differs from {n_i} by a finite set.  The certificate takes alpha to be the
midpoint of the deepest interval, an exact rational, so its compiled
indicator decides every point exactly and the printed certificate is the
scanned one.  The support analysis of that indicator
(:mod:`gplab.gpexpr.support`) proposes, for the built and the printed
certificate alike, every n <= 1 and the multiples of the convergent
denominators of alpha that Legendre's theorem leaves.

``densify_sequence`` implements the interpolation that upgrades any
sequence with growth exponent at least ``DENSIFY_C_MIN`` into one
satisfying the 6 < log-ratio < 12 window, together with the pairing plan
(original terms vs. shifted interpolated terms) whose two certificates
intersect to the original set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
)
from ..cf import coprime_in_interval
from ..realnum import ceil_root
from ..realnum.refine import _shown
from .certificate import Certificate

#: Smallest growth exponent for which the plain interpolation always finds
#: an admissible depth l: every A >= this lies strictly inside some open
#: interval (7^l, 11^l), since 7^(l+1) < 11^l from l = 5 on.
DENSIFY_C_MIN = 7**5 + 1

#: precisions ``_interp_term`` tries, each twice the last, before it gives up
_INTERP_DOUBLINGS = 4


@dataclass
class VerySparseParams:
    C: int
    D: int
    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    coprime_from: int

    @property
    def alpha(self) -> Fraction:
        """The midpoint of the deepest chain interval, hence in every one."""
        lo, hi = self.intervals[-1]
        return (lo + hi) / 2


def very_sparse_alpha(n_seq, C: int, D: int) -> VerySparseParams:
    """Construct the interval chain for the given sequence."""
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

    return VerySparseParams(
        C=C,
        D=D,
        n_seq=n_seq,
        m_seq=tuple(m_seq),
        intervals=tuple(intervals),
        coprime_from=coprime_from,
    )


def very_sparse_set(params: VerySparseParams) -> Certificate:
    """Certificate for E' with thresholds at exponent -C+1, at alpha =
    ``params.alpha``."""
    C, alpha = params.C, params.alpha
    # scaled form: 1 <= 4 n^(C-1) ||n alpha|| <= 2, i.e. the closed window
    y = Mul(Mul(RationalConst(Fraction(4)), Pow(N, C - 1)), Dist(Mul(N, Const("alpha", alpha))))
    indicator = ind_or(
        indicator_of_range(y, 1, 2),
        indicator_of_zero_set(Sub(y, RationalConst(Fraction(2)))),
    )
    alpha_lo, alpha_hi = params.intervals[-1]
    # the leading terms as a tuple prints them, a huge one by its size
    head = params.n_seq[:3]
    terms = ", ".join(_shown(n) for n in head) + ("," if len(head) == 1 else "")
    return Certificate(
        indicator=indicator,
        target_description=f"terms of the supplied sequence ({terms})...",
        meta={
            "construction": f"very_sparse C={params.C} D={params.D}",
            "coprime_from": params.coprime_from,
            "alpha_lo": alpha_lo,
            "alpha_hi": alpha_hi,
            "alpha_snapshot": alpha,
            "valid_to": params.n_seq[-1],
        },
    )


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


def _exact_log(n_hi: int, n_lo: int) -> int | None:
    """M with n_lo^M = n_hi exactly, if it exists (n_lo >= 2): the float
    ratio of the logs, checked exactly next to it."""
    est = round(math.log(n_hi) / math.log(n_lo))
    for m in range(max(1, est - 1), est + 2):
        if n_lo**m == n_hi:
            return m
    return None


def _exact_root(m: int, r: int) -> int | None:
    """t with t^r = m exactly, if it exists (m >= 1)."""
    t = ceil_root(m, r)
    return t if t**r == m else None


def _interp_term(n_lo: int, n_hi: int, k: int, l: int) -> int:
    """floor(exp(a)) for a = (log n_hi)^(k/l) * (log n_lo)^(1-k/l).

    When n_hi = n_lo^M and M^(k/l) is an exact integer the value is an
    exact power and the floor is taken symbolically; otherwise the
    interpolation exponent is algebraic irrational and the value
    transcendental, so no integer, and an interval evaluation decides its
    floor once both endpoints floor alike (floored exactly, in integers).
    The value has about a / ln 2 bits: the first precision is that, from an
    enclosure of a at 64 bits, plus 64 guard bits, and it doubles until the
    floor is decided.
    """
    m_exp = _exact_log(n_hi, n_lo)
    if m_exp is not None:
        g = math.gcd(k, l)
        t = _exact_root(m_exp, l // g)
        if t is not None:
            return n_lo ** (t ** (k // g))

    import mpmath  # only the densifier needs it, so gp starts without it

    iv = mpmath.iv

    def value(prec: int):
        old, iv.prec = iv.prec, prec
        try:
            lhi = iv.log(iv.mpf(n_hi))
            llo = iv.log(iv.mpf(n_lo))
            a = iv.exp(iv.log(lhi) * k / l + iv.log(llo) * (l - k) / l)
            return a, iv.exp(a)
        finally:
            iv.prec = old

    prec = int(float(value(64)[0].b) / math.log(2)) + 64
    for _ in range(_INTERP_DOUBLINGS):
        lo, hi = (mpmath.libmp.to_int(end, "f") for end in value(prec)[1]._mpi_)
        if lo == hi:
            return lo
        prec *= 2
    raise PrecisionExhausted("floor(exp(...)) undecided; value too close to an integer")


def densify_sequence(n_seq) -> DensifyPlan:
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
