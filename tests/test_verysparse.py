"""Tests for the very-sparse compiler and the sequence densifier."""

from fractions import Fraction

import pytest

from gplab.constructions import (
    DENSIFY_C_MIN,
    densify_sequence,
    very_sparse_alpha,
    very_sparse_set,
)
from gplab.errors import NoValidL, PrecisionExhausted, PreconditionError
from gplab.gpexpr import eval_indicator

from oracles import coprime

N2 = 128**7


@pytest.fixture(scope="module")
def params():
    return very_sparse_alpha([2, 128, N2], 5, 6)


@pytest.fixture(scope="module")
def cert(params):
    return very_sparse_set(params)


def test_chain_construction(params):
    assert params.m_seq[0] == 0
    assert params.intervals[0] == (Fraction(1, 128), Fraction(1, 64))
    assert params.m_seq[1] == 1 and coprime(1, 128)
    assert coprime(params.m_seq[2], N2)
    for (lo0, hi0), (lo1, hi1) in zip(params.intervals, params.intervals[1:]):
        assert lo0 <= lo1 and hi1 <= hi0
    for m, n in zip(params.m_seq, params.n_seq):
        lo, hi = Fraction(m, n) + Fraction(1, 4 * n**5), Fraction(m, n) + Fraction(1, 2 * n**5)
        assert (lo, hi) in params.intervals


def test_alpha_stream_nesting(params):
    prev = None
    deepest_lo, deepest_hi = params.intervals[-1]
    for k in (4, 10, 30):
        lo, hi = params.alpha.interval(k)
        assert type(lo) is int and type(hi) is int and 0 <= hi - lo <= 2
        # the enclosure contains the deepest chain interval, hence alpha
        assert Fraction(lo, 1 << k) <= deepest_lo and deepest_hi <= Fraction(hi, 1 << k)
        if prev:
            pk, plo, phi = prev
            assert plo << (k - pk) <= lo and hi <= phi << (k - pk)
        prev = (k, lo, hi)
    with pytest.raises(PrecisionExhausted):
        params.alpha.interval(100000)


def test_growth_violation_rejected():
    with pytest.raises(PreconditionError):
        very_sparse_alpha([2, 50], 5, 6)  # 50 < 2^6: growth too slow
    with pytest.raises(PreconditionError):
        very_sparse_alpha([2, 2**100], 5, 6)  # too fast: above n^(2D)
    with pytest.raises(PreconditionError):
        very_sparse_alpha([2, 128], 5, 13)  # D > (C-1)^2/2
    with pytest.raises(PreconditionError):
        very_sparse_alpha([1, 128], 5, 6)  # n0 < 2


def test_membership_examples(cert):
    assert cert.member(2)
    assert not cert.member(3)
    assert cert.member(128)
    assert cert.member(N2)
    assert cert.members(2, 10**5) == [2, 128]


def test_formal_indicator_agrees_on_decidable_points(cert):
    # the theta-form tree decides membership wherever margins exist
    assert eval_indicator(cert.indicator, 2) == 1
    assert eval_indicator(cert.indicator, 3) == 0
    assert eval_indicator(cert.indicator, 128) == 1
    for n in range(2, 200):
        assert eval_indicator(cert.indicator, n) == (1 if cert.member(n) else 0)


def test_formal_indicator_boundary_raises(cert):
    # membership of the deepest term sits on the closed boundary of the
    # available data: the scan's interval containment decides it, the theta
    # form cannot
    assert cert.member(N2)
    with pytest.raises(PrecisionExhausted):
        eval_indicator(cert.indicator, N2, 4096)


def test_densify_single_ratio_1000():
    plan = densify_sequence([2, 2**1000])
    assert plan.depth_per_step == (3,)
    assert plan.interpolated == (2, 2**10, 2**100, 2**1000)
    assert plan.original_positions == (0, 3)
    assert plan.shifted == (2, 2**10 + 1, 2**100 + 1, 2**1000)
    assert plan.ratio_window_from == 0


def test_densify_identity_when_ratios_in_window():
    plan = densify_sequence([3, 3**9, 3**81])
    assert plan.depth_per_step == (1, 1)
    assert plan.interpolated == (3, 3**9, 3**81)


def test_densify_gap_raises_no_valid_l():
    with pytest.raises(NoValidL) as exc:
        densify_sequence([2, 2**2000])
    assert exc.value.step == 0
    assert 3.0 < exc.value.ratio_lo < 3.2
    assert 3.8 < exc.value.ratio_hi < 4.0


@pytest.mark.parametrize("a_exp", [7**5, 11**4])
def test_densify_decides_a_gap_on_an_interval_end(a_exp):
    # A = 7^l or 11^l exactly: 7^l < A < 11^l fails on an equality, which
    # the integer comparison n_lo^(7^l) < n_hi < n_lo^(11^l) decides
    with pytest.raises(NoValidL) as exc:
        densify_sequence([2, 2**a_exp])
    assert exc.value.step == 0


def test_densify_depth_just_inside_the_window():
    assert densify_sequence([2, 2 ** (11**5)]).depth_per_step == (6,)


def test_densify_c_min_coverage():
    # every integer exponent A >= C_MIN sits strictly inside some (7^l, 11^l)
    import math

    assert DENSIFY_C_MIN == 7**5 + 1
    for a_exp in list(range(DENSIFY_C_MIN, DENSIFY_C_MIN + 50)) + [
        11**5, 7**6, 11**6, 7**7, 10**6
    ]:
        ok = any(7**l < a_exp < 11**l for l in range(1, 40))
        assert ok, a_exp


def test_densify_output_ratios_in_window():
    import math

    plan = densify_sequence([2, 2 ** (7**5 + 13)])
    seq = plan.interpolated
    for a, b in zip(seq[plan.ratio_window_from :], seq[plan.ratio_window_from + 1 :]):
        r = math.log(b) / math.log(a)
        assert 6 < r < 12


def test_scan_agrees_with_exact_containment(params, cert):
    # the fixed-point scan's verdicts match the exact rational containment
    # test point by point (the latter is the arbitrary-precision confirmation)
    from gplab.constructions.verysparse import _member_by_containment

    scanned = set(cert.members(2, 4000))
    for n in range(2, 4001):
        assert (n in scanned) == _member_by_containment(params, n)


@pytest.mark.parametrize(
    "end, side, member",
    [(4, -1, False), (4, 0, True), (4, 1, True), (2, -1, True), (2, 0, True), (2, 1, False)],
)
def test_scan_at_a_window_end_decides_exactly(end, side, member):
    # ||3 alpha|| within 2^-300 of a closed window end 1/(end * 3^4): the
    # scan's fixed-point enclosure straddles the end, so containment decides
    from gplab.constructions.verysparse import VerySparseParams, _very_sparse_scan

    alpha = (1 + Fraction(1, end * 3**4) + side * Fraction(1, 2**300)) / 3
    params = VerySparseParams(5, 6, (3,), (1,), ((alpha, alpha),), 0)
    assert _very_sparse_scan(params, lambda n: False, 3, 3) == ([3] if member else [])
