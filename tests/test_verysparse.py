"""Tests for the very-sparse compiler and the sequence densifier."""

from fractions import Fraction

import pytest

from gplab.constructions import (
    DENSIFY_C_MIN,
    densify_sequence,
    very_sparse_alpha,
    very_sparse_set,
)
from gplab.constructions.verysparse import VerySparseParams
from gplab.errors import NoValidL, PreconditionError
from gplab.gpexpr import eval_indicator, members_in

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


def test_alpha_lies_in_every_chain_interval(params, cert):
    # the midpoint of the deepest interval, so the construction holds for it
    alpha = params.alpha
    assert type(alpha) is Fraction
    assert all(lo < alpha < hi for lo, hi in params.intervals)
    assert cert.meta["alpha_snapshot"] == alpha
    assert f"\nalpha_snapshot: {alpha.numerator}/{alpha.denominator}\n" in cert.to_file_text()


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


def test_formal_indicator_decides_the_deepest_term(cert):
    # at the exact alpha, 4 N2^4 ||N2 alpha|| = 3/2: the compiled indicator
    # decides the deepest term with no PrecisionExhausted
    assert eval_indicator(cert.indicator, N2, 4096) == 1
    assert cert.member(N2)


def test_a_term_past_the_print_limit_builds():
    # a term of more than 4300 digits is described by its size; the built
    # certificate decides it, and its printed form refuses the huge alpha
    big = very_sparse_set(very_sparse_alpha([2**15000], 5, 6))
    assert big.target_description == "terms of the supplied sequence (a 15001-bit integer,)..."
    assert big.member(2**15000)
    with pytest.raises(PreconditionError):
        big.to_file_text()
    small = very_sparse_set(very_sparse_alpha([2, 128], 5, 6))
    assert small.target_description == "terms of the supplied sequence (2, 128)..."


@pytest.mark.parametrize("r", [2, 3, 7, 64])
def test_exact_root_of_powers_past_2_to_2000(r):
    # one integer root, realnum.ceil_root: exact on powers of any size
    import random

    from gplab.constructions.verysparse import _exact_root
    from gplab.realnum import ceil_root

    rng = random.Random(r)
    for _ in range(10):
        bits = 2000 // r + 2
        t = rng.getrandbits(bits) | 1 << (bits - 1)
        m = t**r
        assert m > 2**2000
        assert ceil_root(m, r) == t and ceil_root(m - 1, r) == t and ceil_root(m + 1, r) == t + 1
        assert _exact_root(m, r) == t
        assert _exact_root(m + 1, r) is None and _exact_root(m - 1, r) is None


def test_densify_single_ratio_1000():
    plan = densify_sequence([2, 2**1000])
    assert plan.depth_per_step == (3,)
    assert plan.interpolated == (2, 2**10, 2**100, 2**1000)
    assert plan.original_positions == (0, 3)
    assert plan.shifted == (2, 2**10 + 1, 2**100 + 1, 2**1000)
    assert plan.ratio_window_from == 0


@pytest.mark.parametrize("base", [2, 3, 5])
def test_densify_finds_the_exact_power_of_any_base(base):
    # bits(3^64) // (bits(3) - 1) is 102, not 64: the exponent comes from
    # the ratio of the logs, so the middle term base^8 is taken exactly
    plan = densify_sequence([base, base**64])
    assert plan.depth_per_step == (2,)
    assert plan.interpolated == (base, base**8, base**64)


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


@pytest.mark.parametrize(
    "end, side, member",
    [(4, -1, False), (4, 0, True), (4, 1, True), (2, -1, True), (2, 0, True), (2, 1, False)],
)
def test_scan_at_a_window_end_decides_exactly(end, side, member):
    # ||3 alpha|| within 2^-300 of a closed window end 1/(end * 3^4): the
    # Legendre bound on g decides the upper end, the indicator the lower
    alpha = (1 + Fraction(1, end * 3**4) + side * Fraction(1, 2**300)) / 3
    cert = very_sparse_set(VerySparseParams(5, 6, (3,), (1,), ((alpha, alpha),), 0))
    assert cert.members(3, 3) == ([3] if member else [])
    assert eval_indicator(cert.indicator, 3) == member


@pytest.mark.parametrize("seq", [(2, 128), (3, 3**7), (2, 65)])
def test_legendre_candidates_hold_every_member(seq):
    # the scan against the compiled indicator at every point
    cert = very_sparse_set(very_sparse_alpha(seq, 5, 6))
    assert cert.members(-50, 6000) == list(members_in(cert.indicator, range(-50, 6001)))


@pytest.mark.parametrize("seq, C, D", [((2, 128, N2), 5, 6), ((2, 2**30, 2**900), 28, 29)])
def test_integer_stopping_test_equals_the_fraction_form(seq, C, D):
    # for alpha = a/b, the analysis's bound 4 g^C q^(C-1) |q a - p b| <= 2 b
    # is 2 g^C q^(C-1) |q alpha - p| <= 1 multiplied through by 2 b
    from gplab.cf import cf_of_rational, legendre_candidates

    cert = very_sparse_set(very_sparse_alpha(seq, C, D))
    cf = cf_of_rational(cert.meta["alpha_snapshot"])
    hi = 2 * seq[-1]
    got = [n for piece in cert.points(2, hi) for n in piece]
    bound = lambda g, p, q, _: 2 * g**C * q ** (C - 1) * abs(q * cf.source - p) <= 1
    assert got == sorted(set(legendre_candidates(cf, 2, hi, bound)))
    assert set(seq) <= set(got)


def test_members_expands_alpha_once(monkeypatch):
    # one expansion of alpha serves both halves of the OR and every window
    from gplab.gpexpr import support

    calls = []
    real = support.rational_quotients

    def spy(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(support, "rational_quotients", spy)
    support._analysis.cache_clear()  # no analysis of an earlier build
    cert = very_sparse_set(very_sparse_alpha((2, 128), 5, 6))
    assert cert.members(1, 200) == cert.members(1, 200) == [2, 128]
    assert cert.members(10**6, 10**7) == []
    assert calls == [cert.meta["alpha_snapshot"]]


def test_densified_terms_equal_a_high_precision_floor():
    # every interpolated term equals floor(exp(...)) at 2 bits + 200
    # bits of mpmath precision, far past the term's own bit length
    import mpmath

    n_lo, n_hi, l = 2, 2 ** (11**5), 6
    plan = densify_sequence([n_lo, n_hi])
    assert plan.depth_per_step == (l,)
    terms = plan.interpolated[1:-1]
    assert [t.bit_length() for t in terms] == [8, 55, 402, 2961, 21835]
    for k, term in enumerate(terms, 1):
        with mpmath.workprec(2 * term.bit_length() + 200):
            a = mpmath.exp(
                mpmath.log(mpmath.log(n_hi)) * k / l + mpmath.log(mpmath.log(n_lo)) * (l - k) / l
            )
            assert int(mpmath.floor(mpmath.exp(a))) == term, k
