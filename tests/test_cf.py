"""Tests for continued fractions, Legendre checks and best approximations."""

from fractions import Fraction

import pytest

from gplab.cf import (
    RauzyNorm,
    best_approx_1d,
    best_approx_2d,
    cf_expand,
    cf_of_rational,
    convergent_walk,
    convergents,
    coprime_in_interval,
    legendre_check,
    nearest_lattice_sq,
)
from gplab.errors import (
    NondegenerateNormRequired,
    NotFound,
    PrecisionExhausted,
    PreconditionError,
)
from gplab.realnum import NumberField, RefinableReal, interval_of, to_float

from oracles import best_denominators_bruteforce, cf_convergents


@pytest.fixture(scope="module")
def phi():
    return NumberField((-1, -1, 1), 1, 2, "phi").generator()


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField((-2, 0, 1), 1, 2, "s").generator()


@pytest.fixture(scope="module")
def two_plus_sqrt3():
    return NumberField((1, -4, 1), 3, 4, "t").generator()


def test_cf_examples(phi, sqrt2, two_plus_sqrt3):
    assert cf_expand(phi).preperiod == (1,) and cf_expand(phi).period == (1,)
    cf3 = cf_expand(two_plus_sqrt3)
    assert cf3.preperiod == (3,) and cf3.period == (1, 2)
    cf2 = cf_expand(sqrt2)
    assert cf2.preperiod == (1,) and cf2.period == (2,)


def test_cf_rejects_rational_and_cubic():
    fld = NumberField((-2, 0, 1), 1, 2)
    with pytest.raises(PreconditionError):
        cf_expand(fld.from_rational(Fraction(3, 7)))
    cubic = NumberField((-1, -1, -1, 1), 1, 2)
    with pytest.raises(PreconditionError):
        cf_expand(cubic.generator())


def test_cf_negative_value(sqrt2):
    # -sqrt2 = [-2; 1, 1, 2, 2, 2, ...]: expansion must still be exact
    cf = cf_expand(-sqrt2)
    assert cf.preperiod == (-2, 1, 1) and cf.period == (2,)
    conv = convergents(cf, 8)
    p, q = conv[-1]
    assert abs(p / q + 1.41421356237) < 1e-4


def test_convergents_match_oracle(phi, sqrt2):
    conv = convergents(cf_expand(sqrt2), 6)
    assert [q for _, q in conv] == [1, 2, 5, 12, 29, 70]
    assert conv == cf_convergents([1, 2, 2, 2, 2, 2])
    conv_phi = convergents(cf_expand(phi), 6)
    assert [q for _, q in conv_phi] == [1, 1, 2, 3, 5, 8]
    single = convergents(cf_expand(phi), 1)
    assert single == [(1, 1)]


@pytest.mark.parametrize(
    "x, terms",
    [(Fraction(355, 113), [3, 7, 16]), (Fraction(-3, 2), [-2, 2]), (Fraction(5), [5])],
)
def test_rational_walk_ends_at_the_value(x, terms):
    cf = cf_of_rational(x)
    assert cf.preperiod == tuple(terms) and cf.period == ()
    walk = list(convergent_walk(cf))
    assert [(p, q) for p, q, _ in walk] == cf_convergents(terms)
    assert [a for _, _, a in walk] == terms[1:] + [None]
    assert Fraction(*walk[-1][:2]) == x
    assert convergents(cf, len(terms)) == cf_convergents(terms)
    with pytest.raises(PreconditionError):
        convergents(cf, len(terms) + 1)


def test_convergents_determinant_identity(two_plus_sqrt3):
    conv = convergents(cf_expand(two_plus_sqrt3), 12)
    for (p0, q0), (p1, q1) in zip(conv, conv[1:]):
        assert p1 * q0 - p0 * q1 in (1, -1)


def test_legendre_examples(phi):
    assert legendre_check(phi, 8, 5) is True
    assert legendre_check(phi, 7, 5) is False
    assert legendre_check(Fraction(1, 2), 1, 2) is True
    with pytest.raises(PreconditionError):
        legendre_check(phi, 4, 2)  # not coprime


def test_legendre_boundary_stream_raises():
    # a stream equal to 1/2 + 1/8 exactly: |x - 1/2| = 1/(2*2^2) on the nose
    x = RefinableReal(lambda k: ((5 << k) >> 3, -((-5 << k) >> 3)), "x")
    assert legendre_check(x, 1, 2) is True  # exact from 3 bits on: the answers decide
    fuzzy = RefinableReal(lambda k: (((5 << k) >> 3) - 1, -((-5 << k) >> 3)), "y")
    with pytest.raises(PrecisionExhausted):
        legendre_check(fuzzy, 1, 2, max_bits=128)


def test_best_approx_1d_examples(phi, sqrt2):
    assert [b.q for b in best_approx_1d(sqrt2, 100)] == [1, 2, 5, 12, 29, 70]
    assert [b.q for b in best_approx_1d(phi, 10)] == [1, 2, 3, 5, 8]
    assert [b.q for b in best_approx_1d(phi, 1)] == [1]


def test_best_approx_1d_matches_bruteforce_oracle(phi, sqrt2):
    assert [b.q for b in best_approx_1d(sqrt2, 500)] == best_denominators_bruteforce(
        Fraction(1), 2, 500
    )
    assert [b.q for b in best_approx_1d(phi, 500)] == best_denominators_bruteforce(
        Fraction(1, 2), 5, 500, offset=Fraction(1, 2)
    )


def test_best_approx_1d_equals_convergents_to_ten_thousand():
    from gplab.suites import check_best_approx_1d_matches_convergents

    check_best_approx_1d_matches_convergents(10**4)


def test_best_approx_2d_tribonacci():
    fld = NumberField((-1, -1, -1, 1), 1, 2, "b")
    norm = RauzyNorm.for_cubic_field(fld, 1)
    beta = fld.generator()
    theta = (beta.inverse(), (beta * beta).inverse())
    ba = best_approx_2d(theta, norm, 100)
    assert [b.q for b in ba] == [1, 2, 4, 7, 13, 24, 44, 81]
    assert ba[0].p == (1, 0)
    assert abs(to_float(ba[0].value) - 0.2955977425) < 1e-9
    for prev, cur in zip(ba, ba[1:]):
        assert (cur.value_sq - prev.value_sq).sign() < 0
    single = best_approx_2d(theta, norm, 1)
    assert len(single) == 1 and single[0].q == 1


def test_best_approx_2d_needs_theta_of_a_cubic_unit():
    fld = NumberField((-1, -1, -1, 1), 1, 2, "b")
    norm = RauzyNorm.for_cubic_field(fld, 1)
    beta = fld.generator()
    theta = (beta.inverse(), (beta * beta).inverse())
    phi = NumberField((-1, -1, 1), 1, 2, "phi").generator()
    cbrt2 = NumberField((-2, 0, 0, 1), 1, 2, "c").generator()  # not a unit
    for bad in (
        (phi.inverse(), (phi * phi).inverse()),
        (theta[1], theta[0]),
        (cbrt2.inverse(), (cbrt2 * cbrt2).inverse()),
        (beta, beta * beta),
    ):
        with pytest.raises(PreconditionError):
            best_approx_2d(bad, norm, 100)


def test_degenerate_norm_rejected():
    fld = NumberField((-1, -1, 1), 1, 2)
    one = fld.one()
    with pytest.raises(NondegenerateNormRequired):
        RauzyNorm(one, fld.zero(), one)
    with pytest.raises(NondegenerateNormRequired):
        RauzyNorm(one, one, fld.zero())


def test_negative_v_matches_brute_force():
    # N(x) = |u x1 - v x2| with the Tribonacci u and v.  At the lattice point
    # nearest q theta, N^2 < 0.21, so a minimiser has |x1| < 0.75 and
    # |x2| < 1.0: it lies within 2 of nint(q theta), inside the +-3 box
    fld = NumberField((-1, -1, -1, 1), 1, 2, "b")
    trib = RauzyNorm.for_cubic_field(fld, 1)
    norm = RauzyNorm(trib.re_u, trib.im_u_sq, -trib.v)
    beta = fld.generator()
    theta = (beta.inverse(), (beta * beta).inverse())
    records, best = [], None
    for q in range(1, 200):
        y1, y2 = theta[0] * q, theta[1] * q
        c1, c2 = y1.nint(), y2.nint()
        box = [
            (norm.norm_sq(y1 - p1, y2 - p2), (p1, p2))
            for p1 in range(c1 - 3, c1 + 4)
            for p2 in range(c2 - 3, c2 + 4)
        ]
        want, want_p = min(box, key=lambda t: t[0])
        got, p = nearest_lattice_sq(norm, theta, q)
        assert p == want_p and (got - want).is_zero(), q
        if best is None or want < best:
            records.append((q, want_p))
            best = want
    assert records[0] == (1, (0, 0))
    assert [(b.q, b.p) for b in best_approx_2d(theta, norm, 199)] == records


def test_coprime_in_interval_examples():
    assert coprime_in_interval(Fraction(51, 5), 5, 12) == 11
    assert coprime_in_interval(Fraction(7, 2), 1, 1) == 4
    with pytest.raises(NotFound):
        coprime_in_interval(8, Fraction(1, 2), 2)


def test_legendre_passers_are_convergents(phi, sqrt2, two_plus_sqrt3):
    import math

    for x in (phi, sqrt2, two_plus_sqrt3):
        conv = set(convergents(cf_expand(x), 40))
        for n in range(1, 1001):
            m = (x * n).nint()
            if math.gcd(m, n) != 1:
                continue
            if legendre_check(x, m, n):
                assert (m, n) in conv


def test_best_approx_1d_on_stream_constant():
    from gplab.realnum import THETA

    ba = best_approx_1d(THETA, 30)
    qs = [b.q for b in ba]
    # theta ~ 0.316421509...: records found purely by interval refinement
    assert qs[0] == 1 and qs == sorted(qs)
    for prev, cur in zip(ba, ba[1:]):
        from gplab.realnum import compare

        assert compare(cur.value, prev.value) < 0


def test_best_approx_1d_spends_the_whole_budget():
    # ||q x|| - ||q' x|| for the last records 2040 and 1291 of x = 2 theta
    # is about -2^-13.4: a 14-bit budget decides it when read at 14 bits,
    # not at the 8 of the last doubling below
    from gplab.realnum import THETA, rmul

    x = rmul(Fraction(2), THETA)
    got = best_approx_1d(x, 3000, 14)
    assert [b.q for b in got] == [b.q for b in best_approx_1d(x, 3000)]
    assert got[-1].q == 2040


def test_cf_expand_composite_element():
    # an element with large coordinates still has an exactly detected period
    fld = NumberField((1, -4, 1), 3, 4, "t")
    x = fld.element(Fraction(22, 7), Fraction(15, 11))
    cf = cf_expand(x)
    assert cf.period  # eventually periodic, exactly detected
    conv = convergents(cf, 12)
    p, q = conv[-1]
    lo, hi = interval_of(x, 40)
    assert abs(p / q - float((lo + hi) / 2)) < 1e-8
