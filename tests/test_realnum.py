"""Tests for exact field arithmetic, interval streams and value operations."""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gplab.errors import DivisionByZero, PrecisionExhausted, PreconditionError
from gplab.realnum import (
    THETA,
    FieldElement,
    NumberField,
    RefinableReal,
    as_stream,
    compare,
    dist_of,
    floor_frac,
    frac_of,
    interval_of,
    is_exact_zero,
    nint_of,
    radd,
    rinv,
    rmul,
    rpow,
    rsub,
    sign_of,
    sqrt_interval,
    to_float,
)
from gplab.realnum.polys import count_real_roots, is_irreducible_low_degree

from oracles import (
    FractionFieldRef,
    floor_quadratic,
    irreducible_by_divisors,
    number_field_accepts,
    sturm_count_fraction,
)


@pytest.fixture(scope="module")
def phi_field():
    return NumberField((-1, -1, 1), 1, 2, "phi")


@pytest.fixture(scope="module")
def trib_field():
    return NumberField((-1, -1, -1, 1), 1, 2, "b")


def test_field_construction_rejects_reducible():
    with pytest.raises(PreconditionError):
        NumberField((-4, 0, 1), 1, 3)  # x^2 - 4 = (x-2)(x+2)
    with pytest.raises(PreconditionError):
        NumberField((1, -2, 1), 0, 2)  # (x-1)^2


def test_field_construction_rejects_bad_isolation():
    # x^2 - 2 has both roots in [-2, 2]
    with pytest.raises(PreconditionError):
        NumberField((-2, 0, 1), -2, 2)


ints = st.integers(min_value=-20, max_value=20)
endpoints = st.none() | st.fractions(min_value=-25, max_value=25, max_denominator=12)


@st.composite
def int_polys(draw):
    """Integer polynomials of degree 1-3; half of them times a linear factor
    q x - p, so rational and repeated roots are common."""
    deg = draw(st.integers(min_value=1, max_value=3))
    if deg > 1 and draw(st.booleans()):
        p, q = draw(ints), draw(st.integers(min_value=1, max_value=4))
        f = draw(st.lists(ints, min_size=deg - 1, max_size=deg - 1)) + [draw(ints.filter(bool))]
        return tuple(-p * c + q * d for c, d in zip(f + [0], [0] + f))
    return tuple(draw(st.lists(ints, min_size=deg, max_size=deg)) + [draw(ints.filter(bool))])


@given(int_polys(), endpoints, endpoints)
@example((-1, 3, -3, 1), Fraction(0), Fraction(1))  # (x - 1)^3, a root at hi
@example((2, -3, 0, 1), None, Fraction(1))  # (x - 1)^2 (x + 2)
@example((-2, 0, 1), Fraction(-3, 2), Fraction(3, 2))
def test_integer_sturm_count_matches_fraction_reference(p, lo, hi):
    assert count_real_roots(p, lo, hi) == sturm_count_fraction(p, lo, hi)


monic = st.builds(lambda cs: tuple(cs) + (1,), st.lists(ints, min_size=2, max_size=3))
small_monic = st.builds(
    lambda cs: tuple(cs) + (1,), st.lists(st.integers(-6, 6), min_size=2, max_size=3)
)
small_ends = st.fractions(min_value=-8, max_value=8, max_denominator=6)
widths = st.fractions(min_value=-1, max_value=4, max_denominator=6)


@settings(max_examples=300)
@given(small_monic, small_ends, widths)
@example((-1, -1, 1), Fraction(1), Fraction(1))
@example((-1, -1, -1, 1), Fraction(1), Fraction(1))
@example((-4, 0, 1), Fraction(1), Fraction(2))
@example((1, -2, 1), Fraction(0), Fraction(2))
@example((-2, 0, 1), Fraction(-2), Fraction(4))
@example((-3, -1, 1), Fraction(-2), Fraction(1))  # the negative root
@example((-2, 0, 1), Fraction(3, 2), Fraction(-1, 2))  # lo > hi
def test_number_field_accepts_what_the_fraction_rule_accepts(minpoly, lo, width):
    hi = lo + width
    try:
        NumberField(minpoly, lo, hi)
        accepted = True
    except PreconditionError:
        accepted = False
    assert accepted == number_field_accepts(minpoly, lo, hi)


@given(monic, st.integers(min_value=-300, max_value=300))
def test_irreducibility_matches_divisor_search(minpoly, r):
    assert is_irreducible_low_degree(minpoly) == irreducible_by_divisors(minpoly)
    if len(minpoly) == 3:  # times x - r: a cubic with the integer root r
        c0, c1, _ = minpoly
        assert not is_irreducible_low_degree((-r * c0, c0 - r * c1, c1 - r, 1))


def test_additive_inverse(phi_field):
    phi = phi_field.generator()
    assert (phi + (-phi)).is_zero()


def test_phi_squared_coords(phi_field):
    phi = phi_field.generator()
    assert (phi * phi).coords == (Fraction(1), Fraction(1))


def test_tribonacci_inverse(trib_field):
    b = trib_field.generator()
    inv = b.inverse()
    assert inv.coords == (Fraction(-1), Fraction(-1), Fraction(1))
    assert (b * inv) == 1


def test_inverse_of_zero_raises(phi_field):
    with pytest.raises(DivisionByZero):
        phi_field.zero().inverse()


def test_sign_examples(phi_field, trib_field):
    phi = phi_field.generator()
    assert phi_field.zero().sign() == 0
    assert (phi - 1).sign() == 1
    b = trib_field.generator()
    assert (b * b - 3 * b + 1).sign() == -1


def test_floor_frac_examples(phi_field):
    m, f = floor_frac(Fraction(7, 2))
    assert (m, f) == (3, Fraction(1, 2))
    phi = phi_field.generator()
    m, f = floor_frac(phi * 5)
    assert m == 8
    assert isinstance(f, FieldElement)
    assert f == phi * 5 - 8
    m, _ = floor_frac(-phi)
    assert m == -2


def test_floor_frac_matches_oracle(phi_field):
    phi = phi_field.generator()
    for n in list(range(1, 200)) + [12345, 99991]:
        elem = phi * n
        # n*phi = n/2 + (n/2) sqrt5
        expect = floor_quadratic(Fraction(n, 2), Fraction(n, 2), 5)
        assert floor_frac(elem)[0] == expect


def test_identities_on_field_elements(phi_field):
    phi = phi_field.generator()
    for n in range(-50, 50):
        x = phi * n + Fraction(n % 7, 3)
        m, f = floor_frac(x)
        assert (f + m) == x
        assert f.sign() >= 0
        assert (f - 1).sign() < 0
        assert nint_of(x) == floor_frac(radd(x, Fraction(1, 2)))[0]
        d = dist_of(x)
        fr = frac_of(x)
        alt = rsub(Fraction(1), fr)
        assert compare(d, fr) <= 0 and compare(d, alt) <= 0


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=60, deadline=None)
def test_field_arith_consistency_with_intervals(a, b):
    fld = NumberField((-2, 0, 1), 1, 2, "s")
    x = fld.element(a, b)
    y = fld.element(b, 1 - a)
    prod = x * y
    for k in (10, 30):
        xl, xh = interval_of(x, k)
        yl, yh = interval_of(y, k)
        pl, ph = interval_of(prod, k)
        cands = [xl * yl, xl * yh, xh * yl, xh * yh]
        assert min(cands) <= ph and pl <= max(cands)


def test_stream_nesting():
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    s = as_stream(sq2)
    prev = None
    for k in (4, 8, 16, 32, 64):
        lo, hi = s.interval(k)
        assert type(lo) is int and type(hi) is int and 0 <= hi - lo <= 2
        assert lo**2 <= 2 << (2 * k) <= hi**2
        if prev is not None:
            pk, plo, phi = prev
            assert plo << (k - pk) <= lo and hi <= phi << (k - pk)
        prev = (k, lo, hi)


def test_stream_determinism():
    vals = [THETA.interval(40) for _ in range(3)]
    assert vals[0] == vals[1] == vals[2]


def test_mixed_field_product_via_intervals():
    sq2 = NumberField((-2, 0, 1), 1, 2).generator()
    sq3 = NumberField((-3, 0, 1), 1, 2).generator()
    prod = rmul(sq2, sq3)
    lo, hi = interval_of(prod, 50)
    assert hi - lo <= Fraction(1, 2**50)
    assert abs(float((lo + hi) / 2) - 6**0.5) < 1e-12


def test_zero_absorbs_stream():
    assert rmul(THETA, Fraction(0)) == 0
    assert rmul(Fraction(0), THETA) == 0


def test_theta_products_decidable():
    for m in (1, -3, 65536, 123456789):
        m_theta = rmul(THETA, Fraction(m))
        fl, _ = floor_frac(m_theta)
        lo, hi = interval_of(m_theta, 80)
        assert fl <= lo and hi < fl + 1


def test_floor_frac_stream_boundary_raises():
    # 2 * 2^k - 1 <= x * 2^k <= 2 * 2^k: x may be exactly 2, so no floor is certain
    exact_int = RefinableReal(lambda k: ((2 << k) - 1, 2 << k), "two")
    with pytest.raises(PrecisionExhausted):
        floor_frac(exact_int, max_bits=256)


@pytest.mark.parametrize("max_bits", [12, 100])
def test_sign_and_floor_spend_the_whole_budget(max_bits):
    # the ladder doubles from 4 bits and ends at max_bits itself, not at
    # the last doubling below it
    for decide, x0 in ((sign_of, 0), (floor_frac, 2)):
        read = []

        def at(k, x0=x0, read=read):
            read.append(k)
            return (x0 << k) - 1, x0 << k  # x may be exactly x0: never decided

        with pytest.raises(PrecisionExhausted):
            decide(RefinableReal(at, "stuck"), max_bits)
        assert read[-1] == max_bits and read == sorted(read), read


def test_compare_exact_vs_stream():
    sq2 = NumberField((-2, 0, 1), 1, 2).generator()
    assert compare(sq2, Fraction(3, 2)) < 0
    assert compare(sq2, Fraction(7, 5)) > 0
    assert sign_of(rsub(rpow(sq2, 2), Fraction(2))) == 0


def test_rpow_negative_exponent(phi_field):
    phi = phi_field.generator()
    v = rpow(phi, -2)
    assert abs(to_float(v) - 1 / (1.618033988749895**2)) < 1e-12


_TRIB = NumberField((-1, -1, -1, 1), 1, 2, "b")
_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def _exact_values(draw):
    """A Fraction or an element of the Tribonacci field."""
    if draw(st.booleans()):
        return draw(_rationals)
    return _TRIB.element(*(draw(_rationals) for _ in range(3)))


def _coords(x):
    return x.coords if isinstance(x, FieldElement) else (x, Fraction(0), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(_exact_values(), _exact_values(), st.integers(-4, 4))
def test_exact_operands_use_their_own_operators(x, y, e):
    # rationals and elements of one field combine with their own operators;
    # the value is the one the promotion of both into the field gives,
    # computed on the Fraction-coordinate reference
    ref = FractionFieldRef(_TRIB.minpoly)
    a, b = _coords(x), _coords(y)
    both_rational = type(x) is Fraction and type(y) is Fraction
    for got, want in (
        (radd(x, y), ref.add(a, b)),
        (rsub(x, y), ref.sub(a, b)),
        (rmul(x, y), ref.mul(a, b)),
    ):
        assert type(got) is (Fraction if both_rational else FieldElement)
        assert _coords(got) == want
    if not any(a) and e < 0:
        with pytest.raises(DivisionByZero):
            rpow(x, e)
    else:
        assert _coords(rpow(x, e)) == ref.pow(a, e)


def test_elements_of_two_fields_combine_as_streams(phi_field):
    sq2 = NumberField((-2, 0, 1), 1, 2).generator()
    phi = phi_field.generator()
    for got, want in (
        (radd(sq2, phi), 2**0.5 + 1.618033988749895),
        (rsub(sq2, phi), 2**0.5 - 1.618033988749895),
        (rmul(sq2, phi), 2**0.5 * 1.618033988749895),
    ):
        assert isinstance(got, RefinableReal)
        assert abs(to_float(got) - want) < 1e-12


_SQ2 = NumberField((-2, 0, 1), 1, 2, "s")
_MP_PREC = 2400
_mp_roots: dict = {}


@st.composite
def _stream_operands(draw):
    """A Fraction, an element of Q(sqrt 2) or of the Tribonacci field, or THETA."""
    kind = draw(st.sampled_from(("rational", "sqrt2", "trib", "theta")))
    if kind == "rational":
        return draw(_rationals)
    if kind == "theta":
        return THETA
    fld = _SQ2 if kind == "sqrt2" else _TRIB
    return fld.element(*(draw(_rationals) for _ in range(fld.degree)))


def _exact(x):
    """x as a Fraction or an irrational field element; None for THETA."""
    if x is THETA:
        return None
    if type(x) is FieldElement and x.is_rational():
        return x.as_rational()
    return x


def _mp(x):
    """x in mpmath at the working precision: a field's root bracketed in its
    isolating interval, THETA summed to an omitted tail below 2^-4000."""
    if x is THETA:
        return mpmath.fsum(mpmath.ldexp(1, -(2**j)) for j in range(1, 13))
    if type(x) is Fraction:
        return mpmath.mpf(x.numerator) / x.denominator
    fld = x.field
    root = _mp_roots.get(fld)
    if root is None:
        lo, hi = (mpmath.mpf(c.numerator) / c.denominator for c in fld.isolating_interval)
        poly = lambda t: sum(c * t**i for i, c in enumerate(fld.minpoly))  # noqa: E731
        root = _mp_roots[fld] = mpmath.findroot(poly, (lo, hi), solver="illinois")
    return sum(mpmath.mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(x.coords))


@settings(max_examples=60, deadline=None)
@given(
    _stream_operands(),
    _stream_operands(),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.permutations((1, 8, 64, 200)),
)
# the 1-bit answer must hold the 8-bit one, though a 64-bit answer is cached
@example(THETA, _SQ2.element(Fraction(12, 5), Fraction(-377, 14)), 1, (8, 64, 1, 200))
def test_stream_arithmetic_keeps_the_integer_enclosure_contract(x, y, e, order):
    # the left operand enters as a stream, so each result comes from stream
    # arithmetic; it is checked against exact arithmetic where both operands
    # live in one field (a rational lives in every field), else against mpmath
    cases = [
        (radd(as_stream(x), y), operator.add, (x, y)),
        (rsub(as_stream(x), y), operator.sub, (x, y)),
        (rmul(as_stream(x), y), operator.mul, (x, y)),
    ]
    if not is_exact_zero(x):
        cases.append((rinv(as_stream(x)), lambda a: 1 / a, (x,)))
        cases.append((rpow(as_stream(x), e), lambda a: a**e, (x,)))
    for got, fn, args in cases:
        if is_exact_zero(got):
            assert is_exact_zero(y)  # a product with an exact zero is exact
            continue
        assert type(got) is RefinableReal
        exact = [_exact(a) for a in args]
        one_field = None not in exact and (
            len({a.field for a in exact if type(a) is FieldElement}) <= 1
        )
        with mpmath.workprec(_MP_PREC):
            value = fn(*exact) if one_field else fn(*(_mp(a) for a in args))
            answers = {}
            for bits in order:
                lo, hi = answers[bits] = got.interval(bits)
                assert type(lo) is int and type(hi) is int and 0 <= hi - lo <= 2
                if one_field:
                    scaled = rmul(value, Fraction(1 << bits))
                    assert sign_of(rsub(scaled, Fraction(lo))) >= 0
                    assert sign_of(rsub(Fraction(hi), scaled)) >= 0
                else:
                    assert lo <= mpmath.ldexp(value, bits) <= hi
        bits = sorted(answers)
        for b1, b2 in zip(bits, bits[1:]):
            (lo1, hi1), (lo2, hi2) = answers[b1], answers[b2]
            assert lo1 << (b2 - b1) <= lo2 and hi2 <= hi1 << (b2 - b1)


def test_sqrt_interval_rounds_its_upper_end_up():
    # sqrt(9/32) = 0.530..., above the 1/2 that flooring 9/32 * 2^4 gives
    lo, hi = sqrt_interval(Fraction(1, 4), Fraction(9, 32), 1)
    assert lo <= Fraction(1, 2) and lo**2 <= Fraction(1, 4)
    assert hi**2 >= Fraction(9, 32)
    assert hi - lo <= Fraction(1, 4)
