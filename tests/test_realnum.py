"""Tests for exact field arithmetic, interval streams and value operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.errors import DivisionByZero, PrecisionExhausted, PreconditionError
from gplab.realnum import (
    THETA,
    FieldElement,
    NumberField,
    RefinableReal,
    compare,
    dist_of,
    floor_frac,
    frac_of,
    interval_of,
    nint_of,
    radd,
    rmul,
    rpow,
    rsub,
    sign_of,
    to_float,
)

from oracles import FractionFieldRef, floor_quadratic


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
    from gplab.realnum import as_stream

    s = as_stream(sq2)
    prev = None
    for k in (4, 8, 16, 32, 64):
        lo, hi = s.interval(k)
        assert hi - lo <= Fraction(1, 2**k)
        if prev is not None:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)


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
    exact_int = RefinableReal(lambda k: (Fraction(2) - Fraction(1, 2 ** (k + 1)), Fraction(2)), "two")
    with pytest.raises(PrecisionExhausted):
        floor_frac(exact_int, max_bits=256)


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
