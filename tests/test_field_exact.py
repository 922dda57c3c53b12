"""Integer-coordinate field arithmetic against references.

The ring operations are checked against Fraction-coordinate arithmetic,
signs, floors and the dyadic root brackets against mpmath at 250
digits (more for the deep root grids), and the unrolled enclosure kernel
against the polynomial-helper form it replaced and the order queries built
on it against exact quadratic-surd comparisons.
"""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.constructions import cubic_pisot_set
from gplab.constructions.cubic import _cubic_field
from gplab.realnum import NumberField, dyadic_enclosure

from oracles import (
    FractionFieldRef,
    dyadic_enclosure_reference,
    floor_quadratic,
    poly_eval,
    quad_lt,
    tribonacci_R,
)

PHI = ((-1, -1, 1), 1, 2)
TRIB = ((-1, -1, -1, 1), 1, 2)
FIELDS = {2: NumberField(*PHI, "phi"), 3: NumberField(*TRIB, "b")}
REFS = {d: FractionFieldRef(f.minpoly) for d, f in FIELDS.items()}

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40)


def coords(deg):
    return st.tuples(*[rationals] * deg)


def assert_canonical(x):
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert all(isinstance(n, int) for n in x.num)


@pytest.mark.parametrize("deg", [2, 3])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_integer_coordinates_match_fraction_reference(deg, data):
    field, ref = FIELDS[deg], REFS[deg]
    a, b = data.draw(coords(deg)), data.draw(coords(deg))
    x, y = field.element(*a), field.element(*b)
    assert x.coords == a  # coords round-trip
    assert field.element(*x.coords) == x
    for got, want in [
        (x + y, ref.add(a, b)),
        (x - y, ref.sub(a, b)),
        (x * y, ref.mul(a, b)),
        (x * Fraction(3, 4), ref.mul(a, (Fraction(3, 4),) + (Fraction(0),) * (deg - 1))),
        (5 - x, ref.sub((Fraction(5),) + (Fraction(0),) * (deg - 1), a)),
        (Fraction(3, 4) - x, ref.sub((Fraction(3, 4),) + (Fraction(0),) * (deg - 1), a)),
        (x - Fraction(3, 4), ref.sub(a, (Fraction(3, 4),) + (Fraction(0),) * (deg - 1))),
    ]:
        assert got.coords == want
        assert_canonical(got)
    if any(b):
        inv = y.inverse()
        assert inv.coords == ref.inverse(b)
        assert_canonical(inv)
        k = data.draw(st.integers(min_value=1, max_value=3))
        assert (y**-k).coords == ref.pow(b, -k)
        assert (x / y) * y == x
    # one canonical form however the element was reached
    z = (x * 6 + y) / 6 - y / 6
    assert z == x and hash(z) == hash(x) and (z.num, z.den) == (x.num, x.den)


@pytest.mark.parametrize("deg", [2, 3])
def test_canonical_form_of_equal_rationals(deg):
    field = FIELDS[deg]
    half = field.element(Fraction(1, 2))
    assert field.element(Fraction(2, 4)) == half
    assert hash(field.element(Fraction(2, 4))) == hash(half)
    assert (half.num, half.den) == ((1,) + (0,) * (deg - 1), 2)
    assert field.element(Fraction(2, 4), Fraction(-6, 8)) == field.element(
        Fraction(1, 2), Fraction(-3, 4)
    )
    assert half * 2 == 1 and half * 2 == field.one() and hash(half * 2) == hash(field.one())
    zero = half - half
    assert zero.is_zero() and (zero.num, zero.den) == ((0,) * deg, 1)


def _mp_value(x, root):
    return sum(mpmath.mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(x.coords))


def _mp_root(minpoly, start, prec):
    with mpmath.workprec(prec):
        return mpmath.findroot(lambda t: sum(c * t**i for i, c in enumerate(minpoly)), start)


def test_sign_and_floor_match_mpmath_near_tribonacci_terms():
    field = NumberField(*TRIB, "b")
    theta1 = field.generator().inverse()
    terms = [q for q in tribonacci_R(10**17) if q >= 10**15]
    assert len(terms) >= 4
    with mpmath.workdps(250):
        root = _mp_root(field.minpoly, 1.839, 900)
        th = 1 / root
        for q in terms + [t + 1 for t in terms] + [t - 7 for t in terms]:
            x = theta1 * q - (theta1 * q).nint()
            v = q * th - mpmath.nint(q * th)
            assert abs(_mp_value(x, root) - v) < mpmath.mpf(10) ** -200
            assert x.sign() == (1 if v > 0 else -1)
            assert x.floor() == int(mpmath.floor(v))
            assert (theta1 * q).floor() == int(mpmath.floor(q * th))
            # deep digits: the integer part of x * 10^24 (x is about 1e-8)
            assert (x * 10**24).floor() == int(mpmath.floor(v * mpmath.mpf(10) ** 24))
            shifted = v * mpmath.mpf(10) ** 24 + mpmath.mpf(1) / 3
            assert (x * 10**24 + Fraction(1, 3)).sign() == (1 if shifted > 0 else -1)


@pytest.mark.parametrize("deg,start", [(2, 1.618), (3, 1.839)])
def test_dyadic_enclosure_contains_mpmath_value(deg, start):
    field = FIELDS[deg]
    rng = random.Random(deg)
    with mpmath.workdps(250):
        root = _mp_root(field.minpoly, start, 900)
        for _ in range(400):
            size = 10 ** rng.randint(1, 20)
            x = field.element(
                *[Fraction(rng.randint(-size, size), rng.randint(1, 999)) for _ in range(deg)]
            )
            bits = rng.randint(1, 400)
            lo, hi = dyadic_enclosure(x, bits)
            v = _mp_value(x, root) * mpmath.mpf(2) ** bits
            assert lo <= v <= hi and hi - lo <= 2


@pytest.fixture(scope="module")
def tribonacci_cons():
    return cubic_pisot_set(1, 1)


def test_plateau_gap_is_exactly_zero_at_members(tribonacci_cons):
    cons = tribonacci_cons
    beta_k = cons.beta**cons.plateau_pow
    with mpmath.workdps(250):
        root = _mp_root(cons.field.minpoly, 1.839, 900)
        for q in [t for t in tribonacci_R(10**15) if t >= 10**6][:4]:
            v = cons.h_sq(q) * cons.g_value(q)
            gap = v * v - beta_k
            assert gap.is_zero() and gap.sign() == 0 and gap.floor() == 0
            assert abs(_mp_value(v, root) ** 2 - root**cons.plateau_pow) < mpmath.mpf(10) ** -200
            # off the recurrence the product lies strictly above its plateau
            w = cons.h_sq(q + 1) * cons.g_value(q + 1)
            above = w * w - beta_k
            mp_above = _mp_value(w, root) ** 2 - root**cons.plateau_pow
            assert mp_above > mpmath.mpf(10) ** -200
            assert above.sign() == 1 and above.floor() == int(mpmath.floor(mp_above))


@pytest.mark.parametrize("newton", [True, False])
@pytest.mark.parametrize("spec,start", [(PHI, 1.618), (TRIB, 1.839), (((1, -4, 1), 3, 4), 3.732)])
def test_dyadic_root_brackets_mpmath_root(spec, start, newton):
    field = NumberField(*spec)  # fresh: refinement starts from the base bracket
    if not newton:
        # a zero derivative skips every Newton step: the bisection fallback alone
        field._dpoly = (0,) * field.degree
    root = _mp_root(field.minpoly, start, 8192 + 128)
    fr = [Fraction(c) for c in field.minpoly]
    for g in (96, 4096, 8192, 96):  # the last one is read off the finer grid
        lo, hi = field.root_enclosure(g)
        assert hi - lo <= 2
        with mpmath.workprec(8192 + 128):
            scaled = root * mpmath.mpf(2) ** g
            assert lo <= scaled <= hi
        # certified: a sign change of the minimal polynomial across the
        # stored unit bracket, which is at least as fine as the grid asked for
        cur, a = field._root_grid
        assert cur >= g
        rlo, rhi = Fraction(a, 1 << cur), Fraction(a + 1, 1 << cur)
        assert poly_eval(fr, rlo) * poly_eval(fr, rhi) < 0
        ilo, ihi = field.isolating_interval
        assert ilo < rlo < rhi < ihi


# the generator as (s + sqrt(d)) / t, for the exact surd oracles
QUADRATIC_KERNEL_FIELDS = {
    "sqrt2": (NumberField((-2, 0, 1), 1, 2, "s"), (0, 2, 1)),
    "phi": (NumberField(*PHI, "phi"), (1, 5, 2)),
    "sqrt3": (NumberField((-3, 0, 1), 1, 2, "s"), (0, 3, 1)),
    "x2-3x+1": (NumberField((1, -3, 1), 2, 3, "b"), (3, 5, 2)),
}
KERNEL_FIELDS = {name: field for name, (field, _) in QUADRATIC_KERNEL_FIELDS.items()}
KERNEL_FIELDS.update({f"cubic({a},{b})": _cubic_field(a, b) for a, b in [(1, 1), (2, 1), (2, -1)]})
KERNEL_BITS = (0, 1, 3, 64, 65, 97, 192, 1000)


@st.composite
def kernel_elements(draw, field):
    """Field elements with coordinates up to 2^300 over denominators up to
    2^80, rational ones, and powers of the generator plus a small rational
    (within a tiny distance of an integer, where the ladder climbs)."""
    den = draw(st.integers(1, 2**80))
    kind = draw(st.sampled_from(["any", "rational", "near-integer"]))
    if kind == "near-integer":
        k = draw(st.integers(0, 120))
        x = field.generator() ** k * draw(st.sampled_from([1, -1]))
        return x + Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, den])))
    nums = [draw(st.integers(-(2**300), 2**300)) for _ in range(field.degree)]
    if kind == "rational":
        nums[1:] = [0] * (field.degree - 1)
    return field.element(*(Fraction(n, den) for n in nums))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dyadic_enclosure_matches_reference(name, data):
    field = KERNEL_FIELDS[name]
    x = data.draw(kernel_elements(field))
    for bits in KERNEL_BITS:
        assert dyadic_enclosure(x, bits) == dyadic_enclosure_reference(x, bits)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_dyadic_enclosure_matches_reference_on_small_elements(name):
    # every element with coordinates in [-3, 3] over small denominators, at
    # every precision up to 40 bits: the roundings at the ends of the
    # interval show here, where the scaled interval is only a few cells wide
    field = KERNEL_FIELDS[name]
    for den in (1, 2, 3, 7):
        for nums in itertools.product(range(-3, 4), repeat=field.degree):
            x = field.element(*(Fraction(n, den) for n in nums))
            for bits in range(41):
                assert dyadic_enclosure(x, bits) == dyadic_enclosure_reference(x, bits)


def _surd(x, form):
    """x = p + q * sqrt(d) for the generator (s + sqrt(d)) / t."""
    s, d, t = form
    n0, n1 = x.coords
    return n0 + n1 * s / t, n1 / t, d


@pytest.mark.parametrize("name", sorted(QUADRATIC_KERNEL_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_order_queries_match_surd_oracle(name, data):
    field, form = QUADRATIC_KERNEL_FIELDS[name]
    x, y = data.draw(kernel_elements(field)), data.draw(kernel_elements(field))
    r = Fraction(data.draw(st.integers(-(2**300), 2**300)), data.draw(st.integers(1, 2**80)))
    p, q, d = _surd(x, form)
    py, qy, _ = _surd(y, form)
    assert x.sign() == (0 if p == q == 0 else -1 if quad_lt(p, q, d, 0) else 1)
    assert x.floor() == floor_quadratic(p, q, d)
    assert x.nint() == floor_quadratic(p + Fraction(1, 2), q, d)
    want = 0 if (p, q) == (py, qy) else -1 if quad_lt(p - py, q - qy, d, 0) else 1
    assert x.compare(y) == want and y.compare(x) == -want
    want_r = 0 if (p, q) == (r, 0) else -1 if quad_lt(p, q, d, r) else 1
    assert x.compare(r) == want_r and (x < r) == (want_r < 0)
    assert (r - x) == -(x - r) and (x - y) + y == x
