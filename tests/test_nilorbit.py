"""Tests for the Heisenberg simulator."""

from fractions import Fraction
from math import comb

import pytest

from gplab.errors import PreconditionError
from gplab.nilorbit import (
    OrbitSpec,
    default_orbit_spec,
    elem,
    equidist_stats,
    growth_count,
    heis_inv,
    heis_mul,
    heis_pow,
    heis_reduce,
    orbit_point,
    small_value_indicator,
)
from gplab.realnum import NumberField, compare, interval_of, to_float

from oracles import frac_quadratic, floor_quadratic


@pytest.fixture(scope="module")
def sq2():
    return NumberField((-2, 0, 1), 1, 2, "sqrt2").generator()


@pytest.fixture(scope="module")
def sq3():
    return NumberField((-3, 0, 1), 1, 2, "sqrt3").generator()


def test_group_law_examples():
    assert tuple(heis_mul(elem(1, 0, 0), elem(0, 1, 0))) == (1, 1, 1)
    assert tuple(heis_mul(elem(0, 1, 0), elem(1, 0, 0))) == (1, 1, 0)


def test_inverse_mixed_fields(sq2, sq3):
    g = elem(sq2, sq3, Fraction(1, 2))
    prod = heis_mul(g, heis_inv(g))
    for coord in prod:
        lo, hi = interval_of(coord, 64)
        assert lo <= 0 <= hi and hi - lo <= Fraction(1, 2**62)


def test_reduce_example(sq2, sq3):
    frac, integral = heis_reduce(elem(-sq2, sq3, 0))
    vals = [to_float(v) for v in frac]
    assert abs(vals[0] - 0.5857864376269049) < 1e-12
    assert abs(vals[1] - 0.7320508075688772) < 1e-12
    assert abs(vals[2] - 0.41421356237309515) < 1e-12
    assert tuple(integral) == (-2, 1, -1)
    back = heis_mul(frac, integral)
    for a, b in zip(back, elem(-sq2, sq3, 0)):
        assert compare(a, b) == 0


def test_reduce_fixed_points():
    frac, integral = heis_reduce(elem(3, -4, 7))
    assert tuple(frac) == (0, 0, 0)
    assert tuple(integral) == (3, -4, 7)
    frac2, int2 = heis_reduce(elem(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert tuple(frac2) == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert tuple(int2) == (0, 0, 0)


def test_orbit_point_examples(sq2):
    spec = default_orbit_spec()
    assert tuple(orbit_point(spec, 0)) == (0, 0, 0)
    p5 = orbit_point(spec, 5)
    # third coordinate = {5 sqrt2 * floor(5 sqrt3)} = {40 sqrt2}
    expect = frac_quadratic(Fraction(0), Fraction(40), 2)
    got = to_float(p5.z)
    approx = float(expect[0]) + float(expect[1]) * 2**0.5
    assert abs(got - approx) < 1e-12


def test_third_coordinate_identity_oracle():
    # z = {n sqrt2 floor(n sqrt3)}, exactly, against the integer oracle
    spec = default_orbit_spec()
    for n in range(1, 200):
        p = orbit_point(spec, n)
        m = floor_quadratic(Fraction(0), Fraction(n), 3)
        fp, fq = frac_quadratic(Fraction(0), Fraction(n * m), 2)
        assert (p.z - (spec.alpha * fq + fp)).is_zero(), n


def test_polynomial_sequence_identity_same_field(sq2):
    # [-a, b, 0]^n [0,0,ab]^C(n,2) = [-na, nb, 0], exactly within one field
    fld = sq2.field
    a = sq2
    b = fld.one() + sq2
    ab = a * b
    for n in range(51):
        lhs = heis_mul(heis_pow(elem(-a, b, 0), n), elem(0, 0, ab * comb(n, 2)))
        assert compare(lhs.x, -a * n) == 0
        assert compare(lhs.y, b * n) == 0
        assert compare(lhs.z, Fraction(0)) == 0


def test_polynomial_sequence_identity_mixed(sq2, sq3):
    from gplab.realnum import rmul

    for n in (2, 7, 25, 50):
        central = elem(0, 0, rmul(rmul(sq2, sq3), Fraction(comb(n, 2))))
        lhs = heis_mul(heis_pow(elem(-sq2, sq3, 0), n), central)
        assert compare(lhs.x, rmul(Fraction(-n), sq2)) == 0
        assert compare(lhs.y, rmul(Fraction(n), sq3)) == 0
        lo, hi = interval_of(lhs.z, 80)
        assert lo <= 0 <= hi and hi - lo < Fraction(1, 2**70)


def test_growth_small_c_counts_everything():
    spec = default_orbit_spec(Fraction(1, 20))
    rows = growth_count(spec, (10**3,))
    assert rows[0].count == 999 and rows[0].skipped == 0


def test_growth_nontrivial_regime_matches_oracle():
    spec = default_orbit_spec(Fraction(9, 20))
    rows = growth_count(spec, (2000,))
    count = rows[0].count
    expected = 0
    for n in range(1, 2000):
        m = floor_quadratic(Fraction(0), Fraction(n), 3)
        num, den = 9, 20
        # ||n m sqrt2|| < n^(-9/20)  <=>  ||.||^20 n^9 < 1; oracle via floats
        # with a wide safety band, falling back to the package only at the band
        fp, fq = frac_quadratic(Fraction(0), Fraction(n * m), 2)
        dist = min(float(fp) + float(fq) * 2**0.5, 1 - float(fp) - float(fq) * 2**0.5)
        thr = float(n) ** (-num / den)
        if abs(dist - thr) < 1e-6:
            expected += small_value_indicator(spec, n)
        elif dist < thr:
            expected += 1
    assert count == expected
    assert rows[0].count > 0


def test_growth_f0_is_zero():
    spec = default_orbit_spec(Fraction(1, 20))
    assert small_value_indicator(spec, 0) == 0
    rows = growth_count(spec, (1,))
    assert rows[0].count == 0


def test_equidist_trivial_cases():
    spec = default_orbit_spec()
    table, disc = equidist_stats(spec, 0, 2)
    assert disc == 0.0 and all(b.count == 0 for b in table)
    table1, disc1 = equidist_stats(spec, 500, 1)
    assert table1[0].count == 500 and disc1 < 1e-12


def test_equidist_discrepancy_small():
    spec = default_orbit_spec()
    _, disc = equidist_stats(spec, 10**5, 4)
    assert disc < 0.02


def test_exact_fallbacks_agree_with_the_fixed_point_screens():
    # at an 8-bit budget the fixed-point screens leave nearly every point
    # open, so the counts come from the exact fallbacks, which read
    # orbit_point; at the default budget the screens decide them
    spec = default_orbit_spec(Fraction(1, 3))
    assert growth_count(spec, (2000,), max_bits=8) == growth_count(spec, (2000,))
    assert equidist_stats(spec, 1500, 3, max_bits=8) == equidist_stats(spec, 1500, 3)


def test_orbit_spec_validation(sq2, sq3):
    with pytest.raises(PreconditionError):
        OrbitSpec(sq2, sq3, Fraction(3, 2))
    with pytest.raises(PreconditionError):
        orbit_point(default_orbit_spec(), -1)


def _heisenberg_q(sq2, sq3):
    # ||n sqrt2 floor(n sqrt3)||, the distance term of the Heisenberg set
    from gplab.gpexpr import Const, Dist, Floor, Mul, N

    return Dist(Mul(Mul(N, Const("sqrt2", sq2)), Floor(Mul(N, Const("sqrt3", sq3)))))


def _spy_exact(monkeypatch):
    # the points a compiled program sends to exact mode, in order
    from gplab.gpexpr.evaluate import Program

    exact = Program.eval_exact
    calls = []

    def spy(self, n, *args):
        calls.append(n)
        return exact(self, n, *args)

    monkeypatch.setattr(Program, "eval_exact", spy)
    return calls


@pytest.mark.parametrize("c, size", [(Fraction(1, 3), 13), (Fraction(9, 20), 0)])
def test_heisenberg_indicator_decides_in_dyadic_mode(monkeypatch, sq2, sq3, c, size):
    # small_fp_family's indicator of ||n sqrt2 floor(n sqrt3)|| < n^-c at
    # n ~ 1e6: at c = 9/20 its range test is d^20 n^9 < 1, which the dyadic
    # pass decides at every point, so no point reaches exact mode; members
    # agree with the orbit simulator at every point
    from gplab.constructions import small_fp_family
    from gplab.gpexpr import N, members

    window = range(10**6, 10**6 + 500)
    calls = _spy_exact(monkeypatch)
    found = members(small_fp_family(_heisenberg_q(sq2, sq3), N, -c), window[0], window[-1])
    monkeypatch.undo()
    spec = OrbitSpec(sq2, sq3, c)
    assert found == [n for n in window if small_value_indicator(spec, n)]
    assert len(found) == size
    assert len(calls) <= len(window) // 10
    assert calls == []


@pytest.mark.parametrize("c", [Fraction(1, 20), Fraction(1, 3), Fraction(9, 20)])
def test_heisenberg_indicator_matches_small_value_indicator(sq2, sq3, c):
    from gplab.constructions import small_fp_family
    from gplab.gpexpr import N, members

    spec = OrbitSpec(sq2, sq3, c)
    found = members(small_fp_family(_heisenberg_q(sq2, sq3), N, -c), 1, 2000)
    assert found == [n for n in range(1, 2001) if small_value_indicator(spec, n)]


@pytest.mark.parametrize(
    "c, lo, hi, max_exact",
    [
        (Fraction(1, 20), 1, 3000, 0),
        (Fraction(1, 3), 1, 3000, 0),
        (Fraction(1, 3), 10**6, 10**6 + 499, 0),
        (Fraction(9, 20), 1, 3000, 102),
        (Fraction(9, 20), 10**6, 10**6 + 499, 0),
    ],
)
def test_heisenberg_indicator_matches_the_squared_offset_form(
    monkeypatch, sq2, sq3, c, lo, hi, max_exact
):
    # ||x|| tested directly keeps the exponents of the squared offset
    # x - nint(x) halved, and with them the bits its range test loses
    from gplab.constructions import small_fp_family
    from gplab.gpexpr import N, members

    from oracles import small_fp_squared

    q = _heisenberg_q(sq2, sq3)
    calls = _spy_exact(monkeypatch)
    found = members(small_fp_family(q, N, -c), lo, hi)
    monkeypatch.undo()
    assert len(calls) <= max_exact
    assert found == members(small_fp_squared(q, N, -c), lo, hi)
