"""Record and growth scans against exhaustive exact scans.

The fixed-point prefilters in ``growth_count`` and ``equidist_stats`` must
give the outputs of deciding every point exactly.  Small ``max_bits``
budgets make the enclosures coarse, so every error term of the screens is
exercised: an enclosure that is too narrow would settle a growth point
wrongly.  ``best_approx_2d`` decides only the q its lattice boxes propose;
its records must equal the exhaustive scan's for the Rauzy norms and for
adversarial ones, and stay equal when the enclosures the boxes read are
loosened by up to one unit, which keeps every box finite.
``best_approx_1d`` has no screen: it reads the convergent denominators off
the complete-quotient walk, and must give the records of the exhaustive
scan at every budget too, for rationals, quadratic and cubic elements and
streams.
"""

from fractions import Fraction

import pytest

import gplab.cf
import gplab.nilorbit
from gplab.cf import RauzyNorm, best_approx_1d, best_approx_2d
from gplab.constructions import cubic_pisot_set
from gplab.errors import PrecisionExhausted
from gplab.nilorbit import default_orbit_spec, equidist_stats, growth_count, orbit_point
from gplab.realnum import (
    THETA,
    FieldElement,
    NumberField,
    NeedBits,
    RefinableReal,
    compare,
    dist_iv,
    fixed_enclosure,
    floor_iv,
    floor_frac,
    interval_of,
    mul_iv,
    prefilter_bits,
    rmul,
    scale_iv,
)

from oracles import best_approx_1d_exhaustive, best_approx_2d_exhaustive, growth_count_exhaustive

# budgets from "every q falls back to exact" up to the default derivation
COARSE_BITS = (12, 16, 20, 24, 28, 32, 40, 48)


def _quadratic(minpoly, lo, hi, shift=0):
    return NumberField(minpoly, lo, hi, "s").generator() + shift


ONE_D = {
    "sqrt2": lambda: _quadratic((-2, 0, 1), 1, 2),
    "phi": lambda: _quadratic((-1, -1, 1), 1, 2),
    "2+sqrt3": lambda: _quadratic((-3, 0, 1), 1, 2, 2),
    "1393/985": lambda: Fraction(1393, 985),  # a sqrt2 convergent: the records stop
    "tribonacci": lambda: NumberField((-1, -1, -1, 1), 1, 2, "b").generator(),
    "-sqrt2": lambda: -_quadratic((-2, 0, 1), 1, 2),
    "7/2": lambda: Fraction(7, 2),  # ||x|| = 1/2: q = 1 takes p = nint(x) = 4
    "2theta": lambda: rmul(Fraction(2), THETA),  # a stream with a_1 = 1
}


@pytest.fixture(scope="module")
def one_d_oracles():
    out = {}
    for name, make in ONE_D.items():
        x = make()
        out[name] = (x, best_approx_1d_exhaustive(x, 3000))
    return out


def test_fixed_enclosure_contract():
    s2 = _quadratic((-2, 0, 1), 1, 2)
    for x in (s2, -s2 * 7 + Fraction(1, 3), Fraction(-5, 3), Fraction(4), THETA):
        for bits in (1, 2, 17, 64, 200):
            lo, hi = fixed_enclosure(x, bits)
            assert 0 <= hi - lo <= 2
            a, b = interval_of(x, bits + 8)
            assert Fraction(lo, 1 << bits) <= a and b <= Fraction(hi, 1 << bits)


def test_interval_kernels_against_every_point():
    bits = 4
    one = 1 << bits
    for lo in range(-40, 40):
        for hi in range(lo, lo + 20):
            points = range(lo, hi + 1)
            try:
                f = floor_iv((lo, hi), bits)
            except NeedBits:
                assert len({v >> bits for v in points}) > 1
                continue
            assert {v >> bits for v in points} == {f}
            dists = [min(v % one, one - v % one) for v in points]
            assert dist_iv((lo, hi), bits) == (min(dists), max(dists))
            for k in (-3, -1, 0, 2):
                klo, khi = scale_iv(k, (lo, hi))
                assert klo <= khi and {klo, khi} == {k * lo, k * hi}
            for other in ((-7, -3), (-2, 5), (3, 9)):
                prods = [v * u for v in points for u in range(other[0], other[1] + 1)]
                assert mul_iv((lo, hi), other, bits) == (
                    min(prods) >> bits,
                    -(-max(prods) >> bits),
                )


def test_prefilter_bits_never_exceed_the_budget():
    assert prefilter_bits(12, 4096) == 76
    assert prefilter_bits(12, 40) == 40
    assert prefilter_bits(12, 0) == 1


@pytest.mark.parametrize("name", sorted(ONE_D))
def test_best_approx_1d_matches_exhaustive(one_d_oracles, name):
    x, want = one_d_oracles[name]
    got = best_approx_1d(x, 3000)
    assert [(b.q, b.p[0]) for b in got] == want
    if name == "1393/985":
        assert got[-1].q == 985 and got[-1].value == 0
    if not isinstance(x, RefinableReal):  # equal streams never compare
        assert all(compare(rmul(b.value, b.value), b.value_sq) == 0 for b in got)


@pytest.mark.parametrize("name", sorted(ONE_D))
def test_best_approx_1d_coarse_budgets(one_d_oracles, name):
    x, want = one_d_oracles[name]
    for max_bits in COARSE_BITS:
        if name == "2theta" and max_bits == 12:
            # a 12-bit reading of a difference is up to 2^-11 wide, and
            # ||1291 x|| - ||749 x|| is about -2^-12
            with pytest.raises(PrecisionExhausted):
                best_approx_1d(x, 3000, max_bits)
            continue
        got = best_approx_1d(x, 3000, max_bits)
        assert [(b.q, b.p[0]) for b in got] == want, max_bits


def test_best_approx_1d_on_a_stream():
    want = best_approx_1d_exhaustive(THETA, 3000)
    assert [(b.q, b.p[0]) for b in best_approx_1d(THETA, 3000)] == want
    want64 = best_approx_1d_exhaustive(THETA, 3000, 64)
    assert want64 == want
    assert [(b.q, b.p[0]) for b in best_approx_1d(THETA, 3000, 64)] == want64


# (1, 0) and (0, 1) have R_2 = 1, so their boxes start right after q = 1
TWO_D = [(1, 1), (2, 1), (2, -1), (1, 0), (0, 1)]


@pytest.fixture(scope="module")
def two_d_oracles():
    out = {}
    for ab in TWO_D:
        cons = cubic_pisot_set(*ab)
        out[ab] = (cons, best_approx_2d_exhaustive(cons.theta, cons.norm, 500))
    return out


@pytest.mark.parametrize("ab", TWO_D)
def test_best_approx_2d_matches_exhaustive(two_d_oracles, ab):
    cons, want = two_d_oracles[ab]
    got = best_approx_2d(cons.theta, cons.norm, 500)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want]
    assert all(b.value_sq == w for b, (_, _, w) in zip(got, want))


@pytest.fixture(scope="module")
def growth_oracles():
    out = {}
    for c in (Fraction(1, 20), Fraction(1, 3), Fraction(9, 20)):
        spec = default_orbit_spec(c, 3000)
        out[c] = (spec, {N: growth_count_exhaustive(spec, N) for N in (1000, 3000)})
    return out


@pytest.mark.parametrize("c", [Fraction(1, 20), Fraction(1, 3), Fraction(9, 20)])
def test_growth_count_matches_exhaustive(growth_oracles, c):
    spec, want = growth_oracles[c]
    for max_bits in (4096,) + COARSE_BITS:
        rows = growth_count(spec, (1000, 3000), max_bits)
        assert [(r.N, r.count, r.skipped) for r in rows] == [
            (N, want[N], 0) for N in (1000, 3000)
        ], max_bits


def _exact_box_counts(spec, N: int, k: int) -> list[int]:
    counts = [0] * k**3
    for n in range(N):
        box = 0
        for coord in orbit_point(spec, n):
            box = box * k + floor_frac(rmul(Fraction(k), coord))[0]
        counts[box] += 1
    return counts


def test_equidist_boxes_match_exact_orbit_points():
    spec = default_orbit_spec()
    want = _exact_box_counts(spec, 1500, 3)
    assert isinstance(spec.alpha, FieldElement)
    for max_bits in (4096,) + COARSE_BITS:
        table, _ = equidist_stats(spec, 1500, 3, max_bits)
        assert [b.count for b in table] == want, max_bits


def _loosen(monkeypatch, module, widen, spread):
    """Widen the enclosures ``module`` takes of the values ``widen`` picks
    by ``2^(bits * spread)`` units on each side.

    The widened enclosures are still valid, so the screens must still give
    the exhaustive answers; they only have to settle fewer points.
    """
    real = module.fixed_enclosure

    def loose(value, bits):
        lo, hi = real(value, bits)
        if not widen(value):
            return lo, hi
        w = 1 << int(bits * spread)
        return lo - w, hi + w

    monkeypatch.setattr(module, "fixed_enclosure", loose)


def test_record_screens_only_assume_valid_record_bounds(monkeypatch, two_d_oracles):
    # the record radius one unit loose: a box reading its lower end would
    # drop records
    cons, want2 = two_d_oracles[(1, 1)]
    records = {w for _, _, w in want2}
    _loosen(monkeypatch, gplab.cf, lambda v: v in records, 1)
    got = best_approx_2d(cons.theta, cons.norm, 500)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want2]


@pytest.mark.parametrize(
    "name,spread",
    [("1/im_u_sq", 1), ("re_u/v", 1), ("1/v^2", 1), ("theta1", 0.9), ("theta2", 0.8)],
)
def test_planar_screen_only_assumes_valid_enclosures(monkeypatch, two_d_oracles, name, spread):
    # the constants of the boxes, loosened by at most one unit
    cons, want = two_d_oracles[(1, 1)]
    names = ("re_u/v", "1/im_u_sq", "1/v^2", "theta1", "theta2")
    value = dict(zip(names, cons.norm.dual + cons.theta))[name]
    _loosen(monkeypatch, gplab.cf, lambda v: v is value, spread)
    got = best_approx_2d(cons.theta, cons.norm, 500)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want]


def test_planar_screen_with_a_small_imaginary_part():
    # Im(u)^2 = 1/1200: records whose p1 is not nint(q theta1) occur, and
    # 1/Im(u)^2 = 1200 widens the boxes
    cons = cubic_pisot_set(1, 1)
    norm = RauzyNorm(cons.norm.re_u, cons.field.from_rational(Fraction(1, 1200)), cons.norm.v)
    want = best_approx_2d_exhaustive(cons.theta, norm, 300)
    assert any(p[0] != (cons.theta[0] * q).nint() for q, p, _ in want)
    got = best_approx_2d(cons.theta, norm, 300)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want]


def test_planar_screen_with_a_large_real_part():
    # Re(u)/v near 9.4 (0.23 for the Rauzy norm) tilts the boxes
    cons = cubic_pisot_set(1, 1)
    norm = RauzyNorm(cons.norm.re_u + 5, cons.norm.im_u_sq, cons.norm.v)
    want = best_approx_2d_exhaustive(cons.theta, norm, 200)
    got = best_approx_2d(cons.theta, norm, 200)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want]


def test_planar_records_with_a_negative_v():
    # -v flips the sign of Re(u)/v; the records start at (1, (0, 0))
    cons = cubic_pisot_set(1, 1)
    norm = RauzyNorm(cons.norm.re_u, cons.norm.im_u_sq, -cons.norm.v)
    want = best_approx_2d_exhaustive(cons.theta, norm, 300)
    got = best_approx_2d(cons.theta, norm, 300)
    assert [(b.q, b.p) for b in got] == [(q, p) for q, p, _ in want]


def test_growth_screen_only_assumes_a_valid_beta(monkeypatch, growth_oracles):
    # a loose beta: floor(n * beta) must be read from both ends
    spec, want = growth_oracles[Fraction(9, 20)]
    _loosen(monkeypatch, gplab.nilorbit, lambda v: v is spec.beta, 0.5)
    for max_bits in (40, 48, 64, 4096):
        rows = growth_count(spec, (3000,), max_bits)
        assert (rows[0].count, rows[0].skipped) == (want[3000], 0), max_bits
