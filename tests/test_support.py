"""The support analysis of compiled indicators (``gpexpr.support``).

``gpexpr.members`` decides only the points ``gpexpr.proposals`` names, so
every test here compares against the unproposed scan, ``members_in`` over
every point of a range: a member the analysis failed to propose shows up as
a difference.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gplab.constructions import (
    Certificate,
    LinearRecurrence,
    fibonacci_like_set,
    residue_coefficient,
    scaled_set_transfer,
)
from gplab.constructions.registry import construction
from gplab.constructions.cubic import cubic_pisot_set
from gplab.gpexpr import (
    N,
    Add,
    Const,
    Dist,
    Frac,
    Mul,
    Nint,
    Pow,
    RationalConst,
    Sub,
    dist_lt_scaled,
    frac_expr,
    ind_and,
    indicator_of_range,
    indicator_of_zero_set,
    members,
    members_in,
    parse,
    proposals,
    substitute_var,
)
from gplab.gpexpr.evaluate import _compiled
from gplab.gpexpr.support import _EVERY, _analysis, _support
from gplab.realnum import NumberField

from oracles import REGISTRY_CASES, REGISTRY_IDS

README = "let phi = root(x^2-x-1, 1, 2); floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"
LO, HI = -50, 10**4
PHI = NumberField((-1, -1, 1), 1, 2, "phi").generator()


def _proposed(e, lo: int, hi: int) -> set[int]:
    return {n for piece in proposals(e, lo, hi) for n in piece}


def _unproposed(e, lo: int, hi: int) -> list[int]:
    return list(members_in(e, range(lo, hi + 1)))


def _cases():
    for (name, params), case in zip(REGISTRY_CASES, REGISTRY_IDS):
        cert = construction(name).build(SimpleNamespace(**params))
        yield case, cert.indicator
        # printed and parsed back: the analysis reads the text, not the builder
        yield case + "-reparsed", Certificate.from_file_text(cert.to_file_text()).indicator
    # a = 7: 2 g^2 < a_(k+1) + 2 lets g = 2 through, so doubles q_k are proposed
    yield "fibonacci-a=7", fibonacci_like_set(7).indicator
    yield "readme", parse(README)
    # a period past cf_expand's cap: the walk takes only the quotients it needs
    long = README.replace("root(x^2-x-1, 1, 2)", "root(x^2-1000000000039, 1000000, 1000001)")
    yield "readme-long-period", parse(long)


CASES = list(_cases())


@pytest.mark.parametrize("case, e", CASES, ids=[c for c, _ in CASES])
def test_every_member_is_proposed(case, e):
    found = _unproposed(e, LO, HI)
    proposed = _proposed(e, LO, HI)
    assert set(found) <= proposed
    assert members(e, LO, HI) == found
    # the analysis reads every registry certificate and the README
    assert _support(e) is not _EVERY
    assert len(proposed) < 300 + abs(LO)


@pytest.mark.parametrize("case, e", CASES, ids=[c for c, _ in CASES])
def test_windows_around_members_and_their_doubles(case, e):
    # +-20 windows around each member and each 2 * member up to 1e17,
    # against the unproposed scan of the same window
    found = members(e, 1, 10**17)
    assert len(found) > (2 if case.startswith("verysparse") else 5)  # 2, 128 and 2^49
    if case.endswith("-reparsed"):  # proposes what the built indicator does
        built = next(b for c, b in CASES if c == case[: -len("-reparsed")])
        assert _proposed(e, 1, 10**17) == _proposed(built, 1, 10**17)
    for m in sorted({*found, *(2 * m for m in found)}):
        assert members(e, m - 20, m + 20) == _unproposed(e, m - 20, m + 20), (case, m)


def _quadratic(d: int, p: int, q: int, r: int):
    """(p + q sqrt(d)) / r, an irrational quadratic constant."""
    root = NumberField((-d, 0, 1), int(d**0.5), int(d**0.5) + 1, "s").generator()
    return (root * q + p) / r


_constants = st.builds(
    _quadratic,
    st.sampled_from([2, 3, 5, 7, 13, 19]),
    st.integers(-3, 3),
    st.sampled_from([-2, -1, 1, 3]),
    st.sampled_from([1, 2, 3]),
)
_scales = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7)])


@st.composite
def _programs(draw):
    """A distance test ||c n|| < 1/(k n), or a range test lo <= k n F(c n) < hi
    with F a fractional part or a distance, with its factors in either order."""
    c, k = draw(_constants), draw(_scales)
    flip = draw(st.booleans())
    cn = Mul(Const("s", c), N) if flip else Mul(N, Const("s", c))
    kn = Mul(N, RationalConst(k)) if flip else Mul(RationalConst(k), N)
    form = draw(st.sampled_from(["dist_lt", "frac", "Frac", "Dist"]))
    if form == "dist_lt":
        return dist_lt_scaled(cn, kn)
    f = {"frac": frac_expr, "Frac": Frac, "Dist": Dist}[form](cn)
    lo, hi = draw(st.sampled_from([(0, 1), (-1, Fraction(1, 2)), (Fraction(1, 4), 2)]))
    return indicator_of_range(Mul(kn, f) if draw(st.booleans()) else Mul(f, kn), lo, hi)


def _sqrt2_distance_test(k: int):
    """||n sqrt2|| < 1/(k n)."""
    return dist_lt_scaled(Mul(N, Const("s", _quadratic(2, 0, 1, 1))), Mul(RationalConst(Fraction(k)), N))


# sqrt2 at k = 1: ||n sqrt2|| < 1/n holds at the mediants q_k + q_(k-1),
# 3 and 17 among them, which are no convergent denominators
@example(_sqrt2_distance_test(1))
@example(_sqrt2_distance_test(2))
@given(_programs())
@settings(max_examples=25, deadline=None)
def test_every_member_of_a_random_program_is_proposed(e):
    found = _unproposed(e, LO, HI)
    assert set(found) <= _proposed(e, LO, HI)
    assert members(e, LO, HI) == found


def test_k_below_two_proposes_every_point():
    # ||n sqrt2|| < 1/n holds at 3 and 17, no Legendre candidate of sqrt2
    e = _sqrt2_distance_test(1)
    assert {3, 17} <= set(_unproposed(e, 1, 100))
    assert _support(e) is _EVERY


# -- the Legendre rules on k v^m F(c v) with a rational c -----------------------

def _power_value(c: Fraction, k: Fraction, m: int, f, split: bool):
    """k n^m F(c n), n^m written as n n^(m-1) where ``split``."""
    power = Mul(N, Pow(N, m - 1)) if split and m > 1 else Pow(N, m)
    return Mul(Mul(RationalConst(k), power), f(Mul(N, Const("c", c))))


@st.composite
def _rational_programs(draw):
    """A range test lo <= k n^m F(c n) < hi or a zero test of
    k n^m F(c n) - lo, with c made so that a chosen n0 is a member."""
    m, k = draw(st.integers(1, 5)), draw(_scales)
    form = draw(st.sampled_from(["range", "zero"]))
    lo, hi = draw(st.sampled_from([(Fraction(1, 4), 2), (1, 2), (Fraction(1, 2), 3), (0, 1), (-1, 1)]))
    lo, hi = Fraction(lo), Fraction(hi)
    n0 = draw(st.integers(2, 5000))
    p = draw(st.integers(0, n0 - 1))
    y0 = lo if form == "zero" else lo + (hi - lo) * Fraction(draw(st.integers(0, 9)), 10)
    # ||c n0|| = y0 / (k n0^m) where that is below 1/2, or a random rational c
    if y0 > 0 and y0 < k * n0**m / 2 and draw(st.booleans()):
        c = (p + y0 / (k * n0**m)) / n0
    else:
        c = Fraction(p, n0)
    f = draw(st.sampled_from([frac_expr, Frac, Dist]))
    y = _power_value(c, k, m, f, draw(st.booleans()))
    e = indicator_of_range(y, lo, hi) if form == "range" else indicator_of_zero_set(Sub(y, RationalConst(lo)))
    # the rules apply where lo > 0 and there is a start: 2 hi <= k v^(m-1)
    # for some v >= 1, or 2 hi < k v^(m-1) for the closed zero test
    top = lo if form == "zero" else hi
    reads = lo > 0 and (m > 1 or (k > 2 * top if form == "zero" else k >= 2 * top))
    return e, reads


# c = 2/5, m = 1, k = 5/3, t = 1: 3 has k 3 ||3 c|| = 1, and 3 = 3 q_0 fails the
# bound k g^2 q_0 |q_0 r - p_0 s| <= t s; with k <= 2 t there is no start
@example((indicator_of_zero_set(Sub(_power_value(Fraction(2, 5), Fraction(5, 3), 1, Dist, False),
                                    RationalConst(Fraction(1)))), False))
# lo = 0: n^2 frac(n/7) = 0 < 1 at every multiple of 7
@example((indicator_of_range(_power_value(Fraction(1, 7), Fraction(1), 2, Frac, False), 0, 1), False))
@given(_rational_programs())
@settings(max_examples=25, deadline=None)
def test_every_member_of_a_random_rational_program_is_proposed(program):
    e, reads = program
    found = _unproposed(e, LO, HI)
    assert set(found) <= _proposed(e, LO, HI)
    assert members(e, LO, HI) == found
    # read exactly where proved: lo > 0 (lo <= 0 puts every multiple of c's
    # denominator in the set, so every point is proposed) and a start exists
    assert (_support(e) is not _EVERY) == reads


def test_zero_test_of_an_irrational_value_proposes_every_point():
    # theta (y - 2) may be an integer off y = 2 where y is irrational, so
    # the zero test is read only on rational constants; a range test of
    # the same value is read
    y = _power_value(_quadratic(2, 0, 1, 1), Fraction(4), 4, Dist, False)
    assert _support(indicator_of_zero_set(Sub(y, RationalConst(Fraction(2))))) is _EVERY
    assert _support(indicator_of_range(y, 1, 2)) is not _EVERY


def test_a_one_point_window_checks_one_bound_per_convergent(monkeypatch):
    # alpha = 3/2^75003, so q_0 = 1 admits about 2^15000 values of g: a walk
    # of every candidate from g = 1 would not end.  Each half of the OR checks
    # at most one g per convergent up to the window.
    from gplab.cf import cf_of_rational, convergent_walk
    from gplab.constructions import very_sparse_alpha, very_sparse_set
    from gplab.gpexpr import support

    top = 2**15000
    cert = very_sparse_set(very_sparse_alpha([top], 5, 6))
    below = sum(1 for _, q, _ in convergent_walk(cf_of_rational(cert.meta["alpha_snapshot"])) if q <= top)
    checks = []
    walk = support.legendre_candidates

    def counted(cf, lo, hi, holds):
        checks.append(0)

        def check(*args):
            checks[-1] += 1
            assert checks[-1] <= below
            return holds(*args)

        return walk(cf, lo, hi, check)

    monkeypatch.setattr(support, "legendre_candidates", counted)
    assert _fresh(cert.indicator).propose(top, top) == ([], [top])
    assert checks == [below, below]


def _fibonacci_transfer(u, s_times_u: Fraction):
    """nint(u m) in the Fibonacci set and ||u m|| < 1/s, s |u| = ``s_times_u``."""
    fib = fibonacci_like_set(1).indicator
    un = Mul(Const("phi", u), N)
    s = u.abs().inverse() * s_times_u
    return ind_and(substitute_var(fib, Nint(un)), dist_lt_scaled(un, Const("phi", s)))


_INV_SQRT5 = residue_coefficient(LinearRecurrence((1, 1), (0, 1)), PHI.field)


@pytest.mark.parametrize("u_name", ["1/sqrt5", "-1/sqrt5", "3 phi", "-3 phi", "1/2", "-3"])
@pytest.mark.parametrize("s_times_u", [Fraction(1), Fraction(2), Fraction(3)])
def test_pull_back_needs_s_times_u_at_least_two(u_name, s_times_u):
    # below 2 a member m need not be nint(r/u): the pull-back does not apply;
    # a rational u puts r/u on half-integers, where both neighbours are proposed
    rational = PHI * 0
    u = {
        "1/sqrt5": _INV_SQRT5, "3 phi": PHI * 3, "1/2": rational + Fraction(1, 2), "3": rational + 3
    }[u_name.lstrip("-")]
    u = -u if u_name.startswith("-") else u
    e = _fibonacci_transfer(u, s_times_u)
    found = _unproposed(e, LO, HI)
    assert set(found) <= _proposed(e, LO, HI)
    assert members(e, LO, HI) == found
    assert (_support(e) is _EVERY) == (s_times_u < 2)
    if s_times_u < 2 and "sqrt5" in u_name:
        # some member m is not nint(r/u) for its own r = nint(u m)
        assert any((u.inverse() * (u * m).nint()).nint() != m for m in found)


def test_transfer_certificate_reads_the_pull_back():
    # the built transfer and the same indicator printed and parsed propose alike
    out = scaled_set_transfer(fibonacci_like_set(1), _INV_SQRT5, "phi powers")
    program = _compiled(out.indicator)
    assert type(_support(out.indicator)).__name__ == "_PullBack"
    assert program._support is _support(out.indicator)
    assert out.members(1, 10**30) == members(out.indicator, 1, 10**30)
    assert len(_proposed(out.indicator, 1, 10**30)) < 300
    back = Certificate.from_file_text(out.to_file_text())
    assert back.points(1, 10**30) == out.points(1, 10**30)
    # a second build has its own program but the same ops and constants,
    # so it reads the same analysis
    again = scaled_set_transfer(fibonacci_like_set(1), _INV_SQRT5, "phi powers")
    assert _compiled(again.indicator) is not program
    assert _support(again.indicator) is _support(out.indicator)


# -- the lattice-box rule -------------------------------------------------------

def _cubic_shape(c, theta, norm, m, terms, lo=0, hi=5):
    """lo <= C - (H G)^2 < hi with H = (rho x1 + w x2)^2 + sigma x1^2,
    x_j = theta_j n - nint(theta_j n), (rho, sigma, w) = ``norm``, and
    G = m (n + sum_j c_j nint(u_j n)), (c_j, u_j) in ``terms``: the cubic
    certificate's shape."""
    fld = theta[0].field

    def k(x):
        return Const(fld.name, x if hasattr(x, "field") else fld.from_rational(Fraction(x)))

    rho, sigma, w = norm
    x1, x2 = (Sub(Mul(k(t), N), Nint(Mul(k(t), N))) for t in theta)
    h = Add(Pow(Add(Mul(k(rho), x1), Mul(k(w), x2)), 2), Mul(k(sigma), Pow(x1, 2)))
    g = N
    for cj, uj in terms:
        g = Add(g, Mul(k(cj), Nint(Mul(k(uj), N))))
    return indicator_of_range(Sub(k(c), Pow(Mul(h, Mul(k(m), g)), 2)), lo, hi)


TRIBONACCI = cubic_pisot_set(1, 1)
_BETA, _THETA, _NORM = TRIBONACCI.beta, TRIBONACCI.theta, TRIBONACCI.norm


def _tribonacci_shape(**changes):
    """The shape with the cubic (1, 1) certificate's constants, but for
    ``changes``; x2 takes nint(theta_2 n) where the certificate rounds
    another value of it."""
    parts = {
        "c": _BETA**TRIBONACCI.plateau_pow,
        "theta": _THETA,
        "norm": (_NORM.re_u, _NORM.im_u_sq, _NORM.v),
        "m": TRIBONACCI.m1_inv_sq,
        "terms": [((_BETA + 1) * _THETA[1], _THETA[0]), (_THETA[0], _THETA[1])],
    }
    return _cubic_shape(**{**parts, **changes})


# c_j = 60 and -60 beta: K = 1 and L = 30 (1 + beta) = 85.18; with the
# u_j swapped, c_j = 60 and -60/beta: K = 1 and L = 30 (1 + 1/beta) = 46.31
_LARGE_C = [(60, _THETA[0]), (-60 * _BETA, _THETA[1])]
_SWAPPED = [(60, _THETA[1]), (-60 * _THETA[0], _THETA[0])]
# (the shape's changes, start: the least n with K n > L, at least R_2 = 2)
BOX_SHAPES = {
    "plateau": ({}, 2),
    # hi past C: every n with (H G)^2 <= C is a member, 90 of them on [-50, 10^4]
    "thick": ({"c": _BETA**2 * 100, "hi": 10**6}, 2),
    "large-c": ({"terms": _LARGE_C, "hi": 10**6}, 86),
    "large-c-swapped": ({"terms": _SWAPPED, "hi": 10**6}, 47),
    "large-c-thick": ({"c": _BETA**2 * 100, "terms": _LARGE_C, "hi": 10**6}, 86),
}


@pytest.mark.parametrize("shape", BOX_SHAPES)
def test_lattice_box_rule_proposes_every_member(shape):
    changes, start = BOX_SHAPES[shape]
    e = _tribonacci_shape(**changes)
    # L sums |c_j|/2 over every term: below start the bound on G fails
    assert _support(e).start == start
    found = _unproposed(e, LO, HI)
    assert len(found) > 20
    assert set(found) <= _proposed(e, LO, HI)
    assert members(e, LO, HI) == found


# what the rule must refuse: lo < 0 lets (H G)^2 pass C, theta_2 != theta_1^2
# is no cubic unit's theta, and sigma <= 0 or w = 0 is no norm
REFUSED = {
    "lo<0": {"lo": -(10**4), "hi": 10**6},
    "theta2": {"theta": (_THETA[0], _THETA[0] * _THETA[0] + Fraction(1, 7))},
    "sigma<0": {"norm": (_NORM.re_u, -_NORM.im_u_sq, _NORM.v)},
    "sigma=0": {"norm": (_NORM.re_u, 0, _NORM.v)},
    "w=0": {"norm": (_NORM.re_u, _NORM.im_u_sq, 0)},
}


@pytest.mark.parametrize("shape", REFUSED)
def test_lattice_box_rule_refuses_what_it_cannot_prove(shape):
    e = _tribonacci_shape(**REFUSED[shape])
    assert _support(e) is _EVERY
    assert members(e, LO, 2000) == _unproposed(e, LO, 2000)


def test_lattice_box_rule_proposes_every_point_past_decreasing_terms():
    # x^3 - 3x - 1 has three real roots: from R_2 = 3 its terms go on
    # 1, 9, 6, so no slab is past R_2 and every point there is proposed
    beta = NumberField((-1, -3, 0, 1), 1, 2, "b").generator()
    theta = (beta.inverse(), beta.inverse() ** 2)
    e = _cubic_shape(1, theta, (1, 1, 1), 1, [], hi=10**6)
    assert type(_support(e)).__name__ == "_Box"
    assert _proposed(e, 1, 2000) == set(range(1, 2001))
    assert members(e, LO, 2000) == _unproposed(e, LO, 2000)


def _fresh(e):
    """An analysis of e's program of its own, shared with no other program."""
    program = _compiled(e)
    return _analysis.__wrapped__(tuple(program.ops), tuple(program.consts))


def test_window_proposals_do_not_depend_on_the_order_asked():
    # each slab's box is made once, whole, whichever window meets it first
    e = TRIBONACCI.certificate.indicator
    windows = [(1, 10**17), (10**9, 10**9 + 10**6), (-(10**12), -(10**12) + 50), (5, 80),
               (10**16, 2 * 10**16), (-(10**17), 10**4), (1705, 1705), (10**30, 10**30 + 10**9)]
    forward, backward = _fresh(e), _fresh(e)
    asked = {w: forward.propose(*w) for w in windows}
    for w in reversed(windows):
        assert backward.propose(*w) == asked[w], w
    assert all(_fresh(e).propose(*w) == asked[w] for w in windows)


def test_cubic_builds_share_one_analysis():
    e1 = cubic_pisot_set(1, 1).certificate.indicator
    e2 = cubic_pisot_set(1, 1).certificate.indicator
    assert _compiled(e1) is not _compiled(e2)
    assert _support(e1) is _support(e2)
