"""Tests for the cubic Pisot construction."""

import pytest

from gplab.cf import nearest_lattice_sq
from gplab.constructions import cubic_pisot_set, recurrence_terms
from gplab.errors import PreconditionError
from gplab.gpexpr import eval_exact, eval_indicator, members
from gplab.realnum import compare, to_float

from oracles import nearest_lattice_sq_exhaustive


@pytest.fixture(scope="module")
def trib():
    return cubic_pisot_set(1, 1)


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        cubic_pisot_set(1, 3)  # b > a+1
    with pytest.raises(PreconditionError):
        cubic_pisot_set(1, -1)  # b = -1 needs a >= 2
    with pytest.raises(PreconditionError):
        cubic_pisot_set(0, 0)  # x^3 - 1 is reducible


def test_m1_value_and_location(trib):
    assert trib.m1_at == (1, 0)
    assert abs(to_float(trib.m1_sq) - 0.2955977425220848**2) < 1e-12
    # m1^2 = 2 beta^2 - 2 beta - 3 exactly
    b = trib.beta
    assert (trib.m1_sq - (2 * b * b - 2 * b - 3)).is_zero()


def test_member_set_matches_recurrence(trib):
    mem = trib.certificate.members(1, 10**4)
    assert mem == [1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136, 5768]
    assert trib.certificate.exceptional == ()


def test_plateau_value_at_index_ten(trib):
    # g(R_i) * m1^2 = beta^i for large i; checked exactly at i = 10
    terms = recurrence_terms(trib.recurrence, 10**4)
    q = terms[10]
    assert (trib.g_value(q) * trib.m1_sq - trib.beta**10).is_zero()


def test_h_matches_bruteforce_when_small(trib):
    im_sq = trib.norm.im_u_sq
    for q in range(1, 300):
        n0 = trib.n0_sq(q)
        if (n0 * 4 - im_sq).sign() < 0:
            assert (trib.h_sq(q) - n0).is_zero()
        else:
            # h is always an upper bound for the true distance
            assert (trib.h_sq(q) - n0).sign() >= 0


def test_record_scaling_exact(trib):
    terms = recurrence_terms(trib.recurrence, 10**5)
    k = trib.plateau_pow
    m1_4 = trib.m1_sq * trib.m1_sq
    for i in range(2, 18):
        n0 = trib.n0_sq(terms[i])
        assert (n0 * n0 * trib.beta ** (2 * i - k) - m1_4).is_zero()


def test_indicator_agrees_with_fast_scan(trib):
    # test_scan_matches_compiled_indicator compares the scans on [1, 4000];
    # the scan confirms suspects with the closed forms in ``member``, not
    # with the indicator: both must agree on and around every term
    for cons in (trib, cubic_pisot_set(2, 1), cubic_pisot_set(2, -1)):
        program = cons.certificate.program()
        ind = cons.certificate.indicator
        terms = recurrence_terms(cons.recurrence, 10**13)
        for t in (t for t in terms if t >= 10**6):
            for n in range(t - 20, t + 21):
                assert cons.member(n) == (eval_indicator(ind, n, program=program) == 1), n


def test_g_h_expressions_evaluate_exactly(trib):
    for q in (7, 100, 1705):
        g_tree = eval_exact(trib.g_expr, q)
        h_tree = eval_exact(trib.h_sq_expr, q)
        assert compare(g_tree, trib.g_value(q)) == 0
        assert compare(h_tree, trib.h_sq(q)) == 0


def test_other_parameters_single_orbit():
    for a, b in ((1, 0), (0, 1), (3, -1)):
        cons = cubic_pisot_set(a, b)
        cert = cons.certificate
        assert "plateau_shared_by_extra_orbit" not in cert.meta
        oracle = sorted(set(t for t in recurrence_terms(cons.recurrence, 3000) if t >= 1))
        assert cert.members(1, 3000) == oracle


def test_known_extra_orbit_parameters_are_flagged():
    cons = cubic_pisot_set(2, -1)
    assert cons.certificate.meta.get("plateau_shared_by_extra_orbit") is True
    # the flagged extra members really do sit on the same exact plateau
    beta_k = cons.beta**cons.plateau_pow
    for q in (12, 21, 37):
        v = cons.h_sq(q) * cons.g_value(q)
        assert (v * v - beta_k).is_zero()


def test_certificate_file_roundtrip(trib):
    from gplab.constructions.certificate import Certificate

    text = trib.certificate.to_file_text()
    back = Certificate.from_file_text(text)
    assert members(back.indicator, 1, 700) == trib.certificate.members(1, 700)
    assert back.meta["plateau_pow"] == "2"
    assert back.to_file_text() == text


def test_n0_sq_matches_general_search_at_large_q(trib):
    # 660850589515334 once lost its minimiser to a fixed float tie window
    for q in (660850589515334, 123456789012345, 4 * 10**14 + 7, 2 * 10**15 + 3,
              7 * 10**15 + 1, 10**16 - 1):
        want = nearest_lattice_sq_exhaustive(trib.norm, trib.theta, q)[0]
        assert (trib.n0_sq(q) - want).is_zero(), q


@pytest.mark.parametrize(
    "a, b, once_missed",
    [
        (1, 1, (334745777, 615693474, 2082876103, 3831006429, 12960201916, 23837527729,
                80641778674)),
        (2, 1, (263247781, 670444260, 4348691431, 11075326817)),
        (2, -1, (109870576, 1042002567, 17342153393, 888855064897, 758216295635152)),
    ],
)
def test_fast_scan_finds_members_near_every_term(a, b, once_missed):
    # +-20 windows around every term in [1e6, 1e17], compared with the
    # recurrence; the float prefilter once dropped the listed terms when its
    # tuned margins were smaller than its float error
    cons = cubic_pisot_set(a, b)
    terms = recurrence_terms(cons.recurrence, 10**17 + 20)
    centres = [t for t in terms if 10**6 <= t <= 10**17]
    assert set(once_missed) <= set(centres)
    for t in centres:
        lo, hi = t - 20, t + 20
        assert cons.certificate.members(lo, hi) == [x for x in terms if lo <= x <= hi], t


@pytest.fixture(scope="module")
def cubic_pairs(trib):
    return {(1, 1): trib, (2, 1): cubic_pisot_set(2, 1), (2, -1): cubic_pisot_set(2, -1)}


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_nearest_lattice_sq_matches_window_search(cubic_pairs, pair):
    # q <= 300, and +-20 windows from 1e14 to 1e17, where a float search
    # box loses the precision to round q theta
    cons = cubic_pairs[pair]
    qs = list(range(1, 301))
    qs += [c + d for c in (10**14, 10**15, 10**16, 10**17) for d in range(-20, 21)]
    for q in qs:
        got, p = nearest_lattice_sq(cons.norm, cons.theta, q)
        want, want_p = nearest_lattice_sq_exhaustive(cons.norm, cons.theta, q)
        assert p == want_p and (got - want).is_zero(), q


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_nearest_lattice_sq_only_assumes_valid_enclosures(cubic_pairs, pair, monkeypatch):
    # theta widened by 2^62 units at 2^(64 + q.bit_length()) bits: q theta is
    # known to about 1/4, so several window points overlap the least upper
    # bound and the exact comparison among them must find the minimiser
    import gplab.cf

    cons = cubic_pairs[pair]
    real = gplab.cf.dyadic_enclosure

    def loose(x, bits):
        lo, hi = real(x, bits)
        w = 1 << 62 if any(x is t for t in cons.theta) else 0
        return lo - w, hi + w

    monkeypatch.setattr(gplab.cf, "dyadic_enclosure", loose)
    for q in list(range(1, 120)) + [10**15 + d for d in range(10)]:
        got, p = nearest_lattice_sq(cons.norm, cons.theta, q)
        want, want_p = nearest_lattice_sq_exhaustive(cons.norm, cons.theta, q)
        assert p == want_p and (got - want).is_zero(), q


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_cubic_scan_across_chunk_boundaries(cubic_pairs, pair, monkeypatch):
    from gplab.constructions import cubic

    cons = cubic_pairs[pair]
    # small blocks: stage 1 takes a new lower bound on g every 100 points
    with monkeypatch.context() as m:
        m.setattr(cubic, "SCAN_CHUNK", 100)
        assert cons.certificate.members(1, 3000) == [n for n in range(1, 3001) if cons.member(n)]
    # real block size: the first term that fits lies just inside the second
    # block, whose last point is far enough out to lift g well above its
    # value at the term
    terms = recurrence_terms(cons.recurrence, 10**18)
    term = next(t for t in terms if t > cubic.SCAN_CHUNK + 3)
    lo, hi = term - cubic.SCAN_CHUNK - 3, term + 50
    got = cons.certificate.members(lo, hi)
    assert term in got
    assert set(got) >= {t for t in terms if lo <= t <= hi}
    window = range(term - 20, term + 21)
    assert [n for n in got if n in window] == [n for n in window if cons.member(n)]


def test_cubic_prefilter_work(trib, monkeypatch):
    # deterministic guards against a prefilter that silently stops
    # filtering: exact confirmations are counted, not timed
    from gplab.constructions.cubic import CubicConstruction

    calls = [0]
    member = CubicConstruction.member

    def counted(self, q):
        calls[0] += 1
        return member(self, q)

    monkeypatch.setattr(CubicConstruction, "member", counted)
    assert trib.certificate.members(1, 10**7) == recurrence_terms(trib.recurrence, 10**7)[1:]
    assert calls[0] == 27  # one per member
    calls[0] = 0
    assert trib.certificate.members(10**13, 10**13 + 10**6 - 1) == []
    assert calls[0] <= 10264  # the one-stage prefilter's count on this window


@pytest.mark.parametrize("pair", [(1, 1), (2, 1)])
def test_fixed_point_rescreen_of_float_suspects(cubic_pairs, pair, monkeypatch):
    # from about 1e15 every point is a float suspect; the fixed-point screen
    # must leave member only the term, and never change the scan's output
    from gplab.constructions.cubic import CubicConstruction

    cons = cubic_pairs[pair]
    member = CubicConstruction.member
    calls = [0]

    def counted(self, q):
        calls[0] += 1
        return member(self, q)

    monkeypatch.setattr(CubicConstruction, "member", counted)
    terms = recurrence_terms(cons.recurrence, 10**17)
    for t in (t for t in terms if 10**13 <= t <= 10**17):
        calls[0] = 0
        lo, hi = t - 20, t + 20
        got = cons.certificate.members(lo, hi)
        if t >= 10**15:
            assert calls[0] == 1, t
        assert got == [n for n in range(lo, hi + 1) if member(cons, n)], t
