"""Tests for the cubic Pisot construction."""

import hashlib

import pytest

from gplab.cf import RauzyNorm, nearest_lattice_sq
from gplab.constructions import cubic_pisot_set, recurrence_terms
from gplab.errors import PreconditionError
from gplab.gpexpr import eval_exact, eval_indicator, members
from gplab.realnum import compare, to_float

from oracles import CubicClosedForms, nearest_lattice_sq_exhaustive


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


def test_member_set_matches_recurrence(trib, tmp_path):
    mem = trib.certificate.members(1, 10**4)
    assert mem == [1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705, 3136, 5768]
    # no exceptional point on gp cert's scan
    from gplab.cli import main
    from gplab.constructions.certificate import Certificate

    out = tmp_path / "cert.txt"
    assert main(["cert", "--construction", "cubic", "--a", "1", "--b", "1", "--out", str(out)]) == 0
    assert Certificate.from_file_text(out.read_text()).exceptional == ()


def test_plateau_value_at_index_ten(trib):
    # g(R_i) * m1^2 = beta^i for large i; checked exactly at i = 10
    terms = recurrence_terms(trib.recurrence, 10**4)
    q = terms[10]
    assert (trib.g_value(q) * trib.m1_sq - trib.beta**10).is_zero()


# plateau_pow of every admissible (a, b) with a <= 3, as the search over
# k = -8..40 found it; None where the build refuses the pair
PLATEAU_PINS = {
    (0, 0): None, (0, 1): 8, (1, 0): 4, (1, 1): 2, (1, 2): 2, (2, -1): 1, (2, 0): 0, (2, 1): 0,
    (2, 2): 0, (2, 3): 1, (3, -1): 0, (3, 0): 0, (3, 1): 0, (3, 2): 0, (3, 3): 0, (3, 4): None,
}


def _count_calls(monkeypatch, cls, name):
    calls = [0]
    real = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("a, b", list(PLATEAU_PINS))
def test_plateau_exponent_pins(a, b):
    if PLATEAU_PINS[a, b] is None:
        with pytest.raises(PreconditionError):
            cubic_pisot_set(a, b)
    else:
        assert cubic_pisot_set(a, b).plateau_pow == PLATEAU_PINS[a, b]


def test_plateau_walk_counts_its_comparisons(monkeypatch):
    # the walk compares (h^2 g)^2 with beta^k for k = 0, +-1, ..., k: |k| + 1
    # exact signs per term, counted on fixed values of the product h^2 g
    from gplab.constructions.cubic import _measure_plateau
    from gplab.realnum import FieldElement

    cons = cubic_pisot_set(1, 0)
    terms = recurrence_terms(cons.recurrence, 5000)
    beta, one = cons.beta, cons.field.one()
    real = {q: cons.h_sq(q) * cons.g_value(q) for q in terms[-2:]}
    for product, want in ((real.get, 4), (lambda q: beta**-2, -4), (lambda q: beta**20, 40)):
        calls = _count_calls(monkeypatch, FieldElement, "sign")
        assert _measure_plateau(cons, product, terms) == want
        assert calls[0] == 2 * (abs(want) + 1)
        monkeypatch.undo()
    # below beta^-8, above beta^40, and two values strictly between powers
    for x in (beta**-5, beta**21, one * 2, beta + 1):
        with pytest.raises(PreconditionError, match="no exact plateau"):
            _measure_plateau(cons, lambda q: x, terms)
    with pytest.raises(PreconditionError, match="differs between indices"):
        _measure_plateau(cons, lambda q: beta if q == terms[-1] else one, terms)


def test_fixed_consts_builds_exact_constants_once(monkeypatch):
    # m1^-2 and Im(u)^-2 are inverted once; each new precision only
    # encloses the stored constants (k = 2 here, so beta^k needs no inverse)
    from gplab.realnum import FieldElement

    cons = cubic_pisot_set(1, 1)
    cons.__dict__.pop("_exact_consts", None)
    cons.__dict__.pop("_fixed_cache", None)
    calls = _count_calls(monkeypatch, FieldElement, "inverse")
    first = cons._fixed_consts(100)
    assert calls[0] == 2
    second = cons._fixed_consts(200)
    assert calls[0] == 2
    assert cons._fixed_consts(100) is first and len(second) == len(first) == 9


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
        ind = cons.certificate.indicator
        terms = recurrence_terms(cons.recurrence, 10**13)
        for t in (t for t in terms if t >= 10**6):
            for n in range(t - 20, t + 21):
                assert cons.member(n) == (eval_indicator(ind, n) == 1), n


def test_g_h_expressions_evaluate_exactly(trib):
    # h_sq and g_value run the compiled expressions; the closed forms
    # written out in field arithmetic are the reference
    ref = CubicClosedForms(trib)
    for q in [7, 100, 1705] + [10**k for k in range(17)]:
        g_tree = eval_exact(trib.g_expr, q)
        h_tree = eval_exact(trib.h_sq_expr, q)
        assert compare(g_tree, ref.g_value(q)) == 0, q
        assert compare(h_tree, ref.h_sq(q)) == 0, q
        assert (trib.g_value(q) - ref.g_value(q)).is_zero(), q
        assert (trib.h_sq(q) - ref.h_sq(q)).is_zero(), q


@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (2, -1)])
def test_member_equals_closed_form_near_every_term(a, b):
    # member is the compiled indicator's exact verdict; the closed-form
    # plateau test is the reference on +-20 windows around every term
    cons = cubic_pisot_set(a, b)
    ref = CubicClosedForms(cons)
    for t in recurrence_terms(cons.recurrence, 10**17):
        for q in range(max(1, t - 20), t + 21):
            assert cons.member(q) == ref.member(q), q


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (3, -1)])
def test_member_equals_closed_form_on_every_point(a, b):
    cons = cubic_pisot_set(a, b)
    ref = CubicClosedForms(cons)
    assert [q for q in range(1, 3001) if cons.member(q)] == [
        q for q in range(1, 3001) if ref.member(q)
    ]


def _cert_meta(tmp_path, a, b) -> dict:
    """The metadata of ``gp cert`` for the cubic (a, b), read from its file."""
    from gplab.cli import main
    from gplab.constructions.certificate import Certificate

    out = tmp_path / f"cert{a}{b}.txt"
    argv = ["cert", "--construction", "cubic", "--a", str(a), "--b", str(b)]
    assert main(argv + ["--out", str(out)]) == 0
    return Certificate.from_file_text(out.read_text()).meta


def test_other_parameters_single_orbit(tmp_path):
    for a, b in ((1, 0), (0, 1), (3, -1)):
        assert "plateau_shared_by_extra_orbit" not in _cert_meta(tmp_path, a, b)
        cons = cubic_pisot_set(a, b)
        oracle = sorted(set(t for t in recurrence_terms(cons.recurrence, 3000) if t >= 1))
        assert cons.certificate.members(1, 3000) == oracle


def test_known_extra_orbit_parameters_are_flagged(tmp_path):
    assert _cert_meta(tmp_path, 2, -1).get("plateau_shared_by_extra_orbit") == "True"
    # the flagged extra members really do sit on the same exact plateau
    cons = cubic_pisot_set(2, -1)
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


def test_norm_enclosures_are_cached_per_precision(cubic_pairs, monkeypatch):
    # Re(u), v and Im(u)^2 are enclosed once per bit length of q; only
    # q theta is enclosed on every call
    import gplab.cf

    cons = cubic_pairs[(1, 1)]
    norm = RauzyNorm(cons.norm.re_u, cons.norm.im_u_sq, cons.norm.v)
    real = gplab.cf.dyadic_enclosure
    calls = [0]

    def counted(x, bits):
        calls[0] += 1
        return real(x, bits)

    monkeypatch.setattr(gplab.cf, "dyadic_enclosure", counted)
    q = 10**13 + 7
    nearest_lattice_sq(norm, cons.theta, q)
    assert calls[0] == 5
    calls[0] = 0
    nearest_lattice_sq(norm, cons.theta, q + 1)
    assert calls[0] == 2
    assert norm.enclosures(64 + q.bit_length()) is norm.enclosures(64 + q.bit_length())


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_nearest_lattice_sq_only_assumes_valid_enclosures(cubic_pairs, pair, monkeypatch):
    # theta widened by 2^62 units at 2^(64 + q.bit_length()) bits: q theta is
    # known to about 1/4, so several window points overlap the least upper
    # bound and the exact comparison among them must find the minimiser
    import gplab.cf

    cons = cubic_pairs[pair]
    # a fresh norm: the shared one may hold enclosures cached before the patch
    norm = RauzyNorm(cons.norm.re_u, cons.norm.im_u_sq, cons.norm.v)
    real = gplab.cf.dyadic_enclosure

    def loose(x, bits):
        lo, hi = real(x, bits)
        w = 1 << 62 if any(x is t for t in cons.theta) else 0
        return lo - w, hi + w

    monkeypatch.setattr(gplab.cf, "dyadic_enclosure", loose)
    for q in list(range(1, 120)) + [10**15 + d for d in range(10)]:
        got, p = nearest_lattice_sq(norm, cons.theta, q)
        want, want_p = nearest_lattice_sq_exhaustive(cons.norm, cons.theta, q)
        assert p == want_p and (got - want).is_zero(), q


# sha256 of ",".join(map(str, members)) from the float-prefilter scan this
# lattice scan replaced, recorded before it was removed
SCAN_PINS = {
    (1, 1, 10**7): "d7a2ee9725d436b1cc199e9c9ec0ef596f32b5ca20b8fcaf502a03bdee88fe07",
    (2, 1, 10**7): "f09f9d0fd17f4a3373ff975c484a94186245475c268c3d3417f2999b4b21502b",
    (2, -1, 10**7): "82e5d60ecaaf1bac5175b36cd73805b2ba1ac727643bcb644793c4c634a10c62",
    (1, 0, 3000): "35851c374d4b0ae8d4f02408abc6034d77eda8793f8c7f890003f8dbb398c16b",
    (0, 1, 3000): "bfcdb2501f0db591be84f85ba0871b136ff76ca529ca94523d4bca0e183c1820",
    (3, -1, 3000): "55b2ead937ac451f556dd6577bd09f344253c0f06e9ea338ec89b351788eccb1",
}


@pytest.mark.parametrize("a, b, top", list(SCAN_PINS))
def test_cubic_scan_matches_pinned_output(a, b, top):
    got = cubic_pisot_set(a, b).certificate.members(1, top)
    assert hashlib.sha256(",".join(map(str, got)).encode()).hexdigest() == SCAN_PINS[a, b, top]


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_cubic_scan_matches_every_point(cubic_pairs, pair):
    # every q in [1, 3e5], the (2,-1) extra-orbit members 12, 21 and 37
    # included; the closed forms' fixed-point screen rejects only a q whose
    # enclosures prove it is no member, so this is the point-by-point
    # closed-form test at a tenth of the cost
    cons = cubic_pairs[pair]
    ref = CubicClosedForms(cons)
    top = 3 * 10**5
    want = [q for q in range(1, top + 1) if ref.may_be_member(q, 83) and ref.member(q)]
    assert cons.certificate.members(1, top) == want
    assert pair != (2, -1) or {12, 21, 37} <= set(want)


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, -1)])
def test_cubic_scan_across_scale_boundaries(cubic_pairs, pair):
    # scale i proposes the points of [R_i, R_(i+1)] from its own lattice
    # basis; a window from inside scale i-1 to inside scale i+1 must find
    # what the unclipped scan finds, and what member finds at both seams
    cons = cubic_pairs[pair]
    assert cons.certificate.members(1, 3000) == [n for n in range(1, 3001) if cons.member(n)]
    full = cons.certificate.members(1, 10**17 + 20)
    terms = recurrence_terms(cons.recurrence, 10**17)
    assert set(terms[1:]) <= set(full)
    for r_i, r_next in zip(terms, terms[1:]):
        if r_i < 100:
            continue
        lo, hi = r_i - 20, r_next + 20
        got = cons.certificate.members(lo, hi)
        assert got == [n for n in full if lo <= n <= hi], r_i
        for seam in (r_i, r_next):
            window = range(seam - 20, seam + 21)
            assert [n for n in got if n in window] == [n for n in window if cons.member(n)]


def _count_exact_evals(monkeypatch):
    from gplab.gpexpr.evaluate import Program

    return _count_calls(monkeypatch, Program, "eval_exact")


def test_cubic_prefilter_work(trib, monkeypatch):
    # deterministic guards against a candidate scan that silently stops
    # filtering: exact-mode evaluations are counted, not timed
    calls = _count_exact_evals(monkeypatch)
    assert trib.certificate.members(1, 10**7) == recurrence_terms(trib.recurrence, 10**7)[1:]
    assert calls[0] == 27  # one per member
    calls[0] = 0
    assert trib.certificate.members(10**13, 10**13 + 10**6 - 1) == []
    assert calls[0] == 0  # the lattice box proposes no point here


def test_dense_window_confirms_only_terms(trib, monkeypatch):
    # every point of the first window was a float suspect of the old scan
    # (2.6 s, 2-core host); the second holds a term.  At most one exact-mode
    # evaluation per term
    calls = _count_exact_evals(monkeypatch)
    terms = recurrence_terms(trib.recurrence, 10**16)
    t = next(t for t in terms if t > 10**15)
    for lo, hi in ((10**15, 10**15 + 2 * 10**5), (t - 10**5, t + 10**5)):
        calls[0] = 0
        want = [x for x in terms if lo <= x <= hi]
        assert trib.certificate.members(lo, hi) == want
        assert calls[0] <= len(want)


@pytest.mark.parametrize("pair", [(1, 1), (2, 1)])
def test_fixed_point_rescreen_of_float_suspects(cubic_pairs, pair, monkeypatch):
    # from about 1e15 every point was a suspect of the float scan this
    # lattice scan replaced; exact mode must see only the term, and the scan
    # must agree with member at every point
    from gplab.constructions.cubic import CubicConstruction

    cons = cubic_pairs[pair]
    member = CubicConstruction.member
    calls = _count_exact_evals(monkeypatch)
    terms = recurrence_terms(cons.recurrence, 10**17)
    for t in (t for t in terms if 10**13 <= t <= 10**17):
        calls[0] = 0
        lo, hi = t - 20, t + 20
        got = cons.certificate.members(lo, hi)
        if t >= 10**15:
            assert calls[0] == 1, t
        assert got == [n for n in range(lo, hi + 1) if member(cons, n)], t
