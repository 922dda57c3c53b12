"""Tests for recurrences, quadratic certificates and set transfer."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from gplab.constructions import (
    Certificate,
    LinearRecurrence,
    cubic_pisot_set,
    fibonacci_like_set,
    nint_powers,
    norm_plus_filtered_set,
    quadratic_pisot_unit_set,
    recurrence_terms,
    residue_coefficient,
    scaled_set_transfer,
    verify_certificate,
)
from gplab.cf import cf_expand, convergent_walk
from gplab.constructions.quadratic import odd_index_denominators, quadratic_unit
from gplab.constructions.registry import SCAN_TO, construction
from gplab.errors import PreconditionError, ZeroSolution
from gplab.gpexpr import eval_exact, eval_indicator, members, members_in
from gplab.realnum import NumberField, to_float

from oracles import REGISTRY_CASES, REGISTRY_IDS, dist_quadratic_lt, eval_tree, fibonacci_upto

# nint(phi^i) for i >= 0, phi the golden ratio: 1, 2, then the Lucas numbers
PHI_POWERS = (1, 2, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843)


def _in_fibonacci_set(n: int) -> bool:
    """||n phi|| < 1/(2n), n >= 1, decided by the surd oracle."""
    return dist_quadratic_lt(Fraction(n, 2), Fraction(n, 2), 5, Fraction(1, 2 * n))


def test_recurrence_terms_examples():
    fib = LinearRecurrence((1, 1), (1, 1))
    assert recurrence_terms(fib, 100) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    trib = LinearRecurrence((1, 1, 1), (1, 1, 2))
    assert recurrence_terms(trib, 100) == [1, 1, 2, 4, 7, 13, 24, 44, 81]
    four = LinearRecurrence((4, -1), (1, 1))
    assert recurrence_terms(four, 200) == [1, 1, 3, 11, 41, 153]


def test_recurrence_rejects_bad_data():
    with pytest.raises(PreconditionError):
        LinearRecurrence((1, 0), (1, 1))
    with pytest.raises(PreconditionError):
        LinearRecurrence((1, 1), (1,))


def test_residue_fibonacci_is_inverse_sqrt5():
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    rec = LinearRecurrence((1, 1), (0, 1))
    u = residue_coefficient(rec, fld)
    # 1/sqrt5 = (2 phi - 1)^{-1}
    sqrt5 = fld.generator() * 2 - 1
    assert (u * sqrt5 - 1).is_zero()
    assert abs(to_float(u) - 0.4472135955) < 1e-9


def test_residue_tribonacci_validated_limit():
    fld = NumberField((-1, -1, -1, 1), 1, 2, "b")
    rec = LinearRecurrence((1, 1, 1), (1, 1, 2))
    u = residue_coefficient(rec, fld)
    beta = fld.generator()
    r20 = rec.term(20)
    # |R_20 - u beta^20| < 1e-3
    err = fld.from_rational(r20) - u * beta**20
    assert (err * err - Fraction(1, 10**6)).sign() < 0
    assert abs(to_float(u) - 0.6184199223) < 1e-8


def test_residue_zero_solution():
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    rec = LinearRecurrence((1, 1), (0, 0))
    with pytest.raises(ZeroSolution):
        residue_coefficient(rec, fld)


def test_residue_checks_pisot_preconditions():
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    with pytest.raises(PreconditionError):
        residue_coefficient(LinearRecurrence((2, 1), (0, 1)), fld)  # wrong char poly
    # x^2 - 3x + 1 with the small root designated: dominant root must exceed 1
    small = NumberField((1, -3, 1), 0, 1, "mu")
    with pytest.raises(PreconditionError):
        residue_coefficient(LinearRecurrence((3, -1), (0, 1)), small)


# -- fibonacci-like sets ------------------------------------------------------

def test_fibonacci_certificate_members():
    cert = fibonacci_like_set(1)
    assert cert.members(2, 100) == [2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert not cert.member(4)
    # exact agreement with the independent surd oracle on an interval
    for n in range(1, 400):
        assert cert.member(n) == _in_fibonacci_set(n)


def test_fibonacci_indicator_matches_fast_scan():
    # the scan against the integer recurrence; scan against the compiled
    # indicator is test_scan_matches_compiled_indicator
    cert = fibonacci_like_set(1)
    assert cert.members(2, 1500) == [n for n in fibonacci_upto(1500) if n >= 2]
    for n in (1, 2, 3, 4, 88, 89, 90):
        assert cert.member(n) == _in_fibonacci_set(n)


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_scan_matches_compiled_indicator(name, params):
    # the scan's proposals, a generator's or the support analysis's, drop
    # no member of the indicator against a scan of every point; at n <= 0
    # the cubic and very-sparse indicators hold at points outside the target
    cert = construction(name).build(SimpleNamespace(**params))
    assert cert.members(-50, 4000) == list(members_in(cert.indicator, range(-50, 4001)))


_README_EXPRESSION = (
    "let phi = root(x^2-x-1, 1, 2); floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"
)


def _theta_floor_products(e) -> list:
    """The compiled ops that multiply theta by a floor: a zero test the
    evaluator did not recognise compiles to one."""
    from gplab.gpexpr.evaluate import _CONST, _FLOOR, _MUL, Program
    from gplab.realnum import THETA

    program = Program(e)
    ops = program.ops

    def is_theta(i):
        return ops[i][0] == _CONST and program.consts[ops[i][1]] is THETA

    return [
        op for op in ops
        if op[0] == _MUL and {ops[op[1]][0], ops[op[2]][0]} >= {_FLOOR, _CONST}
        and (is_theta(op[1]) or is_theta(op[2]))
    ]


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_every_registry_zero_test_compiles_to_one_op(name, params):
    # as built and as gp cert prints it: a builder change that loses the
    # compiled zero test would leave theta * floor(...) in the program
    cert = construction(name).build(SimpleNamespace(**params))
    reparsed = Certificate.from_file_text(cert.to_file_text())
    assert _theta_floor_products(cert.indicator) == []
    assert _theta_floor_products(reparsed.indicator) == []
    assert reparsed.members(-50, 600) == cert.members(-50, 600)


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_every_registry_indicator_compiles_alike_built_and_reparsed(name, params):
    # printed constants such as (-1/2) + (-3/2) * beta + beta^2 fold back into
    # the one constant the builder wrote, and the printer keeps every sum's
    # and product's association
    from gplab.gpexpr.evaluate import Program

    cert = construction(name).build(SimpleNamespace(**params))
    reparsed = Certificate.from_file_text(cert.to_file_text())
    built, again = Program(cert.indicator).ops, Program(reparsed.indicator).ops
    assert len(again) == len(built)
    assert sorted(op[0] for op in again) == sorted(op[0] for op in built)


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_every_registry_indicator_decides_like_its_literal_tree(name, params):
    # the compiled program fuses range tests and distance thresholds;
    # the reference walks every node of the tree as written.  Near 0, and
    # at the members of [10^5, 10^6] and their neighbours
    args = SimpleNamespace(**params)
    spec = construction(name)
    cert = spec.build(args)
    reparsed = Certificate.from_file_text(cert.to_file_text())
    far = [m + d for m in spec.oracle(args, 10**6) if m >= 10**5 for d in (-1, 0, 1)]
    for n in [*range(-6, 11), *far]:
        for e in (cert.indicator, reparsed.indicator):
            assert eval_indicator(e, n) == eval_exact(e, n) == eval_tree(e, n), n


def test_readme_zero_test_compiles_to_one_op():
    from gplab.gpexpr import parse
    from gplab.gpexpr.evaluate import Program

    assert _theta_floor_products(parse(_README_EXPRESSION)) == []
    assert len(Program(parse(_README_EXPRESSION)).ops) == 9


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_exact_mode_of_every_registry_indicator_is_a_rational_bit(name, params):
    # exact mode combines rationals and one field's elements with their own
    # operators; every indicator still ends in a Fraction 0 or 1, the
    # verdict of the dyadic ladder
    cert = construction(name).build(SimpleNamespace(**params))
    for n in range(-5, 201):
        value = eval_exact(cert.indicator, n)
        assert type(value) is Fraction and value in (0, 1), n
        assert value == eval_indicator(cert.indicator, n), n


def test_pell_certificate():
    cert = fibonacci_like_set(2)
    assert cert.members(2, 100) == [2, 5, 12, 29, 70]
    rec = LinearRecurrence((2, 1), (0, 1))
    report = verify_certificate(cert, recurrence_terms(rec, 10**4), 1, 10**4)
    assert report.symmetric_difference == ()


def test_fibonacci_like_rejects_bad_a():
    with pytest.raises(PreconditionError):
        fibonacci_like_set(0)


# -- quadratic norm +1 --------------------------------------------------------

def _gp_cert(tmp_path, *argv) -> Certificate:
    """The certificate ``gp cert`` prints, read back: its exceptional data
    comes from the one scan ``gp cert`` runs."""
    from gplab.cli import main

    out = tmp_path / "cert.txt"
    assert main(["cert", *argv, "--jobs", "1", "--out", str(out)]) == 0
    return Certificate.from_file_text(out.read_text())


def test_norm_plus_filtered_a4(tmp_path):
    cert = norm_plus_filtered_set(4)
    assert cert.members(1, 3000) == [4, 15, 56, 209, 780, 2911]
    # 1 = q_1 is the lone exceptional point on gp cert's scan
    scanned = _gp_cert(tmp_path, "--construction", "quadratic-filter", "--a", "4")
    assert scanned.exceptional == (1,)
    # w = v1/u1 equals (1 + sqrt3)/2 exactly for a = 4
    fld = NumberField((1, -4, 1), 3, 4, "beta")
    beta = fld.generator()
    # sqrt3 = beta - 2
    w_expected = (beta - 1) * Fraction(1, 2)
    assert "w" in cert.meta


def test_norm_plus_inclusion_invariant():
    # ||q_{2i+1} beta|| < 1/((a-2) q_{2i+1}) for a = 4, i <= 15
    a = 4
    fld = NumberField((1, -a, 1), a - 1, a, "beta")
    beta = fld.generator()
    q = [1, 1]
    while len(q) < 34:
        q.append((a - 2) * q[-1] + q[-2] if len(q) % 2 == 0 else q[-1] + q[-2])
    for i in range(16):
        qo = q[2 * i + 1]
        d = (beta * qo).dist_to_int()
        assert (d * ((a - 2) * qo) - 1).sign() < 0


def test_quadratic_pisot_unit_norm_minus_one():
    cert = quadratic_pisot_unit_set(1, -1)
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    oracle = nint_powers(fld.generator(), 4000)
    report = verify_certificate(cert, oracle, 1, 4000)
    assert report.exceptional_bound <= 5
    assert set(cert.members(5, 200)) == {7, 11, 18, 29, 47, 76, 123, 199}


def test_quadratic_pisot_unit_norm_plus_one_a4():
    cert = quadratic_pisot_unit_set(4, +1)
    fld = NumberField((1, -4, 1), 3, 4, "beta")
    oracle = nint_powers(fld.generator(), 10**4)
    report = verify_certificate(cert, oracle, 2, 10**4)
    assert report.symmetric_difference == ()
    assert cert.members(2, 10**4) == [4, 14, 52, 194, 724, 2702]


def test_quadratic_pisot_unit_a3_via_square():
    cert = quadratic_pisot_unit_set(3, +1)
    fld = NumberField((1, -3, 1), 2, 3, "beta")
    oracle = nint_powers(fld.generator(), 4000)
    report = verify_certificate(cert, oracle, 4, 4000)
    assert report.exceptional_bound <= 4
    assert cert.members(4, 1000) == [7, 18, 47, 123, 322, 843]


def test_quadratic_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        quadratic_pisot_unit_set(1, +1)
    with pytest.raises(PreconditionError):
        quadratic_pisot_unit_set(2, 0)


# -- set transfer -------------------------------------------------------------

def test_transfer_identity():
    cert = fibonacci_like_set(1)
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    ident = scaled_set_transfer(cert, fld.one(), "identity transfer")
    for n in (1, 2, 3, 4, 5, 8, 13, 20, 21, 33, 34):
        assert ident.member(n) == _in_fibonacci_set(n)


def test_transfer_fibonacci_by_inverse_sqrt5():
    cert = fibonacci_like_set(1)
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    u = residue_coefficient(LinearRecurrence((1, 1), (0, 1)), fld)
    out = scaled_set_transfer(cert, u, "nearest integers to powers of phi")
    got = out.members(5, 1000)
    assert got == [n for n in PHI_POWERS if n >= 5]
    for n in (4, 5, 7, 10, 11, 12, 29, 30):
        assert out.member(n) == (n in PHI_POWERS)


def test_transfer_large_u_reported_empty():
    cert = fibonacci_like_set(1)
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    # |u| > 2: the distance condition ||u m|| < |u|/2 is vacuous (always true),
    # membership reduces to nint(u m) landing in the source set
    u = fld.generator() * 3  # ~4.854
    out = scaled_set_transfer(cert, u, "sparse pullback")
    mem = out.members(1, 200)
    for m in mem:
        assert cert.member((u * m).nint())


@pytest.mark.parametrize("u_name", ["-1/beta", "1/beta", "-beta"])
def test_transfer_scan_at_every_sign(u_name):
    # the Tribonacci indicator also holds at -7, -4, -2, -1 and 0, so a
    # negative u pulls members back from source members of either sign
    cons = cubic_pisot_set(1, 1)
    beta = cons.beta
    u = {"-1/beta": -beta.inverse(), "1/beta": beta.inverse(), "-beta": -beta}[u_name]
    out = scaled_set_transfer(cons.certificate, u, "transfer")
    assert out.members(-40, 2000) == list(members_in(out.indicator, range(-40, 2001)))
    # the support analysis pulls the cubic's lattice-box points back
    assert sum(map(len, out.points(1, 10**6))) < 1000


# -- certificate file format --------------------------------------------------

def test_certificate_file_roundtrip():
    # a certificate scanned as gp cert scans it, with exceptional data
    spec = construction("quadratic")
    params = SimpleNamespace(a=3, norm=1)
    cert = spec.build(params)
    verify_certificate(cert, spec.oracle(params, SCAN_TO), spec.scan_from, SCAN_TO)
    assert cert.exceptional == (1, 3) and cert.exceptional_bound == 4
    text = cert.to_file_text()
    back = Certificate.from_file_text(text)
    assert back.target_description == cert.target_description
    assert back.exceptional_bound == cert.exceptional_bound
    assert back.exceptional == cert.exceptional
    assert back.meta["scanned_to"] == str(SCAN_TO)
    assert members(back.indicator, 0, 150) == cert.members(0, 150)
    # serialization is stable
    assert back.to_file_text() == text


def test_norm_plus_q_sequence_matches_classical_convergents():
    # the alternating two-step recurrences reproduce the classical
    # convergent denominators of the expansion [a-1; 1, a-2, 1, a-2, ...]
    from gplab.cf import cf_expand, convergents

    fld = NumberField((1, -4, 1), 3, 4, "beta")
    cf = cf_expand(fld.generator())
    assert cf.preperiod == (3,) and cf.period == (1, 2)
    denominators = [q for _, q in convergents(cf, 8)]
    a = 4
    q = [1, 1]
    while len(q) < 8:
        q.append((a - 2) * q[-1] + q[-2] if len(q) % 2 == 0 else q[-1] + q[-2])
    assert denominators == q


def test_small_fp_family_examples():
    from fractions import Fraction as F

    from gplab.constructions import small_fp_family
    from gplab.errors import PreconditionError as PE
    from gplab.gpexpr import Const, Dist, Mul, N, RationalConst, eval_indicator

    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    ind = small_fp_family(Dist(Mul(N, Const("s", sq2))), N, F(-1, 2))
    # ||n sqrt2||^2 * n < 1 fails at every n < 0, and 0 < ||n sqrt2|| at n = 0
    assert members(ind, -50, 0) == []
    assert eval_indicator(ind, 169) == 1
    assert eval_indicator(ind, 170) == 0
    # a strict lower bound: q identically zero admits nothing
    zero = small_fp_family(RationalConst(F(0)), N, F(-1, 2))
    assert [eval_indicator(zero, n) for n in range(1, 8)] == [0] * 7
    with pytest.raises(PE):
        small_fp_family(N, N, F(1, 2))  # exponent must be negative


def test_members_decides_a_run_proposed_whole_as_its_range():
    # fibonacci a=1 proposes every n <= 0: the run stays one range, and
    # members_in is handed that range itself, not a list of its points
    cert = fibonacci_like_set(1)
    assert cert.points(-(10**6), 100)[0] == range(-(10**6), 1)
    seen = []
    scan = cert.members_in

    def spy(points, *args):
        seen.append(points)
        return scan(points, *args)

    cert.members_in = spy
    assert cert.members(-2000, 100) == members(cert.indicator, -2000, 100)
    assert type(seen[0]) is range and seen[0] == range(-2000, 1)


def test_sqrt2_certificate_starts_at_one():
    from gplab.constructions import sqrt2_small_dist_certificate

    cert = sqrt2_small_dist_certificate()
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()

    def in_target(n):  # ||n sqrt2||^2 * n < 1 in Q(sqrt2)
        d = (sq2 * n).dist_to_int()
        return not d.is_zero() and (d * d * n - 1).sign() < 0

    # the analysis proposes every point, and the indicator is 0 at every n <= 0
    assert cert.points(-6, 300) == [range(-6, 301)]
    assert cert.members(-6, 0) == []
    assert not cert.member(-3)
    assert cert.members(-6, 300) == [n for n in range(1, 301) if in_target(n)]


def test_sqrt2_indicator_matches_the_squared_offset_form():
    from gplab.constructions import sqrt2_small_dist_certificate
    from gplab.gpexpr import Const, Dist, Mul, N

    from oracles import small_fp_squared

    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    squared = small_fp_squared(Dist(Mul(N, Const("s", sq2))), N, Fraction(-1, 2))
    assert sqrt2_small_dist_certificate().members(1, 20000) == members(squared, 1, 20000)


def test_half_over_n_scan_across_chunk_boundaries():
    from gplab.constructions import quadratic

    field = NumberField((-1, -1, 1), 1, 2, "phi")
    phi = field.generator()

    def exact(x, lo, hi):
        # x = (1 +- sqrt5)/2; the indicator also holds at n = 0 (by scaling)
        q = Fraction(1, 2) if x == phi else Fraction(-1, 2)
        return [0] * (lo <= 0 <= hi) + [
            n for n in range(max(lo, 1), hi + 1)
            if dist_quadratic_lt(Fraction(n, 2), q * n, 5, Fraction(1, 2 * n))
        ]

    def scan(x, lo, hi):
        cert = quadratic._half_over_n_certificate(x, "")
        return cert.members(lo, hi)

    # short ranges, one reaching n <= 0; 1 - phi < 0
    for x in (phi, 1 - phi):
        for lo, hi in [(-5, 250), (1, 300), (140, 1000)]:
            assert scan(x, lo, hi) == exact(x, lo, hi)
    # a range one block (2^15 points) of the former float scans long,
    # ending past a Fibonacci term
    chunk = 1 << 15
    term = next(f for f in fibonacci_upto(10**18) if f > chunk + 3)
    lo, hi = term - chunk - 3, term + 50
    got = scan(phi, lo, hi)
    assert term in got
    assert got == [n for n in fibonacci_upto(hi) if n >= lo]
    window = (term - 20, term + 20)
    assert [n for n in got if window[0] <= n <= window[1]] == exact(phi, *window)


def _count_confirmations(monkeypatch):
    calls = [0]
    members_in = Certificate.members_in

    def counted(self, points, *args):
        calls[0] += len(points)
        return members_in(self, points, *args)

    monkeypatch.setattr(Certificate, "members_in", counted)
    return calls


def test_half_over_n_prefilter_work(monkeypatch):
    # deterministic guards against a prefilter that silently stops
    # filtering: confirmations are counted, not timed
    fib, pell = fibonacci_like_set(1), fibonacci_like_set(2)
    calls = _count_confirmations(monkeypatch)
    assert fib.members(1, 10**7) == fibonacci_upto(10**7)[2:]
    assert calls[0] == 34  # one per member: nothing else passes below 1e7
    calls[0] = 0
    assert fib.members(3 * 10**11, 3 * 10**11 + 10**6) == []
    assert calls[0] == 0  # no convergent denominator or multiple in the window
    for cert, a in ((fib, 1), (pell, 2)):
        terms = fibonacci_upto(10**15 + 20, a)
        for t in (t for t in terms if 10**6 <= t <= 10**15):
            lo, hi = t - 20, t + 20
            assert cert.members(lo, hi) == [x for x in terms if lo <= x <= hi], t


@pytest.mark.parametrize(
    "build,expected",
    [
        # nint(beta^i) from i = 2; 1 and 3 are exceptional
        (lambda: quadratic_pisot_unit_set(3, 1),
         lambda top: nint_powers(quadratic_unit(3, 1), top)[2:]),
        # 0 and 4 hold, 1 and 3 do not
        (lambda: quadratic_pisot_unit_set(3, -1),
         lambda top: [0, 4] + nint_powers(quadratic_unit(3, -1), top)[2:]),
        # odd-index convergent denominators from q_3 = 4
        (lambda: norm_plus_filtered_set(4), lambda top: odd_index_denominators(4, top)[1:]),
    ],
    ids=["quadratic-a3-norm+1", "quadratic-a3-norm-1", "quadratic-filter-a4"],
)
def test_derived_scan_confirms_each_point_once(monkeypatch, build, expected):
    # a certificate built on others reads their proposals, not their members:
    # its scan compiles one program, its own, and evaluates it once per point
    from gplab.gpexpr import evaluate

    cert = build()
    compiles, evaluated = [0], []

    class Counted(evaluate.Program):
        def __init__(self, e):
            compiles[0] += 1
            super().__init__(e)

        def scan(self, ns, bits):
            ns = list(ns)
            evaluated.extend(ns)
            return super().scan(ns, bits)

    monkeypatch.setattr(evaluate, "Program", Counted)
    top = 10**17
    assert cert.members(0, top) == expected(top)
    assert compiles[0] == 1
    assert evaluated == [n for piece in cert.points(0, top) for n in piece]


def _half_over_n_root(name: str):
    """phi and 1 - phi, the Pell root, gamma for a = 4 and 7 and the root of
    x^2 - 8x - 1, whose members 2, 16, 130, ... are doubles of q_k."""
    if name in ("phi", "1-phi"):
        phi = NumberField((-1, -1, 1), 1, 2, "phi").generator()
        return phi if name == "phi" else 1 - phi
    if name == "pell":
        return NumberField((-1, -2, 1), 2, 3, "s").generator()
    if name == "root8":
        return NumberField((-1, -8, 1), 8, 9, "r").generator()
    a = int(name[len("gamma"):])
    return NumberField((1, -a, 1), a - 1, a, "g").generator()


@pytest.mark.parametrize("name", ["phi", "1-phi", "pell", "gamma4", "gamma7", "root8"])
def test_half_over_n_scan_matches_indicator(name):
    from gplab.constructions import quadratic

    x = _half_over_n_root(name)
    cert = quadratic._half_over_n_certificate(x, "")
    cf = cf_expand(x)
    got = cert.members(-50, 30000)
    assert got == list(members_in(cert.indicator, range(-50, 30001)))
    if name == "root8":
        assert {2, 16, 130, 1056, 8578} <= set(got)  # the g = 2 candidates
    # +-20 windows around every convergent denominator q_k and 2 q_k to 1e17
    centres = set()
    for _, q, _ in convergent_walk(cf):
        if q > 10**17:
            break
        centres |= {q, 2 * q}
    for c in sorted(centres):
        lo, hi = c - 20, c + 20
        got = cert.members(lo, hi)
        want = [n for n in range(lo, hi + 1) if eval_indicator(cert.indicator, n)]
        assert got == want, (name, c)


@pytest.mark.parametrize(
    "params,clean",
    [
        ("fibonacci --a 7", True),
        ("fibonacci --a 8", False),
        ("quadratic --a 7 --norm -1", True),
        ("quadratic --a 8 --norm -1", False),
        ("quadratic-filter --a 8", True),
        ("quadratic-filter --a 9", False),
        ("quadratic --a 8 --norm 1", True),
        ("quadratic --a 9 --norm 1", False),
    ],
)
def test_builders_refuse_infinitely_many_doubles(tmp_path, capsys, params, clean):
    # 2 q_k is a member iff x_(k+1) + q_(k-1)/q_k > 8; that sum tends to
    # sqrt(a^2 + 4) for x^2 - a x - 1 and to sqrt(a^2 - 4) for x^2 - a x + 1
    from gplab.cli import main

    out = tmp_path / "v.txt"
    argv = ["verify", "--construction", *params.split(), "--to", str(10**15),
            "--jobs", "1", "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    if not clean:
        assert code == 2
        assert "exceptional set is infinite" in err
        return
    assert code == 0
    rows = dict(line.split(": ", 1) for line in out.read_text().splitlines() if ": " in line)
    sym = [int(x) for x in rows.get("symmetric_difference", "").split()]
    # nothing beyond the exceptional set, which gp cert's scan finds below 4000
    assert all(x < 4000 for x in sym)
