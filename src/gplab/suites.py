"""Named check batteries: the acceptance criteria and a quick property suite.

Each check raises AssertionError (with a diagnostic message) on failure and
returns a human-readable detail string on success.  ``run_suite`` wraps the
battery with timing and one pass/fail line per check.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from .cf import best_approx_1d, best_approx_2d, cf_expand, convergents, legendre_check
from .constructions import (
    VerificationReport,
    cubic_pisot_set,
    fibonacci_like_set,
    recurrence_terms,
    very_sparse_alpha,
    very_sparse_set,
    verify_certificate,
)
from .constructions.quadratic import fibonacci_like_terms
from .constructions.registry import CONSTRUCTIONS, SCAN_TO
from .errors import GPLabError
from .gpexpr import (
    N,
    RationalConst,
    discrete_difference,
    parse,
    to_text,
)
from .ipsearch import ap_witness_in_small_dist_set, find_ipr_in_set, translated_ip_probe
from .nilorbit import (
    default_orbit_spec,
    elem,
    growth_count,
    heis_inv,
    heis_mul,
    heis_reduce,
    orbit_point,
)
from .realnum import (
    NumberField,
    compare,
    dist_of,
    floor_frac,
    frac_of,
    nint_of,
    radd,
    rmul,
    rsub,
    sign_of,
    to_float,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _require(cond: bool, message: str = "check failed") -> None:
    """A check's condition, enforced as ``assert`` is not under ``python -O``."""
    if not cond:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

def _verify(name: str, lo: int, to: int, **params) -> VerificationReport:
    """The registry construction ``name`` built from ``params``, scanned on
    [lo, to] against its registry oracle."""
    spec, p = CONSTRUCTIONS[name], SimpleNamespace(**params)
    return verify_certificate(spec.build(p), spec.oracle(p, to), lo, to)


def check_fibonacci_certificate(to: int = 10**6) -> str:
    report = _verify("fibonacci", 2, to, a=1)
    _require(report.symmetric_difference == (), (
        f"unexpected mismatches: {report.symmetric_difference}"
    ))
    return (
        f"certificate = Fibonacci numbers exactly on [2, {to}]; "
        f"symmetric difference empty"
    )


def check_fibonacci_constant() -> str:
    fld = NumberField((-1, -1, 1), 1, 2, "phi")
    phi = fld.generator()
    fib = fibonacci_like_terms(1, 10**12)
    n = fib[-1]
    d = (phi * n).dist_to_int() * n
    # |n ||n phi|| - 1/sqrt(5)| < 1e-6, exactly: sqrt5 = 2 phi - 1
    inv_sqrt5 = (phi * 2 - 1).inverse()
    err = d - inv_sqrt5
    tol = Fraction(1, 10**6)
    _require((err - tol).sign() < 0 and (err + tol).sign() > 0, "constant mismatch")
    return f"n={n}: |n*dist - 1/sqrt5| = {abs(to_float(err)):.3e} < 1e-6 (exact)"


def check_quadratic_norm_plus(to: int = 10**6) -> str:
    report = _verify("quadratic-filter", 1, to, a=4)
    _require(report.exceptional_bound <= 2, f"exceptional bound {report.exceptional_bound}")
    # q_1 = 1 is the lone exception
    _require(report.symmetric_difference == (1,), f"exceptional {report.symmetric_difference}")
    return (
        f"filtered set on [1, {to}] = odd-index denominators; "
        f"exceptional: {report.symmetric_difference}"
    )


def check_half_over_n_to_1e17(to: int = 10**17) -> str:
    """The five half-over-n certificates from their scan starts to 1e17.

    One scan per certificate, from where ``gp cert`` starts its scan: every
    mismatch must lie below ``SCAN_TO``, where that scan lists it as
    exceptional.  The scans take their candidates from continued-fraction
    denominators, so the range costs O(log to) confirmations.  The oracles
    are the registry's.
    """
    cases = [
        ("fibonacci", "a=1", dict(a=1)),
        ("fibonacci", "a=2", dict(a=2)),
        ("quadratic-filter", "a=4", dict(a=4)),
        ("quadratic", "a=3 norm=+1", dict(a=3, norm=1)),
        ("quadratic", "a=3 norm=-1", dict(a=3, norm=-1)),
    ]
    parts = []
    for name, label, params in cases:
        lo = CONSTRUCTIONS[name].scan_from
        report = _verify(name, lo, to, **params)
        _require(report.exceptional_bound <= SCAN_TO, (
            f"{name} {label}: mismatches {report.symmetric_difference} on [{lo}, {to}]"
        ))
        parts.append(
            f"{name} {label}: {len(report.members_found)} on [{lo}, {to}], "
            f"exceptional {list(report.symmetric_difference)}"
        )
    return f"every mismatch below {SCAN_TO}; " + "; ".join(parts)


def check_cubic(to: int = 10**6, h_to: int = 10**4, i_max: int = 20) -> str:
    cons = cubic_pisot_set(1, 1)
    cert = cons.certificate
    report = verify_certificate(cert, recurrence_terms(cons.recurrence, to), 1, to)
    _require(report.symmetric_difference == (), (
        f"unexpected mismatches: {report.symmetric_difference}"
    ))
    # closed form vs brute force wherever the distance is below Im(alpha)/2
    im_sq = cons.norm.im_u_sq
    checked = 0
    for q in range(1, h_to + 1):
        n0 = cons.n0_sq(q)
        if (n0 * 4 - im_sq).sign() < 0:
            _require((cons.h_sq(q) - n0).is_zero(), f"h^2 != N0^2 at q={q}")
            checked += 1
    # record law with the measured alignment, exact (implies 1e-6 relative)
    terms = recurrence_terms(cons.recurrence, 10**7)
    k = cons.plateau_pow
    for i in range(2, i_max + 1):
        _require(cons.record_law(i, terms[i]), f"record law at i={i}")
    return (
        f"set = recurrence values exactly on [1, {to}]; h == N0 at {checked} points "
        f"of [1, {h_to}]; records m(R_i) = m1 * beta^(({k} - 2i)/4) exact for 2 <= i <= {i_max}"
    )


def check_cubic_to_1e17(to: int = 10**17) -> str:
    """Three cubic certificates on [1, 1e17], and the record law there.

    The members of (1, 1) and (2, 1) are their recurrence values.  For
    (2, -1) the indicator also holds on the orbit R_(i-2) + R_i, i >= 2
    (``plateau_shared_by_extra_orbit``), and on nothing else.  Each scan
    proposes O(log to) lattice points.  N0(R_i theta)^2 = m1^2
    beta^((k - 2i)/2) holds exactly for every Tribonacci term below ``to``.
    """
    tribonacci = cubic_pisot_set(1, 1)
    parts = []
    for cons in (tribonacci, cubic_pisot_set(2, 1), cubic_pisot_set(2, -1)):
        found = cons.certificate.members(1, to)
        terms = recurrence_terms(cons.recurrence, to)
        orbit = {terms[i - 2] + terms[i] for i in range(2, len(terms))} if cons.b == -1 else ()
        extra = set(found) ^ set(terms)
        _require(extra == {v for v in orbit if v <= to}, (
            f"cubic ({cons.a}, {cons.b}): off the recurrence {sorted(extra)[:8]}"
        ))
        parts.append(f"({cons.a}, {cons.b}): {len(found)} members, {len(extra)} off it")
    terms = recurrence_terms(tribonacci.recurrence, to)
    k = tribonacci.plateau_pow
    for i in range(2, len(terms)):
        _require(tribonacci.record_law(i, terms[i]), f"record law at i={i}")
    return (
        f"members on [1, {to}] against the recurrence: " + "; ".join(parts)
        + " (the orbit R_(i-2) + R_i); "
        f"records m(R_i) = m1 * beta^(({k} - 2i)/4) exact for 2 <= i <= {len(terms) - 1}"
    )


def check_very_sparse() -> str:
    params = very_sparse_alpha([2, 128, 128**7], 5, 6)
    cert = very_sparse_set(params)
    mem = cert.members(2, 10**5)
    _require(mem == [2, 128], f"members {mem}")
    _require(cert.member(128**7), "spot membership of the deepest term failed")
    return "members on [2, 1e5] = {2, 128}; spot check at 128^7 passed"


def check_very_sparse_support() -> str:
    """The default certificate's support on [1, oo) is exactly its sequence.

    A member n >= 1 has 0 < ||n alpha|| <= n^(1-C)/2, and a nonzero
    ||n alpha|| is at least 1/Q for Q the denominator of alpha, so
    n^(C-1) <= Q/2; the scan runs to a power of two past that bound.
    """
    seq = (2, 128, 128**7)
    params = very_sparse_alpha(seq, 5, 6)
    q = params.alpha.denominator
    e = -(-q.bit_length() // (params.C - 1))  # (2^e)^(C-1) > Q
    mem = very_sparse_set(params).members(1, 1 << e)
    _require(tuple(mem) == seq, f"members on [1, 2^{e}]: {mem}")
    return (
        f"members on [1, 2^{e}] = {{2, 128, 128^7}}, and n^{params.C - 1} <= Q/2 "
        f"for every member, Q = alpha's {q.bit_length()}-bit denominator"
    )


def _growth_rows(c: Fraction, ladder: tuple[int, ...]) -> tuple[list, str]:
    """Growth rows at exponent c, checked: positive ratios, spread < 4, no skips."""
    rows = growth_count(default_orbit_spec(c), ladder)
    ratios = [r.ratio for r in rows]
    _require(all(r > 0 for r in ratios), f"c={c}: ratio not positive")
    spread = max(ratios) / min(ratios)
    _require(spread < 4, f"c={c}: ratio spread {spread:.2f} >= 4")
    _require(all(r.skipped == 0 for r in rows), f"c={c}: precision skips occurred")
    counts = ", ".join(f"S({r.N})={r.count}" for r in rows)
    return rows, f"{counts}; ratio spread {spread:.2f} < 4"


def check_heisenberg_growth() -> str:
    _, detail = _growth_rows(Fraction(1, 20), (10**3, 10**4, 10**5, 10**6))
    spec = default_orbit_spec(Fraction(1, 20))
    for n in range(1, 1001):
        m = floor_frac(rmul(Fraction(n), spec.beta))[0]
        z = frac_of(rmul(Fraction(n * m), spec.alpha))
        _require(compare(orbit_point(spec, n).z, z) == 0, f"z-identity failed at n={n}")
    return f"{detail}; z-identity exact for n <= 1000"


def check_heisenberg_growth_1e5() -> str:
    """Growth to N = 1e5 at c = 1/3 and 9/20: ratios S(N)/N^(1-c) within 1.5x."""
    parts = []
    for c in (Fraction(1, 3), Fraction(9, 20)):
        rows, _ = _growth_rows(c, (10**3, 10**4, 10**5))
        ratios = [r.ratio for r in rows]
        spread = max(ratios) / min(ratios)
        _require(spread < 1.5, f"c={c}: ratio spread {spread:.3f} >= 1.5")
        counts = ", ".join(f"S({r.N})={r.count}" for r in rows)
        parts.append(f"c={c}: {counts}; ratio spread {spread:.3f} < 1.5")
    return "; ".join(parts)


def check_best_approx_2d_tribonacci(Q: int = 10**5) -> str:
    """Rauzy-norm records of theta for (a, b) = (1, 1) are the Tribonacci terms."""
    cons = cubic_pisot_set(1, 1)
    records = [b.q for b in best_approx_2d(cons.theta, cons.norm, Q)]
    terms = sorted(set(recurrence_terms(cons.recurrence, Q)))
    _require(records == terms, f"records {records} vs Tribonacci terms {terms}")
    return f"{len(records)} records on [1, {Q}] = Tribonacci terms 1, 2, 4, ..., {records[-1]}"


def check_heisenberg_growth_non_vacuous() -> str:
    """Growth where n^(-c) < 1/2 for most n, so orbit points are evaluated."""
    parts = []
    for c in (Fraction(9, 20), Fraction(1, 3)):
        rows, detail = _growth_rows(c, (10**3, 10**4))
        for r in rows:
            _require(r.count < r.N - 1, f"c={c}: S({r.N}) = N - 1, settled by the threshold alone")
        parts.append(f"c={c}: {detail}")
    return "; ".join(parts)


def check_ip_witness() -> str:
    rep = ap_witness_in_small_dist_set(5)
    _require(rep.witness == (169, 338, 507, 676, 845), f"witness {rep.witness}")
    return f"m=169: progression {rep.witness} verified exactly"


def check_finite_sums_probe(exponent: int = 4) -> str:
    fib, bound = fibonacci_like_set(1), 10**exponent
    rep = find_ipr_in_set(fib, 4, bound)
    _require(rep.exhaustive and rep.witness is None, f"unexpected witness {rep.witness}")
    rep_t = translated_ip_probe(fib, 3, bound, range(0, 11))
    _require(rep_t.exhaustive and rep_t.witness is None, f"unexpected witness {rep_t.witness}")
    return (
        f"no FS(n1..n4) <= 1e{exponent} ({rep.nodes_explored} nodes); no translated FS(n1..n3) "
        f"with shifts 0..10 ({rep_t.nodes_explored} nodes); one-sided probes"
    )


# ---------------------------------------------------------------------------
# property battery (criterion 9 and the quick suite)
# ---------------------------------------------------------------------------

def check_floor_family_identities(samples: int = 10**4) -> str:
    rng = random.Random(20260811)
    fld = NumberField((-2, 0, 1), 1, 2, "s")
    sq2 = fld.generator()
    for _ in range(samples):
        kind = rng.randrange(3)
        if kind == 0:
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**3))
        else:
            x = sq2 * rng.randrange(-10**4, 10**4) + Fraction(rng.randrange(-100, 100), 7)
        m, f = floor_frac(x)
        _require(sign_of(f) >= 0 and sign_of(rsub(f, Fraction(1))) < 0)
        _require(compare(radd(f, Fraction(m)), x) == 0)
        _require(nint_of(x) == floor_frac(radd(x, Fraction(1, 2)))[0])
        d = dist_of(x)
        f2 = frac_of(x)
        alt = rsub(Fraction(1), f2)
        expected = f2 if compare(f2, alt) <= 0 else alt
        _require(compare(d, expected) == 0)
    return f"floor/frac/nint/dist identities hold on {samples} sampled values"


def check_discrete_difference(cases: int = 100) -> str:
    rng = random.Random(987654321)
    for _ in range(cases):
        deg = rng.randrange(0, 4)
        d = deg + 1 + rng.randrange(0, 2)
        poly = RationalConst(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
        expr = poly
        for j in range(deg):
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            expr = radd_expr(expr, c, j + 1)
        shifts = [rng.randrange(1, 50) for _ in range(d)]
        val = discrete_difference(expr, shifts)
        _require(isinstance(val, Fraction) and val == 0, f"nonzero difference {val}")
    return f"{cases} random polynomials of degree < d vanish under d shifts"


def radd_expr(expr, c: Fraction, power: int):
    from .gpexpr import Add, Mul, Pow

    return Add(expr, Mul(RationalConst(c), Pow(N, power)))


def check_parser_roundtrip(cases: int = 120) -> str:
    rng = random.Random(13579)
    phi_field = NumberField((-1, -1, 1), 1, 2, "phi")

    def gen(depth: int):
        from .gpexpr import Add, Const, Dist, Floor, Frac, Mul, Nint, Pow, Sub

        if depth == 0:
            leaves = [
                N,
                RationalConst(Fraction(rng.randrange(0, 30))),
                RationalConst(Fraction(rng.randrange(1, 9), rng.randrange(2, 9))),
                Const("phi", phi_field.generator()),
                Const(
                    "phi",
                    phi_field.element(
                        Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                        Fraction(rng.randrange(-4, 5)),
                    ),
                ),
            ]
            return rng.choice(leaves)
        op = rng.randrange(7)
        if op == 0:
            return Add(gen(depth - 1), gen(depth - 1))
        if op == 1:
            return Sub(gen(depth - 1), gen(depth - 1))
        if op == 2:
            return Mul(gen(depth - 1), gen(depth - 1))
        if op == 3:
            return Pow(gen(depth - 1), rng.randrange(0, 4))
        if op == 4:
            return Floor(gen(depth - 1))
        if op == 5:
            return Frac(gen(depth - 1))
        return rng.choice([Nint, Dist])(gen(depth - 1))

    for _ in range(cases):
        e = gen(rng.randrange(1, 4))
        text = to_text(e)
        reparsed = parse(text)
        _require(to_text(reparsed) == text, f"round trip failed for {text!r}")
        _require(parse(to_text(reparsed)) == reparsed)
    return f"print-parse round trip stable on {cases} generated expressions"


def check_heisenberg_axioms(cases: int = 60) -> str:
    rng = random.Random(24680)
    fld = NumberField((-2, 0, 1), 1, 2, "s")
    s = fld.generator()

    def rand_elem():
        def coord():
            return s * rng.randrange(-20, 21) + Fraction(rng.randrange(-20, 21), 7)

        return elem(coord(), coord(), coord())

    for _ in range(cases):
        g, h, k = rand_elem(), rand_elem(), rand_elem()
        lhs = heis_mul(heis_mul(g, h), k)
        rhs = heis_mul(g, heis_mul(h, k))
        for a, b in zip(lhs, rhs):
            _require(compare(a, b) == 0)
        for a in heis_mul(g, heis_inv(g)):
            _require(compare(a, Fraction(0)) == 0)
        frac, integral = heis_reduce(g)
        for a in integral:
            _require(isinstance(a, Fraction) and a.denominator == 1)
        for a in frac:
            _require(sign_of(a) >= 0 and compare(a, Fraction(1)) < 0)
        back = heis_mul(frac, integral)
        for a, b in zip(back, g):
            _require(compare(a, b) == 0)
    return f"group axioms, inverses and reduction verified on {cases} random triples"


@functools.cache
def _quadratic_fields() -> tuple[NumberField, ...]:
    """Q(phi), Q(sqrt 2) and Q(2 + sqrt 3): the fields of the 1-D quick checks."""
    return (
        NumberField((-1, -1, 1), 1, 2, "phi"),
        NumberField((-2, 0, 1), 1, 2, "s"),
        NumberField((1, -4, 1), 3, 4, "t"),
    )


def check_legendre_completeness(n_max: int = 1000) -> str:
    count = 0
    for x in (fld.generator() for fld in _quadratic_fields()):
        conv = {pq for pq in convergents(cf_expand(x), 40)}
        for n in range(1, n_max + 1):
            m = (x * n).nint()
            if math.gcd(m, n) != 1:
                continue
            if legendre_check(x, m, n):
                _require((m, n) in conv, f"({m},{n}) passes but is not a convergent")
                count += 1
    return f"all {count} passing pairs with n <= {n_max} are convergents (3 constants)"


def check_best_approx_2d_monotone(Q: int = 100) -> str:
    fld = NumberField((-1, -1, -1, 1), 1, 2, "b")
    from .cf import RauzyNorm

    norm = RauzyNorm.for_cubic_field(fld, 1)
    beta = fld.generator()
    ba = best_approx_2d((beta.inverse(), (beta * beta).inverse()), norm, Q)
    for prev, cur in zip(ba, ba[1:]):
        _require((cur.value_sq - prev.value_sq).sign() < 0, "records not strictly decreasing")
    qs = [b.q for b in ba]
    return f"record values strictly decrease along q = {qs}"


def check_best_approx_1d_matches_convergents(Q: int = 10**4) -> str:
    """Lagrange's theorem: the records of ||q x|| over every q <= Q, decided
    exactly, are the convergent denominators, and ``best_approx_1d``."""
    for fld in _quadratic_fields():
        x = fld.generator()
        records, best = [], None
        for q in range(1, Q + 1):
            d = (x * q).dist_to_int()
            if best is None or d < best:
                records.append(q)
                best = d
        conv = sorted({q for _, q in convergents(cf_expand(x), 60) if q <= Q})
        _require(records == conv, f"{fld.name}: {records[:8]} vs {conv[:8]}")
        ba = [b.q for b in best_approx_1d(x, Q)]
        _require(ba == records, f"{fld.name}: {ba[:8]} vs {records[:8]}")
    return f"records of every q <= {Q} = convergent denominators = best_approx_1d (3 constants)"


def check_error_term_sandwich() -> str:
    for fld in _quadratic_fields():
        x = fld.generator()
        conv = convergents(cf_expand(x), 31)
        for (p1, q1), (p2, q2) in zip(conv, conv[1:]):
            err = (x - Fraction(p1, q1)).abs()
            lo = Fraction(1, 2 * q1 * q2)
            hi = Fraction(1, q1 * q2)
            _require((err - lo).sign() >= 0, f"{fld.name}: error below sandwich at q={q1}")
            _require((err - hi).sign() <= 0, f"{fld.name}: error above sandwich at q={q1}")
    return "1/(2 q_j q_{j+1}) <= |x - p_j/q_j| <= 1/(q_j q_{j+1}) for j <= 30 (3 constants)"


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

QUICK_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("floor-family-identities", check_floor_family_identities),
    ("discrete-difference-vanishing", check_discrete_difference),
    ("parser-roundtrip", check_parser_roundtrip),
    ("heisenberg-axioms", lambda: check_heisenberg_axioms(40)),
    ("legendre-completeness", check_legendre_completeness),
    ("best-approx-2d-monotone", check_best_approx_2d_monotone),
    ("error-term-sandwich", check_error_term_sandwich),
    ("best-approx-1d-vs-convergents", lambda: check_best_approx_1d_matches_convergents(2000)),
]

PAPER_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("fibonacci-certificate", check_fibonacci_certificate),
    ("fibonacci-constant", check_fibonacci_constant),
    ("quadratic-norm-plus", check_quadratic_norm_plus),
    ("half-over-n-verify-1e17", check_half_over_n_to_1e17),
    ("cubic-tribonacci", check_cubic),
    ("cubic-verify-1e17", check_cubic_to_1e17),
    ("very-sparse-compiler", check_very_sparse),
    ("very-sparse-support", check_very_sparse_support),
    ("heisenberg-growth", check_heisenberg_growth),
    ("heisenberg-growth-non-vacuous", check_heisenberg_growth_non_vacuous),
    ("heisenberg-growth-1e5", check_heisenberg_growth_1e5),
    ("best-approx-2d-tribonacci-1e5", check_best_approx_2d_tribonacci),
    ("ip-r-witness", check_ip_witness),
    ("finite-sums-probe", check_finite_sums_probe),
    ("finite-sums-probe-1e7", lambda: check_finite_sums_probe(7)),
    ("property-battery", lambda: "; ".join(fn() for _, fn in QUICK_CHECKS)),
]

SUITES = {"quick": QUICK_CHECKS, "paper-checks": PAPER_CHECKS}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise GPLabError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    results = []
    for check_name, fn in SUITES[name]:
        t0 = time.perf_counter()
        try:
            detail = fn()
            results.append(CheckResult(check_name, True, detail, time.perf_counter() - t0))
        except (AssertionError, GPLabError) as exc:
            results.append(CheckResult(check_name, False, str(exc), time.perf_counter() - t0))
    return results
