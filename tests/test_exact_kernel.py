"""The generated exact functions against the loop they replaced.

Each program's exact mode is one Python function generated from its op
list and the kind of each op's value (``gpexpr.evaluate.exact_source``).
``oracles.exact_reference`` is the loop that evaluated exact mode before:
for the same program, point and decided ops both must give the same value,
of the same type, or raise the same error.
"""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from gplab.constructions import Certificate, cubic_pisot_set, small_fp_family
from gplab.constructions.registry import CONSTRUCTIONS
from gplab.errors import DivisionByZero, NonBooleanValue, PrecisionExhausted
from gplab.gpexpr import (
    N,
    Const,
    Dist,
    Floor,
    Frac,
    Mul,
    RationalConst,
    Sub,
    eval_indicator,
    indicator_of_range,
    members,
    parse,
)
from gplab.gpexpr import evaluate
from gplab.gpexpr.evaluate import DEFAULT_MAX_BITS, Program, _dyadic_bits, exact_source
from gplab.realnum import NumberField, RefinableReal

from oracles import REGISTRY_CASES, REGISTRY_IDS, case_id, exact_reference, tribonacci_R
from test_dyadic_kernel import _STUCK_ONE, _dags, _windows

_README = (
    "let phi = root(x^2-x-1, 1, 2);"
    " floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"
)


def _outcome(f, *args):
    """f's value, or the type, text and n of what it raised."""
    try:
        return f(*args)
    except (PrecisionExhausted, NonBooleanValue, DivisionByZero) as exc:
        return type(exc), str(exc), getattr(exc, "n", None)


def _same(got, want) -> bool:
    if type(got) is RefinableReal:  # a stream: by its enclosures
        return type(want) is RefinableReal and got.interval(64) == want.interval(64)
    return type(got) is type(want) and got == want


def _decided(program: Program, n: int, bits: int) -> dict | None:
    """The ops a dyadic pass at ``bits`` decided at n, where it left n open."""
    v = next(program.scan((n,), bits), None)
    if v is None or type(v) is int or type(v[1]) is not dict:
        return None
    return {i: x >> bits for i, x in v[1].items() if x is not None}


def _assert_matches(program: Program, points, max_bits: int = DEFAULT_MAX_BITS, bits=None):
    """Generated and reference exact mode agree at every point, without and
    with the ops a dyadic pass decided there; returns how many points had some."""
    opened = 0
    for n in points:
        b = _dyadic_bits(n, max_bits) if bits is None else bits
        for decided in (None, _decided(program, n, b)):
            got = _outcome(program.eval_exact, n, max_bits, decided)
            want = _outcome(exact_reference, program, n, max_bits, decided)
            assert _same(got, want), (n, decided, got, want)
            opened += bool(decided)
    return opened


# -- every registry indicator, built and printed-then-parsed -----------------------

@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_registry_indicators_match_the_reference(name, params):
    args = SimpleNamespace(**params)
    cert = CONSTRUCTIONS[name].build(args)
    reparsed = Certificate.from_file_text(cert.to_file_text()).indicator
    windows = _windows(name, args)
    opened = 0
    for e in (cert.indicator, reparsed):
        program = Program(e)
        opened += sum(_assert_matches(program, window) for window in windows)
    if name == "cubic":  # every member is left open on its plateau
        assert opened >= len(windows)


def test_the_readme_expression_matches_the_reference():
    program = Program(parse(_README))
    assert _assert_matches(program, range(-60, 301)) == 0  # phi's floors all decide
    _assert_matches(program, range(10**12, 10**12 + 201))


def test_cubic_closed_forms_match_the_reference():
    # h(q)^2 and g(q) of every cubic: field elements, computed inline
    for a, b in ((1, 1), (2, 1), (2, -1)):
        cons = cubic_pisot_set(a, b)
        for e in (cons.h_sq_expr, cons.g_expr):
            _assert_matches(Program(e), [1, 2, 7, 10**6 + 3, 98_500_000_000_000_000, -5])


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(9, 20)])
def test_a_two_field_heisenberg_program_matches_the_reference(c):
    # n sqrt2 floor(n sqrt3) is one field's element; n sqrt2 * n sqrt3 is a
    # product of two fields' elements, a stream, and so is all that follows it
    sq2 = Const("sqrt2", NumberField((-2, 0, 1), 1, 2, "sqrt2").generator())
    sq3 = Const("sqrt3", NumberField((-3, 0, 1), 1, 2, "sqrt3").generator())
    x, y = Mul(N, sq2), Mul(N, sq3)
    one_field = Dist(Mul(x, Floor(y)))
    two_fields = Dist(Sub(Mul(x, y), Mul(x, Frac(y))))
    for q in (one_field, two_fields):
        _assert_matches(Program(small_fp_family(q, N, -c)), range(1, 121))
        _assert_matches(Program(q), range(0, 40))


def test_theta_zero_tests_match_the_reference():
    # a zero test on a floor compiles to a range test; on a non-floor
    # argument it runs as written, through theta's stream, which at n = 0
    # is multiplied by an exact 0
    texts = [
        "let s = root(x^2-2, 1, 2); floor(1 - frac(theta*floor(2*n*dist(n*s))))",
        "floor(1 - frac(theta*n))",
        "let s = root(x^3-x-1, 1, 2); floor(1 - frac(theta*(floor(n*s) - 3)))",
    ]
    for text in texts:
        _assert_matches(Program(parse(text)), range(-5, 60), max_bits=256)


# -- random op DAGs -----------------------------------------------------------------

@given(_dags())
@settings(max_examples=200, deadline=None)
def test_random_dags_match_the_reference(e):
    _assert_matches(Program(e), range(-4, 5), max_bits=64, bits=96)


# -- errors ---------------------------------------------------------------------------

def _dbz(bits):
    raise DivisionByZero("approximant divided by zero")


def test_errors_are_raised_as_before():
    stuck = Floor(Mul(N, _STUCK_ONE))  # never decided but at n = 0
    program = Program(stuck)
    got = _outcome(program.eval_exact, 3, 128)
    assert got == _outcome(exact_reference, program, 3, 128)
    assert got[0] is PrecisionExhausted
    with pytest.raises(PrecisionExhausted) as info:
        eval_indicator(indicator_of_range(stuck, 0, 2), 3, 128)
    assert info.value.n == 3
    # a stream whose enclosures raise
    bad = Program(Floor(Mul(N, Const("bad", RefinableReal(_dbz, "bad")))))
    got = _outcome(bad.eval_exact, 2, 64)
    assert got == _outcome(exact_reference, bad, 2, 64) and got[0] is DivisionByZero
    # 2 on the cubic plateau: the dyadic pass leaves the range test open,
    # and exact mode gives 2 at the member
    trib = cubic_pisot_set(1, 1).certificate.indicator
    doubled = Mul(RationalConst(Fraction(2)), trib)
    with pytest.raises(NonBooleanValue) as info:
        members(doubled, 1700, 1710)
    assert info.value.n == 1705 and info.value.value == 2
    assert exact_reference(Program(doubled), 1705) == Program(doubled).eval_exact(1705, 4096) == 2
    # a field element that is no integer
    with pytest.raises(NonBooleanValue) as info:
        members(parse("let phi = root(x^2-x-1, 1, 2); frac(n*phi)"), 0, 3)
    assert info.value.n == 1


# -- the generated source -------------------------------------------------------------

# sha256 of exact_source(*Program(e).exact_shape()) for the indicators of the
# registry constructions, built and printed-then-parsed, and the README
# expression; a generator change that alters any generated source re-pins
# it with its reason
_FIB = "f4dfe723def43afe4e66d2470e267ba4fe294d963843a46993ea3345432fb4e7"
_QUAD_MINUS = "47dc0dc4ccbc62b2f57ea52b0b6dfa31090dc890e42d8da4bf56df89ccd6eb0b"
_QUAD_MINUS_REPARSED = "8f28dfaa82f20a28da016eaad7ee1425da040c28c134ac9a0fc4a38fb98316fb"
_CUBIC = "fc0c39efc253e3bd7f1962998fe546a0c14513eb311b7223b9cca63b3d4d3321"
EXACT_SHA256 = [
    # (construction, parameters, built, re-parsed)
    ("fibonacci", dict(a=1), _FIB, _FIB),
    ("fibonacci", dict(a=7), _FIB, _FIB),
    ("quadratic", dict(a=3, norm=1),
     "387a1c4262681b64e0141d725ea2399f0524db5f118708af31c535add68d1deb",
     "387a1c4262681b64e0141d725ea2399f0524db5f118708af31c535add68d1deb"),
    ("quadratic", dict(a=3, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic", dict(a=2, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic", dict(a=5, norm=1),
     "700b39ce18d52e8e63bf491c82a426d502fa6632c7e7af369b63e9865897a064",
     "5208456b75f9c06b094b18356d205fc2a7028a6688aa9d6437e56eef817b8bda"),
    ("quadratic-filter", dict(a=4),
     "3ce91f1f61b196924cf1294590bff12b71ed202ffba5f2824d9db6bcc92141c4",
     "3ce91f1f61b196924cf1294590bff12b71ed202ffba5f2824d9db6bcc92141c4"),
    ("cubic", dict(a=1, b=1), _CUBIC, _CUBIC),
    # a constant of (2, 1) that is a rational field element prints as a
    # rational, and is read back as one
    ("cubic", dict(a=2, b=1), _CUBIC,
     "3dc4914c09f446ac4b6503aad971c7e53bd17baa472621fa55c52755f35129c4"),
    ("cubic", dict(a=2, b=-1), _CUBIC, _CUBIC),
    ("verysparse", dict(sequence=(2, 128, 562949953421312), C=5, D=6),
     "721da6137c00aff1c163e829b67483c9f389c614d2bd2295da82d6ad30a28a6b",
     "721da6137c00aff1c163e829b67483c9f389c614d2bd2295da82d6ad30a28a6b"),
]
_README_SHA256 = "137d77d7f484be1159fcc8219702f52eac332b7b6bc574c56b84d8a7ac14c5f0"


def _exact_sha256(e) -> str:
    return hashlib.sha256(exact_source(*Program(e).exact_shape()).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, params, built, reparsed",
    EXACT_SHA256,
    ids=[case_id(name, params) for name, params, _, _ in EXACT_SHA256],
)
def test_registry_exact_sources_are_pinned(name, params, built, reparsed):
    cert = CONSTRUCTIONS[name].build(SimpleNamespace(**params))
    assert _exact_sha256(cert.indicator) == built
    assert _exact_sha256(Certificate.from_file_text(cert.to_file_text()).indicator) == reparsed


def test_readme_exact_source_is_pinned():
    assert _exact_sha256(parse(_README)) == _README_SHA256


def test_programs_of_one_structure_share_one_compiled_function():
    # the cubics' h(q)^2 differ only in their constants and reduction
    # tables, which are passed in: one source, compiled once
    shapes = {Program(cubic_pisot_set(a, b).h_sq_expr).exact_shape() for a, b in ((1, 1), (2, 1))}
    assert len(shapes) == 1
    make = evaluate._exact_kernel(*shapes.pop())
    assert all(
        evaluate._exact_kernel(*Program(cubic_pisot_set(a, b).h_sq_expr).exact_shape()) is make
        for a, b in ((2, -1), (1, 1))
    )


def test_every_exact_fallback_of_a_scan_is_made_under_eval_indicator(monkeypatch):
    # the benchmark counts an exact fallback as an eval_exact call made
    # inside eval_indicator: members_in makes every one there
    depth = []
    calls = []
    real_indicator, real_exact = evaluate.eval_indicator, evaluate.eval_exact

    def indicator(*args, **kwargs):
        depth.append(1)
        try:
            return real_indicator(*args, **kwargs)
        finally:
            depth.pop()

    def exact(e, n, *args):
        calls.append((n, bool(depth)))
        return real_exact(e, n, *args)

    monkeypatch.setattr(evaluate, "eval_indicator", indicator)
    monkeypatch.setattr(evaluate, "eval_exact", exact)
    terms = sorted(set(tribonacci_R(10**6)) - {0})
    trib = cubic_pisot_set(1, 1).certificate
    assert trib.members(1, 10**6) == terms
    assert calls == [(n, True) for n in terms]
