"""The generated dyadic functions against the stack machine they replaced.

Each program's dyadic mode is one Python function generated from its op
list (``gpexpr.evaluate.kernel_source``).  ``oracles.dyadic_reference`` is
the stack machine that evaluated dyadic mode before: for the same program,
point and precision both must give the same interval, or both raise
``NeedBits``, so the generated function demands exactly the ops the stack
machine did.
"""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.constructions import Certificate, sqrt2_small_dist_certificate
from gplab.constructions.registry import CONSTRUCTIONS
from gplab.gpexpr import (
    N,
    Add,
    Const,
    Dist,
    Floor,
    Frac,
    Mul,
    Nint,
    Pow,
    RationalConst,
    Sub,
    dist_lt_scaled,
    ind_and,
    ind_not,
    ind_or,
    indicator_of_range,
    members,
    parse,
)
from gplab.gpexpr.evaluate import DEFAULT_MAX_BITS, Program, _dyadic_bits, kernel_source
from gplab.realnum import NeedBits, NumberField, RefinableReal

from oracles import dyadic_reference


def _outcome(f, *args):
    try:
        return f(*args)
    except NeedBits:
        return "NeedBits"


def _assert_matches(program: Program, points, bits=None) -> None:
    for n in points:
        b = _dyadic_bits(n, DEFAULT_MAX_BITS) if bits is None else bits
        got = _outcome(program.eval_dyadic, n, b)
        assert got == _outcome(dyadic_reference, program, n, b), (n, b)


# -- every registry indicator, built and printed-then-parsed -----------------------

_REGISTRY = [
    ("fibonacci", dict(a=1)),
    ("fibonacci", dict(a=2)),
    ("quadratic", dict(a=3, norm=1)),
    ("quadratic", dict(a=3, norm=-1)),
    ("quadratic-filter", dict(a=4)),
    ("cubic", dict(a=1, b=1)),
    ("cubic", dict(a=2, b=-1)),
    ("verysparse", dict(sequence=(2, 128, 562949953421312), C=5, D=6)),
]


def _windows(name: str, params) -> list[range]:
    """13-point windows around the first member past each 10^k, k = 3 ... 16."""
    found = CONSTRUCTIONS[name].oracle(params, 10**17)
    centres = {next((m for m in found if m >= 10**k), None) for k in range(3, 17)} - {None}
    return [range(c - 6, c + 7) for c in sorted(centres)]


@pytest.mark.parametrize("name, kwargs", _REGISTRY, ids=lambda v: str(v))
def test_registry_indicators_match_the_stack_machine(name, kwargs):
    params = SimpleNamespace(**kwargs)
    cert = CONSTRUCTIONS[name].build(params)
    reparsed = Certificate.from_file_text(cert.to_file_text()).indicator
    windows = _windows(name, params)
    assert windows
    for e in (cert.indicator, reparsed):
        program = Program(e)
        for window in windows:
            _assert_matches(program, window)


# sha256 of kernel_source(Program(e).shape()) for the indicators of the
# registry constructions, built and printed-then-parsed, the README expression
# and the small-distance certificate; a generator change that alters any
# generated source re-pins it with its reason
_FIB = "24b223bbf6f6af44143d19fe8253be40c5fc67be544f4dfe86d3404a241deb98"
_QUAD_MINUS = "bd6df2da185b9c1c31d9657603f7cc12ffb0182bac36934ebbcd9503dba2d531"
_QUAD_MINUS_REPARSED = "ba8b672138801737e0054245b43bc417e6556583d631a8d5f0dbf76a957d6793"
_FILTER = "34e40766107a91bde0a477d6a9f346bb6907cb4466716f3e605d044fd50e72ee"
_CUBIC = "b847c596e3852d19946f21b13c703e988a4773bab10f98b92377b13365ca6f2e"
_CUBIC_REPARSED = "27576421ccf5742ac4d5ad23a213fb5a3c2418ed48ef8f375646e156233aa9b9"
KERNEL_SHA256 = [
    # (construction, params, built, re-parsed)
    ("fibonacci", dict(a=1), _FIB, _FIB),
    ("fibonacci", dict(a=2), _FIB, _FIB),
    ("fibonacci", dict(a=7), _FIB, _FIB),
    ("quadratic", dict(a=3, norm=1),
     "80f76562cbf88827f2b1fa179068d3cb566e3b3f34d1f3e086d757940c3662ef",
     "80f76562cbf88827f2b1fa179068d3cb566e3b3f34d1f3e086d757940c3662ef"),
    ("quadratic", dict(a=3, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic", dict(a=5, norm=1),
     "e75ae3b295b018b2eebf530afea0d46187eae91be0dab8f139e753a89591a47f",
     "1986b90824bd3eb713a6861b5906fbe0c1851f019e1db8ebd744622fc77cb0e2"),
    ("quadratic", dict(a=2, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic-filter", dict(a=4), _FILTER, _FILTER),
    ("quadratic-filter", dict(a=6), _FILTER, _FILTER),
    ("cubic", dict(a=1, b=1), _CUBIC, _CUBIC_REPARSED),
    ("cubic", dict(a=2, b=1), _CUBIC, _CUBIC_REPARSED),
    ("cubic", dict(a=2, b=-1), _CUBIC, _CUBIC_REPARSED),
    ("verysparse", dict(sequence=(2, 128, 562949953421312), C=5, D=6),
     "ef309f3c78a326beda74d50f3690145bf607e56bcb37298c09ed7d8da5db4690",
     "ef309f3c78a326beda74d50f3690145bf607e56bcb37298c09ed7d8da5db4690"),
]
_README_SHA256 = "0a59f6550a54d14f432b6b549de68aca24d53de8c3405b2be83ffd56c709f027"
_SQRT2_SHA256 = "4839ff52befba8b2bad9ac376fcb4990815927af714d0b3298e22802f84217ef"


def _kernel_sha256(e) -> str:
    return hashlib.sha256(kernel_source(Program(e).shape()).encode()).hexdigest()


@pytest.mark.parametrize("name, kwargs, built, reparsed", KERNEL_SHA256, ids=lambda v: str(v))
def test_registry_kernels_are_pinned(name, kwargs, built, reparsed):
    cert = CONSTRUCTIONS[name].build(SimpleNamespace(**kwargs))
    assert _kernel_sha256(cert.indicator) == built
    assert _kernel_sha256(Certificate.from_file_text(cert.to_file_text()).indicator) == reparsed


def test_readme_and_small_distance_kernels_are_pinned():
    readme = (
        "let phi = root(x^2-x-1, 1, 2);"
        " floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"
    )
    assert _kernel_sha256(parse(readme)) == _README_SHA256
    cert = sqrt2_small_dist_certificate()
    reparsed = Certificate.from_file_text(cert.to_file_text())
    assert _kernel_sha256(cert.indicator) == _kernel_sha256(reparsed.indicator) == _SQRT2_SHA256


# -- random op DAGs: shared subterms under every kind of lazy operand -----------------

_PHI = NumberField((-1, -1, 1), 1, 2, "phi").generator()
# a stream for 1 whose every enclosure straddles 1: a floor of it is never decided
_STUCK_ONE = Const("one", RefinableReal(lambda bits: ((1 << bits) - 1, (1 << bits) + 1), "one"))
_LEAVES = (
    N,
    RationalConst(Fraction(0)),
    RationalConst(Fraction(1, 3)),
    RationalConst(Fraction(-2)),
    Const("phi", _PHI),
    Mul(N, _STUCK_ONE),
)
_BUILDERS = (
    Add,
    Sub,
    Mul,
    lambda x, y: Floor(x),
    lambda x, y: Frac(x),
    lambda x, y: Nint(x),
    lambda x, y: Dist(x),
    lambda x, y: Pow(x, 2),
    lambda x, y: indicator_of_range(x, 0, 2),
    lambda x, y: indicator_of_range(x, Fraction(-1, 2), 1),
    dist_lt_scaled,
    ind_or,
    ind_and,
    lambda x, y: ind_not(x),
    # y behind a test on x: lazy operands whose subterms recur elsewhere
    lambda x, y: Mul(indicator_of_range(x, 0, 2), y),
    lambda x, y: ind_or(indicator_of_range(x, -1, 1), indicator_of_range(y, 0, 2)),
    lambda x, y: dist_lt_scaled(y, indicator_of_range(x, 1, 3)),
    # a second use of an operand that a product or an OR computed lazily
    lambda x, y: Mul(dist_lt_scaled(x, y), x),
    lambda x, y: ind_or(ind_and(indicator_of_range(x, 0, 2), indicator_of_range(y, 0, 2)),
                        indicator_of_range(y, 1, 3)),
)


@st.composite
def _dags(draw):
    """An expression on a pool of subterms, each new one built on earlier
    ones, so that subterms recur under several lazy operands."""
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(1, 16))):
        build = draw(st.sampled_from(_BUILDERS))
        x = pool[draw(st.integers(0, len(pool) - 1))]
        y = pool[draw(st.integers(0, len(pool) - 1))]
        pool.append(build(x, y))
    return Add(Add(pool[-3], pool[-2]), pool[-1])


@given(_dags())
@settings(max_examples=300, deadline=None)
def test_random_dags_match_the_stack_machine(e):
    _assert_matches(Program(e), range(-4, 5), 96)


def test_an_op_needed_under_two_unrelated_flags_is_computed_under_either():
    # floor(n * stuck), undecided but at n = 0, is the right factor of both
    # products, each behind its own range test: it is computed where either
    # test holds, and only there
    stuck = Floor(Mul(N, _STUCK_ONE))
    p, q = indicator_of_range(N, 0, 3), indicator_of_range(N, 2, 6)
    program = Program(Add(Mul(p, stuck), Mul(q, stuck)))
    assert "not (" in kernel_source(program.shape())
    _assert_matches(program, range(-3, 9), 96)
    need = [n for n in range(-3, 9) if _outcome(program.eval_dyadic, n, 96) == "NeedBits"]
    assert need == [1, 2, 3, 4, 5]


def test_a_factor_reused_by_a_product_of_its_product():
    # (p floor(Y)) floor(Y) with floor(Y) undecided but at n = 0: floor(Y) is
    # computed under p's flag, and needed again where p floor(Y) is not 0,
    # which happens only where p is 1; it is computed there, once, and
    # nowhere else
    stuck = Floor(Mul(N, _STUCK_ONE))
    program = Program(Mul(Mul(indicator_of_range(N, 0, 3), stuck), stuck))
    _assert_matches(program, range(-3, 6), 96)
    need = [n for n in range(-3, 6) if _outcome(dyadic_reference, program, n, 96) == "NeedBits"]
    assert need == [1, 2]


# -- robustness of the generator --------------------------------------------------

def test_range_bounds_past_the_digit_limit_of_int_to_str():
    big = 10**5000
    e = indicator_of_range(N, big, big + 3)
    assert members(e, big - 2, big + 4) == [big, big + 1, big + 2]
    assert members(indicator_of_range(N, -big, big), -2, 2) == [-2, -1, 0, 1, 2]


def _or_chain(depth: int):
    """[0 <= n < depth] as right-nested ORs of [k <= n < k + 1]."""
    e = indicator_of_range(N, 0, 1)
    for k in range(1, depth):
        e = ind_or(indicator_of_range(N, k, k + 1), e)
    return e


def test_lazy_nesting_past_the_indentation_limit():
    # right-nested ORs 400 deep: each test is computed only where every test
    # before it gave 0, one flag per level, and no statement is nested
    e = _or_chain(400)
    assert members(e, -2, 402) == list(range(400))
    _assert_matches(Program(e), (-1, 0, 7, 399, 400), 96)
    # products nested 400 deep the other way: each factor only where the
    # product before it is not 0
    e = indicator_of_range(N, 0, 500)
    for k in range(1, 400):
        e = ind_and(e, indicator_of_range(N, -k, 500 - k))
    assert members(e, -2, 110) == list(range(101))


def test_generated_source_is_linear_in_the_ops():
    # at most 2 lines per op (its statement and the flag of a lazy operand)
    # plus 4 (the header, the scratch values, the inputs and the return), on
    # every registry indicator, built and re-parsed, and on chains 1200 deep
    ranges = N
    for _ in range(1200):
        ranges = indicator_of_range(ranges, 0, 1)
    floors = Mul(N, RationalConst(Fraction(1, 2)))
    for _ in range(1200):
        floors = Add(Floor(floors), RationalConst(Fraction(1, 3)))
    exprs = [ranges, floors, _or_chain(1200)]
    for name, kwargs in _REGISTRY:
        cert = CONSTRUCTIONS[name].build(SimpleNamespace(**kwargs))
        exprs += [cert.indicator, Certificate.from_file_text(cert.to_file_text()).indicator]
    for e in exprs:
        program = Program(e)
        lines = kernel_source(program.shape()).count("\n")
        assert lines <= 2 * len(program.ops) + 4, (len(program.ops), lines)
