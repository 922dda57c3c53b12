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

from oracles import REGISTRY_CASES, REGISTRY_IDS, case_id, dyadic_point, dyadic_reference


def _outcome(f, *args):
    try:
        return f(*args)
    except NeedBits:
        return "NeedBits"


def _assert_matches(program: Program, points, bits=None) -> None:
    for n in points:
        b = _dyadic_bits(n, DEFAULT_MAX_BITS) if bits is None else bits
        got = _outcome(dyadic_point, program, n, b)
        assert got == _outcome(dyadic_reference, program, n, b), (n, b)


# -- every registry indicator, built and printed-then-parsed -----------------------

def _windows(name: str, params) -> list[range]:
    """13-point windows around the first member past each 10^k, k = 3 ... 16."""
    found = CONSTRUCTIONS[name].oracle(params, 10**17)
    centres = {next((m for m in found if m >= 10**k), None) for k in range(3, 17)} - {None}
    return [range(c - 6, c + 7) for c in sorted(centres)]


@pytest.mark.parametrize("name, params", REGISTRY_CASES, ids=REGISTRY_IDS)
def test_registry_indicators_match_the_stack_machine(name, params):
    args = SimpleNamespace(**params)
    cert = CONSTRUCTIONS[name].build(args)
    reparsed = Certificate.from_file_text(cert.to_file_text()).indicator
    windows = _windows(name, args)
    assert windows
    for e in (cert.indicator, reparsed):
        program = Program(e)
        for window in windows:
            _assert_matches(program, window)


# sha256 of kernel_source(Program(e).shape()) for the indicators of the
# registry constructions, built and printed-then-parsed, the README expression
# and the small-distance certificate; a generator change that alters any
# generated source re-pins it with its reason
_FIB = "335c451e6bc575151af1e5dc95826dc0de0754b2b62dbe38b5c017156ef259bd"
_QUAD_MINUS = "fec4eeafa7b11e2e0316739da64f163c9c54c3ed940a2409eb79e9ed05f31e37"
_QUAD_MINUS_REPARSED = "5790a5016d932686f13d7604164f44ac5faf3424ddb4423911b2cbb40892f488"
_FILTER = "3db532fc35885b2607d3b711d3b5aad708e40b4e998043c0a6b90bb1b7a0a3f6"
_CUBIC = "4a7e6fae254b3b276c9555422a16ddd50033387e9bab0cf9e1811f0fae231170"
KERNEL_SHA256 = [
    # (construction, parameters, built, re-parsed)
    ("fibonacci", dict(a=1), _FIB, _FIB),
    ("fibonacci", dict(a=2), _FIB, _FIB),
    ("fibonacci", dict(a=7), _FIB, _FIB),
    ("quadratic", dict(a=3, norm=1),
     "11eb503c247cc844e3206a8d12105f6b2e3b767b82d4d8d3747d725d99f299c1",
     "11eb503c247cc844e3206a8d12105f6b2e3b767b82d4d8d3747d725d99f299c1"),
    ("quadratic", dict(a=3, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic", dict(a=5, norm=1),
     "01408e3183b4b0c2af289d6c76db67685014d62afaced06d38490d612401ae1b",
     "5ca1cc2b0ad68dc757b1fc0660ce0da047f0da855037df49495184bcb9b75047"),
    ("quadratic", dict(a=2, norm=-1), _QUAD_MINUS, _QUAD_MINUS_REPARSED),
    ("quadratic-filter", dict(a=4), _FILTER, _FILTER),
    ("quadratic-filter", dict(a=6), _FILTER, _FILTER),
    ("cubic", dict(a=1, b=1), _CUBIC, _CUBIC),
    ("cubic", dict(a=2, b=1), _CUBIC, _CUBIC),
    ("cubic", dict(a=2, b=-1), _CUBIC, _CUBIC),
    ("verysparse", dict(sequence=(2, 128, 562949953421312), C=5, D=6),
     "aa6735512cff542a7249196014c011e97e23f72c25aa49adbb41b68c77e730ee",
     "aa6735512cff542a7249196014c011e97e23f72c25aa49adbb41b68c77e730ee"),
]
_README_SHA256 = "11ac1e759633d59a992a903e26ef509d01b7713529cf93ee1c955e35031a4424"
_SQRT2_SHA256 = "4080e733dd4bb4eb2089d62c767c47994cd8b97874f660fa8083bf9578b95180"


def _kernel_sha256(e) -> str:
    return hashlib.sha256(kernel_source(Program(e).shape()).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, params, built, reparsed",
    KERNEL_SHA256,
    ids=[case_id(name, params) for name, params, _, _ in KERNEL_SHA256],
)
def test_registry_kernels_are_pinned(name, params, built, reparsed):
    cert = CONSTRUCTIONS[name].build(SimpleNamespace(**params))
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
    # a second use of an operand that a product computed lazily
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
    program = Program(e)
    _assert_matches(program, range(-4, 5), 96)
    # one call on the window finds what one call per point finds, the
    # decided ops of open points included: nothing carries over between points
    window = range(-4, 5)
    assert list(program.scan(window, 96)) == [v for n in window for v in program.scan((n,), 96)]


def test_an_op_needed_under_two_unrelated_flags_is_computed_under_either():
    # floor(n * stuck), undecided but at n = 0, is the right factor of both
    # products, each behind its own range test: it is computed where either
    # test holds, and only there
    stuck = Floor(Mul(N, _STUCK_ONE))
    p, q = indicator_of_range(N, 0, 3), indicator_of_range(N, 2, 6)
    program = Program(Add(Mul(p, stuck), Mul(q, stuck)))
    assert "not (" in kernel_source(program.shape())
    _assert_matches(program, range(-3, 9), 96)
    need = [n for n in range(-3, 9) if _outcome(dyadic_point, program, n, 96) == "NeedBits"]
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
    # right-nested ORs 400 deep, each its literal sum and product: no
    # statement is nested
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
    # plus 4, on every registry indicator, built and re-parsed, and on chains
    # 1200 deep: a constant takes no line, which pays for the window loop's
    # own (the loop, the reset of the decided ops, try, the result and except)
    ranges = N
    for _ in range(1200):
        ranges = indicator_of_range(ranges, 0, 1)
    floors = Mul(N, RationalConst(Fraction(1, 2)))
    for _ in range(1200):
        floors = Add(Floor(floors), RationalConst(Fraction(1, 3)))
    exprs = [ranges, floors, _or_chain(1200)]
    for name, params in REGISTRY_CASES:
        cert = CONSTRUCTIONS[name].build(SimpleNamespace(**params))
        exprs += [cert.indicator, Certificate.from_file_text(cert.to_file_text()).indicator]
    for e in exprs:
        program = Program(e)
        lines = kernel_source(program.shape()).count("\n")
        assert lines <= 2 * len(program.ops) + 4, (len(program.ops), lines)
