"""Tests for the expression language: parsing, evaluation, indicators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.errors import NonBooleanValue, ParseError, PrecisionExhausted, PreconditionError
from gplab.gpexpr import (
    N,
    Add,
    Const,
    Floor,
    Frac,
    Mul,
    Nint,
    Pow,
    RationalConst,
    Sub,
    depends_on_var,
    discrete_difference,
    dist_lt_const,
    dist_lt_scaled,
    eval_exact,
    eval_indicator,
    ind_and,
    ind_not,
    ind_or,
    indicator_of_range,
    indicator_of_zero_set,
    map_tree,
    members,
    members_in,
    parse,
    substitute_var,
    to_text,
    walk,
)
from gplab.realnum import FieldElement, NeedBits, NumberField, RefinableReal, compare, to_float

from oracles import dyadic_point, eval_tree, floor_quadratic


@pytest.fixture(scope="module")
def phi():
    return NumberField((-1, -1, 1), 1, 2, "phi").generator()


# -- parsing ------------------------------------------------------------------

def test_parse_floor_expression():
    e = parse("floor(2*n/3)")
    assert eval_exact(e, 4) == 2
    assert eval_exact(e, 0) == 0
    assert eval_exact(e, -1) == -1


def test_parse_let_and_dist(phi):
    e = parse("let phi = root(x^2-x-1, 1, 2); dist(n*phi)")
    v = eval_exact(e, 5)
    assert abs(to_float(v) - 0.09016994374947424) < 1e-15
    assert compare(v, (phi * 5).dist_to_int()) == 0


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("floor(n")
    assert exc.value.line == 1 and exc.value.col >= 7
    # across lines: each token at the line and column of its first character
    cases = [
        ("let phi = root(x^2-x-1, 1, 2);\n  floor(n*phi $)", 2, 15),  # a bad character
        ("n +\n\n  (n", 3, 5),  # the end of input
        ("n\n + 12\n  *\n   frob(n)", 4, 4),  # an unknown name
        ("  \n\t n +\n  1 )", 3, 5),  # trailing input after blanks and a tab
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col), text

    with pytest.raises(ParseError):
        parse("frob(n)")
    with pytest.raises(ParseError):
        parse("let t = root(x^2-4, 1, 3); t")  # reducible polynomial
    with pytest.raises(ParseError):
        parse("let t = root(x^2-2, -2, 2); t")  # not isolating
    with pytest.raises(ParseError):
        parse("n / floor(n)")  # division by a variable expression


def test_halves_example():
    e = parse("n/2 - floor(n/2)")
    assert eval_exact(e, 7) == Fraction(1, 2)
    assert eval_exact(e, 8) == 0


def test_division_by_field_constant():
    e = parse("let b = root(x^3-x^2-x-1, 1, 2); nint(n/b)")
    # 1/beta ~ 0.5437
    assert eval_exact(e, 2) == 1
    assert eval_exact(e, 13) == 7


def test_roundtrip_idempotent_on_lets(phi):
    e = Floor(Mul(Const("phi", phi), N))
    text = to_text(e)
    assert "root(x^2 - x - 1" in text
    again = parse(text)
    assert to_text(again) == text
    assert parse(to_text(again)) == again


def test_print_then_parse_keeps_right_nested_association():
    # a right operand of equal precedence is printed in parentheses:
    # p * u * v, p + q + r and p + q - r would re-parse left-nested
    p = Floor(Mul(RationalConst(Fraction(1, 3)), N))
    q, r = RationalConst(Fraction(-2, 5)), Floor(Add(N, RationalConst(Fraction(1, 2))))
    for e in (Mul(p, Mul(q, r)), Add(p, Add(q, r)), Add(p, Sub(q, r)), Mul(N, Mul(p, Mul(r, q)))):
        text = to_text(e)
        assert parse(text) == e, text
        assert to_text(parse(text)) == text


def test_print_expands_non_generator_constants(phi):
    w = phi * Fraction(2, 3) + Fraction(1, 7)
    e = Nint(Mul(Const("phi", w), N))
    text = to_text(e)
    reparsed = parse(text)
    for n in (1, 5, 11):
        assert compare(eval_exact(e, n), eval_exact(reparsed, n)) == 0


def _root_field(poly: str, lo: str = "1", hi: str = "2") -> NumberField:
    return eval_exact(parse(f"let r = root({poly}, {lo}, {hi}); r"), 0).field


def test_root_reads_its_polynomial_and_bounds_as_expressions():
    assert _root_field("x^2-x-1").minpoly == (-1, -1, 1)
    assert _root_field("(x-1)*(x+1)-1") == _root_field("x^2-2")
    cubic = _root_field("x^3 - 2*x^2 + x - 1", "1/1", "2/1")
    assert cubic.minpoly == (-1, 1, -2, 1) and cubic.isolating_interval == (1, 2)
    assert _root_field("x^2-2", "-2", "-1").isolating_interval == (-2, -1)
    # the grammar's constant folding applies inside root() and let
    assert _root_field("x^2 - 4/2", "(1/3)") == NumberField((-2, 0, 1), Fraction(1, 3), 2)
    e = parse("let a = -3/4; a*n")
    assert eval_exact(e, 4) == -3 and to_text(e) == "let a = -3/4;\na * n"


@pytest.mark.parametrize(
    "poly",
    ["x/2 + x^2 - 2", "n^2 - 2", "theta*x^2 - 2", "floor(x)^2 - 2", "a", "2*x^2 - 2",
     "x^4 - 2", "x^4 - x^4 + x^2 - 2", "x*x*x*x - x*x*x*x + x^2 - 2", "(x^2)^2 - 2"],
)
def test_root_refuses_what_is_not_a_monic_integer_polynomial_of_low_degree(poly):
    with pytest.raises(ParseError):
        parse(f"let a = 1/2; let r = root({poly}, 1, 2); r")


def test_root_refuses_a_huge_power_before_expanding_it():
    import time

    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse("let r = root(x^1000000000, 0, 1); n")
    assert time.perf_counter() - start < 0.1


def test_folded_constants_stop_at_the_size_cap():
    import time

    from gplab.gpexpr.evaluate import MAX_CONST_BITS

    k = MAX_CONST_BITS // 2  # 2^k is bounded by k times the 2 bits of its base: the cap
    assert eval_exact(parse(f"2^{k}*n"), 0) == 0
    start = time.perf_counter()
    for text in (
        f"n/2^{k + 1}",  # parse-time folding of a divisor
        f"let r = root(x^2-2, 1/2^{k + 1}, 2); r*n",
        f"n*(1/3)/2^{k + 1}",
    ):
        with pytest.raises(ParseError, match="cap") as exc:
            parse(text)
        assert exc.value.line == 1
    # compile-time folding, on the first evaluation; the cube of 2^(3^12),
    # thirteen deep, is bounded by 3 (3^12 + 1) bits
    for text in (f"n + 2^{k + 1}", "floor(" + "(" * 13 + "2" + ")^3" * 13 + ")"):
        with pytest.raises(ParseError, match="cap"):
            eval_exact(parse(text), 0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("text", ["let a = 2*3; a", "let a = n; a", "x", "let a = 1/2; x*a"])
def test_let_values_are_rational_and_x_stays_reserved(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "argv",
    [["fibonacci"], ["quadratic", "--a", "3", "--norm", "1"], ["quadratic-filter", "--a", "4"],
     ["cubic"], ["verysparse"]],
)
def test_printed_certificates_reparse_to_the_same_text_and_constants(argv, tmp_path):
    from gplab.cli import build_parser, main
    from gplab.constructions import Certificate
    from gplab.constructions.registry import construction

    def constants(e):
        out = set()
        for node in walk(e):
            v = node.value if isinstance(node, Const) else None
            if isinstance(v, Fraction):
                out.add((node.name, v))
            elif isinstance(v, FieldElement):
                out.add((v.field.name, v.field.minpoly, v.field.isolating_interval))
        return out

    out = tmp_path / "cert.gp"
    assert main(["cert", "--construction", *argv, "--out", str(out)]) == 0
    text = out.read_text()
    again = Certificate.from_file_text(text)
    assert again.to_file_text() == text
    args = build_parser().parse_args(["cert", "--construction", *argv])
    built = constants(construction(args.construction).build(args).indicator)
    assert built and constants(again.indicator) == built


# -- evaluation ---------------------------------------------------------------

def test_eval_matches_quadratic_oracle(phi):
    e = parse("let phi = root(x^2-x-1, 1, 2); floor(n*phi)")
    for n in range(-30, 60):
        assert eval_exact(e, n) == floor_quadratic(Fraction(n, 2), Fraction(n, 2), 5)


# -- indicators ---------------------------------------------------------------

def test_zero_set_indicator_examples():
    h = Sub(N, RationalConst(Fraction(3)))
    iz = indicator_of_zero_set(h)
    assert eval_indicator(iz, 3) == 1
    assert eval_indicator(iz, 5) == 0
    assert members(iz, 1, 10) == [3]


def test_zero_set_indicator_dist_argument():
    sq2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
    # ||n sqrt2|| = 0 exactly iff n = 0
    h = Sub(Mul(Const("s", sq2), N), Nint(Mul(Const("s", sq2), N)))
    iz = indicator_of_zero_set(h)
    assert eval_indicator(iz, 0) == 1
    assert eval_indicator(iz, 7) == 0


def test_range_indicator_examples(phi):
    half_n = Mul(RationalConst(Fraction(1, 2)), N)
    ir = indicator_of_range(half_n, 1, 2)
    assert eval_indicator(ir, 2) == 1
    assert eval_indicator(ir, 4) == 0
    frac_phi = Frac(Mul(Const("phi", phi), N))
    ir2 = indicator_of_range(frac_phi, 0, Fraction(1, 10))
    assert eval_indicator(ir2, 34) == 1
    assert eval_indicator(ir2, 33) == 0
    with pytest.raises(PreconditionError):
        indicator_of_range(N, 1, 1)


def test_dist_threshold_indicator(phi):
    ind = dist_lt_const(Mul(Const("phi", phi), N), Fraction(1, 8))
    # ||4 phi|| ~ 0.472, ||5 phi|| ~ 0.090
    assert eval_indicator(ind, 4) == 0
    assert eval_indicator(ind, 5) == 1


def test_members_reports_non_boolean():
    with pytest.raises(NonBooleanValue):
        members(Mul(N, N), 1, 3)


def test_members_constant_one():
    assert members(RationalConst(Fraction(1)), 1, 5) == [1, 2, 3, 4, 5]


def test_substitute_var(phi):
    e = Floor(Mul(Const("phi", phi), N))
    sub = substitute_var(e, Nint(Mul(RationalConst(Fraction(1, 2)), N)))
    # floor(phi * nint(n/2)) at n = 10 -> floor(5 phi) = 8
    assert eval_exact(sub, 10) == 8


# -- discrete differences -----------------------------------------------------

def test_discrete_difference_examples():
    q = Pow(N, 2)
    assert discrete_difference(q, [1, 2, 4]) == 0
    assert discrete_difference(N, [5]) == -5
    flo = parse("let phi = root(x^2-x-1, 1, 2); floor(n*phi)")
    val = discrete_difference(flo, [1, 2, 4])
    assert isinstance(val, Fraction)  # floors make the value an integer
    assert abs(val) <= 4  # bounded; recorded, not asserted further


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=3),
    st.lists(st.integers(1, 40), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_discrete_difference_vanishes_for_polynomials(coeffs, shifts):
    if len(shifts) <= len(coeffs) - 1:
        shifts = shifts + [3] * (len(coeffs) - len(shifts))
    e = RationalConst(Fraction(coeffs[0]))
    for j, c in enumerate(coeffs[1:], start=1):
        e = Add(e, Mul(RationalConst(Fraction(c)), Pow(N, j)))
    assert discrete_difference(e, shifts) == 0


def test_members_over_negative_range(phi):
    # indicators are defined on all of Z
    ind = indicator_of_range(Mul(RationalConst(Fraction(1, 3)), N), -1, 0)
    assert members(ind, -5, 5) == [-3, -2, -1]


def test_eval_negative_arguments(phi):
    e = Floor(Mul(Const("phi", phi), N))
    assert eval_exact(e, -5) == -9  # floor(-8.09...)
    assert eval_exact(e, 0) == 0


# -- the compiled program -------------------------------------------------------

def test_program_shares_repeated_subterms():
    from gplab.constructions import (
        cubic_pisot_set,
        fibonacci_like_set,
        norm_plus_filtered_set,
        quadratic_pisot_unit_set,
    )
    from gplab.gpexpr.evaluate import Program

    # each range test is one op and each distance threshold one op; the
    # subtrees they absorb are never compiled
    assert len(Program(fibonacci_like_set(1).indicator).ops) == 6
    assert len(Program(cubic_pisot_set(1, 1).certificate.indicator).ops) == 34
    assert len(Program(quadratic_pisot_unit_set(3, 1).indicator).ops) == 44
    assert len(Program(norm_plus_filtered_set(4).indicator).ops) == 15
    readme = (
        "let phi = root(x^2-x-1, 1, 2); floor(1 - frac(theta*floor(2*n*(n*phi - floor(n*phi)))))"
    )
    assert len(Program(parse(readme)).ops) == 9


def test_zero_test_on_a_non_floor_argument_stays_literal():
    # [n/2 = 0] is 1 at n = 0 and 0 at n = 1; the interval rule [0 <= n/2 < 1]
    # would accept n = 1
    half_n = Mul(N, RationalConst(Fraction(1, 2)))
    for e in (indicator_of_zero_set(half_n), parse("floor(1 - frac(theta*(n/2)))")):
        assert members(e, -3, 3) == [0]
        assert [eval_exact(e, n) for n in (0, 1)] == [1, 0]


def test_zero_test_needs_both_copies_of_its_argument_to_agree():
    # theta*floor(n) - floor(theta*floor(n + 1)) is not a fractional part: at
    # n = -1 it is -theta and at n = 3 it is 3 theta - 1 (theta ~ 0.316), so
    # the tree is 1 at -1, 0 and 3, where the interval rule on n would give 1
    # at n = 0 only
    e = parse("floor(1 - (theta*floor(n) - floor(theta*floor(n + 1))))")
    assert members(e, -1, 3) == [-1, 0, 3]
    assert [eval_exact(e, n) for n in range(-1, 4)] == [1, 1, 0, 0, 1]


_SQRT2 = NumberField((-2, 0, 1), 1, 2, "s").generator()
_SQRT3 = NumberField((-3, 0, 1), 1, 2, "t").generator()
_PHI = NumberField((-1, -1, 1), 1, 2, "phi").generator()
# (expression, exact value at n)
_RANGE_VALUES = [
    (Mul(N, Const("phi", _PHI)), lambda n: _PHI * n),
    (Sub(Mul(Pow(N, 2), Const("phi", _PHI)), N), lambda n: _PHI * (n * n) - n),
    (
        Mul(Floor(Mul(N, Const("s", _SQRT2))), Const("t", _SQRT3)),
        lambda n: _SQRT3 * (_SQRT2 * n).floor(),
    ),
]


@given(
    st.sampled_from(range(len(_RANGE_VALUES))),
    st.integers(-(10**30), 10**30),
    st.fractions(-3, 3, max_denominator=40),
    st.fractions(Fraction(1, 40), 4, max_denominator=40),
)
@settings(max_examples=120, deadline=None)
def test_range_indicator_is_the_exact_comparison(which, n, offset, width):
    # the window sits next to h(n), so both verdicts occur; dyadic and exact
    # mode must each agree with the field comparison a <= h(n) < b
    h, value = _RANGE_VALUES[which]
    v = value(n)
    a = v.floor() + offset
    b = a + width
    expected = int((v - a).sign() >= 0 and (v - b).sign() < 0)
    ind = indicator_of_range(h, a, b)
    assert eval_indicator(ind, n) == expected
    assert eval_exact(ind, n) == expected


def test_deeply_nested_zero_tests_compile_without_recursion():
    # [0 <= e < 1] applied 1200 times to n alternates [n = 0] and [n != 0]
    from gplab.gpexpr.evaluate import _RANGE, Program

    e = N
    for _ in range(1200):
        e = indicator_of_range(e, 0, 1)
    assert sum(op[0] == _RANGE for op in Program(e).ops) == 1200
    assert members(e, -3, 3) == [-3, -2, -1, 1, 2, 3]
    assert [eval_exact(e, n) for n in (0, 5)] == [0, 1]


# -- the compiled predicates: range tests, distance thresholds, ORs ---------------

def _codes(e) -> list[int]:
    from gplab.gpexpr.evaluate import Program

    return [op[0] for op in Program(e).ops]


def _affine(c0: Fraction, c1: Fraction):
    """c0 + c1 n as an expression."""
    return Add(RationalConst(c0), Mul(RationalConst(c1), N))


def _frac(q: Fraction) -> Fraction:
    return q - q.numerator // q.denominator


def _dist_lt_ref(x: Fraction, s: Fraction) -> int:
    """[0 <= s {x} < 1] or [0 <= s (1 - {x}) < 1]: dist_lt_scaled's two range tests."""
    f = _frac(x)
    return int(0 <= s * f < 1 or 0 <= s * (1 - f) < 1)


def _verdicts(e, n: int) -> set[int]:
    """eval_indicator, eval_exact, and the dyadic walker at 96 bits where it decides."""
    from gplab.gpexpr.evaluate import Program

    seen = {eval_indicator(e, n), eval_exact(e, n)}
    try:
        lo, hi = dyadic_point(Program(e), n, 96)
    except NeedBits:
        pass
    else:
        assert lo == hi and lo % (1 << 96) == 0
        seen.add(lo >> 96)
    return seen


def test_builder_predicates_compile_to_one_op_each():
    from gplab.gpexpr.evaluate import _DIST_LT, _RANGE, Program

    x, s = _affine(Fraction(1, 3), Fraction(1)), _affine(Fraction(0), Fraction(2))
    assert _codes(dist_lt_scaled(x, s)).count(_DIST_LT) == 1
    r = indicator_of_range(N, Fraction(-1, 2), Fraction(3, 4))
    assert Program(r).ops == [(1, 0, 0), (_RANGE, 0, (-1, 2, 3, 4))]
    # the tree keeps its literal form
    assert "theta" in to_text(dist_lt_scaled(x, s))


@pytest.mark.parametrize(
    "x0, x1, s0, s1",
    [
        (0, 0, 0, 0),  # s = 0
        (3, 1, 2, 0),  # integer x: frac exactly 0
        (Fraction(1, 4), 1, 4, 0),  # s {x} exactly 1
        (Fraction(3, 4), 1, 4, 0),  # s (1 - {x}) exactly 1
        (Fraction(3, 4), 1, 3, 0),  # s (1 - {x}) = 3/4
        (Fraction(1, 3), 0, -2, 0),  # negative s: both scaled values negative
        (0, Fraction(1, 3), 0, 3),  # s = 3n: s {x} = 0 at n = 0, both signs of n
        (Fraction(1, 2), Fraction(1, 4), 0, 2),  # s {x} and s (1 - {x}) hit 1 at some n
    ],
)
def test_distance_threshold_at_its_boundaries(x0, x1, s0, s1):
    x0, x1, s0, s1 = map(Fraction, (x0, x1, s0, s1))
    e = dist_lt_scaled(_affine(x0, x1), _affine(s0, s1))
    for n in range(-8, 9):
        assert _verdicts(e, n) == {_dist_lt_ref(x0 + x1 * n, s0 + s1 * n)}, n


@pytest.mark.parametrize(
    "h0, h1, a, b",
    [
        (0, Fraction(1, 3), -1, Fraction(2, 3)),  # h on a at n = -3, on b at n = 2
        (0, Fraction(1, 4), Fraction(1, 2), Fraction(5, 4)),  # on a at n = 2, on b at n = 5
        (Fraction(1, 7), -1, -3, 0),  # negative slope
    ],
)
def test_range_test_at_its_boundaries(h0, h1, a, b):
    h0, h1, a, b = map(Fraction, (h0, h1, a, b))
    e = indicator_of_range(_affine(h0, h1), a, b)
    for n in range(-8, 9):
        assert _verdicts(e, n) == {int(a <= h0 + h1 * n < b)}, n


def test_zero_test_with_a_nonpositive_scale_is_not_a_range():
    # (n - 0) * (-1) is not (h - a) * c with c > 0: the zero test is [0 <= -n < 1]
    e = parse("floor(1 - frac(theta*floor((n - 0) * (-1))))")
    assert members(e, -3, 3) == [0]
    assert members(parse("floor(1 - frac(theta*floor((n - 0) * (1/2))))"), -3, 3) == [0, 1]


_SMALL = st.fractions(-4, 4, max_denominator=12)


@given(_SMALL, _SMALL, _SMALL, _SMALL, st.integers(-40, 40))
@settings(max_examples=150, deadline=None)
def test_distance_threshold_is_its_two_range_tests(x0, x1, s0, s1, n):
    e = dist_lt_scaled(_affine(x0, x1), _affine(s0, s1))
    assert _verdicts(e, n) == {_dist_lt_ref(x0 + x1 * n, s0 + s1 * n)}


@given(
    _SMALL, _SMALL, _SMALL, st.fractions(Fraction(1, 12), 4, max_denominator=12), _SMALL,
    st.integers(-40, 40),
)
@settings(max_examples=150, deadline=None)
def test_or_of_range_tests_is_the_or_of_comparisons(h0, h1, a, width, c, n):
    h = _affine(h0, h1)
    p, q = indicator_of_range(h, a, a + width), indicator_of_range(h, c, c + 1)
    v = h0 + h1 * n
    assert _verdicts(ind_or(p, q), n) == {int(a <= v < a + width or c <= v < c + 1)}


def _phi_affine(c0: Fraction, c1: Fraction):
    """c0 + c1 phi n as an expression."""
    return Add(RationalConst(c0), Mul(RationalConst(c1), Mul(Const("phi", _PHI), N)))


def _range_through(h0: Fraction, h1: Fraction, n0: int, width: Fraction, top: bool):
    """[a <= h0 + h1 n < a + width], with h(n0) on its top bound or its bottom one."""
    v = h0 + h1 * n0
    a = v - width if top else v
    return indicator_of_range(_affine(h0, h1), a, a + width)


_WINDOW = range(-12, 13)
# halves, so that scaled fractional parts also land on their bounds
_HALVES = st.fractions(-3, 3, max_denominator=2)
_WIDTHS = st.fractions(Fraction(1, 2), 3, max_denominator=2)
_TERMS = st.one_of(st.builds(_affine, _HALVES, _HALVES), st.builds(_phi_affine, _HALVES, _HALVES))
_INDICATORS = st.recursive(
    st.one_of(
        st.builds(
            _range_through, _HALVES, _HALVES, st.sampled_from(_WINDOW), _WIDTHS, st.booleans()
        ),
        st.builds(lambda h, a, w: indicator_of_range(h, a, a + w), _TERMS, _HALVES, _WIDTHS),
        st.builds(dist_lt_scaled, _TERMS, _TERMS),
    ),
    lambda kids: st.one_of(
        st.builds(ind_or, kids, kids), st.builds(ind_and, kids, kids), st.builds(ind_not, kids)
    ),
    max_leaves=6,
)


@given(_INDICATORS)
@settings(max_examples=60, deadline=None)
def test_compiled_predicates_decide_like_the_literal_tree(e):
    # each fused op (range test, distance threshold) against every node
    # of the tree as written, through both evaluation modes
    for n in _WINDOW:
        assert eval_indicator(e, n) == eval_exact(e, n) == eval_tree(e, n), n


@given(_INDICATORS)
@settings(max_examples=60, deadline=None)
def test_generated_dyadic_function_matches_the_stack_machine(e):
    # the same interval, or NeedBits on both sides, at every point
    from gplab.gpexpr.evaluate import Program

    from oracles import dyadic_reference

    def outcome(f, *args):
        try:
            return f(*args)
        except NeedBits:
            return "NeedBits"

    program = Program(e)
    for n in _WINDOW:
        assert outcome(dyadic_point, program, n, 96) == outcome(dyadic_reference, program, n, 96), n


# a stream for 1 whose every enclosure straddles 1: its floor is never decided
_STUCK_ONE = Const("one", RefinableReal(lambda bits: ((1 << bits) - 1, (1 << bits) + 1), "one"))


def test_distance_threshold_with_zero_scale_takes_no_floor():
    from gplab.gpexpr.evaluate import Program

    e = dist_lt_scaled(Mul(N, _STUCK_ONE), _affine(Fraction(-3), Fraction(1)))
    assert dyadic_point(Program(e), 3, 96) == (1 << 96, 1 << 96)
    assert eval_indicator(e, 3, max_bits=256) == 1
    assert eval_exact(e, 3, max_bits=256) == 1
    with pytest.raises(PrecisionExhausted):
        eval_exact(e, 2, max_bits=256)


def test_sum_of_non_predicates_stays_literal():
    e = Sub(Add(N, N), Mul(N, N))
    assert eval_exact(e, 3) == -3
    # p + q - p p is q, and 2 - p is not 0/1-valued
    p, q = indicator_of_range(N, 0, 5), indicator_of_range(N, 3, 9)
    two_less_p = Sub(RationalConst(Fraction(2)), p)
    for e, values in (
        (Sub(Add(p, q), Mul(p, p)), [0, 0, 1, 1, 1]),  # q
        (Sub(Add(p, two_less_p), Mul(p, two_less_p)), [2, 1, 1, 2, 2]),  # 2 - p
    ):
        assert [eval_exact(e, n) for n in (-1, 1, 4, 6, 8)] == values


def _dist_halves(s, f, s2, f2):
    """dist_lt_scaled's two range tests, on s f and s2 (1 - f2)."""
    one_less = Sub(RationalConst(Fraction(1)), f2)
    return ind_or(indicator_of_range(Mul(s, f), 0, 1), indicator_of_range(Mul(s2, one_less), 0, 1))


_X = Mul(N, RationalConst(Fraction(1, 7)))


@pytest.mark.parametrize(
    "e, fused",
    [
        # the halves of a distance test need one scale and one argument
        (_dist_halves(N, Frac(_X), Add(N, N), Frac(_X)), False),
        (_dist_halves(N, Frac(_X), N, Frac(Add(_X, RationalConst(Fraction(1, 3))))), False),
        # frac written two ways is one argument
        (_dist_halves(N, Frac(_X), N, Sub(_X, Floor(_X))), True),
    ],
)
def test_distance_halves_share_their_scale_and_argument(e, fused):
    from gplab.gpexpr.evaluate import _DIST_LT

    assert (_DIST_LT in _codes(e)) == fused
    for n in range(-10, 21):
        assert eval_indicator(e, n) == eval_exact(e, n) == eval_tree(e, n), n


def test_program_keys_constants_by_value(phi):
    from gplab.gpexpr.evaluate import Program

    # two separately built copies of floor(phi*n) + 1/2 collapse to one
    def copy():
        return Add(Floor(Mul(Const("phi", phi), N)), RationalConst(Fraction(1, 2)))

    assert len(Program(Sub(copy(), copy())).ops) == 7  # phi, n, *, floor, 1/2, +, -
    # equal values of different types stay apart: the rational 1/2 and the
    # field element 1/2 evaluate to different kinds of exact value
    half = phi.field.from_rational(Fraction(1, 2))
    e = Add(Mul(RationalConst(Fraction(1, 2)), N), Mul(Const("phi", half), N))
    assert len(Program(e).ops) == 6  # 1/2, n, *, 1/2 in the field, *, +
    # a constant subterm folds to one op, and its operands never enter the list
    assert len(Program(Add(RationalConst(Fraction(1, 2)), Const("phi", half))).ops) == 1


def test_deep_expression_evaluates_without_recursion():
    # 1200 levels of floor(.) + 1/3 over n/2 leave floor(n/2) + 1/3, so
    # 2 floor(value) - n + 1 is the indicator of the even numbers
    e = Mul(N, RationalConst(Fraction(1, 2)))
    for _ in range(1200):
        e = Add(Floor(e), RationalConst(Fraction(1, 3)))
    ind = Add(Sub(Mul(RationalConst(Fraction(2)), Floor(e)), N), RationalConst(Fraction(1)))
    assert members(ind, -3, 10) == [-2, 0, 2, 4, 6, 8, 10]
    assert eval_exact(e, 7) == Fraction(10, 3)


def test_walk_and_depends_on_var_handle_deep_trees():
    e = Mul(N, RationalConst(Fraction(1, 2)))
    c = RationalConst(Fraction(1, 2))
    for _ in range(1200):
        e = Add(Floor(e), RationalConst(Fraction(1, 3)))
        c = Add(Floor(c), RationalConst(Fraction(1, 3)))
    nodes = list(walk(e))
    # preorder: Add, Floor down the 1200 levels, Mul, n, 1/2, then the 1/3s
    assert len(nodes) == 3 + 3 * 1200
    assert nodes[:3] == [e, e.left, e.left.arg]
    assert nodes[2400:2403] == [Mul(N, RationalConst(Fraction(1, 2))), N, RationalConst(Fraction(1, 2))]
    assert nodes[2403:] == [RationalConst(Fraction(1, 3))] * 1200
    assert depends_on_var(e)
    assert not depends_on_var(c)
    # the rewriters and the printer are folds over the same tree
    assert map_tree(e, lambda node, kids: 1 + sum(kids)) == len(nodes)
    assert map_tree(e, lambda node, kids: 1 + max(kids, default=0)) == 2 * 1200 + 2
    assert to_text(e) == "floor(" * 1200 + "n * (1/2)" + ") + (1/3)" * 1200
    doubled = substitute_var(e, Mul(RationalConst(Fraction(2)), N))
    assert to_text(doubled) == "floor(" * 1200 + "2 * n * (1/2)" + ") + (1/3)" * 1200
    assert eval_exact(doubled, 7) == Fraction(22, 3)  # floor(7) + 1/3 at every level
    assert not depends_on_var(substitute_var(e, RationalConst(Fraction(5))))


def test_map_tree_folds_shared_subtrees_once():
    d = N
    for _ in range(1200):
        d = Add(d, d)
    # 2^1201 - 1 tree nodes, 1201 distinct ones
    assert map_tree(d, lambda node, kids: 1 + sum(kids)) == 2**1201 - 1
    calls = []
    map_tree(d, lambda node, kids: calls.append(node))
    assert len(calls) == 1201
    s = substitute_var(d, Mul(N, N))
    assert s.left is s.right and s.left.left is s.left.right  # sharing survives
    node = s
    for _ in range(1200):
        node = node.left
    assert isinstance(node, Mul)


def test_substitute_var_keeps_sharing_and_text():
    # the registry's quadratic a=3 norm +1 build substitutes into printed
    # certificates; a bottom-up rebuild by map_tree is the reference
    from gplab.constructions import quadratic
    from gplab.gpexpr.ast import Var, children, walk_distinct

    calls = []
    real = quadratic.substitute_var
    quadratic.substitute_var = lambda e, r: calls.append((e, r)) or real(e, r)
    try:
        quadratic.quadratic_pisot_unit_set(3, 1)
    finally:
        quadratic.substitute_var = real
    assert len(calls) == 3

    def rebuild(node, kids, replacement):
        if isinstance(node, Var):
            return replacement
        if all(k is c for k, c in zip(kids, children(node))):
            return node
        return Pow(kids[0], node.exponent) if isinstance(node, Pow) else type(node)(*kids)

    for e, r in calls:
        got = substitute_var(e, r)
        want = map_tree(e, lambda node, kids: rebuild(node, kids, r))
        assert to_text(got) == to_text(want)
        assert len(list(walk_distinct(got))) == len(list(walk_distinct(want)))
    # a subtree without the variable is kept as it is
    c = Floor(Mul(RationalConst(Fraction(1, 3)), RationalConst(Fraction(2))))
    s = substitute_var(Add(c, N), Mul(N, N))
    assert s.left is c and s.right == Mul(N, N)


def test_walk_distinct_is_walk_without_repeats():
    # each distinct node once, in the order of its first occurrence in the
    # full preorder, on a built certificate's tree of shared subterms
    from types import SimpleNamespace

    from gplab.constructions.registry import CONSTRUCTIONS
    from gplab.gpexpr.ast import walk_distinct

    d = N
    for _ in range(1200):
        d = Add(d, Floor(d))
    assert len(list(walk_distinct(d))) == 2 * 1200 + 1 and depends_on_var(d)
    e = CONSTRUCTIONS["quadratic"].build(SimpleNamespace(a=3, norm=1)).indicator
    firsts = {}
    for node in walk(e):
        firsts.setdefault(id(node), node)
    assert [id(x) for x in walk_distinct(e)] == list(firsts)
    assert len(firsts) < sum(1 for _ in walk(e)) // 10


def test_the_parser_hash_conses_structurally_equal_subterms():
    from types import SimpleNamespace

    from gplab.constructions import Certificate
    from gplab.constructions.registry import CONSTRUCTIONS
    from gplab.gpexpr.ast import walk_distinct

    from oracles import REGISTRY_CASES

    e = parse("let s = root(x^2-2, 1, 2); floor(n*s) * floor(n*s) + (n*s - 1/2)")
    assert e.left.left is e.left.right and e.right.left is e.left.left.arg

    def structure(node):
        # a key that equal subterms share: the keys of their children
        classes = {}

        def key(node, kids):
            fields = (node.exponent,) if isinstance(node, Pow) else ()
            if isinstance(node, RationalConst):
                fields = (node.value,)
            elif isinstance(node, Const):
                fields = (node.name, id(node.value) if isinstance(node.value, RefinableReal) else node.value)
            return classes.setdefault((type(node), *kids, *fields), len(classes))

        map_tree(node, key)
        return len(classes)

    sizes = {}
    for name, params in REGISTRY_CASES:
        cert = CONSTRUCTIONS[name].build(SimpleNamespace(**params))
        text = cert.to_file_text()
        parsed = Certificate.from_file_text(text)
        distinct = sum(1 for _ in walk_distinct(parsed.indicator))
        # one object per structure: as many distinct nodes as distinct subterms
        assert distinct == structure(parsed.indicator), name
        assert parsed.to_file_text() == text, name
        sizes[name, tuple(params.items())] = distinct
    # the printed quadratic a=3 norm +1 indicator is 25 kB: each shared
    # subterm written out wherever it occurs, once 5,481 parsed nodes; the
    # built tree has 232, and a field constant prints as a sum of terms
    assert sizes["quadratic", (("a", 3), ("norm", 1))] == 221


def test_product_skips_right_factor_when_left_is_zero():
    # floor(theta + 1 - theta) stays undecided at every precision, but it is
    # never needed where the left factor is exactly zero
    undecided = parse("floor(theta + 1 - theta)")
    ind = Mul(indicator_of_range(N, 0, 1), undecided)
    assert eval_indicator(ind, 5, max_bits=256) == 0


def test_exact_fallback_accepts_rational_field_elements():
    # the Sub straddles 0 at every rung, so each n goes exact; there the
    # floor is Fraction(0) and phi * 0 is the field's zero, not a Fraction
    e = parse(
        "let s = root(x^2-5, 2, 3); let phi = root(x^2-x-1, 1, 2); "
        "phi*floor(frac(s*n)-frac(s*n))"
    )
    assert [eval_indicator(e, n, max_bits=256) for n in range(1, 6)] == [0] * 5
    assert members(e, 1, 5, max_bits=256) == []
    one = parse("let phi = root(x^2-x-1, 1, 2); phi - phi + 1")
    assert eval_indicator(one, 3, max_bits=128) == 1


def test_fibonacci_windows_near_1e15():
    from gplab.constructions import fibonacci_like_set

    from oracles import fibonacci_upto

    ind = fibonacci_like_set(1).indicator
    fib = [f for f in fibonacci_upto(10**16) if f >= 10**15]
    for f in fib:
        lo, hi = f - 7, f + 8
        assert members(ind, lo, hi) == [f]


def test_tribonacci_windows_near_1e12_reach_exact_fallback(monkeypatch):
    from gplab.constructions import cubic_pisot_set
    from gplab.gpexpr import evaluate

    from oracles import tribonacci_R

    calls = []
    exact = evaluate.eval_exact

    def counting(*args, **kwargs):
        calls.append(args[1])
        return exact(*args, **kwargs)

    monkeypatch.setattr(evaluate, "eval_exact", counting)
    ind = cubic_pisot_set(1, 1).certificate.indicator
    trib = [t for t in tribonacci_R(10**13) if t >= 10**12]
    assert len(trib) == 3
    for t in trib:
        lo, hi = t - 8, t + 7
        assert members(ind, lo, hi) == [t]
    assert set(calls) >= set(trib)  # members sit on the plateau: only exact mode decides them


@pytest.mark.parametrize("pair", [(1, 1), (2, 1)])
def test_members_runs_one_dyadic_evaluation_per_point(pair, monkeypatch):
    # the generated function runs once at each point of a window scan, and a
    # point it leaves open (a Tribonacci member on the plateau, where no
    # dyadic precision decides the last floor) goes straight to exact mode,
    # with no second run; the scan is unproposed, so every point runs
    from gplab.constructions import cubic_pisot_set
    from gplab.gpexpr import evaluate

    from oracles import tribonacci_R

    cons = cubic_pisot_set(*pair)
    ind = cons.certificate.indicator
    if pair == (1, 1):
        terms = [t for t in tribonacci_R(10**13) if t >= 10**12]
        windows = [(t - 8, t + 7) for t in terms]
    else:
        windows = [(1000, 1199)]
    want = [[q for q in range(lo, hi + 1) if cons.member(q)] for lo, hi in windows]
    program = evaluate._compiled(ind)
    kernel = evaluate._kernel(program.shape())
    log = []

    def counted_kernel(ns, bits, t):
        def each():  # the generated function runs its body once per n it takes
            for n in ns:
                log.append(("run", n))
                yield n

        for v in kernel(each(), bits, t):
            if type(v) is tuple and type(v[1]) is dict:
                log.append(("open", v[0]))
            yield v

    def counted_exact(e, n, *args):
        log.append(("exact", n))
        return eval_exact(e, n, *args)

    monkeypatch.setattr(program, "_kernel", counted_kernel)
    monkeypatch.setattr(evaluate, "eval_exact", counted_exact)
    assert [list(members_in(ind, range(lo, hi + 1))) for lo, hi in windows] == want
    runs = [n for kind, n in log if kind == "run"]
    assert runs == [q for lo, hi in windows for q in range(lo, hi + 1)]
    # every open point goes to exact mode before the next point runs, and
    # no other point does
    opened = [n for kind, n in log if kind == "open"]
    assert [x for x in log if x[0] != "run"] == [(k, n) for n in opened for k in ("open", "exact")]
    assert all(log[i + 1] == ("exact", n) for i, (kind, n) in enumerate(log) if kind == "open")
    assert opened or pair != (1, 1)  # each Tribonacci member is an open point


def test_tribonacci_members_below_200_are_the_only_exact_fallbacks(monkeypatch):
    # tier-1's fallback count: cubic (1, 1) on [1, 200] sends exactly its 9
    # members, which sit on the plateau, to exact mode
    from gplab.constructions import cubic_pisot_set
    from gplab.gpexpr import evaluate

    from oracles import tribonacci_R

    calls = []

    def counting(e, n, *args):
        calls.append(n)
        return eval_exact(e, n, *args)

    monkeypatch.setattr(evaluate, "eval_exact", counting)
    terms = sorted(set(tribonacci_R(200)) - {0})
    assert len(terms) == 9
    assert members(cubic_pisot_set(1, 1).certificate.indicator, 1, 200) == terms
    assert calls == terms


def test_exact_mode_reads_the_roundings_the_dyadic_pass_decided(monkeypatch):
    # at a Tribonacci member only the plateau's range test is left open:
    # exact mode takes the three nint roundings from the dyadic pass and
    # works none of them out again, and without them it works out all three
    from gplab.constructions import cubic_pisot_set
    from gplab.gpexpr import evaluate

    ind = cubic_pisot_set(1, 1).certificate.indicator
    rounded = []
    nint_of = evaluate.nint_of

    def counted(x, max_bits):
        rounded.append(x)
        return nint_of(x, max_bits)

    monkeypatch.setattr(evaluate, "nint_of", counted)
    assert members(ind, 1700, 1710) == [1705]
    assert rounded == []
    assert eval_exact(ind, 1705) == 1 and len(rounded) == 3


def _pointwise(e, lo: int, hi: int):
    """``members`` the old way, one ``eval_indicator`` per point: the list,
    or the type and n of the first error."""
    try:
        return [n for n in range(lo, hi + 1) if eval_indicator(e, n) == 1]
    except (NonBooleanValue, PrecisionExhausted) as exc:
        return type(exc), exc.n


def _windowed(e, lo: int, hi: int):
    try:
        return members(e, lo, hi)
    except (NonBooleanValue, PrecisionExhausted) as exc:
        return type(exc), exc.n


def test_members_windows_split_at_the_precision_boundaries(phi, monkeypatch):
    # one call of the generated function per run of points of one precision
    # (96 bits up to |n| < 2^16, 192 up to 2^64, then 384), each point at
    # its own: windows across those boundaries, through 0 and negative n,
    # and empty ones
    from gplab.constructions import cubic_pisot_set
    from gplab.gpexpr import evaluate
    from gplab.gpexpr.evaluate import DEFAULT_MAX_BITS, _dyadic_bits

    half = indicator_of_range(Frac(Mul(N, Const("phi", phi))), Fraction(1, 2), 1)
    trib = cubic_pisot_set(1, 1).certificate.indicator
    assert _dyadic_bits(2**16 - 1, DEFAULT_MAX_BITS) < _dyadic_bits(2**16, DEFAULT_MAX_BITS)
    assert _dyadic_bits(2**64 - 1, DEFAULT_MAX_BITS) < _dyadic_bits(2**64, DEFAULT_MAX_BITS)
    program = evaluate._compiled(half)
    kernel = evaluate._kernel(program.shape())
    calls = []

    def counted(ns, bits, t):
        calls.append((ns, bits))
        return kernel(ns, bits, t)

    monkeypatch.setattr(program, "_kernel", counted)
    for c in (0, 2**16, -(2**16), 2**64, -(2**64)):
        want = _pointwise(half, c - 30, c + 30)
        calls.clear()
        assert _windowed(half, c - 30, c + 30) == want, c
        assert min(want) < c < max(want), c  # members on both sides of c
        assert [n for ns, _ in calls for n in ns] == list(range(c - 30, c + 31))
        assert all(_dyadic_bits(n, DEFAULT_MAX_BITS) == bits for ns, bits in calls for n in ns)
        assert len(calls) == (1 if c == 0 else 2)
    # sparse increasing lists, as a certificate proposes them: each run's
    # slice is one call, and together they are every point at its own precision
    sparse = []
    for c in (-(2**64), -(2**16), 0, 2**16, 2**64):
        points = [c + d for d in range(-30, 31, 7)]
        sparse += points
        want = [n for n in points if eval_indicator(half, n) == 1]
        calls.clear()
        assert list(members_in(half, points)) == want, c
        assert min(want) < c < max(want), c
        assert [n for ns, _ in calls for n in ns] == points
        assert all(_dyadic_bits(n, DEFAULT_MAX_BITS) == bits for ns, bits in calls for n in ns)
        assert len(calls) == (1 if c == 0 else 2)
    want = [n for n in sparse if eval_indicator(half, n) == 1]
    calls.clear()
    assert list(members_in(half, sparse)) == want
    assert [bits for _, bits in calls] == [384, 192, 96, 192, 384]
    assert list(members_in(half, [])) == [] and calls[5:] == []
    for lo, hi in ((-3, -1), (0, 0), (1, 1), (5, 4), (2**64, -(2**64))):
        assert _windowed(half, lo, hi) == _pointwise(half, lo, hi), (lo, hi)
    assert members(half, 5, 4) == members(half, 2**64, -(2**64)) == []
    # 66012 is a Tribonacci member past 2^16: an open point in the run past it
    assert _windowed(trib, 2**16 - 100, 66100) == _pointwise(trib, 2**16 - 100, 66100) == [66012]


@pytest.mark.parametrize(
    "text, lo, hi, n",
    [
        ("2*floor(n/2)", 0, 5, 2),  # the integer 2
        ("2*floor(n/2)", -5, 5, -5),  # the integer -6
        ("let phi = root(x^2-x-1, 1, 2); n*phi", 0, 3, 1),  # an interval past 1
        ("let phi = root(x^2-x-1, 1, 2); frac(n*phi)", 0, 3, 1),  # no integer at all
    ],
)
def test_members_raises_where_the_pointwise_scan_did(text, lo, hi, n):
    e = parse(text)
    assert _windowed(e, lo, hi) == _pointwise(e, lo, hi) == (NonBooleanValue, n)


def test_members_stops_at_the_first_bad_point_of_a_wide_window(monkeypatch):
    # 10^9 points past 2^16, the first of them the integer 70000: the scan
    # raises there, and the generated function has been given no other point
    from gplab.gpexpr import evaluate

    e = parse("2*floor(n/2)")
    program = evaluate._compiled(e)
    kernel = evaluate._kernel(program.shape())
    taken = []

    def counted(ns, bits, t):
        def each():
            for n in ns:
                taken.append(n)
                yield n

        return kernel(each(), bits, t)

    monkeypatch.setattr(program, "_kernel", counted)
    with pytest.raises(NonBooleanValue) as info:
        members(e, 70000, 10**9)
    assert info.value.n == 70000 and taken == [70000]
    # a window of more points than ``len`` can count is cut all the same
    taken.clear()
    with pytest.raises(NonBooleanValue) as info:
        members(e, 70000, 10**30)
    assert info.value.n == 70000 and taken == [70000]


def test_an_open_point_reads_no_floor_the_point_before_decided():
    # floor(n/3) is decided at n = 2 and left open at n = 3, where
    # n * enclosure(1/3) straddles 1, in one window: exact mode at n = 3
    # computes it afresh, and every point agrees with the stack machine
    # plus exact mode
    from gplab.gpexpr.evaluate import _FLOOR, Program

    from oracles import dyadic_reference

    third = Mul(N, RationalConst(Fraction(1, 3)))
    e = indicator_of_range(Sub(N, Mul(RationalConst(Fraction(3)), Floor(third))), 0, 1)  # [3 | n]
    program = Program(e)
    floor = next(i for i, op in enumerate(program.ops) if op[0] == _FLOOR)
    root = len(program.ops) - 1
    assert list(program.scan(range(2, 4), 96)) == [(3, {floor: None, root: None})]
    want = []
    for n in range(-7, 10):
        try:
            value = dyadic_reference(program, n, 96)[0] >> 96
        except NeedBits:
            value = eval_exact(e, n)
        if value == 1:
            want.append(n)
    assert members(e, -7, 9) == want == [-6, -3, 0, 3, 6, 9]


def test_members_compiles_each_expression_once(monkeypatch):
    from gplab.gpexpr import evaluate

    compiled = []
    real = evaluate.Program

    def counting(e):
        compiled.append(e)
        return real(e)

    monkeypatch.setattr(evaluate, "Program", counting)
    first = parse("let s = root(x^2-2, 1, 2); floor(1 - frac(theta*floor(2*n*dist(n*s))))")
    windows = [members(first, lo, lo + 40) for lo in (1, 41, 81)]
    assert len(compiled) == 1
    # an equal but distinct tree is a new expression: it compiles again
    second = parse("let s = root(x^2-2, 1, 2); floor(1 - frac(theta*floor(2*n*dist(n*s))))")
    assert second is not first and members(second, 1, 120) == sum(windows, [])
    assert compiled == [first, second]
    monkeypatch.setattr(evaluate, "Program", real)
    assert [n for n in range(1, 121) if eval_indicator(first, n) == 1] == sum(windows, [])


def test_members_keeps_each_program_across_alternating_windows(monkeypatch):
    # windows that switch between two expressions compile each one once
    from gplab.gpexpr import evaluate

    compiled = []
    real = evaluate.Program

    def counting(e):
        compiled.append(e)
        return real(e)

    monkeypatch.setattr(evaluate, "Program", counting)
    text = "let s = root(x^2-{}, 1, 2); floor(1 - frac(theta*floor(2*n*dist(n*s))))"
    exprs = parse(text.format(2)), parse(text.format(3))
    got = [members(e, lo, lo + 29) for lo in (1, 31, 61) for e in exprs]
    assert len(compiled) == 2 and compiled[0] is exprs[0] and compiled[1] is exprs[1]
    monkeypatch.setattr(evaluate, "Program", real)
    for i, e in enumerate(exprs):
        want = [n for n in range(1, 91) if eval_indicator(e, n) == 1]
        assert sum(got[i::2], []) == want
