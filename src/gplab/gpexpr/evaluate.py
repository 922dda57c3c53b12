"""Evaluation of expressions through one compiled program.

``Program`` turns an expression tree into a topologically ordered op list,
hash-consed bottom up: structurally equal subterms (which the indicator
builders repeat heavily) become one op, and compiling and evaluating are
loops, never recursion, so deeply nested expressions are fine.  An
expression compiles on its first evaluation (``eval_exact``,
``eval_indicator`` or ``members_in``) and keeps its program for as long as
it lives: the memo is a slot on the expression object, keyed on its
identity, never on the recursive ``==``, so an equal but distinct tree
compiles on its own.

The ops are constants, ``n``, ``+``, ``-``, ``*``, integer powers,
``floor``, ``frac``, ``nint``, ``dist``, and two ops for the predicates
the indicator builders write (:mod:`gplab.gpexpr.indicators`):

* ``_RANGE(h; a, b)`` is ``[a <= h < b]``.  The zero test
  ``floor(1 - frac(theta * floor(Y)))``, written ``frac(M)`` or
  ``M - floor(M)`` with ``M = theta * floor(Y)``, is ``[floor(Y) = 0]``:
  ``floor(Y)`` is an integer and ``theta`` is irrational, so ``theta *
  floor(Y)`` is an integer only at 0.  This needs only the irrationality
  of ``theta``, never its transcendence.  The zero test compiles to
  ``_RANGE(h; a, a + 1/c)`` when Y is ``indicator_of_range``'s
  ``(h - a) * c`` with rationals a and c > 0, and to ``_RANGE(Y; 0, 1)``
  for any other Y.  A zero test on a non-floor argument is evaluated as
  written.
* ``_DIST_LT(x, s)`` is ``dist_lt_scaled``'s
  ``[0 <= s f < 1] or [0 <= s (1 - f) < 1]`` with ``f = x - floor(x)``, as
  two such range tests, for any sign of s.  s is evaluated first; where
  it is exactly 0 the value is 1 and no floor of x is taken.  The second
  test runs only where the first gives 0.

Any other ``p + q - p q``, such as ``ind_or``'s OR of two predicates,
compiles to its literal ops, as any other sum does.

Which points are evaluated is decided elsewhere: :func:`members_in` decides
the points it is given, and ``gpexpr.members`` gives it only those the
support analysis of the program proposes (:mod:`gplab.gpexpr.support`):
the Legendre candidates of a ``_DIST_LT(k v, c v)`` on a quadratic c, of
a ``_RANGE(k v^m F(c v); lo, hi)`` on a quadratic or rational c and of a
literal zero test of k v^m F(c v) - t on a rational c (Legendre's
theorem, Khinchin, *Continued Fractions*, Thm 19), the lattice-box points
of a cubic plateau test ``_RANGE(C - (H G)^2; lo, hi)``, joined over
``p + q - p q``, read from one factor of a product, and pulled back
through ``nint(u v)``; every point for any other shape.  The analysis is made on the first proposal and kept in the
program.

Every node compiles bottom up to its literal op; the shapes are read at
emit time from the ops already compiled for a new ``floor`` or ``-``
node's operands.  The copies of an operand (the two ``M`` of a zero test,
the scale and argument in each half of a distance test) are copies
exactly when they are one hash-consed op, so a tree whose copies are
distinct objects compiles like one that shares them.
The ops a shape absorbs are compiled first and dropped once the program
is complete, unless another op uses them; the tree itself, and so every
printed certificate, is unchanged.  Each fused op decides every point its
literal subtree decides, with the same value.  Subterms whose operands are
all rationals or elements of one number field fold into one constant
(never through ``theta`` or another stream), within
:data:`MAX_CONST_BITS`.

The same op list is run in two modes, each by one Python function
generated from it:

* exact mode (``eval_exact``) produces an exact :data:`~gplab.realnum.value.Real`
  (rational / field element / interval stream), running every op once,
  in order.  Its function (:func:`exact_source`) is made on the program's
  first exact evaluation from the op structure and the kind of each op's
  value, known from its constants: an integer, a rational, an element of
  one of the program's degree-2 or degree-3 fields, or any Real (an op on
  a stream, or on two fields' elements).  Rationals and field elements
  are integer locals, a field element its coordinates over one
  denominator (Cohen, GTM 138, 4.2), and their sums, differences,
  products and squares are inline integer statements, each result put in
  lowest terms by one gcd as the field's own operators do, with the
  field's reduction table passed in.  So every value equals the one the
  value types' operators give.  Floors on exact values are decided
  exactly, by the field's own ``floor``; floors on streams refine up to
  the precision budget.  A range test compares h with a and b exactly.
  Ops of the last kind call the :mod:`gplab.realnum.value` functions.
  For a point the dyadic pass left open it is given the integer-valued
  ops (floors, nints, range and distance tests) that pass decided at that
  same point, and reads each one of a field element or a stream as the
  integer it decided instead of working it out again, the pattern of
  Shewchuk's adaptive predicates (DCG 18, 1997); those of rationals cost
  less to compute than to look up.  The compiled code is cached per
  process by the structure and the kinds, and the constants, range bounds
  and fields are read once per program.

* dyadic mode evaluates over fixed-point intervals ``[lo, hi] * 2^-bits``
  with plain integer arithmetic.  It is the fast path for range scans, and
  its function (:func:`kernel_source`) is a generator over a window of n:
  the constants' enclosures, the range tests' bounds (passed in from the program's
  per-precision template, never written into the source) and the scratch
  values are read once per call, and the loop body is one flat statement
  per op, each op's interval in two locals.  Ops run in the order a
  demand-driven walk from the root computes them, and a lazy operand runs
  only under a need flag set from
  its left operand: a product whose left factor is exactly zero never
  evaluates its right factor, and a distance test whose scale is exactly
  zero never evaluates its argument.  So the ops computed at a point are
  exactly those it demands, and the same points raise ``NeedBits`` as
  under the walk.
  The function is made on the program's first dyadic evaluation and kept
  in it; the compiled code is cached per process by the op structure
  (opcodes, operand indices, exponents, and whether each constant is an
  exact nonzero value), so programs of one structure, such as the
  indicators of repeated builds, compile it once.  Each point is run
  through it once, at the least of 96, 192, 384, ... bits that holds
  64 + 2 bits(n) (room for a product of two n-sized factors, such as
  2n {n x}): ``members_in`` calls it once per run of points that share
  that precision, ``eval_indicator`` on its one point.  A point whose value
  is exactly 0 is passed over in the loop and one exactly 1 is yielded as n;
  any other is yielded with what the loop found and settled by
  ``eval_indicator`` before the loop goes on, so a scan raises at its
  first bad point and keeps nothing but its members.  A point left open
  goes straight to exact mode with the ops decided before the floor that
  stopped it.  The decided ops' locals are reset at the top of each
  iteration, so no value of an earlier point is ever passed on.  A second
  rung would not help where it matters: on a closed threshold that a value
  meets exactly (a cubic member on its plateau) every enclosure straddles
  the floor.
  A range test compares h's interval with a and b by integer
  cross-multiplication: 1 inside [a, b), 0 disjoint from it, and
  ``NeedBits`` when it straddles a or b.  So a huge h costs nothing,
  where the literal tree would have to decide ``theta * floor(Y)`` to its
  distance from an integer.

Constant enclosures are computed once per program and precision with
:func:`~gplab.realnum.fixed_enclosure`; irrational field elements use the
field's certified dyadic root bracket.  Sums, differences, products with a
nonnegative factor, squares, floors, fractional parts, nearest integers and
range tests are written out in the generated statements, each product and
square with the exact bounds of ``mul_iv``; the other interval kernels
(among them products of two factors that both reach below 0) are the
shared ones of :mod:`gplab.realnum.fixed`.

Exact integer intermediate results stay exact in dyadic mode (their
endpoints coincide and carry no rounding), so indicator expressions always
evaluate to exact 0/1 once every floor is decided.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd  # noqa: F401  (called by the generated exact functions)
from typing import Iterable, Iterator, Sequence

from ..errors import NonBooleanValue, ParseError, PrecisionExhausted
from ..realnum import (
    DEFAULT_MAX_BITS,
    THETA,
    FieldElement,
    NeedBits,
    Real,
    compare,
    dist_iv,
    dist_of,
    fixed_enclosure,
    floor_frac,
    floor_iv,
    frac_of,
    interval_of,  # noqa: F401  (bound here for perfbench's constant-enclosure probe)
    is_exact_zero,
    mul_iv,
    nint_of,
    radd,
    rmul,
    rpow,
    rsub,
)
from ..realnum.refine import _shown
from .ast import (
    Add,
    Const,
    Dist,
    Expr,
    Floor,
    Frac,
    Mul,
    Nint,
    Pow,
    RationalConst,
    Sub,
    Var,
)

# opcodes; an op is (opcode, a, b), a and b its operands' op indices, except
# that _CONST's a indexes Program.consts, _POW's b is the exponent, _RANGE's
# b is the bounds (an, ad, bn, bd) of [an/ad <= h < bn/bd], and _DIST_LT's a
# is the scale s and b the argument x
_CONST, _VAR, _ADD, _SUB, _MUL, _POW, _FLOOR, _FRAC, _NINT, _DIST, _RANGE, _DIST_LT = range(12)

_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_UNARY = {Floor: _FLOOR, Frac: _FRAC, Nint: _NINT, Dist: _DIST}
_TWO_OPERANDS = frozenset({_ADD, _SUB, _MUL, _DIST_LT})
_DECIDED = frozenset({_FLOOR, _NINT, _RANGE, _DIST_LT})  # integer-valued: kept for exact mode
_FUSABLE = (_FLOOR, _SUB)
_UNIT = (0, 1, 1, 1)  # the bounds of [0 <= h < 1]
_EXACT = (Fraction, FieldElement)
_ONE, _NIL = Fraction(1), Fraction(0)

#: Cap on the bit size of a folded constant, checked before it is formed
#: from a bound on its operands' sizes (see :func:`const_bits`): a sum or
#: product by the sum of theirs, a k-th power by k times its base's.
MAX_CONST_BITS = 1 << 20


def const_bits(v: Fraction | FieldElement) -> int:
    """Bit size of an exact constant: its largest numerator or denominator."""
    if type(v) is Fraction:
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    return max(v.den.bit_length(), *(c.bit_length() for c in v.num))


def check_const_bits(bits: int) -> None:
    """Raise ``ParseError`` for a folded constant bounded by more than the cap."""
    if bits > MAX_CONST_BITS:
        raise ParseError(
            f"a constant of up to {bits} bits is past the "
            f"{MAX_CONST_BITS}-bit cap on folded constants"
        )


# -- folding: an op on exact constants -------------------------------------------

def _in_range(v: Real, lo: Fraction, hi: Fraction, max_bits: int) -> int:
    """[lo <= v < hi], decided exactly (streams within ``max_bits``)."""
    return int(compare(v, lo, max_bits) >= 0 and compare(v, hi, max_bits) < 0)


def _dist_lt_exact(s: Real, x: Real, max_bits: int) -> int:
    """A distance test on exact values: 1 where the scale s is exactly 0,
    else [0 <= s {x} < 1] or [0 <= s (1 - {x}) < 1]."""
    if is_exact_zero(s):
        return 1
    f = frac_of(x, max_bits)
    return _in_range(rmul(s, f), _NIL, _ONE, max_bits) or _in_range(
        rmul(s, rsub(_ONE, f)), _NIL, _ONE, max_bits
    )


# the value of an op on its constant operands' values x and y (the exponent
# of a _POW, the bounds of a _RANGE), for folding
_FOLDS = {
    _ADD: radd,
    _SUB: rsub,
    _MUL: rmul,
    _POW: rpow,
    _FLOOR: lambda x, _: Fraction(floor_frac(x)[0]),
    _FRAC: lambda x, _: frac_of(x),
    _NINT: lambda x, _: Fraction(nint_of(x)),
    _DIST: lambda x, _: dist_of(x),
    _RANGE: lambda x, b: Fraction(
        _in_range(x, Fraction(b[0], b[1]), Fraction(b[2], b[3]), DEFAULT_MAX_BITS)
    ),
    _DIST_LT: lambda s, x: Fraction(_dist_lt_exact(s, x, DEFAULT_MAX_BITS)),
}


def _folded(code: int, x: Real, y) -> Real | None:
    """The value of op ``code`` on the constants x and y (for a _POW or a
    _RANGE, y is its exponent or bounds), or None where an operand is not
    exact or the value would not be (two fields' elements make a stream)."""
    if type(x) not in _EXACT:
        return None
    if code in _TWO_OPERANDS:
        if type(y) not in _EXACT:
            return None
        check_const_bits(const_bits(x) + const_bits(y))
    elif code == _POW:
        check_const_bits(const_bits(x) * y)
    v = _FOLDS[code](x, y)
    return v if type(v) in _EXACT else None


# -- dyadic mode: one generated function per op structure ------------------------

def _need() -> None:
    raise NeedBits


def _in_unit(v: tuple[int, int], one: int) -> bool:
    """[0 <= x < 1] for x in ``v * 2^-bits``, one = 2^bits; NeedBits if v straddles 0 or 1."""
    if v[0] >= 0 and v[1] < one:
        return True
    if v[1] < 0 or v[0] >= one:
        return False
    raise NeedBits


def _dist_lt(sl: int, sh: int, xl: int, xh: int, bits: int, one: int) -> int:
    """A distance threshold's two range tests, [0 <= s {x} < 1] and then
    [0 <= s (1 - {x}) < 1], for a scale s that is not exactly 0."""
    f = floor_iv((xl, xh), bits) << bits
    lo, hi = xl - f, xh - f
    if sl >= 0:  # {x} and 1 - {x} are nonnegative: so is each product
        if -(-sh * hi >> bits) < one:
            return one
        if sl * lo >> bits < one:
            raise NeedBits
        if -(-sh * (one - lo) >> bits) < one:
            return one
        if sl * (one - hi) >> bits < one:
            raise NeedBits
        return 0
    s = (sl, sh)
    if _in_unit(mul_iv(s, (lo, hi), bits), one) or _in_unit(
        mul_iv(s, (one - hi, one - lo), bits), one
    ):
        return one
    return 0


def _pow_iv(x: tuple[int, int], e: int, bits: int) -> tuple[int, int]:
    """x^e by squaring over the exponent's bits."""
    out = x
    for bit in bin(e)[3:]:
        out = mul_iv(out, out, bits)
        if bit == "1":
            out = mul_iv(out, x, bits)
    return out


# op i's value is in the locals l{i}, h{i}, and a and b are its operands.  A
# product takes mul_iv's exact bounds, inline where one factor is >= 0: with
# y >= 0, x y is least at lx ly or lx hy and greatest at hx hy or hx ly, as x
# is >= 0 or not; with x >= 0 and ly < 0, least at ly hx.
_PROD = (
    "(l{a} * (l{b} if l{a} >= 0 else h{b}) >> bits, -(-h{a} * (h{b} if h{a} >= 0 else l{b}) >> bits))"
    " if l{b} >= 0 else (l{b} * h{a} >> bits, -(-h{b} * (h{a} if h{b} >= 0 else l{a}) >> bits))"
    " if l{a} >= 0 else mul_iv((l{a}, h{a}), (l{b}, h{b}), bits)"
)
# the same bounds for x x: least at lx lx, hx hx or lx hx, as x is >= 0, <= 0 or neither
_SQUARE = (
    "(l{a} * l{a} if l{a} >= 0 else h{a} * h{a} if h{a} <= 0 else l{a} * h{a}) >> bits,"
    " -(-max(l{a} * l{a}, h{a} * h{a}) >> bits)"
)
_STATEMENTS = {
    _ADD: "l{i}, h{i} = l{a} + l{b}, h{a} + h{b}",
    _SUB: "l{i}, h{i} = l{a} - h{b}, h{a} - l{b}",
    _MUL: "l{i}, h{i} = " + _PROD,
    _FLOOR: "l{i} = h{i} = l{a} & m if l{a} & m == h{a} & m else _need()",
    _FRAC: "l{i}, h{i} = (l{a} & r, h{a} & r) if l{a} & m == h{a} & m else _need()",
    _NINT: "l{i} = h{i} = (l{a} + half) & m if (l{a} + half) & m == (h{a} + half) & m else _need()",
    _DIST: "l{i}, h{i} = dist_iv((l{a}, h{a}), bits)",
    _RANGE: (
        "l{i} = h{i} = one if l{a} * ad{i} >= an{i} and h{a} * bd{i} < bn{i}"
        " else 0 if h{a} * ad{i} < an{i} or l{a} * bd{i} >= bn{i} else _need()"
    ),
    _DIST_LT: "l{i} = h{i} = _dist_lt(l{a}, h{a}, l{b}, h{b}, bits, one)",
}
# the lazy ops' statements where b is needed only under {g}
_UNDER = {
    _MUL: "l{i}, h{i} = (" + _PROD + ") if {g} else (0, 0)",
    _DIST_LT: _STATEMENTS[_DIST_LT] + " if {g} else one",
}
_SCRATCH = {_FRAC: ("r", "one - 1"), _NINT: ("half", "one >> 1")}


def _statement(code: int, i: int, a: int, b: int, g: str | None) -> str:
    """Op i's statement, with g the flag or test under which b is needed,
    or None where it always is."""
    if code == _POW:
        if b == 0:
            return f"l{i} = h{i} = one"
        if b == 2:  # one squaring
            return f"l{i}, h{i} = " + _SQUARE.format(a=a)
        return f"l{i}, h{i} = _pow_iv((l{a}, h{a}), {b:#x}, bits)"
    return (_STATEMENTS if g is None else _UNDER)[code].format(i=i, a=a, b=b, g=g)


def kernel_source(shape: tuple) -> str:
    """The source of ``dyadic(ns, bits, t)``, the dyadic function of the ops
    ``shape``: a program's ops with each range test's bounds left out and
    each constant replaced by whether it is an exact nonzero value.  The
    constants' enclosures and the bounds are read from ``t``,
    :meth:`Program._template`'s tuple, once per call; the ops run in a loop
    over the points ``ns``, and the function is a generator of what
    :meth:`Program.scan` describes.  A floor or range test left open raises
    ``NeedBits`` inside the loop's ``try``, whose handler yields the point
    with the locals of the integer-valued ops, which are reset to None at
    the top of each iteration.

    The ops are visited in the order a demand-driven walk from the root
    computes them, left operand first, and each is one flat statement.  A
    lazy operand (``_MUL``'s right factor and ``_DIST_LT``'s argument, unless
    the left operand is a nonzero constant) is computed under a flag that is
    set after the left operand, from whether it is not exactly 0 and the
    op's own flag.  The one implication used is that a flag implies the
    flag it is nested in.  An op that a later visit needs under
    a flag that implies none it was computed under is emitted again,
    guarded to the cases those did not cover.  So the ops the walk demands
    are computed, once each, and no other: the same points raise
    ``NeedBits``.  The visit is a loop and no statement is nested, so
    neither depth nor laziness is limited.
    """
    root = len(shape) - 1
    codes = {code for code, _, _ in shape}
    scratch = [("m", "-one")] if codes & {_FLOOR, _FRAC, _NINT} else []
    scratch += [pair for code, pair in _SCRATCH.items() if code in codes]
    head = [" = ".join(map(", ".join, zip(*scratch)))] if scratch else []
    body, inputs = [], []
    done: list[list] = [[] for _ in shape]  # the flags op i is computed under; None: always
    parent: dict[str, str | None] = {}  # the flag each flag is nested in
    nonzero = set()
    for i, (code, a, b) in enumerate(shape):
        if code == _CONST:
            inputs.append(f"(l{i}, h{i})")
            done[i].append(None)
            if b:
                nonzero.add(i)
        elif code == _RANGE:
            inputs.append(f"(an{i}, ad{i}, bn{i}, bd{i})")
        elif code == _VAR:
            body.append(f"l{i} = h{i} = n << bits")
            done[i].append(None)
    if inputs:
        head.append(", ".join(inputs) + ", = t")

    def covered(i: int, g: str | None) -> bool:
        while g not in done[i]:
            if g is None:
                return False
            g = parent[g]
        return True

    # (op, its flag, its operands' stage: 0 none, 1 a, 2 both, the flag or test of b)
    work: list[tuple] = [(root, None, 0, None)]
    while work:
        i, g, stage, test = work.pop()
        code, a, b = shape[i]
        if stage == 0:
            if not covered(i, g):
                work.append((i, g, 1, None))
                if code != _POW or b != 0:
                    work.append((a, g, 0, None))
            continue
        flag = None
        if stage == 1 and code in _TWO_OPERANDS:
            if code in _UNDER and a not in nonzero:  # b is needed where a is not exactly 0
                test = f"(l{a} or h{a})"
                if not covered(b, g):
                    flag = f"g{len(parent)}"
                    parent[flag] = g
                    body.append(f"{flag} = {test}" if g is None else f"{flag} = {g} and {test}")
                    test = flag
                elif code == _MUL:
                    test = None  # b is computed anyway, and 0 times it is 0
            work += [(i, g, 2, test), (b, flag or g, 0, None)]
            continue
        when = [] if g is None else [g]
        if done[i]:  # emitted before under other flags: only where none of them held
            when.append(f"not ({' or '.join(done[i])})")
        stmt = _statement(code, i, a, b, test)
        body.append(f"if {' and '.join(when)}: {stmt}" if when else stmt)
        done[i].append(g)
    decided = [i for i, (code, _, _) in enumerate(shape) if code in _DECIDED]
    lines = ["def dyadic(ns, bits, t):", "    one = 1 << bits"]
    lines += ["    " + line for line in head]
    lines.append("    for n in ns:")
    if decided:  # none is read from an earlier point
        lines.append("        " + " = ".join(f"l{i}" for i in decided) + " = None")
    lines.append("        try:")
    lines += ["            " + line for line in body]
    lo, hi = f"l{root}", f"h{root}"
    lines.append(
        f"            if {lo} or {hi}: yield n if {lo} == {hi} == one else (n, ({lo}, {hi}))"
    )
    kept = ", ".join(f"{i}: l{i}" for i in decided)
    lines.append(f"        except NeedBits: yield n, {{{kept}}}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=256)
def _kernel(shape: tuple):
    """The dyadic function of an op structure, compiled once per process
    for every program of that structure (the 256 most recent)."""
    namespace = {
        "mul_iv": mul_iv,
        "dist_iv": dist_iv,
        "_pow_iv": _pow_iv,
        "_dist_lt": _dist_lt,
        "_need": _need,
        "NeedBits": NeedBits,
    }
    exec(compile(kernel_source(shape), "<dyadic kernel>", "exec"), namespace)
    return namespace["dyadic"]


# -- exact mode: one generated function per op structure and value kinds ---------

# The kind of an op's value in exact mode: an integer, a rational, any Real
# (a stream, or a value made from two fields' elements) or, from _F on, an
# element of the program's field of slot kind - _F.
_Z, _Q, _G, _F = range(4)
_READ = frozenset({_FLOOR, _NINT, _RANGE})  # integer-valued ops read from a dyadic pass
# the realnum.value calls of the ops of kind _G, and of field elements
_CALLS = {
    _ADD: "radd({x}, {y})",
    _SUB: "rsub({x}, {y})",
    _MUL: "rmul({x}, {y})",
    _POW: "rpow({x}, {y})",
    _FLOOR: "floor_frac({x}, max_bits)[0]",
    _NINT: "nint_of({x}, max_bits)",
    _FRAC: "frac_of({x}, max_bits)",
    _DIST: "dist_of({x}, max_bits)",
}
_NO_DECIDED: dict = {}


def _joint(ka: int, kb: int) -> int:
    """The kind of a sum, difference or product of values of kinds ka and kb."""
    if _G in (ka, kb) or (ka >= _F and kb >= _F and ka != kb):
        return _G
    return max(ka, kb)


def _times(x: str, y: str) -> str:
    if x == "0" or y == "0":
        return "0"
    return x if y == "1" else y if x == "1" else f"{x} * {y}"


def _sum(terms: list[str]) -> str:
    """The terms, each an expression or one with a leading minus, as one sum."""
    terms = [t for t in terms if t != "0" and t != "-0"]
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])


def _lowest(names: list[str], den: str, rational: bool) -> list[str]:
    """Lines that put ``names / den`` in lowest terms with one gcd, as
    ``field._reduced`` does; a field element's gcd is skipped where den is 1."""
    g = f"gcd({den}, {', '.join(names)})"
    cut = f"{', '.join(names)}, {den} = " + ", ".join(f"{v} // g" for v in names + [den])
    if rational:
        return [f"g = {g}", f"if g != 1: {cut}"]
    return [f"if {den} != 1:", f"    g = {g}", f"    if g != 1: {cut}"]


def _product(x: list[str], y: list[str], slot: int) -> tuple[list[str], list[str]]:
    """Coordinates of a product of two elements of the field in ``slot``:
    the schoolbook product, then the reduction table ``r{slot}_{k}_{j}``
    (beta^(degree + k) in coordinates).  Lines that set ``u{k}`` for the
    high coefficients, and the coordinates' expressions."""
    deg = len(x)
    square = x is y
    coef = []
    for k in range(2 * deg - 1):
        terms = []
        for i in range(max(0, k - deg + 1), min(k, deg - 1) + 1):
            j = k - i
            if square and i > j:
                continue
            t = _times(x[i], y[j])
            terms.append(f"2 * {t}" if square and i < j else t)
        coef.append(_sum(terms))
    lines = [f"u{k} = {coef[k]}" for k in range(deg, 2 * deg - 1)]
    out = [
        _sum([coef[j]] + [f"u{k} * r{slot}_{k - deg}_{j}" for k in range(deg, 2 * deg - 1)])
        for j in range(deg)
    ]
    return lines, out


def exact_source(shape: tuple, kinds: tuple, degrees: tuple) -> str:
    """The source of ``make(t)``, which returns ``exact(n, max_bits, dec)``,
    the exact function of the ops ``shape`` (:meth:`Program.shape`) whose
    values have the kinds ``kinds``, ``degrees`` being the degree of each
    field slot.  ``t`` is :meth:`Program._exact_inputs`'s tuple: each
    constant's integers, the bounds of each range test, and each field with
    its reduction table, read once per program, never written into the
    source.

    Every op runs once, in order.  A rational is a numerator and a
    denominator, and a field element its integer coordinates over one
    denominator, each result in lowest terms by one ``gcd``, so every value
    equals the one the value types' own operators give.  An integer has no
    denominator.  Sums, differences, products and squares of such values
    are inline statements, and so are floors, roundings, fractional parts,
    distances and range tests of rationals.  The same ops of a field
    element, its other powers, and distance tests call the
    :mod:`gplab.realnum.value` functions on the boxed value; a floor, a
    rounding or a range test of a field element or a stream, and any
    distance test, is first read from ``dec``, the integers a dyadic pass
    decided at n.  Every op of kind ``_G`` calls those functions too.  The
    function returns the root's value as a ``Fraction``, a
    ``FieldElement`` or the Real a generic op gave.
    """
    inputs: list[str] = []
    body: list[str] = []
    val: list = []  # per op: (coordinate expressions, denominator expression)

    def box(i: int) -> str:
        k = kinds[i]
        if k == _G:
            return f"v{i}"
        (x, *rest), d = val[i]
        if k < _G:
            return f"Fraction({x})" if d == "1" else f"Fraction({x}, {d})"
        return f"FieldElement(f{k - _F}, ({', '.join([x, *rest])}), {d})"

    def as_field(i: int, deg: int) -> list[str]:
        x, d = val[i]
        return (x + ["0"] * (deg - len(x))), d

    for i, (code, a, b) in enumerate(shape):
        k = kinds[i]
        deg = degrees[k - _F] if k >= _F else 1
        names = [f"n{i}"] if deg == 1 else [f"n{i}_{j}" for j in range(deg)]
        den = "1" if k == _Z else f"d{i}"
        lhs = ", ".join(names)
        lines: list[str] = []
        if code == _CONST:
            inputs += [f"v{i}"] if k == _G else names + ([den] if k != _Z else [])
        elif code == _VAR:
            names, den = ["n"], "1"
        elif code == _RANGE:
            ka = kinds[a]
            if ka < _G:
                inputs += [f"an{i}", f"ad{i}", f"bn{i}", f"bd{i}"]
                (x,), d = val[a]
                lines = [
                    f"{lhs} = 1 if {_times(x, f'ad{i}')} >= {_times(f'an{i}', d)}"
                    f" and {_times(x, f'bd{i}')} < {_times(f'bn{i}', d)} else 0"
                ]
            else:
                inputs += [f"lo{i}", f"hi{i}"]
                lines = [f"{lhs} = _in_range({box(a)}, lo{i}, hi{i}, max_bits)"]
        elif code == _DIST_LT:
            lines = [f"{lhs} = _dist_lt_exact({box(a)}, {box(b)}, max_bits)"]
        elif code == _POW and b < 2 and k != _G:  # x^0 is 1, x^1 is x
            names, den = (["1"], "1") if b == 0 else val[a]
        elif code in (_FLOOR, _NINT, _FRAC, _DIST) and kinds[a] == _Z:
            # an integer is its own floor and rounding, 0 its fraction and distance
            names = val[a][0] if code in _READ else ["0"]
        elif code in (_FLOOR, _NINT, _FRAC, _DIST) and kinds[a] == _Q:
            (x,), d = val[a]
            lines = {
                _FLOOR: [f"{lhs} = {x} // {d}"],
                _NINT: [f"{lhs} = (2 * {x} + {d}) // (2 * {d})"],
                _FRAC: [f"{lhs}, {den} = {x} % {d}, {d}"],
                _DIST: [f"{lhs} = {x} % {d}", f"if 2 * {lhs} > {d}: {lhs} = {d} - {lhs}", f"{den} = {d}"],
            }[code]
        elif code == _FLOOR and kinds[a] >= _F:
            lines = [f"{lhs} = {box(a)}.floor()"]
        elif k == _G or code not in _TWO_OPERANDS and (code != _POW or k >= _F and b > 2):
            # the realnum.value call: on streams, two fields' elements, or
            # one field's element, but for a sum, difference, product or square
            y = b if code == _POW else box(b) if code in _TWO_OPERANDS else ""
            call = _CALLS[code].format(x=box(a), y=y)
            if k == _G:
                lines = [f"v{i} = {call}"]
            elif k == _Z:
                lines = [f"{lhs} = {call}"]
            else:
                lines = [f"w = {call}", f"({lhs}), {den} = w.num, w.den"]
        elif k < _G:  # ops on integers and rationals
            (x,), dx = val[a]
            (y,), dy = val[a if code == _POW else b]
            if code == _POW:
                lines = [f"{lhs} = {x} ** {b}"] + ([f"{den} = {dx} ** {b}"] if k == _Q else [])
            elif code == _MUL:
                lines = [f"{lhs} = {_times(x, y)}"]
                if k == _Q:
                    lines += [f"{den} = {_times(dx, dy)}"] + _lowest([lhs], den, True)
            else:
                sign = "-" if code == _SUB else ""
                lines = [f"{lhs} = {_sum([_times(x, dy), sign + _times(y, dx)])}"]
                if k == _Q:
                    lines.append(f"{den} = {_times(dx, dy)}")
                    if dx != "1" and dy != "1":
                        lines += _lowest([lhs], den, True)
        else:  # ops on one field's elements, a rational operand embedded
            slot = k - _F
            x, dx = as_field(a, deg)
            y, dy = as_field(a if code == _POW else b, deg)
            if code == _POW or (code == _MUL and kinds[a] >= _F and kinds[b] >= _F):
                lines, out = _product(x, x if code == _POW else y, slot)
                lines.append(f"{lhs}, {den} = {', '.join(out)}, {_times(dx, dy)}")
                lines += _lowest(names, den, False)
            elif code == _MUL:  # by a rational
                (r, *_), s = (y, dy) if kinds[b] < _G else (x, dx)
                f, d = (x, dx) if kinds[b] < _G else (y, dy)
                lines = [f"{lhs}, {den} = {', '.join(_times(c, r) for c in f)}, {_times(d, s)}"]
                lines += _lowest(names, den, False)
            else:
                sign = "-" if code == _SUB else ""
                same = [_sum([u, sign + v]) for u, v in zip(x, y)]
                cross = [_sum([_times(u, dy), sign + _times(v, dx)]) for u, v in zip(x, y)]
                if kinds[a] >= _F and kinds[b] >= _F:  # over one denominator where they agree
                    lines = [
                        f"if {dx} == {dy}: {lhs}, {den} = {', '.join(same)}, {dx}",
                        f"else: {lhs}, {den} = {', '.join(cross)}, {dx} * {dy}",
                    ]
                else:
                    lines = [f"{lhs}, {den} = {', '.join(cross)}, {_times(dx, dy)}"]
                if dx != "1" and dy != "1":  # a sum with an integer is in lowest terms
                    lines += _lowest(names, den, False)
        if code in _READ and kinds[a] >= _G or code == _DIST_LT:  # read where a dyadic pass decided it
            lines = [f"{lhs} = dec.get({i})", f"if {lhs} is None:"] + ["    " + ln for ln in lines]
        body += lines
        val.append((names, den))
    for slot, deg in enumerate(degrees):
        inputs.append(f"f{slot}")
        inputs += [f"r{slot}_{k}_{j}" for k in range(deg - 1) for j in range(deg)]
    root = len(shape) - 1
    out = ["def make(t):"]
    if inputs:
        out.append(f"    {', '.join(inputs)}, = t")
    out.append("    def exact(n, max_bits, dec):")
    out += ["        " + line for line in body]
    out += [f"        return {box(root)}", "    return exact"]
    return "\n".join(out) + "\n"


@lru_cache(maxsize=256)
def _exact_kernel(shape: tuple, kinds: tuple, degrees: tuple):
    """The ``make`` function of an op structure and its value kinds,
    compiled once per process for every program of that structure (the 256
    most recent).  Its globals are this module's, so it calls the
    :mod:`gplab.realnum` functions bound here."""
    namespace: dict = {}
    exec(compile(exact_source(shape, kinds, degrees), "<exact kernel>", "exec"), globals(), namespace)
    return namespace["make"]


class Program:
    """An expression compiled to a hash-consed, topologically ordered op list.

    Ops are keyed on ``(opcode, operand indices)`` plus the exponent, the
    bounds or the constant (compared by value; interval streams by
    identity), never on the tree's own recursive hash.  The last op is the
    root.  One bottom-up loop compiles every node as its literal op, except
    that a new ``_FLOOR`` or ``_SUB`` whose operands' ops have a
    predicate's shape becomes that predicate (:meth:`_fused`), and an op on
    constants becomes its folded value.  The ops they absorb are compiled
    first and dropped at the end unless something else uses them.  The
    program also keeps, per precision, the inputs of its dyadic function
    (its constants' enclosures and its range tests' bounds), and that
    function itself, made from :meth:`shape` on the first dyadic
    evaluation; and its exact function, made from :meth:`exact_shape` and
    its constants on the first exact evaluation.  Both are generated code:
    no op list is interpreted.
    """

    __slots__ = ("ops", "consts", "_templates", "_kernel", "_exact", "_support")

    def __init__(self, e: Expr):
        self.ops: list[tuple] = []
        self.consts: list[Real] = []
        self._templates: dict[int, tuple] = {}
        self._kernel = None  # the dyadic function, made on the first dyadic evaluation
        self._exact = None  # the exact function, made on the first exact evaluation
        self._support = None  # its support analysis (gpexpr.support), made on the first proposal
        keys: dict[tuple, int] = {}  # one per op, plus each fused or folded key
        index: dict[int, int] = {}  # id(node) -> op; nodes live as long as e
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            t = type(node)
            if t in _BINARY:
                left, right = node.left, node.right
                a, b = index.get(id(left)), index.get(id(right))
                if a is None or b is None:
                    if b is None:
                        stack.append(right)
                    if a is None:
                        stack.append(left)  # left operands first
                    continue
                key = (_BINARY[t], a, b)
            elif t in _UNARY:
                a = index.get(id(node.arg))
                if a is None:
                    stack.append(node.arg)
                    continue
                key = (_UNARY[t], a, 0)
            elif t is Pow:
                a = index.get(id(node.base))
                if a is None:
                    stack.append(node.base)
                    continue
                key = (_POW, a, node.exponent)
            elif t is RationalConst or t is Const:
                key = (_CONST, type(node.value), node.value)
            elif t is Var:
                key = (_VAR, 0, 0)
            else:
                raise TypeError(f"unknown node {node!r}")
            stack.pop()
            i = keys.get(key)
            index[id(node)] = self._emit(key, keys) if i is None else i
        if len(keys) > len(self.ops):  # something fused or folded
            self._drop_unused(index[id(e)])

    def _emit(self, key: tuple, keys: dict) -> int:
        """The op of a new key: the predicate it fuses to, its folded
        constant, or a new op."""
        ops, consts = self.ops, self.consts
        code, a, b = key
        new = self._fused(code, a, b) if code in _FUSABLE else None
        two = code in _TWO_OPERANDS
        if new is None and code > _VAR and ops[a][0] == _CONST and (not two or ops[b][0] == _CONST):
            v = _folded(code, consts[ops[a][1]], consts[ops[b][1]] if two else b)
            if v is not None:  # an exact value: one constant
                new = (_CONST, type(v), v)
        if new is not None:
            i = keys.get(new)
            i = keys[key] = self._emit(new, keys) if i is None else i
            return i
        i = keys[key] = len(ops)
        if code == _CONST:
            ops.append((_CONST, len(consts), 0))
            consts.append(b)
        else:
            ops.append(key)
        return i

    # -- the predicates, read from the operands' ops ------------------------------
    def _rational(self, i: int) -> Fraction | None:
        code, a, _ = self.ops[i]
        v = self.consts[a] if code == _CONST else None
        return v if type(v) is Fraction else None

    def _frac_arg(self, i: int) -> int | None:
        """M where op i is frac(M), as parsed or as M - floor(M)."""
        code, m, f = self.ops[i]
        if code == _FRAC or (code == _SUB and self.ops[f] == (_FLOOR, m, 0)):
            return m
        return None

    def _fused(self, code: int, a: int, b: int) -> tuple | None:
        """The predicate key of the new op ``(code, a, b)``, a _FLOOR or a
        _SUB, or None where its operands' ops have no predicate's shape.  Two
        copies of an operand (the two M of a zero test, s and x in both
        halves of a distance test) are equal exactly when they are one op,
        so a tree whose copies are distinct objects fuses like one that
        shares them."""
        ops = self.ops
        if code == _FLOOR:  # floor(1 - frac(M)), M = theta * floor(Y): [floor(Y) = 0]
            sub, one, fr = ops[a]
            m = self._frac_arg(fr) if sub == _SUB else None
            if m is None or ops[m][0] != _MUL or self._rational(one) != 1:
                return None
            _, t, fy = ops[m]
            if ops[fy][0] != _FLOOR or ops[t][0] != _CONST or self.consts[ops[t][1]] is not THETA:
                return None
            y = ops[fy][1]
            mul, d, c = ops[y]  # indicator_of_range's Y = (h - lo) * c with c > 0?
            lo = self._rational(ops[d][2]) if mul == _MUL and ops[d][0] == _SUB else None
            c = self._rational(c) if lo is not None else None
            if c is None or c <= 0:
                return (_RANGE, y, _UNIT)
            hi = lo + 1 / c
            return (_RANGE, ops[d][1], (lo.numerator, lo.denominator, hi.numerator, hi.denominator))
        # dist_lt_scaled: p + q - p q with p = [0 <= s f < 1] and
        # q = [0 <= s (1 - f) < 1], f = frac(x)
        add, p, q = ops[a]
        if add != _ADD or ops[b] != (_MUL, p, q):
            return None
        if not (ops[p][0] == ops[q][0] == _RANGE and ops[p][2] == ops[q][2] == _UNIT):
            return None
        (m1, s, f), (m2, s2, g) = ops[ops[p][1]], ops[ops[q][1]]  # s f, s2 g
        one_less = m2 == _MUL and ops[g][0] == _SUB and self._rational(ops[g][1]) == 1
        if m1 == _MUL and s == s2 and one_less:
            x = self._frac_arg(f)
            if x is not None and x == self._frac_arg(ops[g][2]):
                return (_DIST_LT, s, x)
        return None

    def _drop_unused(self, root: int) -> None:
        """Keep the ops the root uses, in order: the operands of a folded
        subterm, and the ops a predicate absorbs, are compiled before it."""
        ops = self.ops
        used = [False] * len(ops)
        used[root] = True
        for i in range(root, -1, -1):
            if used[i]:
                code, a, b = ops[i]
                if code != _CONST and code != _VAR:
                    used[a] = True
                    if code in _TWO_OPERANDS:
                        used[b] = True
        new: dict[int, int] = {}
        kept: list[tuple] = []
        consts: list[Real] = []
        for i, (code, a, b) in enumerate(ops):
            if not used[i]:
                continue
            new[i] = len(kept)
            if code == _CONST:
                kept.append((_CONST, len(consts), 0))
                consts.append(self.consts[a])
            elif code == _VAR:
                kept.append((_VAR, 0, 0))
            else:
                kept.append((code, new[a], new[b] if code in _TWO_OPERANDS else b))
        self.ops, self.consts = kept, consts

    # -- dyadic mode ----------------------------------------------------------
    def shape(self) -> tuple:
        """The ops as :func:`kernel_source` reads them: range tests without
        their bounds, and constants by whether they are exact and nonzero."""
        consts = self.consts
        return tuple(
            (code, a, type(consts[a]) in _EXACT and not is_exact_zero(consts[a]))
            if code == _CONST
            else (code, a, 0) if code == _RANGE else (code, a, b)
            for code, a, b in self.ops
        )

    def _template(self, bits: int) -> tuple:
        """The dyadic function's inputs at ``bits``, in op order: each
        constant's enclosure, and each range test's bounds as
        ``(an << bits, ad, bn << bits, bd)``."""
        tpl = self._templates[bits] = tuple(
            fixed_enclosure(self.consts[a], bits)
            if code == _CONST
            else (b[0] << bits, b[1], b[2] << bits, b[3])
            for code, a, b in self.ops
            if code == _CONST or code == _RANGE
        )
        return tpl

    def scan(self, ns: Iterable[int], bits: int) -> Iterator:
        """The dyadic function at every n of ``ns``, all at ``bits``: a
        generator that takes the next n from ``ns`` only when asked for its
        next value.  It yields, in order, n where the value is exactly 1,
        ``(n, (lo, hi))`` where the interval is not exactly 0 or 1, and
        ``(n, decided)`` where a floor or a range test was left open,
        ``decided`` mapping each integer-valued op (floor, nint, range and
        distance test) to its local: its value times ``2^bits`` where it
        was decided at n, else None.  A point whose value is exactly 0 is
        left out."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = _kernel(self.shape())
        tpl = self._templates.get(bits)
        return kernel(ns, bits, self._template(bits) if tpl is None else tpl)

    # -- exact mode -------------------------------------------------------------
    def _exact_inputs(self) -> tuple[tuple, tuple]:
        """The arguments of :func:`exact_source`, the structure, each op's
        value kind and each field slot's degree, and the ``make`` function's
        inputs: in op order each constant's integers (its stream, for one of
        kind ``_G``) and each range test's bounds (as integers where h is
        rational, else as two ``Fraction``), then each field of the program,
        in order of first use, with its reduction table."""
        consts = self.consts
        kinds: list[int] = []
        fields: dict = {}  # field -> slot; equal fields are one slot, as for the value types
        t: list = []
        for code, a, b in self.ops:
            if code == _CONST:
                v = consts[a]
                if type(v) is Fraction:
                    k = _Z if v.denominator == 1 else _Q
                    t += [v.numerator] if k == _Z else [v.numerator, v.denominator]
                elif type(v) is FieldElement:
                    k = _F + fields.setdefault(v.field, len(fields))
                    t += [*v.num, v.den]
                else:
                    k = _G
                    t.append(v)
            elif code == _VAR or code in _DECIDED:
                k = _Z
                if code == _RANGE:
                    t += list(b) if kinds[a] < _G else [Fraction(b[0], b[1]), Fraction(b[2], b[3])]
            elif code in _TWO_OPERANDS:
                k = _joint(kinds[a], kinds[b])
            elif code == _POW and b == 0:
                k = _Z if kinds[a] < _G else _G  # x^0 is Fraction(1), or field.one() but at 0
            else:  # a power, fractional part or distance: of its operand's kind
                k = kinds[a]
            kinds.append(k)
        for field in fields:
            t += [field, *(c for row in field._red for c in row)]
        return (self.shape(), tuple(kinds), tuple(f.degree for f in fields)), tuple(t)

    def exact_shape(self) -> tuple:
        """The arguments of :func:`exact_source` for this program."""
        return self._exact_inputs()[0]

    def eval_exact(self, n: int, max_bits: int, decided: dict | None = None) -> Real:
        """The value at n, every op computed once, in order, by the
        program's exact function, made on the first exact evaluation.  A
        distance test, or a floor, nint or range test of a field element or
        a stream, that ``decided`` (a dyadic pass's verdicts at this same n)
        maps is read as the integer it maps to."""
        fn = self._exact
        if fn is None:
            key, t = self._exact_inputs()
            fn = self._exact = _exact_kernel(*key)(t)
        return fn(n, max_bits, decided or _NO_DECIDED)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _dyadic_bits(n: int, max_bits: int) -> int:
    """The one dyadic precision for n: on the 96 * 2^k grid, so points share
    the program's constant templates, and at most max(max_bits, 96)."""
    need = 64 + 2 * abs(n).bit_length()
    top = max(max_bits, 96)
    bits = 96
    while bits < need and 2 * bits <= top:
        bits *= 2
    return bits


def _runs(lo: int, hi: int, max_bits: int) -> list[list[int]]:
    """[lo, hi] as ``[start, stop, bits]`` runs of points that share
    :func:`_dyadic_bits`: split wherever |n| changes bit length, and
    neighbours of one precision joined."""
    runs: list[list[int]] = []
    n = lo
    while n <= hi:
        k = abs(n).bit_length()
        last = (1 << k) - 1 if n >= 0 else -(1 << (k - 1))  # the last n' >= n with |n'| of k bits
        stop = min(last, hi) + 1
        bits = _dyadic_bits(n, max_bits)
        if runs and runs[-1][2] == bits:
            runs[-1][1] = stop
        else:
            runs.append([n, stop, bits])
        n = stop
    return runs


def _compiled(e: Expr) -> Program:
    """The program of ``e``: compiled on its first evaluation, then kept in
    the expression's own slot, so it lives exactly as long as ``e``."""
    try:
        return e._program
    except AttributeError:
        program = Program(e)
        object.__setattr__(e, "_program", program)  # Expr nodes are frozen
        return program


def eval_exact(
    e: Expr, n: int, max_bits: int = DEFAULT_MAX_BITS, decided: dict | None = None
) -> Real:
    """Exact value of the expression at integer n (spec semantics).

    ``decided`` maps op indices of the expression's program to integers a
    dyadic pass decided at this n; exact mode reads them instead of
    computing them.
    """
    return _compiled(e).eval_exact(n, max_bits, decided)


def eval_indicator(
    e: Expr, n: int, max_bits: int = DEFAULT_MAX_BITS, *, _found: tuple | None = None
) -> int:
    """Value of an indicator expression; raises NonBooleanValue outside {0,1}.

    ``_found`` is for :func:`members_in` alone: ``(bits, v)``, where v is what
    its window scan (:meth:`Program.scan`) at ``bits`` yielded for n, an
    interval that is not exactly 0 or 1 or the decided ops of a point left
    open, so that n is not run through the dyadic function again.  Such a
    point is settled here rather than in a helper, so that every exact
    fallback of a scan is made under ``eval_indicator``, where perfbench's
    fallback probe counts it.
    """
    if _found is None:
        bits = _dyadic_bits(n, max_bits)
        v = next(_compiled(e).scan((n,), bits), None)
        if v is None:
            return 0
        if type(v) is int:
            return 1
        _found = bits, v[1]
    bits, outcome = _found
    decided = None
    if type(outcome) is dict:  # a floor its enclosure straddles: exact mode decides
        decided = {i: v >> bits for i, v in outcome.items() if v is not None}
    else:
        lo, hi = outcome
        if lo == hi and lo % (1 << bits) == 0:
            val = lo >> bits
            raise NonBooleanValue(f"indicator value {_shown(val)} at n={n}", n=n, value=val)
        # non-point result: the expression did not collapse to an integer
        if hi < 0 or lo > (1 << bits):
            raise NonBooleanValue("indicator outside {0,1}", n=n, value=(lo, hi))
    try:
        value = eval_exact(e, n, max_bits, decided)
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"indicator undecided at n={n}", n=n, bits=max_bits) from exc
    if isinstance(value, FieldElement) and value.is_rational():
        value = value.as_rational()
    if isinstance(value, Fraction):
        if value == 0:
            return 0
        if value == 1:
            return 1
        raise NonBooleanValue(f"indicator value {_shown(value)} at n={n}", n=n, value=value)
    raise NonBooleanValue(f"indicator did not reduce to an integer at n={n}", n=n, value=value)


def _below(points: Sequence[int], x: int) -> int:
    """How many of the increasing ``points`` are below x: ``bisect_left``,
    worked out for a range, whose length may be too large for ``len``."""
    if isinstance(points, range):
        return max(0, -((points.start - x) // points.step))
    return bisect_left(points, x)


def members_in(e: Expr, points: Sequence[int], max_bits: int = DEFAULT_MAX_BITS) -> Iterator[int]:
    """The points of ``points``, an increasing sequence of integers (a
    ``range`` or a sorted list), where the indicator evaluates to 1, in order.

    One call of the program's dyadic function per run of points that share a
    precision, each run's slice cut at its ends by bisection.  A point whose
    value is not exactly 0 or 1 there is settled by :func:`eval_indicator`
    from what the call yielded, before the call goes on to the next point:
    the first point that is not 0 or 1 raises as it would alone, every
    member before it has been yielded, and no later point has been run.
    """
    if not points:
        return
    program = _compiled(e)
    for start, stop, bits in _runs(points[0], points[-1], max_bits):
        run = points[_below(points, start) : _below(points, stop)]
        for v in program.scan(run, bits):
            if type(v) is int:
                yield v
            elif eval_indicator(e, v[0], max_bits, _found=(bits, v[1])) == 1:
                yield v[0]


def discrete_difference(q: Expr, shifts: list[int], max_bits: int = DEFAULT_MAX_BITS) -> Real:
    """Alternating-sign sum of q over all subset sums of the shifts.

    The empty subset contributes q(0) with positive sign; for a true
    polynomial of degree below ``len(shifts)`` the sum vanishes.
    """
    d = len(shifts)
    if d < 1:
        raise ValueError("need at least one shift")
    total: Real = Fraction(0)
    for mask in range(1 << d):
        s = 0
        parity = 0
        for i in range(d):
            if mask >> i & 1:
                s += shifts[i]
                parity ^= 1
        term = eval_exact(q, s, max_bits)
        total = rsub(total, term) if parity else radd(total, term)
    return total
