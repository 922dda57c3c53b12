"""Evaluation of expressions through one compiled program.

``Program`` turns an expression tree into a topologically ordered op list,
hash-consed bottom up: structurally equal subterms (which the indicator
builders repeat heavily) become one op, and compiling and evaluating are
loops, never recursion, so deeply nested expressions are fine.  An
expression compiles on its first evaluation (``eval_exact``,
``eval_indicator`` or ``members``) and keeps its program for as long as it
lives: the memo is a slot on the expression object, keyed on its identity,
never on the recursive ``==``, so an equal but distinct tree compiles on
its own.

The ops are constants, ``n``, ``+``, ``-``, ``*``, integer powers,
``floor``, ``frac``, ``nint``, ``dist``, and three ops for the predicates
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
* ``_OR(p, q)`` is ``p + q - p q`` for 0/1-valued p and q: range and
  distance tests, ORs, products of such and ``1 -`` such.  In dyadic
  mode q is evaluated only where p is 0.

The shapes are matched top down, on the tree's structure down to their
operands, and the copies of an operand (the two ``M`` of a zero test, the
scale and argument in each half of a distance test) must compile to one
hash-consed op, so a certificate printed and re-parsed, whose copies are
distinct objects, compiles like the built one.  The nodes a shape absorbs
are never compiled; the tree itself, and so every printed certificate, is
unchanged.  Each fused op decides every point its literal subtree decides,
with the same value.  Subterms whose operands are all rationals or
elements of one number field fold into one constant (never through
``theta`` or another stream), within :data:`MAX_CONST_BITS`.

The same op list is run in two modes:

* exact mode (``eval_exact``) produces an exact :data:`~gplab.realnum.value.Real`
  (rational / field element / interval stream), running every op once,
  in order.  Floors on exact values are decided exactly; floors on
  streams refine up to the precision budget.  A range test compares h
  with a and b exactly.

* dyadic mode evaluates over fixed-point intervals ``[lo, hi] * 2^-bits``
  with plain integer arithmetic.  It is the fast path for range scans: ops
  are computed on demand from an explicit stack with a per-point,
  per-precision memo, so a product whose left factor is exactly zero never
  evaluates its right factor, and an OR whose first operand is 1 never
  evaluates its second.  ``eval_indicator`` runs it once per point,
  at the least of 96, 192, 384, ... bits that holds 64 + 2 bits(n) (room
  for a product of two n-sized factors, such as 2n {n x}), and sends a
  point it leaves open straight to exact mode.  A second rung would not
  help where it matters: on a closed threshold that a value meets exactly
  (a cubic member on its plateau) every enclosure straddles the floor.
  A range test compares h's interval with a and b by integer
  cross-multiplication: 1 inside [a, b), 0 disjoint from it, and
  ``NeedBits`` when it straddles a or b.  So a huge h costs nothing,
  where the literal tree would have to decide ``theta * floor(Y)`` to its
  distance from an integer.

Constant enclosures are computed once per program and precision with
:func:`~gplab.realnum.fixed_enclosure`; irrational field elements use the
field's certified dyadic root bracket.  The interval kernels are the shared
ones of :mod:`gplab.realnum.fixed`.

Exact integer intermediate results stay exact in dyadic mode (their
endpoints coincide and carry no rounding), so indicator expressions always
evaluate to exact 0/1 once every floor is decided.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
_CONST, _VAR, _ADD, _SUB, _MUL, _POW, _FLOOR, _FRAC, _NINT, _DIST, _RANGE, _DIST_LT, _OR = range(13)
_ZERO = _RANGE  # a zero test on floor(Y) is _RANGE(Y; 0, 1)

_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_UNARY = {Floor: _FLOOR, Frac: _FRAC, Nint: _NINT, Dist: _DIST}
_TWO_OPERANDS = frozenset({_ADD, _SUB, _MUL, _DIST_LT, _OR})
_PREDICATES = frozenset({_RANGE, _DIST_LT, _OR})
_EXACT = (Fraction, FieldElement)

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


# -- the compiled shapes ---------------------------------------------------------
#
# A pattern is a tuple (node type, child patterns...); a str, the variable
# that binds the subtree there (an operand); a _Scaled, the argument of a
# zero test; a _Factors, the variable that binds the factors of a product; a
# Fraction, a rational constant of that value; THETA, the constant theta; a
# list of alternative patterns, each with its own node type; or a _Shared
# pattern, one that occurs twice, where the builders share one subtree.


class _Scaled(str):
    """The argument Y of a zero test: ``indicator_of_range``'s ``(h - a) * c``
    with rationals a and c > 0 binds h, and a and c to their values, and
    any other Y binds this variable."""


class _Shared:
    """A pattern that occurs twice in its shape: a subtree the builders share
    between both places is matched once."""

    __slots__ = ("pat",)

    def __init__(self, pat):
        self.pat = pat


class _Factors(str):
    """A variable bound to the factors of a product, in order, however it
    associates: the printer writes ``p * (u * v)`` as ``p * u * v``, which
    parses as ``(p * u) * v``."""


_ONE, _NIL = Fraction(1), Fraction(0)


def _frac_pat(m):
    """frac(m), as parsed or as the builders write it, m - floor(m)."""
    m = _Shared(m)
    return [(Frac, m), (Sub, m, (Floor, m))]


def _zero_pat(y):
    """[floor(y) = 0], written floor(1 - frac(theta * floor(y)))."""
    return (Floor, (Sub, _ONE, _frac_pat((Mul, THETA, (Floor, y)))))


def _unit_range_pat(h):
    """[0 <= h < 1], as ``indicator_of_range(h, 0, 1)`` writes it."""
    return _zero_pat((Mul, (Sub, h, _NIL), _ONE))


def _or_pat(p, q):
    """p + q - p q."""
    p, q = _Shared(p), _Shared(q)
    return (Sub, (Add, p, q), (Mul, p, q))


def _range_key(v: dict, *_):
    if "y" in v:
        return None if "h" in v else (_RANGE, v["y"], (0, 1, 1, 1))  # copies of Y differ in shape
    a, c = v["a"], v["c"]
    an, ad, cn, cd = a.numerator, a.denominator, c.numerator, c.denominator
    bn, bd = an * cn + cd * ad, ad * cn  # b = a + 1/c
    g = gcd(bn, bd)
    return (_RANGE, v["h"], (an, ad, bn // g, bd // g))


def _or_key(v: dict, is_pred, factors):
    p, q = v["p"], v["q"]
    if is_pred(p) and is_pred(q) and v["pq"] == factors(p) + factors(q):
        return (_OR, p, q)
    return None


# per node type, (pattern, key from the bound variables, the test of whether
# an operand is 0/1-valued and the factors of an operand) in the order they
# are tried; a key of None falls through to the next
_FUSIONS = {
    Floor: ((_zero_pat(_Scaled("y")), _range_key),),
    Sub: (
        (
            _or_pat(
                _unit_range_pat((Mul, "s", _frac_pat("x"))),
                _unit_range_pat((Mul, "s", (Sub, _ONE, _frac_pat("x")))),
            ),
            lambda v, *_: (_DIST_LT, v["s"], v["x"]),
        ),
        ((Sub, (Add, "p", "q"), _Factors("pq")), _or_key),
    ),
}


def _match(pat, node: Expr, binds: list, seen: set) -> bool:
    """Whether ``node`` has the shape ``pat``; appends (variable, subtree or
    a rational's value) to ``binds`` for each variable it meets.  A shared
    pattern meets a shared subtree once (``seen``), and there is nothing to
    undo: alternatives differ in their node type, so the first that fits is
    the only one that can."""
    tp = type(pat)
    if tp is tuple:
        if type(node) is not pat[0]:
            return False
        if len(pat) == 2:
            return _match(pat[1], node.arg, binds, seen)
        return _match(pat[1], node.left, binds, seen) and _match(pat[2], node.right, binds, seen)
    if tp is _Shared:
        k = (id(pat), id(node))
        if k in seen:
            return True
        seen.add(k)
        return _match(pat.pat, node, binds, seen)
    if tp is str:
        binds.append((pat, node))
        return True
    if tp is _Factors:
        if type(node) is not Mul:
            return False
        todo = [node]
        while todo:
            m = todo.pop()
            if type(m) is Mul:
                todo += (m.right, m.left)
            else:
                binds.append((pat, m))
        return True
    if tp is _Scaled:
        s, c = (node.left, node.right) if type(node) is Mul else (None, None)
        if (
            type(s) is Sub
            and type(s.right) is RationalConst
            and type(c) is RationalConst
            and c.value.numerator > 0
        ):
            binds += (("h", s.left), ("a", s.right.value), ("c", c.value))
        else:
            binds.append((pat, node))
        return True
    if tp is Fraction:
        return type(node) is RationalConst and node.value == pat
    if tp is list:
        for alt in pat:
            if type(node) is alt[0]:
                return _match(alt, node, binds, seen)
        return False
    return type(node) is Const and node.value is pat  # THETA


def _fuse(node: Expr, index: dict, plans: dict, is_pred, factors):
    """The key of the first shape ``node`` compiles to; or the operands a
    matching shape still needs compiled, as a list, with the match kept in
    ``plans`` for the node's next visit; or None."""
    fusions = _FUSIONS[type(node)]
    j, binds = plans.pop(id(node), (0, None))
    while j < len(fusions):
        pattern, key_of = fusions[j]
        if binds is None:
            binds = []
            if not _match(pattern, node, binds, set()):
                j, binds = j + 1, None
                continue
        pending = [x for _, x in binds if isinstance(x, Expr) and id(x) not in index]
        if pending:
            plans[id(node)] = (j, binds)
            return pending
        bound: dict = {}
        for name, x in binds:
            if isinstance(x, Expr):
                x = index[id(x)]  # its op
            if type(name) is _Factors:
                bound[name] = bound.get(name, ()) + (x,)
            elif bound.setdefault(name, x) != x:
                break  # two copies of an operand differ
        else:
            key = key_of(bound, is_pred, factors)
            if key is not None:
                return key
        j, binds = j + 1, None
    return None


# -- exact mode, one op -----------------------------------------------------------

def _in_range(v: Real, lo: Fraction, hi: Fraction, max_bits: int) -> bool:
    return compare(v, lo, max_bits) >= 0 and compare(v, hi, max_bits) < 0


def _exact(code: int, x: Real, y, max_bits: int) -> Real:
    """One op in exact mode, on its first operand's value x and its second
    operand's value y (the exponent of a _POW, the bounds of a _RANGE)."""
    if code == _ADD:
        return radd(x, y)
    if code == _SUB:
        return rsub(x, y)
    if code == _MUL:
        return rmul(x, y)
    if code == _POW:
        return rpow(x, y)
    if code == _FLOOR:
        return Fraction(floor_frac(x, max_bits)[0])
    if code == _FRAC:
        return frac_of(x, max_bits)
    if code == _NINT:
        return Fraction(nint_of(x, max_bits))
    if code == _DIST:
        return dist_of(x, max_bits)
    if code == _RANGE:
        return Fraction(_in_range(x, Fraction(y[0], y[1]), Fraction(y[2], y[3]), max_bits))
    if code == _OR:
        return x if x == 1 else y
    # _DIST_LT, x the scale and y the argument
    if is_exact_zero(x):
        return _ONE
    f = frac_of(y, max_bits)
    return Fraction(
        _in_range(rmul(x, f), _NIL, _ONE, max_bits)
        or _in_range(rmul(x, rsub(_ONE, f)), _NIL, _ONE, max_bits)
    )


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
    v = _exact(code, x, y, DEFAULT_MAX_BITS)
    return v if type(v) in _EXACT else None


# -- dyadic mode, the two range tests of a distance threshold -------------------

def _in_unit(v: tuple[int, int], one: int) -> bool:
    """[0 <= x < 1] for x in ``v * 2^-bits``, one = 2^bits; NeedBits if v straddles 0 or 1."""
    if v[0] >= 0 and v[1] < one:
        return True
    if v[1] < 0 or v[0] >= one:
        return False
    raise NeedBits


class Program:
    """An expression compiled to a hash-consed, topologically ordered op list.

    Ops are keyed on ``(opcode, operand indices)`` plus the exponent, the
    bounds or the constant (compared by value; interval streams by
    identity), never on the tree's own recursive hash.  The last op is the
    root.  The program also caches the dyadic enclosures of its constants,
    per precision.
    """

    __slots__ = ("ops", "consts", "_var", "_templates")

    def __init__(self, e: Expr):
        self._var = -1  # index of the variable's op, if any
        ops: list[tuple] = []
        consts: list[Real] = []
        keys: dict[tuple, int] = {}  # also an op on constants -> the op of its folded value
        index: dict[int, int] = {}  # id(node) -> op; nodes live as long as e
        plans: dict[int, tuple] = {}  # id(node) -> a match awaiting its operands
        folded = False

        def rational(i: int) -> Fraction | None:
            v = consts[ops[i][1]] if ops[i][0] == _CONST else None
            return v if type(v) is Fraction else None

        def is_pred(i: int) -> bool:
            """Whether op i is 0/1-valued: a predicate, a rational 0 or 1, or a
            product or ``1 -`` of such."""
            todo, seen = [i], set()
            while todo:
                i = todo.pop()
                if i in seen:
                    continue
                seen.add(i)
                code, a, b = ops[i]
                if code == _MUL:
                    todo += (a, b)
                elif code == _SUB and rational(a) == 1:
                    todo.append(b)
                elif code not in _PREDICATES and rational(i) not in (0, 1):
                    return False
            return True

        def factors(i: int) -> tuple:
            """The factors of a product op, in order."""
            out, todo = [], [i]
            while todo:
                i = todo.pop()
                if ops[i][0] == _MUL:
                    todo += (ops[i][2], ops[i][1])
                else:
                    out.append(i)
            return tuple(out)

        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            t = type(node)
            # every shape is floor(r - ...) with r rational, or a sum less a product
            if (t is Floor and type(node.arg) is Sub and type(node.arg.left) is RationalConst) or (
                t is Sub and type(node.left) is Add and type(node.right) is Mul
            ):
                key = _fuse(node, index, plans, is_pred, factors)
                if type(key) is list:
                    stack.extend(key)  # a shape's operands first
                    continue
            else:
                key = None
            if key is not None:
                pass  # the nodes the shape absorbs are never compiled
            elif t in _BINARY:
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
            if i is None:
                code, a, b = key
                two = code in _TWO_OPERANDS
                if code > _VAR and ops[a][0] == _CONST and (not two or ops[b][0] == _CONST):
                    v = _folded(code, consts[ops[a][1]], consts[ops[b][1]] if two else b)
                    if v is not None:  # an exact value: one constant
                        folded = True
                        fkey = (_CONST, type(v), v)
                        i = keys.get(fkey)
                        if i is None:
                            i = keys[fkey] = len(ops)
                            ops.append((_CONST, len(consts), 0))
                            consts.append(v)
                        keys[key] = i
                if i is None:
                    i = keys[key] = len(ops)
                    if code == _CONST:
                        ops.append((_CONST, len(consts), 0))
                        consts.append(b)
                    else:
                        ops.append(key)
                        if code == _VAR:
                            self._var = i
            index[id(node)] = i
        self.ops = ops
        self.consts = consts
        if folded:
            self._drop_unused(index[id(e)])
        self._templates: dict[int, list] = {}

    def _drop_unused(self, root: int) -> None:
        """Keep the ops the root uses, in order: the operands of a folded
        subterm are compiled before it folds."""
        ops = self.ops
        self._var = -1
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
                self._var = new[i]
            else:
                kept.append((code, new[a], new[b] if code in _TWO_OPERANDS else b))
        self.ops, self.consts = kept, consts

    # -- dyadic mode ----------------------------------------------------------
    def _template(self, bits: int) -> list:
        """Per-op memo for one point at ``bits``, constants filled in."""
        tpl = self._templates.get(bits)
        if tpl is None:
            tpl = [None] * len(self.ops)
            for i, (code, a, _) in enumerate(self.ops):
                if code == _CONST:
                    tpl[i] = fixed_enclosure(self.consts[a], bits)
            self._templates[bits] = tpl
        return tpl

    def eval_dyadic(self, n: int, bits: int) -> tuple[int, int]:
        """Interval ``[lo, hi] * 2^-bits`` holding the value at n.

        Raises ``NeedBits`` when a floor it needs is undecided at ``bits``.
        """
        ops = self.ops
        val = self._template(bits).copy()
        root = len(ops) - 1
        if self._var >= 0:
            v = n << bits
            val[self._var] = (v, v)
        if val[root] is not None:
            return val[root]
        one = 1 << bits
        stack = [root]
        while stack:
            i = stack[-1]
            code, a, b = ops[i]
            if code == _POW and b == 0:
                val[i] = (one, one)
                stack.pop()
                continue
            x = val[a]
            if x is None:
                stack.append(a)
                continue
            if code == _MUL:
                if x[0] == 0 and x[1] == 0:
                    out = x
                else:
                    y = val[b]
                    if y is None:
                        stack.append(b)
                        continue
                    out = mul_iv(x, y, bits)
            elif code == _ADD or code == _SUB:
                y = val[b]
                if y is None:
                    stack.append(b)
                    continue
                if code == _ADD:
                    out = (x[0] + y[0], x[1] + y[1])
                else:
                    out = (x[0] - y[1], x[1] - y[0])
            elif code == _RANGE:  # [a <= h < b] by cross-multiplication, no rounding
                an, ad, bn, bd = b
                if x[0] * ad >= an << bits and x[1] * bd < bn << bits:
                    out = (one, one)
                elif x[1] * ad < an << bits or x[0] * bd >= bn << bits:
                    out = (0, 0)
                else:
                    raise NeedBits
            elif code == _FLOOR:
                v = floor_iv(x, bits) << bits
                out = (v, v)
            elif code == _DIST_LT:  # x is the scale s
                if x[0] == 0 and x[1] == 0:
                    out = (one, one)
                else:
                    y = val[b]
                    if y is None:
                        stack.append(b)
                        continue
                    f = floor_iv(y, bits) << bits
                    f = (y[0] - f, y[1] - f)
                    if _in_unit(mul_iv(x, f, bits), one) or _in_unit(
                        mul_iv(x, (one - f[1], one - f[0]), bits), one
                    ):
                        out = (one, one)
                    else:
                        out = (0, 0)
            elif code == _OR:
                if x[0] == one:
                    out = x
                else:
                    y = val[b]
                    if y is None:
                        stack.append(b)
                        continue
                    out = y
            elif code == _NINT:
                half = 1 << (bits - 1)
                v = floor_iv((x[0] + half, x[1] + half), bits) << bits
                out = (v, v)
            elif code == _FRAC:
                f = floor_iv(x, bits) << bits
                out = (x[0] - f, x[1] - f)
            elif code == _DIST:
                out = dist_iv(x, bits)
            else:  # _POW, by squaring over the exponent's bits
                out = x
                for bit in bin(b)[3:]:
                    out = mul_iv(out, out, bits)
                    if bit == "1":
                        out = mul_iv(out, x, bits)
            val[i] = out
            stack.pop()
        return val[root]

    # -- exact mode -------------------------------------------------------------
    def eval_exact(self, n: int, max_bits: int) -> Real:
        val: list[Real] = []
        consts = self.consts
        for code, a, b in self.ops:
            if code == _CONST:
                out = consts[a]
            elif code == _VAR:
                out = Fraction(n)
            else:
                out = _exact(code, val[a], val[b] if code in _TWO_OPERANDS else b, max_bits)
            val.append(out)
        return val[-1]


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


def _compiled(e: Expr) -> Program:
    """The program of ``e``: compiled on its first evaluation, then kept in
    the expression's own slot, so it lives exactly as long as ``e``."""
    try:
        return e._program
    except AttributeError:
        program = Program(e)
        object.__setattr__(e, "_program", program)  # Expr nodes are frozen
        return program


def eval_exact(e: Expr, n: int, max_bits: int = DEFAULT_MAX_BITS) -> Real:
    """Exact value of the expression at integer n (spec semantics)."""
    return _compiled(e).eval_exact(n, max_bits)


def _shown(v: int | Fraction) -> str:
    """A rational for an error message; one past 256 bits by its size, since
    Python will not print an integer of more than 4300 digits."""
    v = Fraction(v)
    num, den = v.numerator.bit_length(), v.denominator.bit_length()
    if max(num, den) <= 256:
        return str(v)
    return f"a {num}-bit integer" if den == 1 else f"a {num}-bit / {den}-bit fraction"


def eval_indicator(e: Expr, n: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Value of an indicator expression; raises NonBooleanValue outside {0,1}."""
    bits = _dyadic_bits(n, max_bits)
    try:
        lo, hi = _compiled(e).eval_dyadic(n, bits)
    except NeedBits:
        pass  # a floor its enclosure straddles: exact mode decides
    else:
        if lo == hi and lo % (1 << bits) == 0:
            val = lo >> bits
            if val not in (0, 1):
                raise NonBooleanValue(f"indicator value {_shown(val)} at n={n}", n=n, value=val)
            return val
        # non-point result: the expression did not collapse to an integer
        if hi < 0 or lo > (1 << bits):
            raise NonBooleanValue("indicator outside {0,1}", n=n, value=(lo, hi))
    try:
        value = eval_exact(e, n, max_bits)
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


def members(
    e: Expr,
    lo: int,
    hi: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> list[int]:
    """All n in [lo, hi] where the indicator evaluates to 1, in order."""
    return [n for n in range(lo, hi + 1) if eval_indicator(e, n, max_bits) == 1]


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
