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

Every node compiles bottom up to its literal op; the shapes are read at
emit time from the ops already compiled for a new ``floor`` or ``-``
node's operands.  The copies of an operand (the two ``M`` of a zero test,
the scale and argument in each half of a distance test) are copies
exactly when they are one hash-consed op, so a certificate printed and
re-parsed, whose copies are distinct objects, compiles like the built one.
The ops a shape absorbs are compiled first and dropped once the program
is complete, unless another op uses them; the tree itself, and so every
printed certificate, is unchanged.  Each fused op decides every point its
literal subtree decides, with the same value.  Subterms whose operands are
all rationals or elements of one number field fold into one constant
(never through ``theta`` or another stream), within
:data:`MAX_CONST_BITS`.

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

_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_UNARY = {Floor: _FLOOR, Frac: _FRAC, Nint: _NINT, Dist: _DIST}
_TWO_OPERANDS = frozenset({_ADD, _SUB, _MUL, _DIST_LT, _OR})
_PREDICATES = frozenset({_RANGE, _DIST_LT, _OR})
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
    root.  One bottom-up loop compiles every node as its literal op, except
    that a new ``_FLOOR`` or ``_SUB`` whose operands' ops have a
    predicate's shape becomes that predicate (:meth:`_fused`), and an op on
    constants becomes its folded value.  The ops they absorb are compiled
    first and dropped at the end unless something else uses them.  The
    program also caches the dyadic enclosures of its constants, per
    precision.
    """

    __slots__ = ("ops", "consts", "_var", "_templates")

    def __init__(self, e: Expr):
        self._var = -1  # index of the variable's op, if any
        self.ops: list[tuple] = []
        self.consts: list[Real] = []
        self._templates: dict[int, list] = {}
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
            if code == _VAR:
                self._var = i
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

    def _is_pred(self, i: int) -> bool:
        """Whether op i is 0/1-valued: a predicate, a rational 0 or 1, or a
        product or ``1 -`` of such."""
        todo, seen = [i], set()
        while todo:
            i = todo.pop()
            if i in seen:
                continue
            seen.add(i)
            code, a, b = self.ops[i]
            if code == _MUL:
                todo += (a, b)
            elif code == _SUB and self._rational(a) == 1:
                todo.append(b)
            elif code not in _PREDICATES and self._rational(i) not in (0, 1):
                return False
        return True

    def _factors(self, i: int) -> tuple:
        """The factors of a product op, in order, however it associates: the
        printer writes ``p * (u * v)`` as ``p * u * v``, which parses as
        ``(p * u) * v``."""
        out, todo = [], [i]
        while todo:
            i = todo.pop()
            code, a, b = self.ops[i]
            if code == _MUL:
                todo += (b, a)
            else:
                out.append(i)
        return tuple(out)

    def _fused(self, code: int, a: int, b: int) -> tuple | None:
        """The predicate key of the new op ``(code, a, b)``, a _FLOOR or a
        _SUB, or None where its operands' ops have no predicate's shape.  Two
        copies of an operand (the two M of a zero test, s and x in both
        halves of a distance test) are equal exactly when they are one op,
        so a re-parsed certificate fuses like the built one."""
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
        add, p, q = ops[a]  # p + q - product
        if add != _ADD or ops[b][0] != _MUL:
            return None
        # dist_lt_scaled: [0 <= s f < 1] or [0 <= s (1 - f) < 1], f = frac(x)
        unit_ranges = ops[p][0] == ops[q][0] == _RANGE and ops[p][2] == ops[q][2] == _UNIT
        if unit_ranges and ops[b] == (_MUL, p, q):
            (m1, s, f), (m2, s2, g) = ops[ops[p][1]], ops[ops[q][1]]  # s f, s2 g
            one_less = m2 == _MUL and ops[g][0] == _SUB and self._rational(ops[g][1]) == 1
            if m1 == _MUL and s == s2 and one_less:
                x = self._frac_arg(f)
                if x is not None and x == self._frac_arg(ops[g][2]):
                    return (_DIST_LT, s, x)
        if self._is_pred(p) and self._is_pred(q):
            if self._factors(b) == self._factors(p) + self._factors(q):
                return (_OR, p, q)
        return None

    def _drop_unused(self, root: int) -> None:
        """Keep the ops the root uses, in order: the operands of a folded
        subterm, and the ops a predicate absorbs, are compiled before it."""
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
