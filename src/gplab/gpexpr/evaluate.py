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
``floor``, ``frac``, ``nint``, ``dist`` and one compiled zero test.  Every
membership predicate of the indicator builders ends in the zero test
``floor(1 - frac(theta * floor(Y)))``, written ``Frac(M)`` or
``M - floor(M)`` with ``M = theta * floor(Y)``.  Since ``floor(Y)`` is an
integer and ``theta`` is irrational, this is ``[floor(Y) = 0]``, that is
``[0 <= Y < 1]``: it needs only the irrationality of ``theta``, never its
transcendence.  ``Program`` compiles that shape to one ``_ZERO`` op on Y,
matching the two copies of M by identity or by their hash-consed op, and
never compiles the rest of the subtree.  The tree itself, and so every
printed certificate, is unchanged.  A zero test on any other argument is
evaluated as written.

The same op list is run in two modes:

* exact mode (``eval_exact``) produces an exact :data:`~gplab.realnum.value.Real`
  (rational / field element / interval stream), computing each shared
  subterm once.  Floors on exact values are decided exactly; floors on
  streams refine up to the precision budget.  A zero test is
  ``floor(Y) == 0``.

* dyadic mode evaluates over fixed-point intervals ``[lo, hi] * 2^-bits``
  with plain integer arithmetic.  It is the fast path for range scans: ops
  are computed on demand from an explicit stack with a per-point,
  per-precision memo, so a product whose left factor is exactly zero never
  evaluates its right factor.  ``eval_indicator`` runs it once per point,
  at the least of 96, 192, 384, ... bits that holds 64 + 2 bits(n) (room
  for a product of two n-sized factors, such as 2n {n x}), and sends a
  point it leaves open straight to exact mode.  A second rung would not
  help where it matters: on a closed threshold that a value meets exactly
  (a cubic member on its plateau) every enclosure straddles the floor.
  A zero test reads Y's interval: 1 inside [0, 1), 0 disjoint from it,
  and ``NeedBits`` when it straddles 0 or 1.  So a huge Y costs nothing,
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

from ..errors import NonBooleanValue, PrecisionExhausted
from ..realnum import (
    DEFAULT_MAX_BITS,
    THETA,
    FieldElement,
    NeedBits,
    Real,
    dist_iv,
    dist_of,
    fixed_enclosure,
    floor_frac,
    floor_iv,
    frac_of,
    interval_of,  # noqa: F401  (bound here for perfbench's constant-enclosure probe)
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

# opcodes; an op is (opcode, a, b): child indices, or for _POW the base
# index and the exponent, for _CONST an index into Program.consts; _ZERO's
# one child is Y in [floor(Y) = 0]
_CONST, _VAR, _ADD, _SUB, _MUL, _POW, _FLOOR, _FRAC, _NINT, _DIST, _ZERO = range(11)

_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_UNARY = {Floor: _FLOOR, Frac: _FRAC, Nint: _NINT, Dist: _DIST}


def _theta_floor_arg(m: Expr) -> Expr | None:
    """Y when ``m`` is ``theta * floor(Y)``, else None."""
    if (
        type(m) is Mul
        and type(m.left) is Const
        and m.left.value is THETA
        and type(m.right) is Floor
    ):
        return m.right.arg
    return None


def _zero_test_args(node: Floor) -> tuple[Expr, Expr] | None:
    """(Y, Y') when ``node`` is ``floor(1 - frac(M))`` with M = theta * floor(Y),
    frac written ``Frac(M)`` (then Y' is Y) or ``M - floor(M')`` with
    M' = theta * floor(Y'); None for any other shape.

    The tree is [floor(Y) = 0] when Y' compiles to Y's op: floor(Y) is an
    integer k, and theta * k is irrational unless k = 0.
    """
    s = node.arg
    if type(s) is not Sub or type(s.left) is not RationalConst or s.left.value != 1:
        return None
    f = s.right
    if type(f) is Frac:
        m = m2 = f.arg
    elif type(f) is Sub and type(f.right) is Floor:
        m, m2 = f.left, f.right.arg
    else:
        return None
    y = _theta_floor_arg(m)
    y2 = y if m2 is m else _theta_floor_arg(m2)
    if y is None or y2 is None:
        return None
    return y, y2


class Program:
    """An expression compiled to a hash-consed, topologically ordered op list.

    Ops are keyed on ``(opcode, child indices)`` plus the exponent or the
    constant (compared by value; interval streams by identity), never on the
    tree's own recursive hash.  The last op is the root.  The program also
    caches the dyadic enclosures of its constants, per precision.
    """

    __slots__ = ("ops", "consts", "_var", "_templates")

    def __init__(self, e: Expr):
        self._var = -1  # index of the variable's op, if any
        ops: list[tuple[int, int, int]] = []
        consts: list[Real] = []
        keys: dict[tuple, int] = {}
        index: dict[int, int] = {}  # id(node) -> op; nodes live as long as e
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            t = type(node)
            ys = _zero_test_args(node) if t is Floor else None
            if ys is not None and (pending := [y for y in ys if id(y) not in index]):
                stack.extend(pending)
                continue
            if ys is not None and index[id(ys[0])] == index[id(ys[1])]:
                key = (_ZERO, index[id(ys[0])], 0)  # the rest of the tree is never compiled
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
                i = keys[key] = len(ops)
                if key[0] == _CONST:
                    ops.append((_CONST, len(consts), 0))
                    consts.append(key[2])
                else:
                    ops.append(key)
                    if key[0] == _VAR:
                        self._var = i
            index[id(node)] = i
        self.ops = ops
        self.consts = consts
        self._templates: dict[int, list] = {}

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
        stack = [root]
        while stack:
            i = stack[-1]
            code, a, b = ops[i]
            if code == _POW and b == 0:
                one = 1 << bits
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
            elif code == _FLOOR:
                v = floor_iv(x, bits) << bits
                out = (v, v)
            elif code == _NINT:
                half = 1 << (bits - 1)
                v = floor_iv((x[0] + half, x[1] + half), bits) << bits
                out = (v, v)
            elif code == _FRAC:
                f = floor_iv(x, bits) << bits
                out = (x[0] - f, x[1] - f)
            elif code == _DIST:
                out = dist_iv(x, bits)
            elif code == _ZERO:  # [0 <= Y < 1] from Y's interval
                one = 1 << bits
                if x[0] >= 0 and x[1] < one:
                    out = (one, one)
                elif x[1] < 0 or x[0] >= one:
                    out = (0, 0)
                else:
                    raise NeedBits
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
            elif code == _ADD:
                out = radd(val[a], val[b])
            elif code == _SUB:
                out = rsub(val[a], val[b])
            elif code == _MUL:
                out = rmul(val[a], val[b])
            elif code == _POW:
                out = rpow(val[a], b)
            elif code == _FLOOR:
                out = Fraction(floor_frac(val[a], max_bits)[0])
            elif code == _FRAC:
                out = frac_of(val[a], max_bits)
            elif code == _NINT:
                out = Fraction(nint_of(val[a], max_bits))
            elif code == _DIST:
                out = dist_of(val[a], max_bits)
            else:  # _ZERO
                out = Fraction(int(floor_frac(val[a], max_bits)[0] == 0))
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
