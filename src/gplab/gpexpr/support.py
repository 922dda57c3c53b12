"""Where an indicator can be nonzero: a support analysis of its compiled program.

The paper's indicators are sparse: the Fibonacci and quadratic-unit sets
hold O(log N) points of [1, N].  :func:`members` therefore decides only the
points :func:`proposals` names, each through the one window scan
:func:`~gplab.gpexpr.evaluate.members_in`.  The proposals hold every point
where the indicator is nonzero, so the members are those of a scan of every
point.

The proposals are read off the op list of the expression's
:class:`~gplab.gpexpr.evaluate.Program`, once per program, by an abstract
interpretation (Cousot and Cousot, POPL 1977) whose abstract values are
proposal sets in a variable v: ``n`` itself or, inside a pull-back, an op
``nint(u n)``.  The rules, from the root down:

* Legendre walk.  ``_DIST_LT(k v, c v)`` with a rational k >= 2, and
  ``_RANGE(k v F(c v); lo, hi)`` with F the fractional part (``frac`` or
  ``M - floor(M)``) or ``dist``, hi > 0 and k >= 2 hi, where c is an
  irrational quadratic constant.  A member v >= 1 has ||v c|| < 1/(2v), so
  it is one of the points :class:`_Walk` proposes; every v <= 0 is proposed.
* Product: the support of one factor, the first that has one.
* ``p + q - p q`` (``ind_or``): the union of the two supports.
* Pull-back: a product of ``_DIST_LT(s, u v)`` with a factor p, where s
  and u are exact constants with s |u| >= 2, decided exactly, and the
  program has the op ``nint(u v)``.  A member has ||u v|| < 1/s <= |u|/2,
  so v = nint(r/u) for r = nint(u v), and r is in p's support in the
  variable ``nint(u v)`` (:class:`_PullBack`).
* Anything else: every point.

Each rule's claim is pointwise: where the op is nonzero, v is one of its
proposals.  So each holds whatever else the op reads (a pull-back's p may
read v other than through ``nint(u v)``), and the analysis only ever
proposes more points than are nonzero, never fewer.  A rule nested deeper
than :data:`MAX_DEPTH` proposes every point, so the analysis recurses
only as deep as that.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ..cf import ContinuedFraction, legendre_candidates, quadratic_quotients
from ..realnum import DEFAULT_MAX_BITS, FieldElement, compare, fixed_enclosure, rmul
from .ast import Expr
from .evaluate import (
    _ADD,
    _CONST,
    _DIST,
    _DIST_LT,
    _EXACT,
    _FLOOR,
    _FRAC,
    _MUL,
    _NINT,
    _RANGE,
    _SUB,
    _VAR,
    _compiled,
    members_in,
)

#: rules nested deeper than this propose every point
MAX_DEPTH = 64

# a proposal set on [lo, hi]: whole intervals (a, b), every point of each
# proposed, and an increasing list of single points, all inside [lo, hi]
_Proposal = tuple[list[tuple[int, int]], list[int]]


class _Every:
    """Every point: what an op no rule reads proposes."""

    __slots__ = ()

    def propose(self, lo: int, hi: int) -> _Proposal:
        return [(lo, hi)], []


_EVERY = _Every()


def _half_over_n(g: int, p: int, q: int, a_next: int) -> bool:
    return 2 * g * g < a_next + 2


class _Walk:
    """The candidates of {v >= 1 : ||v c|| < 1/(2v)}, and every v <= 0.

    A member v has |c - nint(v c)/v| < 1/(2 v^2), so it is g q_k
    (``cf.legendre_candidates``) with g d_k < 1/(2 g q_k), that is
    2 g^2 < 1/(q_k d_k), where d_k = |q_k c - p_k|.  Since
    d_k = 1/(q_k c_(k+1) + q_(k-1)) with c_(k+1) < a_(k+1) + 1 the complete
    quotient and q_(k-1) <= q_k, 1/(q_k d_k) = c_(k+1) + q_(k-1)/q_k <
    a_(k+1) + 2.  So every member is one of the O(log hi) points
    {g q_k : 2 g^2 < a_(k+1) + 2, q_k <= hi}.  They are kept as an
    increasing list, made by ``legendre_candidates`` up to a cover past the
    largest hi asked for, grown to at least its square whenever a window
    reaches past it, and read by bisection.  The walk runs over the
    quotients of c taken so far (``cf.quadratic_quotients``), as a finite
    continued fraction whose last denominator is past the cover, so it
    stops at a q_k past the cover, never at that last convergent, and c's
    period is never needed whole.
    """

    __slots__ = ("points", "_c", "_more", "_quotients", "_q", "_top")

    def __init__(self, c: FieldElement):
        self.points: list[int] = []
        self._c = c
        self._more = quadratic_quotients(c)
        self._quotients: list[int] = []
        self._q = (1, 0)  # (q_(k-1), q_k) for the quotients taken, from q_(-1) = 0, q_0 = 1
        self._top = 0  # points holds every candidate up to here

    def propose(self, lo: int, hi: int) -> _Proposal:
        if hi > self._top:
            top = self._top = max(hi, self._top * self._top)
            prev, q = self._q
            while q <= top:
                a = next(self._more)
                self._quotients.append(a)
                prev, q = q, a * q + prev
            self._q = prev, q
            prefix = ContinuedFraction(tuple(self._quotients), (), self._c)
            # q_0 = q_1 = 1 where a_1 = 1: a candidate can come twice
            self.points = sorted(set(legendre_candidates(prefix, 1, top, _half_over_n)))
        points = self.points
        wholes = [(lo, min(0, hi))] if lo <= 0 else []
        return wholes, points[bisect_left(points, lo) : bisect_right(points, hi)]


class _Union:
    """The union of two proposal sets."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        self.parts = parts

    def propose(self, lo: int, hi: int) -> _Proposal:
        wholes: list[tuple[int, int]] = []
        points: set[int] = set()
        for part in self.parts:
            w, p = part.propose(lo, hi)
            wholes += w
            points.update(p)
        return wholes, sorted(points)


class _PullBack:
    """m = nint(r/u) over the proposals r of ``inner`` between the ends
    nint(u lo) and nint(u hi), the r a member m of [lo, hi] can have.

    The ends and each nint(r/u) are read from integer enclosures of u and
    1/u, cached per precision, so a window costs integer work only: an
    enclosure that straddles a half-integer proposes both neighbours.  A
    whole interval of r proposes every m between its ends' images.
    """

    __slots__ = ("inner", "u", "inv_u", "_size", "_enclosures")

    def __init__(self, inner, u: Fraction | FieldElement):
        self.inner, self.u = inner, u
        self.inv_u = u.inverse() if type(u) is FieldElement else 1 / u
        self._size = max(max(map(abs, fixed_enclosure(t, 0))) for t in (u, self.inv_u)).bit_length()
        self._enclosures: dict[int, tuple] = {}

    def propose(self, lo: int, hi: int) -> _Proposal:
        bits = 64
        while bits < 32 + self._size + max(abs(lo), abs(hi)).bit_length():
            bits *= 2
        encl = self._enclosures.get(bits)
        if encl is None:
            encl = self._enclosures[bits] = (
                fixed_enclosure(self.u, bits),
                fixed_enclosure(self.inv_u, bits),
            )
        (ul, uh), (il, ih) = encl
        half = 1 << (bits - 1)

        def near(x: int, y: int, ends: tuple) -> tuple[int, int]:
            """nint's least and greatest value on x t and y t, t in ends."""
            l, h = ends
            vals = (x * l, x * h, y * l, y * h)
            return (min(vals) + half) >> bits, (max(vals) + half) >> bits

        wholes_r, points_r = self.inner.propose(*near(lo, hi, (ul, uh)))
        points: set[int] = set()
        for r in points_r:
            a, b = near(r, r, (il, ih))
            points.update(range(max(a, lo), min(b, hi) + 1))
        wholes = []
        for x, y in wholes_r:
            a, b = near(x, y, (il, ih))
            if max(a, lo) <= min(b, hi):
                wholes.append((max(a, lo), min(b, hi)))
        return wholes, sorted(points)


class _Analysis:
    """The rules of the module docstring on one program's ops, each op and
    variable analysed once."""

    def __init__(self, ops: tuple, consts: tuple):
        self.ops, self.consts = ops, consts
        self.nints = {a: i for i, (code, a, _) in enumerate(self.ops) if code == _NINT}
        self.walks: dict[FieldElement, _Walk] = {}
        self.memo: dict[tuple[int, int], object] = {}

    def support(self, i: int, v: int, depth: int = 0):
        """The proposals of op i in the variable op v."""
        s = self.memo.get((i, v))
        if s is None:
            s = self.memo[i, v] = self._rule(i, v, depth) if depth < MAX_DEPTH else _EVERY
        return s

    def _rule(self, i: int, v: int, depth: int):
        ops = self.ops
        code, a, b = ops[i]
        if code == _DIST_LT:
            k, c = self._times_v(a, v), self._quadratic(b, v)
            if type(k) is Fraction and k >= 2 and c is not None:
                return self._walk(c)
        elif code == _RANGE:
            hi = Fraction(b[2], b[3])
            kc = self._frac_product(a, v)
            if kc is not None and hi > 0 and kc[0] >= 2 * hi:
                return self._walk(kc[1])
        elif code == _MUL:
            s = self._pull_back(a, b, v, depth) or self._pull_back(b, a, v, depth)
            if s is not None:
                return s
            s = self.support(a, v, depth + 1)
            return s if s is not _EVERY else self.support(b, v, depth + 1)
        elif code == _SUB and ops[a][0] == _ADD:  # p + q - p q
            _, p, q = ops[a]
            if ops[b] in ((_MUL, p, q), (_MUL, q, p)):
                sp, sq = self.support(p, v, depth + 1), self.support(q, v, depth + 1)
                if sp is not _EVERY and sq is not _EVERY:
                    return _Union(sp, sq)
        return _EVERY

    def _const(self, i: int):
        """The exact value of op i where it is a constant, else None."""
        code, a, _ = self.ops[i]
        v = self.consts[a] if code == _CONST else None
        return v if type(v) in _EXACT else None

    def _times_v(self, i: int, v: int):
        """t where op i is t v or v t for an exact constant t, else None."""
        code, a, b = self.ops[i]
        if code != _MUL or v not in (a, b):
            return None
        return self._const(b if a == v else a)

    def _quadratic(self, i: int, v: int) -> FieldElement | None:
        """c where op i is c v for an irrational quadratic constant c."""
        c = self._times_v(i, v)
        if type(c) is FieldElement and c.field.degree == 2 and not c.is_rational():
            return c
        return None

    def _frac_product(self, i: int, v: int) -> tuple[Fraction, FieldElement] | None:
        """(k, c) where op i is a product of rationals (k their product), one
        v and one F(c v), F a fractional part or a distance."""
        k, vs, found = Fraction(1), 0, None
        stack = [i]
        while stack:
            j = stack.pop()
            code, a, b = self.ops[j]
            x = self._const(j)
            # M where op j is dist(M), frac(M) or M - floor(M)
            m = a if code in (_DIST, _FRAC) or code == _SUB and self.ops[b] == (_FLOOR, a, 0) else None
            if code == _MUL:
                stack += [a, b]
            elif type(x) is Fraction:
                k *= x
            elif j == v:
                vs += 1
            elif m is not None and found is None:
                found = self._quadratic(m, v)
                if found is None:
                    return None
            else:
                return None
        return (k, found) if vs == 1 and found is not None else None

    def _pull_back(self, p: int, q: int, v: int, depth: int):
        """The pull-back of p's support through q = _DIST_LT(s, u v), or None."""
        code, s_op, x = self.ops[q]
        if code != _DIST_LT:
            return None
        s, u, w = self._const(s_op), self._times_v(x, v), self.nints.get(x)
        if s is None or u is None or w is None:
            return None
        bound = rmul(s, u.abs() if type(u) is FieldElement else abs(u))
        if type(bound) not in _EXACT or compare(bound, Fraction(2), DEFAULT_MAX_BITS) < 0:
            return None
        inner = self.support(p, w, depth + 1)
        return None if inner is _EVERY else _PullBack(inner, u)

    def _walk(self, c: FieldElement) -> _Walk:
        walk = self.walks.get(c)
        if walk is None:
            walk = self.walks[c] = _Walk(c)
        return walk


@lru_cache(maxsize=256)
def _analysis(ops: tuple, consts: tuple):
    """The proposals of a program's root, analysed once per process for
    every program of these ops and constants (the 256 most recent), so the
    certificates of repeated builds share their walks and enclosures."""
    var = next((i for i, (code, _, _) in enumerate(ops) if code == _VAR), None)
    return _EVERY if var is None else _Analysis(ops, consts).support(len(ops) - 1, var)


def _support(e: Expr):
    """The analysis of e's program, made on its first proposal and kept in
    the program's ``_support`` slot."""
    program = _compiled(e)
    s = program._support
    if s is None:
        s = program._support = _analysis(tuple(program.ops), tuple(program.consts))
    return s


def proposals(e: Expr, lo: int, hi: int) -> list[Sequence[int]]:
    """The points of [lo, hi] the indicator may be nonzero at, as increasing
    pieces in increasing order: a ``range`` for each run proposed whole and
    a list of the single points between them."""
    if lo > hi:
        return []
    wholes, points = _support(e).propose(lo, hi)
    pieces: list[Sequence[int]] = []
    at = lo  # every point below is in a piece
    for a, b in sorted(wholes):
        if b < at:
            continue
        a = max(a, at)
        single = points[bisect_left(points, at) : bisect_left(points, a)]
        if single:
            pieces.append(single)
        pieces.append(range(a, b + 1))
        at = b + 1
    single = points[bisect_left(points, at) :]
    if single:
        pieces.append(single)
    return pieces


def members(e: Expr, lo: int, hi: int, max_bits: int = DEFAULT_MAX_BITS) -> list[int]:
    """All n in [lo, hi] where the indicator evaluates to 1, in order: the
    :func:`proposals`, each piece decided in one ``members_in`` scan."""
    return [n for piece in proposals(e, lo, hi) for n in members_in(e, piece, max_bits)]
