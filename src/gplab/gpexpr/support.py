"""Where an indicator can be nonzero: a support analysis of its compiled program.

The paper's indicators are sparse: the Fibonacci, quadratic-unit, cubic
(Tribonacci-like) and very-sparse sets hold O(log N) points of [1, N].
:func:`members` therefore decides only the
points :func:`proposals` names, each through the one window scan
:func:`~gplab.gpexpr.evaluate.members_in`.  The proposals hold every point
where the indicator is nonzero, so the members are those of a scan of every
point.

The proposals are read off the op list of the expression's
:class:`~gplab.gpexpr.evaluate.Program`, once per program, by an abstract
interpretation (Cousot and Cousot, POPL 1977) whose abstract values are
proposal sets in a variable v: ``n`` itself or, inside a pull-back, an op
``nint(u n)``.  The rules, from the root down:

* Legendre walk.  ``_DIST_LT(k v, c v)`` with a rational k >= 2, where c
  is an irrational quadratic constant, and ``_RANGE(k v^m F(c v); lo, hi)``
  with F the fractional part (``frac`` or ``M - floor(M)``) or ``dist``,
  m >= 1, k > 0 and hi > 0, where c is such a constant or a rational (then
  with lo > 0).  A member v from a start on has ||v c|| < 1/(2v), so it is
  one of the points :class:`_Walk` proposes; every v below the start is
  proposed (:meth:`_Analysis._legendre`).
* Zero test.  ``floor(1 - F(theta (y - t)))``, theta the built-in
  ``THETA`` and t rational, is nonzero only where y = t when y is
  rational, so with y = k v^m F(c v) on a rational c it is the Legendre
  walk of t <= y <= t (:meth:`_Analysis._zero_test`).
* Lattice box.  ``_RANGE(C - (H G)^2; lo, hi)`` with exact lo >= 0 and
  C > 0, where H = (rho x1 + w x2)^2 + sigma x1^2 (either operand order)
  with x_j = theta_j v minus a ``nint`` or ``floor`` op, theta =
  (1/beta, 1/beta^2) for a cubic unit beta, sigma > 0 and w != 0, and
  G = m (v + sum_j c_j nint(u_j v)) with m > 0 and 1 + sum_j c_j u_j > 0.
  H is a squared planar norm of v theta minus a lattice point and |G|
  grows linearly, so a member v far enough from 0 has |v| among the box
  points of its slab that :class:`_Box` proposes (the proof is there);
  every v nearer 0 is proposed.
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
proposes more points than are nonzero, never fewer.  What a rule caches
(a walk's candidates, a pull-back's enclosures, a lattice box's slabs) is
kept with the analysis, which :func:`_analysis` shares among programs of
equal ops and constants.  A rule nested deeper
than :data:`MAX_DEPTH` proposes every point, so the analysis recurses
only as deep as that.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ..cf import (
    ContinuedFraction,
    RauzyNorm,
    SlabBoxes,
    legendre_candidates,
    quadratic_quotients,
    rational_quotients,
)
from ..errors import PreconditionError
from ..realnum import DEFAULT_MAX_BITS, THETA, FieldElement, ceil_root, compare, fixed_enclosure, rmul
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
    _POW,
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


class _Convergents:
    """The partial quotients of c, taken only as far as a window needs.

    ``upto(top)`` is the finite continued fraction of those taken so far,
    grown until its last denominator is past ``top`` or, for a rational, to
    c itself, so ``legendre_candidates`` on it stops at a q_k past ``top``
    or at c, and an irrational's period is never needed whole.
    """

    __slots__ = ("_source", "_more", "_quotients", "_q")

    def __init__(self, c: Fraction | FieldElement):
        self._source = c
        self._more = rational_quotients(c) if type(c) is Fraction else quadratic_quotients(c)
        self._quotients: list[int] = []
        self._q = (1, 0)  # (q_(k-1), q_k) for the quotients taken, from q_(-1) = 0, q_0 = 1

    def upto(self, top: int) -> ContinuedFraction:
        prev, q = self._q
        while q <= top and (a := next(self._more, None)) is not None:
            self._quotients.append(a)
            prev, q = q, a * q + prev
        self._q = prev, q
        return ContinuedFraction(tuple(self._quotients), (), self._source)


class _Walk:
    """Every v < start, and from start on the points g q_k with
    ``holds(g, p_k, q_k, a_(k+1))`` over c's convergents
    (``cf.legendre_candidates``): a Legendre rule's proposals
    (``_Analysis._legendre``).

    For an irrational quadratic c, ``holds`` is 2 g^2 < a_(k+1) + 2, which
    every v >= 1 with ||v c|| < 1/(2v) meets: such a v is g q_k with
    g d_k < 1/(2 g q_k), d_k = |q_k c - p_k|, that is 2 g^2 < 1/(q_k d_k),
    and since d_k = 1/(q_k c_(k+1) + q_(k-1)) with c_(k+1) < a_(k+1) + 1
    the complete quotient and q_(k-1) <= q_k, 1/(q_k d_k) = c_(k+1) +
    q_(k-1)/q_k < a_(k+1) + 2.  These O(log hi) points are kept as an
    increasing list, made up to a cover past the largest hi asked for,
    grown to at least its square whenever a window reaches past it, and
    read by bisection.  A rational c's bound admits ever more g at a small
    q_k, so there (not ``cached``) each window is walked on its own, with
    g from ceil(lo/q_k): one bound check per convergent up to hi at most.
    """

    __slots__ = ("start", "_convergents", "_holds", "_top", "_points")

    def __init__(self, convergents: _Convergents, holds, start: int, cached: bool):
        self.start, self._convergents, self._holds = start, convergents, holds
        self._top = 0 if cached else None  # _points holds every candidate up to here
        self._points: list[int] = []

    def propose(self, lo: int, hi: int) -> _Proposal:
        s = self.start
        wholes = [(lo, min(hi, s - 1))] if lo < s else []
        lo = max(lo, s)
        if lo > hi:
            return wholes, []
        if self._top is None:
            cf = self._convergents.upto(hi)
            return wholes, sorted(set(legendre_candidates(cf, lo, hi, self._holds)))
        if hi > self._top:
            top = self._top = max(hi, self._top * self._top)
            # q_0 = q_1 = 1 where a_1 = 1: a candidate can come twice
            cf = self._convergents.upto(top)
            self._points = sorted(set(legendre_candidates(cf, 1, top, self._holds)))
        points = self._points
        return wholes, points[bisect_left(points, lo) : bisect_right(points, hi)]


class _Box:
    """The lattice-box rule: the v whose |v| is a box point of its slab, and
    every v with |v| < start.

    The rule reads ``_RANGE(C - (H G)^2; lo, hi)`` with exact lo >= 0 and
    C > 0, where H = (rho x1 + w x2)^2 + sigma x1^2 with x_j = theta_j v
    minus an integer op (``nint`` or ``floor``), theta = (1/beta, 1/beta^2)
    for a cubic unit beta, sigma > 0 and w != 0, and
    G = m (v + sum_j c_j nint(u_j v)) with m > 0 and K = 1 + sum_j c_j u_j
    > 0.  H is N(v theta - p)^2 for the integers p the x_j subtract, N the
    planar norm |u x1 + w x2| with Re(u) = rho and Im(u)^2 = sigma
    (``cf.RauzyNorm``).

    Claim: with L = sum_j |c_j|/2, a member v with |v| >= start, the least
    v with K v > L, has N(|v| theta - p')^2 <= sqrt(C) / (m (K |v| - L))
    for an integer p', so |v| is a box point of its slab (``cf.SlabBoxes``).
    Proof: a member has (H G)^2 <= C - lo <= C.  As nint(u_j v) = u_j v +
    e_j with |e_j| <= 1/2, G = m (K v + sum_j c_j e_j), so |G| >= m (K |v| -
    L) > 0, and H = |H G| / |G| <= sqrt(C) / (m (K |v| - L)); H is
    N(|v| theta - p')^2 with p' = p sign(v), as N(-x) = N(x).  On a slab
    [q_a, R_(i+1)], q_a = max(R_i, start), that bound is largest at q_a, so
    the radius is taken there.  K, L and sqrt(C)/m are enclosed at 2^-64,
    where K > 0 and m > 0 are shown and start is the least v with K v > L.
    Every v with |v| < start is proposed whole, as is every v below the
    first slab ``SlabBoxes`` enumerates (R_2) and every v past a recurrence
    term that decreases.  ``RauzyNorm`` refuses sigma <= 0 and w = 0, and
    ``SlabBoxes`` any theta but a cubic unit's.

    Each slab's box is computed once, when a window first meets it, at the
    precision of its top (64 + 2 R_(i+1).bit_length() bits, rounded up to a
    multiple of 64), so a window's proposals do not depend on the windows
    asked before it; a window reads the boxes it meets by bisection.
    """

    __slots__ = ("slabs", "start", "_scale", "_k", "_l", "_boxes")

    def __init__(self, slabs: SlabBoxes, scale: int, k: int, l: int):
        self.slabs, self._scale, self._k, self._l = slabs, scale, k, l
        self.start = max(l // k + 1, slabs.terms[4], 2)  # terms[4] = R_2
        self._boxes: dict[int, list[int]] = {}

    def propose(self, lo: int, hi: int) -> _Proposal:
        s = self.start
        wholes = [(max(lo, 1 - s), min(hi, s - 1))] if lo < s and hi > -s else []
        neg_wholes, neg = self._side(max(-hi, s), -lo)
        pos_wholes, pos = self._side(max(lo, s), hi)
        wholes += [(-b, -a) for a, b in neg_wholes] + pos_wholes
        return wholes, [-q for q in reversed(neg)] + pos

    def _side(self, a: int, b: int) -> _Proposal:
        """The box points in [a, b], a >= start."""
        if a > b:
            return [], []
        try:
            R = self.slabs.grow(b)
        except PreconditionError:  # the terms decrease: no slab past them
            return [(a, b)], []
        points: list[int] = []
        i = bisect_left(R, a, 5) - 3  # the first slab i with R_(i+1) >= a
        while R[i + 2] <= b:
            box = self._box(i)
            at = max(a, points[-1] + 1) if points else a
            points += box[bisect_left(box, at) : bisect_right(box, b)]
            i += 1
        return [], points

    def _box(self, i: int) -> list[int]:
        box = self._boxes.get(i)
        if box is None:
            R = self.slabs.terms
            qa, qb = max(R[i + 2], self.start), R[i + 3]
            bits = -(-(64 + 2 * qb.bit_length()) // 64) * 64
            r_hi = -(-(self._scale << bits) // (qa * self._k - self._l))
            box = self._boxes[i] = self.slabs.box(i, qa, qb, bits, r_hi)
        return box


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
        self.expansions: dict[Fraction | FieldElement, _Convergents] = {}
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
                return self._walk(c, 1)
        elif code == _RANGE:
            lo, hi = Fraction(b[0], b[1]), Fraction(b[2], b[3])
            s = self._legendre(a, v, lo, hi, False) or self._lattice_box(a, lo, v)
            if s is not None:
                return s
        elif code == _FLOOR:
            yt = self._zero_test(i)
            s = self._legendre(yt[0], v, yt[1], yt[1], True) if yt is not None else None
            if s is not None:
                return s
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
        return next((t for t, x in self._scaled(i) if x == v), None)

    def _quadratic(self, i: int, v: int) -> FieldElement | None:
        """c where op i is c v for an irrational quadratic constant c."""
        c = self._times_v(i, v)
        if type(c) is FieldElement and c.field.degree == 2 and not c.is_rational():
            return c
        return None

    def _frac_arg(self, i: int) -> int | None:
        """M where op i is dist(M), frac(M) or M - floor(M)."""
        code, a, b = self.ops[i]
        return a if code in (_DIST, _FRAC) or code == _SUB and self.ops[b] == (_FLOOR, a, 0) else None

    def _frac_product(self, i: int, v: int) -> tuple | None:
        """(k, m, c) where op i is a product of rationals (k their product),
        v to the power m >= 1 in all and one F(c v), F a fractional part or a
        distance, c rational or an irrational quadratic."""
        k, m, found = Fraction(1), 0, None
        stack = [i]
        while stack:
            j = stack.pop()
            code, a, b = self.ops[j]
            x, f = self._const(j), self._frac_arg(j)
            if code == _MUL:
                stack += [a, b]
            elif type(x) is Fraction:
                k *= x
            elif j == v or code == _POW and a == v:
                m += 1 if j == v else b
            elif f is not None and found is None:
                found = self._times_v(f, v)
                if type(found) is not Fraction:
                    found = self._quadratic(f, v)
                if found is None:
                    return None
            else:
                return None
        return (k, m, found) if m >= 1 and found is not None else None

    def _legendre(self, i: int, v: int, lo: Fraction, hi: Fraction, closed: bool):
        """The Legendre rule for lo <= y < hi, or lo <= y <= hi where
        ``closed``, on op i = y = k v^m F(c v) (``_frac_product``), or None.

        Claim: a member v >= start, the least v >= 1 with 2 hi <= k v^(m-1)
        (2 hi < k v^(m-1) where closed), is one of the ``_Walk``'s points.
        Proof: F(c v) >= ||v c|| and k > 0, so ||v c|| <= y/(k v^m), below
        hi/(k v^m) <= 1/(2v), or where closed at most hi/(k v^m) < 1/(2v).
        So by Legendre's theorem v = g q_k with ||v c|| = g d_k, and for an
        irrational quadratic c the walk's bound holds.  For a rational
        c = r/s, d_k = |q_k r - p_k s|/s, so k g^(m+1) q_k^m |q_k r - p_k s|
        < hi s (<= where closed), decided in integers.  At c's last
        convergent d_k = 0: the multiples of s have F(c v) = 0, which
        lo > 0 excludes.  For m = 1 with k < 2 hi (k <= 2 hi where closed)
        there is no start.
        """
        shape = self._frac_product(i, v)
        if shape is None or hi <= 0 or shape[0] <= 0:
            return None
        (k, m, c), x = shape, 2 * hi / shape[0]
        least = math.floor(x) + 1 if closed else math.ceil(x)  # of v^(m-1)
        if m == 1 and least > 1:
            return None
        start = ceil_root(least, m - 1) if m > 1 else 1
        if type(c) is not Fraction:
            return None if closed else self._walk(c, start)
        if lo <= 0:
            return None
        r, s = c.numerator, c.denominator
        scale, bound = k.numerator * hi.denominator, hi.numerator * k.denominator * s

        def holds(g: int, p: int, q: int, _) -> bool:
            x = scale * g ** (m + 1) * q**m * abs(q * r - p * s)
            return x <= bound if closed else x < bound

        return self._walk(c, start, holds)

    def _zero_test(self, i: int) -> tuple[int, Fraction] | None:
        """(y, t) where op i is floor(1 - F(theta (y - t))), F a fractional
        part or a distance, theta the built-in ``THETA`` and t rational.

        Claim: where y is rational, the op is nonzero only where y = t.
        Proof: F(x) is in [0, 1) and 0 exactly at the integers, so the op is
        nonzero only where theta (y - t) is an integer, and as y - t is
        rational and theta irrational, that is only where y = t.  So
        ``_legendre`` reads the op as t <= y <= t, on a rational c only,
        where every constant y reads is rational.
        """
        sub, one, f = self.ops[self.ops[i][1]]
        x = self._frac_arg(f) if sub == _SUB and self._const(one) == 1 else None
        for th, d in self._operands(x, _MUL) if x is not None else ():
            code, a, t = self.ops[d]
            t = self._const(t) if code == _SUB else None
            if self.ops[th][0] == _CONST and self.consts[self.ops[th][1]] is THETA and type(t) is Fraction:
                return a, t
        return None

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

    def _operands(self, i: int, code: int) -> tuple:
        """Op i's operand pairs in both orders where it has ``code``."""
        c, a, b = self.ops[i]
        return ((a, b), (b, a)) if c == code else ()

    def _scaled(self, i: int) -> list:
        """(t, x) for each factor order of op i = t x, t an exact constant."""
        return [(t, x) for y, x in self._operands(i, _MUL) if (t := self._const(y)) is not None]

    def _square(self, i: int) -> int | None:
        """x where op i is x^2."""
        code, x, e = self.ops[i]
        return x if code == _POW and e == 2 else None

    def _offset(self, i: int, v: int):
        """t where op i is t v minus a ``nint`` or ``floor`` op."""
        code, a, b = self.ops[i]
        return self._times_v(a, v) if code == _SUB and self.ops[b][0] in (_NINT, _FLOOR) else None

    def _norm_sq(self, i: int, v: int) -> tuple | None:
        """((theta_1, theta_2), (rho, sigma, w)) where op i is
        (rho x1 + w x2)^2 + sigma x1^2, x_j = theta_j v minus an integer op."""
        for p, q in self._operands(i, _ADD):
            r = self._square(p)
            for sigma, x in self._scaled(q):
                x1 = self._square(x)
                if r is None or x1 is None:
                    continue
                for t1, t2 in self._operands(r, _ADD):
                    for rho, y1 in self._scaled(t1):
                        for w, x2 in self._scaled(t2):
                            theta = (self._offset(x1, v), self._offset(x2, v))
                            if y1 == x1 and None not in theta:
                                return theta, (rho, sigma, w)
        return None

    def _linear(self, i: int, v: int) -> tuple | None:
        """(m, [(c_j, u_j)]) where op i is m (v + sum_j c_j nint(u_j v))."""
        for m, s in self._scaled(i):
            terms, vs, stack = [], 0, [s]
            while stack:
                j = stack.pop()
                if self.ops[j][0] == _ADD:
                    stack += self.ops[j][1:]
                elif j == v:
                    vs += 1
                else:  # c nint(u v)
                    cu = [(c, self._times_v(self.ops[x][1], v)) for c, x in self._scaled(j)
                          if self.ops[x][0] == _NINT]
                    if not cu or cu[0][1] is None:
                        break
                    terms.append(cu[0])
            else:
                if vs == 1:
                    return m, terms
        return None

    def _lattice_box(self, i: int, lo: Fraction, v: int) -> _Box | None:
        """The lattice-box rule (``_Box``) for _RANGE(op i; lo, _), or None."""
        code, c_op, sq = self.ops[i]
        hg = self._square(sq) if code == _SUB and lo >= 0 else None
        for h, g in self._operands(hg, _MUL) if hg is not None else ():
            norm_sq, lin = self._norm_sq(h, v), self._linear(g, v)
            if norm_sq is None or lin is None or type(norm_sq[0][0]) is not FieldElement:
                continue
            (theta, norm), (m, terms) = norm_sq, lin
            fld = theta[0].field
            consts = [  # each in theta's field
                fld.from_rational(x) if type(x) is Fraction else x if x.field == fld else None
                for x in (self._const(c_op), *theta, *norm, m, *(x for t in terms for x in t))
            ]
            if None in consts or consts[0].sign() <= 0:
                continue
            c, th1, th2, rho, sigma, w, m, *cu = consts
            try:  # RauzyNorm refuses sigma <= 0 and w = 0, SlabBoxes any other theta
                slabs = SlabBoxes((th1, th2), RauzyNorm(rho, sigma, w))
            except PreconditionError:
                continue
            cs, us = cu[::2], cu[1::2]
            k = fixed_enclosure(sum((x * y for x, y in zip(cs, us)), fld.one()), 64)[0]
            l = -(-sum(max(map(abs, fixed_enclosure(x, 64))) for x in cs) // 2)
            m = fixed_enclosure(m, 64)[0]
            if k > 0 and m > 0:
                # sqrt(C)/m at 2^64, rounded up
                scale = -(-((math.isqrt(fixed_enclosure(c, 128)[1]) + 1) << 64) // m)
                return _Box(slabs, scale, k, l)
        return None

    def _walk(self, c: Fraction | FieldElement, start: int, holds=_half_over_n) -> _Walk:
        """c's walk with ``holds`` on c's one expansion, cached where c is
        irrational."""
        if c not in self.expansions:
            self.expansions[c] = _Convergents(c)
        return _Walk(self.expansions[c], holds, start, type(c) is not Fraction)


@lru_cache(maxsize=256)
def _analysis(ops: tuple, consts: tuple):
    """The proposals of a program's root, analysed once per process for
    every program of these ops and constants (the 256 most recent), so the
    certificates of repeated builds share their walks, enclosures and
    lattice boxes."""
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
