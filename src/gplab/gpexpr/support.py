"""Where an indicator can be nonzero: a support analysis of its compiled program.

The paper's indicators are sparse: the Fibonacci, quadratic-unit and
cubic (Tribonacci-like) sets hold O(log N) points of [1, N].  :func:`members` therefore decides only the
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
)
from ..errors import PreconditionError
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
            box = self._lattice_box(a, Fraction(b[0], b[1]), v)
            if box is not None:
                return box
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

    def _walk(self, c: FieldElement) -> _Walk:
        walk = self.walks.get(c)
        if walk is None:
            walk = self.walks[c] = _Walk(c)
        return walk


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
