"""Independent oracles used by the test suite.

Everything here is built from plain integer arithmetic (``math.isqrt``) and
``fractions.Fraction``, deliberately avoiding the package's own number-field
machinery, so expected values are computed along a second, independent path.
The exceptions are the exhaustive record and growth scans and the cubic
closed forms at the end: the scans are the package's exact decisions run at
every q or n, with no prefilter, the reference for the prefiltered scans in
``gplab.cf`` and ``gplab.nilorbit``; the closed forms are h(q)^2, g(q) and
the plateau test written out in field arithmetic, the reference for the
compiled cubic indicator; and ``eval_tree``, an expression's literal tree
evaluated node by node with the package's real-number operations, the
reference for the compiled program's fused predicates; and
``dyadic_reference``, the stack machine that ran a program's dyadic mode
before it was generated code, the reference for that code; and
``small_fp_squared``, the small-fp indicator with its distance term entering
through the squared offset x - nint(x), the reference for the builder that
tests ||x|| directly.

``REGISTRY_CASES`` is the one table of registry constructions and
parameters that the tests run every registry indicator on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import ceil, floor, gcd, isqrt

# every registry construction, with the parameters each reads
REGISTRY_CASES = [
    ("fibonacci", {"a": 1}),
    ("fibonacci", {"a": 2}),
    ("quadratic", {"a": 3, "norm": 1}),
    ("quadratic", {"a": 3, "norm": -1}),
    ("quadratic", {"a": 4, "norm": 1}),
    ("quadratic", {"a": 5, "norm": 1}),
    ("quadratic-filter", {"a": 4}),
    ("cubic", {"a": 1, "b": 1}),
    ("cubic", {"a": 2, "b": 1}),
    ("cubic", {"a": 2, "b": -1}),
    ("verysparse", {"sequence": (2, 128, 562949953421312), "C": 5, "D": 6}),
]


def case_id(name: str, params: dict) -> str:
    """A test id from a construction and its parameters alone, such as
    ``cubic-a=2,b=-1``."""
    return name + "-" + ",".join(f"{k}={v}".replace(" ", "") for k, v in params.items())


REGISTRY_IDS = [case_id(*case) for case in REGISTRY_CASES]


def floor_quadratic(p: Fraction, q: Fraction, d: int) -> int:
    """floor(p + q*sqrt(d)) for rationals p, q and a nonsquare integer d > 0."""
    p, q = Fraction(p), Fraction(q)
    if q == 0:
        return p.numerator // p.denominator
    c = p.denominator * q.denominator // gcd(p.denominator, q.denominator)
    a = p.numerator * (c // p.denominator)
    b = q.numerator * (c // q.denominator)
    # floor(b*sqrt(d)) for integer b != 0: b^2*d is not a perfect square
    if b > 0:
        fl = isqrt(b * b * d)
    else:
        fl = -isqrt(b * b * d) - 1
    # value*c lies strictly inside (a+fl, a+fl+1)
    return (a + fl) // c


def frac_quadratic(p: Fraction, q: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """{p + q sqrt d} returned as (p', q) with value p' + q*sqrt(d)."""
    return p - floor_quadratic(p, q, d), q


def quad_lt(p1: Fraction, q1: Fraction, d: int, r: Fraction) -> bool:
    """p1 + q1*sqrt(d) < r, exactly."""
    s = p1 - r  # want s + q1 sqrt d < 0
    if q1 == 0:
        return s < 0
    if q1 > 0:
        return s < 0 and s * s > q1 * q1 * d
    return s < 0 or s * s < q1 * q1 * d


def dist_quadratic_lt(p: Fraction, q: Fraction, d: int, r: Fraction) -> bool:
    """||p + q sqrt d|| < r, exactly; intended for irrational arguments."""
    fp, fq = frac_quadratic(Fraction(p), Fraction(q), d)
    return quad_lt(fp, fq, d, Fraction(r)) or not quad_lt(fp, fq, d, 1 - Fraction(r))


def fibonacci_upto(bound: int, a: int = 1) -> list[int]:
    """Terms of n0=0, n1=1, n_{i+2} = a n_{i+1} + n_i, up to bound."""
    out = [0, 1]
    while True:
        nxt = a * out[-1] + out[-2]
        if nxt > bound:
            return out
        out.append(nxt)


def first_finite_sums(target, r: int, bound: int, shifts=(0,), distinct: bool = True):
    """First (generators, shift) with every nonempty subset sum + shift in target.

    Plain enumeration in a depth-first search's order: shifts as given, then
    generator tuples lexicographically (distinct, or with repeats), total sum
    <= bound.  Only integers g >= 1 with g + shift in target are tried as
    generators, since each generator is itself one of the sums.
    """
    pick = combinations if distinct else combinations_with_replacement
    for shift in shifts:
        candidates = [g for g in range(1, bound + 1) if g + shift in target]
        for gens in pick(candidates, r):
            if sum(gens) <= bound and all(
                sum(sub) + shift in target for k in range(2, r + 1) for sub in combinations(gens, k)
            ):
                return gens, shift
    return None, None


def tribonacci_R(bound: int, a: int = 1, b: int = 1) -> list[int]:
    out = [1, a, a * a + b]
    while out[-1] <= bound:
        out.append(a * out[-1] + b * out[-2] + out[-3])
    return [t for t in out if t <= bound]


def cf_convergents(terms: list[int]) -> list[tuple[int, int]]:
    p0, q0 = 1, 0
    p1, q1 = terms[0], 1
    out = [(p1, q1)]
    for a in terms[1:]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out


def best_denominators_bruteforce(
    mult: Fraction, d: int, Q: int, offset: Fraction = Fraction(0)
) -> list[int]:
    """Best-approximation denominators of x = offset + mult*sqrt(d), q <= Q.

    Tracks the strictly decreasing records of ||q*x|| using exact surd
    comparisons only.
    """
    best: tuple[Fraction, Fraction] | None = None
    out = []
    for q in range(1, Q + 1):
        fp, fq = frac_quadratic(q * offset, q * mult, d)
        # distance = min(f, 1-f)
        if quad_lt(fp, fq, d, Fraction(1, 2)):
            cur = (fp, fq)
        else:
            cur = (1 - fp, -fq)
        if best is None or quad_lt(cur[0] - best[0], cur[1] - best[1], d, Fraction(0)):
            out.append(q)
            best = cur
    return out


def coprime(a: int, b: int) -> bool:
    return gcd(a, b) == 1


class FractionFieldRef:
    """Q[x]/(minpoly) on Fraction coordinates: the textbook reference arithmetic."""

    def __init__(self, minpoly: tuple[int, ...]):
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.degree = len(minpoly) - 1

    def reduce(self, prod: list[Fraction]) -> tuple[Fraction, ...]:
        prod = list(prod) + [Fraction(0)] * max(0, self.degree - len(prod))
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            for i in range(self.degree):
                prod[k - self.degree + i] -= c * self.minpoly[i]
        return tuple(prod[: self.degree])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self.reduce(prod)

    def inverse(self, a):
        """Solve a * v = 1 by Gaussian elimination on the multiplication matrix."""
        d = self.degree
        cols = [tuple(a)]
        for _ in range(d - 1):
            cols.append(self.reduce([Fraction(0)] + list(cols[-1])))
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for c in range(d):
            p = next(r for r in range(c, d) if rows[r][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(d):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return tuple(rows[i][d] / rows[i][i] for i in range(d))

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inverse(a), -e
        out = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)
        for _ in range(e):
            out = self.mul(out, a)
        return out


# ---------------------------------------------------------------------------
# Sturm root counts over Fraction: the reference for the integer count
# ---------------------------------------------------------------------------


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _fraction_trim(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fraction_rem(a, b) -> list[Fraction]:
    a, b = _fraction_trim(a), _fraction_trim(b)
    while len(a) >= len(b):
        k, f = len(a) - len(b), a[-1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= f * c
        a = _fraction_trim(a)
    return a


def sturm_count_fraction(p, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Distinct real roots of a squarefree p in (lo, hi]: the textbook Sturm
    chain p, p', -rem, ... on Fraction coefficients, ``None`` meaning -inf / +inf."""
    chain = [_fraction_trim(p), _fraction_trim(i * c for i, c in enumerate(p))[1:]]
    while len(chain[-1]) > 1:
        rem = _fraction_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x, plus_inf: bool) -> int:
        signs = []
        for q in chain:
            v = q[-1] * (1 if plus_inf or len(q) % 2 else -1) if x is None else poly_eval(q, x)
            if v:
                signs.append(v > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(lo, False) - variations(hi, True)


def irreducible_by_divisors(minpoly) -> bool:
    """A monic integer polynomial of degree 2 or 3 is reducible over Q
    exactly when it has an integer root, which divides the constant term."""
    cs = [int(c) for c in minpoly]
    c0 = abs(cs[0])
    return c0 != 0 and not any(
        poly_eval(cs, Fraction(r)) == 0 for d in range(1, c0 + 1) if c0 % d == 0 for r in (d, -d)
    )


def number_field_accepts(minpoly, lo, hi) -> bool:
    """The rule a NumberField applies to (minpoly, lo, hi), by divisor search
    and the Fraction Sturm count: a monic irreducible polynomial of degree 2
    or 3 with exactly one root in [lo, hi], neither end a root."""
    cs = [int(c) for c in minpoly]
    lo, hi = Fraction(lo), Fraction(hi)
    if len(cs) - 1 not in (2, 3) or cs[-1] != 1 or not lo < hi or not irreducible_by_divisors(cs):
        return False
    return sturm_count_fraction(cs, lo, hi) == 1 and poly_eval(cs, lo) * poly_eval(cs, hi) != 0


# ---------------------------------------------------------------------------
# exhaustive exact scans: every q or n decided by exact arithmetic
# ---------------------------------------------------------------------------


def best_approx_1d_exhaustive(x, Q: int, max_bits: int = 4096) -> list[tuple[int, int]]:
    """(q, p) of every best approximation with q <= Q: exact record scan."""
    from gplab.realnum import compare, dist_of, nint_of, rmul

    out = []
    best = None
    for q in range(1, Q + 1):
        qx = rmul(Fraction(q), x)
        d = dist_of(qx, max_bits)
        if best is None or compare(d, best, max_bits) < 0:
            out.append((q, nint_of(qx, max_bits)))
            best = d
    return out


def nearest_lattice_sq_exhaustive(norm, theta, q: int):
    """(N0^2, p): min over p in Z^2 of N(q theta - p)^2, every point of a provable window exact.

    The window comes from the exact distance of the nearest point, through
    rational enclosures at 2^-24 of sqrt(Im(u)^2), |v| and Re(u) x1; every
    point in it is compared in the field, the point nearest q theta first.
    """
    from gplab.realnum import interval_of

    th1, th2 = theta
    y1, y2 = th1 * q, th2 * q
    s = 1 << 24

    def sqrt_hi(x):
        return Fraction(isqrt(ceil(interval_of(x, 24)[1] * s * s)) + 1, s)

    im_lo = Fraction(isqrt(floor(interval_of(norm.im_u_sq, 24)[0] * s * s)), s)
    vlo, vhi = interval_of(norm.v, 24)
    v_abs_lo = vlo if vlo > 0 else -vhi
    assert v_abs_lo > 0
    c1, c2 = y1.nint(), y2.nint()
    best = norm.norm_sq(y1 - c1, y2 - c2)
    best_p = (c1, c2)
    bound_hi = sqrt_hi(best)
    r1 = bound_hi / im_lo
    lo1 = floor(interval_of(y1 - r1, 2)[0])
    hi1 = ceil(interval_of(y1 + r1, 2)[1])
    for p1 in range(lo1, hi1 + 1):
        x1 = y1 - p1
        # |v x2 + Re(u) x1| <= sqrt(N0^2) bounds x2 by an explicit rational window
        mlo, mhi = interval_of(norm.re_u * x1, 24)
        y2lo, y2hi = interval_of(y2, 24)
        reach = (bound_hi + max(abs(mlo), abs(mhi))) / v_abs_lo
        for p2 in range(floor(y2lo - reach), ceil(y2hi + reach) + 1):
            cand = norm.norm_sq(x1, y2 - p2)
            if cand.compare(best) < 0:
                best, best_p = cand, (p1, p2)
                bound_hi = sqrt_hi(best)
    return best, best_p


def best_approx_2d_exhaustive(theta, norm, Q: int) -> list[tuple[int, tuple[int, int], object]]:
    """(q, p, N0^2) of every planar record with q <= Q: the exact window search at every q."""
    out = []
    best_sq = None
    for q in range(1, Q + 1):
        n0_sq, p = nearest_lattice_sq_exhaustive(norm, theta, q)
        if best_sq is None or n0_sq.compare(best_sq) < 0:
            out.append((q, p, n0_sq))
            best_sq = n0_sq
    return out


def growth_count_exhaustive(spec, N: int, max_bits: int = 4096) -> int:
    """S(N): the plain sum of the exact small-value indicator over 1 <= n < N."""
    from gplab.nilorbit import small_value_indicator

    return sum(small_value_indicator(spec, n, max_bits) for n in range(1, N))


# ---------------------------------------------------------------------------
# cubic closed forms: h(q)^2, g(q) and the plateau test, written out
# ---------------------------------------------------------------------------


class CubicClosedForms:
    """The closed forms of a ``CubicConstruction``, in field arithmetic and on
    fixed-point enclosures, independent of its compiled expressions."""

    def __init__(self, cons):
        self.cons = cons
        self._fixed = {}

    def h_sq(self, q: int):
        cons = self.cons
        inv_b, inv_b2 = cons.theta
        p1 = (inv_b * q).nint()
        t = inv_b * q - p1
        p2 = ((cons.beta * cons.norm.re_u) * t + inv_b2 * q).nint()
        re = cons.norm.re_u * t + (inv_b2 * q - p2) * inv_b
        return re * re + cons.norm.im_u_sq * t * t

    def g_value(self, q: int):
        cons = self.cons
        inv_b, inv_b2 = cons.theta
        c1 = (cons.beta * cons.b + 1) * inv_b2
        return cons.m1_sq.inverse() * (
            cons.field.from_rational(q) + c1 * (inv_b * q).nint() + inv_b * (inv_b2 * q).nint()
        )

    def member(self, q: int) -> bool:
        """Exact h(q)^2 g(q) <= beta^(k/2), for q >= 1."""
        if q < 1:
            return False
        v = self.h_sq(q) * self.g_value(q)
        return (v * v - self.cons.beta**self.cons.plateau_pow).sign() <= 0

    def may_be_member(self, q: int, bits: int) -> bool:
        """False only when enclosures at ``bits`` prove (h(q)^2 g(q))^2 > beta^k.

        The closed forms on integer fixed-point enclosures, rounded outward;
        a rounding (p1, p2 or nint(q/beta^2)) the enclosures cannot decide
        keeps q.
        """
        from gplab.realnum import NeedBits, fixed_enclosure, floor_iv, mul_iv, scale_iv

        if bits not in self._fixed:
            cons = self.cons
            inv_b, inv_b2 = cons.theta
            consts = (
                inv_b,
                inv_b2,
                cons.beta * cons.norm.re_u,
                cons.norm.re_u,
                cons.norm.im_u_sq,
                cons.m1_sq.inverse(),
                (cons.beta * cons.b + 1) * inv_b2,
                cons.beta**cons.plateau_pow,
            )
            self._fixed[bits] = tuple(fixed_enclosure(c, bits) for c in consts)
        ib, ib2, w1, re_u, im_sq, m1inv2, c1, beta_k = self._fixed[bits]
        half = 1 << (bits - 1)
        qb = scale_iv(q, ib)
        qb2 = scale_iv(q, ib2)
        try:
            p1 = floor_iv((qb[0] + half, qb[1] + half), bits)
            p2g = floor_iv((qb2[0] + half, qb2[1] + half), bits)
            t = (qb[0] - (p1 << bits), qb[1] - (p1 << bits))
            rew = mul_iv(w1, t, bits)
            p2 = floor_iv((rew[0] + qb2[0] + half, rew[1] + qb2[1] + half), bits)
        except NeedBits:
            return True
        x2 = mul_iv((qb2[0] - (p2 << bits), qb2[1] - (p2 << bits)), ib, bits)
        re = mul_iv(re_u, t, bits)
        re = (re[0] + x2[0], re[1] + x2[1])
        a, b = mul_iv(re, re, bits), mul_iv(im_sq, mul_iv(t, t, bits), bits)
        h_sq = (a[0] + b[0], a[1] + b[1])
        a, b = scale_iv(p1, c1), scale_iv(p2g, ib)
        g = mul_iv(m1inv2, ((q << bits) + a[0] + b[0], (q << bits) + a[1] + b[1]), bits)
        v = mul_iv(h_sq, g, bits)
        return mul_iv(v, v, bits)[0] <= beta_k[1]


# ---------------------------------------------------------------------------
# the literal tree: every node evaluated as written, with no compiled program
# ---------------------------------------------------------------------------


def eval_tree(e, n: int, max_bits: int = 4096):
    """The exact value of expression ``e`` at n, walking its literal tree.

    Each node is evaluated once per distinct object (memoised by ``id``),
    with the realnum operations and without ``Program``: no fused range
    test or distance threshold, no folded constant and no hash-consing.
    It is the reference for the compiled program's predicate ops.  The walk
    is an explicit stack, so deep trees are fine.
    """
    from gplab.gpexpr.ast import Add, Dist, Floor, Frac, Mul, Nint, Pow, Sub, Var, children
    from gplab.realnum import dist_of, floor_frac, frac_of, nint_of, radd, rmul, rpow, rsub

    binary = {Add: radd, Sub: rsub, Mul: rmul}
    unary = {
        Floor: lambda x: Fraction(floor_frac(x, max_bits)[0]),
        Frac: lambda x: frac_of(x, max_bits),
        Nint: lambda x: Fraction(nint_of(x, max_bits)),
        Dist: lambda x: dist_of(x, max_bits),
    }
    val: dict[int, object] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in val:
            stack.pop()
            continue
        kids = children(node)
        todo = [k for k in kids if id(k) not in val]
        if todo:
            stack += todo
            continue
        stack.pop()
        t = type(node)
        if t is Var:
            v = Fraction(n)
        elif t in binary:
            v = binary[t](val[id(node.left)], val[id(node.right)])
        elif t in unary:
            v = unary[t](val[id(node.arg)])
        elif t is Pow:
            v = rpow(val[id(node.base)], node.exponent)
        else:  # RationalConst, Const
            v = node.value
        val[id(node)] = v
    return val[id(e)]


def exact_reference(program, n: int, max_bits: int = 4096, decided: dict | None = None):
    """``program``'s exact value at n by the loop that evaluated exact mode
    before each program was given a generated function: the reference for
    that function.

    Every op runs once, in order, on the values of the realnum operations,
    except that an op in ``decided`` is read as the integer it maps to.
    """
    from gplab.gpexpr.evaluate import (
        _ADD,
        _CONST,
        _DIST,
        _FLOOR,
        _FRAC,
        _MUL,
        _NINT,
        _POW,
        _RANGE,
        _SUB,
        _TWO_OPERANDS,
        _VAR,
    )
    from gplab.realnum import (
        compare,
        dist_of,
        floor_frac,
        frac_of,
        is_exact_zero,
        nint_of,
        radd,
        rmul,
        rpow,
        rsub,
    )

    def in_range(v, lo, hi) -> bool:
        return compare(v, lo, max_bits) >= 0 and compare(v, hi, max_bits) < 0

    def one_op(code, x, y):
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
            return Fraction(in_range(x, Fraction(y[0], y[1]), Fraction(y[2], y[3])))
        # _DIST_LT, x the scale and y the argument
        if is_exact_zero(x):
            return Fraction(1)
        f = frac_of(y, max_bits)
        zero, one = Fraction(0), Fraction(1)
        return Fraction(
            in_range(rmul(x, f), zero, one) or in_range(rmul(x, rsub(one, f)), zero, one)
        )

    decided = decided or {}
    val: list = []
    for i, (code, a, b) in enumerate(program.ops):
        if i in decided:
            out = Fraction(decided[i])
        elif code == _CONST:
            out = program.consts[a]
        elif code == _VAR:
            out = Fraction(n)
        else:
            out = one_op(code, val[a], val[b] if code in _TWO_OPERANDS else b)
        val.append(out)
    return val[-1]


def dyadic_reference(program, n: int, bits: int) -> tuple[int, int]:
    """``program``'s interval ``[lo, hi] * 2^-bits`` at n, or ``NeedBits``,
    by the stack machine that evaluated dyadic mode before each program was
    given a generated function: the reference for that function.

    Ops are computed on demand from an explicit stack, with a per-point
    memo, left operand first; a product whose left factor is exactly 0
    never evaluates its right factor, and a distance threshold whose scale
    is exactly 0 takes no floor of its argument.
    """
    from gplab.gpexpr.evaluate import (
        _ADD,
        _CONST,
        _DIST,
        _DIST_LT,
        _FLOOR,
        _FRAC,
        _MUL,
        _NINT,
        _POW,
        _RANGE,
        _SUB,
        _VAR,
    )
    from gplab.realnum import NeedBits, dist_iv, fixed_enclosure, floor_iv, mul_iv

    def in_unit(v: tuple[int, int], one: int) -> bool:
        if v[0] >= 0 and v[1] < one:
            return True
        if v[1] < 0 or v[0] >= one:
            return False
        raise NeedBits

    ops = program.ops
    val: list = [None] * len(ops)
    for i, (code, a, _) in enumerate(ops):
        if code == _CONST:
            val[i] = fixed_enclosure(program.consts[a], bits)
        elif code == _VAR:
            val[i] = (n << bits, n << bits)
    root = len(ops) - 1
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
                if in_unit(mul_iv(x, f, bits), one) or in_unit(
                    mul_iv(x, (one - f[1], one - f[0]), bits), one
                ):
                    out = (one, one)
                else:
                    out = (0, 0)
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


def dyadic_point(program, n: int, bits: int) -> tuple[int, int]:
    """``program``'s generated dyadic function at the one point n, read as
    :func:`dyadic_reference` answers: the interval ``[lo, hi] * 2^-bits``,
    or ``NeedBits``."""
    from gplab.realnum import NeedBits

    one = 1 << bits
    v = next(program.scan((n,), bits), None)
    if v is None:
        return 0, 0
    if type(v) is int:
        return one, one
    if type(v[1]) is dict:
        raise NeedBits
    return v[1]


# ---------------------------------------------------------------------------
# the small-fp indicator in its squared-offset form
# ---------------------------------------------------------------------------


def small_fp_squared(q, p, b):
    """Indicator of {n : 0 < ||x(n)|| < p(n)^b} for q = dist(x) and b < 0,
    written through the offset x - nint(x) and its square, so that it holds
    no dist node: 0 < offset and (offset^2)^den * p^(2 num) < 1 for
    b = -num/den."""
    from gplab.gpexpr import Add, Floor, Mul, Pow, RationalConst, Sub
    from gplab.gpexpr import ind_and, ind_not, indicator_of_range, indicator_of_zero_set

    b = Fraction(b)
    num, den = -b.numerator, b.denominator
    offset = Sub(q.arg, Floor(Add(q.arg, RationalConst(Fraction(1, 2)))))
    y = Mul(Pow(Pow(offset, 2), den), Pow(p, 2 * num))
    return ind_and(ind_not(indicator_of_zero_set(offset)), indicator_of_range(y, 0, 1))
