"""Certificates for cubic Pisot-unit value sets via planar best approximations.

For P(x) = x^3 - a x^2 - b x - 1 with a unique real root beta > 1 and a
complex pair alpha, the recurrence terms R_i are, up to finitely many
terms, the best approximations of theta = (1/beta, 1/beta^2) under the
norm N(x) = |(alpha + b/beta) x1 + x2/beta|.  Two generalised polynomials
reconstruct the record data:

* g(q) grows linearly and takes the value m1^{-2} beta^i at q = R_i;
* h(q)^2 equals N0(q theta)^2 whenever that distance is below Im(alpha)/2.

N0(q theta)^2 itself (``n0_sq``, and m1^2 = N0(theta)^2) comes from
``cf.nearest_lattice_sq``, the one planar-distance routine.

The product h(q)^2 g(q) is then *exactly* constant along the R_i (the
records scale by |alpha| = beta^{-1/2} per step while g scales by beta),
and strictly larger elsewhere.  The certificate tests the squared product
against the exact plateau constant beta^k, a comparison that lives
entirely in the ground field.  The plateau exponent k is measured at
build time, by one walk over k from 0 that multiplies by beta (or 1/beta)
per step, on exact values of the one product node h^2 g at two
independent indices; the indicator squares that same node.  The field
itself is built on integers: the root count and the unit interval of beta
come from integer Sturm counts and integer Horner signs.

The certificate's indicator is the one encoding of this test: ``h_sq``
and ``g_value`` evaluate ``h_sq_expr`` and ``g_expr`` (each compiled on
its first call), ``member`` is the indicator's exact verdict, and
``Certificate.members`` confirms the lattice points ``_cubic_candidates``
proposes, as in every other scan.  A build confirms nothing: the
``plateau_shared_by_extra_orbit`` flag is read off ``gp cert``'s scan
(``flag_extra_orbit``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator

from ..cf import RauzyNorm, nearest_lattice_sq
from ..errors import PreconditionError
from ..gpexpr import (
    Add,
    Const,
    Expr,
    Mul,
    N,
    Nint,
    Pow,
    Sub,
    eval_exact,
    indicator_of_range,
)
from ..realnum import (
    FieldElement,
    NumberField,
    dyadic_enclosure,
    fixed_enclosure,
    scale_iv,
)
from ..realnum.polys import count_real_roots, poly_sign
from .certificate import Certificate, VerificationReport
from .recurrence import LinearRecurrence, recurrence_terms


def _cubic_field(a: int, b: int) -> NumberField:
    ok = (a >= 0 and 0 <= b <= a + 1) or (a >= 2 and b == -1)
    if not ok:
        raise PreconditionError("need (a >= 0 and 0 <= b <= a+1) or (a >= 2 and b = -1)")
    coeffs = (-1, -b, -a, 1)
    if count_real_roots(coeffs) != 1:
        raise PreconditionError(f"x^3-{a}x^2-{b}x-1 does not have a unique real root")
    # the unit interval holding the root: it lies in (1, a+2), where the
    # monic cubic turns from negative to positive
    for lo in range(1, a + 3):
        if poly_sign(coeffs, lo) < 0 < poly_sign(coeffs, lo + 1):
            return NumberField(coeffs, lo, lo + 1, "beta")
    raise PreconditionError("real root is not greater than 1")


@dataclass
class CubicConstruction:
    a: int
    b: int
    field: NumberField
    beta: FieldElement
    norm: RauzyNorm
    theta: tuple[FieldElement, FieldElement]
    recurrence: LinearRecurrence
    m1_sq: FieldElement
    m1_at: tuple[int, int]
    plateau_pow: int  # (h^2 g)^2 == beta^plateau_pow along the recurrence
    record_offset: Fraction  # N0(R_i theta)^2 == m1^2 beta^-(i-offset), large i
    g_expr: Expr = dc_field(repr=False, default=None)
    h_sq_expr: Expr = dc_field(repr=False, default=None)
    certificate: Certificate = dc_field(repr=False, default=None)

    def n0_sq(self, q: int) -> FieldElement:
        """Exact squared distance N0(q theta)^2 from q theta to the nearest lattice point."""
        return nearest_lattice_sq(self.norm, self.theta, q)[0]

    def h_sq(self, q: int) -> FieldElement:
        """Exact h(q)^2: ``h_sq_expr`` at q."""
        return eval_exact(self.h_sq_expr, q)

    def g_value(self, q: int) -> FieldElement:
        """Exact g(q): ``g_expr`` at q."""
        return eval_exact(self.g_expr, q)

    def record_law(self, i: int, r_i: int) -> bool:
        """Whether N0(R_i theta)^2 = m1^2 beta^(k/2 - i) holds exactly for the
        term r_i = R_i, k = ``plateau_pow``.  Squared once more to keep the
        exponent integral (k may be odd): n0^2 * beta^(2i - k) = m1^4."""
        n0 = self.n0_sq(r_i)
        m1_4 = self.m1_sq * self.m1_sq
        return (n0 * n0 * self.beta ** (2 * i - self.plateau_pow) - m1_4).is_zero()

    @cached_property
    def _exact_consts(self) -> tuple[FieldElement, ...]:
        """1/beta, 1/beta^2, beta Re(u), m1^-2, beta^k, K, L, Im(u)^-2 and
        beta^2, exactly (K and L bound g; see ``_cubic_candidates``)."""
        inv_b, inv_b2 = self.theta
        c1 = (self.beta * self.b + 1) * inv_b2
        return (
            inv_b,
            inv_b2,
            self.beta * self.norm.re_u,
            self.m1_sq.inverse(),
            self.beta**self.plateau_pow,
            1 + c1 * inv_b + inv_b * inv_b2,
            ((c1 if c1.sign() >= 0 else -c1) + inv_b) / 2,
            self.norm.im_u_sq.inverse(),
            self.beta * self.beta,
        )

    def _fixed_consts(self, bits: int) -> tuple:
        """Enclosures at ``bits`` of ``_exact_consts``, computed once per precision."""
        cache = self.__dict__.setdefault("_fixed_cache", {})
        if bits not in cache:
            cache[bits] = tuple(fixed_enclosure(c, bits) for c in self._exact_consts)
        return cache[bits]

    def member(self, q: int) -> bool:
        """The indicator's exact verdict at q >= 1: (h^2 g)^2 <= beta^k."""
        return q >= 1 and eval_exact(self.certificate.indicator, q) == 1


def _measure_plateau(
    cons: CubicConstruction, product: Callable[[int], FieldElement], terms: list[int]
) -> int:
    """Exact exponent k with product(q)^2 = beta^k at the two largest
    recurrence terms, ``product`` being h^2 g.

    As beta > 1, beta^k increases strictly with k.  So the walk starts at
    k = 0 and steps towards the sign of (h^2 g)^2 - 1, one product by beta
    (or 1/beta) per step, until the difference is exactly zero: at most
    |k| + 1 exact comparisons per term.  A sign flip, or k leaving
    [-8, 40], means there is no exact plateau.
    """
    beta = cons.beta
    found = None
    for q in terms[-2:]:
        v = product(q)
        vv = v * v
        k, power = 0, cons.field.one()
        side = first = (vv - power).sign()
        step, factor = (-1, cons.theta[0]) if first < 0 else (1, beta)
        while side == first != 0 and -8 <= k + step <= 40:
            k, power = k + step, power * factor
            side = (vv - power).sign()
        if side:
            raise PreconditionError(
                f"no exact plateau constant at q={q}; construction out of regime"
            )
        if found is not None and found != k:
            raise PreconditionError("plateau exponent differs between indices")
        found = k
    return found


def _verify_record_plateau_link(cons: CubicConstruction, terms: list[int]) -> None:
    """Exact check of ``CubicConstruction.record_law`` at the two largest indices."""
    for i in (len(terms) - 1, len(terms) - 2):
        if not cons.record_law(i, terms[i]):
            raise PreconditionError(
                f"record value at index {i} does not match the plateau scaling"
            )


def _build_exprs(cons: CubicConstruction) -> tuple[Expr, Expr]:
    fld = cons.field
    inv_b = cons.theta[0]
    inv_b2 = cons.theta[1]
    cname = fld.name

    def c(x: FieldElement) -> Expr:
        return Const(cname, x)

    p1 = Nint(Mul(c(inv_b), N))
    p2g = Nint(Mul(c(inv_b2), N))
    g = Mul(
        c(cons.m1_sq.inverse()),
        Add(Add(N, Mul(c((cons.beta * cons.b + 1) * inv_b2), p1)), Mul(c(inv_b), p2g)),
    )
    t = Sub(Mul(c(inv_b), N), p1)
    rew = Add(Mul(c(cons.beta * cons.norm.re_u), t), Mul(c(inv_b2), N))
    p2 = Nint(rew)
    re = Add(Mul(c(cons.norm.re_u), t), Mul(Sub(Mul(c(inv_b2), N), p2), c(inv_b)))
    h_sq = Add(Pow(re, 2), Mul(c(cons.norm.im_u_sq), Pow(t, 2)))
    return g, h_sq


def cubic_recurrence(a: int, b: int) -> LinearRecurrence:
    """x(i+3) = a x(i+2) + b x(i+1) + x(i) from 1, a, a^2 + b: the target values."""
    return LinearRecurrence((a, b, 1), (1, a, a * a + b), f"cubic({a},{b})")


def cubic_pisot_set(a: int, b: int) -> CubicConstruction:
    """Build the full cubic construction and its certificate.

    The certificate's oracle is ``cubic_recurrence``.  The build compiles
    one program, the product h^2 g its plateau walk evaluates, and scans
    nothing; ``gp cert`` sets the ``plateau_shared_by_extra_orbit`` flag
    from its own scan (``flag_extra_orbit``).
    """
    fld = _cubic_field(a, b)
    beta = fld.generator()
    norm = RauzyNorm.for_cubic_field(fld, b)
    inv_b = beta.inverse()
    theta = (inv_b, inv_b * inv_b)
    rec = cubic_recurrence(a, b)
    cons = CubicConstruction(
        a=a,
        b=b,
        field=fld,
        beta=beta,
        norm=norm,
        theta=theta,
        recurrence=rec,
        m1_sq=None,
        m1_at=(0, 0),
        plateau_pow=0,
        record_offset=0,
    )
    m1_sq, m1_at = nearest_lattice_sq(norm, theta, 1)
    cons.m1_sq = m1_sq
    cons.m1_at = m1_at
    cons.g_expr, cons.h_sq_expr = _build_exprs(cons)
    prod = Mul(cons.h_sq_expr, cons.g_expr)
    probe_terms = recurrence_terms(rec, 5000)
    cons.plateau_pow = _measure_plateau(cons, lambda q: eval_exact(prod, q), probe_terms)
    cons.record_offset = Fraction(cons.plateau_pow, 2)
    _verify_record_plateau_link(cons, probe_terms)

    # indicator: 0 <= beta^k - (h^2 g)^2 < B, i.e. the product sits on or
    # below its exact plateau value
    k = cons.plateau_pow
    beta_k = beta**k
    bound = Fraction((dyadic_enclosure(beta_k, 3)[1] >> 3) + 2)
    indicator = indicator_of_range(Sub(Const(fld.name, beta_k), Pow(prod, 2)), 0, bound)

    cert = Certificate(
        indicator=indicator,
        target_description=(
            f"value set of x(i+3) = {a} x(i+2) + {b} x(i+1) + x(i) from 1, {a}, {a*a+b}"
        ),
        candidates=lambda lo, hi: _cubic_candidates(cons, lo, hi),
        meta={
            "construction": f"cubic a={a} b={b}",
            "plateau_pow": k,
            "record_offset": cons.record_offset,
        },
    )
    cons.certificate = cert
    return cons


def flag_extra_orbit(cert: Certificate, report: VerificationReport) -> None:
    """Flag ``plateau_shared_by_extra_orbit`` when ``gp cert``'s scan against
    ``cubic_recurrence`` finds a mismatch in (2000, 4000].

    Some parameter pairs admit a second recurrence orbit (for example the
    values R_(i-2) + R_i) on which h^2 g attains the *same* exact plateau,
    so no threshold on h^2 g separates the target orbit.  The flag
    surfaces the finding instead of pretending the set matches.
    """
    if any(2000 < x <= 4000 for x in report.symmetric_difference):
        cert.meta["plateau_shared_by_extra_orbit"] = True


def _inverse_rows(m: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
    """Rows of m^-1 for an integer 3x3 matrix m of determinant +-1 (the adjugate)."""
    (a, b, c), (d, e, f), (g, h, k) = m
    adj = (
        (e * k - f * h, c * h - b * k, b * f - c * e),
        (f * g - d * k, a * k - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    if abs(det) != 1:
        raise PreconditionError(f"shift basis has determinant {det}, not +-1")
    return [tuple(det * x for x in row) for row in adj]


def _cubic_candidates(cons: CubicConstruction, lo: int, hi: int) -> Iterator[int]:
    """Candidates for the members on [lo, hi]: lattice points of slabs.

    Members are the q with |h(q)^2 g(q)| <= beta^(k/2).  As nint(x) lies
    within 1/2 of x, g(q) >= m1^-2 (q K - L) with K = 1 + c1/beta + 1/beta^3
    = 1 + (b beta + 2)/beta^3 > 0 and L = (|c1| + 1/beta)/2.  So a member
    q >= start, the least q with q K > L, has h(q)^2 <= r(q) :=
    beta^(k/2) m1^2 / (q K - L), which falls with q.  With (p1, p2) the
    roundings in ``h_sq_expr``, x = (q, p1, p2) is in Z^3, and
    y = q theta - (p1, p2) has y^T M y = N(y)^2 = h(q)^2, M being the
    Gram matrix of the norm.

    Scale i >= 2 covers the slab [R_i, R_(i+1)] (the R_i do not decrease
    from i = 2 for any admitted (a, b)).  Its shift vectors
    v_j = (R_j, R_(j-1), R_(j-2)), j = i..i+2, with R_-2 = R_-1 = 0, are
    the columns of A_i = C^i A_0, C the companion matrix (determinant 1)
    and A_0 unipotent, so x = A_i c for an integer c (|det A_i| = 1 is
    checked exactly).  Row w_j of A_i^-1 gives
    c_j = q w_j . (1, theta) - w'_j . y, w'_j its last two entries, and
    Cauchy-Schwarz gives |w'_j . y|^2 <= r(q_a) w'_j^T M^-1 w'_j, with
    w^T M^-1 w = (w_1 - (Re(u)/v) w_2)^2 / Im(u)^2 + w_2^2 / v^2, on a
    slab part [q_a, q_b] with q_a >= start.  So every member there is
    (A_i c)_0 for an integer c in the box these intervals span.  Each bound
    is taken on integer enclosures at 64 + 2 hi.bit_length() bits, rounded
    outward: |w_j| grows like q^(1/2), so q w_j . (1, theta) stays well
    within one unit.  The box holds at most 18 points per scale for (1,1),
    6 for (2,1) and 12 for (2,-1), so a scan to B proposes O(log B) points;
    a box that ever grows would be cut by Fincke-Pohst enumeration
    (Math. Comp. 44, 1985).  The q < max(start, R_2), every n <= 0
    included, are proposed as is.

    Members reach exact mode when ``Certificate.members`` confirms them:
    they sit exactly on the plateau, where no dyadic precision decides the
    indicator's last floor.
    """
    bits = 64 + 2 * hi.bit_length()
    # beta Re(u) = Re(u)/v and beta^2 = 1/v^2, as v = 1/beta
    ib, ib2, re_v, m1inv2, beta_k, k_g, l_g, inv_im, beta_sq = cons._fixed_consts(bits)

    def up(x: int) -> int:
        return -((-x) >> bits)

    R = [0, 0, 1, cons.a, cons.a * cons.a + cons.b]  # R[j + 2] = R_j
    while R[-3] <= hi:
        R.append(cons.a * R[-1] + cons.b * R[-2] + R[-3])
    start = l_g[1] // k_g[0] + 1  # least q with q K > L on the enclosures
    first = max(start, R[4])
    yield from range(lo, min(hi, first - 1) + 1)
    r_num = (math.isqrt(beta_k[1] << bits) + 1) << (2 * bits)  # beta^(k/2) at 2^(3 bits)
    for i in range(2, len(R) - 4):
        qa, qb = max(R[i + 2], lo, first), min(R[i + 3], hi)
        if qa > qb:
            continue
        # A_i has the columns v_j = (R_j, R_(j-1), R_(j-2)), j = i, i+1, i+2
        a_rows = (R[i + 2 : i + 5], R[i + 1 : i + 4], R[i : i + 3])
        r_hi = -(-r_num // (m1inv2[0] * (qa * k_g[0] - l_g[1])))
        ranges = []
        for e0, e1, e2 in _inverse_rows(a_rows):
            s1, s2 = scale_iv(e1, ib), scale_iv(e2, ib2)
            s = ((e0 << bits) + s1[0] + s2[0], (e0 << bits) + s1[1] + s2[1])
            d = scale_iv(e2, re_v)
            d = max(abs((e1 << bits) - d[0]), abs((e1 << bits) - d[1]))
            quad = up(up(d * d) * inv_im[1]) + e2 * e2 * beta_sq[1]
            rho = math.isqrt(up(r_hi * quad) << bits) + 1
            c_lo = -((rho - min(qa * s[0], qb * s[0])) >> bits)
            ranges.append(range(c_lo, ((max(qa * s[1], qb * s[1]) + rho) >> bits) + 1))
        qs = (sum(r * c for r, c in zip(a_rows[0], cs)) for cs in itertools.product(*ranges))
        yield from (q for q in qs if qa <= q <= qb)
