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
``Certificate.members`` decides the lattice points ``_cubic_candidates``
proposes in one ``members_in`` window scan, as in every other scan.  A
build decides no point: the ``plateau_shared_by_extra_orbit`` flag is read
off ``gp cert``'s scan (``flag_extra_orbit``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterator

from ..cf import RauzyNorm, lattice_box_points, nearest_lattice_sq
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
from ..realnum import FieldElement, NumberField, dyadic_enclosure, fixed_enclosure
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
    plateau_pow: int  # (h^2 g)^2 == beta^plateau_pow along the recurrence
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

    @functools.cached_property
    def m1_inv_sq(self) -> FieldElement:
        """m1^-2, the constant factor of g."""
        return self.m1_sq.inverse()

    @functools.cached_property
    def g_bound(self) -> tuple[FieldElement, ...]:
        """m1^-2, beta^k, K and L, the constants of the g bound (see
        ``_cubic_candidates``), formed at the first scan."""
        inv_b, inv_b2 = self.theta
        c1 = (self.beta * self.b + 1) * inv_b2
        k_g = 1 + c1 * inv_b + inv_b * inv_b2
        return self.m1_inv_sq, self.beta**self.plateau_pow, k_g, (c1.abs() + inv_b) / 2

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
        c(cons.m1_inv_sq),
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
        m1_sq=nearest_lattice_sq(norm, theta, 1)[0],
        plateau_pow=0,
    )
    cons.g_expr, cons.h_sq_expr = _build_exprs(cons)
    prod = Mul(cons.h_sq_expr, cons.g_expr)
    probe_terms = recurrence_terms(rec, 5000)
    cons.plateau_pow = _measure_plateau(cons, lambda q: eval_exact(prod, q), probe_terms)
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
            # N0(R_i theta)^2 == m1^2 beta^-(i - record_offset), large i
            "record_offset": Fraction(k, 2),
        },
    )
    cons.certificate = cert
    return cons


def flag_extra_orbit(cert: Certificate, report: VerificationReport) -> None:
    """Flag ``plateau_shared_by_extra_orbit`` when ``gp cert``'s scan against
    ``cubic_recurrence`` finds a mismatch in the upper half of its range,
    (hi/2, hi].

    Some parameter pairs admit a second recurrence orbit (for example the
    values R_(i-2) + R_i) on which h^2 g attains the *same* exact plateau,
    so no threshold on h^2 g separates the target orbit.  The flag
    surfaces the finding instead of pretending the set matches.
    """
    hi = report.range_hi
    if any(hi // 2 < x <= hi for x in report.symmetric_difference):
        cert.meta["plateau_shared_by_extra_orbit"] = True


def _cubic_candidates(cons: CubicConstruction, lo: int, hi: int) -> Iterator[int]:
    """Candidates for the members on [lo, hi]: ``cf.lattice_box_points``,
    where the completeness proof is, with the radius r(q_a) of the g bound.

    A member has |h(q)^2 g(q)| <= beta^(k/2), and as nint(x) lies within
    1/2 of x, g(q) >= m1^-2 (q K - L) with K = 1 + c1/beta + 1/beta^3
    = 1 + (b beta + 2)/beta^3 > 0 and L = (|c1| + 1/beta)/2.  So a member
    q >= start, the least q with q K > L, has N(q theta - p)^2 = h(q)^2 <=
    r(q) := beta^(k/2) m1^2 / (q K - L), p the roundings in ``h_sq_expr``.
    A box holds at most 18 points for (1,1), 6 for (2,1) and 12 for
    (2,-1), so a scan to B proposes O(log B) points; the q < start, n <= 0
    too, are proposed as is.  Members reach exact mode: they sit on the
    plateau.
    """
    bits = 64 + 2 * hi.bit_length()
    m1inv2, beta_k, k_g, l_g = (fixed_enclosure(c, bits) for c in cons.g_bound)
    start = l_g[1] // k_g[0] + 1  # least q with q K > L on the enclosures
    yield from range(lo, min(hi, start - 1) + 1)
    r_num = (math.isqrt(beta_k[1] << bits) + 1) << (2 * bits)  # beta^(k/2) at 2^(3 bits)

    def radius(qa: int) -> int:
        return -(-r_num // (m1inv2[0] * (qa * k_g[0] - l_g[1])))

    yield from lattice_box_points(cons.theta, cons.norm, max(lo, start), hi, bits, radius)
