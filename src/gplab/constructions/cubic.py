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
build time and verified exactly at two independent indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

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
    indicator_of_range,
)
from ..realnum import (
    DEFAULT_MAX_BITS,
    FieldElement,
    NeedBits,
    NumberField,
    fixed_enclosure,
    floor_iv,
    mul_iv,
    prefilter_bits,
    scale_iv,
)
from ..realnum.polys import count_real_roots
from .certificate import SCAN_CHUNK, Certificate, verify_certificate
from .recurrence import LinearRecurrence, recurrence_terms

_DEFAULT_VERIFY_TO = 4000


def _cubic_field(a: int, b: int) -> NumberField:
    ok = (a >= 0 and 0 <= b <= a + 1) or (a >= 2 and b == -1)
    if not ok:
        raise PreconditionError("need (a >= 0 and 0 <= b <= a+1) or (a >= 2 and b = -1)")
    coeffs = (-1, -b, -a, 1)
    fr = [Fraction(c) for c in coeffs]
    if count_real_roots(fr) != 1:
        raise PreconditionError(f"x^3-{a}x^2-{b}x-1 does not have a unique real root")
    # locate the unit interval holding the root; it lies in (1, a+2)
    from ..realnum.polys import poly_eval

    lo = None
    for k in range(1, a + 3):
        if poly_eval(fr, Fraction(k)) < 0 and poly_eval(fr, Fraction(k + 1)) > 0:
            lo = k
            break
    if lo is None:
        raise PreconditionError("real root is not greater than 1")
    return NumberField(coeffs, lo, lo + 1, "beta")


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

    def _float_approx(self):
        fa = getattr(self, "_float_cache", None)
        if fa is None:
            fa = (
                self.theta[0].to_float(),
                self.theta[1].to_float(),
                self.norm.re_u.to_float(),
                self.norm.im_u_sq.to_float(),
            )
            self._float_cache = fa
        return fa

    def h_sq(self, q: int) -> FieldElement:
        """Exact value of the closed-form h(q)^2."""
        inv_b = self.theta[0]
        inv_b2 = self.theta[1]
        p1 = (inv_b * q).nint()
        t = inv_b * q - p1
        rew = (self.beta * self.norm.re_u) * t + inv_b2 * q
        p2 = rew.nint()
        re = self.norm.re_u * t + (inv_b2 * q - p2) * inv_b
        return re * re + self.norm.im_u_sq * t * t

    def g_value(self, q: int) -> FieldElement:
        inv_b = self.theta[0]
        inv_b2 = self.theta[1]
        c1 = (self.beta * self.b + 1) * inv_b2
        return self.m1_sq.inverse() * (
            self.field.from_rational(q)
            + c1 * (inv_b * q).nint()
            + inv_b * (inv_b2 * q).nint()
        )

    def _fixed_consts(self, bits: int) -> tuple:
        """Enclosures at ``bits`` of 1/beta, 1/beta^2, beta Re(u), Re(u),
        Im(u)^2, m1^-2, c1 and beta^k, computed once per precision."""
        cache = getattr(self, "_fixed_cache", None)
        if cache is None:
            cache = self._fixed_cache = {}
        if bits not in cache:
            inv_b, inv_b2 = self.theta
            consts = (
                inv_b,
                inv_b2,
                self.beta * self.norm.re_u,
                self.norm.re_u,
                self.norm.im_u_sq,
                self.m1_sq.inverse(),
                (self.beta * self.b + 1) * inv_b2,
                self.beta**self.plateau_pow,
            )
            cache[bits] = tuple(fixed_enclosure(c, bits) for c in consts)
        return cache[bits]

    def may_be_member(self, q: int, bits: int) -> bool:
        """False only when enclosures at ``bits`` prove (h(q)^2 g(q))^2 > beta^k.

        The closed forms of ``h_sq`` and ``g_value`` are evaluated on
        integer fixed-point enclosures, rounded outward; a rounding
        (p1, p2 or nint(q/beta^2)) that the enclosures cannot decide
        leaves q to ``member``.
        """
        ib, ib2, w1, re_u, im_sq, m1inv2, c1, beta_k = self._fixed_consts(bits)
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

    def member(self, q: int) -> bool:
        """Exact h(q)^2 g(q) <= beta^(k/2): the cubic scan's confirmer."""
        if q < 1:
            return False
        v = self.h_sq(q) * self.g_value(q)
        return (v * v - self.beta**self.plateau_pow).sign() <= 0


def _measure_plateau(cons: CubicConstruction, terms: list[int]) -> int:
    """Exact exponent k with (h^2 g)^2 = beta^k at two large recurrence terms."""
    beta = cons.beta
    found = None
    for q in terms[-2:]:
        v = cons.h_sq(q) * cons.g_value(q)
        vv = v * v
        k = None
        for cand in range(-8, 41):
            if (vv - beta**cand).is_zero():
                k = cand
                break
        if k is None:
            raise PreconditionError(
                f"no exact plateau constant at q={q}; construction out of regime"
            )
        if found is not None and found != k:
            raise PreconditionError("plateau exponent differs between indices")
        found = k
    return found


def _verify_record_plateau_link(cons: CubicConstruction, terms: list[int]) -> None:
    """Exact check that N0(R_i theta)^2 = m1^2 beta^(k/2 - i) at large indices.

    Squared once more to keep the exponent integral (k may be odd): the
    verified identity is n0^2 * beta^(2i - k) = m1^4.
    """
    beta = cons.beta
    k = cons.plateau_pow
    m1_4 = cons.m1_sq * cons.m1_sq
    for i in (len(terms) - 1, len(terms) - 2):
        n0 = cons.n0_sq(terms[i])
        if not (n0 * n0 * beta ** (2 * i - k) - m1_4).is_zero():
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


def cubic_pisot_set(a: int, b: int, verify_to: int = _DEFAULT_VERIFY_TO) -> CubicConstruction:
    """Build the full cubic construction and its certificate."""
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
    probe_terms = recurrence_terms(rec, 5000)
    cons.plateau_pow = _measure_plateau(cons, probe_terms)
    cons.record_offset = Fraction(cons.plateau_pow, 2)
    _verify_record_plateau_link(cons, probe_terms)
    cons.g_expr, cons.h_sq_expr = _build_exprs(cons)

    # indicator: 0 <= beta^k - (h^2 g)^2 < B, i.e. the product sits on or
    # below its exact plateau value
    k = cons.plateau_pow
    beta_k = beta**k
    bk_hi = beta_k.enclosure(Fraction(1, 4))[1]
    bound = Fraction(int(bk_hi) + 2)
    y = Sub(Const(fld.name, beta_k), Pow(Mul(cons.h_sq_expr, cons.g_expr), 2))
    indicator = indicator_of_range(y, 0, bound)

    cert = Certificate(
        indicator=indicator,
        target_description=(
            f"value set of x(i+3) = {a} x(i+2) + {b} x(i+1) + x(i) from 1, {a}, {a*a+b}"
        ),
        fast_scan=lambda lo, hi: _cubic_fast_scan(cons, lo, hi),
        meta={
            "construction": f"cubic a={a} b={b}",
            "plateau_pow": k,
            "record_offset": cons.record_offset,
        },
    )
    cons.certificate = cert
    report = verify_certificate(cert, recurrence_terms(rec, verify_to), 1, verify_to)
    if any(x > verify_to // 2 for x in report.symmetric_difference):
        # Some parameter pairs admit a second recurrence orbit (for example
        # the values R_{i-2} + R_i) on which h^2 g attains the *same* exact
        # plateau, so no threshold on h^2 g separates the target orbit.
        # Surface the finding instead of pretending the set matches.
        cert.meta["plateau_shared_by_extra_orbit"] = True
    return cons


def _cubic_fast_scan(cons: CubicConstruction, lo: int, hi: int) -> list[int]:
    """Find members on [lo, hi]: float prefilter, exact confirmation.

    Members are the q with h(q)^2 g(q) <= beta^(k/2).  The float pass bounds
    the left side from below, using derived first-order bounds (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3) on the float
    error of t, re and the rounding arguments, and a per-point lower bound
    on g.  A point is re-checked exactly when that lower bound reaches the
    plateau or when a rounding argument lies within its error bound of a
    half-integer, so no member is dropped.

    Stage 1 runs that bound on the survivors of a cheaper test on q/beta
    alone.  With t = q/beta - nint(q/beta), h^2 = re^2 + Im^2 t^2 >= Im^2 t^2,
    and g(q) >= m1^-2 (q K - L) >= G, its value at the block's first q
    (K > 0).  So if G > 0, a member has Im^2 t^2 G <= h^2 g <= beta^(k/2),
    that is |t| <= sqrt(beta^(k/2) / (Im^2 G)), and the float t is within
    d_t of the exact one while qb = q/beta rounds to the right integer.  A
    point with |t| above d_t + sqrt(cap / (im_sq G)), whose qb is not within
    d_qb + u of a half-integer, is therefore not a member, whatever the
    second rounding nint(rew) does.  The threshold is evaluated outward:
    G is lowered by the error of k_g and l_g (each within 8u) and of its
    own product and differences, and the rest (im_sq within 2u, which the
    sqrt halves; a product and a quotient under the sqrt, which it also
    halves; the sqrt, the sum and the final product, each rounding by at
    most u) loses at most 5u relative to first order, which the factor
    1 + 8u restores.
    Stage 1 is off in a block where k_g <= 0 or G <= 0.  Each suspect is
    then re-screened by ``may_be_member`` on integer enclosures at
    64 + hi.bit_length() bits before ``member`` runs: from about 1e15 the
    float bound on q/beta reaches 1/2 and every point is a suspect, and the
    screen (about 15 us) leaves ``member`` (about 160 us) only the terms.
    Points n <= 0 are confirmed by the certificate's compiled indicator.
    """
    out = [n for n in range(lo, min(0, hi) + 1) if cons.certificate.confirm(n)]
    lo = max(lo, 1)
    if lo > hi:
        return out
    inv_b, inv_b2, re_u, im_sq = cons._float_approx()
    beta_f = cons.beta.to_float()
    m1inv2 = 1.0 / cons.m1_sq.to_float()
    c1 = (beta_f * cons.b + 1.0) * inv_b2
    w1 = beta_f * re_u
    # g >= m1^-2 (q K - L): nint(x) lies within 1/2 of x
    k_g = m1inv2 * (1.0 + c1 * inv_b + inv_b * inv_b2)
    l_g = m1inv2 * (abs(c1) + inv_b) / 2
    # the slack covers the float evaluation of the bound and of beta^(k/2),
    # each within a few dozen units in the last place
    cap = beta_f ** (cons.plateau_pow / 2) * (1.0 + 2.0**-40)
    # Error bounds, u = 2^-53.  to_float is within 2^-60 + u theta_i of
    # theta_i and q * theta_i adds one rounding; every other
    # float constant is within 8u of its exact value, and eps = 16u covers
    # that, the roundings of each step and the second-order terms.  The
    # bounds hold while the rounding decisions are right, which the
    # half-integer test checks.
    u = 2.0**-53
    eps = 16 * u
    w1_abs, re_abs = abs(w1), abs(re_u)
    m2 = w1_abs / 2 + 1  # |q/beta^2 - p2| with p2 = nint(rew)
    bits = prefilter_bits(hi.bit_length(), DEFAULT_MAX_BITS)
    steps = np.arange(SCAN_CHUNK, dtype=np.float64)
    for start in range(lo, hi + 1, SCAN_CHUNK):
        end = min(start + SCAN_CHUNK - 1, hi)
        q_max = float(end)
        d_q = 2 * u * q_max if q_max > 2.0**53 else 0.0  # q itself is rounded above 2^53
        d_qb = inv_b * d_q + q_max * (4 * u * inv_b + 2.0**-60)
        d_qb2 = inv_b2 * d_q + q_max * (4 * u * inv_b2 + 2.0**-60)
        d_t = d_qb + eps
        d_rew = w1_abs * (d_t + eps) + d_qb2 + 2 * u * inv_b2 * q_max  # last: the sum's rounding
        d_re = re_abs * d_t + inv_b * d_qb2 + eps * (re_abs + inv_b * m2)
        q = float(start) + steps[: end - start + 1]
        qb = q * inv_b
        t = qb - np.round(qb)  # exact
        g_start = float(start) * k_g - (l_g + d_q * k_g)
        g_start -= 16 * u * (float(start) * k_g + l_g)
        if k_g > 0 and g_start > 0:
            thr = (d_t + math.sqrt(cap / (im_sq * g_start))) * (1 + 8 * u)
        else:
            thr = math.inf  # stage 1 off: every point goes on
        t_abs = np.abs(t)
        keep = np.nonzero((t_abs <= thr) | (0.5 - t_abs <= d_qb + u))[0]
        q, qb, t = q[keep], qb[keep], t[keep]
        qb2 = q * inv_b2
        rew = w1 * t + qb2
        re = re_u * t + (qb2 - np.round(rew)) * inv_b
        re_lo = np.maximum(np.abs(re) - d_re, 0.0)
        t_lo = np.maximum(np.abs(t) - d_t, 0.0)
        g_lo = q * k_g - (l_g + d_q * k_g)
        suspects = (re_lo * re_lo + im_sq * (t_lo * t_lo)) * g_lo <= cap
        for arr, d in ((qb, d_qb), (rew, d_rew)):
            suspects |= np.abs(arr - np.floor(arr) - 0.5) <= d + u
        # Suspects are confirmed by the closed forms, not by the compiled
        # indicator: members sit exactly on the plateau, so the indicator
        # climbs the whole 96 -> 3072-bit ladder before going exact, about
        # 1.3 ms per Tribonacci member in [1e4, 1e13] against 0.2 ms here
        # (2-core host); confirming with the indicator moved the verify-cli
        # benchmark's op_p50_ms from 10.4-10.7 to 22.9-23.9 (seeds 21, 22).
        idx = keep[np.nonzero(suspects)[0]]
        out.extend(
            n
            for n in (start + int(i) for i in idx)
            if cons.may_be_member(n, bits) and cons.member(n)
        )
    return out
