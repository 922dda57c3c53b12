"""Certificates for quadratic Pisot-unit value sets.

Three layers:

* ``fibonacci_like_set``: the basic small-distance set
  E' = {n >= 1 : ||n*x|| < 1/(2n)} for a quadratic unit root x, whose
  members are the denominators of the continued-fraction convergents of x
  (nearly all of them for the norm -1 recurrences);
* the odd-denominator filter for norm +1 roots,
  E = {n in E' : nint(w*n) not in E'} with w = v1/u1 computed exactly;
* ``scaled_set_transfer``: membership transport m |-> (nint(u*m) in E_R and
  ||u*m|| < |u|/2), which converts a certificate for one linear-recurrence
  value set into one for another with the same characteristic polynomial.

No certificate here attaches a candidate generator: the support analysis
of the compiled indicator (:mod:`gplab.gpexpr.support`) reads the
proposals off the ops, the same for a built certificate and a printed
one.  E' is a distance test ``_DIST_LT(2 n, x n)``, whose members are
among the Legendre candidates g q_k of x; a filter is a product, which
proposes its E' factor's points; a transfer is a product of
``||u m|| < |u|/2`` with the source indicator read at nint(u m), which
pulls the source's proposals r back to m = nint(r/u); and the a = 3 union
proposes both halves' points.  ``Certificate.members`` decides each
proposal once, in one ``members_in`` window scan of the compiled
indicator, so a scan's output is exactly the indicator's member set.  The
builders do not scan against their targets: the registry pairs each one
with its oracle, and ``gp cert`` computes the exceptional set.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionError
from ..gpexpr import (
    Const,
    Mul,
    N,
    Nint,
    RationalConst,
    dist_lt_const,
    dist_lt_scaled,
    ind_and,
    ind_not,
    ind_or,
    substitute_var,
)
from ..realnum import FieldElement, NumberField
from .certificate import Certificate
from .recurrence import LinearRecurrence, recurrence_terms, residue_coefficient


def _half_over_n_certificate(x: FieldElement, description: str) -> Certificate:
    ind = dist_lt_scaled(Mul(N, Const(x.field.name, x)), Mul(RationalConst(Fraction(2)), N))
    return Certificate(
        indicator=ind,
        target_description=description,
        meta={"kind": "half-over-n", "root": repr(x)},
    )


def _require_finitely_many_doubles(limit_sq: int, what: str) -> None:
    """Refuse a root whose {n : ||n x|| < 1/(2n)} holds 2 q_k for infinitely many k.

    By the bound of the Legendre walk (``gpexpr.support._Walk``), 2 q_k is a member iff
    x_{k+1} + q_{k-1}/q_k > 8.  Conjugating x = (p_k x_{k+1} + p_{k-1}) /
    (q_k x_{k+1} + q_{k-1}) shows that q_{k-1}/q_k tends to minus the
    conjugate of x_{k+1}, so along the period the sum tends to x_{k+1} minus
    its conjugate: sqrt(a^2 + 4) for the root of x^2 - a x - 1, and for that
    of x^2 - a x + 1 sqrt(a^2 - 4) at the larger of its two period positions.
    ``limit_sq`` is the square of the largest limit.
    """
    if limit_sq > 64:
        raise PreconditionError(
            f"{what}: ||2 q_k x|| < 1/(4 q_k) for infinitely many convergent "
            f"denominators q_k (along them x_(k+1) + q_(k-1)/q_k tends to "
            f"sqrt({limit_sq}) > 8), so the exceptional set is infinite"
        )


def _fibonacci_like(a: int) -> LinearRecurrence:
    return LinearRecurrence((a, 1), (0, 1), f"fibonacci_like({a})")


def fibonacci_like_terms(a: int, bound: int) -> list[int]:
    """Values of x(i+2) = a x(i+1) + x(i) from 0, 1 that are at most ``bound``."""
    return recurrence_terms(_fibonacci_like(a), bound)


def fibonacci_like_set(a: int) -> Certificate:
    """Certificate for the value set of x_{i+2} = a x_{i+1} + x_i, x_0=0, x_1=1.

    The indicator is the strict small-distance predicate ||n*alpha|| < 1/(2n)
    with alpha = (a + sqrt(a^2+4))/2; its oracle is ``fibonacci_like_terms``.
    """
    if a < 1:
        raise PreconditionError("a must be a positive integer")
    field = NumberField((-1, -a, 1), a, a + 1, "alpha")
    alpha = field.generator()
    _require_finitely_many_doubles(a * a + 4, f"fibonacci_like a={a}")
    cert = _half_over_n_certificate(
        alpha, f"value set of x(i+2) = {a} x(i+1) + x(i) from 0, 1"
    )
    cert.meta["construction"] = f"fibonacci_like a={a}"
    return cert


def scaled_set_transfer(
    cert_r: Certificate,
    u: FieldElement,
    target_description: str = "",
) -> Certificate:
    """Certificate for {m : nint(u*m) in E_R and ||u*m|| < |u|/2}.

    When the source terms satisfy R_i = u*S_i + o(1) this is, up to a finite
    exceptional set, a certificate for the value set {S_i}.

    The support analysis pulls the source's proposals back: a member m has
    r = nint(u*m) where the source indicator holds, and |u*m - r| < |u|/2,
    so m = nint(r/u), at every sign of u and of r.
    """
    if u.is_zero():
        raise PreconditionError("transfer constant must be nonzero")
    u_abs = u.abs()
    un = Mul(Const(u.field.name, u), N)
    if u_abs.is_rational():
        near_src = dist_lt_const(un, u_abs.as_rational() / 2)
    else:
        near_src = _dist_lt_field_const(un, u_abs * Fraction(1, 2))
    indicator = ind_and(substitute_var(cert_r.indicator, Nint(un)), near_src)
    return Certificate(
        indicator=indicator,
        target_description=target_description or f"transfer of ({cert_r.target_description})",
        meta={"kind": "scaled-transfer", "u": repr(u)},
    )


def _dist_lt_field_const(e, t: FieldElement):
    """Indicator of ||e|| < t for an exact irrational threshold t in (0, 1]."""
    inv_t = t.inverse()
    return dist_lt_scaled(e, Const(inv_t.field.name, inv_t))


def nint_powers(x: FieldElement, bound: int) -> list[int]:
    """nint(x^i) for i >= 0 while the value stays at most ``bound`` (exact)."""
    out = []
    p = x.field.one()
    while True:
        v = p.nint()
        if v > bound:
            return out
        out.append(v)
        p = p * x


def quadratic_unit(a: int, norm: int) -> FieldElement:
    """The root beta > 1 of x^2 - a x - 1 (``norm=-1``) or x^2 - a x + 1 (``norm=+1``)."""
    if norm == -1:
        if a < 1:
            raise PreconditionError("norm -1 needs a >= 1")
        return NumberField((-1, -a, 1), a, a + 1, "beta").generator()
    if norm != 1:
        raise PreconditionError("norm must be +1 or -1")
    if a < 3:
        raise PreconditionError("norm +1 needs a >= 3")
    return NumberField((1, -a, 1), a - 1, a, "beta").generator()


def odd_index_denominators(a: int, bound: int) -> list[int]:
    """q_1, q_3, q_5, ... <= ``bound`` for the root of x^2 - a x + 1: 1, a, then
    the two-step recurrence q_{2i+3} = a q_{2i+1} - q_{2i-1}."""
    odd = [1, a]
    while odd[-1] <= bound:
        odd.append(a * odd[-1] - odd[-2])
    return [t for t in odd if t <= bound]


def _norm_plus_odd_certificate(gamma: FieldElement, a: int) -> tuple[Certificate, FieldElement]:
    """Odd-index convergent denominators of gamma with gamma^2 = a*gamma - 1.

    Returns the filtered certificate and the exact constant v1 with
    q_{2i+1} = v1 * gamma^i + o(1).  A member is an unfiltered member, so
    the product proposes the unfiltered set's Legendre candidates.
    """
    if not (gamma * gamma - a * gamma + 1).is_zero():
        raise PreconditionError("gamma must satisfy gamma^2 = a*gamma - 1")
    _require_finitely_many_doubles(a * a - 4, f"root of x^2 - {a}x + 1")
    # from the convergent denominators q0 = q1 = 1, q2 = a - 1, q3 = a
    inv_g = gamma.inverse()
    denom = gamma - inv_g
    u1 = (a - 1 - inv_g) / denom
    v1 = (a - inv_g) / denom
    w = v1 / u1
    base = _half_over_n_certificate(
        gamma, f"denominators with small ||n*gamma||, gamma^2 = {a} gamma - 1"
    )
    wn = Mul(Const(w.field.name, w), N)
    cert = Certificate(
        indicator=ind_and(base.indicator, ind_not(substitute_var(base.indicator, Nint(wn)))),
        target_description=f"odd-index convergent denominators of gamma, gamma^2 = {a} gamma - 1",
        meta={"kind": "odd-denominator-filter", "a": a, "w": repr(w)},
    )
    return cert, v1


def norm_plus_filtered_set(a: int) -> Certificate:
    """The filtered set {n in E' : nint(w*n) not in E'} for beta^2 = a*beta - 1.

    Equal, up to a finite exceptional set, to the odd-index convergent
    denominators of beta (``odd_index_denominators``); requires a >= 4.
    """
    if a < 4:
        raise PreconditionError("the denominator filter needs a >= 4")
    cert, _ = _norm_plus_odd_certificate(quadratic_unit(a, 1), a)
    return cert


def quadratic_pisot_unit_set(a: int, norm: int) -> Certificate:
    """Certificate for {nint(beta^i)} for the quadratic Pisot unit beta.

    ``norm=-1``: beta^2 = a*beta + 1 (a >= 1), built from the basic
    small-distance set and one transfer.  ``norm=+1``: beta^2 = a*beta - 1
    (a >= 3), built from the odd-denominator filter (via beta^2 when a = 3)
    and transfers.  Its oracle is ``nint_powers`` of beta.  For a = 3 the
    indicator is the OR of two halves, which proposes both halves' points.
    """
    beta = quadratic_unit(a, norm)
    sign = "-" if norm == -1 else "+"
    description = f"nearest integers to powers of the root of x^2 - {a}x {sign} 1"
    if norm == -1:
        base = fibonacci_like_set(a)
        u = residue_coefficient(_fibonacci_like(a), beta.field)
        cert = scaled_set_transfer(base, u, description)
        cert.meta["construction"] = f"quadratic a={a} norm=-1"
        return cert
    if a >= 4:
        odd_cert, v1 = _norm_plus_odd_certificate(beta, a)
        cert = scaled_set_transfer(odd_cert, v1, description)
        cert.meta["construction"] = f"quadratic a={a} norm=+1"
        return cert
    # a = 3: pass to beta^2, which satisfies x^2 = 7x - 1, then rejoin halves
    gamma = beta * beta
    odd_cert, v1g = _norm_plus_odd_certificate(gamma, 7)
    even = scaled_set_transfer(
        odd_cert, v1g, "nearest integers to even powers of the root of x^2 - 3x + 1"
    )
    odd_powers = scaled_set_transfer(
        even, beta.inverse(), "nearest integers to odd powers of the root of x^2 - 3x + 1"
    )
    return Certificate(
        indicator=ind_or(even.indicator, odd_powers.indicator),
        target_description=description,
        meta={"construction": "quadratic a=3 norm=+1"},
    )
