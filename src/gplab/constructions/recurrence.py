"""Integer linear recurrences and their dominant-root data."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PreconditionError, ZeroSolution
from ..realnum import FieldElement, NumberField
from ..realnum.polys import count_real_roots, poly_derivative, poly_eval


@dataclass(frozen=True)
class LinearRecurrence:
    """x_{i+d} = c_1 x_{i+d-1} + ... + c_d x_i with integer data."""

    coefficients: tuple[int, ...]
    initial: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if not self.coefficients:
            raise PreconditionError("empty coefficient list")
        if self.coefficients[-1] == 0:
            raise PreconditionError("trailing coefficient must be nonzero")
        if len(self.initial) != len(self.coefficients):
            raise PreconditionError("need as many initial values as coefficients")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def term(self, i: int) -> int:
        if i < self.order:
            return self.initial[i]
        window = list(self.initial)
        for _ in range(self.order, i + 1):
            nxt = sum(c * window[-j - 1] for j, c in enumerate(self.coefficients))
            window = window[1:] + [nxt]
        return window[-1]

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Monic, ascending coefficients: x^d - c_1 x^{d-1} - ... - c_d."""
        cs = [-c for c in reversed(self.coefficients)]
        return tuple(cs) + (1,)


def recurrence_terms(rec: LinearRecurrence, bound: int) -> list[int]:
    """All terms <= bound, in generation order.

    Generation stops once ``order`` consecutive terms exceed the bound,
    which for the dominant-root recurrences used here guarantees that no
    later term returns below it.
    """
    out = []
    window = list(rec.initial)
    for t in window:
        if t <= bound:
            out.append(t)
    guard = 0
    steps = 0
    while guard < rec.order:
        nxt = sum(c * window[-j - 1] for j, c in enumerate(rec.coefficients))
        window = window[1:] + [nxt]
        if nxt <= bound:
            out.append(nxt)
            guard = 0
        else:
            guard += 1
        steps += 1
        if steps > 10_000_000:
            raise PreconditionError("runaway recurrence generation")
    return out


def _check_pisot(rec: LinearRecurrence, fld: NumberField) -> None:
    if rec.characteristic_polynomial() != fld.minpoly:
        raise PreconditionError("characteristic polynomial does not match the field")
    beta = fld.generator()
    if (beta - 1).sign() <= 0:
        raise PreconditionError("dominant root must exceed 1")
    if fld.degree == 2:
        conj = fld.quadratic_conjugate(beta)
        if not ((conj - 1).sign() < 0 and (conj + 1).sign() > 0):
            raise PreconditionError("conjugate root must have modulus below 1")
    else:
        if count_real_roots(fld.minpoly) != 1:
            raise PreconditionError("cubic must have a unique real root")
        if (fld.complex_pair_modulus_sq() - 1).sign() >= 0:
            raise PreconditionError("complex conjugates must have modulus below 1")


def residue_coefficient(rec: LinearRecurrence, fld: NumberField) -> FieldElement:
    """The constant u with terms = u * beta^i + o(1), exactly in the field.

    Computed as the partial-fraction residue of the generating function at
    1/beta: u = beta^(d-1) * Q(1/beta) / P'(beta), where Q collects the
    initial conditions.
    """
    _check_pisot(rec, fld)
    d = rec.order
    beta = fld.generator()
    # numerator of the generating function: Q(x) = sum_j (R_j - sum_k c_k R_{j-k}) x^j
    r, c = rec.initial, rec.coefficients
    qcoeffs = [r[j] - sum(c[k - 1] * r[j - k] for k in range(1, j + 1)) for j in range(d)]
    q_at = poly_eval(qcoeffs, beta.inverse())
    u = beta ** (d - 1) * q_at * poly_eval(poly_derivative(fld.minpoly), beta).inverse()
    if u.is_zero():
        raise ZeroSolution("dominant-root coefficient is zero")
    return u
