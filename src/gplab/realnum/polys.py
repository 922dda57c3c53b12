"""Dense univariate polynomial helpers over the rationals.

Coefficients are stored low degree first, e.g. ``x^2 - x - 1`` is
``(-1, -1, 1)``.  Everything here is exact; these routines back the root
isolation of the number fields and the polynomials of the expression
parser.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def poly_trim(coeffs: Sequence[Fraction]) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Sequence[Fraction]) -> Poly:
    return tuple(Fraction(i) * c for i, c in enumerate(p) if i >= 1)


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_scale(a: Sequence[Fraction], s: Fraction) -> Poly:
    return poly_trim([c * s for c in a])


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Poly, Poly]:
    a = list(poly_trim(a))
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(q), poly_trim(a)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p: Sequence[Fraction]) -> list[Poly]:
    p0 = poly_trim(p)
    p1 = poly_derivative(p0)
    chain = [p0, p1]
    while chain[-1]:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(poly_scale(rem, Fraction(-1)))
    return chain


def _sign_variations(values: list[int]) -> int:
    nz = [v for v in values if v != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def count_real_roots(p: Sequence[Fraction], lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots of ``p`` in ``(lo, hi]`` (Sturm).

    ``None`` endpoints mean -inf / +inf.  ``p`` must be squarefree for the
    count to equal the number of roots; irreducible polynomials always are.
    """
    chain = sturm_chain(p)

    def vals_at(x: Fraction | None, at_plus_inf: bool) -> list[int]:
        out = []
        for q in chain:
            if not q:
                out.append(0)
            elif x is None:
                lead = _sign(q[-1])
                deg = poly_degree(q)
                out.append(lead if (at_plus_inf or deg % 2 == 0) else -lead)
            else:
                out.append(_sign(poly_eval(q, x)))
        return out

    v_lo = _sign_variations(vals_at(lo, at_plus_inf=False))
    v_hi = _sign_variations(vals_at(hi, at_plus_inf=True))
    return v_lo - v_hi


def is_irreducible_low_degree(int_coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q for monic integer polynomials of degree 2 or 3.

    In these degrees reducibility forces a linear factor, hence an integer
    root dividing the constant term.
    """
    cs = [int(c) for c in int_coeffs]
    deg = len(cs) - 1
    if deg not in (2, 3) or cs[-1] != 1:
        raise ValueError("expected a monic integer polynomial of degree 2 or 3")
    c0 = cs[0]
    if c0 == 0:
        return False
    for d in range(1, abs(c0) + 1):
        if abs(c0) % d:
            continue
        for r in (d, -d):
            if poly_eval([Fraction(c) for c in cs], Fraction(r)) == 0:
                return False
    return True
