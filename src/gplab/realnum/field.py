"""Real algebraic number fields of degree 2 or 3 with exact arithmetic.

Elements are coordinate vectors modulo the minimal polynomial, so zero
tests, integrality tests and comparisons inside one field are exact.  A
field designates one real root of its minimal polynomial by an isolating
interval supplied at construction; the interval is validated (exactly one
root, by Sturm counting) and refined on demand by bisection.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from ..errors import DivisionByZero, PreconditionError
from .polys import (
    count_real_roots,
    is_irreducible_low_degree,
    poly_eval,
    poly_eval_interval,
    poly_ext_gcd,
    poly_trim,
)

Rat = Union[int, Fraction]


class NumberField:
    """Q(beta) for beta the unique root of ``minpoly`` in ``[lo, hi]``."""

    def __init__(self, minpoly: Sequence[int], lo: Rat, hi: Rat, name: str = "beta"):
        coeffs = tuple(int(c) for c in minpoly)
        if len(coeffs) - 1 not in (2, 3) or coeffs[-1] != 1:
            raise PreconditionError("minimal polynomial must be monic of degree 2 or 3")
        if not is_irreducible_low_degree(coeffs):
            raise PreconditionError(f"{coeffs} is reducible over Q")
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise PreconditionError("isolating interval must be nonempty")
        fr = [Fraction(c) for c in coeffs]
        if count_real_roots(fr, lo, hi) != 1:
            raise PreconditionError(f"[{lo}, {hi}] does not isolate exactly one root of {coeffs}")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self.isolating_interval = (lo, hi)
        self._frpoly = tuple(fr)
        self._lo, self._hi = lo, hi
        self._dyadic_roots: dict[int, tuple[int, int]] = {}  # see dyadic_enclosure
        # ensure strict sign change so bisection is well-defined
        while poly_eval(fr, self._lo) == 0 or poly_eval(fr, self._hi) == 0:
            # rational endpoints are never roots of an irreducible polynomial
            raise PreconditionError("isolating endpoints must not be roots")
        self._sign_lo = 1 if poly_eval(fr, self._lo) > 0 else -1
        # reduction table: beta^k for k = degree .. 2*degree-2, as coordinates
        self._red: list[tuple[Fraction, ...]] = []
        base = [-Fraction(c) for c in coeffs[:-1]]
        self._red.append(tuple(base))
        for _ in range(self.degree - 2):
            shifted = [Fraction(0)] + list(self._red[-1][:-1])
            top = self._red[-1][-1]
            self._red.append(tuple(s + top * b for s, b in zip(shifted, base)))

    # -- equality: structural, so reparsed fields compare equal ------------
    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self.isolating_interval == other.isolating_interval
        )

    def __hash__(self):
        return hash((self.minpoly, self.isolating_interval))

    def __repr__(self):
        return f"NumberField({self.minpoly}, {self.isolating_interval[0]}, {self.isolating_interval[1]})"

    def root_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Refine the designated root's interval to at most ``width`` wide."""
        while self._hi - self._lo > width:
            mid = (self._lo + self._hi) / 2
            if (poly_eval(self._frpoly, mid) > 0) == (self._sign_lo > 0):
                self._lo = mid
            else:
                self._hi = mid
        return self._lo, self._hi

    # -- element constructors ----------------------------------------------
    def element(self, *coords: Rat) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise PreconditionError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def zero(self) -> "FieldElement":
        return self.element()

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        return self.element(0, 1)

    def from_rational(self, q: Rat) -> "FieldElement":
        return self.element(Fraction(q))

    # -- conjugate data ------------------------------------------------------
    def quadratic_conjugate(self, x: "FieldElement") -> "FieldElement":
        """Image of x under the nontrivial automorphism (degree 2 only)."""
        if self.degree != 2:
            raise PreconditionError("conjugate automorphism only for degree 2")
        a, b = x.coords
        # beta' = -c1 - beta
        c1 = Fraction(self.minpoly[1])
        return self.element(a - b * c1, -b)

    def complex_pair_real_part(self) -> "FieldElement":
        """Re of the complex conjugate pair, for cubics with one real root."""
        if self.degree != 3:
            raise PreconditionError("complex pair only for degree 3")
        # sum of roots = -c2
        c2 = Fraction(self.minpoly[2])
        return (self.element(-c2) - self.generator()) * Fraction(1, 2)

    def complex_pair_modulus_sq(self) -> "FieldElement":
        if self.degree != 3:
            raise PreconditionError("complex pair only for degree 3")
        # product of roots = -c0, so |alpha|^2 = -c0 / beta
        c0 = Fraction(self.minpoly[0])
        return self.element(-c0) * self.generator().inverse()


class FieldElement:
    """Element of a :class:`NumberField`, exact coordinates in the generator."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise PreconditionError("element is irrational")
        return self.coords[0]

    # -- ring operations -----------------------------------------------------
    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, tuple(a * q for a in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                red = self.field._red[k - d]
                for i in range(d):
                    out[i] += c * red[i]
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        if self.is_rational():
            return self.field.from_rational(1 / self.coords[0])
        g, s, _ = poly_ext_gcd(poly_trim(self.coords), self.field._frpoly)
        # gcd is a nonzero constant since the minimal polynomial is irreducible
        c = g[0]
        inv = [a / c for a in s]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return FieldElement(self.field, tuple(inv[: self.field.degree]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivisionByZero("division by zero")
            return self * (1 / q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- embedding -----------------------------------------------------------
    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval of at most ``width`` containing the element."""
        if self.is_rational():
            q = self.coords[0]
            return q, q
        w = self.field._hi - self.field._lo
        while True:
            lo, hi = self.field.root_enclosure(w)
            vlo, vhi = poly_eval_interval(self.coords, lo, hi)
            if vhi - vlo <= width:
                return vlo, vhi
            w = w / 4

    def sign(self) -> int:
        """Exact sign; 0 precisely when the element is zero."""
        if self.is_rational():
            q = self.coords[0]
            return (q > 0) - (q < 0)
        width = Fraction(1, 4)
        while True:
            lo, hi = self.enclosure(width)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # an irrational element is nonzero: keep refining
            width = width / 16

    def compare(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise PreconditionError("cannot compare across fields exactly")
        return (self - o).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    def abs(self) -> "FieldElement":
        return self if self.sign() >= 0 else -self

    # -- integer part family ---------------------------------------------------
    def floor(self) -> int:
        if self.is_rational():
            q = self.coords[0]
            return q.numerator // q.denominator
        width = Fraction(1, 4)
        while True:
            lo, hi = self.enclosure(width)
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi:
                return flo
            width = width / 16

    def frac(self) -> "FieldElement":
        return self - self.floor()

    def nint(self) -> int:
        return (self + Fraction(1, 2)).floor()

    def dist_to_int(self) -> "FieldElement":
        """Distance to the nearest integer, as an exact field element."""
        f = self.frac()
        one_minus = 1 - f
        return f if f.compare(one_minus) <= 0 else one_minus

    def to_float(self) -> float:
        lo, hi = self.enclosure(Fraction(1, 2**60))
        return float((lo + hi) / 2)

    def __repr__(self):
        name = self.field.name
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{name}")
            else:
                terms.append(f"{c}*{name}^{i}")
        return " + ".join(terms) if terms else "0"


_GUARD_BITS = 4


def dyadic_enclosure(x: FieldElement, bits: int) -> tuple[int, int]:
    """Integers ``lo <= x * 2^bits <= hi`` with ``hi - lo <= 2``.

    The designated root's interval is rounded outward to the dyadic grid
    ``2^-g``, ``g = bits`` + the bits of a bound on ``x``'s slope + guard
    bits, and ``x`` is evaluated on that short interval by interval Horner
    in integer arithmetic.  This stays cheap when the field keeps a far
    narrower root interval (whose endpoints have huge denominators) from an
    earlier exact query.  If the result is wider than ``2^-bits`` (the
    postcondition) the grid is refined and the evaluation repeated.
    """
    coords = x.coords
    if x.is_rational():
        q = coords[0]
        return (q.numerator << bits) // q.denominator, -((-q.numerator << bits) // q.denominator)
    # x = sum(p_i beta^i) / den with integer p_i
    den = math.lcm(*(c.denominator for c in coords))
    nums = [c.numerator * (den // c.denominator) for c in coords]
    # |x'| <= sum(i |p_i| r^(i-1)) / den for beta within r of 0, and the
    # rounded root interval is at most 3 * 2^-g wide
    r = math.ceil(max(abs(c) for c in x.field.isolating_interval))
    slope = sum(i * abs(p) * r ** (i - 1) for i, p in enumerate(nums) if i)
    g = bits + max(0, (3 * slope).bit_length() - den.bit_length() + 1) + _GUARD_BITS
    while True:
        blo, bhi = _dyadic_root(x.field, g)
        lo = hi = nums[-1] << g
        for p in reversed(nums[:-1]):
            cands = (lo * blo, lo * bhi, hi * blo, hi * bhi)
            lo = (min(cands) >> g) + (p << g)
            hi = -((-max(cands)) >> g) + (p << g)
        # den * x * 2^g lies in [lo, hi]
        if (hi - lo) << bits <= den << g:
            return (lo << bits) // (den << g), -((-hi << bits) // (den << g))
        g += _GUARD_BITS


def _dyadic_root(field: NumberField, g: int) -> tuple[int, int]:
    """Integers with the designated root in ``[lo, hi] * 2^-g``, width <= 3."""
    hit = field._dyadic_roots.get(g)
    if hit is None:
        rlo, rhi = field.root_enclosure(Fraction(1, 1 << g))
        hit = ((rlo.numerator << g) // rlo.denominator, -((-rhi.numerator << g) // rhi.denominator))
        field._dyadic_roots[g] = hit
    return hit
