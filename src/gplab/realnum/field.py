"""Real algebraic number fields of degree 2 or 3 with exact arithmetic.

An element is a vector of integer coordinates in the powers of the
generator over one positive common denominator, kept in lowest terms, so
equality and hashing are structural and every ring operation runs on
Python ints (Cohen, *A Course in Computational Algebraic Number Theory*,
GTM 138, 4.2).  Products are reduced with an integer table built from the
monic minimal polynomial.

A field designates one real root of its minimal polynomial by an isolating
interval supplied at construction; the interval is validated (exactly one
root, by a Sturm count on integer pseudo-remainders, with the signs at its
rational ends from integer Horner evaluation).  The root is kept as a unit
bracket ``(a, a + 1) * 2^-g`` on a dyadic grid inside that interval,
certified by opposite signs of the integer-scaled minimal polynomial at its
two ends, and refined on demand by integer Newton steps (Moore, *Interval Analysis*,
1966) with integer bisection as the fallback.  Signs, floors and enclosures
of elements come from :func:`dyadic_enclosure`, never from floats: one
straight-line pass over the coordinates, unrolled for degree 2 and 3, that
bounds the slope and evaluates the element exactly in integers at the
bracket's lower end, then widens by slope times bracket width (the
mean-value form).  Its grid and widening are those of the general
interval Horner evaluation through the polynomial helpers, so it returns
the same integers.  ``sign`` and ``floor`` call it once per rung of a
precision ladder that doubles from 64 bits; subtraction, like addition,
works on the coordinates directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from ..errors import DivisionByZero, PreconditionError
from .polys import (
    count_real_roots,
    is_irreducible_low_degree,
    poly_derivative,
    poly_sign,
    scaled_eval,
)

Rat = Union[int, Fraction]

_BASE_GRID = 32  # grid bits of the first certified root bracket
_NEWTON_SLACK = 8  # one Newton step from grid g aims at grid 2g - slack
_GUARD_BITS = 4
_FIRST_BITS = 64  # first rung of the sign/floor ladder; each next rung doubles


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
        if count_real_roots(coeffs, lo, hi) != 1:
            raise PreconditionError(f"[{lo}, {hi}] does not isolate exactly one root of {coeffs}")
        self._sign_lo = poly_sign(coeffs, lo)
        if self._sign_lo == 0 or poly_sign(coeffs, hi) == 0:
            # rational endpoints are never roots of an irreducible polynomial
            raise PreconditionError("isolating endpoints must not be roots")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self.isolating_interval = (lo, hi)
        self._hash = hash((coeffs, self.isolating_interval))
        self._dpoly = poly_derivative(coeffs)
        # bounds |beta| on every root bracket, which stays within 1 of [lo, hi]
        self._root_bound = math.ceil(max(abs(lo), abs(hi))) + 1
        # reduction table: beta^k for k = degree .. 2*degree-2, as integer coordinates
        base = tuple(-c for c in coeffs[:-1])
        red = [base]
        for _ in range(self.degree - 2):
            prev = red[-1]
            red.append(tuple(s + prev[-1] * b for s, b in zip((0,) + prev[:-1], base)))
        self._red = tuple(red)
        self._root_grid = self._base_bracket()  # (g, a): root in (a, a + 1) * 2^-g

    # -- equality: structural, so reparsed fields compare equal ------------
    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self.isolating_interval == other.isolating_interval
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NumberField({self.minpoly}, {self.isolating_interval[0]}, {self.isolating_interval[1]})"

    # -- the designated root on the dyadic grid ------------------------------
    def _left_of_root(self, x: int, g: int) -> bool:
        """Whether ``x * 2^-g`` (a point of the isolating interval) lies below the root."""
        return (scaled_eval(self.minpoly, x, g) > 0) == (self._sign_lo > 0)

    def _bisect(self, a: int, b: int, g: int, width: int = 1) -> tuple[int, int]:
        """Shrink a certified bracket ``a < root * 2^g < b`` to width at most ``width``."""
        while b - a > width:
            m = (a + b) >> 1
            if self._left_of_root(m, g):
                a = m
            else:
                b = m
        return a, b

    def _newton_cell(self, lo: int, hi: int, t: int) -> int:
        """The root's cell ``floor(root * 2^t)`` inside a certified bracket
        ``lo < root * 2^t < hi``: one integer Newton step from the bracket's
        midpoint, after which the root is within one cell of a good iterate;
        integer bisection inside the bracket finds the cell when the step
        misses."""
        x = (lo + hi) >> 1
        slope = scaled_eval(self._dpoly, x, t)
        if slope:
            x = min(max(x - scaled_eval(self.minpoly, x, t) // slope, lo + 1), hi - 1)
        if self._left_of_root(x, t):
            return x if not self._left_of_root(x + 1, t) else self._bisect(x + 1, hi, t)[0]
        return x - 1 if self._left_of_root(x - 1, t) else self._bisect(lo, x - 1, t)[0]

    def _base_bracket(self) -> tuple[int, int]:
        """First unit bracket: grid points inside the isolating interval,
        bisected to the width a Newton rung of :meth:`root_enclosure` starts
        from, then closed to the root's cell by that rung."""
        lo, hi = self.isolating_interval
        g = _BASE_GRID
        while True:
            a = -((-lo.numerator << g) // lo.denominator)  # ceil(lo * 2^g)
            b = (hi.numerator << g) // hi.denominator  # floor(hi * 2^g)
            if a < b and self._left_of_root(a, g) and not self._left_of_root(b, g):
                a, b = self._bisect(a, b, g, 1 << ((g - _NEWTON_SLACK) >> 1))
                return g, self._newton_cell(a, b, g)
            g += _BASE_GRID

    def root_enclosure(self, bits: int) -> tuple[int, int]:
        """Integers ``lo <= root * 2^bits <= hi`` with ``hi - lo <= 2``.

        The finest certified unit bracket ``(a, a + 1) * 2^-g`` is rounded
        outward to the ``2^-bits`` grid; it is refined first when ``g < bits``.
        Each refinement is a Newton rung (:meth:`_newton_cell`) on the
        ``2^-t`` grid, ``t <= 2g - slack``, from the current bracket, so
        every bracket is certified and nested in the isolating interval.
        """
        cur, a = self._root_grid
        while cur < bits:
            t = min(bits, 2 * cur - _NEWTON_SLACK)
            k = t - cur
            a = self._newton_cell(a << k, (a + 1) << k, t)
            cur = t
        self._root_grid = (cur, a)
        k = cur - bits
        return a >> k, -(-(a + 1) >> k)

    # -- integer coordinate arithmetic -------------------------------------------
    def _mul_num(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Numerators of a product: schoolbook product, then the reduction table."""
        if self.degree == 2:
            a0, a1 = a
            b0, b1 = b
            top = a1 * b1
            r0, r1 = self._red[0]
            return (a0 * b0 + top * r0, a0 * b1 + a1 * b0 + top * r1)
        a0, a1, a2 = a
        b0, b1, b2 = b
        p3 = a1 * b2 + a2 * b1
        p4 = a2 * b2
        (s0, s1, s2), (t0, t1, t2) = self._red
        return (
            a0 * b0 + p3 * s0 + p4 * t0,
            a0 * b1 + a1 * b0 + p3 * s1 + p4 * t1,
            a0 * b2 + a1 * b1 + a2 * b0 + p3 * s2 + p4 * t2,
        )

    def _mul_gen(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Numerators of ``v * beta``."""
        top = v[-1]
        return tuple(s + top * b for s, b in zip((0,) + v[:-1], self._red[0]))

    # -- element constructors ----------------------------------------------
    def element(self, *coords: Rat) -> "FieldElement":
        if len(coords) > self.degree:
            raise PreconditionError("too many coordinates")
        cs = [Fraction(c) for c in coords] + [Fraction(0)] * (self.degree - len(coords))
        # over the lcm of reduced denominators the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in cs))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def from_rational(self, q: Rat) -> "FieldElement":
        if isinstance(q, int):
            return FieldElement(self, (q,) + (0,) * (self.degree - 1), 1)
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    # -- conjugate data ------------------------------------------------------
    def quadratic_conjugate(self, x: "FieldElement") -> "FieldElement":
        """Image of x under the nontrivial automorphism (degree 2 only)."""
        if self.degree != 2:
            raise PreconditionError("conjugate automorphism only for degree 2")
        a, b = x.num
        # beta' = -c1 - beta; the numerators stay coprime to the denominator
        return FieldElement(self, (a - b * self.minpoly[1], -b), x.den)

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


def _reduced(field: NumberField, num: tuple[int, ...], den: int) -> "FieldElement":
    """The element ``num / den`` (``den != 0``) in lowest terms with ``den > 0``."""
    if den < 0:
        num = tuple(-n for n in num)
        den = -den
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    return FieldElement(field, num, den)


class FieldElement:
    """Element ``sum(num[i] * beta^i) / den`` of a :class:`NumberField`.

    ``den > 0`` and ``gcd(den, *num) == 1``; the constructor trusts its
    arguments, so build elements through the field or the operators.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Rational coordinates in the powers of the generator."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise PreconditionError("element is irrational")
        return Fraction(self.num[0], self.den)

    # -- ring operations -----------------------------------------------------
    def _same_field(self, other: "FieldElement") -> bool:
        return other.field is self.field or other.field == self.field

    def __add__(self, other):
        if isinstance(other, FieldElement):
            if not self._same_field(other):
                return NotImplemented
            d1, d2 = self.den, other.den
            if d1 == d2:
                return _reduced(self.field, tuple(a + b for a, b in zip(self.num, other.num)), d1)
            num = tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num))
            return _reduced(self.field, num, d1 * d2)
        if isinstance(other, (int, Fraction)):
            return self._add_rational(other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def _add_rational(self, p: int, q: int) -> "FieldElement":
        """``self + p/q`` for integers p and q > 0."""
        n, d = self.num, self.den
        if q == 1:
            return FieldElement(self.field, (n[0] + p * d,) + n[1:], d)
        return _reduced(self.field, (n[0] * q + p * d,) + tuple(x * q for x in n[1:]), d * q)

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            if not self._same_field(other):
                return NotImplemented
            d1, d2 = self.den, other.den
            if d1 == d2:
                return _reduced(self.field, tuple(a - b for a, b in zip(self.num, other.num)), d1)
            num = tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num))
            return _reduced(self.field, num, d1 * d2)
        if isinstance(other, (int, Fraction)):
            return self._add_rational(-other.numerator, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            n, d = self.num, self.den
            if q == 1:
                return FieldElement(self.field, (p * d - n[0],) + tuple(-x for x in n[1:]), d)
            num = (p * d - n[0] * q,) + tuple(-x * q for x in n[1:])
            return _reduced(self.field, num, d * q)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if not self._same_field(other):
                return NotImplemented
            return _reduced(
                self.field, self.field._mul_num(self.num, other.num), self.den * other.den
            )
        if isinstance(other, int):
            return _reduced(self.field, tuple(a * other for a in self.num), self.den)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _reduced(self.field, tuple(a * p for a in self.num), self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return self.field.one()
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def inverse(self) -> "FieldElement":
        """Exact inverse: ``den`` times the first adjugate column over the determinant.

        The columns of the multiplication-by-``num`` matrix are
        ``num * beta^j``; its inverse applied to the coordinates of 1 gives
        the coordinates of ``1 / num``, all in integers.
        """
        num, den, field = self.num, self.den, self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        if self.is_rational():
            return _reduced(field, (den,) + (0,) * (field.degree - 1), num[0])
        if field.degree == 2:
            (m00, m10), (m01, m11) = num, field._mul_gen(num)
            adj = (m11, -m10)
            det = m00 * m11 - m01 * m10
        else:
            c1 = field._mul_gen(num)
            (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = num, c1, field._mul_gen(c1)
            adj = (m11 * m22 - m12 * m21, m12 * m20 - m10 * m22, m10 * m21 - m11 * m20)
            det = m00 * adj[0] + m01 * adj[1] + m02 * adj[2]
        return _reduced(field, tuple(den * c for c in adj), det)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self * (1 / Fraction(other))
        if isinstance(other, FieldElement):
            if not self._same_field(other):
                return NotImplemented
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    # -- order -----------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign; 0 precisely when the element is zero."""
        if self.is_rational():
            q = self.num[0]
            return (q > 0) - (q < 0)
        bits = _FIRST_BITS
        while True:
            lo, hi = dyadic_enclosure(self, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # an irrational element is nonzero: the ladder always ends
            bits *= 2

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)) or (
            isinstance(other, FieldElement) and self._same_field(other)
        ):
            return (self - other).sign()
        raise PreconditionError("cannot compare across fields exactly")

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
            return self._same_field(other) and self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def abs(self) -> "FieldElement":
        return self if self.sign() >= 0 else -self

    # -- integer part family ---------------------------------------------------
    def floor(self) -> int:
        if self.is_rational():
            return self.num[0] // self.den
        bits = _FIRST_BITS
        while True:
            lo, hi = dyadic_enclosure(self, bits)
            if lo >> bits == hi >> bits:
                return lo >> bits
            bits *= 2

    def frac(self) -> "FieldElement":
        return self - self.floor()

    def nint(self) -> int:
        """floor(x + 1/2), which is (floor(2x) + 1) // 2; 2x is in lowest
        terms as the halved denominator where it is even, else as the doubled
        numerators."""
        num, den = self.num, self.den
        if den & 1:
            twice = FieldElement(self.field, tuple(2 * c for c in num), den)
        else:
            twice = FieldElement(self.field, num, den >> 1)
        return (twice.floor() + 1) >> 1

    def dist_to_int(self) -> "FieldElement":
        """Distance to the nearest integer, as an exact field element."""
        f = self.frac()
        one_minus = 1 - f
        return f if f.compare(one_minus) <= 0 else one_minus

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


def dyadic_enclosure(x: FieldElement, bits: int) -> tuple[int, int]:
    """Integers ``lo <= x * 2^bits <= hi`` with ``hi - lo <= 2``.

    One straight-line pass over the coordinates ``p_i`` of ``den * x``,
    unrolled for degree 2 and 3: the slope bound ``s = sum(i |p_i|
    r^(i-1))`` on ``|beta| <= r``; the designated root's bracket ``[blo,
    bhi] * 2^-g`` on the grid ``g = bits + k``, with ``k`` the bits of
    ``3s`` over those of ``den`` plus guard bits; ``den * x`` evaluated
    exactly in integers at ``blo * 2^-g`` by Horner's rule; and a widening
    by ``s`` times the bracket width (the mean-value form).  The widened
    interval is at most ``1 + 4s < 2^(k + bitlength(den) - 1) <= den * 2^k``
    wide, so this one grid always meets the postcondition.  A rational
    ``x`` is rounded outward directly.
    """
    field, den = x.field, x.den
    cubic = field.degree == 3
    if cubic:
        p0, p1, p2 = x.num
        slope = abs(p1) + 2 * abs(p2) * field._root_bound
    else:
        p0, p1 = x.num
        slope = abs(p1)
    if not slope:
        return (p0 << bits) // den, -((-p0 << bits) // den)
    k = max(0, (3 * slope).bit_length() - den.bit_length() + 1) + _GUARD_BITS
    g = bits + k
    blo, bhi = field.root_enclosure(g)
    spread = slope * (bhi - blo)
    if cubic:
        # acc = den * x(blo * 2^-g) * 2^(2g), so den * x * 2^g lies in [lo, hi]
        acc = (p2 * blo + (p1 << g)) * blo + (p0 << (2 * g))
        lo = (acc >> g) - spread
        hi = -(-acc >> g) + spread
    else:
        acc = p1 * blo + (p0 << g)
        lo = acc - spread
        hi = acc + spread
    return (lo >> k) // den, -((-hi >> k) // den)
