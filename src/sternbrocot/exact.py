"""Exact number types: rational mediants and the quadratic field Q(sqrt5).

`fractions.Fraction` serves as the rational type throughout the package;
it already guarantees canonical reduced form (gcd 1, positive denominator)
and an exact total order. `QuadSurd` adds the one irrationality the
library needs: numbers a + b*sqrt(5), which house the golden-ratio
conjugate tau = (sqrt5 - 1)/2 and the split parameter tau**2 = (3 - sqrt5)/2.
Powers are `**` (a negative exponent inverts), the coefficients are `.a`
and `.b`, and `parse_quadsurd`/`str` read and write the text form "a+b√5".
Every split parameter, rational or not, is checked by `_check_lambda`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import isqrt


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """Mediant (p+r)/(q+s) of p/q and r/s.

    For neighbouring fractions (|p*s - r*q| = 1) this is the unique
    fraction of smallest denominator strictly between them.
    """
    if x == y:
        raise ValueError("mediant needs two distinct fractions")
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


@total_ordering
class QuadSurd:
    """An element a + b*sqrt(5) of Q(sqrt5) with exact Fraction coefficients.

    sqrt(5) is irrational, so the representation is unique: equality is
    coefficient equality, and ordering reduces to an exact sign
    computation with no floating point anywhere. Instances are immutable
    and safe to share.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    @staticmethod
    def _coerce(other: object) -> "QuadSurd | None":
        if isinstance(other, QuadSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadSurd(other)
        return None

    def sign(self) -> int:
        """Exact sign of the value: -1, 0 or +1."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Coefficients of opposite sign: |a| against |b|*sqrt5, settled by
        # squaring. a*a == 5*b*b cannot happen for nonzero rationals.
        if a > 0:
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        # Rational values must hash like their Fraction equivalents.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b)

    def __abs__(self) -> "QuadSurd":
        return -self if self.sign() < 0 else self

    def __add__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(o.a - self.a, o.b - self.b)

    def __mul__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        # 1/(a + b*sqrt5) = (a - b*sqrt5) / (a^2 - 5 b^2); the norm only
        # vanishes for the zero element.
        if not self:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        norm = self.a * self.a - 5 * self.b * self.b
        return QuadSurd(self.a / norm, -self.b / norm)

    def __truediv__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QuadSurd":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadSurd(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        return f"QuadSurd({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        surd = f"{abs(self.b)}√5"
        if self.a == 0:
            return surd if self.b > 0 else f"-{surd}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{surd}"


SQRT5 = QuadSurd(0, 1)
#: The golden-ratio conjugate (sqrt5 - 1)/2, fixed point of x -> 1/(1+x).
TAU = QuadSurd(Fraction(-1, 2), Fraction(1, 2))
#: tau**2 = (3 - sqrt5)/2 = 1 - tau, the distinguished split parameter.
TAU2 = QuadSurd(Fraction(3, 2), Fraction(-1, 2))


def _check_lambda(lam: Fraction | QuadSurd) -> None:
    if not 0 < lam < 1:
        raise ValueError("the split parameter must lie strictly between 0 and 1")


def _zero_one(lam: Fraction | QuadSurd) -> tuple[Fraction | QuadSurd, Fraction | QuadSurd]:
    """0 and 1 in the type of lam: Fraction for a rational split, else QuadSurd."""
    zero = lam - lam
    return zero, zero + 1


def _floor_int_sqrt5(n: int) -> int:
    """floor(n * sqrt5) for an integer n.

    n*sqrt5 is irrational for n != 0, so the ceiling of a negative
    multiple is floor + 1 of its mirror image.
    """
    if n >= 0:
        return isqrt(5 * n * n)
    return -isqrt(5 * n * n) - 1


def _floor_scaled(x: QuadSurd, power: int) -> int:
    """floor(x * 10**power), exactly.

    With integers P, R and D > 0, floor((P + R*sqrt5)/D) equals
    (P + floor(R*sqrt5)) // D: the fractional part of R*sqrt5 is < 1,
    so the integer numerator P + floor(R*sqrt5) and the true numerator
    always sit in the same length-D window [Q*D, (Q+1)*D).
    """
    scale = 10 ** power
    qa, qb = x.a.denominator, x.b.denominator
    p = x.a.numerator * qb * scale
    r = x.b.numerator * qa * scale
    return (p + _floor_int_sqrt5(r)) // (qa * qb)


def to_decimal(x: QuadSurd | Fraction | int, digits: int) -> str:
    """Decimal string of x rounded half-up to `digits` fractional digits.

    The result differs from x by less than 10**-digits; computed with
    exact integer square roots, no floating point.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if not isinstance(x, QuadSurd):
        x = QuadSurd(x)
    n = (_floor_scaled(x, digits + 1) + 5) // 10
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" rational format (the "/q" may be omitted when q = 1)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


_SURD_RE = re.compile("(?:√5|sqrt5)$")
_SIGN_RE = re.compile("(?<![eE])[+-]")  # a sign not inside an exponent such as 2e-3


def parse_quadsurd(text: str) -> QuadSurd:
    """Parse "a+b√5" (also "a-b√5", "b√5", plain "a", "sqrt5" for "√5", the
    keywords "tau" and "tau2"), where a unit b may be left out ("√5", "3-√5")
    and either coefficient may use exponent notation ("1+2e-3√5")."""
    s = text.strip()
    if s == "tau":
        return TAU
    if s == "tau2":
        return TAU2
    head, count = _SURD_RE.subn("", s)
    if count == 0:
        return QuadSurd(parse_rational(s))
    split = max((sign.start() for sign in _SIGN_RE.finditer(head)), default=0)
    rational, surd = head[:split], head[split:]
    if surd in ("", "+", "-"):
        surd += "1"
    return QuadSurd(parse_rational(rational) if rational else 0, parse_rational(surd))
