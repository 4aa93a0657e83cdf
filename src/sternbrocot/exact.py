"""Exact number types: rational mediants and the quadratic field Q(sqrt5).

`fractions.Fraction` serves as the rational type throughout the package;
it already guarantees canonical reduced form (gcd 1, positive denominator)
and an exact total order. `QuadSurd` adds the one irrationality the
library needs: numbers in Q(sqrt5), which house the golden-ratio
conjugate tau = (sqrt5 - 1)/2 and the split parameter tau**2 = (3 - sqrt5)/2.
It stores them as (a + b*phi)/d, phi = (1 + sqrt5)/2 the golden ratio,
three integers in lowest terms (d > 0 and gcd(a, b, d) = 1); tau = phi - 1
and tau**2 = 2 - phi are units of Z[phi], so they and their powers have
d = 1. Its arithmetic, ordering and powers work on those integers alone,
with one gcd per result. Only the boundaries convert to the sqrt5 basis,
by (a + b*phi)/d = (2a + b + b*sqrt5)/(2d): the constructor, which takes
the rational coefficients of a + b*sqrt5, the coefficients `.a` and `.b`,
and `to_decimal`. Powers are `**` (a negative exponent inverts), and
`parse_quadsurd`/`str` read and write the text form "a+b√5". Every split
parameter, rational or not, is checked by `_check_lambda`;
`parse_rational` refuses an exponent whose 10**N would take longer to
build than to read.

The routes to the singular function g share one integer kernel here,
`_phi_split`, `_phi_pow` and `_phi_value`: a split parameter of either
type is (u + v*phi)/d over Z[phi], a QuadSurd's own integers or a
rational's numerator and denominator, the g routes carry integer
numerators over powers of d, and a result is reduced once, into the
parameter's type; for a Fraction that takes a gcd against d alone when
it can (`_phi_value`). Every size budget of the package lives here:
`MAX_EXACT_BITS` is theirs, `MAX_ELEMENTS` that of every tuple the
library builds, and `MAX_OUTPUT_BYTES` (`check_output`) that of a
command's text. Range checks on Fractions, here (`_check_lambda`) and
in `cf`, `stern`, `singular` and `dist`, compare the numerator and
denominator as integers, not through Fraction's order.

`_Record` is the base of the package's immutable value objects
(`RegularCF`, `ReducedRCF`, `SternBrocotLevel`, `XiTreeNode`,
`XiSequence`, `ConvergenceRow`, `ConvergenceReport`). A subclass names
its fields in `__slots__`, and the base derives from those names the
constructor, which binds values by position or by name in slot order and
raises TypeError for a missing, surplus, unknown or repeated field, as a
Python signature does; the refusal to assign or delete; equality within
one class; the hash of the field tuple; the repr `Name(field=value, ...)`;
and `__reduce__`, so that copy and pickle rebuild a record through its
constructor. `RegularCF`, `ReducedRCF` and `XiTreeNode` keep their own
`__init__`, which validates its fields and sets them directly: they are
built once per expansion or tree node, where the generic binding would
cost about three times a direct one-field constructor. The base stands
in for frozen dataclasses: importing `dataclasses` pulls in `inspect`
and `ast`, and builds each class's methods with `exec`, at every start
of the CLI.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm


class _Record:
    """An immutable value with the fields named in its class's __slots__."""

    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        names = self.__slots__
        fields = dict(zip(names, values), **named)
        if len(values) + len(named) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}({', '.join(names)}) takes each field "
                            "once, by position or by name")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """Mediant (p+r)/(q+s) of p/q and r/s.

    For neighbouring fractions (|p*s - r*q| = 1) this is the unique
    fraction of smallest denominator strictly between them.
    """
    if x == y:
        raise ValueError("mediant needs two distinct fractions")
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


def _sign(a: int, b: int) -> int:
    """Exact sign of a + b*phi for integers a and b: -1, 0 or +1."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # Opposite signs: the conjugate a + b*(1 - phi) has the sign of a, so the
    # norm a^2 + ab - b^2 of the product, never 0 for b != 0, settles it.
    return 1 if (a * (a + b) > b * b) == (a > 0) else -1


def _lowest(a: int, b: int, d: int) -> "QuadSurd":
    """(a + b*phi)/d in lowest terms, for integers with d != 0."""
    g = gcd(d, a, b)  # d first: it is small for the powers of tau and their sums
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = object.__new__(QuadSurd)
    x._a, x._b, x._d = a, b, d
    return x


@total_ordering
class QuadSurd:
    """An element of Q(sqrt5), held as three integers (a + b*phi)/d.

    phi = (1 + sqrt5)/2 is the golden ratio, and the integers are in
    lowest terms: d > 0 and gcd(a, b, d) = 1. phi is irrational, so that
    form is unique: equality compares the stored integers, and ordering
    reduces to an exact integer sign computation with no floating point
    anywhere. tau, tau**2 and their powers are units of Z[phi], held with
    d = 1. The constructor takes the rational coefficients in the sqrt5
    basis, QuadSurd(a, b) = a + b*sqrt5 with a and b int or Fraction, and
    `.a` and `.b` return them as Fractions. Instances are immutable and
    safe to share.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, a: int | Fraction = 0, b: int | Fraction = 0) -> "QuadSurd":
        if type(a) is int and type(b) is int:
            d = 1
        else:
            a, b = Fraction(a), Fraction(b)
            d = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        return _lowest(a - b, 2 * b, d)  # a + b*sqrt5 = (a - b) + 2b*phi

    @property
    def a(self) -> Fraction:
        """The rational coefficient of 1 in the sqrt5 basis."""
        return Fraction(2 * self._a + self._b, 2 * self._d)

    @property
    def b(self) -> Fraction:
        """The rational coefficient of sqrt5."""
        return Fraction(self._b, 2 * self._d)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._a, self._d)

    @staticmethod
    def _coerce(other: object) -> "QuadSurd | None":
        if isinstance(other, QuadSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadSurd(other)
        return None

    def sign(self) -> int:
        """Exact sign of the value: -1, 0 or +1."""
        return _sign(self._a, self._b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadSurd):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _sign(self._a * e - o._a * d, self._b * e - o._b * d) < 0

    def __hash__(self) -> int:
        # Rational values must hash like their Fraction equivalents.
        return hash(self.as_fraction()) if self._b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __neg__(self) -> "QuadSurd":
        return _lowest(-self._a, -self._b, self._d)

    def __abs__(self) -> "QuadSurd":
        return -self if self.sign() < 0 else self

    def __add__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _lowest(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _lowest(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QuadSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        be = b * e  # phi**2 = phi + 1
        return _lowest(a * c + be, a * e + b * c + be, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        # d/(a + b*phi) = d*(a + b - b*phi) / (a^2 + ab - b^2), through the
        # conjugate phi -> 1 - phi; the norm only vanishes for the zero element.
        if not self:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        a, b, d = self._a, self._b, self._d
        c = a + b
        return _lowest(d * c, -d * b, a * c - b * b)

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
        base = self.inverse() if exponent < 0 else self
        n = abs(exponent)
        return _lowest(*_phi_pow(base._a, base._b, n), base._d ** n)

    def __repr__(self) -> str:
        return f"QuadSurd({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        surd = f"{abs(b)}√5"
        if a == 0:
            return surd if b > 0 else f"-{surd}"
        op = "+" if b > 0 else "-"
        return f"{a}{op}{surd}"


SQRT5 = QuadSurd(0, 1)
#: The golden-ratio conjugate (sqrt5 - 1)/2, fixed point of x -> 1/(1+x).
TAU = QuadSurd(Fraction(-1, 2), Fraction(1, 2))
#: tau**2 = (3 - sqrt5)/2 = 1 - tau, the distinguished split parameter.
TAU2 = QuadSurd(Fraction(3, 2), Fraction(-1, 2))


def _check_lambda(lam: Fraction | QuadSurd) -> None:
    # both checks compare integers: (a + b*phi)/d and a Fraction have d > 0
    if isinstance(lam, QuadSurd):
        inside = _sign(lam._a, lam._b) > 0 and _sign(lam._d - lam._a, -lam._b) > 0
    else:
        inside = 0 < lam.numerator < lam.denominator
    if not inside:
        raise ValueError("the split parameter must lie strictly between 0 and 1")


def _coprime_fraction(a: int, d: int) -> Fraction:
    """Fraction(a, d) for integers already in lowest terms with d > 0,
    built without the gcd the constructor would take: the two slots of
    Fraction set directly, as Fraction's own _from_coprime_ints does on
    3.12+. Fraction(a, d, _normalize=False) of 3.10/3.11 does the same,
    but its keyword argument and type checks make it slower than
    Fraction(a, d) on small integers."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = a, d
    return x


# The integer kernel of the g routes. A split parameter is written
# lam = (u + v*phi)/d over Z[phi], phi = (1 + sqrt5)/2 and phi**2 = phi + 1,
# so 1 - lam = (d - u - v*phi)/d over the same d. For a QuadSurd lam these
# are its own three integers; a rational lam has v = 0 and d its
# denominator; tau = phi - 1 and tau**2 = 2 - phi are units of Z[phi], so
# at those two d = 1. A value built from E factors lam or 1 - lam is then
# a numerator a + b*phi over d**E, integers throughout, reduced once, into
# lam's own type, when it is returned.

#: Size budget of the exact g routes, in bits. A value carrying E factors
#: lam or 1 - lam has a numerator and denominator of at most about
#: E * bits(lam) bits, where bits(lam) is the bit length of the largest of
#: d, |u| + 2|v| and |d - u| + 2|v| (both conjugates of lam*d lie within
#: |u| + 2|v|); the routes refuse, with a ValueError, a value whose E
#: would pass the budget, before they build it. 2**22 bits admits
#: g(1/1000000) at lam = 1/3 (1.58 Mbit), and keeps a quotient of 10**4300
#: from running for minutes.
MAX_EXACT_BITS = 1 << 22
_OVER_BUDGET = f"the exact value would pass the size budget of {MAX_EXACT_BITS} bits"

#: Element budget: the most elements of any tuple the library builds, a
#: sequence read off the walk (`stern_level`, `new_mediants`, `xi`,
#: `theta`; `stern._nodes` counts it first) or a reduced expansion's digits
#: (`cf.rcf_to_rrcf`); a larger one is refused, with a ValueError, before
#: its first element is built. 2**20 admits x = 1/1000000, whose reduced
#: expansion has 999999 digits (`convert-cf` prints them in 0.4 s within
#: 100 MB), level 20 (2**20 + 1 elements) and xi(28) (F(30) + 1), and
#: refuses level 21, xi(29) and theta(31).
MAX_ELEMENTS = 1 << 20

#: Output budget of one command, in bytes of UTF-8 text. Each table the CLI
#: prints (the walks, and `dist.verify_theorem1`'s table) is bounded by an
#: exact integer estimate from the integers it already holds (an index,
#: lam's coefficients, the target), passed to `check_output` before
#: anything is written. The one-value commands print a value that
#: MAX_EXACT_BITS or MAX_ELEMENTS already keeps well under it.
#: 2**26 admits the largest default tables, `stern-brocot --n 22` (42 MB),
#: and refuses `--n 23`.
MAX_OUTPUT_BYTES = 1 << 26


def check_output(estimate: int) -> None:
    """Refuse, with a ValueError, an output estimated past MAX_OUTPUT_BYTES."""
    if estimate > MAX_OUTPUT_BYTES:
        raise ValueError(f"the output would pass the budget of {MAX_OUTPUT_BYTES} bytes")


def text_bytes(*bits: int, surd: bool = False) -> int:
    """An upper bound on the bytes of integers below 2**b, for each b in
    bits, written in decimal with one sign, slash or separator beside
    each: floor(b log10 2) + 2 bytes (30103/100000 > log10 2), taken from
    the bit length alone, so that no big integer is converted to count
    them. A QuadSurd "a+b√5" is its four integers with surd set, which
    adds the 4 bytes of "√5" (√ is 3 bytes of UTF-8) to its sign, two
    slashes and "+"."""
    return sum(b * 30103 // 100000 + 2 for b in bits) + 4 * surd


def _phi_split(lam: Fraction | QuadSurd) -> tuple[int, int, int, int]:
    """(u, v, d, limit): lam = (u + v*phi)/d in lowest terms with d > 0,
    and limit the most factors lam or 1 - lam a value may carry within
    MAX_EXACT_BITS."""
    if isinstance(lam, QuadSurd):
        u, v, d = lam._a, lam._b, lam._d
    else:
        u, v, d = lam.numerator, 0, lam.denominator
    bits = max(d, abs(u) + 2 * abs(v), abs(d - u) + 2 * abs(v)).bit_length()
    return u, v, d, MAX_EXACT_BITS // bits


def _phi_pow(x: int, y: int, n: int) -> tuple[int, int]:
    """(x + y*phi)**n for n >= 0 as the integer pair of its coefficients."""
    if not y:
        return x ** n, 0
    rx, ry = 1, 0
    while True:  # square and multiply, with phi**2 = phi + 1
        if n & 1:
            rx, ry = rx * x + ry * y, rx * y + ry * (x + y)
        n >>= 1
        if not n:
            return rx, ry
        x, y = x * x + y * y, (2 * x + y) * y


def _phi_value(a: int, b: int, d: int, lam: Fraction | QuadSurd) -> Fraction | QuadSurd:
    """(a + b*phi)/d in the type of lam, in lowest terms: a Fraction for a
    Fraction lam (then b = 0), else a QuadSurd.

    d is a power of lam's denominator q, so every prime of d divides q:
    a numerator prime to q is prime to d, and then the value is built as
    it stands, with one gcd against the small q (linear in a and b) in
    place of the full gcd against d (quadratic). Only a numerator that
    shares a prime with q takes the full gcd.
    """
    if isinstance(lam, QuadSurd):
        if gcd(lam._d, a, b) != 1:
            return _lowest(a, b, d)
        x = object.__new__(QuadSurd)
        x._a, x._b, x._d = a, b, d
        return x
    if gcd(lam.denominator, a) == 1:
        return _coprime_fraction(a, d)
    return Fraction(a, d)


def _floor_int_sqrt5(n: int) -> int:
    """floor(n * sqrt5) for an integer n.

    n*sqrt5 is irrational for n != 0, so the ceiling of a negative
    multiple is floor + 1 of its mirror image.
    """
    if n >= 0:
        return isqrt(5 * n * n)
    return -isqrt(5 * n * n) - 1


def _floor_scaled(a: int, b: int, d: int, power: int) -> int:
    """floor((a + b*sqrt5)/d * 10**power) for integers a, b and d > 0, exactly.

    With integers P, R and D > 0, floor((P + R*sqrt5)/D) equals
    (P + floor(R*sqrt5)) // D: the fractional part of R*sqrt5 is < 1,
    so the integer numerator P + floor(R*sqrt5) and the true numerator
    always sit in the same length-D window [Q*D, (Q+1)*D). Here
    P = a*10**power, R = b*10**power and D = d.
    """
    scale = 10 ** power
    return (a * scale + _floor_int_sqrt5(b * scale)) // d


def to_decimal(x: QuadSurd | Fraction | int, digits: int) -> str:
    """Decimal string of x rounded half-up to `digits` fractional digits.

    The result differs from x by less than 10**-digits; computed with
    exact integer square roots, no floating point.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(x, QuadSurd):  # (a + b*phi)/d = (2a + b + b*sqrt5)/(2d)
        a, b, d = 2 * x._a + x._b, x._b, 2 * x._d
    else:
        a, b, d = x.numerator, 0, x.denominator
    n = (_floor_scaled(a, b, d, digits + 1) + 5) // 10
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


#: Largest |N| taken in a literal's exponent "eN": Fraction builds 10**N
#: while it parses, so "1e-99999999" alone would take minutes. 4300 is
#: Python's default int-string digit limit.
_MAX_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*$")


def _check_exponent(text: str) -> None:
    """Refuse a literal whose exponent exceeds _MAX_EXPONENT in absolute
    value, before anything builds its power of 10."""
    match = _EXPONENT_RE.search(text)
    if match:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"the exponent of {text.strip()!r} exceeds {_MAX_EXPONENT} "
                             "in absolute value")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" rational format (the "/q" may be omitted when q = 1),
    or a decimal with an exponent of at most 4300 in absolute value."""
    _check_exponent(text)
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
