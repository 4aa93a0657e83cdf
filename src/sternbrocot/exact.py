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
`str` and `to_decimal`. Powers are `**` (a negative exponent inverts), and
`parse_quadsurd`/`str` read and write the text form "a+b√5". Every split
parameter, rational or not, is range-checked in one place, `_kernel`;
`parse_rational` refuses an exponent whose 10**N would take longer to
build than to read.

The routes to the singular function g share one integer kernel here,
`_kernel`, `_phi_pow` and `_phi_value`: a split parameter of either
type is (u + v*phi)/d over Z[phi], a QuadSurd's own integers or a
rational's numerator and denominator, the g routes carry integer
numerators over powers of d, and a result is reduced once, into the
parameter's type; for a Fraction that takes a gcd against d alone when
it can (`_phi_value`). `_kernel` returns one record per split
parameter, a `_Kernel` namedtuple: v and d, the size limit, and three
pairs indexed by the parity of a quotient's place in the series, with
1 - lam = (c + w*phi)/d at index 0 and lam at index 1: `bases`, the
numerators c + w*phi and u + v*phi, `tables`, their small powers, and
`norms`. It is built once after the range check and cached for the 16
latest parameters by their integers (`_kernel_record`, a
`functools.lru_cache` whose `cache_info` shows it), so g at many points
of one parameter derives none of that again. `_phi_split` is the one
reader of the integers (u, v, d) of a rational or QuadSurd, unchecked:
`_kernel` reads lam through it, and the stream its epsilon. `_phi_pow`
powers left to right, so each set bit of the exponent costs a product
by the small base, and squares the power of a unit (norm +-1: tau,
tau**2, phi) by two squarings, not three products, reading the norm
from the base itself; `_phi_powers` builds the table of the powers
below 48 of a base of at most 32 bits, which the record of a quadratic
parameter holds for both its bases (a rational one needs none). One
helper, `_leading`,
bounds a + b*sqrt5 from the leading bits of a and b, with one slack
proof, for one judge of every wide value, `_floor_by_norm`, which
decides its floor from those bounds and takes an exact route when they
cannot (Ziv's method); it serves `to_decimal` and `singular`'s stream
stop, below.
`str` of a QuadSurd prints a coefficient past 3072 bits by halves
(`_int_text`): split at a power of ten 10**(2**j), dividing by its odd
part 5**(2**j) from a ladder of at most 32 cached rungs (`_pow5`), each
half printed the same way, which on Python 3.11 beats `str` by 1.2 times
at 4 kbit and 1.5 times at 9 to 16 kbit. A
coefficient that may reach Python's int-to-str digit limit, when there
is one, goes to `str` itself, so it prints, or raises its ValueError,
exactly as `str` would. `to_decimal` sends
`_floor_by_norm` every value (a + b*sqrt5)/d with a wide b. That
routine reads a value whose a and b share a sign, or whose a is 0, from
the leading bits of |a| + |b|*sqrt5; one whose a and b have opposite
signs, which may cancel, from the exact norm a**2 - 5b**2 and the
leading bits of a - b*sqrt5; and a value within 2**-58 of 1, where
those bounds straddle 1, from 1 - value, which is not next to an
integer (the complement route). It alone judges whether its bounds can
read the value, and takes the exact square root of `_floor_scaled` when
they cannot decide or leave no bits to drop, as for a wide value far
outside [-1, 1]; a narrow b goes to `_floor_scaled` directly. The
stream stop of `singular` asks the same judge, at power 0, whether a
wide term over a rational epsilon has floor 0, when bit lengths leave
the two within a few bits of each other.

Every size budget of the package lives here: `MAX_EXACT_BITS` is
theirs, `MAX_ELEMENTS` that of every tuple the library builds, and
`MAX_OUTPUT_BYTES` (`check_output`) that of a command's text. Range
checks on Fractions, here (`_kernel_record`) and in `cf`, `stern`,
`singular` and `dist`, compare the numerator and denominator as
integers, not through Fraction's order.

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
`__init__`, which validates its fields. The first two set them directly:
they are built once per expansion, where the generic binding would cost
about three times a direct one-field constructor; the tree builders of
`xi` set a node's fields through its private `_known`, and
`cf.expand_rcf`, whose quotients are canonical by construction, those
of a RegularCF through its own `_known`. The base stands
in for frozen dataclasses: importing `dataclasses` pulls in `inspect`
and `ast`, and builds each class's methods with `exec`, at every start
of the CLI.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, total_ordering
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
    x._a, x._b, x._d, x._n = a, b, d, None
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

    A private fourth slot, `_n`, holds the norm a**2 + a*b - b**2 of the
    stored numerator a + b*phi when the routine that built the value knew
    it exactly (a power of a unit of at most _TABLE_BITS bits, such as
    tau, tau**2 or phi; g at tau or tau**2, see `singular`),
    and None otherwise, as after any arithmetic. `to_decimal` reads it in
    place of squaring the coefficients; nothing else does.
    """

    __slots__ = ("_a", "_b", "_d", "_n")

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
        n, a, b, d = abs(exponent), base._a, base._b, base._d
        power = _lowest(*_phi_pow(a, b, n), d ** n)
        if d == 1 and abs(a) + abs(b) <= 1 << _TABLE_BITS:  # a unit's powers: norm (+-1)**n
            unit = a * a + a * b - b * b
            if unit in (1, -1):
                power._n = unit if n & 1 else 1
        return power

    def __repr__(self) -> str:
        return f"QuadSurd({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        """The text a+b√5, with a and b as Fraction prints them, built
        from the stored (a' + b'*phi)/d with one gcd per coefficient,
        a = (2a' + b')/(2d) and b = b'/(2d), each integer past 3072 bits
        printed by halves (`_int_text`). Past Python's int-to-str digit
        limit it raises int's own ValueError, as Fraction's text would."""
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _ratio_text(a, d)
        surd = _ratio_text(abs(b), 2 * d) + "√5"
        if 2 * a + b == 0:
            return surd if b > 0 else "-" + surd
        return _ratio_text(2 * a + b, 2 * d) + ("+" if b > 0 else "-") + surd


def _ratio_text(a: int, d: int) -> str:
    """a/d for d > 0 as Fraction(a, d) prints it: in lowest terms, with no
    "/1"."""
    g = gcd(a, d)
    return _int_text(a // g) if g == d else f"{_int_text(a // g)}/{_int_text(d // g)}"


#: Bit length past which `_int_text` prints an integer by halves; on
#: Python 3.11 that is 1.2 times faster than `str` at 4 kbit and 1.5 times
#: at 9 to 16 kbit, and no faster below about 3 kbit.
_SPLIT_BITS = 3072


@lru_cache(maxsize=32)
def _pow5(j: int) -> int:
    """5**(2**j), a rung of the ladder `_digits` splits by; 32 rungs
    reach far past any integer the size budgets admit."""
    return 5 if j == 0 else _pow5(j - 1) ** 2


def _digits(n: int) -> str:
    """str(n) for n >= 0, split at 10**k, k = 2**j near half its digits:
    the high part printed as it is and the low part padded with zeros to
    k digits, each the same way down to _SPLIT_BITS bits. As 10**k =
    2**k * 5**k, the quotient is that of n >> k by the rung 5**k of
    `_pow5`, a divisor 30% narrower than 10**k, and the k low bits of n
    go back under the remainder."""
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    j = (n.bit_length() * 30103 // 200000).bit_length() - 1
    k = 1 << j
    high, low = divmod(n >> k, _pow5(j))
    return _digits(high) + _digits(low << k | n & (1 << k) - 1).zfill(k)


def _int_text(n: int) -> str:
    """str(n), by halves (`_digits`) past _SPLIT_BITS bits. An integer
    whose digits may reach Python's int-to-str limit goes to `str` itself,
    which prints it or raises its own ValueError."""
    bits = n.bit_length()
    if bits <= _SPLIT_BITS:
        return str(n)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and bits * 30103 // 100000 >= limit:  # 30103/100000 > log10(2)
        return str(n)
    return "-" + _digits(-n) if n < 0 else _digits(n)


SQRT5 = QuadSurd(0, 1)
#: The golden-ratio conjugate (sqrt5 - 1)/2, fixed point of x -> 1/(1+x).
TAU = QuadSurd(Fraction(-1, 2), Fraction(1, 2))
#: tau**2 = (3 - sqrt5)/2 = 1 - tau, the distinguished split parameter.
TAU2 = QuadSurd(Fraction(3, 2), Fraction(-1, 2))


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


def _phi_split(x: Fraction | QuadSurd) -> tuple[int, int, int]:
    """(u, v, d): x = (u + v*phi)/d in lowest terms with d > 0, the
    integers of a QuadSurd as it stores them, or a rational's numerator,
    0 and denominator. The one reader of those integers, unchecked: the
    kernel record reads a split parameter through it, and the stream its
    epsilon."""
    if isinstance(x, QuadSurd):
        return x._a, x._b, x._d
    return x.numerator, 0, x.denominator


def _phi_pow(x: int, y: int, n: int) -> tuple[int, int]:
    """(x + y*phi)**n for n >= 0 as the integer pair of its coefficients;
    a negative n raises ValueError.

    Left-to-right binary powering (Knuth, TAOCP vol. 2, 4.6.3): the
    running power is squared once per bit of n below the leading one and
    multiplied by the base x + y*phi at each set bit, with phi**2 =
    phi + 1. The base stays small, so each set bit costs a big-by-small
    product, where the right-to-left order multiplies two big powers.
    Squaring r = rx + ry*phi gives rx**2 + ry**2 and (2*rx + ry)*ry,
    three full-width products. When the base is a unit (norm
    x**2 + x*y - y**2 = +-1, as tau, tau**2 and phi are), the running
    power's norm N is known, 1 after a squaring and the base's after a
    product by it, so rx*ry = N - rx**2 + ry**2 and the phi coefficient
    is 2N - 2rx**2 + 3ry**2: two squarings.
    """
    if n < 1:
        if n:
            raise ValueError(f"the exponent must be >= 0, got {n}")
        return 1, 0
    if not y:
        return x ** n, 0
    rx, ry, bit = x, y, 1 << n.bit_length() - 1
    unit = norm = x * x + x * y - y * y
    if unit not in (1, -1):
        while bit := bit >> 1:
            rx, ry = rx * rx + ry * ry, (2 * rx + ry) * ry
            if n & bit:
                rx, ry = rx * x + ry * y, rx * y + ry * (x + y)
        return rx, ry
    while bit := bit >> 1:
        xx, yy = rx * rx, ry * ry
        rx, ry, norm = xx + yy, 2 * norm - 2 * xx + 3 * yy, 1
        if n & bit:
            rx, ry, norm = rx * x + ry * y, rx * y + ry * (x + y), unit
    return rx, ry


#: Exponents below this are read from `_phi_powers`' table.
_TABLE_POWERS = 48
#: Widest base, in bits of its larger coefficient, that gets a table: a
#: one-off wide base is powered by `_phi_pow` instead.
_TABLE_BITS = 32


def _phi_powers(x: int, y: int) -> tuple[tuple[int, int], ...]:
    """(x + y*phi)**k for k < _TABLE_POWERS, each as `_phi_pow` gives it,
    for a base no wider than _TABLE_BITS; a wider base gets the empty
    table. Built by one product per power, once per split parameter: the
    kernel record keeps it."""
    if max(abs(x), abs(y)).bit_length() > _TABLE_BITS:
        return ()
    powers = [(1, 0)]
    for _ in range(_TABLE_POWERS - 1):
        a, b = powers[-1]
        powers.append((a * x + b * y, a * y + b * (x + y)))
    return tuple(powers)


#: The kernel record of lam = (u + v*phi)/d (`_kernel_record`): its pairs
#: hold 1 - lam at index 0 and lam at index 1, the parity of a quotient's
#: place in the series.
_Kernel = namedtuple("_Kernel", "v d limit bases tables norms")


def _kernel(lam: Fraction | QuadSurd) -> _Kernel:
    """The kernel record of the split parameter lam: `_kernel_record` of
    lam's integers (u, v, d), lam = (u + v*phi)/d as `_phi_split` reads
    them. A lam outside (0,1) raises ValueError."""
    return _kernel_record(*_phi_split(lam))


@lru_cache(maxsize=16)
def _kernel_record(u: int, v: int, d: int) -> _Kernel:
    """The `_Kernel` (v, d, limit, bases, tables, norms) of
    lam = (u + v*phi)/d in lowest terms with d > 0. Each pair holds
    1 - lam = (c + w*phi)/d at index 0 and lam at index 1: `bases` the
    numerators ((c, w), (u, v)), `tables` their `_phi_powers` tables
    (empty for a rational lam, v = 0, whose powers are the integer powers
    of u and c, `_phi_pow(u, 0, q)` in the stream) and `norms` their
    norms. limit is the most factors lam or 1 - lam a value may carry
    within MAX_EXACT_BITS. Built once per split parameter and cached for
    the 16 latest (`functools.lru_cache`, whose `cache_info` shows it), so
    a g route at many points of one lam reads it by one lookup.

    The one range check of a split parameter: lam and 1 - lam must be
    positive, both exact signs of integers (`_sign`). A lam outside (0,1)
    raises ValueError before anything is built, and lru_cache keeps no
    exception, so no refused lam is cached.
    """
    c, w = d - u, -v
    if _sign(u, v) <= 0 or _sign(c, w) <= 0:
        raise ValueError("the split parameter must lie strictly between 0 and 1")
    bases = (c, w), (u, v)
    limit = MAX_EXACT_BITS // max(d, abs(u) + 2 * abs(v), abs(c) + 2 * abs(v)).bit_length()
    return _Kernel(v, d, limit, bases, tuple(_phi_powers(*base) if v else () for base in bases),
                   tuple(x * x + x * y - y * y for x, y in bases))


def _phi_value(a: int, b: int, d: int, lam: Fraction | QuadSurd,
               norm: int | None = None) -> Fraction | QuadSurd:
    """(a + b*phi)/d in the type of lam, in lowest terms: a Fraction for a
    Fraction lam (then b = 0), else a QuadSurd, which keeps `norm`, the
    exact norm a**2 + a*b - b**2 when the caller knows it, unless a gcd
    reduces it.

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
        x._a, x._b, x._d, x._n = a, b, d, norm
        return x
    if gcd(lam.denominator, a) == 1:
        return _coprime_fraction(a, d)
    return Fraction(a, d)


def _floor_scaled(a: int, b: int, d: int, power: int) -> int:
    """floor((a + b*sqrt5)/d * 10**power) for integers a, b and d > 0, exactly.

    With integers P, R and D > 0, floor((P + R*sqrt5)/D) equals
    (P + floor(R*sqrt5)) // D: the fractional part of R*sqrt5 is < 1,
    so the integer numerator P + floor(R*sqrt5) and the true numerator
    always sit in the same length-D window [Q*D, (Q+1)*D). Here
    P = a*10**power, R = b*10**power and D = d; a rational (b = 0) takes
    no square root. R*sqrt5 is irrational for R != 0, so the floor of a
    negative R*sqrt5 is one below minus that of its mirror image.
    """
    scale = 10 ** power
    if not b:
        return a * scale // d
    root = isqrt(5 * (b * scale) ** 2)
    return (a * scale + (root if b > 0 else -root - 1)) // d


#: Bit length of |b| past which `to_decimal` reads a + b*sqrt5 by its
#: leading bits (`_floor_by_norm`); on Python 3.11 that and the exact
#: square root of `_floor_scaled` cost the same near 250 bits for a value
#: whose terms cancel, and below this the square root is the cheaper. The
#: stream stop of `singular` takes the exact sign of a term no wider than
#: this, and reads a wider one by bit lengths and this judge.
_NORM_BITS = 512
#: Bits that the leading-bits bounds (`_leading`) keep beyond those a
#: decision needs: `_floor_by_norm`'s two bounds on a floor then differ
#: by less than 2**-58, so they straddle an integer only for a value
#: that close to it.
_GUARD_BITS = 64


def _leading(a: int, b: int, s: int) -> tuple[int, int]:
    """(L, L + 5) with L*2**s <= a + b*sqrt5 < (L + 5)*2**s, for an
    integer a of either sign, b >= 0 and s >= 0, from the bits of a and b
    above the s lowest: L = (a >> s) + isqrt(5*(b >> s)**2).

    The three truncations, of a, of b (times sqrt5) and of the square
    root, lose less than 1, sqrt5 and 1, and 2 + sqrt5 < 5. For b > 0
    the value is irrational, so it lies strictly above L*2**s. This is
    the one bound of Ziv's method in the one routine that reads it,
    `_floor_by_norm`: evaluate with bounds, and take an exact route when
    they cannot decide.
    """
    t = b >> s
    low = (a >> s) + isqrt(5 * t * t)
    return low, low + 5


def _floor_by_norm(a: int, b: int, d: int, power: int, norm: int | None = None) -> int:
    """floor((a + b*sqrt5)/d * 10**power) for integers a and b != 0 and
    d > 0, exactly; `norm`, when given, must be a**2 - 5b**2.

    The one judge of a wide a + b*sqrt5: it reads the floor from the
    leading bits of a and b (`_leading`, with s bits dropped, s leaving
    _GUARD_BITS more bits in the bounds than the floor has), returns it
    when both bounds agree, and else computes it by `_floor_scaled`,
    which also takes a value that leaves no bits to drop, as a wide value
    far outside [-1, 1] does. When a and b share a sign, or a = 0, nothing
    cancels: the bounds are those of |a| + |b|*sqrt5, and a negative
    value, never an integer, floors to -floor(|value|) - 1. When they have
    opposite signs the two terms may cancel, so the value is taken as
    N/(d*C) from the norm N = a**2 - 5b**2, given or exact from two
    squarings, and C = a - b*sqrt5, which has the sign of a and does not
    cancel: |C| = |a| + |b|*sqrt5. When those bounds straddle 10**power
    the value lies within 2**-58 of 1, and the floor is read from
    1 - value, whose terms (d - a) - b*sqrt5 again have opposite signs,
    whose norm is d**2 - 2ad + N, and whose floor is far from an integer:
    floor(10**power - y) = 10**power - 1 - floor(y) for an irrational y.
    The cancelling bounds always leave bits to drop for |value| <= 1, |b|
    past _NORM_BITS bits and power <= 134: the floor is below
    10**134 < 2**446 and |C| below 2**(width + 2), so
    s >= 513 - 446 - 2 - _GUARD_BITS = 1.

    `to_decimal` sends it every value with |b| past _NORM_BITS bits, and
    `singular.g_stream` asks at power 0 whether a wide term
    (m + n*phi)/e is below a rational epsilon = eu/ed, as
    floor(((2m + n) + n*sqrt5)*ed / (2*e*eu)) == 0, passing the norm
    4*ed**2*(m**2 + m*n - n**2) that the stream carries, when bit
    lengths leave the term within 2**6 of epsilon.
    """
    scale = 10 ** power
    width = max(a.bit_length(), b.bit_length())  # 2**(width - 1) <= |a| + |b|*sqrt5
    if not a or (a > 0) == (b > 0):  # |value| = (|a| + |b|*sqrt5)*scale/d
        s = min(width, d.bit_length() - scale.bit_length()) - _GUARD_BITS
        if s > 0:
            low, high = _leading(abs(a), abs(b), s)
            floor, over = (low * scale << s) // d, (high * scale << s) // d
            if floor == over:
                return floor if b > 0 else -floor - 1
        return _floor_scaled(a, b, d, power)
    if norm is None:
        norm = a * a - 5 * (b * b)  # two squarings
    scaled = (norm if a > 0 else -norm) * scale
    s = width - max(scaled.bit_length() - d.bit_length() - width, 0) - _GUARD_BITS
    if s > 0:
        m, (low, high) = scaled >> s, _leading(abs(a), abs(b), s)
        floor, under = m // (d * low), m // (d * high)
        if floor == under:
            return floor
        if under < scale <= floor:  # next to 1: read the complement
            return scale - 1 - _floor_by_norm(d - a, -b, d, power, d * (d - 2 * a) + norm)
    return _floor_scaled(a, b, d, power)


def to_decimal(x: QuadSurd | Fraction | int, digits: int) -> str:
    """Decimal string of x rounded half-up to `digits` fractional digits.

    The result differs from x by less than 10**-digits; computed on
    integers alone, with no floating point. A QuadSurd (a + b*sqrt5)/d
    whose |b| passes _NORM_BITS bits goes to the judge `_floor_by_norm`,
    which reads the value from the leading bits of |a| + |b|*sqrt5
    (`_leading`), through the norm when a and b have opposite signs, a
    value next to 1 from its complement 1 - value, and falls back to the
    exact square root of `_floor_scaled` when its bounds cannot decide
    or leave no bits to drop; every other value takes `_floor_scaled`
    directly.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(x, QuadSurd):  # (a + b*phi)/d = (2a + b + b*sqrt5)/(2d)
        b = x._b
        a, d = 2 * x._a + b, 2 * x._d
        if b.bit_length() > _NORM_BITS:
            norm = x._n  # a**2 - 5b**2 is 4 times the stored norm
            n = _floor_by_norm(a, b, d, digits + 1, None if norm is None else 4 * norm)
        else:
            n = _floor_scaled(a, b, d, digits + 1)
    else:
        n = _floor_scaled(x.numerator, 0, x.denominator, digits + 1)
    n = (n + 5) // 10
    whole, frac = divmod(abs(n), 10 ** digits)
    return f"{'-' if n < 0 else ''}{whole}.{str(frac).zfill(digits)}"


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
