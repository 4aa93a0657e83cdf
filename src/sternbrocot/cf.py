"""Two exact continued-fraction systems for rationals in the unit interval.

Regular form:  x = [0; a1,...,am] = 1/(a1 + 1/(a2 + ... + 1/am)),
with integer quotients ai >= 1 and, canonically, am >= 2.

Reduced form:  x = [[1; b1,...,bl]] = 1 - 1/(b1 - 1/(b2 - ... - 1/bl)),
with every digit bi >= 2. Each rational in (0,1) has exactly one
expansion of each kind, and a local rewrite turns one into the other.

The digit statistics S(x) = a1+...+am and L(x) = b1+...+bl grade the
rationals into the generations of the two mediant constructions built on
top of this module.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import MAX_ELEMENTS, _Record


class RegularCF(_Record):
    """Canonical regular continued fraction [0; a1,...,am] of x in (0,1].

    The empty quotient list stands for x = 1, the single value in (0,1]
    that no list with a final quotient >= 2 can encode.
    """

    __slots__ = ("quotients",)

    def __init__(self, quotients: tuple[int, ...]) -> None:
        quotients = tuple(quotients)
        for a in quotients:
            if a < 1:
                raise ValueError(f"partial quotients must be >= 1, got {a}")
        if quotients and quotients[-1] < 2:
            raise ValueError("canonical form needs a final quotient >= 2")
        object.__setattr__(self, "quotients", quotients)

    @classmethod
    def _known(cls, quotients: tuple[int, ...]) -> "RegularCF":
        """The record of a tuple known to be canonical, set directly."""
        cf = object.__new__(cls)
        object.__setattr__(cf, "quotients", quotients)
        return cf

    def __str__(self) -> str:
        return "[0;" + ",".join(map(str, self.quotients)) + "]"


class ReducedRCF(_Record):
    """Reduced continued fraction [[1; b1,...,bl]] of x in (0,1); all bi >= 2."""

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]) -> None:
        digits = tuple(digits)
        if not digits:
            raise ValueError("a reduced expansion has at least one digit")
        for b in digits:
            if b < 2:
                raise ValueError(f"digits must be >= 2, got {b}")
        object.__setattr__(self, "digits", digits)

    def __str__(self) -> str:
        return "[[1;" + ",".join(map(str, self.digits)) + "]]"


def expand_rcf(x: Fraction) -> RegularCF:
    """Regular expansion of x in (0,1] by the Euclidean algorithm.

    The algorithm lands on the canonical form (final quotient >= 2)
    automatically; x = 1 expands to the empty quotient list. The range
    check compares x's numerator and denominator as integers. Euclid's
    quotients are canonical by construction, so the record is built
    without the constructor's checks (`RegularCF._known`).
    """
    num, den = x.denominator, x.numerator  # Euclid on 1/x
    if not 0 < den <= num:
        raise ValueError(f"expand_rcf needs 0 < x <= 1, got {x}")
    if den == num:
        return RegularCF._known(())
    quotients = []
    while den:
        q, r = divmod(num, den)
        quotients.append(q)
        num, den = den, r
    return RegularCF._known(tuple(quotients))


def sum_partial_quotients(cf: RegularCF) -> int:
    """S(x) = a1 + ... + am; the grading of the mediant construction."""
    return sum(cf.quotients)


def rcf_to_rrcf(cf: RegularCF) -> ReducedRCF:
    """Rewrite a regular expansion into the reduced one, digit block by block.

    Position i (1-based) contributes, left to right:
      odd i          -> (ai - 1) copies of the digit 2 (nothing when ai = 1),
      even interior  -> the single digit ai + 2,
      even final     -> the single digit ai + 1.
    So the expansion has a1 + a3 + ... digits, less one when m is odd;
    past `exact.MAX_ELEMENTS` it raises ValueError before any digit is built.
    """
    if not cf.quotients:
        raise ValueError("x = 1 has no reduced expansion")
    m = len(cf.quotients)
    if sum(cf.quotients[::2]) - m % 2 > MAX_ELEMENTS:
        raise ValueError(f"the reduced expansion would pass the cap of {MAX_ELEMENTS} digits")
    digits: list[int] = []
    for i, a in enumerate(cf.quotients, start=1):
        if i % 2 == 1:
            digits.extend([2] * (a - 1))
        elif i != m:
            digits.append(a + 2)
        else:
            digits.append(a + 1)
    return ReducedRCF(tuple(digits))


def expand_rrcf(x: Fraction) -> ReducedRCF:
    """Reduced expansion of x in (0,1), via the regular expansion."""
    if not 0 < x.numerator < x.denominator:
        raise ValueError(f"expand_rrcf needs 0 < x < 1, got {x}")
    return rcf_to_rrcf(expand_rcf(x))


def value_rrcf(rcf: ReducedRCF) -> Fraction:
    """Exact value of [[1; b1,...,bl]] via the minus-continuant recurrence.

    h(k) = bk*h(k-1) - h(k-2) and likewise for the denominators; the
    digits >= 2 that ReducedRCF enforces force 0 < h(k-1) < h(k), so no
    minor ever vanishes. Consecutive
    continuants have determinant -1, hence the result is already reduced.
    """
    h_prev, h = 1, rcf.digits[0]
    k_prev, k = 0, 1
    for b in rcf.digits[1:]:
        h_prev, h = h, b * h - h_prev
        k_prev, k = k, b * k - k_prev
    return Fraction(h - k, h)


def digit_sum_L(rcf: ReducedRCF) -> int:
    """L(x) = b1 + ... + bl; the grading of the reduced construction."""
    return sum(rcf.digits)
