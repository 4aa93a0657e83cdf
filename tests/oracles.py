"""Independent oracles for the test suite.

Each one takes the dumbest correct route available so that it shares no
code path with the implementation it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, Sequence

import mpmath


def subtractive_rrcf(x: Fraction) -> tuple[int, ...]:
    """Reduced digits of x in (0,1), one ceiling subtraction at a time.

    Write x = 1 - 1/y with y > 1; the leading digit is ceil(y), and the
    tail continues on 1/(digit - y) until y lands on an integer.
    """
    assert 0 < x < 1
    digits: list[int] = []
    y = 1 / (1 - x)
    while True:
        b = math.ceil(y)
        digits.append(b)
        if y == b:
            return tuple(digits)
        y = 1 / (b - y)


def smallest_denominator_between(x: Fraction, y: Fraction) -> Fraction:
    """First fraction strictly inside (x, y) found by scanning q = 1, 2, ...

    Also insists the winner is alone at its denominator.
    """
    assert x < y
    q = 1
    while True:
        p = x.numerator * q // x.denominator + 1  # least p with p/q > x
        if Fraction(p, q) < y:
            assert not Fraction(p + 1, q) < y, "minimal denominator not unique"
            return Fraction(p, q)
        q += 1


def rounded_scaled_value(a: Fraction, b: Fraction, digits: int) -> int:
    """round((a + b*sqrt5) * 10**digits) half-up, via mpmath at high precision."""
    with mpmath.workdps(digits + 40):
        value = (
            mpmath.mpf(a.numerator) / a.denominator
            + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(5)
        )
        return int(mpmath.floor(value * mpmath.mpf(10) ** digits + mpmath.mpf(1) / 2))


def digit_lists(total: int) -> Iterator[tuple[int, ...]]:
    """All tuples (b1,...,bl) with every bi >= 2 and b1+...+bl = total."""
    if total < 2:
        return
    yield (total,)
    for first in range(2, total - 1):
        for rest in digit_lists(total - first):
            yield (first, *rest)


def reduced_value(digits: tuple[int, ...]) -> Fraction:
    """[[1; b1,...,bl]] = 1 - 1/(b1 - 1/(b2 - ... - 1/bl)), evaluated bottom-up."""
    acc = Fraction(digits[-1])
    for b in reversed(digits[:-1]):
        acc = b - 1 / acc
    return 1 - 1 / acc


def generation(k: int) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Generation k of the reduced tree as (value, digits) pairs, sorted by
    value: one pair per composition of k + 1 into digits >= 2."""
    return sorted((reduced_value(d), d) for d in digit_lists(k + 1))


def path_depth(x: Fraction, left: int) -> int:
    """Depth of x in (0,1) in the Stern-Brocot tree whose root 1/2 has
    depth 1, a left edge costing `left` and a right edge 1, found by
    binary search from the gap (0, 1) over Fractions."""
    lo, hi, depth = Fraction(0), Fraction(1), 1
    while True:
        mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if x == mid:
            return depth
        if x < mid:
            hi, depth = mid, depth + left
        else:
            lo, depth = mid, depth + 1


def materialized_cdf(elements: Sequence[Fraction], x: Fraction) -> Fraction:
    """Share of the sorted sequence `elements` lying at or below x in
    [0,1], by binary search over the whole materialized sequence."""
    assert 0 <= x <= 1
    return Fraction(bisect_right(elements, x), len(elements))
