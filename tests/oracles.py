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
from hypothesis import strategies as st

from sternbrocot import TAU, QuadSurd


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


def tau_power_series(quotients: Sequence[int]) -> QuadSurd:
    """g at lambda = tau**2 from the quotients of x, in closed form.

    Since 1 - tau**2 = tau, term k of the alternating series is
    (-1)**(k+1) * tau**(w_k - 2), where w_k weights the quotients up to k
    by 2 on odd positions and 1 on even ones; each power is taken afresh.
    """
    if not quotients:
        return QuadSurd(1)
    total = QuadSurd(0)
    weighted = 0
    for position, a in enumerate(quotients, start=1):
        weighted += 2 * a if position % 2 == 1 else a
        term = TAU ** (weighted - 2)
        total = total + term if position % 2 == 1 else total - term
    return total


@st.composite
def quotient_lists(draw, max_total: int = 8 * 10 ** 4) -> list[int]:
    """1 to 8 partial quotients, each at most 10**4, summing to at most
    max_total; the last one may be 1 (then x = [0; ..., a + 1])."""
    quotients: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        if sum(quotients) == max_total:
            break
        quotients.append(draw(st.integers(1, min(10 ** 4, max_total - sum(quotients)))))
    return quotients


def rcf_value(quotients: Sequence[int]) -> Fraction:
    """[0; a1, ..., ak] = 1/(a1 + 1/(a2 + ... + 1/ak)), evaluated bottom-up."""
    x = Fraction(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x
