"""The one-parameter family of singular functions over the unit interval.

For a split parameter lam in (0,1), g maps 0 to 0, 1 to 1, and sends the
mediant of two Stern-Brocot neighbours x < y to
g(x) + (g(y) - g(x)) * lam, i.e. each gap is split in ratio lam : 1-lam.
At lam = 1/2 this is Minkowski's question-mark function.

Two ways to the same values, one computation each:

* `g_series`     - the alternating series over the regular
  continued-fraction quotients of x: the k-th term is (-1)**(k+1) times
  lam**(sum of odd-position quotients up to k, minus 1) times
  (1-lam)**(sum of even-position quotients up to k), one kernel power
  per quotient. `g_tau2` is this series at lam = tau**2, where
  1 - lam = tau makes every term a signed power of tau in Q(sqrt5), and
  `g_inductive` is it too: replaying the mediant recurrence along the
  Stern-Brocot path to x, one run of equal turns per quotient, visits
  exactly the series' partial sums as the ends of the current gap.
* `question_mark` - Salem's dyadic form of the series at lam = 1/2,
  one integer numerator over a power of 2 built by shifts. It stays a
  separate route because it is faster than the kernel series at
  lam = 1/2: about 3 times on points with a few small quotients and 16
  times at x = 1/10**6 (Python 3.11.7, 2 cores).

Every route but `question_mark` runs on one integer kernel (`exact`),
the same for every lam: lam = (u + v*phi)/d over Z[phi], phi the golden
ratio, the form a QuadSurd stores, with v = 0 for a rational lam and
d = 1 at tau and tau**2. A value is carried as an integer numerator
a + b*phi over a power of d, with no gcd and no Fraction inside the
loops, and reduced once into lam's own type (Fraction or QuadSurd) when
it is returned. Nothing here touches floating point. A value whose size
estimate passes `exact.MAX_EXACT_BITS` is refused with a ValueError
before it is built, and so is a `question_mark` shift past the budget
at lam = 1/2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

from .cf import RegularCF, expand_rcf, sum_partial_quotients
from .exact import (
    _OVER_BUDGET,
    TAU2,
    QuadSurd,
    _check_lambda,
    _phi_pow,
    _phi_split,
    _phi_value,
    _sign,
)

LambdaValue = Union[Fraction, QuadSurd]
GValue = Union[Fraction, QuadSurd]


def g_inductive(x: Fraction, lam: LambdaValue) -> GValue:
    """Evaluate g at a rational x in [0,1] by replaying the gap splits.

    The Stern-Brocot path to x = [0; a1, ..., am] runs through m runs of
    equal turns, and while it is inside the run for quotient k the g-values
    at the two ends of the current gap are the alternating series' partial
    sums after k - 1 and k terms, its g-width the magnitude of term k. So
    the replay is `g_series` on the quotients of x, with the same cost and
    the same size budget; g(0) = 0 has no quotients and is returned here.
    """
    _check_lambda(lam)
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if p == 0:
        return _phi_value(0, 0, 1, lam)  # g(0) = 0
    return g_series(expand_rcf(x), lam)


#: The most bits `question_mark` shifts by: the budget of the kernel routes at lam = 1/2.
_SALEM_LIMIT = _phi_split(Fraction(1, 2))[3]


def question_mark(cf: RegularCF) -> Fraction:
    """Minkowski's ?(x) from the quotients of x: the alternating sum of
    1 / 2**(a1 + ... + ak - 1). Always a dyadic rational, so the sum is
    one integer numerator over 2**(S(x) - 1), built by Horner's rule:
    shift left by each quotient, then add or subtract 1. An S(x) - 1 past
    the budget the kernel routes keep at lam = 1/2 is refused, with a
    ValueError, before the shift."""
    if not cf.quotients:
        return Fraction(1)
    shift = sum_partial_quotients(cf) - 1
    if shift > _SALEM_LIMIT:
        raise ValueError(_OVER_BUDGET)
    numerator = 0
    sign = 1
    for a in cf.quotients:
        numerator = (numerator << a) + sign
        sign = -sign
    return Fraction(numerator, 1 << shift)


def _partial_sums(quotients: Iterable[int], lam: LambdaValue) -> Iterator[tuple[int, ...]]:
    """After each quotient, the partial sum of the alternating series for g
    and the magnitude of its last term, as integers (a, b, m, n, e): the
    sum is (a + b*phi)/e and the magnitude (m + n*phi)/e.

    Term k multiplies the previous magnitude by lam**ak (k odd, added) or
    (1-lam)**ak (k even, subtracted); both factors are < 1, so magnitudes
    strictly decrease - which is what makes partial sums bracket the value.
    Over e = d**(S - 1), S the sum of the quotients so far, that is
    Horner's rule: the sum so far times d**ak, plus or minus the new
    magnitude numerator.
    """
    u, v, d, limit = _phi_split(lam)
    c, w = d - u, -v  # 1 - lam = (c + w*phi)/d
    a = b = n = factors = 0
    m = e = 1
    for position, q in enumerate(quotients, start=1):
        if q < 1:
            raise ValueError(f"partial quotients must be >= 1, got {q}")
        if position == 1:
            q -= 1  # term 1 is lam**(a1 - 1)
        factors += q
        if factors > limit:
            raise ValueError(_OVER_BUDGET)
        x, y = _phi_pow(u, v, q) if position % 2 else _phi_pow(c, w, q)
        m, n = m * x + n * y, m * y + n * (x + y)
        if d != 1:
            scale = d ** q
            a, b, e = a * scale, b * scale, e * scale
        if position % 2:
            a, b = a + m, b + n
        else:
            a, b = a - m, b - n
        yield a, b, m, n, e


def g_series(cf: RegularCF, lam: LambdaValue) -> GValue:
    """Evaluate g by the finite alternating series over the quotients of x.

    The empty quotient list (x = 1) evaluates to 1, mirroring value_rcf.
    m quotients cost m kernel powers and O(m) products of integers no
    larger than the result, whose size is checked against
    `exact.MAX_EXACT_BITS` quotient by quotient, before it is built, and
    one reduction (`exact._phi_value`).
    """
    _check_lambda(lam)
    a, b, e = 1, 0, 1  # x = 1 has no quotients
    for a, b, _, _, e in _partial_sums(cf.quotients, lam):
        pass  # g is the last partial sum
    return _phi_value(a, b, e, lam)


def g_tau2(cf: RegularCF) -> QuadSurd:
    """g at lam = tau**2, in Q(sqrt5): the series of `g_series`, whose
    terms there are signed powers of tau because 1 - tau**2 = tau."""
    return g_series(cf, TAU2)


def g_stream(
    quotients: Iterable[int],
    lam: LambdaValue,
    epsilon: Fraction,
) -> tuple[GValue, GValue]:
    """Enclose g(x) for an irrational x given as a stream of quotients.

    Consumes quotients until the magnitude of the next unadded term drops
    below epsilon, then returns (lo, hi) with lo < g(x) < hi and
    hi - lo < epsilon: the signs alternate and the magnitudes strictly
    decrease, so the value always lies between consecutive partial sums.

    Raises if the stream is exhausted first - a finite stream means x was
    rational, and g_series gives the exact value instead.
    """
    _check_lambda(lam)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    eu, ev, ed, _ = _phi_split(epsilon)  # epsilon = (eu + ev*phi)/ed
    previous = 0, 0, 1
    for k, (a, b, m, n, e) in enumerate(_partial_sums(quotients, lam), start=1):
        if _below(m, n, e, eu, ev, ed):  # term k was added if k is odd, subtracted if even
            lo, hi = (previous, (a, b, e)) if k % 2 else ((a, b, e), previous)
            return _phi_value(*lo, lam), _phi_value(*hi, lam)
        previous = a, b, e
    raise ValueError("quotient stream ended: the value is rational, use g_series")


def _below(m: int, n: int, e: int, eu: int, ev: int, ed: int) -> bool:
    """Whether (m + n*phi)/e < (eu + ev*phi)/ed, for positive values and
    positive e and ed.

    Without phi parts the bit lengths of m*ed and eu*e settle it when
    they differ by two or more; otherwise the sign of the difference
    s + t*phi = e*(eu + ev*phi) - ed*(m + n*phi) is taken exactly.
    """
    if not (n or ev):
        left, right = m.bit_length() + ed.bit_length(), eu.bit_length() + e.bit_length()
        if left < right - 1:
            return True
        if left > right + 1:
            return False
    s, t = eu * e - m * ed, ev * e - n * ed
    return _sign(s, t) > 0
