"""The one-parameter family of singular functions over the unit interval.

For a split parameter lam in (0,1), g maps 0 to 0, 1 to 1, and sends the
mediant of two Stern-Brocot neighbours x < y to
g(x) + (g(y) - g(x)) * lam, i.e. each gap is split in ratio lam : 1-lam.
At lam = 1/2 this is Minkowski's question-mark function.

Three routes to the same values:

* `g_inductive`  - replay the defining mediant recurrence along the
  Stern-Brocot path to x (`stern.descend`, the walk that also counts
  ranks in `dist`); O(S(x)) exact steps.
* `question_mark` - Salem's alternating dyadic series from the regular
  continued-fraction quotients (the lam = 1/2 case), summed as one
  integer numerator over a power of 2.
* `g_series`     - the generalization of that series to every lam:
  the k-th term is (-1)**(k+1) times lam**(sum of odd-position
  quotients up to k, minus 1) times (1-lam)**(sum of even-position
  quotients up to k). `g_tau2` is this series at lam = tau**2, where
  1 - lam = tau makes every term a signed power of tau in Q(sqrt5).

Evaluators are generic over the coefficient system: any exact ordered
field element with +, -, *, ** works, so Fraction and QuadSurd share one
code path and nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

from .cf import RegularCF, sum_partial_quotients
from .exact import TAU2, QuadSurd, _check_lambda, _zero_one
from .stern import descend

LambdaValue = Union[Fraction, QuadSurd]
GValue = Union[Fraction, QuadSurd]


def g_inductive(x: Fraction, lam: LambdaValue) -> GValue:
    """Evaluate g at a rational x in [0,1] by replaying the gap splits.

    Follows the Stern-Brocot path from the gap (0, 1) down to x
    (`descend`), carrying the g-values of the enclosing neighbours; the
    path has S(x) - 1 nodes, so no level is ever materialized.
    """
    _check_lambda(lam)
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    zero, one = _zero_one(lam)
    if x == 0:
        return zero
    if x == 1:
        return one
    g_lo, g_hi = zero, one
    for side in descend(x):
        g = g_lo + (g_hi - g_lo) * lam
        g_lo, g_hi = (g_lo, g) if side < 0 else (g, g_hi)
    return g  # the last side is 0: g at x itself


def question_mark(cf: RegularCF) -> Fraction:
    """Minkowski's ?(x) from the quotients of x: the alternating sum of
    1 / 2**(a1 + ... + ak - 1). Always a dyadic rational, so the sum is
    one integer numerator over 2**(S(x) - 1), built by Horner's rule:
    shift left by each quotient, then add or subtract 1."""
    if not cf.quotients:
        return Fraction(1)
    numerator = 0
    sign = 1
    for a in cf.quotients:
        numerator = (numerator << a) + sign
        sign = -sign
    return Fraction(numerator, 1 << (sum_partial_quotients(cf) - 1))


def _partial_sums(quotients: Iterable[int], lam: LambdaValue) -> Iterator[tuple[GValue, GValue]]:
    """After each quotient, the partial sum of the alternating series for g
    and the magnitude of its last term.

    Term k multiplies the previous magnitude by lam**ak (k odd, added) or
    (1-lam)**ak (k even, subtracted); both factors are < 1, so magnitudes
    strictly decrease - which is what makes partial sums bracket the value.
    """
    zero, one = _zero_one(lam)
    complement = one - lam
    total, magnitude = zero, one
    for position, a in enumerate(quotients, start=1):
        if a < 1:
            raise ValueError(f"partial quotients must be >= 1, got {a}")
        if position % 2 == 0:
            magnitude = magnitude * complement ** a
            total = total - magnitude
        else:
            magnitude = magnitude * lam ** (a - 1 if position == 1 else a)
            total = total + magnitude
        yield total, magnitude


def g_series(cf: RegularCF, lam: LambdaValue) -> GValue:
    """Evaluate g by the finite alternating series over the quotients of x.

    The empty quotient list (x = 1) evaluates to 1, mirroring value_rcf.
    """
    _check_lambda(lam)
    total = _zero_one(lam)[1]  # x = 1 has no quotients
    for total, _ in _partial_sums(cf.quotients, lam):
        pass  # g is the last partial sum
    return total


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
    previous = _zero_one(lam)[0]
    for k, (total, magnitude) in enumerate(_partial_sums(quotients, lam), start=1):
        if magnitude < epsilon:  # term k was added if k is odd, subtracted if even
            return (previous, total) if k % 2 else (total, previous)
        previous = total
    raise ValueError("quotient stream ended: the value is rational, use g_series")
