"""The one-parameter family of singular functions over the unit interval.

For a split parameter lam in (0,1), g maps 0 to 0, 1 to 1, and sends the
mediant of two Stern-Brocot neighbours x < y to
g(x) + (g(y) - g(x)) * lam, i.e. each gap is split in ratio lam : 1-lam.
At lam = 1/2 this is Minkowski's question-mark function.

Two ways to the same values, one computation each:

* `g_series`     - the alternating series over the regular
  continued-fraction quotients of x: the k-th term is (-1)**(k+1) times
  lam**(sum of odd-position quotients up to k, minus 1) times
  (1-lam)**(sum of even-position quotients up to k). `g_tau2` is this
  series at lam = tau**2, where 1 - lam = tau makes every term a signed
  power of tau in Q(sqrt5), and `g_inductive` is it too: replaying the
  mediant recurrence along the Stern-Brocot path to x, one run of equal
  turns per quotient, visits exactly the series' partial sums as the
  ends of the current gap. `g_stream` runs the same series on a stream
  of quotients and stops at the first term below its epsilon.
* `question_mark` - Salem's dyadic form of the series at lam = 1/2,
  one integer numerator over a power of 2 built by shifts. It stays a
  separate route because it is faster than the kernel series at
  lam = 1/2: about 3 times on points with a few small quotients and 16
  times at x = 1/10**6 (Python 3.11.7, 2 cores).

Every route but `question_mark` runs on one integer kernel (`exact`),
the same for every lam: lam = (u + v*phi)/d over Z[phi], phi the golden
ratio, the form a QuadSurd stores, with v = 0 for a rational lam and
d = 1 at tau and tau**2. Each route reads lam's record from
`exact._kernel`, built once per lam after its range check and cached:
v, d, and lam and 1 - lam as pairs indexed by the parity of a
quotient's place, 1 for an odd place (lam) and 0 for an even one
(1 - lam), of their numerators, small-power tables and norms. Two
loops sum the series on integers, each a quotient at a time, with one
power of a small base per quotient, the pairs' entry at its parity
(read from the table for a below 48 and a narrow base): tau and tau**2
carry no power of d, and a rational lam no phi half, in a branch of its
own in `g_series` and in the one loop of `g_stream`, where its phi
coefficients stay 0.
`g_series` knows the last quotient and
sums from it back to the first, Horner's rule from the other end: the
tail after quotient k is lam**a or (1-lam)**a times 1 minus the tail
after k + 1, so a quotient costs its power, one product of it by the
tail and one product by d**a, and a large quotient's power enters one
product, not every later step. `g_stream` sums from the first
quotient, since its stop rule reads the terms in order: at quotient a
it multiplies the last term's magnitude by lam**a or (1-lam)**a and the
partial sum so far by d**a, adds or subtracts the new magnitude, and
stops at the first term whose magnitude is below epsilon, taking the
partial sums on either side of that term. For a
quadratic lam and a rational epsilon that loop also carries the norm of
the term's numerator, the product of the norms of lam*d and (1-lam)*d
(+-1 at tau and tau**2), and asks the judge of every wide value,
`exact._floor_by_norm`, whether a term wider than 512 bits over epsilon
has floor 0, unless the bit lengths of the term and of epsilon already
tell: the judge reads the leading bits of the term, through that norm
when its coefficients cancel, with no product of two wide integers, and
takes an exact route only when those bounds cannot decide. A
value is an integer numerator a + b*phi over a power of d, with no gcd
and no Fraction inside the loop, and reduced once into lam's own type
(Fraction or QuadSurd) when it is returned. At tau and tau**2 a wide
value also carries the norm of its numerator, which `exact.to_decimal`
then reads in place of two squarings: `g_series` carries it through its
loop at linear cost, and `g_stream` derives both bounds' norms from
the term's when the sum before the last term is narrow. Nothing here
touches floating point. A value whose size estimate passes
`exact.MAX_EXACT_BITS` is refused with a ValueError before it is built:
by `g_series` from the sum of the quotients before any power, by a
stream at the quotient that passes it, and by `question_mark` before
its shift at lam = 1/2.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .cf import RegularCF, expand_rcf
from .exact import (
    _NORM_BITS,
    _OVER_BUDGET,
    TAU2,
    QuadSurd,
    _coprime_fraction,
    _floor_by_norm,
    _kernel,
    _phi_pow,
    _phi_split,
    _phi_value,
    _sign,
)


def g_inductive(x: Fraction, lam: Fraction | QuadSurd) -> Fraction | QuadSurd:
    """Evaluate g at a rational x in [0,1] by replaying the gap splits.

    The Stern-Brocot path to x = [0; a1, ..., am] runs through m runs of
    equal turns, and while it is inside the run for quotient k the g-values
    at the two ends of the current gap are the alternating series' partial
    sums after k - 1 and k terms, its g-width the magnitude of term k. So
    the replay is `g_series` on the quotients of x, with the same cost and
    the same size budget; g(0) = 0 has no quotients and is returned here.
    """
    _kernel(lam)  # the range check of lam, before that of x
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if p == 0:
        return _phi_value(0, 0, 1, lam)  # g(0) = 0
    return g_series(expand_rcf(x), lam)


#: The most bits `question_mark` shifts by: the budget of the kernel routes at lam = 1/2.
_SALEM_LIMIT = _kernel(Fraction(1, 2)).limit


def question_mark(cf: RegularCF) -> Fraction:
    """Minkowski's ?(x) from the quotients of x: the alternating sum of
    1 / 2**(a1 + ... + ak - 1). Always a dyadic rational, so the sum is
    one integer numerator over 2**(S(x) - 1), built by Horner's rule:
    shift left by each quotient, then add or subtract 1. The numerator is
    odd, since each step shifts by at least 1 and adds +-1, so the value
    is built in lowest terms with no gcd. An S(x) - 1 past the budget the
    kernel routes keep at lam = 1/2 is refused, with a ValueError, before
    the shift."""
    if not cf.quotients:
        return Fraction(1)
    shift = sum(cf.quotients) - 1
    if shift > _SALEM_LIMIT:
        raise ValueError(_OVER_BUDGET)
    numerator = 0
    sign = 1
    for a in cf.quotients:
        numerator = (numerator << a) + sign
        sign = -sign
    return _coprime_fraction(numerator, 1 << shift)


#: Most factors lam or 1 - lam of a value at a unit lam (tau, tau**2) that
#: leave its phi coefficient within _NORM_BITS bits: that coefficient is
#: (value - conjugate)/sqrt5, and the conjugates of the at most S terms of
#: the series lie within phi**(2(S - 1)), so it is below 2**481 for
#: S - 1 = 341.
_UNIT_FACTORS = 2 * _NORM_BITS // 3


def g_series(cf: RegularCF, lam: Fraction | QuadSurd) -> Fraction | QuadSurd:
    """Evaluate g by the finite alternating series over the quotients of x.

    The empty quotient list (x = 1) evaluates to 1, as g(1) = 1.
    Otherwise the series is summed from its last quotient to its first,
    Horner's rule from the other end (Knuth, TAOCP vol. 2, 4.6.4): with
    f_k = lam**qk (k odd) or (1-lam)**qk (k even), q1 = a1 - 1 and qk =
    ak after, the tail R_m = f_m and R_k = f_k * (1 - R_(k+1)) give g =
    R_1. On integers R_k = N_k/E_k, with N_k = F_k * (E_(k+1) - N_(k+1)),
    E_k = d**qk * E_(k+1) and f_k = F_k/d**qk, so g = N_1/d**(S - 1), S
    the sum of the quotients, the numerator the left-to-right sum builds.
    A quotient costs one power of a small base, read from the record's
    table when it has one, a product of it by the tail, and the product
    of E by d**qk (none at tau and tau**2, where d = 1); a large quotient's
    power enters one product, not every later step. S - 1 is checked
    against `exact.MAX_EXACT_BITS` before any power is built, and the
    value is reduced once (`exact._phi_value`). At a unit lam (tau,
    tau**2) and more than _UNIT_FACTORS factors, the loop also carries
    the norm of N_k, with E = 1 there: N(F_k * (1 - R)) =
    (+-1)**qk * (1 - (2a + b) + N(R)) for R = a + b*phi, so the value
    hands `to_decimal` its norm at the cost of a few additions per
    quotient.
    """
    v, d, limit, bases, tables, norms = _kernel(lam)
    quotients = cf.quotients
    if not quotients:
        return _phi_value(1, 0, 1, lam)
    factors = sum(quotients) - 1
    if factors > limit:
        raise ValueError(_OVER_BUDGET)
    a = b = 0
    e = 1
    norm = None  # the norm of the tail, carried at a unit lam for a value that may be wide
    if factors > _UNIT_FACTORS and d == 1 and abs(norms[0]) == abs(norms[1]) == 1:
        norm = 0
    odd = len(quotients) % 2  # the place of the last quotient: the index of its factor
    for q in quotients[:0:-1] + (quotients[0] - 1,):  # qm, ..., q2, then q1 = a1 - 1
        if v:  # the tail is (a + b*phi)/e, and 1 - tail = (e - a - b*phi)/e
            powers = tables[odd]
            x, y = powers[q] if q < len(powers) else _phi_pow(*bases[odd], q)
            if norm is not None:  # N(F * (1 - tail)) = N(F) * (1 - (2a + b) + N(tail))
                norm += 1 - 2 * a - b
                if q & 1 and norms[odd] < 0:
                    norm = -norm
            p = e - a
            a, b = p * x - b * y, p * y - b * (x + y)
            if d != 1:
                e *= d ** q
        else:  # a rational lam: b stays 0
            a = bases[odd][0] ** q * (e - a)
            e *= d ** q
        odd ^= 1
    return _phi_value(a, b, e, lam, norm)


def g_tau2(cf: RegularCF) -> QuadSurd:
    """g at lam = tau**2, in Q(sqrt5): the series of `g_series`, whose
    terms there are signed powers of tau because 1 - tau**2 = tau."""
    return g_series(cf, TAU2)


def g_stream(
    quotients: Iterable[int],
    lam: Fraction | QuadSurd,
    epsilon: Fraction,
) -> tuple[Fraction | QuadSurd, Fraction | QuadSurd]:
    """Enclose g(x) for an irrational x given as a stream of quotients.

    Sums the alternating series of `g_series` from the first quotient,
    drawing quotients one at a time, since the stop rule reads the terms
    in order, and stops at quotient k, the first whose term has a
    magnitude below epsilon, drawing no quotient past it. Returns
    (lo, hi), the partial sums after k - 1 and k terms in increasing
    order, with lo < g(x) < hi and hi - lo < epsilon: the signs alternate
    and the magnitudes strictly decrease, so the value always lies
    between consecutive partial sums. A stream that ends first raises -
    a finite stream means x was rational, and g_series gives the exact
    value instead. lam is range-checked first, then epsilon, then each
    quotient as it is drawn.

    Term k multiplies the previous magnitude by lam**ak (k odd, added) or
    (1-lam)**ak (k even, subtracted), with a1 - 1 in place of a1; both
    factors are < 1, so magnitudes strictly decrease. Over e = d**(S - 1),
    S the sum of the quotients so far, that is Horner's rule: the sum so
    far times d**ak, plus or minus the new magnitude numerator, both
    integer pairs (a + b*phi)/e. A quotient costs one power of a small
    base (from the record's table for a narrow base), a few products and
    one exact comparison of the new magnitude with epsilon. One loop
    serves every lam: a rational lam (v = 0) has no tables, its power
    `_phi_pow(u, 0, q)` is (u**q, 0), and its phi coefficients b and n
    stay 0; tau and tau**2 (d = 1) take no scale. At a quadratic lam and
    a rational epsilon eu/ed, the loop carries the term's norm N (one
    power of a small integer per quotient), and a term wider than 512
    bits is below epsilon when the judge `exact._floor_by_norm` reads
    floor(term/epsilon) = 0, with term/epsilon =
    ((2m + n) + n*sqrt5)*ed / (2*e*eu), whose norm is 4*ed**2*N: it reads
    the leading bits of the term, through N when its coefficients cancel,
    with a few products by 64-bit integers instead of two squarings of
    the term, and takes an exact route only when the magnitude lies
    within about 2**-58 of epsilon. The judge computes that whole floor,
    which has as many bits as term/epsilon, and its arguments cost three
    products by ed, so it is asked only when the bit lengths of m, n, e,
    N, eu and ed leave the term within 2**6 of epsilon either way; past
    that they decide alone. At epsilon = 1e-4300 a stream may pass
    thousands of wide terms before it stops, and each would cost a
    division of 14-kbit integers. A narrow term, or an irrational
    epsilon, takes the exact sign of epsilon - term (`exact._sign`).
    Both sums are reduced once (`exact._phi_value`).
    At d = 1, when the last term is wide and the sum before it narrow,
    both carry their norms, derived from the term's with no product of
    two wide integers.
    """
    # the factor of a quotient at an odd place is lam, at an even one 1 - lam:
    # index 1 and 0 of the record's pairs; small powers come from its tables
    v, d, limit, bases, tables, norms = _kernel(lam)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    eu, ev, ed = _phi_split(epsilon)  # epsilon = (eu + ev*phi)/ed
    leading = v != 0 and ev == 0  # then a wide term may be compared by its leading bits
    a = b = n = factors = 0
    m = e = norm = skip = 1  # skip: term 1 is lam**(a1 - 1)
    odd = 0
    for q in quotients:
        if q < 1:
            raise ValueError(f"partial quotients must be >= 1, got {q}")
        q -= skip
        factors += q
        if factors > limit:
            raise ValueError(_OVER_BUDGET)
        skip, odd = 0, odd ^ 1
        # the magnitude is (m + n*phi)/e; a rational lam has no tables, and b and n stay 0
        powers = tables[odd]
        x, y = powers[q] if q < len(powers) else _phi_pow(*bases[odd], q)
        m, n = m * x + n * y, m * y + n * (x + y)
        if d != 1:
            scale = d ** q
            a, b, e = a * scale, b * scale, e * scale
        a, b = (a + m, b + n) if odd else (a - m, b - n)
        if leading:  # the norm is multiplicative
            norm *= norms[odd] ** q
        if leading and n.bit_length() > _NORM_BITS:
            # From bit lengths alone the term lies in (2**low, 2**(low + 5)): it is
            # (|m| + |n|*phi)/e when m and n share a sign, else |norm|/(e*|conjugate|)
            # with 2**(width - 2) < |conjugate| < 2**(width + 1); and epsilon lies in
            # (2**(k - 1), 2**(k + 1)). The judge reads term/epsilon < 1 only in between.
            width = max(m.bit_length(), n.bit_length())
            low = (width - 1 if (m > 0) == (n > 0) else norm.bit_length() - width - 2) - e.bit_length()
            k = eu.bit_length() - ed.bit_length()
            below = low + 6 <= k or low <= k and _floor_by_norm(
                (2 * m + n) * ed, n * ed, 2 * e * eu, 0, 4 * ed * ed * norm) == 0
        else:
            below = _sign(eu * e - m * ed, ev * e - n * ed) > 0
        if below:
            break
    else:
        raise ValueError("quotient stream ended: the value is rational, use g_series")
    # The sum before the last term, S = sa + sb*phi; the last term took it
    # to S + T or S - T, T = m + n*phi. At d = 1 (tau, tau**2), with T
    # wide and S narrow, both norms cost no squaring of T:
    # N(S +- T) = N(S) +- ((2sa + sb)m + (sa - 2sb)n) + N(T).
    sa, sb = (a - m, b - n) if odd else (a + m, b + n)
    before = after = None  # the norms of S and of S +- T, where known
    if leading and d == 1 and n.bit_length() > _NORM_BITS >= max(sa.bit_length(), sb.bit_length()):
        before = sa * sa + sa * sb - sb * sb
        cross = (2 * sa + sb) * m + (sa - 2 * sb) * n
        after = before + (cross if odd else -cross) + norm
    before, after = _phi_value(sa, sb, e, lam, before), _phi_value(a, b, e, lam, after)
    return (before, after) if odd else (after, before)  # lo, hi
