import operator
import random
import re
import sys
from unittest import mock
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sternbrocot import (
    SQRT5,
    TAU,
    TAU2,
    QuadSurd,
    exact,
    expand_rcf,
    g_inductive,
    g_series,
    g_stream,
    g_tau2,
    mediant,
    parse_quadsurd,
    parse_rational,
    stern_level,
    sum_partial_quotients,
    to_decimal,
)

from sternbrocot.exact import (_coprime_fraction, _int_text, _phi_pow, _phi_powers, _phi_split,
                               _phi_value, _pow5)

from oracles import (INT_DIGITS_LIMITED, FractionSurd, field_series, int_digit_limit, phi_integers,
                     rational_near, right_to_left_phi_pow, rounded_scaled_value,
                     smallest_denominator_between, split_parameters, surd_text, term_numerator)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10_000)
quads = st.builds(QuadSurd, rationals, rationals)
big_rationals = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))
coefficients = st.tuples(big_rationals, big_rationals)
#: Values whose powers cancel factors 2 and 5 between the integers of the
#: sqrt5 basis (only 5 in the phi basis QuadSurd stores), and one that
#: cancels nothing.
POWER_BASES = [
    (Fraction(-1, 2), Fraction(1, 2)),  # tau
    (Fraction(3, 2), Fraction(-1, 2)),  # tau**2
    (Fraction(1, 2), Fraction(1, 2)),  # the golden ratio
    (Fraction(0), Fraction(1, 5)),  # 1/sqrt5
    (Fraction(1, 10), Fraction(3, 10)),
    (Fraction(5, 4), Fraction(3, 4)),
    (Fraction(1, 7), Fraction(3, 7)),
]


def in_lowest_terms(x: QuadSurd) -> QuadSurd:
    """x, after checking that its integers (a, b, d) have d > 0 and gcd 1."""
    assert x._d > 0
    assert gcd(x._d, x._a, x._b) == 1
    return x


def assert_agrees(x: QuadSurd, oracle: FractionSurd) -> None:
    """x is in lowest terms and reads, prints and hashes like the oracle."""
    in_lowest_terms(x)
    assert (x.a, x.b) == (oracle.a, oracle.b)
    assert str(x) == str(oracle)
    assert repr(x) == f"QuadSurd({oracle.a!r}, {oracle.b!r})"
    assert hash(x) == hash(oracle)
    assert x.is_rational == (oracle.b == 0)


class TestMediant:
    def test_unit_endpoints(self):
        assert mediant(Fraction(0), Fraction(1)) == Fraction(1, 2)

    def test_left_and_right_gaps(self):
        # (0+1)/(1+2) and (1+1)/(2+1); both first appear at level 2
        assert mediant(Fraction(0), Fraction(1, 2)) == Fraction(1, 3)
        assert mediant(Fraction(1, 2), Fraction(1)) == Fraction(2, 3)
        assert sum_partial_quotients(expand_rcf(Fraction(1, 3))) - 1 == 2
        assert sum_partial_quotients(expand_rcf(Fraction(2, 3))) - 1 == 2

    def test_equal_arguments_rejected(self):
        with pytest.raises(ValueError):
            mediant(Fraction(1, 2), Fraction(1, 2))

    def test_result_strictly_between(self):
        x, y = Fraction(1, 3), Fraction(2, 5)
        assert x < mediant(x, y) < y

    def test_minimal_denominator_between_neighbours(self, stern_chain):
        # Between unimodular neighbours the mediant is the unique
        # smallest-denominator fraction; scan every gap of levels 0..10.
        for level in stern_chain[:11]:
            for x, y in zip(level.elements, level.elements[1:]):
                assert mediant(x, y) == smallest_denominator_between(x, y)


class TestQuadSurd:
    def test_tau_squared_coefficients(self):
        assert TAU ** 2 == QuadSurd(Fraction(3, 2), Fraction(-1, 2))
        assert TAU ** 2 == TAU2

    def test_zeroth_power_is_one(self):
        assert TAU ** 0 == 1
        assert QuadSurd(0) ** 0 == 1

    def test_tau_satisfies_its_quadratic(self):
        assert TAU ** 1 + TAU ** 2 == 1
        assert TAU2 == 1 - TAU

    def test_negative_exponent_inverts(self):
        assert TAU ** -1 * TAU == 1
        assert TAU ** -1 == 1 + TAU

    def test_sign_case_analysis(self):
        assert QuadSurd(0, 0).sign() == 0
        assert QuadSurd(3, -1).sign() == 1  # 9 > 5
        assert QuadSurd(2, -1).sign() == -1  # 4 < 5
        assert QuadSurd(-2, 1).sign() == 1
        assert QuadSurd(-3, 1).sign() == -1
        assert QuadSurd(0, Fraction(-1, 7)).sign() == -1

    def test_mixed_comparisons_and_hash(self):
        assert QuadSurd(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(QuadSurd(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert TAU < Fraction(2, 3)
        assert Fraction(3, 5) < TAU
        assert 0 < TAU2 < 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            TAU / QuadSurd(0)

    @pytest.mark.parametrize("other", [1.5, "1"])
    @pytest.mark.parametrize("method, op", [
        ("__lt__", operator.lt), ("__add__", operator.add), ("__sub__", operator.sub),
        ("__rsub__", lambda x, y: y - x), ("__mul__", operator.mul),
        ("__truediv__", operator.truediv), ("__rtruediv__", lambda x, y: y / x),
        ("__pow__", operator.pow),
    ])
    def test_an_operand_outside_the_field_is_refused(self, method, op, other):
        # neither int, Fraction nor QuadSurd: `_coerce` gives None, the
        # method returns NotImplemented, and Python raises TypeError
        assert getattr(TAU, method)(other) is NotImplemented
        with pytest.raises(TypeError):
            op(TAU, other)

    def test_an_irrational_has_no_fraction(self):
        assert QuadSurd(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
        with pytest.raises(ValueError, match=re.escape(f"{TAU} is irrational")):
            TAU.as_fraction()

    @given(quads, quads, quads)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(quads, quads, quads)
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(quads, quads.filter(bool))
    def test_division_inverts_multiplication(self, a, b):
        assert (a / b) * b == a

    @given(quads, st.integers(min_value=0, max_value=12))
    def test_pow_matches_repeated_product(self, a, n):
        product = QuadSurd(1)
        for _ in range(n):
            product = product * a
        assert a ** n == product

    @given(quads, quads)
    def test_ordering_matches_subtraction_sign(self, a, b):
        assert (a < b) == ((a - b).sign() < 0)
        assert (a == b) == ((a - b).sign() == 0)


class TestAgainstFractionSurd:
    """QuadSurd's integer arithmetic against the two-Fraction oracle, on
    coefficients with numerators and denominators up to 2**200."""

    @given(coefficients, coefficients)
    def test_field_operations(self, p, q):
        x, y, ox, oy = QuadSurd(*p), QuadSurd(*q), FractionSurd(*p), FractionSurd(*q)
        assert_agrees(x, ox)
        assert_agrees(x + y, ox + oy)
        assert_agrees(x - y, ox - oy)
        assert_agrees(x * y, ox * oy)
        assert_agrees(-x, -ox)
        if oy:
            assert_agrees(x / y, ox / oy)
            assert_agrees(y.inverse(), oy.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert x.sign() == ox.sign()
        assert (x < y) == (ox < oy)
        assert (x == y) == (ox == oy)

    @given(coefficients, big_rationals)
    def test_mixed_with_rationals(self, p, r):
        x, ox = QuadSurd(*p), FractionSurd(*p)
        for n in (r, r.numerator, 0, 1):
            assert_agrees(x + n, ox + n)
            assert_agrees(n - x, FractionSurd(n) - ox)
            assert_agrees(x * n, ox * n)
            assert (x < n) == (ox < n)
            assert (n < x) == (FractionSurd(n) < ox)
            assert (x == n) == (ox == n)
        assert_agrees(QuadSurd(r), FractionSurd(r))
        assert QuadSurd(r) == r and hash(QuadSurd(r)) == hash(r)

    @given(coefficients)
    def test_equal_values_built_two_ways(self, p):
        x = QuadSurd(*p)
        y = in_lowest_terms(QuadSurd(0, p[1]) + p[0])
        assert x == y and hash(x) == hash(y)
        assert (x._a, x._b, x._d) == (y._a, y._b, y._d)
        assert not x < y and not y < x

    @given(coefficients, st.integers(-12, 12))
    def test_powers(self, p, n):
        x, ox = QuadSurd(*p), FractionSurd(*p)
        if n < 0 and not ox:
            with pytest.raises(ZeroDivisionError):
                x ** n
        else:
            assert_agrees(x ** n, ox ** n)

    @pytest.mark.parametrize("p", POWER_BASES, ids=str)
    @given(n=st.integers(-3000, 3000))
    def test_large_powers_cancel_to_lowest_terms(self, p, n):
        assert_agrees(QuadSurd(*p) ** n, FractionSurd(*p) ** n)

    @given(coefficients, st.integers(1, 40))
    def test_to_decimal(self, p, digits):
        assert to_decimal(QuadSurd(*p), digits) == FractionSurd(*p).decimal(digits)

    def test_tau_powers_keep_d_at_one_or_two(self):
        for n in range(-200, 200):
            assert in_lowest_terms(TAU ** n)._d in (1, 2)

    def test_units_are_stored_over_one(self):
        # tau = phi - 1, tau**2 = 2 - phi and 1/tau = phi are units of Z[phi]
        for unit in (TAU, TAU2, 1 / TAU):
            assert in_lowest_terms(unit)._d == 1
            for n in (*range(-50, 51), -3000, -2999, 2999, 3000):
                assert in_lowest_terms(unit ** n)._d == 1


class TestToDecimal:
    def test_frozen_examples(self):
        assert to_decimal(TAU2, 10) == "0.3819660113"
        assert to_decimal(TAU, 10) == "0.6180339887"
        assert to_decimal(QuadSurd(1, 0), 3) == "1.000"

    def test_rationals_and_negatives(self):
        assert to_decimal(Fraction(1, 4), 2) == "0.25"
        assert to_decimal(-TAU, 5) == "-0.61803"
        assert to_decimal(QuadSurd(-1), 2) == "-1.00"

    def test_digit_count_validation(self):
        with pytest.raises(ValueError):
            to_decimal(TAU, 0)

    @pytest.mark.parametrize("x, text", [
        (Fraction(4, 10 ** 16), "0.000000000000000"), (Fraction(-4, 10 ** 16), "0.000000000000000"),
        (Fraction(5, 10 ** 16), "0.000000000000001"), (Fraction(-5, 10 ** 16), "0.000000000000000"),
        (Fraction(6, 10 ** 16), "0.000000000000001"), (Fraction(-6, 10 ** 16), "-0.000000000000001"),
        (TAU ** 80, "0.000000000000000"), (-TAU ** 80, "0.000000000000000"),
        (TAU ** 73, "0.000000000000001"), (-TAU ** 73, "-0.000000000000001"),
    ], ids=str)
    def test_a_value_rounding_to_zero_prints_no_sign(self, x, text):
        assert to_decimal(x, 15) == text

    @pytest.mark.skipif(not INT_DIGITS_LIMITED, reason="no int-to-str limit")
    def test_at_the_digit_limit_it_prints_or_raises_as_str_does(self):
        whole = 10 ** 4299  # 4300 digits
        with int_digit_limit(4300):
            assert to_decimal(Fraction(3 * whole + 1, 3), 2) == "1" + "0" * 4299 + ".33"
            assert to_decimal(Fraction(-3 * whole - 1, 3), 2) == "-1" + "0" * 4299 + ".33"
            assert to_decimal(Fraction(1, 3), 4300) == "0." + "3" * 4300
            with pytest.raises(ValueError) as oracle:
                str(10 * whole)  # 4301 digits
            for x, digits in ((Fraction(10 * whole), 2), (Fraction(-10 * whole), 2),
                              (Fraction(1, 3), 4301)):
                with pytest.raises(ValueError) as raised:
                    to_decimal(x, digits)
                assert str(raised.value) == str(oracle.value)

    @given(quads, st.integers(min_value=1, max_value=25))
    def test_error_below_one_ulp(self, x, digits):
        approx = Fraction(to_decimal(x, digits))
        assert abs(x - approx) < Fraction(1, 10 ** digits)

    @given(quads, st.integers(min_value=1, max_value=20))
    def test_matches_mpmath_rounding(self, x, digits):
        n = rounded_scaled_value(x.a, x.b, digits)
        sign = "-" if n < 0 else ""
        whole, frac = divmod(abs(n), 10 ** digits)
        assert to_decimal(x, digits) == f"{sign}{whole}.{frac:0{digits}d}"

    @given(quads, quads)
    def test_ordering_agrees_with_thirty_digits(self, x, y):
        dx = Fraction(to_decimal(x, 30))
        dy = Fraction(to_decimal(y, 30))
        if x == y:
            assert dx == dy
        else:
            # strategy values are far enough apart that 30 digits decide
            assert (x < y) == (dx < dy)


def near_boundary(b: int, digits: int, k: int, j: int, c: int, sign: int) -> tuple[Fraction, Fraction]:
    """(A/Q, B/Q), Q = 2**(k + 1) * 10**digits, for a B > 0 and
    A = (2j + 1)*2**k + c - floor(B*sqrt5), c in {-1, 0}: the terms of
    (A + B*sqrt5)/Q cancel down to (j + 1/2)/10**digits, a half-up
    rounding boundary, plus (c + frac(B*sqrt5))/Q, less than 2**-k away.
    Both coefficients are multiplied by sign."""
    q = 2 ** (k + 1) * 10 ** digits
    a = (2 * j + 1) * 2 ** k + c - isqrt(5 * b * b)
    return Fraction(sign * a, q), Fraction(sign * b, q)


@st.composite
def cancelling_near_boundaries(draw) -> tuple[tuple[Fraction, Fraction], int]:
    """Coefficients from `near_boundary` with B of 1 to 40 kbit, k up to
    400 and a boundary in [0, 1), and a digit count from 1 to 40."""
    digits = draw(st.integers(1, 40))
    bits = draw(st.integers(1000, 40000))
    b = random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(bits) | 1 << bits - 1
    j = draw(st.integers(0, 10 ** digits - 1))
    p = near_boundary(b, digits, draw(st.integers(0, 400)), j, draw(st.sampled_from((-1, 0))),
                      draw(st.sampled_from((1, -1))))
    return p, digits


class TestNormRoute:
    """`to_decimal` on values whose |b| passes `_NORM_BITS`, and the judge
    `_floor_by_norm` it sends them to: the leading-bits route, through the
    norm for cancelling values, and its exact fallback."""

    @given(cancelling_near_boundaries())
    def test_matches_the_square_root_oracle(self, case):
        p, digits = case
        x = QuadSurd(*p)
        assert x._b.bit_length() > exact._NORM_BITS
        assert to_decimal(x, digits) == FractionSurd(*p).decimal(digits)

    def count_routes(self, monkeypatch) -> dict:
        calls = {"norm": 0, "scaled": 0}
        norm, scaled = exact._floor_by_norm, exact._floor_scaled

        def counted_norm(*args):
            calls["norm"] += 1
            return norm(*args)

        def counted_scaled(*args):
            calls["scaled"] += 1
            return scaled(*args)

        monkeypatch.setattr(exact, "_floor_by_norm", counted_norm)
        monkeypatch.setattr(exact, "_floor_scaled", counted_scaled)
        return calls

    def test_the_bounds_decide_alone(self, monkeypatch):
        calls = self.count_routes(monkeypatch)
        x = TAU2 + TAU ** 2001  # a 1389-bit b
        assert to_decimal(x, 30) == FractionSurd(x.a, x.b).decimal(30) == "0.381966011250105151795413165634"
        assert calls == {"norm": 1, "scaled": 0}

    def test_the_exact_route_runs_when_the_bounds_straddle(self, monkeypatch):
        # 2**-300 from the boundary 0.38196601125010515, far closer than
        # the 2**-58 of a last digit that the bounds resolve
        p = near_boundary(3 ** 700, 16, 300, 3819660112501051, 0, 1)
        calls = self.count_routes(monkeypatch)
        assert to_decimal(QuadSurd(*p), 16) == FractionSurd(*p).decimal(16) == "0.3819660112501052"
        assert to_decimal(-QuadSurd(*p), 16) == (-FractionSurd(*p)).decimal(16)
        assert calls == {"norm": 2, "scaled": 2}

    def test_narrow_values_keep_the_square_root_route(self, monkeypatch):
        calls = self.count_routes(monkeypatch)
        for x in (TAU2 + TAU ** 201, QuadSurd(2, 3 ** 300), Fraction(1, 3)):
            to_decimal(x, 15)
        assert calls == {"norm": 0, "scaled": 3}

    def test_a_wide_value_far_outside_one_reaches_the_judge_then_falls_back(self, monkeypatch):
        # coefficients of one sign, or a = 0, and a value past 2**1000:
        # the floor needs every bit of a and b, so the judge finds no bits
        # to drop and calls the exact square root once
        calls = self.count_routes(monkeypatch)
        for x in (TAU ** -2001, -TAU ** -2000, QuadSurd(0, 3 ** 700), QuadSurd(0, -3 ** 700)):
            assert to_decimal(x, 15) == FractionSurd(x.a, x.b).decimal(15)
        assert calls == {"norm": 4, "scaled": 4}

    def test_a_wide_value_without_cancellation_tries_the_norm_then_falls_back(self, monkeypatch):
        # |a| = 3 * 7**4000 and |b|*sqrt5 = 2.236... * 7**4000 part in their
        # leading bits: nothing cancels, so the floor needs every bit of a
        # and b, the norm route finds no bits to drop, and each call falls
        # back to the exact square root
        calls = self.count_routes(monkeypatch)
        x = QuadSurd(3 * 7 ** 4000, -7 ** 4000)
        assert x._b.bit_length() > exact._NORM_BITS
        for value in (x, -x):
            for digits in (1, 15, 40):
                assert to_decimal(value, digits) == FractionSurd(value.a, value.b).decimal(digits)
        assert calls == {"norm": 6, "scaled": 6}

    @settings(max_examples=100)
    @given(st.integers(600, 4000), st.integers(0, 2 ** 32), st.integers(0, 300),
           st.integers(1, 300), st.integers(1, 60))
    def test_the_norm_route_falls_back_at_most_once(self, bits, seed, cancelled, d_bits, power):
        # a and b*sqrt5 of opposite signs that cancel in about `cancelled`
        # leading bits, over a d of 1 to 300 bits: the norm route returns
        # the exact floor, by its bounds or by one call of `_floor_scaled`
        rng = random.Random(seed)
        b = rng.getrandbits(bits) | 1 << bits - 1
        a = -(isqrt(5 * b * b) + rng.getrandbits(bits - cancelled))
        d = rng.getrandbits(d_bits) | 1 << d_bits - 1
        scaled = exact._floor_scaled
        with mock.patch.object(exact, "_floor_scaled", wraps=scaled) as fallback:
            assert exact._floor_by_norm(a, b, d, power) == scaled(a, b, d, power)
        assert fallback.call_count <= 1

    @given(st.integers(600, 4000), st.integers(0, 2 ** 32), st.integers(1, 8), st.booleans(),
           st.booleans(), st.integers(1, 300), st.integers(1, 60))
    def test_a_value_that_does_not_cancel_matches_the_square_root_oracle(
            self, bits, seed, agreed, above, negative, d_bits, digits):
        # |a| and |b|*sqrt5 differ within their leading `agreed` bits, so
        # nothing past them cancels: the norm route reads the floor by its
        # bounds when d leaves it bits to drop, and else falls back to the
        # exact route (about half of such draws)
        rng = random.Random(seed)
        b = rng.getrandbits(bits) | 1 << bits - 1
        root = isqrt(5 * b * b)
        offset = (root >> agreed) + rng.getrandbits(bits - agreed - 2)
        a = root + offset if above else root - offset
        a, b = (a, -b) if negative else (-a, b)
        d = rng.getrandbits(d_bits) | 1 << d_bits - 1
        x = QuadSurd(Fraction(a, d), Fraction(b, d))
        assert x._b.bit_length() > exact._NORM_BITS
        with mock.patch.object(exact, "_floor_by_norm", wraps=exact._floor_by_norm) as norm:
            assert to_decimal(x, digits) == FractionSurd(x.a, x.b).decimal(digits)
        assert norm.call_count == 1

    @given(st.integers(600, 4000), st.integers(0, 2 ** 32), st.one_of(st.just(0), st.integers(1, 4008)),
           st.one_of(st.integers(1, 300), st.just(None)), st.booleans(), st.integers(0, 60))
    @example(600, 0, 0, None, True, 0)  # a = 0 and b < 0 over a d as wide as b
    @example(4000, 1, 0, 300, True, 60)
    def test_a_wide_value_whose_coefficients_share_a_sign(self, bits, seed, a_bits, d_bits,
                                                         negative, power):
        # nothing cancels: the judge reads |a| + |b|*sqrt5 by its leading
        # bits, and a negative value as -floor - 1, over a d of 1 to 300
        # bits or as wide as b; a value far outside [-1, 1] leaves no bits
        # to drop and takes one call of `_floor_scaled`
        rng = random.Random(seed)
        b = rng.getrandbits(bits) | 1 << bits - 1
        a = rng.getrandbits(a_bits) | 1 << a_bits - 1 if a_bits else 0
        if negative:
            a, b = -a, -b
        d_bits = d_bits or bits
        d = rng.getrandbits(d_bits) | 1 << d_bits - 1
        scaled = exact._floor_scaled
        with mock.patch.object(exact, "_floor_scaled", wraps=scaled) as fallback:
            assert exact._floor_by_norm(a, b, d, power) == scaled(a, b, d, power)
        assert fallback.call_count <= 1
        digits = max(power, 1)
        x = QuadSurd(Fraction(a, d), Fraction(b, d))
        assert to_decimal(x, digits) == FractionSurd(x.a, x.b).decimal(digits)

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("gap, fallbacks", [(45, 0), (70, 1)])
    def test_a_value_of_one_sign_next_to_an_integer(self, negative, gap, fallbacks):
        # (a + b*sqrt5)/d = 7 + about 2**-gap, with a, b and d of 1200
        # bits: the bounds, 2**-60 apart, read the floor 2**-45 from the
        # integer and leave it to `_floor_scaled` 2**-70 from it
        rng = random.Random(gap)
        b, d = rng.getrandbits(1200) | 1 << 1199, rng.getrandbits(1200) | 1 << 1199
        a = 7 * d - isqrt(5 * b * b) + (d >> gap)
        assert a > 0
        if negative:
            a, b = -a, -b
        with mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as fallback:
            assert exact._floor_by_norm(a, b, d, 0) == (-8 if negative else 7)
        assert fallback.call_count == fallbacks

    @pytest.mark.parametrize("negative", [False, True])
    def test_a_value_with_a_zero_next_to_one(self, negative):
        # b*sqrt5/d = 1 + about 2**-69, with a = 0: nothing cancels, the
        # bounds straddle 1, and `_floor_scaled` reads it, once, with no
        # complement route
        b = random.Random(0).getrandbits(1200) | 1 << 1199
        d = isqrt(5 * b * b) - (b >> 68)
        b = -b if negative else b
        with mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as fallback, \
                mock.patch.object(exact, "_floor_by_norm", wraps=exact._floor_by_norm) as judge:
            assert judge(0, b, d, 0) == (-2 if negative else 1)
        assert (judge.call_count, fallback.call_count) == (1, 1)

    @pytest.mark.parametrize("x, routes", [
        (g_stream(iter([1, 9892, 4, 1, 2]), TAU, Fraction(1, 10 ** 30))[0], {"norm": 2, "scaled": 0}),
        (g_stream(iter([1, 9892, 4, 1, 2]), TAU2, Fraction(1, 10 ** 30))[0], {"norm": 2, "scaled": 0}),
        (g_tau2(expand_rcf(Fraction(60020, 60031))), {"norm": 2, "scaled": 0}),
        (g_tau2(expand_rcf(Fraction(179261, 179307))), {"norm": 2, "scaled": 0}),
        (1 - TAU ** 2001, {"norm": 2, "scaled": 0}),
        (1 + TAU ** 2001, {"norm": 2, "scaled": 0}),
        (TAU ** 2001 - 1, {"norm": 1, "scaled": 1}),
    ], ids=["stream-lo-tau", "stream-lo-tau2", "tau2-60020/60031", "tau2-179261/179307",
            "1-tau^2001", "1+tau^2001", "tau^2001-1"])
    def test_a_value_next_to_one_reads_its_complement(self, monkeypatch, x, routes):
        # within 2**-58 of 1 the two floors straddle 10**16, and the floor
        # is read from 1 - x by the norm route once more; next to -1 the
        # exact fallback still runs
        calls = self.count_routes(monkeypatch)
        assert to_decimal(x, 15) == FractionSurd(x.a, x.b).decimal(15)
        assert calls == routes

    @given(st.integers(600, 20000), st.integers(1, 40))
    @example(600, 1)
    @example(20000, 40)
    def test_next_to_one_matches_the_square_root_oracle(self, k, digits):
        small = TAU ** k
        for x in (1 - small, 1 + small, small - 1):
            assert to_decimal(x, digits) == FractionSurd(x.a, x.b).decimal(digits)


def convergent_denominators(count: int) -> list[int]:
    """0 and the denominators q of the first convergents p/q of sqrt5 =
    [2; 4, 4, ...]: q*sqrt5 lies within 1/(4q) of the integer p, below it
    for 9/4, 161/72, ... (at even places of the list) and above it for
    2/1, 38/17, ... (at odd places)."""
    qs = [0, 1]
    while len(qs) < count:
        qs.append(4 * qs[-1] + qs[-2])
    return qs


CONVERGENT_DENOMINATORS = convergent_denominators(100)


def at_least(a: int, b: int, x: int) -> bool:
    """Whether a + b*sqrt5 >= x, for b >= 0, on integers alone."""
    return x - a <= 0 or 5 * b * b >= (x - a) ** 2


class TestLeading:
    """`_leading`, the one leading-bits bound of a + b*sqrt5, at the edge of
    its slack: the s dropped bits of a and b all ones, and t = b >> s the
    denominator of a convergent of sqrt5, so that the three truncations
    lose close to 1, sqrt5 and 1 (within 2**-60 of 2 + sqrt5 once s and t
    pass 62 bits), or, at s = 0, close to nothing."""

    @given(st.integers(-2 ** 200, 2 ** 200), st.sampled_from(CONVERGENT_DENOMINATORS),
           st.integers(0, 200))
    @example(3 ** 100, CONVERGENT_DENOMINATORS[40], 100)  # loses within 2**-60 of 2 + sqrt5
    @example(-3 ** 100, CONVERGENT_DENOMINATORS[41], 0)  # loses under 1/(4t)
    def test_both_bounds_hold(self, high, t, s):
        ones = (1 << s) - 1
        a, b = high << s | ones, t << s | ones
        low, top = exact._leading(a, b, s)
        assert at_least(a, b, low << s)
        assert not at_least(a, b, top << s)

    def test_the_edge_examples_reach_the_edge(self):
        # the loss of the first example passes 4 and that of the second
        # stays below 2**-60, so a slack of 4 or a bound one above fails
        a, b = 3 ** 100 << 100 | (1 << 100) - 1, CONVERGENT_DENOMINATORS[40] << 100 | (1 << 100) - 1
        low, _ = exact._leading(a, b, 100)
        assert at_least(a, b, (low + 4) << 100)
        a, b = -3 ** 100, CONVERGENT_DENOMINATORS[41]
        low, _ = exact._leading(a, b, 0)
        assert not at_least(a << 60, b << 60, (low << 60) + 1)


class TestPhiPow:
    """`_phi_pow`, left to right, against the right-to-left oracle."""

    # four units, phi, tau**2, tau and phi**2 (norms -1, 1, -1, 1), which
    # are squared by two squarings, and two bases of norm 5 and -5, which
    # are not
    @pytest.mark.parametrize("base", [(0, 1), (2, -1), (-1, 1), (1, 1), (2, 1), (1, 3)], ids=str)
    @given(n=st.integers(0, 20000))
    @example(n=0)
    @example(n=1)
    def test_matches_right_to_left(self, base, n):
        assert _phi_pow(*base, n) == right_to_left_phi_pow(*base, n)

    # a 200-bit base to the power 20000 has 4-Mbit coefficients, some
    # seconds for each route, hence fewer examples than the small bases
    @settings(max_examples=10)
    @given(st.integers(-2 ** 200, 2 ** 200), st.integers(-2 ** 200, 2 ** 200), st.integers(0, 20000))
    def test_matches_right_to_left_on_200_bit_bases(self, x, y, n):
        assert _phi_pow(x, y, n) == right_to_left_phi_pow(x, y, n)

    @pytest.mark.parametrize("x, y", [(2, 0), (2, -1), (0, 1), (0, 0)])
    @pytest.mark.parametrize("n", [-1, -2, -10 ** 6])
    def test_a_negative_exponent_is_refused(self, x, y, n):
        with pytest.raises(ValueError, match="exponent"):
            _phi_pow(x, y, n)


#: One split parameter per kind of term: powers of tau (d = 1), whose m and
#: n have opposite signs, and two with d > 1 whose numerators may have
#: either.
TERM_LAMBDAS = (TAU, TAU2, QuadSurd(Fraction(1, 7), Fraction(1, 11)), QuadSurd(Fraction(1, 4), Fraction(1, 8)))


def stream_stop(m: int, n: int, e: int, norm: int, epsilon: Fraction) -> bool:
    """Whether the term (m + n*phi)/e, of norm m**2 + m*n - n**2, is below
    epsilon, asked of the judge at power 0 as `g_stream` asks it."""
    eu, _, ed = _phi_split(epsilon)
    return exact._floor_by_norm((2 * m + n) * ed, n * ed, 2 * e * eu, 0, 4 * ed * ed * norm) == 0


def exact_stop(m: int, n: int, e: int, epsilon: Fraction) -> bool:
    """The same answer by the exact sign of epsilon - term."""
    eu, _, ed = _phi_split(epsilon)
    return exact._sign(eu * e - m * ed, -n * ed) > 0


class TestStreamStop:
    """`_floor_by_norm` at power 0, called as the stop test of `g_stream`
    for a quadratic lam and a rational epsilon, against the exact `_sign`
    it stands in for, on terms whose coefficients cancel and on terms
    whose coefficients share a sign."""

    @settings(max_examples=200)
    @given(st.sampled_from(TERM_LAMBDAS), st.integers(0, 3000), st.integers(0, 3000),
           st.one_of(st.integers(1, 100).map(lambda k: Fraction(1, 10 ** k)),
                     st.integers(-4, 4)))
    @example(TAU2, 2000, 1000, 0)  # epsilon within 2**-62 of the magnitude
    @example(QuadSurd(Fraction(1, 4), Fraction(1, 8)), 2000, 0, 0)
    def test_a_decision_is_the_exact_sign(self, lam, powers, rest, epsilon):
        m, n, e, norm = term_numerator(lam, powers, rest)
        assume(n.bit_length() > exact._NORM_BITS)
        assert norm == m * m + m * n - n * n
        if not isinstance(epsilon, Fraction):  # within 1 +- 2**-60 of the magnitude
            epsilon = rational_near(m, n, e, epsilon)
        assert stream_stop(m, n, e, norm, epsilon) == exact_stop(m, n, e, epsilon)

    @pytest.mark.parametrize("lam", TERM_LAMBDAS, ids=str)
    @pytest.mark.parametrize("powers, rest", [(2000, 1000), (1000, 2000), (3000, 0), (0, 3000)])
    def test_the_exact_route_runs_only_next_to_the_magnitude(self, lam, powers, rest):
        # epsilon within 2**-59 of the magnitude may take one fallback to
        # `_floor_scaled`; 2**-42 away, the leading bits decide alone
        m, n, e, norm = term_numerator(lam, powers, rest)
        for offset in (-2 ** 20, -8, 0, 8, 2 ** 20):
            epsilon = rational_near(m, n, e, offset)
            with mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as fallback:
                assert stream_stop(m, n, e, norm, epsilon) == exact_stop(m, n, e, epsilon) == (offset > 0)
            assert fallback.call_count <= (1 if abs(offset) <= 8 else 0)

    def test_both_sign_patterns_take_their_turn(self):
        # tau**2 powers: 2m + n and n of opposite signs, read through the
        # norm; at 1/7+1/11sqrt5, lam**2000 has them of one sign, read as
        # they are: both decided by their leading bits alone
        for lam, same in ((TAU2, False), (QuadSurd(Fraction(1, 7), Fraction(1, 11)), True)):
            m, n, e, norm = term_numerator(lam, 2000, 0)
            assert ((2 * m + n > 0) == (n > 0)) is same
            with mock.patch.object(exact, "_floor_scaled") as fallback:
                assert stream_stop(m, n, e, norm, rational_near(m, n, e, 2 ** 20)) is True
                assert stream_stop(m, n, e, norm, rational_near(m, n, e, -2 ** 20)) is False
            assert not fallback.called


class TestPhiPowers:
    """The small-power table the series loop reads instead of `_phi_pow`."""

    @pytest.mark.parametrize("lam", [TAU, TAU2, QuadSurd(Fraction(1, 7), Fraction(1, 11)),
                                     Fraction(2, 9)], ids=str)
    def test_every_entry_is_the_power(self, lam):
        u, v, d = _phi_split(lam)
        for base in ((u, v), (d - u, -v)):
            table = _phi_powers(*base)
            assert len(table) == exact._TABLE_POWERS
            assert list(table) == [_phi_pow(*base, k) for k in range(exact._TABLE_POWERS)]

    def test_the_cache_stays_bounded(self):
        lams = [QuadSurd(Fraction(1, k), Fraction(1, 3 * k)) for k in range(3, 103)]
        for lam in lams:
            g_series(expand_rcf(Fraction(3, 7)), lam)
        info = exact._kernel_record.cache_info()  # the record holds the tables
        assert len(set(lams)) == 100
        assert info.currsize <= info.maxsize == 16

    def test_a_wide_base_is_powered_by_phi_pow(self):
        lam = QuadSurd(Fraction(1, 3), Fraction(1, 10 ** 40))  # 133-bit integers
        u, v, d = _phi_split(lam)
        assert _phi_powers(u, v) == _phi_powers(d - u, -v) == ()
        x = Fraction(2, 7)  # quotients 3, 2
        with mock.patch("sternbrocot.singular._phi_pow", wraps=_phi_pow) as powered:
            value = g_series(expand_rcf(x), lam)
        assert powered.call_count == 2
        assert value == field_series(expand_rcf(x).quotients, lam)


def factor_limit(u: int, v: int, d: int) -> int:
    """The most factors lam or 1 - lam a value may carry within
    MAX_EXACT_BITS, for lam = (u + v*phi)/d: the budget over the bit
    length of the largest of d, |u| + 2|v| and |d - u| + 2|v|."""
    return exact.MAX_EXACT_BITS // max(d, abs(u) + 2 * abs(v), abs(d - u) + 2 * abs(v)).bit_length()


#: Split parameters whose integers pass _TABLE_BITS: a + b*sqrt5 with a in
#: [1/10, 9/10] and |b| = 1/n for n of 41 to 200 bits.
wide_parameters = st.builds(
    QuadSurd, st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=1000),
    st.builds(Fraction, st.sampled_from([1, -1]), st.integers(2 ** 40, 2 ** 200)))


class TestKernel:
    """The record of a split parameter that every g route but Salem's reads."""

    @pytest.mark.parametrize("lam", [TAU, TAU2, QuadSurd(Fraction(1, 7), Fraction(1, 11)),
                                     Fraction(2, 9), QuadSurd(Fraction(1, 3), Fraction(1, 10 ** 40))],
                             ids=["tau", "tau2", "1/7+1/11sqrt5", "2/9", "133-bit"])
    def test_the_fields(self, lam):
        u, v, d = _phi_split(lam)
        limit = factor_limit(u, v, d)
        assert (u + v * QuadSurd(Fraction(1, 2), Fraction(1, 2))) / d == lam
        # the norm of x + y*sqrt5 is x**2 - 5*y**2: those of (1 - lam)*d and lam*d
        norms = tuple(z.a ** 2 - 5 * z.b ** 2 for z in (QuadSurd(0) + (1 - lam) * d,
                                                        QuadSurd(0) + lam * d))
        tables = (_phi_powers(d - u, -v), _phi_powers(u, v)) if v else ((), ())
        assert exact._kernel(lam) == (v, d, limit, ((d - u, -v), (u, v)), tables, norms)

    @settings(max_examples=200)
    @given(st.one_of(split_parameters, wide_parameters))
    @example(Fraction(2, 9))
    @example(TAU2)
    @example(QuadSurd(Fraction(1, 3), Fraction(1, 10 ** 40)))
    def test_the_pairs_are_indexed_by_parity(self, lam):
        # index 1 holds lam, the factor of an odd place, and index 0 holds 1 - lam
        kernel = exact._kernel(lam)
        u, v, d = phi_integers(lam)
        assert (kernel.v, kernel.d, kernel.limit) == (v, d, factor_limit(u, v, d))
        phi = QuadSurd(Fraction(1, 2), Fraction(1, 2))
        for p, value in enumerate((1 - lam, lam)):
            x, y = kernel.bases[p]
            assert (x + y * phi) / d == value
            table = kernel.tables[p]
            narrow = v != 0 and max(abs(x), abs(y)).bit_length() <= exact._TABLE_BITS
            assert len(table) == (exact._TABLE_POWERS if narrow else 0)
            for k in range(len(table)):
                assert table[k] == _phi_pow(x, y, k)
            assert kernel.norms[p] == x * x + x * y - y * y

    def test_a_refused_parameter_is_not_cached(self):
        exact._kernel_record.cache_clear()
        for lam in (Fraction(3, 2), -TAU, QuadSurd(1)):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                exact._kernel(lam)
        assert exact._kernel_record.cache_info().currsize == 0


class TestTextByHalves:
    """`_int_text`, the integer text of `QuadSurd.__str__`, against `str`."""

    @staticmethod
    def edges():
        """10**k - 1, 10**k and 10**k + 1 for every split point k = 2**j
        the coefficients of 3 to 64 kbit reach, with multiples that put the
        zeros of the padding inside a part, and their negatives."""
        values = []
        for j in range(8, 15):
            k = 1 << j
            for base in (10 ** k, 7 * 10 ** k, 10 ** (2 * k) + 10 ** k, 10 ** (3 * k)):
                values += [base - 1, base, base + 1]
        values = [n for n in values if exact._SPLIT_BITS < n.bit_length() <= 65536]
        return values + [-n for n in values]

    def test_matches_str_at_the_split_points(self):
        with int_digit_limit(0):
            for n in self.edges():
                assert _int_text(n) == str(n)

    def test_quadsurd_text_matches_the_fraction_coefficients(self):
        rng = random.Random(5)
        values = self.edges()
        for _ in range(12):
            bits = rng.randint(exact._SPLIT_BITS + 1, 65536)
            values.append(rng.choice((1, -1)) * rng.getrandbits(bits) | 1 << bits - 1)
        with int_digit_limit(0):
            for a, b in zip(values, reversed(values)):
                for x in (QuadSurd(a, b), QuadSurd(Fraction(a, 7), Fraction(b, 3)), QuadSurd(0, a)):
                    assert str(x) == surd_text(x.a, x.b)

    @pytest.mark.skipif(not INT_DIGITS_LIMITED, reason="no int-to-str limit")
    @pytest.mark.parametrize("limit", [4300, 5000, 1400])
    def test_at_the_digit_limit_it_prints_or_raises_as_str_does(self, limit):
        with int_digit_limit(limit):
            for n in (10 ** (limit - 1), 10 ** limit - 1, 10 ** limit, 10 ** limit + 1, 2 ** 3073 + 1):
                for value in (n, -n):
                    try:
                        expected = str(value)
                    except ValueError as oracle:
                        with pytest.raises(ValueError) as raised:
                            _int_text(value)
                        assert str(raised.value) == str(oracle)
                    else:
                        assert _int_text(value) == expected

    def test_the_ladder_of_powers_stays_bounded(self):
        rng = random.Random(7)
        with int_digit_limit(0):
            for bits in rng.sample(range(exact._SPLIT_BITS + 1, 24577), 1000):
                n = rng.getrandbits(bits) | 1 << bits - 1
                assert _int_text(n) == str(n)
        info = _pow5.cache_info()
        assert info.currsize <= info.maxsize == 32
        assert [_pow5(j) for j in range(4)] == [5, 25, 625, 5 ** 8]


class TestTextFormats:
    def test_rational_round_trip(self):
        for text in ("1/2", "3", "-4/7", "0"):
            assert str(parse_rational(text)) == text

    def test_rational_rejects_junk(self):
        for text in ("", "one", "1/0", "1//2"):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_rational_exponent_up_to_4300(self):
        assert parse_rational("1e-4300") == Fraction(1, 10 ** 4300)
        assert parse_rational(" 1E+0_004_300 ") == 10 ** 4300
        assert parse_rational("25e-0004300") == Fraction(25, 10 ** 4300)
        assert parse_rational("1.5e3") == 1500

    @pytest.mark.parametrize("text", ["1e-4301", "1e4301", "2.5E-99999", "1e1_000_00",
                                      "1e-" + "9" * 5000],
                             ids=["1e-4301", "1e4301", "2.5E-99999", "1e1_000_00", "1e-9...9"])
    def test_rational_exponent_beyond_4300_is_refused(self, text):
        with pytest.raises(ValueError, match="exceeds 4300 in absolute value"):
            parse_rational(text)
        with pytest.raises(ValueError, match="exceeds 4300 in absolute value"):
            parse_quadsurd(f"1/2+{text}√5")

    def test_quadsurd_keywords(self):
        assert parse_quadsurd("tau") == TAU
        assert parse_quadsurd("tau2") == TAU2

    def test_quadsurd_round_trip(self):
        for value in (TAU, TAU2, SQRT5, -SQRT5, QuadSurd(5), QuadSurd(0, Fraction(-2, 3)),
                      QuadSurd(Fraction(-1, 2), Fraction(7, 3))):
            assert parse_quadsurd(str(value)) == value

    def test_quadsurd_ascii_alias(self):
        assert parse_quadsurd("3/2-1/2sqrt5") == TAU2
        assert parse_quadsurd("sqrt5") == SQRT5

    def test_quadsurd_unit_surd_after_a_rational_part(self):
        assert parse_quadsurd("3-√5") == QuadSurd(3, -1)
        assert parse_quadsurd("-2+√5") == QuadSurd(-2, 1)
        assert parse_quadsurd("1+sqrt5") == QuadSurd(1, 1)
        assert parse_quadsurd("1e-3-√5") == QuadSurd(Fraction(1, 1000), -1)
        assert parse_quadsurd("1e-3+2√5") == QuadSurd(Fraction(1, 1000), 2)

    def test_quadsurd_exponent_sign_inside_the_surd_coefficient(self):
        assert parse_quadsurd("2e-3√5") == QuadSurd(0, Fraction(1, 500))
        assert parse_quadsurd("1+2e-3√5") == QuadSurd(1, Fraction(1, 500))
        assert parse_quadsurd("3+1E-2√5") == QuadSurd(3, Fraction(1, 100))
        assert parse_quadsurd("1e-3-2e+1√5") == QuadSurd(Fraction(1, 1000), -20)

    def test_quadsurd_rejects_junk(self):
        for text in ("", "√5√5", "tau3", "1+2", "x√5"):
            with pytest.raises(ValueError):
                parse_quadsurd(text)

    @given(quads)
    def test_quadsurd_format_parse_round_trip(self, x):
        assert parse_quadsurd(str(x)) == x

    @given(st.one_of(st.just(Fraction(0)), big_rationals),
           st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), big_rationals))
    @example(Fraction(0), Fraction(1))  # "1√5"
    @example(Fraction(0), Fraction(-1))  # "-1√5"
    @example(Fraction(-3), Fraction(0))
    @example(Fraction(-5, 3), Fraction(-2, 7))
    @example(Fraction(1, 3), Fraction(1, 3))  # d = 3 in the phi basis
    @example(Fraction(3, 2), Fraction(-1, 2))  # tau**2, d = 1
    def test_quadsurd_text_matches_the_fraction_coefficients(self, a, b):
        x = QuadSurd(a, b)
        assert str(x) == surd_text(a, b)

    def test_quadsurd_text_of_units_and_signs(self):
        assert [str(x) for x in (SQRT5, -SQRT5, TAU, TAU2, QuadSurd(0), QuadSurd(Fraction(-7, 4)))] \
            == ["1√5", "-1√5", "-1/2+1/2√5", "3/2-1/2√5", "0", "-7/4"]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
    @pytest.mark.parametrize("x", [QuadSurd(Fraction(1, 10 ** 4400)),
                                   QuadSurd(Fraction(1, 3), Fraction(10 ** 4400 + 1, 7)),
                                   QuadSurd(10 ** 4301 + 3, Fraction(1, 9)),
                                   QuadSurd(0, -10 ** 4301)])
    def test_quadsurd_text_past_the_digit_limit_raises_as_fractions_do(self, x):
        with pytest.raises(ValueError) as oracle:
            surd_text(x.a, x.b)
        with pytest.raises(ValueError) as raised:
            str(x)
        assert str(raised.value) == str(oracle.value)
        assert "Exceeds the limit (4300 digits)" in str(raised.value)


class TestLowestTermsFraction:
    """`_coprime_fraction` builds a Fraction from integers already in
    lowest terms without a gcd; `_phi_value` takes it only for a numerator
    prime to lam's denominator, and the full gcd otherwise."""

    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
    def test_equals_the_normalised_construction(self, a, d):
        g = gcd(a, d)
        a, d = a // g, d // g
        built, expected = _coprime_fraction(a, d), Fraction(a, d)
        assert type(built) is Fraction
        assert (built.numerator, built.denominator) == (expected.numerator, expected.denominator)
        assert built == expected and hash(built) == hash(expected) and str(built) == str(expected)

    @pytest.mark.parametrize("a, lam, e", [
        (6, Fraction(1, 2), 3),  # an even numerator over a power of 2
        (2 ** 40, Fraction(1, 2), 40),
        (3 * 7, Fraction(2, 9), 4),  # a multiple of 3 over a power of 9
        (3 ** 9 * 5, Fraction(2, 9), 4),
        (0, Fraction(2, 9), 0),
        (7, Fraction(2, 9), 5),  # prime to 9: built as it stands
        (10 ** 12 + 1, Fraction(5, 12), 3),
    ])
    def test_phi_value_reduces_a_numerator_sharing_a_prime(self, a, lam, e):
        value, expected = _phi_value(a, 0, lam.denominator ** e, lam), Fraction(a, lam.denominator ** e)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 60),
           st.sampled_from([Fraction(1, 2), Fraction(2, 9), Fraction(1, 3), Fraction(5, 12), Fraction(7, 10)]))
    def test_phi_value_is_in_lowest_terms(self, a, e, lam):
        d = lam.denominator ** e
        value = _phi_value(a, 0, d, lam)
        assert gcd(value.numerator, value.denominator) == 1
        assert value.numerator * d == a * value.denominator


class TestLowestTermsQuadSurd:
    """`_phi_value` builds a QuadSurd as it stands when gcd(lam's d, a, b)
    is 1, since every prime of a power of d divides d, and takes
    `_lowest`'s full gcd otherwise."""

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30), st.integers(0, 40),
           st.sampled_from([TAU2, parse_quadsurd("1/7+1/11√5"), parse_quadsurd("1/3+1/10√5")]))
    def test_equals_the_full_reduction(self, a, b, e, lam):
        d = lam._d ** e
        value, expected = _phi_value(a, b, d, lam), exact._lowest(a, b, d)
        assert type(value) is QuadSurd
        assert (value._a, value._b, value._d) == (expected._a, expected._b, expected._d)

    @pytest.mark.parametrize("text, fallbacks", [
        ("1/7+1/11√5", 0),  # d = 77: every value is already in lowest terms
        ("1/3+1/10√5", 254),  # d = 30: all points but one share a prime with d
    ])
    def test_both_branches_in_the_g_routes(self, monkeypatch, text, fallbacks):
        lam = parse_quadsurd(text)
        points = [x for x in stern_level(8).elements if 0 < x < 1]
        expected = [field_series(expand_rcf(x).quotients, lam) for x in points]
        reductions = []
        full = exact._lowest
        monkeypatch.setattr(exact, "_lowest", lambda a, b, d: reductions.append(d) or full(a, b, d))
        for route in (lambda x: g_series(expand_rcf(x), lam), lambda x: g_inductive(x, lam)):
            reductions.clear()
            values = [route(x) for x in points]
            assert (len(points), len(reductions)) == (255, fallbacks)
            assert values == expected
            assert all(gcd(v._d, v._a, v._b) == 1 for v in values)
