from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sternbrocot import (
    SQRT5,
    TAU,
    TAU2,
    QuadSurd,
    characterize_Qn,
    mediant,
    parse_quadsurd,
    parse_rational,
    to_decimal,
)

from oracles import rounded_scaled_value, smallest_denominator_between

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10_000)
quads = st.builds(QuadSurd, rationals, rationals)


class TestMediant:
    def test_unit_endpoints(self):
        assert mediant(Fraction(0), Fraction(1)) == Fraction(1, 2)

    def test_left_and_right_gaps(self):
        # (0+1)/(1+2) and (1+1)/(2+1); both first appear at level 2
        assert mediant(Fraction(0), Fraction(1, 2)) == Fraction(1, 3)
        assert mediant(Fraction(1, 2), Fraction(1)) == Fraction(2, 3)
        assert characterize_Qn(Fraction(1, 3)) == 2
        assert characterize_Qn(Fraction(2, 3)) == 2

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


class TestTextFormats:
    def test_rational_round_trip(self):
        for text in ("1/2", "3", "-4/7", "0"):
            assert str(parse_rational(text)) == text

    def test_rational_rejects_junk(self):
        for text in ("", "one", "1/0", "1//2"):
            with pytest.raises(ValueError):
                parse_rational(text)

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
