from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sternbrocot import (
    ReducedRCF,
    RegularCF,
    digit_sum_L,
    expand_rcf,
    expand_rrcf,
    rcf_to_rrcf,
    sum_partial_quotients,
    value_rrcf,
)

from sternbrocot.exact import MAX_ELEMENTS as MAX_REDUCED_DIGITS

from oracles import rcf_value, subtractive_rrcf

unit_interior = st.fractions(min_value=0, max_value=1, max_denominator=10_000).filter(
    lambda x: 0 < x < 1
)


class TestRegularExpansion:
    @pytest.mark.parametrize(
        "x, quotients",
        [
            (Fraction(1, 2), (2,)),
            (Fraction(2, 3), (1, 2)),
            (Fraction(3, 5), (1, 1, 2)),
            (Fraction(1), ()),
        ],
    )
    def test_expansion_examples(self, x, quotients):
        assert expand_rcf(x).quotients == quotients

    @pytest.mark.parametrize(
        "quotients, x",
        [
            ((2,), Fraction(1, 2)),
            ((1, 2), Fraction(2, 3)),
            ((1, 1, 2), Fraction(3, 5)),
        ],
    )
    def test_value_examples(self, quotients, x):
        # x = 1, whose quotient list is empty, is in test_expansion_examples
        assert rcf_value(RegularCF(quotients).quotients) == x

    def test_domain(self):
        for bad in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                expand_rcf(bad)

    @pytest.mark.parametrize(
        "x, s",
        [(Fraction(1, 2), 2), (Fraction(2, 3), 3), (Fraction(3, 5), 4)],
    )
    def test_quotient_sums(self, x, s):
        assert sum_partial_quotients(expand_rcf(x)) == s

    def test_quotient_sum_grades_the_levels(self, stern_chain):
        # the elements first inserted at level n have quotient sum n + 1
        for n in (1, 2, 3):
            fresh = set(stern_chain[n].elements) - set(stern_chain[n - 1].elements)
            assert {sum_partial_quotients(expand_rcf(x)) for x in fresh} == {n + 1}

    def test_canonical_form_validation(self):
        with pytest.raises(ValueError):
            RegularCF((1,))
        with pytest.raises(ValueError):
            RegularCF((0, 2))
        with pytest.raises(ValueError):
            RegularCF((2, 1))

    @given(unit_interior)
    def test_round_trip_and_canonical(self, x):
        cf = expand_rcf(x)
        assert rcf_value(cf.quotients) == x
        assert cf.quotients[-1] >= 2
        assert all(a >= 1 for a in cf.quotients)


class TestReducedExpansion:
    @pytest.mark.parametrize(
        "x, digits",
        [
            (Fraction(1, 2), (2,)),
            (Fraction(2, 3), (3,)),
            (Fraction(3, 5), (3, 2)),
        ],
    )
    def test_expansion_examples(self, x, digits):
        assert expand_rrcf(x).digits == digits

    @pytest.mark.parametrize(
        "digits, x",
        [
            ((2,), Fraction(1, 2)),
            ((4,), Fraction(3, 4)),
            ((2, 2), Fraction(1, 3)),
        ],
    )
    def test_value_examples(self, digits, x):
        assert value_rrcf(ReducedRCF(digits)) == x

    def test_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(2)):
            with pytest.raises(ValueError):
                expand_rrcf(bad)

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            ReducedRCF(())
        with pytest.raises(ValueError):
            ReducedRCF((1,))
        with pytest.raises(ValueError):
            ReducedRCF((3, 1))

    @pytest.mark.parametrize(
        "digits, total",
        [((2,), 2), ((3,), 3), ((3, 2), 5)],
    )
    def test_digit_sums(self, digits, total):
        assert digit_sum_L(ReducedRCF(digits)) == total

    @given(unit_interior)
    def test_round_trip_and_digits_at_least_two(self, x):
        rcf = expand_rrcf(x)
        assert value_rrcf(rcf) == x
        assert all(b >= 2 for b in rcf.digits)


class TestRewrite:
    @pytest.mark.parametrize(
        "quotients, digits",
        [
            ((2,), (2,)),          # odd position: a - 1 copies of 2
            ((1, 2), (3,)),        # even final position: a + 1
            ((1, 1, 2), (3, 2)),   # interior even position: a + 2
            ((1, 2, 2), (4, 2)),
            ((2, 2), (2, 3)),
            ((3,), (2, 2)),
        ],
    )
    def test_rewrite_examples(self, quotients, digits):
        assert rcf_to_rrcf(RegularCF(quotients)).digits == digits

    def test_rewrite_rejects_one(self):
        with pytest.raises(ValueError):
            rcf_to_rrcf(RegularCF(()))

    @pytest.mark.parametrize("head, head_digits", [((), 0), ((7, 3), 6 + 1)])
    def test_length_cap_on_both_sides(self, head, head_digits):
        # odd positions write a - 1 digits, even ones 1, so a last odd
        # quotient of room + 1 fills the cap exactly
        room = MAX_REDUCED_DIGITS - head_digits
        assert len(rcf_to_rrcf(RegularCF((*head, room + 1))).digits) == MAX_REDUCED_DIGITS
        with pytest.raises(ValueError, match="cap"):
            rcf_to_rrcf(RegularCF((*head, room + 2)))

    def test_even_positions_add_one_digit_each(self):
        quotients = (MAX_REDUCED_DIGITS // 2 + 1, 10 ** 30, MAX_REDUCED_DIGITS // 2 - 1, 5)
        assert len(rcf_to_rrcf(RegularCF(quotients)).digits) == MAX_REDUCED_DIGITS
        with pytest.raises(ValueError, match="cap"):
            rcf_to_rrcf(RegularCF((10 ** 30,)))

    @given(unit_interior)
    def test_rewrite_preserves_the_value(self, x):
        cf = expand_rcf(x)
        assert value_rrcf(rcf_to_rrcf(cf)) == rcf_value(cf.quotients)

    @given(unit_interior)
    def test_rewrite_agrees_with_subtractive_oracle(self, x):
        assert expand_rrcf(x).digits == subtractive_rrcf(x)

    def test_both_gradings_on_one_value(self):
        # 3/5 sits in generation 3 of one construction, 4 of the other
        x = Fraction(3, 5)
        assert sum_partial_quotients(expand_rcf(x)) == 4
        assert digit_sum_L(expand_rrcf(x)) == 5


class TestTextFormats:
    @pytest.mark.parametrize(
        "quotients, text", [((2,), "[0;2]"), ((1, 2), "[0;1,2]"), ((1, 1, 2), "[0;1,1,2]"), ((), "[0;]")]
    )
    def test_rcf_format(self, quotients, text):
        assert str(RegularCF(quotients)) == text

    @pytest.mark.parametrize("digits, text", [((2,), "[[1;2]]"), ((3, 2), "[[1;3,2]]"), ((2, 2, 2), "[[1;2,2,2]]")])
    def test_rrcf_format(self, digits, text):
        assert str(ReducedRCF(digits)) == text
