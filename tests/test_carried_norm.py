"""The norm a QuadSurd may carry: the private slot `_n`, set only by a
producer that knows the norm x**2 + x*y - y**2 of the stored numerator
x + y*phi (a power of a unit, g at tau or tau**2 by the series or the
stream), read by `to_decimal` in place of squaring the coefficients."""

import copy
import itertools
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sternbrocot import TAU, TAU2, QuadSurd, RegularCF, exact, expand_rcf, g_series, g_stream, to_decimal

from oracles import FractionSurd

PHI = 1 + TAU
UNITS = (TAU, TAU2, -TAU, PHI, TAU ** 3)


def norm_of(x: QuadSurd) -> int:
    """x**2 + x*y - y**2 of the stored numerator x + y*phi."""
    a, b = x._a, x._b
    return a * a + a * b - b * b


def carries_its_norm(x: QuadSurd) -> bool:
    """Whether x carries a norm; a carried norm must be exact."""
    if x._n is None:
        return False
    assert x._n == norm_of(x)
    return True


def decimals_agree(x: QuadSurd, digits: int) -> None:
    """to_decimal of x is that of x rebuilt without its norm and that of
    the square-root oracle."""
    rebuilt = QuadSurd(x.a, x.b)
    assert rebuilt == x and rebuilt._n is None
    assert to_decimal(x, digits) == to_decimal(rebuilt, digits) == FractionSurd(x.a, x.b).decimal(digits)


@st.composite
def with_a_wide_quotient(draw) -> list[int]:
    """1 to 12 quotients in 1..60 with one in 1000..9999, or 10**4, at the
    first place, the second, the middle or the last, and a last quotient >= 2."""
    quotients = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12))
    place = draw(st.sampled_from((0, 1, len(quotients) // 2, len(quotients) - 1)))
    quotients[min(place, len(quotients) - 1)] = draw(st.one_of(st.integers(1000, 9999), st.just(10 ** 4)))
    quotients[-1] = max(quotients[-1], 2)
    return quotients


@st.composite
def wide_streams(draw) -> list[int]:
    """A stream whose place 1, 2, 3 or 4 holds a quotient in 1000..9999,
    or 10**4, after quotients in 1..20, then ones: it stops at that
    quotient or, for a coarse epsilon, before it."""
    head = draw(st.lists(st.integers(1, 20), min_size=0, max_size=3))
    return head + [draw(st.one_of(st.integers(1000, 9999), st.just(10 ** 4)))]


epsilons = st.builds(lambda k: Fraction(1, 10 ** k), st.integers(1, 100))


class TestProducers:
    """Every value that carries a norm carries exactly x**2 + x*y - y**2,
    and its decimals are those of the same value without it."""

    @pytest.mark.parametrize("lam", [TAU, TAU2], ids=str)
    @settings(max_examples=60)
    @given(quotients=with_a_wide_quotient(), digits=st.integers(1, 60))
    @example(quotients=[1, 5456, 2, 1, 3], digits=15)  # within 2**-58 of 1
    @example(quotients=[1, 10 ** 4], digits=60)
    def test_series_at_a_unit(self, lam, quotients, digits):
        value = g_series(RegularCF(quotients), lam)
        assert carries_its_norm(value)  # S - 1 >= 999 factors: always carried
        decimals_agree(value, digits)

    @pytest.mark.parametrize("lam", [Fraction(1, 3), QuadSurd(Fraction(1, 7), Fraction(1, 11))], ids=str)
    def test_series_elsewhere_carries_none(self, lam):
        value = g_series(RegularCF((3, 5000, 2)), lam)
        assert getattr(value, "_n", None) is None

    @pytest.mark.parametrize("lam", [TAU, TAU2], ids=str)
    def test_a_narrow_series_carries_none(self, lam):
        # S - 1 = 341 factors leave the value narrow, and nothing is carried
        narrow, wide = g_series(RegularCF((300, 42)), lam), g_series(RegularCF((300, 43)), lam)
        assert narrow._b.bit_length() <= exact._NORM_BITS and narrow._n is None
        assert carries_its_norm(wide)

    @pytest.mark.parametrize("lam", [TAU, TAU2], ids=str)
    @settings(max_examples=60)
    @given(quotients=wide_streams(), epsilon=epsilons, digits=st.integers(1, 60))
    @example(quotients=[9546], epsilon=Fraction(1, 10 ** 30), digits=15)  # stops at k = 1
    @example(quotients=[1, 9892], epsilon=Fraction(1, 10 ** 30), digits=15)  # k = 2, next to 1
    @example(quotients=[3, 2, 7000], epsilon=Fraction(1, 10 ** 30), digits=40)  # k = 3
    def test_stream_at_a_unit(self, lam, quotients, epsilon, digits):
        stream = itertools.chain(quotients, itertools.repeat(1))
        for bound in g_stream(stream, lam, epsilon):
            carries_its_norm(bound)
            decimals_agree(bound, digits)

    @pytest.mark.parametrize("lam", [TAU, TAU2], ids=str)
    @pytest.mark.parametrize("quotients", [[9546], [1, 9892], [2, 5000], [3, 2, 7000]], ids=str)
    def test_a_stream_that_stops_at_a_wide_term_passes_both_norms(self, lam, quotients):
        lo, hi = g_stream(itertools.chain(quotients, itertools.repeat(1)), lam, Fraction(1, 10 ** 30))
        assert max(lo._b.bit_length(), hi._b.bit_length()) > exact._NORM_BITS
        assert carries_its_norm(lo) and carries_its_norm(hi)

    def test_a_stream_whose_last_sum_is_wide_passes_none(self):
        # terms 2 and 3 are both wide: the sum before the last term is too
        lo, hi = g_stream(iter([1, 2000, 3000, 1]), TAU2, Fraction(1, 10 ** 1000))
        assert lo._n is None and hi._n is None
        decimals_agree(lo, 30)
        decimals_agree(hi, 30)

    @settings(max_examples=60)
    @given(base=st.sampled_from(UNITS), exponent=st.integers(-5000, 20000), digits=st.integers(1, 60))
    @example(base=TAU, exponent=19046, digits=15)
    def test_powers_of_a_unit(self, base, exponent, digits):
        power = base ** exponent
        assert carries_its_norm(power)
        assert power._n == (norm_of(base) if exponent % 2 else 1)
        decimals_agree(power, digits)

    @pytest.mark.parametrize("base", [QuadSurd(1, 1), QuadSurd(Fraction(1, 7), Fraction(3, 7)), QuadSurd(3),
                                      TAU ** 47], ids=str)
    def test_powers_of_anything_else_carry_none(self, base):
        # nor a unit past 32 bits, whose norm would cost squarings of its own
        assert (base ** 5)._n is None and (base ** -3)._n is None

    @given(base=st.sampled_from(UNITS), exponent=st.integers(600, 5000))
    def test_arithmetic_carries_none(self, base, exponent):
        x = base ** exponent
        assert x._n is not None
        for result in (x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1, -x, x + TAU ** 3, x * TAU):
            assert result._n is None

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_keeps_the_value_and_its_decimals(self, clone):
        for x in (TAU ** 19046, g_series(RegularCF((9272, 3, 2)), TAU2),
                  g_stream(iter([1, 9892, 4]), TAU, Fraction(1, 10 ** 30))[0], TAU ** 2 + TAU):
            y = clone(x)
            assert y == x and y._n == x._n
            assert to_decimal(y, 40) == to_decimal(x, 40)


class TestReader:
    """`to_decimal` hands a carried norm to `_floor_by_norm`, and the
    complement route derives the norm of 1 - value from the first."""

    def test_a_wide_tau2_value_reaches_the_norm_route_with_its_norm(self):
        value = g_series(RegularCF((9272, 3, 2, 1, 4)), TAU2)
        with mock.patch.object(exact, "_floor_by_norm", wraps=exact._floor_by_norm) as norm, \
                mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as scaled:
            text = to_decimal(value, 30)
        assert text == FractionSurd(value.a, value.b).decimal(30)
        assert norm.call_count == 1 and norm.call_args.args[4] == 4 * norm_of(value)
        assert not scaled.called

    @pytest.mark.parametrize("x", [g_series(expand_rcf(Fraction(60020, 60031)), TAU2), 1 - TAU ** 2001,
                                   1 + TAU ** 2001], ids=["tau2-60020/60031", "1-tau^2001", "1+tau^2001"])
    def test_the_complement_takes_the_norm_of_one_minus_the_value(self, x):
        with mock.patch.object(exact, "_floor_by_norm", wraps=exact._floor_by_norm) as norm, \
                mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as scaled:
            assert to_decimal(x, 15) == FractionSurd(x.a, x.b).decimal(15)
        (first, second) = (call.args for call in norm.call_args_list)
        a, b, d = second[:3]
        assert (a, b, d) == (first[2] - first[0], -first[1], first[2])
        assert second[4] == a * a - 5 * b * b
        assert not scaled.called

    @settings(max_examples=60)
    @given(k=st.integers(600, 20000), digits=st.integers(1, 60), lam=st.sampled_from((TAU, TAU2)))
    @example(k=600, digits=1, lam=TAU2)
    def test_next_to_one_matches_the_square_root_oracle(self, k, digits, lam):
        # x = [0; 1, k]: g = 1 - (1 - lam)**k, within 2**-58 of 1, read
        # from its complement with a carried norm
        value = g_series(RegularCF((1, k)), lam)
        assert carries_its_norm(value)
        decimals_agree(value, digits)
