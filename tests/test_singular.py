import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sternbrocot import (
    TAU,
    TAU2,
    QuadSurd,
    RegularCF,
    expand_rcf,
    g_inductive,
    g_series,
    g_stream,
    g_tau2,
    graded_walk,
    mediant,
    question_mark,
)
from sternbrocot import cli
from sternbrocot import exact
from sternbrocot.exact import MAX_EXACT_BITS, _kernel, _sign

from oracles import (
    Counting,
    PowerSurd,
    field_partial_sums,
    field_series,
    field_stream,
    field_walk,
    left_to_right_series,
    long_quotient_lists,
    path_replay,
    quotient_lists,
    rational_near,
    rcf_value,
    split_parameters,
    tau_power_series,
    term_numerator,
)

LAMBDAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))


def g(x, lam):
    if x == 0:
        return lam - lam
    return g_series(expand_rcf(x), lam)


def term_magnitudes(quotients, lam):
    """|term k| of the series for g in closed form:
    lam**(odd-position quotient sum up to k, minus 1) * (1-lam)**(even-position sum)."""
    odd = even = 0
    magnitudes = []
    for position, a in enumerate(quotients, start=1):
        if position % 2:
            odd += a
        else:
            even += a
        magnitudes.append(lam ** (odd - 1) * (1 - lam) ** even)
    return magnitudes


class TestEndpointsAndBasics:
    @pytest.mark.parametrize("lam", LAMBDAS + (TAU2,))
    def test_endpoints(self, lam):
        assert g_inductive(Fraction(0), lam) == 0
        assert g_inductive(Fraction(1), lam) == 1
        assert g_series(expand_rcf(Fraction(1)), lam) == 1

    @pytest.mark.parametrize("lam", LAMBDAS + (TAU2,))
    def test_half_maps_to_the_parameter(self, lam):
        assert g_inductive(Fraction(1, 2), lam) == lam

    def test_unit_fractions_inductively(self):
        lam = Fraction(1, 3)
        for a in range(2, 7):
            assert g_inductive(Fraction(1, a), lam) == lam ** (a - 1)

    def test_unit_fractions_by_series(self):
        lam = Fraction(1, 3)
        for a in range(1, 6):
            assert g(Fraction(1, a), lam) == lam ** (a - 1)

    def test_two_thirds_closed_form(self):
        for lam in LAMBDAS:
            assert g(Fraction(2, 3), lam) == 1 - (1 - lam) ** 2

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            g_inductive(Fraction(3, 2), Fraction(1, 2))
        for lam in (Fraction(0), Fraction(1), Fraction(-1, 2), QuadSurd(2)):
            with pytest.raises(ValueError):
                g_inductive(Fraction(1, 2), lam)


class TestQuestionMark:
    @pytest.mark.parametrize(
        "x, value",
        [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(1, 4)),
            (Fraction(2, 3), Fraction(3, 4)),
        ],
    )
    def test_examples(self, x, value):
        assert question_mark(expand_rcf(x)) == value

    def test_values_are_dyadic(self, stern_chain):
        for x in stern_chain[8].elements[1:]:
            denominator = question_mark(expand_rcf(x)).denominator
            assert denominator & (denominator - 1) == 0

    def test_matches_series_at_one_half(self, stern_chain):
        for x in stern_chain[8].elements[1:]:
            cf = expand_rcf(x)
            assert question_mark(cf) == g_series(cf, Fraction(1, 2))

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(quotient_lists(), long_quotient_lists()))
    def test_the_value_is_built_in_lowest_terms(self, quotients):
        # the numerator is odd, so the Fraction question_mark builds with
        # no gcd is the one the gcd would give
        cf = RegularCF(quotients) if quotients[-1] >= 2 else expand_rcf(rcf_value(quotients))
        assume(cf.quotients)
        total, partial, numerator = sum(cf.quotients), 0, 0
        for k, a in enumerate(cf.quotients, start=1):
            partial += a
            numerator += (-1) ** (k + 1) * 2 ** (total - partial)
        expected = Fraction(numerator, 2 ** (total - 1))
        value = question_mark(cf)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert value.numerator % 2 == 1


class TestRouteAgreement:
    def test_inductive_equals_series(self, stern_chain):
        for lam in LAMBDAS:
            for x in stern_chain[6].elements:
                assert g_inductive(x, lam) == g(x, lam)

    def test_series_at_tau2_equals_tau_powers_route(self, stern_chain):
        for x in stern_chain[6].elements[1:]:
            cf = expand_rcf(x)
            assert g_series(cf, TAU2) == g_tau2(cf) == tau_power_series(cf.quotients)

    def test_generic_arithmetic_handles_any_quadratic_parameter(self):
        for x in (Fraction(2, 5), Fraction(3, 7), Fraction(5, 8)):
            assert g_inductive(x, TAU) == g_series(expand_rcf(x), TAU)

    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(1, 2), TAU ** 2),
            (Fraction(2, 3), TAU),
            (Fraction(1, 3), TAU ** 4),
        ],
    )
    def test_tau2_special_values(self, x, expected):
        assert g_tau2(expand_rcf(x)) == expected

    def test_tau2_of_two_thirds_is_one_minus_parameter(self):
        assert g_tau2(expand_rcf(Fraction(2, 3))) == 1 - TAU2


class TestDefiningRecurrence:
    def test_both_forms_on_consecutive_pairs(self, stern_chain):
        lam = Fraction(2, 5)
        for level in stern_chain[:7]:
            for x, y in zip(level.elements, level.elements[1:]):
                gx, gy = g(x, lam), g(y, lam)
                gm = g(mediant(x, y), lam)
                assert gm == gx + (gy - gx) * lam
                assert gm == gy - (gy - gx) * (1 - lam)

    def test_monotone_over_level_ten(self, stern_chain):
        for lam in LAMBDAS + (TAU2,):
            values = [g(x, lam) for x in stern_chain[10].elements]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestStream:
    def test_all_ones_quotients_bracket_the_known_limit(self):
        # the value of g at [0;1,1,1,...] with lam = 1/2 is the geometric
        # alternating sum 1 - 1/2 + 1/4 - ... = 2/3
        epsilon = Fraction(1, 2 ** 20)
        lo, hi = g_stream(itertools.repeat(1), Fraction(1, 2), epsilon)
        assert hi - lo <= epsilon
        assert lo < Fraction(2, 3) < hi

    def test_epsilon_one_stops_after_at_most_one_term(self):
        consumed = itertools.count(1)
        tracking = map(lambda _: 2, consumed)
        lo, hi = g_stream(tracking, Fraction(1, 3), Fraction(1))
        assert next(consumed) == 2  # a single quotient settled it
        assert (lo, hi) == (0, Fraction(1, 3))

    def test_quadratic_parameter_stream(self):
        epsilon = Fraction(1, 10 ** 6)
        lo, hi = g_stream(itertools.repeat(1), TAU2, epsilon)
        assert hi - lo <= epsilon
        assert 0 < lo < hi < 1

    def test_finite_stream_enclosure_contains_the_exact_value(self, stern_chain):
        epsilon = Fraction(1, 4)
        enclosures = 0
        for x in stern_chain[6].elements[1:-1]:
            quotients = expand_rcf(x).quotients
            try:
                lo, hi = g_stream(iter(quotients), Fraction(1, 2), epsilon)
            except ValueError:
                continue  # stream ended first: the documented rational signal
            enclosures += 1
            assert hi - lo < epsilon
            assert lo <= g(x, Fraction(1, 2)) <= hi
        assert enclosures > 0

    @given(quotient_lists())
    def test_bracket_at_either_parity_of_the_stopping_term(self, quotients):
        assume(len(quotients) >= 3)  # stopping terms 2 and 3: one even, one odd
        for lam in (Fraction(1, 3), Fraction(1, 2), TAU2):
            exact = g_series(expand_rcf(rcf_value(quotients)), lam)
            magnitudes = term_magnitudes(quotients, lam)
            for k in range(2, len(quotients) + 1):
                epsilon = magnitudes[k - 2]  # term k - 1 is not below it, term k is
                stream = iter(quotients)
                lo, hi = g_stream(stream, lam, epsilon)
                assert list(stream) == quotients[k:]  # exactly k quotients read
                assert hi - lo < epsilon
                assert lo <= exact <= hi

    def test_exhausted_stream_signals_rational_input(self):
        with pytest.raises(ValueError, match="rational"):
            g_stream(iter([1, 2]), Fraction(1, 2), Fraction(1, 10 ** 9))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            g_stream(itertools.repeat(1), Fraction(1, 2), Fraction(0))

    def test_bad_quotients_rejected(self):
        with pytest.raises(ValueError):
            g_stream(iter([1, 0, 1]), Fraction(1, 2), Fraction(1, 10 ** 9))


class TestRoutesOnLargeQuotients:
    """Every route against the general series, at rationals of 1 to 8
    partial quotients up to 10**4."""

    @given(quotient_lists())
    def test_tau2_route_is_the_series_and_the_tau_powers(self, quotients):
        cf = expand_rcf(rcf_value(quotients))
        assert g_tau2(cf) == g_series(cf, TAU2) == tau_power_series(cf.quotients)

    @given(quotient_lists())
    def test_salem_series_is_the_series_at_one_half(self, quotients):
        cf = expand_rcf(rcf_value(quotients))
        assert question_mark(cf) == g_series(cf, Fraction(1, 2))

    @settings(max_examples=50)
    @given(quotient_lists(max_total=400))
    def test_path_replay_is_the_series(self, quotients):
        x = rcf_value(quotients)
        for lam in (Fraction(1, 3), Fraction(2, 5), TAU, TAU2):
            assert g_inductive(x, lam) == g_series(expand_rcf(x), lam)


def same(value, expected):
    """Equal, and of the same type: Fraction for a Fraction lambda, else QuadSurd."""
    return value == expected and type(value) is type(expected)


class TestKernelAgainstFieldOracles:
    """The integer kernel against the field-generic routes it replaced
    (tests/oracles.py), at r/s with s up to 10**6, tau, tau**2, QuadSurds
    holding a rational, and irrational Q(sqrt5) parameters."""

    @settings(max_examples=40, deadline=None)
    @given(split_parameters, quotient_lists(max_total=10 ** 4))
    def test_series(self, lam, quotients):
        cf = expand_rcf(rcf_value(quotients))
        assert same(g_series(cf, lam), field_series(cf.quotients, lam))

    @settings(max_examples=40, deadline=None)
    @given(split_parameters, quotient_lists(max_total=10 ** 4), st.data())
    def test_stream(self, lam, quotients, data):
        # epsilon: a power of 10, or exactly one of the term magnitudes,
        # where "magnitude < epsilon" turns on an equality
        magnitudes = [m for _, m in field_partial_sums(quotients, lam)]
        epsilon = data.draw(st.one_of(
            st.integers(0, 60).map(lambda k: Fraction(1, 10 ** k)),
            st.sampled_from(magnitudes)))
        stream = itertools.chain(quotients, itertools.repeat(1))
        expected = field_stream(itertools.chain(quotients, itertools.repeat(1)), lam, epsilon)
        lo, hi = g_stream(stream, lam, epsilon)
        assert same(lo, expected[0]) and same(hi, expected[1])

    @settings(max_examples=40, deadline=None)
    @given(split_parameters, quotient_lists(max_total=400))
    def test_inductive(self, lam, quotients):
        x = rcf_value(quotients)
        assert same(g_inductive(x, lam), field_series(expand_rcf(x).quotients, lam))

    @settings(max_examples=30, deadline=None)
    @given(split_parameters, st.integers(0, 9), st.integers(1, 3))
    def test_graded_walk(self, lam, n, left):
        walked = list(graded_walk(n, left, lam))
        expected = list(field_walk(n, left, lam))
        assert [node[:3] for node in walked] == [node[:3] for node in expected]
        assert all(same(node[3], old[3]) for node, old in zip(walked, expected))


#: One split parameter per branch of the series loop: rational (v = 0),
#: tau and tau**2 (d = 1), and an irrational parameter whose d is not 1.
BRANCH_LAMBDAS = (Fraction(1, 3), Fraction(2, 9), TAU, TAU2, QuadSurd(Fraction(1, 7), Fraction(1, 11)))


def in_type(value: PowerSurd, lam):
    """A PowerSurd reduced into lam's type: Fraction or QuadSurd."""
    value = value.value()
    return value if isinstance(lam, QuadSurd) else value.as_fraction()


def magnitude(quotients, lam):
    """The magnitude of the last term of the series over quotients, in lam's type."""
    *_, (_, last) = field_partial_sums(quotients, PowerSurd.of(lam))
    return in_type(last, lam)


class TestLongExpansions:
    """The series loop on each of its branches, against the field routes
    run on PowerSurd, over 200 to 2000 quotients with a first or second
    quotient in 1000..9999: the values, the quotients a stream draws, and
    the quotient at which a refusal is raised."""

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS)
    @settings(max_examples=6, deadline=None)
    @given(quotients=long_quotient_lists())
    def test_series(self, lam, quotients):
        expected = in_type(field_series(quotients, PowerSurd.of(lam)), lam)
        assert same(g_series(RegularCF(quotients), lam), expected)

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS)
    @settings(max_examples=6, deadline=None)
    @given(quotients=long_quotient_lists(), data=st.data())
    def test_stream_draws_as_many_quotients_as_the_oracle(self, lam, quotients, data):
        # epsilon: a power of 10, or the magnitude of term j, which is not
        # below it, so that the stream stops at term j + 1
        if data.draw(st.booleans()):
            epsilon = Fraction(1, 10 ** data.draw(st.integers(0, 3000)))
        else:
            epsilon = magnitude(quotients[:data.draw(st.integers(1, 100))], lam)
        kernel, oracle = Counting(quotients), Counting(quotients)
        try:
            lo, hi = field_stream(oracle, PowerSurd.of(lam), epsilon)
        except ValueError:
            with pytest.raises(ValueError, match="stream ended"):
                g_stream(kernel, lam, epsilon)
        else:
            kernel_lo, kernel_hi = g_stream(kernel, lam, epsilon)
            assert same(kernel_lo, in_type(lo, lam)) and same(kernel_hi, in_type(hi, lam))
        assert kernel.drawn == oracle.drawn

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS)
    @settings(max_examples=4, deadline=None)
    @given(quotients=long_quotient_lists(), data=st.data())
    def test_a_quotient_below_one_is_refused_where_the_oracle_refuses_it(self, lam, quotients,
                                                                        data):
        j = data.draw(st.integers(3, 100))
        quotients[j - 1] = data.draw(st.integers(-2, 0))
        epsilon = magnitude(quotients[:j - 1], lam)  # no term before j is below it
        kernel, oracle = Counting(quotients), Counting(quotients)
        with pytest.raises(ValueError, match=">= 1"):
            for _ in field_partial_sums(oracle, PowerSurd.of(lam)):
                pass
        with pytest.raises(ValueError, match=">= 1"):
            g_stream(kernel, lam, epsilon)
        assert kernel.drawn == oracle.drawn == j

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS)
    @settings(max_examples=4, deadline=None)
    @given(quotients=long_quotient_lists(), data=st.data())
    def test_the_budget_is_refused_at_the_quotient_that_crosses_it(self, lam, quotients, data):
        # term j carries S - 1 factors, S the sum of the quotients up to j:
        # the refusal comes at the first j where that passes the limit
        limit = _kernel(lam).limit
        j = data.draw(st.integers(3, 100))
        quotients[j - 1] = limit - (sum(quotients[:j - 1]) - 1) + data.draw(st.integers(1, 3))
        epsilon = magnitude(quotients[:j - 1], lam)
        kernel = Counting(quotients)
        with pytest.raises(ValueError, match="size budget"):
            g_stream(kernel, lam, epsilon)
        assert kernel.drawn == j
        with pytest.raises(ValueError, match="size budget"):
            g_series(RegularCF(quotients), lam)


@st.composite
def with_a_large_quotient(draw, lists) -> list[int]:
    """A list drawn from `lists` with one quotient in 1000..9999 at its
    first place, its second, its middle or its last, and a last quotient
    >= 2."""
    quotients = list(draw(lists))
    place = draw(st.sampled_from((0, 1, len(quotients) // 2, len(quotients) - 1)))
    quotients[min(place, len(quotients) - 1)] = draw(st.integers(1000, 9999))
    quotients[-1] = max(quotients[-1], 2)
    return quotients


def from_triple(a, b, e, lam):
    """(a + b*phi)/e in lam's type, through the sqrt5 basis and its gcd."""
    if isinstance(lam, QuadSurd):
        return QuadSurd(Fraction(2 * a + b, 2 * e), Fraction(b, 2 * e))
    return Fraction(a, e)


class TestSeriesFromTheLastQuotient:
    """`g_series` sums the series from the last quotient back to the first:
    its values are those of the left-to-right sum it replaced
    (`oracles.left_to_right_series`) and of the field route on PowerSurd,
    on each branch of the loop, with a large quotient at the first,
    second, middle or last place; and the size budget is checked before
    any power is built."""

    @staticmethod
    def check(lam, quotients):
        value = g_series(RegularCF(quotients), lam)
        assert same(value, from_triple(*left_to_right_series(quotients, lam), lam))
        assert same(value, in_type(field_series(quotients, PowerSurd.of(lam)), lam))

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(quotients=with_a_large_quotient(st.lists(st.integers(1, 100), min_size=1, max_size=40)))
    def test_one_to_forty_quotients(self, lam, quotients):
        self.check(lam, quotients)

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS, ids=str)
    @settings(max_examples=6, deadline=None)
    @given(quotients=with_a_large_quotient(long_quotient_lists()))
    def test_long_expansions(self, lam, quotients):
        self.check(lam, quotients)

    @pytest.mark.parametrize("lam", BRANCH_LAMBDAS, ids=str)
    @settings(max_examples=10, deadline=None)
    @given(quotients=st.lists(st.integers(1, 1000), max_size=40),
           over=st.one_of(st.integers(1, 3), st.just(10 ** 4300)))
    def test_a_budget_passed_at_the_last_quotient_is_refused_before_any_power(self, lam,
                                                                               quotients, over):
        # S - 1 = limit + over, crossed only by the last quotient
        limit = _kernel(lam).limit
        quotients.append(limit + over + 1 - sum(quotients))
        with mock.patch("sternbrocot.singular._phi_pow") as powered:
            with pytest.raises(ValueError, match="size budget"):
                g_series(RegularCF(quotients), lam)
        assert not powered.called


@st.composite
def big_quotient_streams(draw) -> list[int]:
    """2 to 12 quotients in 1..50 with one in 1000..9999 at the first or
    second place, the point where a stream's term is widest when it stops."""
    quotients = draw(st.lists(st.integers(1, 50), min_size=2, max_size=12))
    quotients[draw(st.integers(0, 1))] = draw(st.integers(1000, 9999))
    return quotients


#: The split parameters of the stop-test comparisons: tau and tau**2, a
#: rational, and an irrational one with d > 1 and a norm that is not a unit.
STOP_LAMBDAS = (TAU, TAU2, Fraction(2, 9), QuadSurd(Fraction(1, 7), Fraction(1, 11)))

#: (lam, quotients, j, lam's power, 1 - lam's power): term j of the stream
#: is wide, lam**powers * (1 - lam)**rest. Term 2 below has coefficients
#: that cancel in the sqrt5 basis, as every power of tau**2 has, and at
#: 1/7+1/11sqrt5 every power of 1 - lam; term 1 at 1/7+1/11sqrt5, a power
#: of lam alone, has coefficients of one sign.
NEXT_TO_EPSILON = [
    (TAU2, [3, 2000, 1, 1, 1, 1], 2, 2, 2000),
    (STOP_LAMBDAS[3], [3, 2000, 1, 1, 1, 1], 2, 2, 2000),
    (STOP_LAMBDAS[3], [2001, 1, 1, 1, 1, 1], 1, 2000, 0),
]


class TestStopOnTheLeadingBits:
    """A stream at a quadratic lam and a rational epsilon decides a wide
    term from the bit lengths of the term and of epsilon, and when the two
    lie within a few bits of each other asks the judge
    `exact._floor_by_norm` whether the term over epsilon has floor 0,
    which reads the term's leading bits and takes an exact route only when
    those cannot decide; a narrow term takes the exact `_sign`. The
    bracket and the quotients drawn stay those of the field oracle."""

    @pytest.mark.parametrize("lam", STOP_LAMBDAS, ids=str)
    @settings(max_examples=25, deadline=None)
    @given(quotients=big_quotient_streams(), k=st.integers(1, 100))
    def test_the_stream_stops_where_the_oracle_stops(self, lam, quotients, k):
        epsilon = Fraction(1, 10 ** k)
        kernel = Counting(itertools.chain(quotients, itertools.repeat(1)))
        oracle = Counting(itertools.chain(quotients, itertools.repeat(1)))
        lo, hi = field_stream(oracle, PowerSurd.of(lam), epsilon)
        kernel_lo, kernel_hi = g_stream(kernel, lam, epsilon)
        assert same(kernel_lo, in_type(lo, lam)) and same(kernel_hi, in_type(hi, lam))
        assert kernel.drawn == oracle.drawn

    @staticmethod
    def routes(quotients, lam, epsilon) -> tuple[int, int, int, int, int]:
        """The quotients a stream draws, and its calls of `_sign`, of the
        judge, of the judge's complement route (the judge calling itself)
        and of its fallback `_floor_scaled`, after checking the bracket
        and the quotients drawn against the field oracle."""
        kernel, oracle = Counting(quotients), Counting(quotients)
        lo, hi = field_stream(oracle, PowerSurd.of(lam), epsilon)
        with mock.patch("sternbrocot.singular._sign", wraps=_sign) as sign, \
                mock.patch("sternbrocot.singular._floor_by_norm", wraps=exact._floor_by_norm) as judge, \
                mock.patch.object(exact, "_floor_by_norm", wraps=exact._floor_by_norm) as complement, \
                mock.patch.object(exact, "_floor_scaled", wraps=exact._floor_scaled) as fallback:
            kernel_lo, kernel_hi = g_stream(kernel, lam, epsilon)
        assert same(kernel_lo, in_type(lo, lam)) and same(kernel_hi, in_type(hi, lam))
        assert kernel.drawn == oracle.drawn
        return kernel.drawn, sign.call_count, judge.call_count, complement.call_count, fallback.call_count

    @pytest.mark.parametrize("lam, quotients, j, powers, rest", NEXT_TO_EPSILON, ids=str)
    def test_a_term_just_above_epsilon_is_decided_exactly(self, lam, quotients, j, powers, rest):
        # epsilon just under the magnitude of term j: neither the bit
        # lengths nor the leading bits decide it, and the judge finds the
        # term not below, from 1 minus the term over epsilon when the
        # term's coefficients cancel (term 1, narrow, goes to `_sign`
        # alone) and by `_floor_scaled` when they share a sign; term j + 1,
        # one factor lam or 1 - lam smaller, is within the few bits of
        # epsilon the bit lengths leave to the judge, whose leading bits
        # decide it, and the stream stops there
        m, n, e, _ = term_numerator(lam, powers, rest)
        epsilon = rational_near(m, n, e, 0)
        assert epsilon < magnitude(quotients[:j], lam)
        cancels = j == 2
        assert ((2 * m + n > 0) != (n > 0)) is cancels
        assert self.routes(quotients, lam, epsilon) == (
            (3, 1, 2, 1, 0) if cancels else (2, 0, 2, 0, 1))

    @pytest.mark.parametrize("lam, quotients, j, powers, rest", NEXT_TO_EPSILON, ids=str)
    def test_a_term_just_below_epsilon_stops_the_stream(self, lam, quotients, j, powers, rest):
        # epsilon 2**-42 above the magnitude of term j, relatively: its
        # leading bits put it below, with no exact route
        m, n, e, _ = term_numerator(lam, powers, rest)
        epsilon = rational_near(m, n, e, 2 ** 20)
        assert self.routes(quotients, lam, epsilon) == (j, j - 1, 1, 0, 0)

    @pytest.mark.parametrize("lam, quotients", [
        (TAU2, [400] + [1] * 2000),
        (QuadSurd(Fraction(1, 7), Fraction(1, 11)), [300] + [1] * 2000),
        (QuadSurd(Fraction(1, 7), Fraction(1, 11)), [3, 300] + [1] * 2000),
    ], ids=["tau2", "one-sign-first", "cancelling-second"])
    def test_a_term_far_above_epsilon_is_screened_by_its_width(self, lam, quotients):
        # at epsilon = 1e-300 hundreds of wide terms come before the stop;
        # the bit lengths of each show it above epsilon, and only the few
        # within a few bits of epsilon reach the judge, whose floor would
        # otherwise have as many bits as the term over epsilon
        drawn, sign, judge, _, fallback = self.routes(quotients, lam, Fraction(1, 10 ** 300))
        assert drawn > 400
        assert judge <= 5 and fallback == 0

    @pytest.mark.parametrize("lam", STOP_LAMBDAS[:2] + STOP_LAMBDAS[3:], ids=str)
    @settings(max_examples=20, deadline=None)
    @given(powers=st.integers(0, 3000), rest=st.integers(1, 3000))
    @example(powers=421, rest=1783)  # at 1/7+1/11sqrt5 a dyadic epsilon meets the bounds' edge
    def test_the_width_screen_is_exact_next_to_epsilon(self, lam, powers, rest):
        # term 2 of [powers + 1, rest, 1, ...] is lam**powers (1-lam)**rest;
        # with epsilon 2**-42 above it, relatively, the stream stops there,
        # and 2**-42 below it, one term later: the bit lengths never decide
        # a term that close to epsilon, either way. Each epsilon is taken
        # as it is and as a dyadic rational, whose bit lengths sit at
        # one edge of the interval they give
        m, n, e, _ = term_numerator(lam, powers, rest)
        quotients = [powers + 1, rest, 1, 1]
        bits = 4 * max(m.bit_length(), n.bit_length()) + 400
        for offset, stop in ((2 ** 20, 2), (-2 ** 20, 3)):
            near = rational_near(m, n, e, offset)
            for epsilon in (near, Fraction((near.numerator << bits) // near.denominator, 1 << bits)):
                kernel = Counting(quotients)
                g_stream(kernel, lam, epsilon)
                assert kernel.drawn == stop

    def test_the_digest_stream_takes_no_wide_sign(self):
        # the stream of the eval-stream digest at tau**2: one term of
        # 13-kbit coefficients, tau**19090, about 2**-13253 against an
        # epsilon near 2**-100, is below it by the bit lengths alone
        with mock.patch("sternbrocot.singular._sign", wraps=_sign) as sign, \
                mock.patch("sternbrocot.singular._floor_by_norm") as judge:
            lo, hi = g_stream(iter([9546, 1, 2, 3, 4, 5]), TAU2, Fraction(1, 10 ** 30))
        assert hi - lo == TAU ** 19090
        assert sign.call_count == judge.call_count == 0


#: Split parameters of the per-step comparisons: rationals with and
#: without a shared prime in their powers, tau**2, tau and an irrational
#: parameter whose d is not 1.
STEP_LAMBDAS = (Fraction(1, 3), Fraction(2, 9), Fraction(1, 2), TAU2, TAU,
                QuadSurd(Fraction(1, 7), Fraction(1, 11)))


class TestRunsAgainstThePerStepReplay:
    """`g_inductive` is the series, one kernel power per quotient, which is
    one per run of equal turns on the path to x; the oracle `path_replay`
    takes one step per node of `descend`, in the sqrt5 basis."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(STEP_LAMBDAS), quotient_lists(max_total=10 ** 4))
    def test_quotients_up_to_ten_thousand(self, lam, quotients):
        x = rcf_value(quotients)
        assume(x < 1)
        assert same(g_inductive(x, lam), path_replay(x, lam))

    @pytest.mark.parametrize("quotients, lam", [
        ((10 ** 5 + 2,), Fraction(1, 3)),  # one run of 10**5 left turns
        ((10 ** 5 + 2,), Fraction(2, 9)),
        ((1, 10 ** 5 + 1), Fraction(1, 2)),  # one run of 10**5 right turns
    ])
    def test_runs_of_a_hundred_thousand_turns(self, quotients, lam):
        x = rcf_value(quotients)
        assert same(g_inductive(x, lam), path_replay(x, lam))


class TestSizeBudget:
    """Every kernel route admits a value at MAX_EXACT_BITS and refuses one
    factor past it, before building anything."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), TAU2])
    def test_series_on_both_sides(self, lam):
        limit = _kernel(lam).limit
        assert limit >= MAX_EXACT_BITS // 3  # 2 bits a factor at 1/2 and 1/3, 3 at tau**2
        # x = [0; a] has g = lam**(a - 1), which carries a - 1 factors
        assert g_series(expand_rcf(Fraction(1, limit + 1)), lam) == lam ** limit
        with pytest.raises(ValueError, match="size budget"):
            g_series(expand_rcf(Fraction(1, limit + 2)), lam)

    def test_one_millionth_at_one_third_is_inside(self):
        value = g_series(expand_rcf(Fraction(1, 10 ** 6)), Fraction(1, 3))
        assert value == Fraction(1, 3 ** (10 ** 6 - 1))

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3)])
    def test_stream_on_both_sides(self, lam):
        limit = _kernel(lam).limit
        lo, hi = g_stream(itertools.chain([limit + 1], itertools.repeat(1)), lam, Fraction(1, 2))
        assert (lo, hi) == (0, lam ** limit)
        with pytest.raises(ValueError, match="size budget"):
            g_stream(itertools.chain([limit + 2], itertools.repeat(1)), lam, Fraction(1, 2))

    @pytest.mark.parametrize("lam", [Fraction(1, 2), TAU2])
    def test_inductive_refuses_past_the_budget(self, lam):
        # the path to 1/(limit + 2) has limit + 1 steps
        limit = _kernel(lam).limit
        with pytest.raises(ValueError, match="size budget"):
            g_inductive(Fraction(1, limit + 2), lam)
        with pytest.raises(ValueError, match="size budget"):
            g_inductive(Fraction(1, 10 ** 4300), lam)
        # x = [0; 2, limit] carries S(x) - 1 = limit + 1 factors and crosses
        # the budget only at its last quotient; both routes refuse it
        x = rcf_value((2, limit))
        with pytest.raises(ValueError, match="size budget"):
            g_inductive(x, lam)
        with pytest.raises(ValueError, match="size budget"):
            g_series(expand_rcf(x), lam)

    def test_inductive_admits_a_path_at_the_budget(self):
        # the path to 1/(limit + 1) is one run of limit - 1 left turns,
        # replayed by one kernel power
        limit = _kernel(Fraction(1, 2)).limit
        assert g_inductive(Fraction(1, limit + 1), Fraction(1, 2)) == Fraction(1, 2 ** limit)

    def test_question_mark_on_both_sides(self):
        limit = _kernel(Fraction(1, 2)).limit
        # ?([0; a]) = 1/2**(a - 1), a shift of a - 1 = S(x) - 1 bits
        assert question_mark(expand_rcf(Fraction(1, limit + 1))) == Fraction(1, 2 ** limit)
        with pytest.raises(ValueError, match="size budget"):
            question_mark(expand_rcf(Fraction(1, limit + 2)))
        with pytest.raises(ValueError, match="size budget"):
            question_mark(expand_rcf(Fraction(1, 10 ** 12)))

    def test_question_mark_at_one_millionth_is_inside(self):
        assert question_mark(expand_rcf(Fraction(1, 10 ** 6))) == Fraction(1, 2 ** (10 ** 6 - 1))

    def test_walk_checks_its_depth_before_the_first_node(self):
        limit = _kernel(Fraction(1, 3)).limit
        with pytest.raises(ValueError, match="size budget"):
            graded_walk(limit + 1, 1, Fraction(1, 3))  # not iterated
        assert next(graded_walk(limit, limit, Fraction(1, 3))) == (1, 2, 1, Fraction(1, 3))


#: Split parameters outside (0,1): both ends, either side, and the same in
#: Q(sqrt5), rational (QuadSurd(1)) and not.
OUTSIDE = {"0": Fraction(0), "1": Fraction(1), "-1/2": Fraction(-1, 2), "3/2": Fraction(3, 2),
           "QuadSurd(1)": QuadSurd(1), "-tau": -TAU, "1+tau": 1 + TAU,
           "1/2+sqrt5": QuadSurd(Fraction(1, 2), 1)}
OUTSIDE_TEXT = "the split parameter must lie strictly between 0 and 1"


def stream_refused_before_drawing(lam, epsilon):
    stream = iter([2, 1])
    try:
        g_stream(stream, lam, epsilon)
    finally:
        assert next(stream) == 2


class TestRangeCheck:
    """Every entry refuses a split parameter outside (0,1) with the same
    message, before its other refusals except graded_walk's left edge
    cost, and before it reads anything."""

    ENTRIES = {
        "g_series": lambda lam: g_series(expand_rcf(Fraction(2, 7)), lam),
        "g_series at x = 1": lambda lam: g_series(expand_rcf(Fraction(1)), lam),
        "g_inductive": lambda lam: g_inductive(Fraction(2, 7), lam),
        "g_inductive at x = 0": lambda lam: g_inductive(Fraction(0), lam),
        "g_inductive at x = 2": lambda lam: g_inductive(Fraction(2), lam),
        "g_stream": lambda lam: stream_refused_before_drawing(lam, Fraction(1, 10 ** 9)),
        "g_stream at epsilon = 0": lambda lam: stream_refused_before_drawing(lam, Fraction(0)),
        "graded_walk": lambda lam: graded_walk(3, 2, lam),  # not iterated
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("lam", OUTSIDE.values(), ids=OUTSIDE.keys())
    def test_every_entry_refuses_with_one_message(self, entry, lam):
        with pytest.raises(ValueError) as refused:
            self.ENTRIES[entry](lam)
        assert str(refused.value) == OUTSIDE_TEXT

    @pytest.mark.parametrize("lam", OUTSIDE.values(), ids=OUTSIDE.keys())
    def test_the_walk_checks_its_left_edge_cost_first(self, lam):
        with pytest.raises(ValueError) as refused:
            graded_walk(3, 0, lam)
        assert str(refused.value) == "the left edge cost must be >= 1"

    @pytest.mark.parametrize("lam", OUTSIDE.values(), ids=OUTSIDE.keys())
    def test_plot_data_prints_one_error_line(self, capsys, lam):
        assert cli.run(["plot-data", "--lambda", str(lam), "--grid", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {OUTSIDE_TEXT}\n")
