from collections import Counter
from fractions import Fraction
from functools import cache
from importlib import import_module
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sternbrocot import (
    TAU,
    TAU2,
    empirical_cdf,
    expand_rrcf,
    digit_sum_L,
    fibonacci,
    fibonacci_ratio_limit,
    mediant,
    mediant_ratio,
    node_for,
    stern_level,
    subtree_count,
    theta,
    verify_theorem1,
    xi,
)

from sternbrocot.exact import MAX_ELEMENTS as MAX_REDUCED_DIGITS
from sternbrocot.dist import _rank, _table_bytes
from sternbrocot.exact import MAX_EXACT_BITS, MAX_OUTPUT_BYTES
from sternbrocot.stern import path_runs

from oracles import (additive_fibonacci, materialized_cdf, path_rank, quotient_lists, rcf_value,
                     subtree_nodes)


@cache
def reference_elements(kind, n):
    """The materialized level-n sequence, the reference route for the
    path-walk ranks."""
    return {"xi": xi, "stern_brocot": stern_level}[kind](n).elements


@st.composite
def rank_queries(draw):
    """(kind, n, x): x a member, a midpoint of neighbours, an endpoint, or
    a rational with quotients up to 10**6."""
    kind, n = draw(st.one_of(
        st.tuples(st.just("xi"), st.integers(1, 18)),
        st.tuples(st.just("stern_brocot"), st.integers(0, 14)),
    ))
    elements = reference_elements(kind, n)
    source = draw(st.sampled_from(("member", "midpoint", "endpoint", "quotients")))
    if source == "member":
        x = draw(st.sampled_from(elements))
    elif source == "midpoint":
        i = draw(st.integers(0, len(elements) - 2))
        x = (elements[i] + elements[i + 1]) / 2
    elif source == "endpoint":
        x = draw(st.sampled_from((Fraction(0), Fraction(1))))
    else:
        quotients = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6))
        x = rcf_value(quotients[:-1] + [max(quotients[-1], 2)])
    return kind, n, x


@st.composite
def deep_rank_queries(draw):
    """(kind, n, x): n up to 29, and x with quotients up to 10**4, or with
    a quotient sum of at most 12, whose path ends above depth 29."""
    kind = draw(st.sampled_from(("xi", "stern_brocot")))
    n = draw(st.integers(1 if kind == "xi" else 0, 29))
    quotients = draw(st.one_of(quotient_lists(), quotient_lists(max_total=12)))
    return kind, n, rcf_value(quotients)


class TestBlockSums:
    """The block-sum ranks of `_rank` against the per-step count of the
    oracle `path_rank` along `descend`, and against the materialized
    sequence where it is small enough to build."""

    @given(deep_rank_queries())
    def test_against_the_per_step_count(self, query):
        kind, n, x = query
        rank, total, member = _rank(kind, n, x)
        if x == 1:
            assert (rank, member) == (total, True)
        else:
            assert (rank, member) == path_rank(kind, n, x)
        assert total == (fibonacci(n + 2) if kind == "xi" else 2 ** n) + 1
        if n <= {"xi": 18, "stern_brocot": 14}[kind]:
            assert Fraction(rank, total) == materialized_cdf(reference_elements(kind, n), x)

    @given(st.sampled_from(("xi", "stern_brocot")), st.integers(1, 300),
           st.one_of(quotient_lists(), quotient_lists(max_total=150)))
    def test_against_the_per_step_count_up_to_300(self, kind, n, quotients):
        # the per-step count takes its weights by additions, not from the kernel
        x = rcf_value(quotients)
        rank, total, member = _rank(kind, n, x)
        if x == 1:
            assert (rank, member) == (total, True)
        else:
            assert (rank, member) == path_rank(kind, n, x)
        assert total == (additive_fibonacci(n + 2) if kind == "xi" else 2 ** n) + 1

    @pytest.mark.parametrize("kind", ["xi", "stern_brocot"])
    @pytest.mark.parametrize("x", [Fraction(355, 1133), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)])
    def test_every_index_up_to_29(self, kind, x):
        # 355/1133 = [0; 3, 5, 4, 1, 1, 7] lies at depth 20 (Stern-Brocot)
        # or 27 (xi): the indices run past the end of every path here
        runs = path_runs(x)
        for n in range(1 if kind == "xi" else 0, 30):
            rank, total, member = _rank(kind, n, x)
            assert (rank, member) == path_rank(kind, n, x)
            assert _rank(kind, n, x, runs) == (rank, total, member)  # the runs passed in


class TestEmpiricalCDF:
    def test_xi_example(self):
        assert empirical_cdf("xi", 3, Fraction(1, 2)) == Fraction(1, 2)

    def test_reaches_one_at_the_right_endpoint(self):
        assert empirical_cdf("xi", 5, Fraction(1)) == 1
        assert empirical_cdf("stern_brocot", 4, Fraction(1)) == 1

    def test_zero_is_the_first_element(self):
        assert empirical_cdf("xi", 5, Fraction(0)) == Fraction(1, fibonacci(7) + 1)
        assert empirical_cdf("stern_brocot", 4, Fraction(0)) == Fraction(1, 2 ** 4 + 1)
        assert empirical_cdf("stern_brocot", 0, Fraction(0)) == Fraction(1, 2)

    @given(rank_queries())
    def test_matches_the_materialized_sequence(self, query):
        kind, n, x = query
        assert empirical_cdf(kind, n, x) == materialized_cdf(reference_elements(kind, n), x)

    def test_huge_quotients_cost_at_most_n_steps(self):
        # xi(30) has nothing in (0, 1/16) and nothing in (30/31, 1)
        total = fibonacci(32) + 1
        assert empirical_cdf("xi", 30, Fraction(1, 10 ** 100)) == Fraction(1, total)
        assert empirical_cdf("xi", 30, 1 - Fraction(1, 10 ** 100)) == Fraction(total - 1, total)

    @pytest.mark.parametrize("kind", ["stern_brocot", "xi"])
    def test_deep_rank_builds_only_the_counted_weights(self, kind):
        # all 20000 weights together would take ~20-27 MB
        tracemalloc.start()
        try:
            value = empirical_cdf(kind, 20000, Fraction(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the path turns left at the root 1/2 and ends at 1/3, at depth 2 or 3
        if kind == "stern_brocot":
            assert value == Fraction(1 + 2 ** 19998, 2 ** 20000 + 1)
        else:
            assert value == Fraction(1 + fibonacci(19998), fibonacci(20002) + 1)

    def test_xi_rank_refuses_at_the_cap_of_its_largest_weight(self, monkeypatch):
        # F(n + 2) is past `fibonacci`'s cap from n = MAX_EXACT_BITS - 1 on;
        # the rank refuses there itself, before it asks for any weight
        def no_weight(j):
            raise AssertionError(f"weight F({j}) asked for")

        monkeypatch.setattr("sternbrocot.dist.fibonacci", no_weight)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="size budget"):
                empirical_cdf("xi", MAX_EXACT_BITS - 1, Fraction(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_index_domain(self):
        with pytest.raises(ValueError):
            empirical_cdf("xi", 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            empirical_cdf("stern_brocot", -1, Fraction(1, 2))

    def test_stern_brocot_example(self):
        assert empirical_cdf("stern_brocot", 2, Fraction(1, 2)) == Fraction(3, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf("farey", 3, Fraction(1, 2))

    def test_domain(self):
        with pytest.raises(ValueError):
            empirical_cdf("xi", 3, Fraction(-1, 2))

    def test_step_function_shape(self):
        n = 6
        elements = reference_elements("xi", n)
        total = len(elements)
        assert total == fibonacci(n + 2) + 1
        previous = Fraction(0)
        for left, right in zip(elements, elements[1:]):
            at_left = empirical_cdf("xi", n, left)
            assert at_left == previous + Fraction(1, total)  # one step per element
            assert empirical_cdf("xi", n, (left + right) / 2) == at_left  # flat in between
            previous = at_left
        assert empirical_cdf("xi", n, elements[-1]) == 1


class TestVerifyTheorem1:
    def test_table_at_one_half(self):
        report = verify_theorem1(Fraction(1, 2), 4, Fraction(1, 50))
        assert report.target == TAU2
        assert [row.n for row in report.rows] == [2, 3, 4]
        by_n = {row.n: row for row in report.rows}
        assert by_n[3].empirical == Fraction(1, 2)
        assert by_n[3].abs_error_decimal == "0.118033988749894848204586834366"

    @pytest.mark.parametrize("x", [Fraction(355, 1133), Fraction(1, 3), Fraction(5, 8)])
    def test_rows_are_the_empirical_cdf(self, x):
        # the table ranks along one expansion of x; each row equals a fresh query
        report = verify_theorem1(x, 30)
        assert [row.empirical for row in report.rows] == [empirical_cdf("xi", n, x) for n in range(2, 31)]

    def test_targets(self):
        assert verify_theorem1(Fraction(2, 3), 2).target == TAU
        assert verify_theorem1(Fraction(1, 3), 2).target == TAU ** 4

    def test_pass_flag_tracks_the_tolerance(self):
        x = Fraction(1, 2)
        assert verify_theorem1(x, 10, Fraction(1, 100)).passed
        assert not verify_theorem1(x, 10, Fraction(1, 10 ** 9)).passed

    def test_refuses_oversized_sequences(self):
        # the table at 1/2 first passes the output budget at n_max = 17789,
        # by the estimate alone; that index and any later one are refused
        # before a row is built
        assert _table_bytes(17788, TAU2) <= MAX_OUTPUT_BYTES < _table_bytes(17789, TAU2)
        for n_max in (17789, 10 ** 6, 2 ** 40):
            with pytest.raises(ValueError, match=f"budget of {MAX_OUTPUT_BYTES} bytes"):
                verify_theorem1(Fraction(1, 2), n_max)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(355, 1133)])
    def test_rows_past_thirty(self, x):
        # no fixed last index: the rows up to 30 do not depend on n_max
        rows = verify_theorem1(x, 40).rows
        assert rows[:29] == verify_theorem1(x, 30).rows
        assert [row.empirical for row in rows[29:]] == [empirical_cdf("xi", n, x) for n in range(31, 41)]

    def test_refuses_a_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            verify_theorem1(Fraction(1, 2), 5, Fraction(-1))
        assert not verify_theorem1(Fraction(1, 2), 5, Fraction(0)).passed

    def test_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ValueError):
                verify_theorem1(bad, 5)
        with pytest.raises(ValueError):
            verify_theorem1(Fraction(1, 2), 1)


class TestMediantRatio:
    def test_fibonacci_example(self):
        assert mediant_ratio(Fraction(0), Fraction(1, 2), 1, 13) == Fraction(88, 232)

    def test_degenerate_depth_counts_only_the_root(self):
        # the mediant of (0, 1/2) is 1/3, three generations deep
        assert mediant_ratio(Fraction(0), Fraction(1, 2), 1, 3) == 0

    def test_depth_below_the_mediant_rejected(self):
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(0), Fraction(1, 2), 1, 2)

    def test_non_consecutive_pair_rejected(self):
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(0), Fraction(1, 3), 1, 13)
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(1, 2), Fraction(0), 1, 13)

    def test_non_members_rejected(self):
        # xi(1) = {0, 1/2, 1}: 3/5 and 1/4 rank right after 0 and right
        # before 1/2, but neither is an element
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(0), Fraction(3, 5), 1, 13)
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(1, 4), Fraction(1, 2), 1, 13)
        with pytest.raises(ValueError):
            mediant_ratio(Fraction(1, 10 ** 100), Fraction(1, 2), 5, 13)

    def test_limit_is_the_golden_split(self):
        ratio = mediant_ratio(Fraction(0), Fraction(1, 2), 1, 33)
        assert abs(TAU2 - ratio) < Fraction(1, 10 ** 4)

    def test_generation_past_the_reduced_digit_cap(self):
        # the mediant of 0 and 1/(N - 1) is 1/N, whose reduced expansion
        # (N - 1 digits) would pass the cap; its generation 2N - 3 comes
        # from its single run of N - 2 left turns
        n = MAX_REDUCED_DIGITS + 3
        ratio = mediant_ratio(Fraction(0), Fraction(1, n - 1), 2 * (n - 1) - 3, 2 * n - 1)
        assert ratio == Fraction(1, 4)

    def test_matches_subtree_counts_for_inner_pairs(self):
        elements = xi(4).elements
        for x, y in zip(elements, elements[1:]):
            k = digit_sum_L(expand_rrcf(mediant(x, y))) - 1
            expected = Fraction(subtree_count(k + 2, 20), subtree_count(k, 20))
            assert mediant_ratio(x, y, 4, 20) == expected


def test_ranks_build_no_sequence(monkeypatch):
    x = Fraction(355, 1133)
    expected_xi = [materialized_cdf(reference_elements("xi", n), x) for n in range(2, 17)]
    expected_stern_brocot = materialized_cdf(reference_elements("stern_brocot", 12), x)
    pairs = list(zip(xi(6).elements, xi(6).elements[1:]))
    expected_ratios = [mediant_ratio(a, b, 6, 20) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("a sequence was built")

    dist = import_module("sternbrocot.dist")
    assert not hasattr(dist, "xi") and not hasattr(dist, "stern_level")
    for module, name in (("xi", "xi"), ("stern", "stern_level"),
                         ("xi", "theta"), ("stern", "next_level")):
        monkeypatch.setattr(import_module(f"sternbrocot.{module}"), name, refuse)
    report = verify_theorem1(x, 30)
    assert [row.n for row in report.rows] == list(range(2, 31))
    assert [row.empirical for row in report.rows[:15]] == expected_xi
    assert empirical_cdf("xi", 16, x) == expected_xi[-1]
    assert empirical_cdf("stern_brocot", 12, x) == expected_stern_brocot
    assert [mediant_ratio(a, b, 6, 20) for a, b in pairs] == expected_ratios


@pytest.mark.parametrize("count", [
    lambda n: empirical_cdf("stern_brocot", n, Fraction(1, 3)),
    lambda n: empirical_cdf("xi", n, Fraction(1, 3)),
    lambda n: subtree_count(1, n),
    fibonacci_ratio_limit,
    lambda n: fibonacci_ratio_limit(n - 2),  # F(n) is past the budget, F(n - 2) within it
    lambda n: mediant_ratio(Fraction(0), Fraction(1, 2), 1, n),  # counts F(n) and F(n - 2)
    lambda n: mediant_ratio(Fraction(0), Fraction(1, 2), n, 13),
])
def test_counts_refuse_past_the_size_budget(count):
    # 1 << 10**10 alone would take 1.25 GB; the refusal comes before any weight is built
    tracemalloc.start()
    try:
        for n in (MAX_EXACT_BITS + 1, 10 ** 10):
            with pytest.raises(ValueError, match="size budget"):
                count(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestFibonacciRatio:
    @pytest.mark.parametrize(
        "j, value",
        [(1, Fraction(1, 2)), (5, Fraction(5, 13)), (10, Fraction(55, 144))],
    )
    def test_examples(self, j, value):
        assert fibonacci_ratio_limit(j) == value

    def test_error_strictly_decreasing(self):
        for j in range(2, 41):
            closer = abs(TAU2 - fibonacci_ratio_limit(j))
            farther = abs(TAU2 - fibonacci_ratio_limit(j - 1))
            assert closer < farther

    def test_tiny_error_at_forty(self):
        assert abs(TAU2 - fibonacci_ratio_limit(40)) < Fraction(1, 10 ** 15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            fibonacci_ratio_limit(0)


class TestSubtreeIdentities:
    def test_gap_contents_equal_the_mediant_subtree(self):
        # between consecutive xi(5) members, the rationals of generations
        # <= 15 are exactly the mediant's subtree, plus the right neighbour
        level_cap = 15
        pool = [node for k in range(1, level_cap + 1) for node in theta(k)]
        elements = xi(5).elements
        for x, y in zip(elements, elements[1:]):
            gap = {node.value for node in pool if x < node.value <= y}
            subtree = {
                node.value
                for node in subtree_nodes(node_for(mediant(x, y)), level_cap)
            }
            if y != 1:
                subtree.add(y)
            assert subtree == gap

    def test_subtree_sizes_against_formula(self):
        for k in range(1, 7):
            for root in theta(k):
                levels = Counter(node.level for node in subtree_nodes(root, 15))
                running = 0
                for m in range(k, 16):
                    running += levels.get(m, 0)
                    assert running == fibonacci(m - k + 3) - 1
