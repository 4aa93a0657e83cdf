import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from sternbrocot import (
    TAU,
    TAU2,
    characterize_Qn,
    expand_rcf,
    fibonacci,
    first_level,
    g_inductive,
    graded_walk,
    new_mediants,
    next_level,
    stern_level,
    sum_partial_quotients,
    theta,
    xi,
)
from sternbrocot.stern import path_runs

from oracles import descend, path_depth, quotient_lists, rcf_value, subtractive_rrcf


def frac_set(*pairs):
    return tuple(Fraction(p, q) for p, q in pairs)


class TestLevels:
    def test_level_zero(self):
        level = first_level()
        assert level.index == 0
        assert level.elements == frac_set((0, 1), (1, 1))

    def test_first_refinements(self):
        level1 = next_level(first_level())
        assert level1.elements == frac_set((0, 1), (1, 2), (1, 1))
        level2 = next_level(level1)
        assert level2.elements == frac_set((0, 1), (1, 3), (1, 2), (2, 3), (1, 1))
        assert len(next_level(level2).elements) == 9

    def test_counts(self, stern_chain):
        for level in stern_chain:
            assert len(level.elements) == 2 ** level.index + 1

    def test_strictly_increasing_with_unit_endpoints(self, stern_chain):
        for level in stern_chain:
            elements = level.elements
            assert elements[0] == 0 and elements[-1] == 1
            assert all(a < b for a, b in zip(elements, elements[1:]))

    def test_unimodular_neighbours(self, stern_chain):
        for level in stern_chain:
            for x, y in zip(level.elements, level.elements[1:]):
                assert x.denominator * y.numerator - x.numerator * y.denominator == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stern_level(-1)


class TestNewMediants:
    def test_examples(self):
        assert new_mediants(1) == frac_set((1, 2))
        assert new_mediants(2) == frac_set((1, 3), (2, 3))
        assert new_mediants(3) == frac_set((1, 4), (2, 5), (3, 5), (3, 4))

    def test_counts(self):
        for n in range(1, 11):
            assert len(new_mediants(n)) == 2 ** (n - 1)

    def test_layers_partition_the_level(self, stern_chain):
        for n in range(1, 11):
            previous = set(stern_chain[n - 1].elements)
            fresh = set(new_mediants(n))
            assert fresh.isdisjoint(previous)
            assert previous | fresh == set(stern_chain[n].elements)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            new_mediants(0)


class TestCharacterization:
    @pytest.mark.parametrize(
        "x, n",
        [(Fraction(1, 2), 1), (Fraction(2, 3), 2), (Fraction(3, 5), 3)],
    )
    def test_examples(self, x, n):
        assert characterize_Qn(x) == n
        assert x in new_mediants(n)

    def test_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                characterize_Qn(bad)

    def test_layers_match_quotient_sums(self, stern_chain):
        # first-appearance layer == quotient sum minus one, levels 1..8
        for n in range(1, 9):
            expected = {
                x
                for x in stern_chain[8].elements
                if x not in (0, 1) and sum_partial_quotients(expand_rcf(x)) == n + 1
            }
            assert set(new_mediants(n)) == expected

    def test_level_membership_is_sum_bounded(self, stern_chain):
        for n in range(0, 9):
            members = {
                x
                for x in stern_chain[8].elements
                if x in (0, 1) or sum_partial_quotients(expand_rcf(x)) <= n + 1
            }
            assert set(stern_chain[n].elements) == members


class TestGradedWalk:
    def test_first_nodes(self):
        assert list(graded_walk(2)) == [(1, 3, 2, None), (1, 2, 1, None), (2, 3, 2, None)]
        assert list(graded_walk(3, 2)) == [(1, 3, 3, None), (1, 2, 1, None),
                                           (2, 3, 2, None), (3, 4, 3, None)]
        assert list(graded_walk(0)) == []

    def test_counts(self):
        for n in range(0, 13):
            assert sum(1 for _ in graded_walk(n)) == 2 ** n - 1
        for n in range(1, 19):
            assert sum(1 for _ in graded_walk(n, 2)) == fibonacci(n + 2) - 1

    def test_increasing_and_in_lowest_terms(self):
        for left in (1, 2):
            nodes = [(p, q) for p, q, _, _ in graded_walk(12, left)]
            assert all(gcd(p, q) == 1 and 0 < p < q for p, q in nodes)
            assert all(p * s < r * q for (p, q), (r, s) in zip(nodes, nodes[1:]))

    def test_depth_is_the_level_or_the_generation(self):
        # left = 1: level S(x) - 1; left = 2: generation L(x) - 1
        for p, q, depth, _ in graded_walk(12):
            assert depth == sum_partial_quotients(expand_rcf(Fraction(p, q))) - 1
        for p, q, depth, _ in graded_walk(16, 2):
            assert depth == sum(subtractive_rrcf(Fraction(p, q))) - 1

    @given(st.integers(0, 11), st.integers(1, 4))
    def test_any_left_cost_gives_the_depth_bounded_cut_in_order(self, stern_chain, n, left):
        # every edge costs >= 1, so nodes of depth <= n lie in level n
        expected = [x for x in stern_chain[n].elements[1:-1] if path_depth(x, left) <= n]
        walked = [(Fraction(p, q), depth) for p, q, depth, _ in graded_walk(n, left)]
        assert walked == [(x, path_depth(x, left)) for x in expected]

    @pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), TAU, TAU2])
    def test_split_carries_g_down_the_tree(self, lam):
        for left in (1, 2):
            for p, q, _, g in graded_walk(8, left, lam):
                assert g == g_inductive(Fraction(p, q), lam)

    def test_left_cost_must_be_positive_and_is_checked_at_the_call(self):
        for left in (0, -1):
            with pytest.raises(ValueError, match="left edge cost"):
                graded_walk(3, left)  # not iterated

    def test_split_must_lie_inside_the_unit_interval(self):
        for lam in (Fraction(0), Fraction(1), Fraction(3, 2), -TAU):
            with pytest.raises(ValueError, match="split parameter"):
                graded_walk(3, 2, lam)  # not iterated


class TestAgainstTheMediantChain:
    """The walk-built levels against the level-doubling route, levels 0..16."""

    def test_levels_and_new_mediants(self, stern_chain):
        levels = list(stern_chain)
        while levels[-1].index < 16:
            levels.append(next_level(levels[-1]))
        for level in levels:
            assert stern_level(level.index) == level
        for n in range(1, 17):
            assert new_mediants(n) == levels[n].elements[1::2]


class TestDescend:
    def test_examples(self):
        assert list(descend(Fraction(1, 2))) == [0]
        assert list(descend(Fraction(3, 7))) == [-1, 1, 1, 0]
        assert list(descend(Fraction(4, 5))) == [1, 1, 1, 0]

    @given(quotient_lists())
    def test_one_sign_per_node_down_to_x(self, quotients):
        x = rcf_value(quotients)
        assume(x < 1)
        signs = list(descend(x))
        assert len(signs) == sum(quotients) - 1
        assert signs[-1] == 0 and 0 not in signs[:-1]
        assert set(signs[:-1]) <= {-1, 1}

    @given(quotient_lists(max_total=2000))
    def test_the_turns_give_the_depth_for_either_left_cost(self, quotients):
        x = rcf_value(quotients)
        assume(x < 1)
        signs = list(descend(x))
        for left in (1, 2):
            depth = 1 + sum(left if side < 0 else 1 for side in signs[:-1])
            assert depth == path_depth(x, left)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
    def test_refuses_points_outside_the_open_unit_interval(self, x):
        with pytest.raises(ValueError):
            list(descend(x))


class TestPathRuns:
    """The path to x as runs of equal turns, against the per-step signs of
    the oracle `descend`."""

    def test_examples(self):
        assert path_runs(Fraction(1, 2)) == [0]
        assert path_runs(Fraction(3, 7)) == [1, 2]
        assert path_runs(Fraction(4, 5)) == [0, 3]

    @given(quotient_lists())
    def test_runs_group_the_per_step_turns(self, quotients):
        x = rcf_value(quotients)
        assume(x < 1)
        turns = []
        for i, k in enumerate(path_runs(x)):
            turns.extend([1 if i % 2 else -1] * k)
        assert turns + [0] == list(descend(x))

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
    def test_refuses_points_outside_the_open_unit_interval(self, x):
        with pytest.raises(ValueError):
            path_runs(x)


BUILDERS = {"stern_level": stern_level, "new_mediants": new_mediants, "xi": xi, "theta": theta}


class TestElementBudget:
    """The four builders share one route from the walk, which counts the
    sequence before it walks and refuses one past exact.MAX_ELEMENTS."""

    @pytest.mark.parametrize("name, last", [("stern_level", 6), ("new_mediants", 7), ("xi", 9),
                                            ("theta", 11)])
    def test_the_last_accepted_and_first_refused_index(self, monkeypatch, name, last):
        # budget 100: the last builds accepted hold 2**6 + 1, 2**6, F(11) + 1 and F(11) elements
        monkeypatch.setattr("sternbrocot.stern.MAX_ELEMENTS", 100)
        build = BUILDERS[name]
        build(last)
        with pytest.raises(ValueError, match="budget of 100 elements"):
            build(last + 1)

    @pytest.mark.parametrize("name, n", [("stern_level", 21), ("new_mediants", 22), ("xi", 29),
                                         ("theta", 31), ("xi", 60), ("xi", 10 ** 12)])
    def test_the_real_budget_refuses_before_the_walk(self, name, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the sequence would pass the budget"):
            BUILDERS[name](n)
        assert time.perf_counter() - start < 0.01
