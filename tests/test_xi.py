import gc
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sternbrocot import (
    SQRT5,
    ReducedRCF,
    XiTreeNode,
    fibonacci,
    left_child,
    mediant,
    node_for,
    right_child,
    subtree_count,
    theta,
    xi,
)
from sternbrocot.exact import MAX_EXACT_BITS

from oracles import additive_fibonacci, generation, subtree_nodes


class TestFibonacci:
    def test_base_and_small_values(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1
        assert fibonacci(10) == 55

    def test_recurrence(self):
        for n in range(1, 30):
            assert fibonacci(n + 2) == fibonacci(n + 1) + fibonacci(n)

    def test_closed_form_in_quadratic_field(self):
        # ((1+sqrt5)/2)^n - ((1-sqrt5)/2)^n, all divided by sqrt5, exactly
        phi = (1 + SQRT5) / 2
        psi = (1 - SQRT5) / 2
        for n in range(1, 31):
            assert (phi ** n - psi ** n) / SQRT5 == fibonacci(n)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            fibonacci(0)

    def test_holds_two_numbers_at_a_time(self):
        # F(20000) has 13.9 kbit; F(1), ..., F(20000) together take 18 MB
        tracemalloc.start()
        try:
            fibonacci(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @given(st.integers(1, 5000))
    def test_against_the_additive_oracle(self, n):
        assert fibonacci(n) == additive_fibonacci(n)

    def test_refuses_past_the_size_budget(self):
        # F(n) takes 0.69 n bits; the refusal comes before any is built
        tracemalloc.start()
        try:
            for n in (MAX_EXACT_BITS + 1, 10 ** 10):
                with pytest.raises(ValueError, match="size budget"):
                    fibonacci(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNodesAndChildren:
    def test_root(self):
        root = XiTreeNode.root()
        assert root.value == Fraction(1, 2)
        assert root.digits.digits == (2,)
        assert root.level == 1

    def test_left_child_examples(self):
        assert left_child(XiTreeNode.root()) == node_for(Fraction(1, 3))
        two_thirds = node_for(Fraction(2, 3))
        assert left_child(two_thirds).value == Fraction(3, 5)
        assert left_child(two_thirds).level == 4

    def test_right_child_examples(self):
        assert right_child(XiTreeNode.root()) == node_for(Fraction(2, 3))
        assert right_child(node_for(Fraction(2, 3))).value == Fraction(3, 4)
        assert right_child(node_for(Fraction(1, 3))).value == Fraction(2, 5)
        assert right_child(node_for(Fraction(1, 3))).level == 4

    def test_level_arithmetic(self):
        for x in (Fraction(1, 2), Fraction(2, 5), Fraction(7, 9)):
            node = node_for(x)
            assert left_child(node).level == node.level + 2
            assert right_child(node).level == node.level + 1

    def test_node_level_must_match_digit_sum(self):
        with pytest.raises(ValueError):
            XiTreeNode(Fraction(1, 2), ReducedRCF((2,)), level=2)

    def test_values_are_reduced_unit_interior(self):
        for k in range(1, 13):
            for node in theta(k):
                assert 0 < node.value < 1
                assert node.value == Fraction(node.value.numerator, node.value.denominator)


class TestTheta:
    def test_first_generations(self):
        assert [n.value for n in theta(1)] == [Fraction(1, 2)]
        assert [n.value for n in theta(2)] == [Fraction(2, 3)]
        assert [n.value for n in theta(3)] == [Fraction(1, 3), Fraction(3, 4)]

    def test_counts_are_fibonacci(self):
        for k in range(1, 19):
            assert len(theta(k)) == fibonacci(k)

    def test_sorted_and_disjoint(self):
        seen = set()
        for k in range(1, 13):
            values = [n.value for n in theta(k)]
            assert values == sorted(values)
            assert seen.isdisjoint(values)
            seen.update(values)

    def test_children_biject_onto_the_next_generation(self):
        # generation n+1 = right children of n, plus left children of n-1
        for n in range(2, 21):
            images = [right_child(y) for y in theta(n)]
            images += [left_child(y) for y in theta(n - 1)]
            assert len(images) == len(set(images)) == fibonacci(n + 1)
            assert set(images) == set(theta(n + 1))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            theta(0)


class TestXiSequence:
    def test_first_sequence(self):
        assert xi(1).elements == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_third_sequence(self):
        expected = (
            Fraction(0),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1),
        )
        assert xi(3).elements == expected
        assert len(xi(3).elements) == fibonacci(5) + 1

    def test_counts(self):
        assert len(xi(10).elements) == 145
        for n in range(1, 19):
            assert len(xi(n).elements) == fibonacci(n + 2) + 1

    def test_sorted_strictly(self):
        elements = xi(12).elements
        assert all(a < b for a, b in zip(elements, elements[1:]))

    def test_new_nodes_split_the_gaps_as_mediants(self):
        # a generation-n member of xi(n) is the mediant of its neighbours,
        # and its children are the mediants with those same neighbours
        for n in range(1, 11):
            elements = xi(n).elements
            by_value = {node.value: node for node in theta(n)}
            for left, middle, right in zip(elements, elements[1:], elements[2:]):
                node = by_value.get(middle)
                if node is None:
                    continue
                assert left_child(node).value == mediant(left, middle)
                assert right_child(node).value == mediant(middle, right)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            xi(0)


class TestSubtrees:
    def test_count_examples(self):
        assert subtree_count(1, 3) == 4
        assert subtree_count(4, 4) == 1
        assert subtree_count(2, 5) == 7
        assert subtree_count(5, 3) == 0

    def test_count_example_against_traversal(self):
        nodes = list(subtree_nodes(node_for(Fraction(2, 3)), 5))
        assert len(nodes) == 7

    def test_counts_match_explicit_traversal(self):
        for k in range(1, 11):
            for root in theta(k):
                levels = Counter(node.level for node in subtree_nodes(root, 20))
                running = 0
                for m in range(k, 21):
                    running += levels.get(m, 0)
                    assert running == subtree_count(k, m)

    def test_subtree_below_cutoff_is_empty(self):
        assert list(subtree_nodes(node_for(Fraction(1, 3)), 2)) == []

    def test_level_validation(self):
        with pytest.raises(ValueError):
            subtree_count(0, 5)


class TestAgainstDigitCompositions:
    """The walk-built generations and sequences against digit compositions."""

    def test_theta_values_levels_and_digits(self):
        for k in range(1, 21):
            nodes = theta(k)
            expected = generation(k)
            assert [node.value for node in nodes] == [value for value, _ in expected]
            assert [node.digits.digits for node in nodes] == [digits for _, digits in expected]
            assert all(node.level == k for node in nodes)

    def test_xi_is_the_merge_of_the_generations(self):
        members: list[Fraction] = []
        for n in range(1, 19):
            members = sorted(members + [value for value, _ in generation(n)])
            assert xi(n).elements == (Fraction(0), *members, Fraction(1))


def retained_bytes(build) -> tuple[int, int]:
    """(Bytes traced while build()'s result is alive, bytes still traced
    once it is dropped), both relative to before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        alive = tracemalloc.get_traced_memory()[0] - before
        del result
        gc.collect()
        return alive, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestNothingIsKept:
    @pytest.mark.parametrize("build", [lambda: xi(20), lambda: theta(20)], ids=["xi", "theta"])
    def test_memory_returns_once_the_result_is_dropped(self, build):
        alive, kept = retained_bytes(build)
        assert alive > 1_000_000
        assert kept < alive // 100
