import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import sternbrocot
from sternbrocot import (
    TAU,
    TAU2,
    QuadSurd,
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
from sternbrocot.stern import BLOCK_NODES, path_runs, walk_blocks

from oracles import (descend, field_walk, node_walk, path_depth, quotient_lists, rcf_value,
                     subtractive_rrcf)


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
        assert sum_partial_quotients(expand_rcf(x)) - 1 == n
        assert x in new_mediants(n)

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


def flat(n, left):
    """The nodes of `walk_blocks(n, left)` one at a time, as (p, q, depth)."""
    return [(p, q, base + d) for ps, qs, depths, base in walk_blocks(n, left)
            for p, q, d in zip(ps, qs, depths)]


class TestGradedWalk:
    """The graded walk of the tree: its nodes, read off the blocks of
    `walk_blocks`, and g carried along them by `graded_walk`."""

    def test_first_nodes(self):
        assert flat(2, 1) == [(1, 3, 2), (1, 2, 1), (2, 3, 2)]
        assert flat(3, 2) == [(1, 3, 3), (1, 2, 1), (2, 3, 2), (3, 4, 3)]
        assert flat(0, 1) == []

    def test_counts(self):
        for n in range(0, 13):
            assert len(flat(n, 1)) == 2 ** n - 1
        for n in range(1, 19):
            assert len(flat(n, 2)) == fibonacci(n + 2) - 1

    def test_increasing_and_in_lowest_terms(self):
        for left in (1, 2):
            nodes = [(p, q) for p, q, _ in flat(12, left)]
            assert all(gcd(p, q) == 1 and 0 < p < q for p, q in nodes)
            assert all(p * s < r * q for (p, q), (r, s) in zip(nodes, nodes[1:]))

    def test_depth_is_the_level_or_the_generation(self):
        # left = 1: level S(x) - 1; left = 2: generation L(x) - 1
        for p, q, depth in flat(12, 1):
            assert depth == sum_partial_quotients(expand_rcf(Fraction(p, q))) - 1
        for p, q, depth in flat(16, 2):
            assert depth == sum(subtractive_rrcf(Fraction(p, q))) - 1

    @given(st.integers(0, 11), st.integers(1, 4))
    def test_any_left_cost_gives_the_depth_bounded_cut_in_order(self, stern_chain, n, left):
        # every edge costs >= 1, so nodes of depth <= n lie in level n
        expected = [x for x in stern_chain[n].elements[1:-1] if path_depth(x, left) <= n]
        walked = [(Fraction(p, q), depth) for p, q, depth in flat(n, left)]
        assert walked == [(x, path_depth(x, left)) for x in expected]

    @pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), TAU, TAU2])
    def test_split_carries_g_down_the_tree(self, lam):
        for left in (1, 2):
            walked = list(graded_walk(8, left, lam))
            assert [node[:3] for node in walked] == flat(8, left)
            for p, q, _, g in walked:
                assert g == g_inductive(Fraction(p, q), lam)

    @pytest.mark.parametrize("n, left", [(12, 1), (13, 1), (16, 2), (17, 2)])
    def test_past_the_first_block_cut(self, n, left):
        # past largest_block_depth(left) walk_blocks gives the nodes in
        # many blocks, with the ancestors between them on their own: the
        # nodes of graded_walk are theirs, in order, and g is the mediant
        # recurrence in lam's field (`oracles.field_walk`)
        assert n > largest_block_depth(left)
        assert len(list(walk_blocks(n, left))) > 2
        for lam in (Fraction(1, 3), TAU2, QuadSurd(Fraction(1, 7), Fraction(1, 11))):
            walked = list(graded_walk(n, left, lam))
            assert [node[:3] for node in walked] == flat(n, left)
            assert [g for *_, g in walked] == [g for *_, g in field_walk(n, left, lam)]
            assert all(type(g) is type(lam) for *_, g in walked)

    def test_streams(self):
        # 2**14 - 1 nodes, one at a time from a stack of at most 14 entries
        tracemalloc.start()
        try:
            count = sum(1 for _ in graded_walk(14, 1, Fraction(1, 3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2 ** 14 - 1
        assert peak < 256 * 2 ** 10

    def test_left_cost_must_be_positive_and_is_checked_at_the_call(self):
        for left in (0, -1):
            with pytest.raises(ValueError, match="left edge cost"):
                graded_walk(3, left, Fraction(1, 3))  # not iterated

    def test_split_must_lie_inside_the_unit_interval(self):
        for lam in (Fraction(0), Fraction(1), Fraction(3, 2), -TAU):
            with pytest.raises(ValueError, match="split parameter"):
                graded_walk(3, 2, lam)  # not iterated

    def test_the_split_parameter_is_required_at_the_call(self):
        # the nodes alone are the blocks of walk_blocks
        with pytest.raises(TypeError):
            graded_walk(3, 2)  # not iterated


def largest_block_depth(left):
    """The largest r whose subtree of the nodes at most r below its root
    holds at most BLOCK_NODES nodes, by the count c(r) = 1 + c(r - left)
    + c(r - 1), c(r) = 0 below 0."""
    counts = {}
    r = 0
    while (count := 1 + counts.get(r - left, 0) + counts.get(r - 1, 0)) <= BLOCK_NODES:
        counts[r] = count
        r += 1
    return r - 1


class TestWalkBlocks:
    """The blocks against the walk one node at a time (`oracles.node_walk`)."""

    @pytest.mark.parametrize("left", [1, 2])
    def test_blocks_flatten_to_the_node_walk(self, left):
        top = largest_block_depth(left)
        assert top == {1: 10, 2: 14}[left]
        for n in range(0, top + 5):
            blocks = list(walk_blocks(n, left))
            assert all(0 < len(ps) == len(qs) == len(depths) <= BLOCK_NODES
                       and type(depths) is tuple for ps, qs, depths, _ in blocks)
            nodes = [(p, q, base + d) for ps, qs, depths, base in blocks
                     for p, q, d in zip(ps, qs, depths)]
            expected = list(node_walk(n, left))
            assert nodes == expected
            deepest = [Fraction(p, q) for ps, qs, depths, base in blocks
                       for p, q, d in zip(ps, qs, depths) if d == n - base]
            assert deepest == [Fraction(p, q) for p, q, depth in expected if depth == n]
            if n >= 1:  # the builders read the deepest walk, which is this filter
                built = [x.value for x in theta(n)] if left == 2 else list(new_mediants(n))
                assert deepest == built
        assert max(len(ps) for ps, *_ in blocks) == len(list(node_walk(top + 1, left)))

    def test_left_cost_is_checked_at_the_call(self):
        for left in (0, -1):
            with pytest.raises(ValueError, match="left edge cost"):
                walk_blocks(3, left)  # not iterated

    @pytest.mark.parametrize("deepest", [False, True])
    @pytest.mark.parametrize("n, left", [(16, 1), (20, 2)])
    def test_a_caller_may_change_what_it_is_given(self, n, left, deepest):
        # ps and qs are new lists for each block, depths a tuple: extending
        # every list a walk gives changes neither its later blocks, many
        # of which have the same shape, nor a later walk
        fresh = list(walk_blocks(n, left, deepest))
        seen = []
        for ps, qs, depths, base in walk_blocks(n, left, deepest):
            assert type(ps) is list and type(qs) is list and type(depths) is tuple
            seen.append((ps[:], qs[:], depths[:], base))
            for column in (ps, qs, depths):
                if isinstance(column, list):
                    column.append(0)
        assert seen == fresh
        assert list(walk_blocks(n, left, deepest)) == fresh

    def test_streams(self):
        # 2**20 - 1 nodes, a block of at most BLOCK_NODES of them at a time:
        # in a fresh child, the peak resident set over the walk (VmHWM, in
        # KiB) passes the resident set after the import by less than
        # 4 MiB. tracemalloc would slow this walk about 30 times; and
        # ru_maxrss would not do, as Linux carries into it, across exec,
        # the resident set of the test process that spawned the child
        probe = ("import re, sternbrocot\n"
                 "from sternbrocot.stern import walk_blocks\n"
                 "status = lambda key: int(re.search(key + r':\\s*(\\d+)', "
                 "open('/proc/self/status').read())[1])\n"
                 "before = status('VmRSS')\n"
                 "count = sum(len(ps) for ps, *_ in walk_blocks(20, 1))\n"
                 "print(count, before, status('VmHWM'))\n")
        src = str(Path(sternbrocot.__file__).resolve().parents[1])
        child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                               timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert child.returncode == 0, child.stderr
        count, before, peak = map(int, child.stdout.split())
        assert count == 2 ** 20 - 1
        assert peak - before < 4 * 2 ** 10


class TestDeepestWalk:
    """`walk_blocks(n, left, deepest=True)`: the nodes of depth n alone,
    against the depth-n filter of the whole walk and of the walk one node
    at a time (`oracles.node_walk`)."""

    @staticmethod
    def check(n, left):
        blocks = list(walk_blocks(n, left, deepest=True))
        assert all(0 < len(ps) == len(qs) == len(depths) <= BLOCK_NODES and type(depths) is tuple
                   for ps, qs, depths, _ in blocks)
        nodes = [(p, q, base + d) for ps, qs, depths, base in blocks for p, q, d in zip(ps, qs, depths)]
        assert nodes == [node for node in flat(n, left) if node[2] == n]
        assert nodes == [node for node in node_walk(n, left) if node[2] == n]
        return blocks

    @pytest.mark.parametrize("left", [1, 2, 3])
    def test_the_depth_n_filter_of_either_walk(self, left):
        # from one node to past the table tops (10 at left = 1, 14 at
        # left = 2, 18 at left = 3), where each block is cut from a table
        # and the ancestors above the blocks, none of depth n, give nothing
        top = largest_block_depth(left)
        assert top == {1: 10, 2: 14, 3: 18}[left]
        for n in range(1, top + 5):
            # one block, the whole tree's, until the root's budget passes the top
            assert (len(self.check(n, left)) == 1) == (n <= top + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda left: st.tuples(
        st.integers(0, largest_block_depth(left) + 4), st.just(left))))
    def test_any_depth_and_left_cost(self, case):
        self.check(*case)

    def test_counts_of_a_generation_and_a_level(self):
        # F(k) nodes of generation k and 2**(n - 1) of level n
        assert sum(len(ps) for ps, *_ in walk_blocks(25, 2, deepest=True)) == fibonacci(25)
        assert sum(len(ps) for ps, *_ in walk_blocks(17, 1, deepest=True)) == 2 ** 16


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
