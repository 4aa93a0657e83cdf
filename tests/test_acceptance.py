"""Acceptance suite: one test per release criterion, each printing a
PASS line with its scope and timing (visible with pytest -s)."""

import time
from fractions import Fraction

import pytest

from sternbrocot import (
    TAU,
    TAU2,
    empirical_cdf,
    expand_rcf,
    fibonacci,
    fibonacci_ratio_limit,
    g_inductive,
    g_series,
    g_tau2,
    left_child,
    mediant,
    mediant_ratio,
    new_mediants,
    next_level,
    question_mark,
    rcf_to_rrcf,
    right_child,
    subtree_count,
    sum_partial_quotients,
    theta,
    to_decimal,
    value_rrcf,
    xi,
)

from oracles import rcf_value, subtractive_rrcf, tau_power_series

SAMPLE_LAMBDAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))


@pytest.fixture(scope="module")
def clock():
    def report(number, started, message):
        print(f"criterion {number:2d} PASS ({time.perf_counter() - started:6.2f}s): {message}")

    return report


def g_at(x, lam):
    return lam - lam if x == 0 else g_series(expand_rcf(x), lam)


def test_criterion_01_salem_series_is_the_question_mark(stern_chain, clock):
    started = time.perf_counter()
    interior = stern_chain[12].elements[1:-1]
    assert len(interior) == 4095
    half = Fraction(1, 2)
    for x in interior:
        cf = expand_rcf(x)
        assert question_mark(cf) == g_series(cf, half)
    clock(1, started, "dyadic series equals the general series at 1/2 on 4095 points")


def test_criterion_02_inductive_equals_series_and_recurrences_hold(stern_chain, clock):
    started = time.perf_counter()
    for lam in SAMPLE_LAMBDAS:
        cache = {}

        def g_cached(x, lam=lam, cache=cache):
            if x not in cache:
                cache[x] = g_at(x, lam)
            return cache[x]

        for x in stern_chain[10].elements:
            assert g_inductive(x, lam) == g_cached(x)
        for level in stern_chain[:11]:
            for x, y in zip(level.elements, level.elements[1:]):
                gx, gy, gm = g_cached(x), g_cached(y), g_cached(mediant(x, y))
                assert gm == gx + (gy - gx) * lam
                assert gm == gy - (gy - gx) * (1 - lam)
    clock(2, started, "path evaluator equals the series and both gap recurrences hold, 3 parameters")


def test_criterion_03_tau2_series_specialization(stern_chain, clock):
    started = time.perf_counter()
    assert g_inductive(Fraction(0), TAU2) == 0
    for x in stern_chain[10].elements[1:]:
        cf = expand_rcf(x)
        assert g_series(cf, TAU2) == g_tau2(cf) == tau_power_series(cf.quotients)
    clock(3, started, "general series equals the tau-power form on all of level 10")


def test_criterion_04_reduced_rewrite_round_trips(stern_chain, clock):
    started = time.perf_counter()
    interior = stern_chain[12].elements[1:-1]
    for x in interior:
        cf = expand_rcf(x)
        assert rcf_value(cf.quotients) == x
        rewritten = rcf_to_rrcf(cf)
        assert value_rrcf(rewritten) == x
        assert rewritten.digits == subtractive_rrcf(x)
    clock(4, started, "rewrite round-trips and matches the subtractive oracle on 4095 points")


def test_criterion_05_generation_counts_are_fibonacci(clock):
    started = time.perf_counter()
    for n in range(1, 26):
        assert len(theta(n)) == fibonacci(n)
    assert len(theta(25)) == 75025
    clock(5, started, "explicit enumeration of generations 1..25 (75025 nodes at 25)")


def test_criterion_06_children_are_the_neighbour_mediants(clock):
    started = time.perf_counter()
    for n in range(1, 16):
        elements = xi(n).elements
        newest = {node.value: node for node in theta(n)}
        for x, y, z in zip(elements, elements[1:], elements[2:]):
            node = newest.get(y)
            if node is None:
                continue
            left = left_child(node)
            right = right_child(node)
            assert left.value == mediant(x, y) and left.level == n + 2
            assert right.value == mediant(y, z) and right.level == n + 1
    clock(6, started, "left/right children equal the neighbour mediants through index 15")


def test_criterion_07_new_mediants_have_quotient_sum_n_plus_one(stern_chain, clock):
    started = time.perf_counter()
    levels = list(stern_chain)
    while levels[-1].index < 14:
        levels.append(next_level(levels[-1]))
    by_sum = {}
    for x in levels[14].elements[1:-1]:
        by_sum.setdefault(sum_partial_quotients(expand_rcf(x)), set()).add(x)
    endpoints = {Fraction(0), Fraction(1)}
    for n in range(1, 15):
        assert set(new_mediants(n)) == by_sum[n + 1]
        members = endpoints.union(*(by_sum[s] for s in range(2, n + 2)))
        assert set(levels[n].elements) == members
    clock(7, started, "mediant layers equal the quotient-sum classes for levels 1..14")


def _traverse_level_tallies(digits, up_to_level):
    """Counts per level of the subtree under `digits`, by explicit walk."""
    tallies = {}
    stack = [(digits, sum(digits) - 1)]
    while stack:
        d, level = stack.pop()
        tallies[level] = tallies.get(level, 0) + 1
        if level + 1 <= up_to_level:
            stack.append((d[:-1] + (d[-1] + 1,), level + 1))
        if level + 2 <= up_to_level:
            stack.append((d + (2,), level + 2))
    return tallies


def test_criterion_08_subtree_sizes_and_sequence_counts(clock):
    started = time.perf_counter()
    for k in range(1, 11):
        for root in theta(k):
            tallies = _traverse_level_tallies(root.digits.digits, 25)
            running = 0
            for m in range(k, 26):
                running += tallies.get(m, 0)
                assert running == fibonacci(m - k + 3) - 1
                assert running == subtree_count(k, m)
    for n in range(1, 26):
        assert len(xi(n).elements) == fibonacci(n + 2) + 1
    clock(8, started, "explicit subtree walks to depth 25 under all 143 shallow roots")


def test_criterion_09_empirical_distribution_converges_to_the_target(clock):
    started = time.perf_counter()
    targets = {
        Fraction(1, 3): TAU ** 4,
        Fraction(1, 2): TAU ** 2,
        Fraction(2, 3): TAU,
        Fraction(3, 4): 1 - TAU ** 3,
    }
    tolerance = Fraction(1, 50)
    for x, target in targets.items():
        assert g_tau2(expand_rcf(x)) == target
        errors = [abs(target - empirical_cdf("xi", n, x)) for n in (10, 15, 20, 25)]
        assert errors[-1] <= tolerance
        for wider, narrower in zip(errors, errors[1:]):
            assert narrower <= wider
    clock(9, started, "xi empirical CDF within 0.02 of the exact target at index 25, errors non-increasing")


def test_criterion_10_fibonacci_ratios_squeeze_onto_the_golden_split(clock):
    started = time.perf_counter()
    for j in range(2, 41):
        assert abs(TAU2 - fibonacci_ratio_limit(j)) < abs(TAU2 - fibonacci_ratio_limit(j - 1))
    final_error = abs(TAU2 - fibonacci_ratio_limit(40))
    assert final_error < Fraction(1, 10 ** 15)
    assert to_decimal(final_error, 30).startswith("0.000000000000000")
    mediant_level = 3  # the mediant of (0, 1/2) sits three generations deep
    ratio = mediant_ratio(Fraction(0), Fraction(1, 2), 1, mediant_level + 30)
    assert abs(TAU2 - ratio) < Fraction(1, 10 ** 4)
    clock(10, started, "ratio errors strictly shrink, < 1e-15 at j = 40; depth-33 gap ratio within 1e-4")
