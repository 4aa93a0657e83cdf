"""Empirical distribution functions of the two mediant constructions.

The fraction of a level's elements lying at or below x converges, as the
level grows, to Minkowski's ?(x) for the Stern-Brocot sequences and to
the tau**2 singular function for the reduced-fraction sequences `xi(n)`.
This module computes the finite-n empirical values exactly, monitors
their convergence to the exact Q(sqrt5) target, and exposes the
subtree-count ratios whose Fibonacci limit tau**2 drives that
convergence.

Both sequences are depth-bounded cuts of one Stern-Brocot tree, so a
rank is counted along the tree path to x (Graham, Knuth and Patashnik,
*Concrete Mathematics* 4.5), one run of equal turns at a time
(`stern.path_runs`), as differences of subtree sizes, Fibonacci numbers
or powers of 2, without building the sequence; the test suite keeps the
materialized route and a per-node count as its references.
"""

from __future__ import annotations

from fractions import Fraction

from .cf import expand_rcf
from .exact import (_OVER_BUDGET, MAX_EXACT_BITS, MAX_OUTPUT_BYTES, QuadSurd, _Record,
                    check_output, mediant, text_bytes, to_decimal)
from .singular import g_tau2
from .stern import path_runs
from .xi import fibonacci, subtree_count


def _rank(kind: str, n: int, x: Fraction, runs: list[int] | None = None) -> tuple[int, int, bool]:
    """(Elements <= x, total, whether x is an element) for the level-n
    sequence of the given kind, along the Stern-Brocot path to x
    (`stern.path_runs`).

    The sequence is 0, 1 and the tree nodes of depth <= n, where the root
    1/2 has depth 1, a right edge costs 1 and a left edge costs 2 for
    "xi" or 1 for "stern_brocot". The nodes of depth <= n number W(n) - 1,
    with W(j) = F(j+2) for "xi" and 2**j for "stern_brocot", so a node of
    depth k <= n and its left subtree hold W(n-k+1) - W(n-k) of them.
    Those counts add up for the nodes where the path turns right, and x
    itself: a run of right turns at depths k..l adds W(n-k+1) - W(n-l),
    with l cut at n, and x at depth k adds W(n-k+1) - W(n-k); the total
    is W(n) + 1. For x = [0; a1, ..., am] that is one expansion of
    x (`path_runs`) and one pass over its runs, which stops at the first
    run that starts below depth n: two weights per counted run, each
    O(log n) products on integers of at most n + 1 bits. A caller that
    ranks one x at many n passes `runs = path_runs(x)` and skips the
    expansion. Before building a weight it refuses the largest one past
    the cap of the routine that builds it: n + 2 past MAX_EXACT_BITS for
    "xi" (F(n + 2), `fibonacci`'s cap on its index) and n past it for
    "stern_brocot" (2**n, MAX_EXACT_BITS bits).
    """
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if kind == "xi":
        if n < 1:
            raise ValueError("sequence index must be >= 1")
        left_cost, weight, largest = 2, lambda j: fibonacci(j + 2), n + 2
    elif kind == "stern_brocot":
        if n < 0:
            raise ValueError("level index must be >= 0")
        left_cost, weight, largest = 1, lambda j: 1 << j, n
    else:
        raise ValueError(f"unknown sequence kind: {kind!r}")
    if largest > MAX_EXACT_BITS:
        raise ValueError(_OVER_BUDGET)
    total = weight(n) + 1
    if p == 0 or p == q:
        return (1 if p == 0 else total), total, True
    rank, depth = 1, 1
    for i, turns in enumerate(path_runs(x) if runs is None else runs):
        if depth > n:  # every later run starts below depth n
            return rank, total, False
        if i % 2:
            rank += weight(n - depth + 1) - weight(n - min(depth + turns - 1, n))
            depth += turns
        else:
            depth += left_cost * turns
    if depth > n:  # x itself, the last node of its path
        return rank, total, False
    return rank + weight(n - depth + 1) - weight(n - depth), total, True


def empirical_cdf(kind: str, n: int, x: Fraction) -> Fraction:
    """Exact rank ratio of x in the level-n sequence of the given kind
    ("stern_brocot" or "xi"), counted by block sums along the path to x (`_rank`)."""
    rank, total, _ = _rank(kind, n, x)
    return Fraction(rank, total)


class ConvergenceRow(_Record):
    """One row of the table: the index n, the exact empirical value at x,
    and its distance from the target as a 30-digit decimal."""

    __slots__ = ("n", "empirical", "abs_error_decimal")

    def __init__(self, n: int, empirical: Fraction, abs_error_decimal: str) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "empirical", empirical)
        object.__setattr__(self, "abs_error_decimal", abs_error_decimal)


class ConvergenceReport(_Record):
    """Exact convergence table of the xi empirical CDF at one point."""

    __slots__ = ("x", "target", "tolerance", "rows", "passed")

    def __init__(self, x: Fraction, target: QuadSurd, tolerance: Fraction,
                 rows: tuple[ConvergenceRow, ...], passed: bool) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "passed", passed)


def _table_bytes(n_max: int, target: QuadSurd) -> int:
    """An upper bound on the bytes of the table's text, as `verify theorem1`
    prints it, summed row by row and no further than past MAX_OUTPUT_BYTES.

    Row n is n, the empirical p/q with p <= q <= F(n + 2) + 1, the target
    and the error as "0." and 30 digits, separated by tabs; a verdict line
    of 5 bytes ends the table. `exact.text_bytes` bounds the integers'
    text from their bit lengths, with a separator beside each but the
    target's, which takes one more, and the newline after the error.
    """
    target_bytes = text_bytes(*(v.bit_length() for c in (target.a, target.b)
                                for v in c.as_integer_ratio()), surd=True) + 1 + 33
    size, n, fib, nxt = 5, 2, 3, 5  # F(n + 2) and F(n + 3)
    while n <= n_max and size <= MAX_OUTPUT_BYTES:
        size += text_bytes(n.bit_length(), *[(fib + 1).bit_length()] * 2) + target_bytes
        n, fib, nxt = n + 1, nxt, fib + nxt
    return size


def verify_theorem1(x: Fraction, n_max: int, tolerance: Fraction = Fraction(1, 50)) -> ConvergenceReport:
    """Tabulate |empirical_cdf(xi, n, x) - g_tau2(x)| for n = 2..n_max.

    The target is exact in Q(sqrt5); errors are reported as 30-digit
    decimals, and the pass verdict compares the final error against the
    tolerance exactly. The path runs of x are computed once, and each
    row is one rank count along them (`_rank`) of O(min(m, n)) steps.
    Refuses a tolerance below 0, and a table whose text would pass
    `exact.MAX_OUTPUT_BYTES` (`_table_bytes`), before any row is built.
    """
    if not 0 < x.numerator < x.denominator:
        raise ValueError(f"need 0 < x < 1, got {x}")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if tolerance.numerator < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    target = g_tau2(expand_rcf(x))
    check_output(_table_bytes(n_max, target))
    runs = path_runs(x)
    rows = []
    final_error: QuadSurd = QuadSurd(0)
    for n in range(2, n_max + 1):
        rank, total, _ = _rank("xi", n, x, runs)
        empirical = Fraction(rank, total)
        final_error = abs(target - empirical)
        rows.append(ConvergenceRow(n, empirical, to_decimal(final_error, 30)))
    return ConvergenceReport(x, target, tolerance, tuple(rows), final_error <= tolerance)


def mediant_ratio(x: Fraction, y: Fraction, n_of_pair: int, m: int) -> Fraction:
    """Finite-depth version of the gap-splitting ratio at the mediant of
    two neighbours x < y of xi(n_of_pair).

    Counting through generation m, the subtree under the mediant's left
    child covers (g(mediant) - g(x)) and the subtree under the mediant
    covers (g(y) - g(x)); their size ratio
    (fibonacci(m-k+1) - 1) / (fibonacci(m-k+3) - 1), with k the mediant's
    generation, tends to tau**2 as m grows. k is read off the mediant's
    path runs (`stern.path_runs`), so no reduced expansion is built.
    """
    rank_x, _, x_is_element = _rank("xi", n_of_pair, x)
    rank_y, _, y_is_element = _rank("xi", n_of_pair, y)
    if not (x_is_element and y_is_element and rank_y == rank_x + 1):
        raise ValueError(f"{x} and {y} are not consecutive in the index-{n_of_pair} sequence")
    runs = path_runs(mediant(x, y))  # a left turn costs 2 generations, a right turn 1
    k = 1 + 2 * sum(runs[::2]) + sum(runs[1::2])
    if m < k:
        raise ValueError(f"depth m = {m} does not reach the mediant's generation {k}")
    larger = subtree_count(k, m)  # refused past the budget before the smaller is built
    return Fraction(subtree_count(k + 2, m), larger)


def fibonacci_ratio_limit(j: int) -> Fraction:
    """F(j) / F(j+2); approaches tau**2 from alternating sides, with
    strictly shrinking error."""
    if j < 1:
        raise ValueError("j must be >= 1")
    larger = fibonacci(j + 2)  # refused past the budget before F(j) is built
    return Fraction(fibonacci(j), larger)
