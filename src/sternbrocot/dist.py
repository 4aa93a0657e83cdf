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
(`stern.path_runs`), in O(m) steps for x with m quotients, without
building the sequence; the test suite keeps the materialized route as
its reference.
"""

from __future__ import annotations

from fractions import Fraction

from .cf import digit_sum_L, expand_rcf, expand_rrcf
from .exact import QuadSurd, _Record, mediant, to_decimal
from .singular import g_tau2
from .stern import path_runs
from .xi import _fibonacci_numbers, fibonacci, subtree_count

#: Largest index verify_theorem1 tabulates. A row costs one rank count
#: along the path to x, so this bounds the table, not memory.
MAX_XI_INDEX = 30


def _rank(kind: str, n: int, x: Fraction, runs: list[int] | None = None) -> tuple[int, int, bool]:
    """(Elements <= x, total, whether x is an element) for the level-n
    sequence of the given kind, along the Stern-Brocot path to x
    (`stern.path_runs`).

    The sequence is 0, 1 and the tree nodes of depth <= n, where the root
    1/2 has depth 1, a right edge costs 1 and a left edge costs 2 for
    "xi" or 1 for "stern_brocot". A mediant of depth k at or below x
    counts with its left subtree: fibonacci(n-k+1) or 2**(n-k) elements.
    Those are the nodes where the path turns right, and x itself; so a
    run of right turns at depths k..l adds the block sum
    F(n-k+3) - F(n-l+2) or 2**(n-k+1) - 2**(n-l), with l cut at n. For
    x = [0; a1, ..., am] that is one expansion of x (`path_runs`), then
    O(min(m, n)) operations on integers of at most n + 1 bits, as the
    count stops at the first run that starts below depth n, plus, for
    "xi", one pass of n + 2 Fibonacci additions that keeps only the
    numbers the blocks name. A caller that ranks one x at many n passes
    `runs = path_runs(x)` and skips the expansion. Its size budget is n
    itself, which `verify_theorem1` keeps within MAX_XI_INDEX.
    """
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if kind == "xi":
        if n < 1:
            raise ValueError("sequence index must be >= 1")
        left_cost = 2
    elif kind == "stern_brocot":
        if n < 0:
            raise ValueError("level index must be >= 0")
        left_cost = 1
    else:
        raise ValueError(f"unknown sequence kind: {kind!r}")
    blocks, member = [], p == 0 or p == q  # (k, l): the counted depths k..l
    if not member:
        depth = 1
        for i, turns in enumerate(path_runs(x) if runs is None else runs):
            if depth > n:  # every later block starts below depth n
                break
            if i % 2:
                blocks.append((depth, depth + turns - 1))
                depth += turns
            else:
                depth += left_cost * turns
        blocks.append((depth, depth))  # x itself, the last node of its path
        member = depth <= n
    blocks = [(k, min(l, n)) for k, l in blocks if k <= n]
    if kind == "xi":
        weights: dict[int, int] = {}  # Fibonacci index -> times added, less times taken
        for k, l in blocks:
            weights[n - k + 3] = weights.get(n - k + 3, 0) + 1
            weights[n - l + 2] = weights.get(n - l + 2, 0) - 1
        rank = 1
        for j, f in enumerate(_fibonacci_numbers(n + 2), start=1):
            if j in weights:
                rank += weights[j] * f
        total = f + 1  # F(n+2) + 1
    else:
        rank = 1 + sum((1 << (n - k + 1)) - (1 << (n - l)) for k, l in blocks)
        total = (1 << n) + 1
    return (total if p == q else rank), total, member


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


def verify_theorem1(x: Fraction, n_max: int, tolerance: Fraction = Fraction(1, 50)) -> ConvergenceReport:
    """Tabulate |empirical_cdf(xi, n, x) - g_tau2(x)| for n = 2..n_max.

    The target is exact in Q(sqrt5); errors are reported as 30-digit
    decimals, and the pass verdict compares the final error against the
    tolerance exactly. The path runs of x are computed once, and each
    row is one rank count along them (`_rank`) of O(min(m, n)) steps.
    Refuses n_max beyond MAX_XI_INDEX, and a tolerance below 0.
    """
    if not 0 < x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > MAX_XI_INDEX:
        raise ValueError(f"refusing n_max > {MAX_XI_INDEX}: the table stops at index {MAX_XI_INDEX}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    target = g_tau2(expand_rcf(x))
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
    generation, tends to tau**2 as m grows.
    """
    rank_x, _, x_is_element = _rank("xi", n_of_pair, x)
    rank_y, _, y_is_element = _rank("xi", n_of_pair, y)
    if not (x_is_element and y_is_element and rank_y == rank_x + 1):
        raise ValueError(f"{x} and {y} are not consecutive in the index-{n_of_pair} sequence")
    k = digit_sum_L(expand_rrcf(mediant(x, y))) - 1
    if m < k:
        raise ValueError(f"depth m = {m} does not reach the mediant's generation {k}")
    return Fraction(subtree_count(k + 2, m), subtree_count(k, m))


def fibonacci_ratio_limit(j: int) -> Fraction:
    """F(j) / F(j+2); approaches tau**2 from alternating sides, with
    strictly shrinking error."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return Fraction(fibonacci(j), fibonacci(j + 2))
