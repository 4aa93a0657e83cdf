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
*Concrete Mathematics* 4.5), as `stern.descend` walks it, in at most n
steps, without building the sequence; the test suite keeps the
materialized route as its reference.
"""

from __future__ import annotations

from fractions import Fraction

from .cf import digit_sum_L, expand_rcf, expand_rrcf
from .exact import QuadSurd, _Record, mediant, to_decimal
from .singular import g_tau2
from .stern import descend
from .xi import _fibonacci_numbers, fibonacci, subtree_count

#: Largest index verify_theorem1 tabulates. A row costs one path walk of
#: at most n steps, so this bounds the table, not memory.
MAX_XI_INDEX = 30


def _rank(kind: str, n: int, x: Fraction) -> tuple[int, int, bool]:
    """(Elements <= x, total, whether x is an element) for the level-n
    sequence of the given kind, along the Stern-Brocot path to x (`descend`).

    The sequence is 0, 1 and the tree nodes of depth <= n, where the root
    1/2 has depth 1, a right edge costs 1 and a left edge costs 2 for
    "xi" or 1 for "stern_brocot". A mediant of depth k at or below x
    counts with its left subtree: fibonacci(n-k+1) or 2**(n-k) elements.
    Each step goes at least one level down, so the walk is left after at
    most n + 1 mediants, whatever the quotients of x. The walk comes
    first and only the weights of its counted depths are built, at most
    min(n, S(x)) numbers of at most n bits, not all n of them.
    """
    if not 0 <= x <= 1:
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
    counted, member, depth = [], x == 0 or x == 1, 1
    if not member:
        for side in descend(x):
            if depth > n:
                break
            if side < 0:
                depth += left_cost
            else:
                counted.append(depth)
                if side == 0:
                    member = True
                    break
                depth += 1
    if kind == "xi":
        wanted = {n - k + 1 for k in counted}  # the mediant at depth k adds F(n-k+1)
        rank = 1
        for j, f in enumerate(_fibonacci_numbers(n + 2), start=1):
            if j in wanted:
                rank += f
        total = f + 1  # F(n+2) + 1
    else:
        rank, total = 1 + sum(1 << (n - k) for k in counted), 2 ** n + 1
    return (total if x == 1 else rank), total, member


def empirical_cdf(kind: str, n: int, x: Fraction) -> Fraction:
    """Exact rank ratio of x in the level-n sequence of the given kind
    ("stern_brocot" or "xi"), counted in at most n path steps."""
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
    tolerance exactly. Each row is one rank walk of at most n steps.
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
    rows = []
    final_error: QuadSurd = QuadSurd(0)
    for n in range(2, n_max + 1):
        empirical = empirical_cdf("xi", n, x)
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
