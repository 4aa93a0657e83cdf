"""Stern-Brocot sequences on [0,1] and one graded walk of the tree under them.

Level 0 is {0/1, 1/1}; each next level inserts the mediant between every
pair of neighbours, so level n holds 2**n + 1 fractions. The fractions
that first appear at level n are exactly those whose regular
continued-fraction quotients sum to n + 1.

Those fractions are the nodes of depth n in the Stern-Brocot tree
(Graham, Knuth and Patashnik, *Concrete Mathematics* 4.5), rooted at 1/2
with depth 1 when every edge costs 1. With left edges costing 2 the same
tree grades the reduced-fraction generations of the `xi` module, so
`graded_walk` streams both families in increasing order, in O(n) memory,
from integer mediants alone. `descend` walks the one path from the root
to a given x, for rank counts (`dist`) and for g (`singular`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .cf import expand_rcf, sum_partial_quotients
from .exact import QuadSurd, _check_lambda, _Record, _zero_one, mediant


class SternBrocotLevel(_Record):
    """One materialized level: a strictly increasing run from 0 to 1.

    A sorted tuple, for callers that need the whole level at once; rank
    queries count along the tree path instead (see `dist`), and the CLI
    streams rows from `graded_walk`.
    """

    __slots__ = ("index", "elements")

    def __init__(self, index: int, elements: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "elements", elements)


def graded_walk(
    n: int,
    left: int = 1,
    lam: Fraction | QuadSurd | None = None,
) -> Iterator[tuple[int, int, int, Fraction | QuadSurd | None]]:
    """Every Stern-Brocot node of depth <= n, in increasing order.

    Yields (p, q, depth, g) for each node p/q of (0,1), in lowest terms.
    The root 1/2 has depth 1; a right edge adds 1 to the depth and a
    left edge adds `left`, so left = 1 grades by Stern-Brocot level and
    left = 2 by reduced-fraction generation. With a split parameter lam
    in (0,1), g is the singular function at p/q, carried down the tree
    by the mediant recurrence g(m) = g(lo) + (g(hi) - g(lo)) * lam from
    g(0) = 0 and g(1) = 1; without one, g is None. The stack holds one
    entry per pending ancestor, at most n.

    `left` and lam are checked here, before any node is produced, so a
    caller may print a header between the call and the first node.
    """
    if left < 1:
        raise ValueError("the left edge cost must be >= 1")
    if lam is not None:
        _check_lambda(lam)
    return _walk(n, left, lam)


def _walk(
    n: int, left: int, lam: Fraction | QuadSurd | None
) -> Iterator[tuple[int, int, int, Fraction | QuadSurd | None]]:
    g_lo = g_hi = None
    if lam is not None:
        g_lo, g_hi = _zero_one(lam)
    stack: list[tuple] = []
    lo_p, lo_q, hi_p, hi_q, depth = 0, 1, 1, 1, 1
    while True:
        while depth <= n:  # down the left spine of the gap (lo, hi)
            p, q = lo_p + hi_p, lo_q + hi_q
            g = None if lam is None else g_lo + (g_hi - g_lo) * lam
            stack.append((p, q, depth, g, hi_p, hi_q, g_hi))
            hi_p, hi_q, g_hi = p, q, g
            depth += left
        if not stack:
            return
        p, q, d, g, hi_p, hi_q, g_hi = stack.pop()
        yield p, q, d, g
        lo_p, lo_q, g_lo = p, q, g  # then the right subtree, gap (p/q, hi)
        depth = d + 1


def descend(x: Fraction) -> Iterator[int]:
    """Signs of a*q - p*b at the integer mediants p/q on the Stern-Brocot
    path from the root 1/2 to x = a/b in (0,1): -1 to turn left, +1 to
    turn right, and 0 at x itself, the path's node S(x) - 1, where it ends.
    No path reaches 0 or 1, so x outside (0,1) raises ValueError."""
    if not 0 < x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    a, b = x.numerator, x.denominator
    lo_p, lo_q, hi_p, hi_q = 0, 1, 1, 1
    side = 1
    while side:
        p, q = lo_p + hi_p, lo_q + hi_q
        side = a * q - p * b
        yield (side > 0) - (side < 0)
        if side < 0:
            hi_p, hi_q = p, q
        else:
            lo_p, lo_q = p, q


def first_level() -> SternBrocotLevel:
    return SternBrocotLevel(0, (Fraction(0), Fraction(1)))


def next_level(level: SternBrocotLevel) -> SternBrocotLevel:
    """Insert the mediant between each pair of neighbours."""
    elements = level.elements
    out: list[Fraction] = []
    for left, right in zip(elements, elements[1:]):
        out.append(left)
        out.append(mediant(left, right))
    out.append(elements[-1])
    return SternBrocotLevel(level.index + 1, tuple(out))


def stern_level(n: int) -> SternBrocotLevel:
    """Materialize level n (2**n + 1 elements)."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    inner = (Fraction(p, q) for p, q, _, _ in graded_walk(n))
    return SternBrocotLevel(n, (Fraction(0), *inner, Fraction(1)))


def new_mediants(n: int) -> tuple[Fraction, ...]:
    """The 2**(n-1) fractions that first appear at level n, in increasing order.

    The endpoints 0 and 1 take part in the mediants but never appear here.
    """
    if n < 1:
        raise ValueError("new mediants exist from level 1 on")
    return tuple(Fraction(p, q) for p, q, depth, _ in graded_walk(n) if depth == n)


def characterize_Qn(x: Fraction) -> int:
    """The unique level at which x in (0,1) first appears.

    Equal to S(x) - 1, where S is the sum of the regular
    continued-fraction quotients of x.
    """
    if not 0 < x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    return sum_partial_quotients(expand_rcf(x)) - 1
