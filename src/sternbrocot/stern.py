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
from integer mediants alone. `path_runs` gives the one path from the root
to a given x as its runs of equal turns, the quotients of x, for the
rank counts and generations of `dist`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .cf import expand_rcf, sum_partial_quotients
from .exact import (
    _OVER_BUDGET,
    QuadSurd,
    _check_lambda,
    _phi_split,
    _phi_value,
    _Record,
    mediant,
)


class SternBrocotLevel(_Record):
    """One materialized level: a strictly increasing run from 0 to 1.

    A sorted tuple, for callers that need the whole level at once; rank
    queries count along the tree path instead (see `dist`), and the CLI
    streams rows from `graded_walk`.
    """

    __slots__ = ("index", "elements")


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
    in (0,1), g is the singular function at p/q, in lam's type, carried
    down the tree by the mediant recurrence g(m) = g(lo) + (g(hi) - g(lo))
    * lam from g(0) = 0 and g(1) = 1; without one, g is None. The
    recurrence runs on the integer kernel of `exact`: a node k mediant
    steps down gets an integer numerator over d**k, lam = (u + v*phi)/d,
    and one gcd when it is yielded. The stack holds one entry per pending
    ancestor, at most n.

    `left` and lam are checked here, before any node is produced, so a
    caller may print a header between the call and the first node; so is
    the size of g at depth n against `exact.MAX_EXACT_BITS`.
    """
    if left < 1:
        raise ValueError("the left edge cost must be >= 1")
    if lam is not None:
        _check_lambda(lam)
        if n > _phi_split(lam)[3]:  # a node of depth n is at most n mediant steps down
            raise ValueError(_OVER_BUDGET)
    return _walk(n, left, lam)


def _walk(
    n: int, left: int, lam: Fraction | QuadSurd | None
) -> Iterator[tuple[int, int, int, Fraction | QuadSurd | None]]:
    """The walk of `graded_walk`. With lam = (u + v*phi)/d over Z[phi]
    (`exact._phi_split`), each gap (lo, hi) carries g(lo) and g(hi) as
    numerators over the same power e of d, so g at the mediant is the
    integer numerator g(lo)*(d - u - v*phi) + g(hi)*(u + v*phi) over
    e*d, reduced into lam's type only when the node is yielded.
    """
    stack: list[tuple] = []
    lo_p, lo_q, hi_p, hi_q, depth = 0, 1, 1, 1, 1
    gap = right = None
    if lam is not None:
        u, v, d, _ = _phi_split(lam)
        c, w = d - u, -v  # 1 - lam = (c + w*phi)/d
        gap = (0, 0, 1, 0, 1)  # g(lo) = 0 and g(hi) = 1, over e = 1
    while True:
        while depth <= n:  # down the left spine of the gap (lo, hi)
            p, q = lo_p + hi_p, lo_q + hi_q
            if gap is not None:
                la, lb, ha, hb, e = gap
                a = la * c + lb * w + ha * u + hb * v
                b = la * w + lb * (c + w) + ha * v + hb * (u + v)
                e *= d
                right = (a, b, ha * d, hb * d, e)  # the gap (p/q, hi)
                gap = (la * d, lb * d, a, b, e)  # the gap (lo, p/q)
            stack.append((p, q, depth, hi_p, hi_q, right))
            hi_p, hi_q = p, q
            depth += left
        if not stack:
            return
        p, q, node_depth, hi_p, hi_q, gap = stack.pop()
        yield p, q, node_depth, None if gap is None else _phi_value(gap[0], gap[1], gap[4], lam)
        lo_p, lo_q = p, q  # then the right subtree, gap (p/q, hi)
        depth = node_depth + 1


def path_runs(x: Fraction) -> list[int]:
    """Turn counts of the Stern-Brocot path from the root 1/2 to x in (0,1),
    one count per run of equal turns: left runs at even list indices,
    right runs at odd ones, and x the mediant of the gap the last run
    leaves. For x = [0; a1, ..., am] the runs are a1 - 1, a2, ..., am with
    the last one shorter by one (a1 - 2 when m = 1), so they add up to
    S(x) - 2 and the path has S(x) - 1 nodes, x the last. No path reaches
    0 or 1, so x outside (0,1) raises ValueError; the check compares x's
    numerator and denominator as integers. Only ranks use the runs (`dist`);
    g reads the quotients themselves (`singular`)."""
    if not 0 < x.numerator < x.denominator:
        raise ValueError(f"need 0 < x < 1, got {x}")
    runs = list(expand_rcf(x).quotients)
    runs[0] -= 1
    runs[-1] -= 1
    return runs


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
    if not 0 < x.numerator < x.denominator:
        raise ValueError(f"need 0 < x < 1, got {x}")
    return sum_partial_quotients(expand_rcf(x)) - 1
