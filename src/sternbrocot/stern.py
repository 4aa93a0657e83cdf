"""Stern-Brocot sequences on [0,1] and one graded walk of the tree under them.

Level 0 is {0/1, 1/1}; each next level inserts the mediant between every
pair of neighbours, so level n holds 2**n + 1 fractions. The fractions
that first appear at level n are exactly those whose regular
continued-fraction quotients sum to n + 1.

Those fractions are the nodes of depth n in the Stern-Brocot tree
(Graham, Knuth and Patashnik, *Concrete Mathematics* 4.5), rooted at 1/2
with depth 1 when every edge costs 1. With left edges costing 2 the same
tree grades the reduced-fraction generations of the `xi` module. One
in-order traversal of that graded tree, `_inorder`, goes down the left
spine of each gap with a stack of pending ancestors, and each walk
supplies only its step at a mediant. `walk_blocks` streams both families
in increasing order from the integer mediant: a node below the gap
(lo, hi) is A lo + B hi with (A, B) fixed by its place, so its step gives
each subtree near the depth bound whole, as a block of at most
BLOCK_NODES nodes combined from coefficient tables built once per call;
cut to the bottom row of each subtree, the same tables give the nodes of
depth n alone, one generation or one new level.
`graded_walk` steps by the mediant in Z[phi] that carries the singular
function g of a split parameter down the tree with the nodes, one node
at a time. The sequences the library builds, `stern_level`,
`new_mediants` and `xi`'s `xi` and `theta`, take
one route from the blocks, `_nodes`, which counts them before the walk
and refuses one past `exact.MAX_ELEMENTS`. `path_runs` gives the one
path from the root to a given x as its runs of equal turns, the
quotients of x, for the rank counts and generations of `dist`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add

from .cf import RegularCF, expand_rcf
from .exact import (
    _OVER_BUDGET,
    MAX_ELEMENTS,
    QuadSurd,
    _coprime_fraction,
    _kernel,
    _phi_value,
    _Record,
    mediant,
)


#: The most nodes a block of `walk_blocks` holds.
BLOCK_NODES = 2 ** 11


class SternBrocotLevel(_Record):
    """One materialized level: a strictly increasing run from 0 to 1.

    A sorted tuple, for callers that need the whole level at once; rank
    queries count along the tree path instead (see `dist`), and the CLI
    streams rows from `walk_blocks`.
    """

    __slots__ = ("index", "elements")


def walk_blocks(n: int, left: int = 1, deepest: bool = False
                ) -> Iterator[tuple[list[int], list[int], tuple[int, ...], int]]:
    """Every Stern-Brocot node of depth <= n, or of depth n alone if
    deepest, in increasing order, a block at a time.

    The nodes are the p/q of (0,1), in lowest terms. The root 1/2 has
    depth 1; a right edge adds 1 to the depth and a left edge adds
    `left`, so left = 1 grades by Stern-Brocot level and left = 2 by
    reduced-fraction generation. Yields (ps, qs, depths, base): the node
    ps[i]/qs[i] has depth base + depths[i], and one comprehension gives
    the nodes one at a time,
    [(p, q, base + d) for ps, qs, depths, base in walk_blocks(n, left)
     for p, q, d in zip(ps, qs, depths)].

    The walk is `_inorder` with the integer mediant as its step. A node
    below the gap (lo, hi) is the integer combination A lo + B hi of the
    gap's ends, with (A, B) fixed by its place in the subtree, so the
    step gives each subtree of at most BLOCK_NODES nodes that the bound
    n cuts (`_block_tables`) whole, as one block, its numerators and
    denominators combined from those coefficients by one list
    comprehension each, and base is the depth of its root. Above the
    blocks the step gives each of the few pending ancestors as a block
    of its own. If deepest, each table is first cut, once per call, to
    its nodes at the bottom of the subtree, so a block holds only the
    nodes of depth n below its gap; every node of depth n lies in a
    block (the bottom row of a subtree is never empty, as its right
    spine reaches it), so the ancestors above the blocks give nothing
    and no block is empty. Each block has lists ps and qs of its own;
    `depths` is a tuple, so a caller may keep or change what it is given
    without changing the walk. `left` is checked here, before any block
    is produced.
    """
    if left < 1:
        raise ValueError("the left edge cost must be >= 1")
    tables = _block_tables(n - 1, left)
    top = len(tables) - 1
    if deepest:  # each subtree of budget r cut to its nodes r below its root
        for r, (a, b, d) in enumerate(tables):
            keep = [e == r for e in d]
            tables[r] = tuple(compress(a, keep)), tuple(compress(b, keep)), (r,) * sum(keep)

    def step(gap: tuple, depth: int) -> tuple:
        lo_p, lo_q, hi_p, hi_q = gap
        if n - depth <= top:  # the whole subtree below the gap, as one block
            a, b, d = tables[n - depth]
            return ([lo_p * x + hi_p * y for x, y in zip(a, b)],
                    [lo_q * x + hi_q * y for x, y in zip(a, b)], d, depth), None, None
        p, q = lo_p + hi_p, lo_q + hi_q
        node = None if deepest else ([p], [q], (0,), depth)  # never of depth n if deepest
        return node, (lo_p, lo_q, p, q), (p, q, hi_p, hi_q)

    walk = _inorder(n, left, step, (0, 1, 1, 1))
    return filter(None, walk) if deepest else walk


def _block_tables(top: int, left: int) -> list[tuple[tuple[int, ...], ...]]:
    """For each budget r = 0, 1, ... up to top, while the subtree of the
    nodes at most r below its root holds at most BLOCK_NODES nodes, the
    in-order tuples (A, B, D) of that subtree: its nodes are A lo + B hi
    below the gap (lo, hi), D below the root. The root is lo + hi, its
    left subtree sits in the gap (lo, lo + hi) with budget r - left and
    its right one in (lo + hi, hi) with budget r - 1, so
    A(r) = [A(r-left) + B(r-left)] ++ [1] ++ A(r-1),
    B(r) = B(r-left) ++ [1] ++ [A(r-1) + B(r-1)], and D alike."""
    tables: list[tuple[tuple[int, ...], ...]] = []
    empty: tuple[tuple[int, ...], ...] = ((), (), ())
    for r in range(top + 1):
        la, lb, ld = tables[r - left] if r >= left else empty
        ra, rb, rd = tables[r - 1] if r else empty
        if len(la) + len(ra) + 1 > BLOCK_NODES:
            break
        tables.append(((*map(add, la, lb), 1, *ra),
                       (*lb, 1, *map(add, ra, rb)),
                       (*map(add, ld, repeat(left)), 0, *map(add, rd, repeat(1)))))
    return tables


def graded_walk(
    n: int, left: int, lam: Fraction | QuadSurd
) -> Iterator[tuple[int, int, int, Fraction | QuadSurd]]:
    """The nodes of `walk_blocks(n, left)`, one at a time, each with the
    singular function g of the split parameter lam at it.

    Yields (p, q, depth, g) for each node p/q of depth <= n, in
    increasing order; g is the singular function at p/q, in lam's type,
    carried down the tree by the mediant recurrence
    g(m) = g(lo) + (g(hi) - g(lo)) * lam from g(0) = 0 and g(1) = 1.
    The walk is `_inorder` with this recurrence as its step, on the
    integer kernel of `exact`: with lam = (u + v*phi)/d over Z[phi] and
    1 - lam from lam's record (`exact._kernel`, which also range-checks
    lam), each gap (lo, hi) carries g(lo) and g(hi) as
    numerators over the same power e of d, so g at the mediant is the
    integer numerator g(lo)*(d - u - v*phi) + g(hi)*(u + v*phi) over
    e*d, reduced into lam's type by one gcd (`exact._phi_value`).

    `left` and lam, which must lie in (0,1), are checked here, before any
    node is produced, so a caller may print a header between the call
    and the first node; so is the size of g at depth n against
    `exact.MAX_EXACT_BITS`.
    """
    if left < 1:
        raise ValueError("the left edge cost must be >= 1")
    kernel = _kernel(lam)
    if n > kernel.limit:  # a node of depth n is at most n mediant steps down
        raise ValueError(_OVER_BUDGET)
    (c, w), (u, v), d = *kernel.bases, kernel.d  # 1 - lam = (c + w*phi)/d

    def step(gap: tuple, depth: int) -> tuple:
        lo_p, lo_q, hi_p, hi_q, la, lb, ha, hb, e = gap
        p, q = lo_p + hi_p, lo_q + hi_q
        a = la * c + lb * w + ha * u + hb * v
        b = la * w + lb * (c + w) + ha * v + hb * (u + v)
        e *= d
        return ((p, q, depth, _phi_value(a, b, e, lam)),
                (lo_p, lo_q, p, q, la * d, lb * d, a, b, e), (p, q, hi_p, hi_q, a, b, ha * d, hb * d, e))

    return _inorder(n, left, step, (0, 1, 1, 1, 0, 0, 1, 0, 1))  # g(0) = 0, g(1) = 1, over e = 1


def _inorder(n: int, left: int, step: Callable[[tuple, int], tuple], gap: tuple) -> Iterator:
    """The one traversal of the tree under both walks: what `step` makes
    of each node of depth <= n below `gap`, the walk's own form of the
    root gap (0/1, 1/1), in increasing order. The root 1/2 has depth 1,
    a right edge adds 1 and a left edge `left`.

    step(gap, depth) is given a gap and the depth of its mediant, and
    returns (node, lower, upper): what to yield for the mediant, and the
    gaps on either side of it. A step that returns no gaps (None) has
    given the whole subtree below the gap as its node. The traversal goes
    down the left spine of each gap and keeps an explicit stack, one
    entry per pending ancestor, at most n.
    """
    stack: list[tuple] = []
    push, pop = stack.append, stack.pop
    depth = 1
    while True:
        while depth <= n:  # down the left spine of the gap
            node, gap, upper = step(gap, depth)
            if gap is None:  # the whole subtree came out as one node
                yield node
                break
            push((node, upper, depth + 1))
            depth += left
        if not stack:
            return
        node, gap, depth = pop()
        yield node  # then the subtree of the gap above it


def path_runs(x: Fraction | RegularCF) -> list[int]:
    """Turn counts of the Stern-Brocot path from the root 1/2 to x in (0,1),
    one count per run of equal turns: left runs at even list indices,
    right runs at odd ones, and x the mediant of the gap the last run
    leaves. For x = [0; a1, ..., am] the runs are a1 - 1, a2, ..., am with
    the last one shorter by one (a1 - 2 when m = 1), so they add up to
    S(x) - 2 and the path has S(x) - 1 nodes, x the last. No path reaches
    0 or 1, so x outside (0,1) raises ValueError; the check compares x's
    numerator and denominator as integers. A caller that holds the regular
    expansion of x passes it in place of x, which is then not expanded
    again. Only ranks use the runs (`dist`); g reads the quotients
    themselves (`singular`)."""
    if isinstance(x, RegularCF):
        quotients = x.quotients
    else:
        quotients = expand_rcf(x).quotients if 0 < x.numerator < x.denominator else ()
    if not quotients:
        raise ValueError(f"need 0 < x < 1, got {x}")
    runs = list(quotients)
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
    return SternBrocotLevel(n, (Fraction(0), *_nodes(n, 0, 1), Fraction(1)))


def new_mediants(n: int) -> tuple[Fraction, ...]:
    """The 2**(n-1) fractions that first appear at level n, in increasing order.

    The endpoints 0 and 1 take part in the mediants but never appear here.
    """
    return tuple(_nodes(n, 1, 1, deepest=True))


def _nodes(n: int, low: int, left: int, deepest: bool = False) -> Iterator[Fraction]:
    """The nodes of `walk_blocks(n, left, deepest)` as Fractions, those of
    depth <= n, or of depth n alone if deepest: the one route from the
    walk to the sequences the library builds (`stern_level`,
    `new_mediants`, `xi.xi`, `xi.theta`).

    Before the walk it refuses, with a ValueError, an index n below low,
    then a node count past `exact.MAX_ELEMENTS`. With W(k) the node count
    of depth <= k plus one, 1 at every k <= 0 and W(k) = W(k-1) + W(k-left)
    (2**k for left = 1, F(k+2) for left = 2), the walk yields W(n) - 1
    nodes, W(n) - W(n-1) of them at depth n. Past 2 bits(MAX_ELEMENTS) + 2
    either count passes the budget (F(2b + 2) >= phi**(2b) > 2**b), so n
    stops growing there and no huge W is built. A walk node is the mediant
    of two neighbours, already in lowest terms, so no gcd is taken.
    """
    if n < low:
        raise ValueError(f"the index must be >= {low}, got {n}")
    w = [1] * left  # W(k) at the depths k = 1 - left, ..., 0
    for _ in range(min(n, 2 * MAX_ELEMENTS.bit_length() + 2)):
        w.append(w[-1] + w[-left])
    if w[-1] - (w[-2] if deepest else 1) > MAX_ELEMENTS:
        raise ValueError(f"the sequence would pass the budget of {MAX_ELEMENTS} elements")
    blocks = walk_blocks(n, left, deepest)
    return chain.from_iterable(map(_coprime_fraction, ps, qs) for ps, qs, _, _ in blocks)
