"""The reduced-fraction analogue of the Stern-Brocot construction.

Grade the rationals of (0,1) by the digit sum of their reduced
continued fraction: generation k collects the values with
L(x) = k + 1. Generation k has exactly fibonacci(k) members, and the
generations assemble into an infinite binary tree rooted at 1/2 in
which appending a digit 2 steps two generations down and incrementing
the last digit steps one generation down; a subtree cut at generation m
below a node of generation k holds fibonacci(m - k + 3) - 1 nodes. The
test suite walks that tree by digits; the library reads it off the walk.
`xi(n)` is the union of the first n generations together with the
endpoints 0 and 1 - the sequence whose empirical distribution the
`dist` module studies.

That tree is the Stern-Brocot tree with left edges costing two
generations and right edges one, so `xi` and `theta` read their members
off the blocks of `stern.walk_blocks` with left = 2, in increasing
order, through the guarded route of `stern`'s builders, which refuses a sequence past
`exact.MAX_ELEMENTS` before the walk; nothing is cached between calls.
`theta` pairs each member with its reduced digits (`cf.expand_rrcf`) and
its generation in an `XiTreeNode`, a plain record that checks nothing:
the three fields agree by construction.
"""

from __future__ import annotations

from fractions import Fraction
from .cf import expand_rrcf
from .exact import _OVER_BUDGET, MAX_EXACT_BITS, _phi_pow, _Record
from .stern import _nodes


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1, F(n+1) = F(n) + F(n-1): the phi coefficient of
    phi**n = F(n-1) + F(n)*phi, by the kernel's square and multiply
    (`exact._phi_pow`) in O(log n) products. Refuses n past
    MAX_EXACT_BITS, whose F(n) would take 0.69 n bits."""
    if n < 1:
        raise ValueError("Fibonacci numbers are indexed from 1 here")
    if n > MAX_EXACT_BITS:
        raise ValueError(_OVER_BUDGET)
    return _phi_pow(0, 1, n)[1]


class XiTreeNode(_Record):
    """A tree node: a rational in (0,1), its reduced digits, and its
    generation, the digit sum minus one; the test suite checks every node
    of `theta` against the digits' own value (`oracles.xi_node`)."""

    __slots__ = ("value", "digits", "level")


class XiSequence(_Record):
    """Generations 1..index plus the endpoints, sorted; fibonacci(index+2) + 1 values."""

    __slots__ = ("index", "elements")


def theta(k: int) -> tuple[XiTreeNode, ...]:
    """Generation k: all nodes with digit sum k + 1, sorted by value.

    The nodes of depth k in the graded walk with left edges costing 2.
    """
    return tuple(XiTreeNode(x, expand_rrcf(x), k) for x in _nodes(k, 1, 2, deepest=True))


def xi(n: int) -> XiSequence:
    """Generations 1..n plus {0, 1}, as one sorted sequence."""
    return XiSequence(n, (Fraction(0), *_nodes(n, 1, 2), Fraction(1)))
