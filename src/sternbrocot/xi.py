"""The reduced-fraction analogue of the Stern-Brocot construction.

Grade the rationals of (0,1) by the digit sum of their reduced
continued fraction: generation k collects the values with
L(x) = k + 1. Generation k has exactly fibonacci(k) members, and the
generations assemble into an infinite binary tree rooted at 1/2 in
which appending a digit 2 steps two generations down and incrementing
the last digit steps one generation down. `xi(n)` is the union of the
first n generations together with the endpoints 0 and 1 - the sequence
whose empirical distribution the `dist` module studies.

That tree is the Stern-Brocot tree with left edges costing two
generations and right edges one, so `xi` and `theta` read their members
off `stern.graded_walk` with left = 2, in increasing order, through the
guarded route of `stern`'s builders, which refuses a sequence past
`exact.MAX_ELEMENTS` before the walk; nothing is cached between calls.
"""

from __future__ import annotations

from fractions import Fraction
from .cf import ReducedRCF, digit_sum_L, expand_rrcf, value_rrcf
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
    """A tree node: a rational in (0,1), its reduced digits, its generation."""

    __slots__ = ("value", "digits", "level")

    def __init__(self, value: Fraction, digits: ReducedRCF, level: int) -> None:
        if level != digit_sum_L(digits) - 1:
            raise ValueError("level must be the digit sum minus one")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "level", level)

    @classmethod
    def from_digits(cls, digits: ReducedRCF | tuple[int, ...]) -> "XiTreeNode":
        d = digits if isinstance(digits, ReducedRCF) else ReducedRCF(tuple(digits))
        return cls(value=value_rrcf(d), digits=d, level=digit_sum_L(d) - 1)

    @classmethod
    def root(cls) -> "XiTreeNode":
        return cls.from_digits((2,))


class XiSequence(_Record):
    """Generations 1..index plus the endpoints, sorted; fibonacci(index+2) + 1 values."""

    __slots__ = ("index", "elements")


def node_for(x: Fraction) -> XiTreeNode:
    """The unique tree node whose value is x in (0,1)."""
    return XiTreeNode.from_digits(expand_rrcf(x))


def left_child(node: XiTreeNode) -> XiTreeNode:
    """Append a digit 2: two generations down, and the smaller child."""
    return XiTreeNode.from_digits(node.digits.digits + (2,))


def right_child(node: XiTreeNode) -> XiTreeNode:
    """Increment the last digit: one generation down, the larger child."""
    d = node.digits.digits
    return XiTreeNode.from_digits(d[:-1] + (d[-1] + 1,))


def theta(k: int) -> tuple[XiTreeNode, ...]:
    """Generation k: all nodes with digit sum k + 1, sorted by value.

    The nodes of depth k in the graded walk with left edges costing 2.
    """
    return tuple(XiTreeNode(x, expand_rrcf(x), k) for x in _nodes(k, 1, 2, deepest=True))


def xi(n: int) -> XiSequence:
    """Generations 1..n plus {0, 1}, as one sorted sequence."""
    return XiSequence(n, (Fraction(0), *_nodes(n, 1, 2), Fraction(1)))


def subtree_count(node_level: int, up_to_level: int) -> int:
    """Size of the subtree below (and including) a node of the given
    generation, truncated at generation up_to_level.

    The subtree hanging off any node is generation-shift isomorphic to
    the whole tree, whose first j generations hold fibonacci(j+2) - 1
    nodes; hence the count depends only on the two levels.
    """
    if node_level < 1:
        raise ValueError("node level must be >= 1")
    if up_to_level < node_level:
        return 0
    return fibonacci(up_to_level - node_level + 3) - 1

