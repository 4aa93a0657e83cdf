"""Independent oracles for the test suite.

Each one takes the dumbest correct route available so that it shares no
code path with the implementation it checks.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, Sequence

import mpmath
from hypothesis import strategies as st

from sternbrocot import QuadSurd, XiTreeNode, left_child, right_child


def subtractive_rrcf(x: Fraction) -> tuple[int, ...]:
    """Reduced digits of x in (0,1), one ceiling subtraction at a time.

    Write x = 1 - 1/y with y > 1; the leading digit is ceil(y), and the
    tail continues on 1/(digit - y) until y lands on an integer.
    """
    assert 0 < x < 1
    digits: list[int] = []
    y = 1 / (1 - x)
    while True:
        b = math.ceil(y)
        digits.append(b)
        if y == b:
            return tuple(digits)
        y = 1 / (b - y)


def smallest_denominator_between(x: Fraction, y: Fraction) -> Fraction:
    """First fraction strictly inside (x, y) found by scanning q = 1, 2, ...

    Also insists the winner is alone at its denominator.
    """
    assert x < y
    q = 1
    while True:
        p = x.numerator * q // x.denominator + 1  # least p with p/q > x
        if Fraction(p, q) < y:
            assert not Fraction(p + 1, q) < y, "minimal denominator not unique"
            return Fraction(p, q)
        q += 1


def rounded_scaled_value(a: Fraction, b: Fraction, digits: int) -> int:
    """round((a + b*sqrt5) * 10**digits) half-up, via mpmath at high precision."""
    with mpmath.workdps(digits + 40):
        value = (
            mpmath.mpf(a.numerator) / a.denominator
            + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(5)
        )
        return int(mpmath.floor(value * mpmath.mpf(10) ** digits + mpmath.mpf(1) / 2))


def digit_lists(total: int) -> Iterator[tuple[int, ...]]:
    """All tuples (b1,...,bl) with every bi >= 2 and b1+...+bl = total."""
    if total < 2:
        return
    yield (total,)
    for first in range(2, total - 1):
        for rest in digit_lists(total - first):
            yield (first, *rest)


def reduced_value(digits: tuple[int, ...]) -> Fraction:
    """[[1; b1,...,bl]] = 1 - 1/(b1 - 1/(b2 - ... - 1/bl)), evaluated bottom-up."""
    acc = Fraction(digits[-1])
    for b in reversed(digits[:-1]):
        acc = b - 1 / acc
    return 1 - 1 / acc


def generation(k: int) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Generation k of the reduced tree as (value, digits) pairs, sorted by
    value: one pair per composition of k + 1 into digits >= 2."""
    return sorted((reduced_value(d), d) for d in digit_lists(k + 1))


def subtree_nodes(root: XiTreeNode, up_to_level: int) -> Iterator[XiTreeNode]:
    """Every node of the subtree rooted at `root` down to up_to_level, one
    child step at a time: the per-node route to `xi.subtree_count`."""
    if root.level > up_to_level:
        return
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.level + 1 <= up_to_level:
            stack.append(right_child(node))
        if node.level + 2 <= up_to_level:
            stack.append(left_child(node))


def path_depth(x: Fraction, left: int) -> int:
    """Depth of x in (0,1) in the Stern-Brocot tree whose root 1/2 has
    depth 1, a left edge costing `left` and a right edge 1, found by
    binary search from the gap (0, 1) over Fractions."""
    lo, hi, depth = Fraction(0), Fraction(1), 1
    while True:
        mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        if x == mid:
            return depth
        if x < mid:
            hi, depth = mid, depth + left
        else:
            lo, depth = mid, depth + 1


def descend(x: Fraction) -> Iterator[int]:
    """Signs of a*q - p*b at the integer mediants p/q on the Stern-Brocot
    path from the root 1/2 to x = a/b in (0,1): -1 to turn left, +1 to
    turn right, and 0 at x itself, the path's node S(x) - 1, where it ends.
    One step per node: the per-step reference for the run-by-run routes
    (`stern.path_runs`, `g_inductive`, `dist._rank`). No path reaches 0
    or 1, so x outside (0,1) raises ValueError."""
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


def path_replay(x: Fraction, lam):
    """g(x) for x in (0,1) by the mediant recurrence g(m) = g(lo)*(1 - lam)
    + g(hi)*lam, one node at a time along `descend(x)`, in the sqrt5
    basis: lam = (A + B*sqrt5)/D from its public coefficients, and g(lo)
    and g(hi) integer pairs over D**k after k nodes, built into one
    Fraction or QuadSurd at x. No φ-basis kernel code is involved."""
    if isinstance(lam, QuadSurd):
        D = math.lcm(lam.a.denominator, lam.b.denominator)
        A, B = lam.a.numerator * (D // lam.a.denominator), lam.b.numerator * (D // lam.b.denominator)
    else:
        A, B, D = lam.numerator, 0, lam.denominator
    C = D - A  # 1 - lam = (C - B*sqrt5)/D
    lo_a = lo_b = hi_b = 0
    hi_a, steps = 1, 0
    for side in descend(x):
        a = lo_a * C - 5 * lo_b * B + hi_a * A + 5 * hi_b * B
        b = lo_b * C - lo_a * B + hi_a * B + hi_b * A
        steps += 1
        if side < 0:
            lo_a, lo_b, hi_a, hi_b = lo_a * D, lo_b * D, a, b
        else:
            lo_a, lo_b, hi_a, hi_b = a, b, hi_a * D, hi_b * D
    scale = D ** steps
    if isinstance(lam, QuadSurd):
        return QuadSurd(Fraction(a, scale), Fraction(b, scale))
    return Fraction(a, scale)


def additive_fibonacci(n: int) -> int:
    """F(n) for n >= 1, F(1) = F(2) = 1, by n - 1 additions holding two
    numbers at a time: the reference for the library's phi-power route."""
    assert n >= 1
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def right_to_left_phi_pow(x: int, y: int, n: int) -> tuple[int, int]:
    """(x + y*phi)**n for n >= 0 as the integer pair of its coefficients,
    phi**2 = phi + 1, by right-to-left binary powering: the base is
    squared at every bit of n and multiplied into the result at each set
    bit. The reference for the library's left-to-right `_phi_pow`."""
    assert n >= 0
    if not y:
        return x ** n, 0
    rx, ry = 1, 0
    while True:
        if n & 1:
            rx, ry = rx * x + ry * y, rx * y + ry * (x + y)
        n >>= 1
        if not n:
            return rx, ry
        x, y = x * x + y * y, (2 * x + y) * y


def path_rank(kind: str, n: int, x: Fraction) -> tuple[int, bool]:
    """(Elements <= x, whether x is an element) for the level-n sequence
    of the given kind, x in (0,1), one node at a time along `descend(x)`:
    each node of depth k <= n where the path turns right, and x itself,
    adds F(n-k+1) ("xi", left edges cost 2) or 2**(n-k) ("stern_brocot",
    left edges cost 1), each weight computed afresh by additions
    (`additive_fibonacci`)."""
    left = 2 if kind == "xi" else 1
    rank, depth = 1, 1
    for side in descend(x):
        if depth > n:
            return rank, False
        if side < 0:
            depth += left
        else:
            rank += additive_fibonacci(n - depth + 1) if kind == "xi" else 2 ** (n - depth)
            depth += 1
    return rank, True


def materialized_cdf(elements: Sequence[Fraction], x: Fraction) -> Fraction:
    """Share of the sorted sequence `elements` lying at or below x in
    [0,1], by binary search over the whole materialized sequence."""
    assert 0 <= x <= 1
    return Fraction(bisect_right(elements, x), len(elements))


def surd_text(a: Fraction, b: Fraction) -> str:
    """The text "a+b√5" of a + b*sqrt5, from the two Fractions' own text."""
    if b == 0:
        return str(a)
    surd = f"{abs(b)}√5"
    if a == 0:
        return surd if b > 0 else f"-{surd}"
    return f"{a}{'+' if b > 0 else '-'}{surd}"


INT_DIGITS_LIMITED = hasattr(sys, "get_int_max_str_digits")


@contextmanager
def int_digit_limit(digits: int) -> Iterator[None]:
    """Set Python's int-to-str digit limit (0: none), where it has one, for a block."""
    if not INT_DIGITS_LIMITED:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@total_ordering
class FractionSurd:
    """a + b*sqrt(5) with two Fraction coefficients, the slow route that
    `sternbrocot.QuadSurd` replaced: every operation normalises Fractions.

    It equals a QuadSurd with the same coefficients, compared through the
    QuadSurd's public `.a` and `.b`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(other: object) -> "FractionSurd | None":
        if isinstance(other, FractionSurd):
            return other
        if isinstance(other, QuadSurd):
            return FractionSurd(other.a, other.b)
        if isinstance(other, (int, Fraction)):
            return FractionSurd(other)
        return None

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        if a > 0:
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __neg__(self) -> "FractionSurd":
        return FractionSurd(-self.a, -self.b)

    def __add__(self, other: object) -> "FractionSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionSurd(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FractionSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionSurd(self.a - o.a, self.b - o.b)

    def __mul__(self, other: object) -> "FractionSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionSurd(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "FractionSurd":
        if not self:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        norm = self.a * self.a - 5 * self.b * self.b
        return FractionSurd(self.a / norm, -self.b / norm)

    def __truediv__(self, other: object) -> "FractionSurd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, exponent: int) -> "FractionSurd":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base, n = FractionSurd(1), self, exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return surd_text(self.a, self.b)

    def decimal(self, digits: int) -> str:
        """Rounded half-up to `digits` places: floor((P + R*sqrt5)/D) over
        the common denominator D of a and b is (P + floor(R*sqrt5)) // D."""
        scale = 10 ** (digits + 1)
        qa, qb = self.a.denominator, self.b.denominator
        r = self.b.numerator * qa * scale
        root = math.isqrt(5 * r * r)
        floor_r_sqrt5 = root if r >= 0 else -root - 1
        n = (self.a.numerator * qb * scale + floor_r_sqrt5) // (qa * qb)
        n = (n + 5) // 10
        whole, frac = divmod(abs(n), 10 ** digits)
        return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


#: tau = (sqrt5 - 1)/2 on the oracle's own arithmetic.
FRACTION_TAU = FractionSurd(Fraction(-1, 2), Fraction(1, 2))


def tau_power_series(quotients: Sequence[int]) -> FractionSurd:
    """g at lambda = tau**2 from the quotients of x, in closed form.

    Since 1 - tau**2 = tau, term k of the alternating series is
    (-1)**(k+1) * tau**(w_k - 2), where w_k weights the quotients up to k
    by 2 on odd positions and 1 on even ones; each power is taken afresh,
    on FractionSurd, so no QuadSurd arithmetic is involved.
    """
    if not quotients:
        return FractionSurd(1)
    total = FractionSurd(0)
    weighted = 0
    for position, a in enumerate(quotients, start=1):
        weighted += 2 * a if position % 2 == 1 else a
        term = FRACTION_TAU ** (weighted - 2)
        total = total + term if position % 2 == 1 else total - term
    return total


@st.composite
def quotient_lists(draw, max_total: int = 8 * 10 ** 4) -> list[int]:
    """1 to 8 partial quotients, each at most 10**4, summing to at most
    max_total; the last one may be 1 (then x = [0; ..., a + 1])."""
    quotients: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        if sum(quotients) == max_total:
            break
        quotients.append(draw(st.integers(1, min(10 ** 4, max_total - sum(quotients)))))
    return quotients


@st.composite
def long_quotient_lists(draw) -> list[int]:
    """200 to 2000 partial quotients that follow Gauss-Kuzmin below 1000
    (1/(2**u - 1) for u uniform in (0, 1], from a drawn seed), with the
    first or the second in 1000..9999 and a last quotient >= 2."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    quotients = [min(999, int(1 / (2 ** (1 - rng.random()) - 1)))
                 for _ in range(draw(st.integers(200, 2000)))]
    quotients[draw(st.integers(0, 1))] = draw(st.integers(1000, 9999))
    quotients[-1] = max(quotients[-1], 2)
    return quotients


class Counting:
    """An iterator over quotients that counts the ones drawn from it."""

    def __init__(self, quotients: Iterable[int]) -> None:
        self.quotients = iter(quotients)
        self.drawn = 0

    def __iter__(self) -> "Counting":
        return self

    def __next__(self) -> int:
        quotient = next(self.quotients)
        self.drawn += 1
        return quotient


@st.composite
def quadratic_parameters(draw) -> QuadSurd:
    """An irrational lambda = a + b*sqrt5 in (0,1), with denominators up to 50.

    a runs over the multiples of 1/k in the unit window above -b*sqrt5,
    whose least one is (floor(-b*sqrt5*k) + 1)/k; floor(n*sqrt5/m) is
    floor(n*sqrt5) // m, and floor(n*sqrt5) an integer square root.
    """
    b = Fraction(draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 50)))
    k = draw(st.integers(1, 50))
    n = -b.numerator * k
    root = math.isqrt(5 * n * n)
    floor = (root if n >= 0 else -root - 1) // b.denominator
    return QuadSurd(Fraction(floor + 1 + draw(st.integers(0, k - 1)), k), b)


#: Split parameters of every kind: r/s with s up to 10**6, tau, tau**2,
#: QuadSurds that hold a rational, and irrational elements of Q(sqrt5).
split_parameters = st.one_of(
    st.integers(2, 10 ** 6).flatmap(lambda s: st.integers(1, s - 1).map(lambda r: Fraction(r, s))),
    st.sampled_from([QuadSurd(Fraction(-1, 2), Fraction(1, 2)),
                     QuadSurd(Fraction(3, 2), Fraction(-1, 2)),
                     QuadSurd(Fraction(1, 3)), QuadSurd(Fraction(5, 9))]),
    quadratic_parameters(),
)


def rcf_value(quotients: Sequence[int]) -> Fraction:
    """[0; a1, ..., ak] = 1/(a1 + 1/(a2 + ... + 1/ak)), evaluated bottom-up."""
    x = Fraction(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x


# The field-generic g routes that the integer kernel of `sternbrocot`
# replaced: any exact ordered field element with +, -, *, ** serves as
# lambda, so Fraction and QuadSurd run the same code, normalising at every
# operation. 0 and 1 are taken in lambda's own type, as lam - lam and + 1.


def field_partial_sums(quotients: Iterable[int], lam) -> Iterator[tuple]:
    """After each quotient, the partial sum of the alternating series for g
    and the magnitude of its last term."""
    zero = lam - lam
    one = zero + 1
    complement = one - lam
    total, magnitude = zero, one
    for position, a in enumerate(quotients, start=1):
        if a < 1:
            raise ValueError(f"partial quotients must be >= 1, got {a}")
        if position % 2 == 0:
            magnitude = magnitude * complement ** a
            total = total - magnitude
        else:
            magnitude = magnitude * lam ** (a - 1 if position == 1 else a)
            total = total + magnitude
        yield total, magnitude


def field_series(quotients: Sequence[int], lam):
    """g at [0; a1, ..., ak] by the alternating series, field-generic."""
    total = lam - lam + 1  # x = 1 has no quotients
    for total, _ in field_partial_sums(quotients, lam):
        pass
    return total


def field_stream(quotients: Iterable[int], lam, epsilon):
    """(lo, hi) around g at an irrational point, as `g_stream` defines it,
    field-generic: the partial sums before and at the first term whose
    magnitude is below epsilon."""
    previous = lam - lam
    for k, (total, magnitude) in enumerate(field_partial_sums(quotients, lam), start=1):
        if magnitude < epsilon:
            return (previous, total) if k % 2 else (total, previous)
        previous = total
    raise ValueError("quotient stream ended: the value is rational, use g_series")


class PowerSurd:
    """(a + b*sqrt5) / base**k with integers a and b: the elements of
    Q(sqrt5) whose denominators are powers of one base, the base of the
    lambda they are built from. The field routes above run on it as on
    any field, but it takes no gcd, so their time stays linear in the size
    of the integers on long expansions, where Fraction and QuadSurd take a
    gcd of the full width at every operation. `value` reduces it once.
    It compares with an int, a Fraction or a QuadSurd.
    """

    __slots__ = ("a", "b", "base", "k")

    def __init__(self, a: int, b: int, base: int, k: int) -> None:
        self.a, self.b, self.base, self.k = a, b, base, k

    @classmethod
    def of(cls, lam) -> "PowerSurd":
        """lam, a Fraction or a QuadSurd, over its own denominator."""
        a, b = (lam, Fraction(0)) if isinstance(lam, Fraction) else (lam.a, lam.b)
        base = math.lcm(a.denominator, b.denominator)
        return cls(a.numerator * (base // a.denominator), b.numerator * (base // b.denominator),
                   base, 1)

    def value(self) -> QuadSurd:
        denominator = self.base ** self.k
        return QuadSurd(Fraction(self.a, denominator), Fraction(self.b, denominator))

    def _aligned(self, other) -> tuple[int, int, int, int, int]:
        """Both numerators over base**k, for the larger k of the two."""
        if isinstance(other, int):
            other = PowerSurd(other, 0, self.base, 0)
        assert other.base == self.base
        k = max(self.k, other.k)
        s, t = self.base ** (k - self.k), self.base ** (k - other.k)
        return self.a * s, self.b * s, other.a * t, other.b * t, k

    def __add__(self, other) -> "PowerSurd":
        a, b, c, e, k = self._aligned(other)
        return PowerSurd(a + c, b + e, self.base, k)

    def __sub__(self, other) -> "PowerSurd":
        a, b, c, e, k = self._aligned(other)
        return PowerSurd(a - c, b - e, self.base, k)

    def __mul__(self, other) -> "PowerSurd":
        a, b, c, e = self.a, self.b, other.a, other.b
        return PowerSurd(a * c + 5 * b * e, a * e + b * c, self.base, self.k + other.k)

    def __pow__(self, n: int) -> "PowerSurd":
        result, square = PowerSurd(1, 0, self.base, 0), self
        while n:  # right to left: result collects the squares of the set bits
            if n & 1:
                result = result * square
            square, n = square * square, n >> 1
        return result

    def __lt__(self, other) -> bool:
        if isinstance(other, QuadSurd):
            c, e = other.a, other.b
        else:
            c, e = Fraction(other), Fraction(0)
        denominator = math.lcm(c.denominator, e.denominator)
        c, e = c.numerator * (denominator // c.denominator), e.numerator * (denominator // e.denominator)
        scale = self.base ** self.k
        p, q = self.a * denominator - c * scale, self.b * denominator - e * scale
        # the sign of p + q*sqrt5 is that of the larger of |p| and |q|*sqrt5
        return (p < 0 if p * p > 5 * q * q else q < 0)


def field_walk(n: int, left: int, lam) -> Iterator[tuple]:
    """`graded_walk(n, left, lam)` with g carried by the mediant
    recurrence g(m) = g(lo) + (g(hi) - g(lo)) * lam, field-generic."""
    g_lo = lam - lam
    g_hi = g_lo + 1
    stack: list[tuple] = []
    lo_p, lo_q, hi_p, hi_q, depth = 0, 1, 1, 1, 1
    while True:
        while depth <= n:  # down the left spine of the gap (lo, hi)
            p, q = lo_p + hi_p, lo_q + hi_q
            g = g_lo + (g_hi - g_lo) * lam
            stack.append((p, q, depth, g, hi_p, hi_q, g_hi))
            hi_p, hi_q, g_hi = p, q, g
            depth += left
        if not stack:
            return
        p, q, d, g, hi_p, hi_q, g_hi = stack.pop()
        yield p, q, d, g
        lo_p, lo_q, g_lo = p, q, g  # then the right subtree, gap (p/q, hi)
        depth = d + 1


def node_walk(n: int, left: int) -> Iterator[tuple[int, int, int]]:
    """(p, q, depth) of every node of `walk_blocks(n, left)`, in its order,
    one mediant at a time down an explicit stack, with no blocks."""
    stack: list[tuple] = []
    lo_p, lo_q, hi_p, hi_q, depth = 0, 1, 1, 1, 1
    while True:
        while depth <= n:  # down the left spine of the gap (lo, hi)
            p, q = lo_p + hi_p, lo_q + hi_q
            stack.append((p, q, depth, hi_p, hi_q))
            hi_p, hi_q = p, q
            depth += left
        if not stack:
            return
        p, q, d, hi_p, hi_q = stack.pop()
        yield p, q, d
        lo_p, lo_q = p, q  # then the right subtree, gap (p/q, hi)
        depth = d + 1


def phi_integers(lam) -> tuple[int, int, int]:
    """(u, v, d): lam = (u + v*phi)/d in lowest terms, from lam's sqrt5
    coefficients, with v = 0 for a Fraction."""
    a, b = (lam, Fraction(0)) if isinstance(lam, Fraction) else (lam.a, lam.b)
    d = math.lcm(a.denominator, b.denominator)
    u, v = (a - b) * d, 2 * b * d  # a + b*sqrt5 = (a - b) + 2b*phi
    g = math.gcd(u.numerator, v.numerator, d)
    return u.numerator // g, v.numerator // g, d // g


def left_to_right_series(quotients: Sequence[int], lam) -> tuple[int, int, int]:
    """g at [0; a1, ..., am] as the integer triple (a, b, e), for
    (a + b*phi)/e with e = d**(S - 1), S the sum of the quotients: the
    series summed from the first quotient by Horner's rule, the partial
    sum times d**qk plus or minus the new magnitude numerator, with q1 =
    a1 - 1 and qk = ak after. The loop `g_series` ran before it summed
    from the last quotient; the powers are taken right to left."""
    if not quotients:
        return 1, 0, 1
    u, v, d = phi_integers(lam)
    a = b = n = 0
    m = e = 1
    for k, q in enumerate(quotients, start=1):
        if k == 1:
            q -= 1
        x, y = right_to_left_phi_pow(u, v, q) if k % 2 else right_to_left_phi_pow(d - u, -v, q)
        m, n = m * x + n * y, m * y + n * (x + y)
        scale = d ** q
        a, b, e = a * scale, b * scale, e * scale
        a, b = (a + m, b + n) if k % 2 else (a - m, b - n)
    return a, b, e


def term_numerator(lam, powers: int, rest: int) -> tuple[int, int, int, int]:
    """lam**powers * (1 - lam)**rest as the series loop carries a term:
    (m, n, e, norm) for (m + n*phi)/e with e = d**(powers + rest), lam =
    (u + v*phi)/d, and norm = m**2 + m*n - n**2 as the product of the
    norms of lam*d and (1 - lam)*d. The powers are taken right to left."""
    u, v, d = phi_integers(lam)
    c, w = d - u, -v
    x, y = right_to_left_phi_pow(u, v, powers)
    z, t = right_to_left_phi_pow(c, w, rest)
    m, n = x * z + y * t, x * t + y * (z + t)
    norm = (u * u + u * v - v * v) ** powers * (c * c + c * w - w * w) ** rest
    return m, n, d ** (powers + rest), norm


def rational_near(m: int, n: int, e: int, offset: int) -> Fraction:
    """(m + n*phi)/e times 1 + offset/2**62, for m + n*phi > 0, to far more
    bits than that offset: m + n*phi floored at 2**-k, k past the bits of
    m and n, so offset 0 gives a rational just below the value."""
    k = 4 * max(m.bit_length(), n.bit_length()) + 400
    root = math.isqrt(5 * (n << k) ** 2)  # floor(|n| * 2**k * sqrt5)
    twice = (2 * m + n << k) + (root if n >= 0 else -root - 1)  # 2(m + n*phi)*2**k, floored
    return Fraction(twice, 2 * e << k) * (1 + Fraction(offset, 2 ** 62))
