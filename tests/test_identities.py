"""The self-similarity of the Stern-Brocot tree, checked on the CLI's text
with no oracle: each command's output at one size is its output at
smaller sizes, mapped onto the two subtrees of 1/2.

x -> x/(1+x) carries [0, 1] onto the left half [0, 1/2], and a node's
depth by one left edge; x -> 1/(2-x) carries it onto the right half
[1/2, 1], and its depth by one right edge. g_lam splits each mediant's gap
in the ratio lam : 1 - lam, so g_lam(x/(1+x)) = lam g_lam(x) and
g_lam(1/(2-x)) = lam + (1 - lam) g_lam(x); and g_lam(1 - x) = 1 - g_{1-lam}(x)
by the mirror. Values are compared after parsing, not as text.

The library is checked on the same maps: `g_series` and `question_mark`
on the quotients of x and of its images, and `dist._rank` at x and its
images, whose ranks are those of x a level or two up.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from sternbrocot import RegularCF, expand_rcf, g_series, parse_quadsurd, parse_rational, question_mark
from sternbrocot.cli import run
from sternbrocot.dist import _rank

from oracles import int_digit_limit, quotient_lists, rcf_value, split_parameters

HALF = Fraction(1, 2)


def rows(*argv: str) -> list[list[str]]:
    """The tab-separated fields of each stdout line of a command that exits 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return [line.split("\t") for line in out.getvalue().splitlines()]


def left(x: Fraction) -> Fraction:
    return x / (1 + x)


def right(x: Fraction) -> Fraction:
    return 1 / (2 - x)


def nodes(*argv: str) -> list[tuple]:
    """(x, *integer columns) of each row of a sequence command."""
    return [(Fraction(int(p), int(q)), *map(int, rest)) for p, q, *rest in rows(*argv)]


def test_stern_brocot_level_from_the_level_above():
    n = 14
    level, above = nodes("stern-brocot", "--n", str(n)), nodes("stern-brocot", "--n", str(n - 1))
    assert len(level) == 2 ** n + 1
    assert level == [(left(x),) for x, in above[:-1]] + [(right(x),) for x, in above]


def test_xi_from_the_two_sequences_above():
    # a left edge costs two generations and a right edge one; the
    # endpoints 0 and 1 keep generation 0
    n = 16
    xi, two_up, one_up = (nodes("xi", "--n", str(m)) for m in (n, n - 2, n - 1))
    assert xi == [(Fraction(0), 0),
                  *((left(x), k + 2) for x, k in two_up[1:-1]),
                  *((right(x), k + 1) for x, k in one_up[:-1]),
                  (Fraction(1), 0)]


def test_theta_from_the_two_generations_above():
    k = 18
    theta, two_up, one_up = (nodes("theta", "--k", str(m)) for m in (k, k - 2, k - 1))
    assert {generation for _, generation in theta} == {k}
    assert [x for x, _ in theta] == [left(x) for x, _ in two_up] + [right(x) for x, _ in one_up]


@pytest.mark.parametrize("lam", ["tau2", "1/3", "2/9", "1/7+1/11√5"])
def test_plot_data_halves_are_the_smaller_grids_mapped(lam):
    """Grid 14 below 1/2 is grid 12 but its last row, under x -> x/(1+x)
    and g -> lam g; above 1/2 it is grid 13 but its first row, under
    x -> 1/(2-x) and g -> lam + (1 - lam) g; at 1/2, g = lam."""
    split = parse_quadsurd(lam)

    def points(grid):
        return [(parse_rational(x), parse_quadsurd(g)) for x, g, _, _ in rows("plot-data", "--lambda", lam,
                                                                              "--grid", str(grid))]

    grid, smaller, small = points(14), points(12), points(13)
    below = [(x, g) for x, g in grid if x < HALF]
    above = [(x, g) for x, g in grid if x > HALF]
    assert len(below) + len(above) + 1 == len(grid) == 988
    assert below == [(left(x), split * g) for x, g in smaller[:-1]]
    assert above == [(right(x), split + (1 - split) * g) for x, g in small[1:]]
    assert (HALF, split) in grid


@given(lam=split_parameters, x=st.fractions(0, 1, max_denominator=1000))
def test_eval_mirror(lam, x):
    """g_lam(1 - x) = 1 - g_{1-lam}(x), each value read back from eval's text."""
    def g(split, point):
        (exact, _), = rows("eval", "--lambda", str(split), "--x", str(point))
        return parse_quadsurd(exact)

    with int_digit_limit(0):
        assert g(lam, 1 - x) == 1 - g(1 - lam, x)


def left_cf(quotients: tuple[int, ...]) -> tuple[int, ...]:
    """The quotients of x/(1+x): [a1 + 1, a2, ...]."""
    return (quotients[0] + 1, *quotients[1:])


def mirror_cf(quotients: tuple[int, ...]) -> tuple[int, ...]:
    """The quotients of 1 - x: [1, a1 - 1, a2, ...], or [a2 + 1, a3, ...] when a1 = 1."""
    if quotients[0] == 1:
        return (quotients[1] + 1, *quotients[2:])
    if quotients == (2,):  # 1/2 is its own mirror, and [1, 1] is not canonical
        return quotients
    return (1, quotients[0] - 1, *quotients[1:])


def right_cf(quotients: tuple[int, ...]) -> tuple[int, ...]:
    """The quotients of 1/(2-x) = 1/(1 + (1-x)): [1, 1, a1 - 1, a2, ...], or [1, a2 + 1, a3, ...]."""
    return (1, *mirror_cf(quotients))


@st.composite
def expansions(draw) -> tuple[int, ...]:
    """The quotients of an x in (0,1): runs of up to 2000 ones between
    quotients up to 50, and at any place, or none, one quotient of
    1000..10**4; the last one is at least 2."""
    pieces = draw(st.lists(st.one_of(st.integers(1, 2000).map(lambda run: [1] * run),
                                     st.lists(st.integers(1, 50), min_size=1, max_size=8)),
                           min_size=1, max_size=4))
    quotients = [a for piece in pieces for a in piece]
    if draw(st.booleans()):
        quotients.insert(draw(st.integers(0, len(quotients))), draw(st.integers(1000, 10 ** 4)))
    return (*quotients[:-1], max(quotients[-1], 2))


@given(quotient_lists())
def test_the_quotient_maps_are_the_subtree_maps(quotients):
    x = rcf_value(quotients)
    assume(x < 1)
    cf = expand_rcf(x).quotients
    assert left_cf(cf) == expand_rcf(left(x)).quotients
    assert right_cf(cf) == expand_rcf(right(x)).quotients
    assert mirror_cf(cf) == expand_rcf(1 - x).quotients


def g(quotients, lam):
    return g_series(RegularCF(quotients), lam)


@given(expansions(), split_parameters)
def test_g_series_is_self_similar(quotients, lam):
    value = g(quotients, lam)
    assert g(left_cf(quotients), lam) == lam * value
    assert g(right_cf(quotients), lam) == lam + (1 - lam) * value
    assert g(mirror_cf(quotients), 1 - lam) == 1 - value


@given(expansions())
def test_question_mark_is_self_similar(quotients):
    # Minkowski's functional equations, the identities at lam = 1/2
    value = question_mark(RegularCF(quotients))
    assert question_mark(RegularCF(left_cf(quotients))) == value / 2
    assert question_mark(RegularCF(right_cf(quotients))) == (1 + value) / 2
    assert question_mark(RegularCF(mirror_cf(quotients))) == 1 - value


@pytest.mark.parametrize("kind, cost", [("xi", 2), ("stern_brocot", 1)])
@given(data=st.data())
def test_ranks_are_the_ranks_a_level_up(kind, cost, data):
    """A left edge costs `cost` levels and a right edge one: the level-n
    elements up to y/(1+y) are those of level n - cost up to y, and those
    up to 1/(2-y) are the ones up to 1/2 and the images of level n - 1's
    nonzero ones up to y; an image is an element when y is one."""
    y = data.draw(st.one_of(st.fractions(0, 1, max_denominator=10 ** 12), quotient_lists().map(rcf_value)))
    n = data.draw(st.integers(cost + 1, 60))

    def rank(level, x):
        count, _, member = _rank(kind, level, x)
        return count, member

    assert rank(n, left(y)) == rank(n - cost, y)
    (count, member), (above, above_member) = rank(n, right(y)), rank(n - 1, y)
    assert (count, member) == (rank(n, HALF)[0] + above - 1, above_member)
