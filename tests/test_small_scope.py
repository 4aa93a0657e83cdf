"""Small-scope checks: a test shrinks one width constant of the kernel
until its wide branches run on inputs small enough to enumerate, then
checks a whole small domain against an exact reference."""

import io
from fractions import Fraction
from itertools import chain, product, repeat

import pytest

from sternbrocot import TAU, TAU2, QuadSurd, RegularCF, cli, exact, g_series, g_stream, graded_walk, singular, stern

from oracles import PowerSurd, field_series, field_stream, field_walk, node_walk

#: tau**2 and tau, whose powers have d = 1, and a parameter whose d is not 1
SMALL_LAMBDAS = (TAU2, TAU, QuadSurd(Fraction(1, 7), Fraction(1, 11)))


def sqrt5_convergents(bits: int) -> list[tuple[int, int]]:
    """The convergents p/q of sqrt5 = [2; 4, 4, ...] whose p has at most
    `bits` bits, as (p, q) pairs."""
    pairs = []
    p0, q0, p, q = 1, 0, 2, 1
    while p.bit_length() <= bits:
        pairs.append((p, q))
        p0, q0, p, q = p, q, 4 * p + p0, 4 * q + q0
    return pairs


def next_to_one() -> list[tuple[int, int, int, int]]:
    """(a, b, d, power) with (a + b*sqrt5)/d = 1 +- (p + j - q*sqrt5)/d,
    for the convergents p/q of sqrt5 up to 80 bits, |j| <= 3, 0 < d < 40
    and power in {0, 1, 2, 16}: a and b*sqrt5 cancel down to values at
    and around 1 and 1 +- j/d, among them 1/2, whose complement is 1/2."""
    return [case for p, q in sqrt5_convergents(80) for j in range(-3, 4) for d in range(1, 40)
            for power in (0, 1, 2, 16)
            for case in ((d + p + j, -q, d, power), (d - p - j, q, d, power))]


def test_the_complement_route_ends_at_the_least_guard(monkeypatch):
    # at 3 guard bits a value whose bounds straddle 1 is above 1/2, so its
    # complement's bounds do not; at 2 both straddle at 1/2, and the
    # complement of the complement, the value again, recurses without end
    monkeypatch.setattr(exact, "_GUARD_BITS", 3)
    judge, calls = exact._floor_by_norm, []

    def counted(*case):
        calls.append(case)
        return judge(*case)

    monkeypatch.setattr(exact, "_floor_by_norm", counted)
    cases = next_to_one()
    assert len(cases) == 82_992
    assert [case for case in cases if counted(*case) != exact._floor_scaled(*case)] == []
    assert len(calls) > len(cases)  # the complement route ran


def test_the_halves_at_an_8_bit_split(monkeypatch):
    # below 8 bits str prints a part itself, so every integer past 255 is
    # split, down through every rung of the ladder these values reach, and
    # the zeros of 10**k fall on a split point at each k = 2**j
    monkeypatch.setattr(exact, "_SPLIT_BITS", 8)
    values = [10 ** k + j for k in range(1, 301) for j in (-1, 0, 1)]
    assert [n for n in values if exact._digits(n) != str(n)] == []
    assert [n for n in values if exact._int_text(-n) != str(-n)] == []


@pytest.mark.parametrize("block_nodes", [1, 2, 3])
def test_the_block_walk_at_blocks_of_one_to_three(monkeypatch, block_nodes):
    # subtrees of at most 1, 2 or 3 nodes: a single node, a root and its
    # right child (left = 2), or a root and both children (left = 1); every
    # other node is a pending ancestor, a block of its own
    monkeypatch.setattr(stern, "BLOCK_NODES", block_nodes)
    for left in (1, 2):
        largest = {1: 1, 2: 1 + (left == 2), 3: 3 if left == 1 else 2}[block_nodes]
        assert max(len(ps) for ps, *_ in stern.walk_blocks(10, left)) == largest
        for n in range(11):
            for deepest in (False, True):
                blocks = list(stern.walk_blocks(n, left, deepest))
                assert all(0 < len(ps) == len(qs) == len(depths) <= block_nodes
                           for ps, qs, depths, _ in blocks)
                nodes = [(p, q, base + d) for ps, qs, depths, base in blocks
                         for p, q, d in zip(ps, qs, depths)]
                assert nodes == [node for node in node_walk(n, left) if not deepest or node[2] == n]


@pytest.fixture
def tables_of_three(monkeypatch):
    """`exact._TABLE_POWERS` at 3, with no kernel record cached across the
    change: each record built meanwhile holds the powers 0, 1 and 2 alone."""
    monkeypatch.setattr(exact, "_TABLE_POWERS", 3)
    exact._kernel_record.cache_clear()
    yield
    exact._kernel_record.cache_clear()


def test_the_g_routes_at_tables_of_three_powers(monkeypatch, tables_of_three):
    # every quotient of 3 or more is powered by _phi_pow, and in the stream
    # every first quotient of 4 or more, whose first factor is skipped
    calls = []

    def counted(*args):
        calls.append(args)
        return exact._phi_pow(*args)

    monkeypatch.setattr(singular, "_phi_pow", counted)
    # the canonical words: a word that ends in 1 followed by ones is the
    # stream of the word without that 1, and no RegularCF
    words = [word for k in range(5) for word in product(range(1, 6), repeat=k) if not word or word[-1] > 1]
    epsilon = Fraction(1, 10 ** 30)
    for lam in SMALL_LAMBDAS:
        assert all(len(table) == 3 for table in exact._kernel(lam).tables)
        for word in words:
            value = g_series(RegularCF(word), lam)
            assert value == field_series(word, lam) and type(value) is QuadSurd
            lo, hi = g_stream(chain(word, repeat(1)), lam, epsilon)
            expected = field_stream(chain(word, repeat(1)), PowerSurd.of(lam), epsilon)
            assert (lo, hi) == tuple(bound.value() for bound in expected)
        for n in range(8):
            for left in (1, 2):
                assert list(graded_walk(n, left, lam)) == list(field_walk(n, left, lam))
    assert {q for _, _, q in calls} == {3, 4, 5}


@pytest.mark.parametrize("chunk", [1, 2])
def test_plot_data_at_chunks_of_one_and_two_rows(monkeypatch, capsys, chunk):
    def table(lam, grid):
        assert cli.run(["plot-data", "--lambda", lam, "--grid", str(grid)]) == 0
        return capsys.readouterr().out

    cases = [(lam, grid) for lam in ("1/3", "tau2", "1/7+1/11√5") for grid in range(1, 10)]
    expected = [table(*case) for case in cases]
    monkeypatch.setattr(cli, "PLOT_CHUNK", chunk)
    assert [table(*case) for case in cases] == expected


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_the_token_reader_at_chunks_of_one_to_three_characters(monkeypatch, chunk):
    # every text of up to 5 characters over two digits and three kinds of
    # space: multi-digit tokens, leading zeros, runs of any whitespace
    monkeypatch.setattr(cli, "STREAM_CHUNK", chunk)
    texts = ["".join(text) for k in range(6) for text in product("10 \t\n", repeat=k)]
    assert [text for text in texts
            if list(cli._read_quotients(io.StringIO(text))) != [int(word) for word in text.split()]] == []
    # at 3 characters a token of 4, split across two or more chunks, is refused
    monkeypatch.setattr(cli, "MAX_TOKEN_CHARS", 3)
    for text in texts:
        words = text.split()
        if max(map(len, words), default=0) > 3:
            with pytest.raises(ValueError, match="longer than 3 characters"):
                list(cli._read_quotients(io.StringIO(text)))
        else:
            assert list(cli._read_quotients(io.StringIO(text))) == [int(word) for word in words]
