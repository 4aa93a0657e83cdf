"""Small-scope checks: a test shrinks one width constant of the kernel
until its wide branches run on inputs small enough to enumerate, then
checks a whole small domain against an exact reference."""

from sternbrocot import exact


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
