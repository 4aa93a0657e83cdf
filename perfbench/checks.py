"""Output checks for every benchmark op, by routes the library does not use.

Nothing here imports sternbrocot. Values of g are recomputed by walking
the Stern-Brocot path of x in runs of equal turns, with integers only:
a number is a triple (A, B, e) standing for (A + B*sqrt5) / D**e, where
D is the denominator of lambda (3 or 2) or 2 for lambda = tau**2. Ranks
in xi(n) are counted on the same path, and generations come from the
subtractive expansion of the reduced continued fraction.

A check returns "ok", or "refused" for the one documented refusal: a
value too long for Python's int-to-str limit (4300 digits). Anything
else raises CheckError, and the op counts as failed.
"""

from __future__ import annotations

from math import gcd, isqrt

from workloads import STREAM_EPSILON

INT_STR_LIMIT = 4300
REFUSAL_TEXT = "Exceeds the limit"
DISPLAY_DIGITS = 15
VERIFY_DIGITS = 30
DEFAULT_TOL = (1, 50)


class CheckError(Exception):
    """An op's output is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


# --- integers in Q(sqrt5) -------------------------------------------------

#: lambda -> (D, lambda, 1 - lambda), both as (A, B, e).
DOMAINS = {
    "1/3": (3, (1, 0, 1), (2, 0, 1)),
    "1/2": (2, (1, 0, 1), (1, 0, 1)),
    "tau2": (2, (3, -1, 1), (-1, 1, 1)),
}
ZERO = (0, 0, 0)
ONE = (1, 0, 0)

_FIB = [0, 1]
while len(_FIB) < 200:
    _FIB.append(_FIB[-1] + _FIB[-2])


def fib(n: int) -> int:
    return _FIB[n]


def _align(u, v, d):
    (a, b, e), (c, f, g) = u, v
    if e < g:
        s = d ** (g - e)
        return a * s, b * s, c, f, g
    s = d ** (e - g)
    return a, b, c * s, f * s, e


def add(u, v, d):
    a, b, c, f, e = _align(u, v, d)
    return a + c, b + f, e


def sub(u, v, d):
    a, b, c, f, e = _align(u, v, d)
    return a - c, b - f, e


def mul(u, v):
    (a, b, e), (c, f, g) = u, v
    return a * c + 5 * b * f, a * f + b * c, e + g


def power(u, k: int):
    result, base = ONE, u
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt5."""
    if b == 0 or (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        s = a if b == 0 else (a or b)
        return (s > 0) - (s < 0)
    if a > 0:
        return 1 if a * a > 5 * b * b else -1
    return 1 if 5 * b * b > a * a else -1


def floor_scaled(p: int, r: int, q: int, scale: int) -> int:
    """floor((p + r*sqrt5) * scale / q) for q > 0, exactly."""
    r *= scale
    root = isqrt(5 * r * r)
    if r < 0:
        root = -root - 1
    return (p * scale + root) // q


def decimal(p: int, r: int, q: int, digits: int) -> str:
    """(p + r*sqrt5)/q rounded half up to `digits` places."""
    n = (floor_scaled(p, r, q, 10 ** (digits + 1)) + 5) // 10
    whole, frac = divmod(abs(n), 10 ** digits)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


def g_prefixes(quotients, lam: str):
    """g at every convergent [0;a1,...,ai] of the quotients, in order.

    Left runs move the upper end of the gap, right runs the lower one:
    after a run of k turns the moved end's g is g_lo + (g_hi - g_lo) *
    lambda**k, or g_hi - (g_hi - g_lo) * (1 - lambda)**k, and after run i
    the convergent is that end.
    """
    d, lam_v, comp_v = DOMAINS[lam]
    lo, hi = ZERO, ONE
    for i, a in enumerate(quotients, start=1):
        if i % 2:
            hi = add(lo, mul(sub(hi, lo, d), power(lam_v, a - 1 if i == 1 else a)), d)
            yield hi
        else:
            lo = sub(hi, mul(sub(hi, lo, d), power(comp_v, a)), d)
            yield lo


def stream_enclosure(quotients, lam: str, epsilon):
    """The partial sums (S(j-1), S(j)) of the first term below epsilon,
    with S(j) = g at the j-th convergent."""
    d = DOMAINS[lam][0]
    num, den = epsilon.numerator, epsilon.denominator
    before = ZERO
    for current in g_prefixes(quotients, lam):
        a, b, e = sub(current, before, d)
        if sign(a, b) < 0:
            a, b = -a, -b
        if sign(a * den - num * d ** e, b * den) < 0:
            return before, current
        before = current
    raise CheckError("quotient stream ended before the tolerance was met")


def g_rational(p: int, q: int, lam: str):
    """g at p/q in [0,1]."""
    if p == 0:
        return ZERO
    if p == q:
        return ONE
    return list(g_prefixes(rational_quotients(p, q), lam))[-1]


def rational_quotients(p: int, q: int) -> list[int]:
    """Regular quotients of p/q in (0,1], by Euclid on q/p."""
    out = []
    num, den = q, p
    while den:
        a, rest = divmod(num, den)
        out.append(a)
        num, den = den, rest
    return out


# --- parsing the printed exact formats ---------------------------------------

def parse_ratio(text: str) -> tuple[int, int]:
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:
        raise CheckError(f"not a rational: {text[:60]!r}") from exc
    require(q > 0, f"non-positive denominator in {text[:60]!r}")
    return p, q


def parse_surd(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """"a", "b√5" or "a±b√5", a and b printed as p/q."""
    if not text.endswith("√5"):
        return parse_ratio(text), (0, 1)
    head = text[:-2]
    split = max(head.rfind("+"), head.rfind("-"))
    if split <= 0:
        return (0, 1), parse_ratio(head)
    b = parse_ratio(head[split + 1:])
    if head[split] == "-":
        b = (-b[0], b[1])
    return parse_ratio(head[:split]), b


def matches(text: str, value, d: int) -> bool:
    """Whether printed text is exactly the value (A + B*sqrt5) / d**e."""
    (pa, qa), (pb, qb) = parse_surd(text)
    a, b, e = value
    scale = d ** e
    return pa * scale == a * qa and pb * scale == b * qb


def too_long(value, d: int) -> bool:
    """Whether printing the value in lowest terms passes the int-to-str limit."""
    a, b, e = value
    scale = d ** e
    bound = 10 ** INT_STR_LIMIT
    for part in (a, b):
        g = gcd(part, scale)
        if abs(part) // g >= bound or scale // g >= bound:
            return True
    return False


def value_decimal(value, d: int, digits: int = DISPLAY_DIGITS) -> str:
    a, b, e = value
    return decimal(a, b, d ** e, digits)


# --- pointwise ops ------------------------------------------------------------

def check_point(op: dict, status: str, text: str) -> str:
    """Check one library op: g at a point by some route, or a stream enclosure."""
    lam, qs = op["lam"], tuple(op["quotients"])
    d = DOMAINS[lam][0]
    if op["route"] == "stream":
        values = stream_enclosure(qs, lam, STREAM_EPSILON)
    else:
        values = (list(g_prefixes(qs, lam))[-1],)
    if status == "refused":
        require(REFUSAL_TEXT in text, f"refusal without the int-to-str message: {text[:80]!r}")
        require(any(too_long(v, d) for v in values), "refused a value that fits the limit")
        return "refused"
    require(status == "ok", f"op raised: {text[:200]}")
    fields = text.split("\t")
    if op["route"] == "stream":
        require(len(fields) == 4, "stream output needs 4 fields")
        s0, s1 = values
        a, b, _ = sub(s1, s0, d)
        lo, hi = (s0, s1) if sign(a, b) > 0 else (s1, s0)
        require(matches(fields[0], lo, d) and matches(fields[1], hi, d),
                "enclosure is not the partial sums around the first term below epsilon")
        require(fields[2] == value_decimal(lo, d) and fields[3] == value_decimal(hi, d),
                "enclosure decimals are wrong")
        return "ok"
    require(len(fields) == 2, "value output needs 2 fields")
    require(matches(fields[0], values[0], d), "exact value differs from the path walk")
    require(fields[1] == value_decimal(values[0], d), "decimal differs from the exact value")
    return "ok"


# --- CLI ops ------------------------------------------------------------------

def _lines(out: bytes) -> list[str]:
    text = out.decode()
    require(text.endswith("\n") or not text, "output does not end with a newline")
    return text.split("\n")[:-1]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def reduced_generation(p: int, q: int) -> int:
    """L(x) - 1 for x = p/q in (0,1): the reduced digits by ceiling subtraction.

    With x = 1 - 1/y, the digit is ceil(y) and the rest expands
    1/(digit - y), until y is an integer.
    """
    num, den = q, q - p
    total = 0
    while True:
        digit = -(-num // den)
        total += digit
        if digit * den == num:
            return total - 1
        num, den = den, digit * den - num


def xi_rank(p: int, q: int, n: int) -> int:
    """Number of elements of xi(n) at or below p/q in (0,1).

    Walks the Stern-Brocot path from the root 1/2 (generation 1); a left
    turn goes two generations down and a right one one generation down.
    Each node passed on the right counts with its left subtree,
    F(n - g + 1) nodes in all, and 0 counts once.
    """
    lp, lq, hp, hq = 0, 1, 1, 1
    generation, count = 1, 1
    while generation <= n:
        mp, mq = lp + hp, lq + hq
        c = p * mq - q * mp
        if c < 0:
            hp, hq = mp, mq
            generation += 2
            continue
        count += fib(n - generation + 1)
        if c == 0:
            break
        lp, lq = mp, mq
        generation += 1
    return count


def xi_members(n: int):
    """Every p/q in (0,1) of reduced generation at most n, by a walk of the
    Stern-Brocot tree from 1/2 (generation 1): a left child lies two
    generations down and a right one one generation down."""
    stack = [(0, 1, 1, 1, 1)] if n >= 1 else []
    while stack:
        lp, lq, hp, hq, generation = stack.pop()
        mp, mq = lp + hp, lq + hq
        yield mp, mq
        if generation + 2 <= n:
            stack.append((lp, lq, mp, mq, generation + 2))
        if generation + 1 <= n:
            stack.append((mp, mq, hp, hq, generation + 1))


def _rows(out: bytes, width: int) -> list[tuple[int, ...]]:
    rows = []
    for line in _lines(out):
        fields = line.split("\t")
        require(len(fields) == width, f"row needs {width} fields: {line[:80]!r}")
        try:
            rows.append(tuple(int(f) for f in fields))
        except ValueError as exc:
            raise CheckError(f"not an integer row: {line[:80]!r}") from exc
    return rows


def _check_chain(points: list[tuple[int, int]]) -> None:
    """From 0/1 to 1/1 with every neighbour determinant 1 (so increasing)."""
    require(points[0] == (0, 1) and points[-1] == (1, 1), "sequence must run from 0/1 to 1/1")
    for (p, q), (r, s) in zip(points, points[1:]):
        require(q * r - p * s == 1, f"neighbours {p}/{q} and {r}/{s} do not have determinant 1")


def _check_xi_members(points: list[tuple[int, int]], n: int) -> None:
    require(len(points) == fib(n + 2) + 1, f"xi({n}) needs F({n + 2}) + 1 elements")
    _check_chain(points)
    for p, q in points[1:-1]:
        require(reduced_generation(p, q) <= n, f"{p}/{q} lies beyond generation {n}")


def check_stern_brocot(argv, out: bytes) -> None:
    n = int(_flag(argv, "--n"))
    rows = _rows(out, 2)
    require(len(rows) == 2 ** n + 1, f"level {n} needs 2**{n} + 1 elements")
    _check_chain(rows)
    stride = 1
    while stride < len(rows) - 1:
        for i in range(stride, len(rows) - 1, 2 * stride):
            (p, q), (r, s) = rows[i - stride], rows[i + stride]
            require(rows[i] == (p + r, q + s), f"row {i} is not the mediant of its level parents")
        stride *= 2


def check_xi(argv, out: bytes) -> None:
    n = int(_flag(argv, "--n"))
    rows = _rows(out, 3)
    require(len(rows) > 2, "xi output is too short")
    _check_xi_members([(p, q) for p, q, _ in rows], n)
    require(rows[0][2] == 0 and rows[-1][2] == 0, "the endpoints carry generation 0")
    for p, q, g in rows[1:-1]:
        require(g == reduced_generation(p, q), f"wrong generation for {p}/{q}")


def check_theta(argv, out: bytes) -> None:
    k = int(_flag(argv, "--k"))
    rows = _rows(out, 3)
    require(len(rows) == fib(k), f"generation {k} needs F({k}) elements")
    for (p, q, _), (r, s, _) in zip(rows, rows[1:]):
        require(p * s < r * q, "generation is not strictly increasing")
    for p, q, g in rows:
        require(g == k == reduced_generation(p, q), f"{p}/{q} is not in generation {k}")


def check_plot_data(argv, out: bytes) -> None:
    lam = _flag(argv, "--lambda")
    grid = int(_flag(argv, "--grid"))
    d = DOMAINS[lam][0]
    points = []
    for line in _lines(out):
        fields = line.split("\t")
        require(len(fields) == 4, f"plot row needs 4 fields: {line[:80]!r}")
        p, q = parse_ratio(fields[0])
        points.append((p, q))
        value = g_rational(p, q, lam)
        require(matches(fields[1], value, d), f"g({p}/{q}) differs from the path walk")
        require(fields[2] == decimal(p, 0, q, DISPLAY_DIGITS), f"decimal of {p}/{q} is wrong")
        require(fields[3] == value_decimal(value, d), f"decimal of g({p}/{q}) is wrong")
    require(len(points) > 2, "plot output is too short")
    _check_xi_members(points, grid)


def check_verify(argv, out: bytes, code: int) -> None:
    p, q = parse_ratio(_flag(argv, "--x"))
    n_max = int(_flag(argv, "--n-max"))
    tol = parse_ratio(_flag(argv, "--tol")) if "--tol" in argv else DEFAULT_TOL
    lines = _lines(out)
    require(len(lines) == n_max, f"verify needs {n_max - 1} rows and a verdict")
    target = g_rational(p, q, "tau2")
    ta, tb, te = target
    two_e = 2 ** te
    error = None
    for n, line in zip(range(2, n_max + 1), lines):
        fields = line.split("\t")
        require(len(fields) == 4 and fields[0] == str(n), f"row for n = {n} is malformed")
        rank, total = xi_rank(p, q, n), fib(n + 2) + 1
        ep, eq = parse_ratio(fields[1])
        require(ep * total == rank * eq and gcd(ep, eq) == 1,
                f"empirical CDF at n = {n} is not {rank}/{total}")
        require(matches(fields[2], target, 2), "target differs from the path walk at tau**2")
        # |target - rank/total| = |P + R*sqrt5| / Q
        error = (ta * total - rank * two_e, tb * total, total * two_e)
        if sign(error[0], error[1]) < 0:
            error = (-error[0], -error[1], error[2])
        require(fields[3] == decimal(*error, VERIFY_DIGITS), f"error decimal at n = {n} is wrong")
    passed = sign(tol[0] * error[2] - tol[1] * error[0], -tol[1] * error[1]) >= 0
    require(lines[-1] == ("PASS" if passed else "FAIL"), "verdict disagrees with the final error")
    require(code == (0 if passed else 1), f"exit code {code} does not match the verdict")


def refusal_is_due(argv: list[str]) -> bool:
    """Whether some value the op prints passes the int-to-str limit."""
    command = argv[0]
    if command == "verify":
        p, q = parse_ratio(_flag(argv, "--x"))
        return too_long(g_rational(p, q, "tau2"), 2)
    if command == "plot-data":
        lam = _flag(argv, "--lambda")
        d = DOMAINS[lam][0]
        return any(too_long(g_rational(p, q, lam), d)
                   for p, q in xi_members(int(_flag(argv, "--grid"))))
    return False


def check_cli(argv: list[str], code: int, out: bytes, err: bytes) -> str:
    """Check one CLI op from its arguments, exit code and output."""
    if code == 2 and REFUSAL_TEXT.encode() in err:
        require(refusal_is_due(argv), "refused a value that fits the limit")
        return "refused"
    command = argv[0]
    if command == "verify":
        check_verify(argv, out, code)
        return "ok"
    require(code == 0, f"exit code {code}: {err.decode(errors='replace')[-200:]}")
    {
        "stern-brocot": check_stern_brocot,
        "xi": check_xi,
        "theta": check_theta,
        "plot-data": check_plot_data,
    }[command](argv, out)
    return "ok"
