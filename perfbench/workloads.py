"""Seeded inputs for the three benchmark workloads.

Every workload is a closed loop with one client: one op at a time,
serial, and the next op starts only after the previous one has ended.
A run draws its ops once from ``random.Random(seed)`` and executes every
op in each of rounds() rounds, in a fresh seeded order each round. An
op's latency is the median of its executions, each scaled to nominal
host speed (hostspeed.py): on a shared host the CPU can slow by up to
2x while other tenants are busy, for stretches longer than a run, which
the scaling takes out, and the median over the whole run evens out what
the scaling leaves.

The seed picks the points and the orders; the sizes are fixed, and the
quotients are drawn by stratified sampling (see quotients). So the work
in a run barely depends on the seed, and the figures of two seeds can
be compared.

convergence
    ``sternbrocot verify theorem1 --x X --n-max N`` for N = 19, 20, 21
    at each of 2 points X, each in a fresh child process. X is a seeded
    rational of 1 to 8 Gauss-Kuzmin quotients below 1000. Nearly all the
    time goes to building xi(n) and to rank queries over it, with one
    g_tau2 per command.
tables
    Whole-output commands, each in a fresh child process:
    ``stern-brocot --n 15,16``, ``xi --n 19,20``, ``theta --k 20,21``
    and ``plot-data --lambda {tau2,1/3,1/2} --grid 12,13``: 12 ops, up
    to 65537 TSV rows per command.
pointwise
    Library calls in one fresh child process per round. 192 rationals
    of 1 to 16 quotients (12 of each length) that follow Gauss-Kuzmin
    below 1000, where 1% of the quotients are instead spread over
    1000..9999. Each point is evaluated by five routes: g_series at 1/3,
    question_mark and g_series at 1/2, g_tau2 and g_series at tau2.
    Points with S(x) <= 64 also go through g_inductive at 1/3 and at
    tau2. Then 20 streams of 160 such quotients are enclosed by g_stream
    at 1/3, 1/2 and tau2 to within 10**-30.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import log2

#: Sizes per workload: the full runs, and the small ones the smoke test uses.
SIZES = {
    False: {
        "n_max": (19, 20, 21),
        "points_verified": 2,
        "stern_brocot": (15, 16),
        "xi": (19, 20),
        "theta": (20, 21),
        "grid": (12, 13),
        "points": 192,
        "streams": 20,
    },
    True: {
        "n_max": (6, 7, 8),
        "points_verified": 4,
        "stern_brocot": (3, 4, 5),
        "xi": (4, 5, 6),
        "theta": (4, 5, 6),
        "grid": (3, 4),
        "points": 12,
        "streams": 3,
    },
}

LAMBDAS = ("tau2", "1/3", "1/2")
#: Largest quotient sum S(x) that pointwise sends through g_inductive.
INDUCTIVE_MAX_S = 64
STREAM_LENGTH = 160
#: g_stream tolerance; 160 quotients of 1 already shrink every term below it.
STREAM_EPSILON = Fraction(1, 10**30)
TAIL_SHARE = 0.01
TAIL_RANGE = (1000, 9999)
GAUSS_KUZMIN_CAP = 999
#: The tail latency is the highest percentile with this many completed ops beyond it.
TAIL_BEYOND = 10
#: Run seconds per round: a run of S seconds makes S // ROUND_SECONDS rounds
#: (at least MIN_ROUNDS). At S = 24 that is 12, 9 and 32 rounds; one round
#: took 1.8-2.6 s, 2-3.5 s and 0.55-0.9 s on 2 shared cores.
ROUND_SECONDS = {"convergence": 2.0, "tables": 2.5, "pointwise": 0.75}
MIN_ROUNDS = 2


def rounds(workload: str, seconds: float) -> int:
    """Executions of each op in a run.

    The count depends on the arguments alone, never on a clock, so every
    run of a seed makes the same ops and its percentiles mean the same.
    """
    return max(MIN_ROUNDS, int(seconds // ROUND_SECONDS[workload]))


def round_order(seed: int, index: int, count: int) -> list[int]:
    """The seeded order in which round `index` executes `count` ops."""
    order = list(range(count))
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def quotients(rng: random.Random, count: int) -> list[int]:
    """`count` partial quotients, Gauss-Kuzmin below the cap, by stratified sampling.

    x = 2**u - 1 with u uniform on (0, 1) has the Gauss measure, and 1/x
    then has its first quotient distributed as Gauss-Kuzmin, P(a = k) =
    -log2(1 - 1/(k+1)**2); u > log2(1 + 1/(cap+1)) keeps a below the cap.
    One u falls in each of `count` equal strata, in seeded order, so every
    seed draws nearly the same quotients: the heavy tail would otherwise
    make the work of a run depend on its seed.
    """
    low = log2(1 + 1 / (GAUSS_KUZMIN_CAP + 1))
    qs = [min(GAUSS_KUZMIN_CAP, int(1 / (2 ** (low + (1 - low) * (k + rng.random()) / count) - 1)))
          for k in range(count)]
    rng.shuffle(qs)
    return qs


def spread_lengths(count: int, max_length: int) -> list[int]:
    """`count` lengths spread evenly over 1..max_length."""
    return [1 + i * max_length // count for i in range(count)]


def points(rng: random.Random, lengths: list[int], tail: bool) -> list[tuple[int, ...]]:
    """Canonical regular quotients [a1,...,am] (am >= 2) of rationals in (0,1),
    one for each length m, in seeded order.

    With `tail`, TAIL_SHARE of the quotients are instead stratified over
    TAIL_RANGE, each at the first or second place, in turn, of a point
    whose length is spread over the lengths drawn. The cost of g_tau2 at
    a large quotient grows with how many places follow it and doubles at
    an odd place, so leaving either to chance would make the slowest ops
    depend on the seed.
    """
    lengths = list(lengths)
    rng.shuffle(lengths)
    out = [[0] * m for m in lengths]
    # Latin hypercube: the points of one length take their k-th quotients
    # from one stratified draw.
    for m in sorted(set(lengths)):
        members = [i for i, n in enumerate(lengths) if n == m]
        for k in range(m):
            for i, a in zip(members, quotients(rng, len(members))):
                out[i][k] = a
    if tail:
        big = round(TAIL_SHARE * sum(lengths))
        first, last = TAIL_RANGE
        hosts = sorted((i for i, qs in enumerate(out) if len(qs) >= 2), key=lambda i: len(out[i]))
        for j in range(big):
            stratum = (j + rng.random()) / big
            out[hosts[j * len(hosts) // big]][j % 2] = first + int(stratum * (last - first + 1))
    for qs in out:
        if qs[-1] == 1:
            qs[-1] = 2
    return [tuple(qs) for qs in out]


def value(quotients: tuple[int, ...]) -> Fraction:
    """[0; a1,...,am] from the bottom up."""
    num, den = 1, quotients[-1]
    for a in reversed(quotients[:-1]):
        num, den = den, a * den + num
    return Fraction(num, den)


def cli_ops(workload: str, seed: int, small: bool = False) -> list[list[str]]:
    """The argument lists of a CLI workload's ops."""
    rng = random.Random(seed)
    sizes = SIZES[small]
    if workload == "convergence":
        return [["verify", "theorem1", "--x", str(value(qs)), "--n-max", str(n)]
                for qs in points(rng, spread_lengths(sizes["points_verified"], 8), tail=False)
                for n in sizes["n_max"]]
    if workload == "tables":
        ops = [["stern-brocot", "--n", str(n)] for n in sizes["stern_brocot"]]
        ops += [["xi", "--n", str(n)] for n in sizes["xi"]]
        ops += [["theta", "--k", str(k)] for k in sizes["theta"]]
        ops += [["plot-data", "--lambda", lam, "--grid", str(g)]
                for lam in LAMBDAS for g in sizes["grid"]]
        return ops
    raise ValueError(f"not a CLI workload: {workload!r}")


def pointwise_ops(seed: int, small: bool = False) -> list[dict]:
    """The pointwise ops: g at a point by one route, or a stream enclosure."""
    rng = random.Random(seed)
    sizes = SIZES[small]
    ops: list[dict] = []
    for qs in points(rng, spread_lengths(sizes["points"], 16), tail=True):
        ops += [
            {"route": "series", "lam": "1/3", "quotients": qs},
            {"route": "salem", "lam": "1/2", "quotients": qs},
            {"route": "series", "lam": "1/2", "quotients": qs},
            {"route": "tau2", "lam": "tau2", "quotients": qs},
            {"route": "series", "lam": "tau2", "quotients": qs},
        ]
        if sum(qs) <= INDUCTIVE_MAX_S:
            ops += [{"route": "inductive", "lam": lam, "quotients": qs} for lam in ("1/3", "tau2")]
    for qs in points(rng, [STREAM_LENGTH] * sizes["streams"], tail=True):
        ops += [{"route": "stream", "lam": lam, "quotients": qs} for lam in LAMBDAS]
    return ops


def describe_op(op) -> str:
    """One-line text of an op's input, for listing refusals and failures."""
    if isinstance(op, list):
        return "sternbrocot " + " ".join(op)
    qs = op["quotients"]
    shown = ",".join(map(str, qs if len(qs) <= 24 else qs[:24])) + ("" if len(qs) <= 24 else ",...")
    return f"{op['route']} lambda={op['lam']} x=[0;{shown}]"
