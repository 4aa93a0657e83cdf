"""Time each route to the singular function g, layer by layer.

    python3 tools/bench_routes.py [--src SRC] [--repeat R] [--out BENCH_routes.json]

Every route runs at the split parameters 1/3, 1/2, tau**2, tau and
1/7+1/11√5 over the 4095 interior points of Stern-Brocot level 12:

* series    - `g_series` at each point's quotients;
* tau2      - `g_tau2` (tau**2 only);
* salem     - `question_mark` (1/2 only);
* inductive - `g_inductive`, the path replay, which is the series;
* stream    - `g_stream` to 1e-30 on the point's quotients followed by
              an endless run of 1s (an irrational point near it);
* walk      - `graded_walk(12, 1, lam)`, the g recurrence down the tree.

A route's figure is its best time, in seconds, over R passes (default
5), each of which runs every route once, so a spell in which the host
slows down falls on all routes alike rather than on one. The
sources are imported from SRC (default: the `src` directory next to this
file's parent), so the same script times any checkout. The JSON holds
the interpreter, the host, and {route: {lambda: seconds}}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

LEVEL = 12
EPSILON = Fraction(1, 10 ** 30)
LAMBDAS = ("1/3", "1/2", "tau2", "tau", "1/7+1/11√5")


def measure(repeat: int) -> dict[str, dict[str, float]]:
    import sternbrocot as sb

    points = [Fraction(p, q) for ps, qs, _, _ in sb.walk_blocks(LEVEL) for p, q in zip(ps, qs)]
    expansions = [sb.expand_rcf(x) for x in points]
    routes = {
        "series": lambda lam: [sb.g_series(cf, lam) for cf in expansions],
        "tau2": lambda lam: [sb.g_tau2(cf) for cf in expansions],
        "salem": lambda lam: [sb.question_mark(cf) for cf in expansions],
        "inductive": lambda lam: [sb.g_inductive(x, lam) for x in points],
        "stream": lambda lam: [sb.g_stream(itertools.chain(cf.quotients, itertools.repeat(1)),
                                           lam, EPSILON) for cf in expansions],
        "walk": lambda lam: [g for _, _, _, g in sb.graded_walk(LEVEL, 1, lam)],
    }
    only = {"tau2": "tau2", "salem": "1/2"}
    cases = [(route, text) for route in routes for text in LAMBDAS
             if only.get(route, text) == text]
    results: dict[str, dict[str, float]] = {route: {} for route in routes}
    for _ in range(repeat):  # every case once a pass, so a slow spell of the host hits them all
        for route, text in cases:
            parsed = sb.parse_quadsurd(text)
            lam = parsed.as_fraction() if parsed.is_rational else parsed
            start = perf_counter()
            routes[route](lam)
            seconds = round(perf_counter() - start, 6)
            results[route][text] = min(results[route].get(text, seconds), seconds)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_routes.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    report = {
        "points": f"the {2 ** LEVEL - 1} interior points of Stern-Brocot level {LEVEL}",
        "seconds": f"best of {args.repeat} passes",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "routes": measure(args.repeat),
    }
    args.out.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for route, by_lambda in report["routes"].items():
        print(route.ljust(10), "  ".join(f"{lam}={sec:.4f}" for lam, sec in by_lambda.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
