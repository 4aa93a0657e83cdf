"""Start-up cost of the CLI, each probe a fresh interpreter.

    python3 tools/startup.py [--out BENCH_startup.json]

The probes run this interpreter in the environment that
perfbench/run.py gives its children (its own `child_env`): `src/` on
PYTHONPATH and the caller's other PYTHON* settings removed.

- pass: `-c pass`, the interpreter and its `site` alone;
- import: `-c "import sternbrocot.cli"`;
- parser: that import and a cold `cli.build_parser()`;
- tables: `-m sternbrocot.cli` on one op of the tables workload;
- convergence: `-m sternbrocot.cli` on one op of the convergence workload;
- usage: `-m sternbrocot.cli` on a command line with a usage error, which
  builds the argparse parser that a well-formed one skips, and exits 2.

Each is timed from spawn to exit, its stdout and stderr read through
pipes. After one untimed round, each of ROUNDS rounds runs every probe
once, in order in even rounds and in reverse in odd ones, so that a
drift of the host's speed falls on all of them alike. The median and quartiles of each probe, in
ms, print one line each and go to --out as JSON with the interpreter and
the host. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import child_env  # noqa: E402  (the benchmark's own child environment)

#: Timed rounds: each probe runs once per round.
ROUNDS = 40

PROBES = {
    "pass": ["-c", "pass"],
    "import": ["-c", "import sternbrocot.cli"],
    "parser": ["-c", "import sternbrocot.cli; sternbrocot.cli.build_parser()"],
    "tables": ["-m", "sternbrocot.cli", "stern-brocot", "--n", "15"],
    "convergence": ["-m", "sternbrocot.cli", "verify", "theorem1", "--x", "355/1133", "--n-max", "19"],
    "usage": ["-m", "sternbrocot.cli", "xi", "--n"],
}
#: The exit status of each probe that does not exit 0.
CODES = {"usage": 2}


def timed(name: str, env: dict[str, str]) -> float:
    """Seconds from spawn to exit of one child of a probe, which must exit
    with the probe's status."""
    began = time.perf_counter()
    child = subprocess.run([sys.executable, *PROBES[name]], capture_output=True, env=env)
    seconds = time.perf_counter() - began
    if child.returncode != CODES.get(name, 0):
        raise RuntimeError(f"probe {name} exited {child.returncode}: {child.stderr.decode()[-500:]}")
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = parser.parse_args(argv)
    env, names = child_env(), list(PROBES)
    times: dict[str, list[float]] = {name: [] for name in names}
    for name in names:  # untimed: bytecode caches written, files in the page cache
        timed(name, env)
    for i in range(ROUNDS):
        for name in names if i % 2 == 0 else reversed(names):
            times[name].append(timed(name, env) * 1000)
    probes = {}
    for name in names:
        q1, median, q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        probes[name] = {"argv": PROBES[name], "median_ms": round(median, 2),
                        "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}
        print(f"{name}: {median:.2f} ms [{q1:.2f}, {q3:.2f}]")
    result = {"python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(), "rounds": ROUNDS,
              "probes": probes}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
