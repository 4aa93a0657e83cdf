"""Alternating pairs of runs: a base revision against the working tree.

    python3 tools/pairs.py --workload W --seed S [--pairs 10] [--base HEAD]

The base revision (`git archive`) and the working tree (its tracked and
untracked files that git does not ignore) are each copied into a fresh
temporary directory, so the two sides share no `__pycache__` and no
earlier run's files. Pair i runs W once in each copy, the base first in
even pairs and the working tree first in odd ones, one run at a time.
W is a workload of the working tree's BENCHMARK.json or a probe set:

- a workload: `perfbench/run.py --workload W --seed S+i --seconds T`, T
  the `run_seconds` of BENCHMARK.json, gives its end-to-end metrics;
- startup: each probe of STARTUP is a fresh interpreter, timed in ms
  from spawn to exit, its stdout and stderr read through pipes, and its
  metric is the median of ROUNDS rounds of every probe: `-c
  pass`, the import of `sternbrocot.cli`, that import and a cold
  `build_parser()`, one op each of the tables and convergence
  workloads, and a usage error, which builds the argparse parser that a
  well-formed command line skips and exits 2;
- routes: one fresh interpreter builds the 4095 interior points of
  Stern-Brocot level 12 and times in process, in ms, each case of
  ROUTE_CASES over all of them (`route_ms`): `g_series`, `question_mark`
  (at 1/2 alone), `g_inductive`, `g_stream` to 1e-30 on the point's
  quotients followed by an endless run of 1s, and `graded_walk(12, 1,
  lam)`, at lam = 1/3, 1/2, tau2, tau and 1/7+1/11√5.

A probe child runs this interpreter in the environment that
perfbench/run.py gives its own children (`child_env`), with the copy's
`src/` on PYTHONPATH. The probes of a pair run in an order shuffled by
S+i, the same in both copies, and one untimed run in each copy writes
its bytecode caches before the first pair. Each pair prints a comment
line as it ends. Then, for every metric, one line

    name (unit, better lower): base MEDIAN [Q1, Q3] -> change MEDIAN,
        change - base MEDIAN [Q1, Q3], won K of N

gives the base's median and quartiles, the change's median, the median
and quartiles of the paired differences, and the pairs the change won,
ties counting for neither side. Nothing is written into the repository,
and the copies are removed at the end. A run that exits with another
status than its own, prints no metrics or reports an incorrect output
stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import child_env  # noqa: E402  (the benchmark's own child environment)

#: Each start-up probe: the interpreter's arguments and its exit status.
STARTUP = {
    "pass": (["-c", "pass"], 0),
    "import": (["-c", "import sternbrocot.cli"], 0),
    "parser": (["-c", "import sternbrocot.cli; sternbrocot.cli.build_parser()"], 0),
    "tables": (["-m", "sternbrocot.cli", "stern-brocot", "--n", "15"], 0),
    "convergence": (["-m", "sternbrocot.cli", "verify", "theorem1", "--x", "355/1133", "--n-max", "19"], 0),
    "usage": (["-m", "sternbrocot.cli", "xi", "--n"], 2),
}
LEVEL = 12
LAMBDAS = ("1/3", "1/2", "tau2", "tau", "1/7+1/11√5")
ROUTE_CASES = [f"{route} {lam}" for route in ("g_series", "question_mark", "g_inductive", "g_stream", "graded_walk")
               for lam in LAMBDAS if route != "question_mark" or lam == "1/2"]
PROBES = {"startup": list(STARTUP), "routes": ROUTE_CASES}
#: The route probe's child: `route_ms` of this file on the cases of its argv.
ROUTE_CHILD = (f"import json, sys; sys.path.append({str(ROOT / 'tools')!r}); import pairs; "
               "print(json.dumps(pairs.route_ms(sys.argv[1:])))")
#: Rounds of the start-up probes per copy and pair; each probe's metric is
#: its median, so a spell in which the host slows down hits few of them.
ROUNDS = 5


class RunFailed(RuntimeError):
    pass


def copy_base(revision: str, into: Path) -> None:
    """The tree of `revision`, as `git archive` gives it, under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_working_tree(into: Path) -> None:
    """The working tree's files that git tracks or would track, under `into`."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted from the tree is skipped
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def probe(tree: Path, args: list[str], status: int) -> tuple[float, str]:
    """Milliseconds from spawn to exit of this interpreter on `args` with
    `tree`'s src/ on PYTHONPATH, which must exit with `status`, and its stdout."""
    env = {**child_env(), "PYTHONPATH": str(tree / "src")}
    began = perf_counter()
    child = subprocess.run([sys.executable, *args], cwd=tree, capture_output=True, text=True, env=env)
    ms = (perf_counter() - began) * 1000
    if child.returncode != status:
        raise RunFailed(f"{tree.name}, {args}: exit {child.returncode}\n{child.stderr.strip()[-500:]}")
    return ms, child.stdout


def route_ms(cases: list[str]) -> dict[str, float]:
    """Milliseconds of each route case, in the order given, in this
    process, over the 4095 interior points of Stern-Brocot level 12,
    with the garbage of the case before collected first."""
    import sternbrocot as sb

    points = [Fraction(p, q) for ps, qs, _, _ in sb.walk_blocks(LEVEL) for p, q in zip(ps, qs)]
    expansions = [sb.expand_rcf(x) for x in points]
    epsilon = Fraction(1, 10 ** 30)
    routes = {
        "g_series": lambda lam: [sb.g_series(cf, lam) for cf in expansions],
        "question_mark": lambda lam: [sb.question_mark(cf) for cf in expansions],
        "g_inductive": lambda lam: [sb.g_inductive(x, lam) for x in points],
        "g_stream": lambda lam: [sb.g_stream(chain(cf.quotients, repeat(1)), lam, epsilon) for cf in expansions],
        "graded_walk": lambda lam: list(sb.graded_walk(LEVEL, 1, lam)),
    }
    ms = {}
    for case in cases:
        route, text = case.split()
        parsed = sb.parse_quadsurd(text)
        lam = parsed.as_fraction() if parsed.is_rational else parsed
        gc.collect()
        began = perf_counter()
        routes[route](lam)
        ms[case] = (perf_counter() - began) * 1000
    return ms


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The metrics of one run of `workload` in `tree`: one per probe of a
    probe set, else the benchmark's end-to-end ones."""
    if workload in PROBES:
        order = random.Random(seed).sample(PROBES[workload], len(PROBES[workload]))
        if workload == "startup":
            ms = [{name: probe(tree, *STARTUP[name])[0] for name in order} for _ in range(ROUNDS)]
            return {name: statistics.median(r[name] for r in ms) for name in order}
        return json.loads(probe(tree, ["-c", ROUTE_CHILD, *order], 0)[1])
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunFailed(f"{tree.name}, seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RunFailed(f"{tree.name}, seed {seed}: no metrics line") from None
    if not result.get("correct"):
        raise RunFailed(f"{tree.name}, seed {seed}: {result.get('failed')} failed executions")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(pairs: list[tuple[float, float]], better: str) -> dict[str, float]:
    """Median and quartiles of the base values, median of the change
    values, median and quartiles of the paired differences change - base,
    and the pairs (base, change) the change won: lower or higher as
    `better` says, a tie counting for neither. Quartiles are
    `statistics.quantiles(..., n=4, method="inclusive")`, which needs two
    values or more."""
    q1, base, q3 = statistics.quantiles([b for b, _ in pairs], n=4, method="inclusive")
    d1, diff, d3 = statistics.quantiles([c - b for b, c in pairs], n=4, method="inclusive")
    wins = sum(c < b if better == "lower" else c > b for b, c in pairs)
    return {"base": base, "q1": q1, "q3": q3, "change": statistics.median(c for _, c in pairs),
            "diff": diff, "diff_q1": d1, "diff_q3": d3, "wins": wins, "pairs": len(pairs)}


def summary_line(name: str, unit: str, better: str, s: dict[str, float]) -> str:
    return (f"{name} ({unit}, better {better}): base {s['base']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            f" -> change {s['change']:.6g}, change - base {s['diff']:.6g}"
            f" [{s['diff_q1']:.6g}, {s['diff_q3']:.6g}], won {s['wins']} of {s['pairs']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a BENCHMARK.json workload, startup or routes")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run, at least 10")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 10:  # fewer pairs cannot show a gain in nine of ten
        parser.error("--pairs must be >= 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"] if args.workload not in PROBES else [
        {"name": name, "unit": "ms", "better": "lower"} for name in PROBES[args.workload]]
    values: dict[str, list[tuple[float, float]]] = {m["name"]: [] for m in metrics}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        base, change = Path(scratch, "base"), Path(scratch, "change")
        copy_base(args.base, base)
        copy_working_tree(change)
        try:
            if args.workload in PROBES:  # untimed: bytecode caches written, files in the page cache
                for tree in (base, change):
                    run_once(tree, args.workload, args.seed, seconds)
            for i in range(args.pairs):
                seed = args.seed + i
                order = (base, change) if i % 2 == 0 else (change, base)
                got = {tree: run_once(tree, args.workload, seed, seconds) for tree in order}
                for name, pairs in values.items():
                    pairs.append((got[base][name], got[change][name]))
                print(f"# pair {i + 1}, seed {seed}, {order[0].name} first: " + ", ".join(
                    f"{name} {got[base][name]:.6g} -> {got[change][name]:.6g}" for name in values),
                    flush=True)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    runs = f"{seconds:g} s runs, " if args.workload not in PROBES else ""
    print(f"# {args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"{runs}base {args.base}")
    for metric in metrics:
        print(summary_line(metric["name"], metric["unit"], metric["better"],
                           summarize(values[metric["name"]], metric["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
