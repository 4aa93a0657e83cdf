"""Alternating pairs of benchmark runs: a base revision against the working tree.

    python3 tools/pairs.py --workload pointwise --seed 17 [--pairs 10] [--base HEAD]

The base revision (`git archive`) and the working tree (its tracked and
untracked files that git does not ignore) are each copied into a fresh
temporary directory, so the two sides share no `__pycache__` and no
earlier run's files. Pair i runs `perfbench/run.py --workload W --seed
S+i --seconds T` once in each copy, T the `run_seconds` of the working
tree's BENCHMARK.json, the base first in even pairs and the
working tree first in odd ones, one run at a time. Each pair prints a
comment line as it ends. Then, for every end-to-end metric of the
working tree's BENCHMARK.json, one line

    name (unit, better lower): base MEDIAN [Q1, Q3] -> change MEDIAN, won K of N

gives the base's median and quartiles, the change's median, and the
pairs the change won, ties counting for neither side. Nothing is
written into the repository, and the copies are removed at the end. A
run that exits nonzero, prints no metrics or reports an incorrect
output stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one benchmark run in `tree`."""
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
    values, and the pairs (base, change) the change won: lower or higher
    as `better` says, a tie counting for neither. Quartiles are
    `statistics.quantiles(..., n=4, method="inclusive")`, which needs two
    values or more."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    wins = sum(c < b if better == "lower" else c > b for b, c in pairs)
    return {"base": statistics.median(base), "q1": q1, "q3": q3,
            "change": statistics.median(change), "wins": wins, "pairs": len(pairs)}


def summary_line(name: str, unit: str, better: str, s: dict[str, float]) -> str:
    return (f"{name} ({unit}, better {better}): base {s['base']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            f" -> change {s['change']:.6g}, won {s['wins']} of {s['pairs']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run, at least 10")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 10:  # fewer pairs cannot show a gain in nine of ten
        parser.error("--pairs must be >= 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values: dict[str, list[tuple[float, float]]] = {m["name"]: [] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        base, change = Path(scratch, "base"), Path(scratch, "change")
        copy_base(args.base, base)
        copy_working_tree(change)
        try:
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
    print(f"# {args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"{seconds:g} s runs, base {args.base}")
    for metric in spec["end_to_end"]:
        print(summary_line(metric["name"], metric["unit"], metric["better"],
                           summarize(values[metric["name"]], metric["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
