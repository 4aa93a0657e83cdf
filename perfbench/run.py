"""Benchmark of the sternbrocot CLI and library, end to end and per module.

    python3 perfbench/run.py --workload {convergence,tables,pointwise}
        --seed N --seconds S --trace {0,1} [--small]

Run from the root of a source checkout: the package is imported from
its src/ directory, never from an installed copy. The workloads are
described in workloads.py and BENCHMARK.json. A run executes every op
of its workload in as many rounds as took S seconds when the benchmark
was written (the same count on every run), and every op runs in a fresh
interpreter: a child process per CLI command, or one child per round
for the pointwise library calls. Each execution is timed from its
start to its end, and its output is checked afterwards, outside the
timed interval, by checks.py. Each time is scaled to a nominal host
speed by the reference work of hostspeed.py, timed right before it.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json. With --trace 1 one round runs
every op untraced and then traced, and the JSON holds the per-layer
metrics of the traced executions, plus the tracing overhead. --small
shrinks every size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up samples per untraced run.
SETUP_SAMPLES = 24


@dataclass
class Execution:
    """One execution of op number `op` of the run."""
    op: int
    seconds: float
    status: str  # "ok", "refused" or "failed"
    reason: str = ""
    rss_mb: float = 0.0
    traced: bool = False
    #: hostspeed.scale() right before the execution.
    scale: float = 1.0


@dataclass
class Run:
    ops: list
    executions: list[Execution] = field(default_factory=list)
    #: Set-up times, each scaled to nominal host speed, and as measured.
    setup: list[float] = field(default_factory=list)
    setup_raw: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, which change
    buffering, bytecode caching or imports, plus the benchmark's own.

    Hash randomization changes dict and set layouts, and with them the
    speed, from one child to the next; so the hash seed is fixed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], scratch: Path) -> tuple[float, int, bytes, bytes, float]:
    """Run a child to its end: (seconds, exit code, stdout, stderr, peak RSS in MB).

    The RSS comes from the child's own rusage (wait4), not RUSAGE_CHILDREN,
    which keeps the largest child seen so far.
    """
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return seconds, proc.returncode, out, err.read(), usage.ru_maxrss / 1024


def check_sources(scratch: Path) -> None:
    """Fail unless a fresh interpreter imports sternbrocot.cli from SRC."""
    probe = "import sternbrocot.cli, sys; sys.stdout.write(sternbrocot.cli.__file__)"
    _, code, out, err, _ = spawn([sys.executable, "-c", probe], scratch)
    if code != 0 or not Path(out.decode()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cannot import sternbrocot.cli from {SRC}: {err.decode()[-500:]}")


def measure_setup(run: Run, scratch: Path) -> None:
    """Add to `run` the seconds a fresh interpreter takes to import sternbrocot.cli."""
    scale = hostspeed.scale()
    seconds, code, _, err, _ = spawn([sys.executable, "-c", "import sternbrocot.cli"], scratch)
    if code != 0:
        raise RuntimeError(f"importing sternbrocot.cli failed: {err.decode()[-500:]}")
    run.setup.append(seconds * scale)
    run.setup_raw.append(seconds)


def probe_plan(units: int) -> list[int]:
    """How many set-up samples to take before each of `units` steps of a run:
    SETUP_SAMPLES in all, spread evenly, so that their median covers the
    whole run and not one moment of it."""
    plan = [0] * units
    for j in range(SETUP_SAMPLES):
        plan[j * units // SETUP_SAMPLES] += 1
    return plan


def _verdict(check, *args) -> tuple[str, str]:
    try:
        return check(*args), ""
    except checks.CheckError as exc:
        return "failed", str(exc)


def run_cli(workload: str, seed: int, seconds: float, trace: bool, small: bool,
            scratch: Path) -> Run:
    """Every op in a fresh child, each round in its seeded order. Traced,
    one round runs each op untraced and then traced, back to back."""
    run = Run(workloads.cli_ops(workload, seed, small))
    count = 1 if trace else workloads.rounds(workload, seconds)
    schedule = [i for r in range(count) for i in workloads.round_order(seed, r, len(run.ops))]
    verdicts: dict = {}
    spans_path = scratch / "spans.json"
    for i, probes in zip(schedule, probe_plan(len(schedule)) if not trace else repeat(0)):
        for _ in range(probes):
            measure_setup(run, scratch)
        argv = run.ops[i]
        for traced in (False, True) if trace else (False,):
            if traced:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "sternbrocot.cli", *argv]
            scale = hostspeed.scale()
            elapsed, code, out, err, rss = spawn(cmd, scratch)
            key = (i, code, hashlib.sha256(out).digest(), err)
            if key not in verdicts:
                verdicts[key] = _verdict(checks.check_cli, argv, code, out, err)
            run.executions.append(Execution(i, elapsed, *verdicts[key], rss, traced, scale))
            if traced:
                layers = _load_layers(spans_path)
                layers["cli.rows_out"] = out.count(b"\n")
                _accumulate(run.layers, layers)
    return run


def run_pointwise(seed: int, seconds: float, trace: bool, small: bool, scratch: Path) -> Run:
    """One fresh child per round runs every op in the round's order."""
    run = Run(workloads.pointwise_ops(seed, small))
    count = 1 if trace else workloads.rounds("pointwise", seconds)
    spans_path = scratch / "spans.json"
    verdicts: dict = {}
    for index, probes in zip(range(count), probe_plan(count) if not trace else repeat(0)):
        for _ in range(probes):
            measure_setup(run, scratch)
        cmd = [sys.executable, str(HERE / "child.py"), "pointwise", str(seed), str(index),
               "1" if trace else "0", "1" if small else "0", str(spans_path)]
        _, code, out, err, rss = spawn(cmd, scratch)
        if code != 0:
            raise RuntimeError(f"pointwise child exited {code}: {err.decode()[-500:]}")
        for line in out.decode().splitlines():
            position, traced, elapsed, scale, status, text = json.loads(line)
            key = (position, status, text)
            if key not in verdicts:
                verdicts[key] = _verdict(checks.check_point, run.ops[position], status, text)
            run.executions.append(Execution(position, elapsed, *verdicts[key], rss, traced,
                                            scale))
        if trace:
            _accumulate(run.layers, _load_layers(spans_path))
    return run


def _load_layers(path: Path) -> dict[str, float]:
    with open(path) as handle:
        record = json.load(handle)
    path.unlink()
    return tracing.summarize(record)


def _accumulate(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        if name.endswith("_max"):
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def end_to_end(run: Run) -> tuple[dict[str, float], str]:
    """An op's latency is the median of its executions, each scaled to
    nominal host speed; see workloads.py and hostspeed.py."""
    every: dict[int, list[float]] = {}
    ok: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for e in run.executions:
        every.setdefault(e.op, []).append(e.seconds * e.scale)
        raw.setdefault(e.op, []).append(e.seconds)
        if e.status == "ok":
            ok.setdefault(e.op, []).append(e.seconds * e.scale)
    latencies = sorted(map(statistics.median, ok.values()))
    # The highest percentile with TAIL_BEYOND ops beyond it; below 2 *
    # TAIL_BEYOND + 1 ops that lies under the median, so take the slowest.
    tail_at = len(latencies) - workloads.TAIL_BEYOND - 1
    if tail_at < len(latencies) // 2:
        tail_at = len(latencies) - 1
    values = {
        "setup_s": statistics.median(run.setup),
        "wall_s": sum(map(statistics.median, every.values())),
        "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "op_tail_ms": latencies[tail_at] * 1e3 if latencies else 0.0,
        "peak_rss_mb": max(e.rss_mb for e in run.executions),
        "ops_ok_ratio": sum(e.status == "ok" for e in run.executions) / len(run.executions),
    }
    rounds = len(run.executions) // len(run.ops)
    note = (f"op_tail_ms is p{100 * (tail_at + 1) / max(1, len(latencies)):.2f} of "
            f"{len(latencies)} completed ops ({len(latencies) - tail_at - 1} beyond it); each op "
            f"is the median of {rounds} executions; setup_s is the median of "
            f"{len(run.setup)} imports spread over the run; times are scaled to nominal host "
            f"speed by a median factor of {statistics.median(e.scale for e in run.executions):.4f}"
            f" (as measured: wall_s = {sum(map(statistics.median, raw.values())):.6g} s, setup_s = "
            f"{statistics.median(run.setup_raw or run.setup):.6g} s)")
    return values, note


def per_layer(run: Run) -> dict[str, float]:
    values: dict[str, float] = {name: 0.0 for name in tracing.Tracer().counts}
    for layer, names in tracing.LAYERS.items():
        values[f"{layer}.self_s"] = 0.0
        for name in names:
            values[f"{layer}.{name}.calls"] = 0.0
            values[f"{layer}.{name}.self_s"] = 0.0
    values["cli.rows_out"] = 0.0
    values.update(run.layers)
    queries = values["dist.empirical_cdf.calls"]
    built = values["xi.elements_built"] + values["stern.elements_built"]
    values["dist.elements_per_query"] = built / queries if queries else 0.0
    values["trace.wall_s"] = sum(e.seconds for e in run.executions if e.traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(
        e.seconds for e in run.executions if not e.traced)
    return values


def provenance(args) -> str:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "sternbrocot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} python={sys.version.split()[0]} commit={commit} "
            f"src_sha256={digest.hexdigest()[:16]} nproc={len(os.sched_getaffinity(0))}")


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(whys), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "sternbrocot" / "cli.py").is_file():
        print(f"error: no sternbrocot sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: the running child is killed and waited for, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        try:
            check_sources(Path(scratch))
            if args.workload == "pointwise":
                run = run_pointwise(args.seed, args.seconds, bool(args.trace), args.small,
                                    Path(scratch))
            else:
                run = run_cli(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.small, Path(scratch))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    print(provenance(args))
    print(f"# workload: {whys[args.workload]}")
    plain = [e for e in run.executions if not e.traced]
    for status in ("refused", "failed"):
        hits: dict[int, list[Execution]] = {}
        for e in run.executions:
            if e.status == status:
                hits.setdefault(e.op, []).append(e)
        for op, es in sorted(hits.items()):
            print(f"# {status}: {workloads.describe_op(run.ops[op])} ({len(es)} executions)"
                  + (f": {es[0].reason}" if es[0].reason else ""))
    print(f"# ops_failed_ratio = {sum(e.status != 'ok' for e in plain) / len(plain):.6f} "
          f"({sum(e.status == 'refused' for e in plain)} refused, "
          f"{sum(e.status == 'failed' for e in plain)} failed, {len(plain)} attempted untraced)")
    if args.trace:
        computed = per_layer(run)
        wanted = spec["per_layer"]
    else:
        computed, note = end_to_end(run)
        wanted = spec["end_to_end"]
        print(f"# {note}")
    metrics = {}
    for metric in wanted:
        value = computed[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    failed = sum(e.status == "failed" for e in run.executions)
    print(json.dumps({"correct": not failed, "attempted": len(run.executions), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
