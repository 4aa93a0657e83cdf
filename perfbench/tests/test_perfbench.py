"""Tests of the benchmark itself: a small-size smoke run and the output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sternbrocot import (  # noqa: E402
    TAU2, empirical_cdf, expand_rcf, g_series, g_stream, g_tau2, theta, to_decimal, xi)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The metrics the benchmark must print, per mode.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}
PER_LAYER = [
    "xi.xi.self_s", "xi.theta.self_s", "xi.elements_built",
    "stern.stern_level.self_s", "stern.elements_built",
    "dist.empirical_cdf.calls", "dist.empirical_cdf.self_s", "dist.verify_theorem1.self_s",
    "dist.elements_per_query",
    *(f"singular.{f}.{m}" for f in ("g_series", "g_tau2", "question_mark", "g_inductive", "g_stream")
      for m in ("calls", "self_s")),
    "singular.result_bits_max", "singular.failed",
    "cf.expand_rcf.self_s", "cf.expand_rrcf.self_s",
    "exact.to_decimal.calls", "exact.to_decimal.self_s",
    "cli.self_s", "cli.rows_out", "trace.overhead_s",
] + [f"{layer}.self_s" for layer in ("cli", "dist", "xi", "stern", "singular", "cf", "exact")]


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, lines = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    named = PER_LAYER if trace else END_TO_END
    for name in named:
        unit = result["metrics"][name]["unit"]
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert all(unit == result["metrics"][name]["unit"] for name, unit in END_TO_END.items())
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    assert any(line.startswith("# perfbench ") and " python=" in line and " commit=" in line
               and " nproc=" in line and " seed=3 " in line for line in lines)


def test_the_same_seed_gives_the_same_inputs():
    for w in ("convergence", "tables"):
        assert workloads.cli_ops(w, 7) == workloads.cli_ops(w, 7)
    assert workloads.cli_ops("convergence", 7) != workloads.cli_ops("convergence", 8)
    assert workloads.pointwise_ops(7) == workloads.pointwise_ops(7)
    assert workloads.pointwise_ops(7) != workloads.pointwise_ops(8)
    assert workloads.round_order(7, 1, 50) == workloads.round_order(7, 1, 50)
    assert workloads.round_order(7, 1, 50) != workloads.round_order(7, 2, 50)


def test_an_op_counts_with_the_median_of_its_scaled_executions():
    ops = list(range(30))
    result = run.Run(ops, setup=[0.3, 0.1, 0.2])
    for op in ops:
        # scaled to nominal host speed: 0.01, 0.02 and 0.05 times op + 1
        result.executions += [run.Execution(op, (op + 1) * 0.01, "ok", rss_mb=10.0),
                              run.Execution(op, (op + 1) * 0.04, "ok", rss_mb=12.0, scale=0.5),
                              run.Execution(op, (op + 1) * 0.05, "ok", rss_mb=11.0)]
    result.executions.append(run.Execution(0, 5.0, "refused", rss_mb=11.0))
    values, note = run.end_to_end(result)
    assert values["setup_s"] == 0.2
    # op 0 counts its refused execution in wall_s, not in its latency
    assert values["wall_s"] == pytest.approx(0.035 + sum((op + 1) * 0.02 for op in ops[1:]))
    assert values["op_p50_ms"] == pytest.approx(310.0)
    # the highest percentile with 10 ops beyond it: the 20th of 30
    assert values["op_tail_ms"] == pytest.approx(400.0) and "p66.67 of 30" in note
    assert values["peak_rss_mb"] == 12.0
    assert values["ops_ok_ratio"] == 90 / 91


def test_a_run_too_small_for_a_tail_reports_its_slowest_op():
    result = run.Run([0, 1, 2], setup=[0.1])
    result.executions = [run.Execution(op, 0.1 * (op + 1), "ok") for op in range(3)]
    values, note = run.end_to_end(result)
    assert values["op_tail_ms"] == pytest.approx(300.0) and "p100.00 of 3" in note


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


# --- a corrupted output counts as a failed op --------------------------------

def corrupt_second_row(out: bytes) -> bytes:
    lines = out.split(b"\n")
    lines[1] = lines[1][:-1] + (b"7" if lines[1][-1:] != b"7" else b"8")
    return b"\n".join(lines)


def test_corrupted_cli_output_counts_as_a_failed_op(tmp_path, monkeypatch):
    real_spawn = run.spawn
    corrupted = []

    def spawn(cmd, scratch):
        seconds, code, out, err, rss = real_spawn(cmd, scratch)
        if "sternbrocot.cli" in cmd and not corrupted:
            corrupted.append(cmd[3:])
            out = corrupt_second_row(out)
        return seconds, code, out, err, rss

    monkeypatch.setattr(run, "spawn", spawn)
    result = run.run_cli("tables", 5, 0, False, True, tmp_path)
    statuses = [(result.ops[e.op], e.status) for e in result.executions]
    assert [argv for argv, status in statuses if status == "failed"] == corrupted
    assert sum(status == "ok" for _, status in statuses) == len(statuses) - 1


def cli_output(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "sternbrocot.cli", *argv], cwd=ROOT,
                          capture_output=True, env=run.child_env(), timeout=60)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ["stern-brocot", "--n", "5"],
    ["xi", "--n", "7"],
    ["theta", "--k", "7"],
    ["plot-data", "--lambda", "tau2", "--grid", "5"],
    ["plot-data", "--lambda", "1/3", "--grid", "5"],
    ["verify", "theorem1", "--x", "3/7", "--n-max", "9"],
    ["verify", "theorem1", "--x", "2/5", "--n-max", "6", "--tol", "1/1000"],
])
def test_cli_checks_accept_real_output_and_reject_corruptions(argv):
    code, out = cli_output(*argv)
    assert checks.check_cli(argv, code, out, b"") == "ok"
    lines = out.split(b"\n")
    swapped = b"\n".join([lines[1], lines[0], *lines[2:]])
    for bad in (corrupt_second_row(out), swapped, b"\n".join(lines[1:]), out + b"1\t2\n"):
        with pytest.raises(checks.CheckError):
            checks.check_cli(argv, code, bad, b"")
    with pytest.raises(checks.CheckError):
        checks.check_cli(argv, 1 - code if code in (0, 1) else 0, out, b"")


def test_cli_refusal_counts_only_for_a_value_past_the_limit():
    err = b"error: Exceeds the limit (4300 digits) for integer string conversion\n"
    long_x = ["verify", "theorem1", "--x", "1/20000", "--n-max", "5"]
    assert checks.check_cli(long_x, 2, b"", err) == "refused"
    with pytest.raises(checks.CheckError):
        checks.check_cli(long_x, 2, b"", b"error: other\n")
    for argv in (["plot-data", "--lambda", "1/3", "--grid", "3"],
                 ["verify", "theorem1", "--x", "3/7", "--n-max", "5"], ["xi", "--n", "4"]):
        with pytest.raises(checks.CheckError):
            checks.check_cli(argv, 2, b"", err)


def test_xi_members_walk_matches_the_library():
    for n in range(1, 12):
        members = sorted(Fraction(p, q) for p, q in checks.xi_members(n))
        assert members == list(xi(n).elements[1:-1])


LAMBDAS = {"1/3": Fraction(1, 3), "1/2": Fraction(1, 2), "tau2": TAU2}


@pytest.mark.parametrize("quotients", [(2,), (1, 2), (3, 1, 4), (1, 1, 1, 5), (7, 300, 2, 1, 9)])
@pytest.mark.parametrize("lam", sorted(LAMBDAS))
def test_point_checks_accept_library_values_and_reject_corruptions(quotients, lam):
    value = g_series(expand_rcf(workloads.value(quotients)), LAMBDAS[lam])
    text = f"{value}\t{to_decimal(value, 15)}"
    op = {"route": "series", "lam": lam, "quotients": quotients}
    assert checks.check_point(op, "ok", text) == "ok"
    exact, dec = text.split("\t")
    for bad in (f"{exact}\t{dec[:-1]}{(int(dec[-1]) + 1) % 10}", f"{value + Fraction(1, 10**40)}\t{dec}"):
        with pytest.raises(checks.CheckError):
            checks.check_point(op, "ok", bad)
    with pytest.raises(checks.CheckError):
        checks.check_point(op, "refused", "Exceeds the limit (4300 digits)")
    with pytest.raises(checks.CheckError):
        checks.check_point(op, "error", "ValueError: something else")


def test_tau2_route_matches_the_path_walk():
    for quotients in [(2,), (4, 1, 3), (1, 5, 2, 2)]:
        value = g_tau2(expand_rcf(workloads.value(quotients)))
        assert checks.matches(str(value), list(checks.g_prefixes(quotients, "tau2"))[-1], 2)


def test_a_refusal_is_legitimate_only_for_a_value_past_the_limit():
    op = {"route": "series", "lam": "1/3", "quotients": (9500, 2)}
    assert checks.check_point(op, "refused", "Exceeds the limit (4300 digits) for ...") == "refused"


@pytest.mark.parametrize("lam", sorted(LAMBDAS))
def test_stream_checks_follow_g_stream(lam):
    for qs in workloads.points(random.Random(1), [workloads.STREAM_LENGTH] * 5, tail=False):
        lo, hi = g_stream(iter(qs), LAMBDAS[lam], workloads.STREAM_EPSILON)
        text = f"{lo}\t{hi}\t{to_decimal(lo, 15)}\t{to_decimal(hi, 15)}"
        op = {"route": "stream", "lam": lam, "quotients": qs}
        assert checks.check_point(op, "ok", text) == "ok"
        with pytest.raises(checks.CheckError):
            checks.check_point(op, "ok", f"{hi}\t{lo}\t{to_decimal(hi, 15)}\t{to_decimal(lo, 15)}")


@pytest.mark.parametrize("lam", sorted(LAMBDAS))
def test_streams_are_long_enough_for_the_tolerance(lam):
    ones = (1,) * workloads.STREAM_LENGTH
    before, current = checks.stream_enclosure(ones, lam, workloads.STREAM_EPSILON)
    assert current != before


def test_rank_walk_matches_the_materialized_cdf():
    for x in (Fraction(1, 2), Fraction(3, 7), Fraction(5, 13), Fraction(99, 100), Fraction(1, 300)):
        for n in range(1, 13):
            total = checks.fib(n + 2) + 1
            assert Fraction(checks.xi_rank(x.numerator, x.denominator, n), total) == \
                empirical_cdf("xi", n, x)


def test_generation_walk_matches_the_library():
    for k in range(1, 12):
        assert all(checks.reduced_generation(node.value.numerator, node.value.denominator) == k
                   for node in theta(k))
