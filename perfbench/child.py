"""Child processes of the benchmark; each starts from a fresh interpreter.

    python3 perfbench/child.py cli SPANS_PATH ARG...
        Runs ``sternbrocot ARG...`` under a Tracer and writes its spans
        to SPANS_PATH when it ends. (Untraced CLI ops run
        ``python3 -m sternbrocot.cli`` itself.)

    python3 perfbench/child.py pointwise SEED ROUND TRACE SMALL SPANS_PATH
        Runs round ROUND of the pointwise ops drawn from SEED, in that
        round's order. With TRACE=1 each op runs twice, untraced and
        then traced, and the traced spans go to SPANS_PATH. Prints one
        JSON line per op: [index, traced, seconds, scale, status, text],
        with scale the latest hostspeed.scale() before the op and status
        "ok", "refused" or "error".
"""

from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

import hostspeed
import tracing
import workloads
from checks import DISPLAY_DIGITS, REFUSAL_TEXT

#: Seconds between readings of the host's speed in a pointwise round,
#: whose ops take milliseconds each.
SCALE_EVERY = 0.2


def _run_cli(spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    cli = sys.modules["sternbrocot.cli"]
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        tracing.dump(tracer.record(), spans_path)


def _lambda(text: str):
    return importlib.import_module("sternbrocot.exact").TAU2 if text == "tau2" else Fraction(text)


def _op(op: dict, x: Fraction, lam, lib) -> str:
    """One op as the CLI's eval and eval-stream would compute and format it."""
    singular, cf, exact = lib
    route = op["route"]
    if route == "stream":
        lo, hi = singular.g_stream(iter(op["quotients"]), lam, workloads.STREAM_EPSILON)
        return (f"{lo}\t{hi}\t{exact.to_decimal(lo, DISPLAY_DIGITS)}"
                f"\t{exact.to_decimal(hi, DISPLAY_DIGITS)}")
    if route == "inductive":
        value = singular.g_inductive(x, lam)
    else:
        expansion = cf.expand_rcf(x)
        if route == "series":
            value = singular.g_series(expansion, lam)
        elif route == "salem":
            value = singular.question_mark(expansion)
        else:
            value = singular.g_tau2(expansion)
    return f"{value}\t{exact.to_decimal(value, DISPLAY_DIGITS)}"


def _execute(op: dict, lib) -> tuple[float, str, str]:
    x = workloads.value(op["quotients"])
    lam = _lambda(op["lam"])
    start = perf_counter()
    try:
        status, text = "ok", _op(op, x, lam, lib)
    except ValueError as exc:
        status = "refused" if REFUSAL_TEXT in str(exc) else "error"
        text = str(exc)
    except Exception as exc:  # reported as a failed op; the run goes on
        status, text = "error", f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, status, text


def _run_pointwise(seed: int, index: int, trace: bool, small: bool, spans_path: str) -> int:
    """Every op once, in the round's order; traced, each op again right
    after under the tracer, so both executions see the same machine."""
    importlib.import_module("sternbrocot.cli")
    lib = tuple(importlib.import_module(f"sternbrocot.{m}") for m in ("singular", "cf", "exact"))
    ops = workloads.pointwise_ops(seed, small)
    tracer = tracing.Tracer()
    scaled_at = perf_counter()
    scale = hostspeed.scale()
    for position in workloads.round_order(seed, index, len(ops)):
        if perf_counter() - scaled_at > SCALE_EVERY:
            scaled_at = perf_counter()
            scale = hostspeed.scale()
        for traced in (False, True) if trace else (False,):
            if traced:
                tracer.install()
            try:
                elapsed, status, text = _execute(ops[position], lib)
            finally:
                tracer.uninstall()
            sys.stdout.write(json.dumps([position, traced, elapsed, scale, status, text]) + "\n")
    sys.stdout.flush()
    if trace:
        tracing.dump(tracer.record(), spans_path)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return _run_cli(argv[1], argv[2:])
    if argv[0] == "pointwise":
        seed, index, trace, small, spans_path = argv[1:6]
        return _run_pointwise(int(seed), int(index), trace == "1", small == "1", spans_path)
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
