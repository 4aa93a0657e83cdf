"""Command-line front end.

Values are read and written in exact text formats: rationals as "p/q",
elements of Q(sqrt5) as "a+b√5" (keywords tau, tau2 accepted; both
coefficients may use exponent notation). `convert-cf` prints the
continued-fraction literals "[0;a1,a2,...]" and "[[1;b1,b2,...]]", but
no command reads one. Any option value may start with a minus ("--x
-1/2" meets the command's own range check), and an exponent beyond 4300
in absolute value ("--x 1e-99999999") is a usage error, refused before
its power of 10 is built; `eval-stream` likewise refuses a quotient
token longer than 4300 characters (`MAX_TOKEN_CHARS`) before converting
it, even one whose stream never ends. Sequence output is TSV, sorted by
value, so downstream golden-file comparisons
are bit-exact; the rows stream from one Stern-Brocot tree walk
(`stern.graded_walk`), and no sequence is built. Every `eval` route but
salem is one call, `singular.g_inductive`, which is the alternating
series; salem is the `question-mark` command. Exit codes: 0 success,
1 verification failure, 2 usage error or an input whose result is out of
reach. No option bounds the output: every table command estimates the
bytes it would write, in exact integers from its index and lam, and
refuses before the first row past one budget, `exact.MAX_OUTPUT_BYTES`
(the walks through `_walk_bytes`, `verify` through
`dist.verify_theorem1`; plot-data checks lam first, so a lam outside
(0,1) gets its own message at any grid); a one-value command prints a
value already kept well under it by `exact.MAX_EXACT_BITS` or
`exact.MAX_ELEMENTS`.
Only argparse's own errors (an unknown command or option, a missing or
unparsable value) print the usage block; every refusal made after
parsing (a range, the output budget, a size budget: a ValueError or
OverflowError) is one `error:` line. A closed output pipe ends the
process quietly, killed by SIGPIPE, as it would `yes | head`.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, lcm

from .cf import expand_rcf, expand_rrcf
from .dist import verify_theorem1
from .exact import (MAX_OUTPUT_BYTES, TAU2, QuadSurd, check_output, parse_quadsurd,
                    parse_rational, text_bytes, to_decimal)
from .singular import g_inductive, g_stream, question_mark
from .stern import graded_walk
from .xi import fibonacci

DISPLAY_DIGITS = 15
#: Characters read from stdin at a time by eval-stream.
STREAM_CHUNK = 4096
#: Longest quotient token eval-stream converts: int() is quadratic in the
#: digits, and no quotient past 2**21 + 1 (7 digits) fits the size budget
#: at any lam. 4300 is Python's default int-string digit limit.
MAX_TOKEN_CHARS = 4300


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _lambda_arg(text: str) -> Fraction | QuadSurd:
    try:
        value = parse_quadsurd(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value.as_fraction() if value.is_rational else value


def _emit(*values: Fraction | QuadSurd) -> None:
    """One row: the exact values, then their decimals, tab-separated."""
    print("\t".join([*map(str, values), *(to_decimal(v, DISPLAY_DIGITS) for v in values)]))


def _walk_bytes(n: int, left: int, lam: Fraction | QuadSurd | None = None, deepest: bool = False) -> int:
    """An upper bound, in exact integers, on the bytes a walk command writes:
    the rows of the nodes of `graded_walk(n, left, lam)`, of depth <= n, or
    of depth n alone if deepest (theta's rows), and two endpoint rows.

    A node s mediant steps down, with l of its s - 1 edges left ones, has
    depth s + (left - 1) l, and comb(s - 1, l) nodes share s and l; the
    endpoint rows are shorter than a node's. A node's p and q are at most
    F(n + 2) and its depth at most n, so their digits, counted exactly
    from those small integers, and three separators bound the three.
    With lam = (u + v phi)/d over Z[phi] (a + b√5 = (a - b) + 2b phi),
    g at a node s steps down is N/d**s for an integer N = A + B phi, with
    |N| <= d**s as g lies in [0, 1]. Its conjugate N' is carried by the same
    recurrence with the conjugates of lam d and (1 - lam) d, so
    |N'| <= m**s for m = max(d, |u| + |d - u| + 2|v|). g prints as
    (2A + B)/(2 d**s) + B/(2 d**s) √5, and 2A + B = N + N' and
    B = (N - N')/√5, so its two numerators take at most s bits(m) + 1 bits
    and its two denominators s bits(d) + 1; a rational lam (v = 0) prints
    N/d**s, two integers of s bits(d) bits. g's text is bounded from
    those, and the two decimal columns with their tabs add
    2 (DISPLAY_DIGITS + 2) + 2. Past n = 2 bits(MAX_OUTPUT_BYTES) the
    nodes of depth n alone outnumber the budget's bytes, so n stops
    growing there and no huge Fibonacci number is built.
    """
    n = min(n, 2 * MAX_OUTPUT_BYTES.bit_length())
    row, bits, surd = 2 * len(str(fibonacci(n + 2))) + len(str(n)) + 3, (), isinstance(lam, QuadSurd)
    if lam is not None:
        x, y = (lam.a - lam.b, 2 * lam.b) if surd else (lam, 0)  # lam = x + y phi = (u + v phi)/d
        d = lcm(x.denominator, y.denominator)
        m = int(d * max(1, abs(x) + abs(1 - x) + 2 * abs(y)))  # max(d, |u| + |d - u| + 2|v|)
        bits = (m.bit_length(),) * 2 + (d.bit_length(),) * 2 if surd else (d.bit_length(),) * 2
        row += 2 * (DISPLAY_DIGITS + 2) + 2
    # s bits per step, and one more for each integer of a surd
    return 2 * row + sum(comb(s - 1, l) * (row + text_bytes(*(s * b + surd for b in bits), surd=surd))
                         for s in range(1, n + 1) for l in range(s)
                         if (n if deepest else 0) <= s + (left - 1) * l <= n)


def _check_walk(n: int, low: int, flag: str, left: int, **walk: object) -> None:
    """Refuse an index below low, then a walk (`_walk_bytes(n, left, **walk)`)
    whose text would pass the output budget."""
    if n < low:
        raise ValueError(f"{flag} must be >= {low}")
    check_output(_walk_bytes(n, left, **walk))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sternbrocot",
        description="Exact Stern-Brocot / reduced continued fraction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval",
        help="evaluate the singular function g at a rational point",
        description="Prints the exact value (p/q or a+b√5) and a 15-digit decimal, tab-separated.",
    )
    p_eval.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True,
                        help="split parameter in (0,1): p/q, a+b√5, tau or tau2")
    p_eval.add_argument("--x", type=_rational_arg, required=True, help="evaluation point in [0,1]")
    p_eval.add_argument("--route", choices=("inductive", "series", "tau2", "salem"),
                        default="series",
                        help="evaluation route (tau2 needs --lambda tau2, salem needs --lambda 1/2)")
    p_eval.set_defaults(handler=_cmd_eval)

    p_stream = sub.add_parser(
        "eval-stream",
        help="enclose g at an irrational point given by its partial quotients on stdin",
        description="Reads whitespace-separated partial quotients from stdin and prints "
                    "lo hi lo-decimal hi-decimal, tab-separated, with hi - lo < epsilon.",
    )
    p_stream.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True)
    p_stream.add_argument("--epsilon", type=_rational_arg, required=True,
                          help="enclosure width, e.g. 1/1048576 or 1e-6")
    p_stream.set_defaults(handler=_cmd_eval_stream)

    p_qm = sub.add_parser(
        "question-mark",
        help="evaluate Minkowski's ?(x) at a rational point",
        description="Prints the exact dyadic value and a 15-digit decimal, tab-separated.",
    )
    p_qm.add_argument("--x", type=_rational_arg, required=True, help="point in [0,1]")
    p_qm.set_defaults(handler=_cmd_question_mark)

    p_sb = sub.add_parser(
        "stern-brocot",
        help="emit a Stern-Brocot level as TSV",
        description="One line per element: numerator<TAB>denominator, increasing.",
    )
    p_sb.add_argument("--n", type=int, required=True, help="level index")
    p_sb.set_defaults(handler=_cmd_stern_brocot)

    p_xi = sub.add_parser(
        "xi",
        help="emit the reduced-fraction sequence xi(n) as TSV",
        description="One line per element: numerator<TAB>denominator<TAB>generation, "
                    "increasing; the endpoints 0 and 1 carry generation 0.",
    )
    p_xi.add_argument("--n", type=int, required=True, help="sequence index")
    p_xi.set_defaults(handler=_cmd_xi)

    p_theta = sub.add_parser(
        "theta",
        help="emit one generation of the reduced-fraction tree as TSV",
        description="One line per element: numerator<TAB>denominator<TAB>generation, increasing.",
    )
    p_theta.add_argument("--k", type=int, required=True, help="generation index (>= 1)")
    p_theta.set_defaults(handler=_cmd_theta)

    p_conv = sub.add_parser(
        "convert-cf",
        help="print both continued-fraction expansions of a rational",
        description="Line 1: regular expansion [0;a1,...]; line 2: reduced expansion [[1;b1,...]].",
    )
    p_conv.add_argument("--x", type=_rational_arg, required=True, help="point in (0,1)")
    p_conv.set_defaults(handler=_cmd_convert_cf)

    p_verify = sub.add_parser(
        "verify",
        help="run a convergence verification",
        description="Exit code 0 on PASS, 1 on FAIL.",
    )
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    p_thm = verify_sub.add_parser(
        "theorem1",
        help="check that the xi empirical distribution converges to g at lambda = tau2",
        description="TSV rows: n, empirical p/q, exact target, |error| as a 30-digit decimal; "
                    "then a single PASS or FAIL line comparing the final error to --tol.",
    )
    p_thm.add_argument("--x", type=_rational_arg, required=True, help="point in (0,1)")
    p_thm.add_argument("--n-max", type=int, default=25, help="largest sequence index (default 25)")
    p_thm.add_argument("--tol", type=_rational_arg, default=Fraction(1, 50),
                       help="tolerance on the final error (default 0.02)")
    p_thm.set_defaults(handler=_cmd_verify_theorem1)

    p_plot = sub.add_parser(
        "plot-data",
        help="emit (x, g(x)) samples over the xi(grid) points as TSV",
        description="One line per point: x p/q, exact g, x decimal, g decimal.",
    )
    p_plot.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True)
    p_plot.add_argument("--grid", type=int, required=True, help="xi sequence index to sample at")
    p_plot.set_defaults(handler=_cmd_plot_data)

    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    x, lam = args.x, args.lam
    if not 0 <= x <= 1:
        raise ValueError(f"--x must lie in [0,1], got {x}")
    if args.route == "tau2" and lam != TAU2:
        raise ValueError("--route tau2 needs --lambda tau2")
    if args.route == "salem":
        if lam != Fraction(1, 2):
            raise ValueError("--route salem needs --lambda 1/2")
        return _cmd_question_mark(args)
    _emit(g_inductive(x, lam))  # inductive, series and tau2 alike: g(0) = 0 in lam's type
    return 0


def _read_quotients(stream: io.TextIOBase) -> Iterator[int]:
    """Whitespace-separated integers from the stream, read a chunk at a
    time so that an endless stream is consumed only as far as needed; a
    token longer than MAX_TOKEN_CHARS, even one still unterminated, is
    refused before it is converted."""
    partial = ""
    while chunk := stream.read(STREAM_CHUNK):
        text = partial + chunk
        tokens = text.split()
        partial = "" if text[-1].isspace() else tokens.pop()
        if max(map(len, [partial, *tokens])) > MAX_TOKEN_CHARS:
            raise ValueError(f"a quotient token is longer than {MAX_TOKEN_CHARS} characters")
        yield from map(int, tokens)
    if partial:
        yield int(partial)


def _cmd_eval_stream(args: argparse.Namespace) -> int:
    _emit(*g_stream(_read_quotients(sys.stdin), args.lam, args.epsilon))
    return 0


def _cmd_question_mark(args: argparse.Namespace) -> int:
    x = args.x
    if not 0 <= x <= 1:
        raise ValueError(f"--x must lie in [0,1], got {x}")
    _emit(question_mark(expand_rcf(x)) if x else x)  # ?(0) = 0 has no quotients
    return 0


def _cmd_stern_brocot(args: argparse.Namespace) -> int:
    _check_walk(args.n, 0, "--n", 1)
    out = sys.stdout
    out.write("0\t1\n")
    out.writelines(f"{p}\t{q}\n" for p, q, _, _ in graded_walk(args.n))
    out.write("1\t1\n")
    return 0


def _cmd_xi(args: argparse.Namespace) -> int:
    _check_walk(args.n, 1, "--n", 2)
    out = sys.stdout
    out.write("0\t1\t0\n")
    out.writelines(f"{p}\t{q}\t{depth}\n" for p, q, depth, _ in graded_walk(args.n, 2))
    out.write("1\t1\t0\n")
    return 0


def _cmd_theta(args: argparse.Namespace) -> int:
    k = args.k
    _check_walk(k, 1, "--k", 2, deepest=True)
    sys.stdout.writelines(f"{p}\t{q}\t{k}\n" for p, q, depth, _ in graded_walk(k, 2)
                          if depth == k)
    return 0


def _cmd_convert_cf(args: argparse.Namespace) -> int:
    if not 0 < args.x < 1:
        raise ValueError(f"--x must lie in (0,1), got {args.x}")
    regular, reduced = expand_rcf(args.x), expand_rrcf(args.x)  # both before a line is printed
    print(regular)
    print(reduced)
    return 0


def _cmd_verify_theorem1(args: argparse.Namespace) -> int:
    report = verify_theorem1(args.x, args.n_max, args.tol)
    target = str(report.target)
    for row in report.rows:
        print(f"{row.n}\t{row.empirical}\t{target}\t{row.abs_error_decimal}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_plot_data(args: argparse.Namespace) -> int:
    lam = args.lam
    zero = g_inductive(Fraction(0), lam)  # refuses lam outside (0,1) before it is priced
    _check_walk(args.grid, 1, "--grid", 2, lam=lam)
    nodes = graded_walk(args.grid, 2, lam)
    _emit(Fraction(0), zero)  # g(0) = 0 and g(1) = 1, in lam's type
    for p, q, _, g in nodes:
        _emit(Fraction(p, q), g)
    _emit(Fraction(1), g_inductive(Fraction(1), lam))
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command; exact values print in full, however many digits."""
    # Python 3.11+ refuses int-to-str conversions past 4300 digits; the
    # limit is lifted for this call only, so library callers keep it.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        # argparse mistakes a value like -1/2 or -1/2+1/2√5 for an option: attach it by =
        if (argv[i].startswith("--") and argv[i] not in ("--", "--help") and "=" not in argv[i]
                and not argv[i + 1].startswith("--")):
            argv[i:i + 2] = ["=".join(argv[i:i + 2])]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past int or index range
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        import signal  # only here: the import costs ~1 ms at every start
        if not hasattr(signal, "SIGPIPE"):
            raise
        # end as `yes | head` does: killed by SIGPIPE, nothing on stderr
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
