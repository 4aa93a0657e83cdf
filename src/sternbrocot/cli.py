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
value, so downstream golden-file comparisons are bit-exact; the rows
stream from one traversal of the Stern-Brocot tree, and no sequence is
built. Every command is a generator of its text, and one writer,
`_write`, sends what it yields to stdout; the generator's return value
is the exit code (None for 0). `stern-brocot`, `xi` and `theta` yield
each block of `stern.walk_blocks` as one %-template (`_rows`), theta
from the walk of generation k alone, and plot-data PLOT_CHUNK rows at a
time from `stern.graded_walk`, the same traversal with g carried at each
mediant. Every exact value prints as `_row` prints it; plot-data's node
rows round the decimals of x and of a rational g inline, as `_row` does
through `exact.to_decimal`. Every
`eval` route but salem is one call, `singular.g_inductive`, which is the
alternating series; salem is the `question-mark` command. Exit codes: 0 success,
1 verification failure, 2 usage error or an input whose result is out of
reach. No option bounds the output: every table command estimates the
bytes it would write, in exact integers from its index and lam, and
refuses before the first row past one budget, `exact.MAX_OUTPUT_BYTES`
(the walks through `_walk_bytes`, `verify` through
`dist.verify_theorem1`; plot-data checks lam first, so a lam outside
(0,1) gets its own message at any grid); a one-value command prints a
value already kept well under it by `exact.MAX_EXACT_BITS` or
`exact.MAX_ELEMENTS`.
Every subcommand and option is declared once, in the command table
`_COMMANDS`. `_parse` reads a well-formed command line by it (each
option once, as --flag=value with its exact flag, every value accepted
by its converter); argparse, imported and built from the same table by
`build_parser`, reads only the others, and so is the only producer of
help, usage and error text. A well-formed command thus neither imports
argparse and gettext nor builds a parser, which cost more than its
own work in a small command.
Only argparse's own errors (an unknown command or option, a missing or
unparsable value) print the usage block; every refusal made after
parsing (a range, the output budget, a size budget: a ValueError or
OverflowError) is one `error:` line. A closed output pipe ends the
process quietly, killed by SIGPIPE, as it would `yes | head`.
`main`, the process entry, calls `gc.freeze()` before the command runs:
the import-time heap then lives to process exit untouched by any
collection, so shutdown does not traverse it again. `run` does not
freeze, because tests and library callers call it in processes that go
on living. The process still exits through `sys.exit`, so atexit
handlers run.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from collections.abc import Generator, Iterator, Sequence
from fractions import Fraction
from itertools import islice, repeat
from math import comb, lcm
from operator import add
from types import SimpleNamespace

from .cf import expand_rcf, rcf_to_rrcf
from .dist import verify_theorem1
from .exact import (MAX_OUTPUT_BYTES, TAU2, QuadSurd, check_output, parse_quadsurd,
                    parse_rational, text_bytes, to_decimal)
from .singular import g_inductive, g_stream, question_mark
from .stern import graded_walk, walk_blocks
from .xi import fibonacci

DISPLAY_DIGITS = 15
#: Rows plot-data joins into one string, and so writes, at a time.
PLOT_CHUNK = 1024
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
        import argparse  # a refused value: argparse reports it with its usage
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _lambda_arg(text: str) -> Fraction | QuadSurd:
    try:
        value = parse_quadsurd(text)
    except ValueError as exc:
        import argparse
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value.as_fraction() if value.is_rational else value


def _row(*values: Fraction | QuadSurd) -> str:
    """One row: the exact values, then their decimals, tab-separated."""
    return "\t".join([*map(str, values), *(to_decimal(v, DISPLAY_DIGITS) for v in values)]) + "\n"


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


def _cmd_eval(args: SimpleNamespace) -> Iterator[str]:
    x, lam = args.x, args.lam
    if not 0 <= x <= 1:
        raise ValueError(f"--x must lie in [0,1], got {x}")
    if args.route == "tau2" and lam != TAU2:
        raise ValueError("--route tau2 needs --lambda tau2")
    if args.route != "salem":
        yield _row(g_inductive(x, lam))  # inductive, series and tau2 alike: g(0) = 0 in lam's type
    elif lam != Fraction(1, 2):
        raise ValueError("--route salem needs --lambda 1/2")
    else:
        yield from _cmd_question_mark(args)


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


def _cmd_eval_stream(args: SimpleNamespace) -> Iterator[str]:
    yield _row(*g_stream(_read_quotients(sys.stdin), args.lam, args.epsilon))


def _cmd_question_mark(args: SimpleNamespace) -> Iterator[str]:
    x = args.x
    if not 0 <= x <= 1:
        raise ValueError(f"--x must lie in [0,1], got {x}")
    yield _row(question_mark(expand_rcf(x)) if x else x)  # ?(0) = 0 has no quotients


def _rows(row: str, *columns: Sequence[int] | Iterator[int]) -> str:
    """One %-template row per node of a block, as one string: the first
    column a list, the others the same length."""
    count, width = len(columns[0]), len(columns)
    flat = [0] * (count * width)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return row * count % tuple(flat)


def _cmd_stern_brocot(args: SimpleNamespace) -> Iterator[str]:
    _check_walk(args.n, 0, "--n", 1)
    yield "0\t1\n"
    for ps, qs, _, _ in walk_blocks(args.n):
        yield _rows("%d\t%d\n", ps, qs)
    yield "1\t1\n"


def _cmd_xi(args: SimpleNamespace) -> Iterator[str]:
    _check_walk(args.n, 1, "--n", 2)
    yield "0\t1\t0\n"
    for ps, qs, depths, base in walk_blocks(args.n, 2):
        yield _rows("%d\t%d\t%d\n", ps, qs, map(add, depths, repeat(base)))
    yield "1\t1\t0\n"


def _cmd_theta(args: SimpleNamespace) -> Iterator[str]:
    k = args.k
    _check_walk(k, 1, "--k", 2, deepest=True)
    row = f"%d\t%d\t{k}\n"
    for ps, qs, _, _ in walk_blocks(k, 2, deepest=True):
        yield _rows(row, ps, qs)


def _cmd_convert_cf(args: SimpleNamespace) -> Iterator[str]:
    if not 0 < args.x < 1:
        raise ValueError(f"--x must lie in (0,1), got {args.x}")
    regular = expand_rcf(args.x)
    reduced = rcf_to_rrcf(regular)  # both before a line is written
    yield f"{regular}\n"
    yield f"{reduced}\n"


def _cmd_verify_theorem1(args: SimpleNamespace) -> Generator[str, None, int | None]:
    report = verify_theorem1(args.x, args.n_max, args.tol)
    target = str(report.target)
    for row in report.rows:
        yield f"{row.n}\t{row.empirical}\t{target}\t{row.abs_error_decimal}\n"
    yield "PASS\n" if report.passed else "FAIL\n"
    return None if report.passed else 1


def _cmd_plot_data(args: SimpleNamespace) -> Iterator[str]:
    lam = args.lam
    zero = g_inductive(Fraction(0), lam)  # refuses lam outside (0,1) before it is priced
    _check_walk(args.grid, 1, "--grid", 2, lam=lam)
    nodes = graded_walk(args.grid, 2, lam)  # its own checks, before the first row
    yield _row(Fraction(0), zero)  # g(0) = 0 and g(1) = 1, in lam's type
    # each node's row as _row(Fraction(p, q), g) prints it, PLOT_CHUNK rows
    # to a string: p/q is a walk node, already in lowest terms, and it and
    # a rational g in [0, 1] take to_decimal's half-up rounding inline;
    # a surd g takes to_decimal itself, the one rounding of a surd
    scale, unit, decimal = 10 ** (DISPLAY_DIGITS + 1), 10 ** DISPLAY_DIGITS, f"%d.%0{DISPLAY_DIGITS}d"
    surd = isinstance(lam, QuadSurd)
    row = f"%d/%d\t%s\t{decimal}\t" + ("%s\n" if surd else f"{decimal}\n")
    while chunk := list(islice(nodes, PLOT_CHUNK)):
        if surd:
            yield "".join([row % (p, q, g, *divmod((p * scale // q + 5) // 10, unit),
                                  to_decimal(g, DISPLAY_DIGITS)) for p, q, _, g in chunk])
        else:
            yield "".join([row % (p, q, g, *divmod((p * scale // q + 5) // 10, unit),
                                  *divmod((g.numerator * scale // g.denominator + 5) // 10, unit))
                           for p, q, _, g in chunk])
    yield _row(Fraction(1), g_inductive(Fraction(1), lam))


#: Every subcommand, declared once, by its words, in the order `--help`
#: lists them: (help, description, handler, options), and each option
#: (flag, dest, converter, default, choices, help); a default of None
#: makes the option required. `verify` has no handler: it only groups
#: `verify theorem1`.
_COMMANDS = {
    ("eval",): (
        "evaluate the singular function g at a rational point",
        "Prints the exact value (p/q or a+b√5) and a 15-digit decimal, tab-separated.",
        _cmd_eval,
        (("--lambda", "lam", _lambda_arg, None, None, "split parameter in (0,1): p/q, a+b√5, tau or tau2"),
         ("--x", "x", _rational_arg, None, None, "evaluation point in [0,1]"),
         ("--route", "route", str, "series", ("inductive", "series", "tau2", "salem"),
          "evaluation route (tau2 needs --lambda tau2, salem needs --lambda 1/2)"))),
    ("eval-stream",): (
        "enclose g at an irrational point given by its partial quotients on stdin",
        "Reads whitespace-separated partial quotients from stdin and prints "
        "lo hi lo-decimal hi-decimal, tab-separated, with hi - lo < epsilon.",
        _cmd_eval_stream,
        (("--lambda", "lam", _lambda_arg, None, None, None),
         ("--epsilon", "epsilon", _rational_arg, None, None, "enclosure width, e.g. 1/1048576 or 1e-6"))),
    ("question-mark",): (
        "evaluate Minkowski's ?(x) at a rational point",
        "Prints the exact dyadic value and a 15-digit decimal, tab-separated.",
        _cmd_question_mark,
        (("--x", "x", _rational_arg, None, None, "point in [0,1]"),)),
    ("stern-brocot",): (
        "emit a Stern-Brocot level as TSV",
        "One line per element: numerator<TAB>denominator, increasing.",
        _cmd_stern_brocot,
        (("--n", "n", int, None, None, "level index"),)),
    ("xi",): (
        "emit the reduced-fraction sequence xi(n) as TSV",
        "One line per element: numerator<TAB>denominator<TAB>generation, "
        "increasing; the endpoints 0 and 1 carry generation 0.",
        _cmd_xi,
        (("--n", "n", int, None, None, "sequence index"),)),
    ("theta",): (
        "emit one generation of the reduced-fraction tree as TSV",
        "One line per element: numerator<TAB>denominator<TAB>generation, increasing.",
        _cmd_theta,
        (("--k", "k", int, None, None, "generation index (>= 1)"),)),
    ("convert-cf",): (
        "print both continued-fraction expansions of a rational",
        "Line 1: regular expansion [0;a1,...]; line 2: reduced expansion [[1;b1,...]].",
        _cmd_convert_cf,
        (("--x", "x", _rational_arg, None, None, "point in (0,1)"),)),
    ("verify",): ("run a convergence verification", "Exit code 0 on PASS, 1 on FAIL.", None, ()),
    ("verify", "theorem1"): (
        "check that the xi empirical distribution converges to g at lambda = tau2",
        "TSV rows: n, empirical p/q, exact target, |error| as a 30-digit decimal; "
        "then a single PASS or FAIL line comparing the final error to --tol.",
        _cmd_verify_theorem1,
        (("--x", "x", _rational_arg, None, None, "point in (0,1)"),
         ("--n-max", "n_max", int, 25, None, "largest sequence index (default 25)"),
         ("--tol", "tol", _rational_arg, Fraction(1, 50), None, "tolerance on the final error (default 0.02)"))),
    ("plot-data",): (
        "emit (x, g(x)) samples over the xi(grid) points as TSV",
        "One line per point: x p/q, exact g, x decimal, g decimal.",
        _cmd_plot_data,
        (("--lambda", "lam", _lambda_arg, None, None, None),
         ("--grid", "grid", int, None, None, "xi sequence index to sample at"))),
}
#: The namespace field of a command's first word, and of its second.
_WORD_DESTS = ("command", "what")


def build_parser():
    """The argparse parser of `_COMMANDS`: the only producer of help,
    usage and error text, built only for a command line that `_parse`
    cannot read."""
    import argparse  # here, not at import: a well-formed command needs neither it nor the parser

    parser = argparse.ArgumentParser(
        prog="sternbrocot",
        description="Exact Stern-Brocot / reduced continued fraction toolkit.",
    )
    groups = {(): parser.add_subparsers(dest=_WORD_DESTS[0], required=True)}
    for words, (summary, description, handler, options) in _COMMANDS.items():
        sub = groups[words[:-1]].add_parser(words[-1], help=summary, description=description)
        if handler is None:
            groups[words] = sub.add_subparsers(dest=_WORD_DESTS[len(words)], required=True)
            continue
        for flag, dest, convert, default, choices, help_ in options:
            sub.add_argument(flag, dest=dest, type=convert, required=default is None, default=default,
                             choices=choices, help=help_)
        sub.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The fields that `build_parser().parse_args(argv)` reads from a
    well-formed argv, read from `_COMMANDS` without argparse: a command's
    words, then each of its options at most once, as --flag=value with
    the exact flag. None for any other argv, which argparse then reads,
    or answers with its help or its error: an unknown command, a token
    with no "=", an abbreviated, unknown or repeated flag, a required
    option left out, or a value that its converter refuses or that is
    not one of its choices."""
    words = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else tuple(argv[:1])
    command = _COMMANDS.get(words)
    if command is None or command[2] is None:
        return None
    _, _, handler, options = command
    flags, given = [option[0] for option in options], {}
    for token in argv[len(words):]:
        flag, equals, text = token.partition("=")
        if not equals or flag not in flags or flag in given:
            return None
        given[flag] = text
    fields = {**dict(zip(_WORD_DESTS, words)), "handler": handler}
    for flag, dest, convert, default, choices, _ in options:
        if flag in given:
            try:
                value = convert(given[flag])
            except Exception:  # argparse reports the value, or raises what it raised
                return None
            if choices and value not in choices:
                return None
        elif default is None:  # a required option left out
            return None
        else:
            value = default
        fields[dest] = value
    return SimpleNamespace(**fields)


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
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        # argparse mistakes a value like -1/2 or -1/2+1/2√5 for an option: attach it by =
        if (argv[i].startswith("--") and argv[i] not in ("--", "--help") and "=" not in argv[i]
                and not argv[i + 1].startswith("--")):
            argv[i:i + 2] = ["=".join(argv[i:i + 2])]
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed usage/help
            return int(exc.code or 0)
    try:
        return _write(args.handler(args))
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past int or index range
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write(chunks: Generator[str, None, int | None]) -> int:
    """Write each chunk of a command's text to stdout, the one writer of
    every command; return the command's exit code."""
    try:
        while True:
            sys.stdout.write(next(chunks))
    except StopIteration as done:
        return done.value or 0


def main() -> None:
    """The process entry of the console script and `python -m`: run one
    command, then exit with its code."""
    # Everything alive here (the imported modules, their functions and
    # constants) lives until the process ends. Freezing it keeps it out of
    # every later collection, the ones at shutdown included, which would
    # otherwise traverse its thousands of objects and break their cycles
    # one by one, only for the process to end; atexit handlers still run.
    # Not in run(): tests, the benchmark's traced child and library
    # callers call run() in processes that go on living.
    gc.freeze()
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
