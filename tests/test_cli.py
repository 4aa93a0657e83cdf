import argparse
import gc
import importlib.util
import io
import itertools
import os
import re
import signal
import subprocess
import sys
import time
import types
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from sternbrocot import (
    TAU2,
    QuadSurd,
    expand_rcf,
    g_series,
    g_tau2,
    parse_quadsurd,
    parse_rational,
    to_decimal,
    xi,
)
from sternbrocot import cf, cli, dist, singular, stern
from sternbrocot.exact import MAX_ELEMENTS as MAX_REDUCED_DIGITS
from sternbrocot.dist import _table_bytes
from sternbrocot.exact import MAX_EXACT_BITS, MAX_OUTPUT_BYTES
from sternbrocot.cli import run
from sternbrocot.xi import fibonacci

from oracles import INT_DIGITS_LIMITED, int_digit_limit
from pins import ARGPARSE_TEXT, DIGESTS, GOLDEN_RUNS, ONE_ERROR_LINE, Run, digest_case, sha256

GOLDEN = Path(__file__).parent / "golden"
OVER_BUDGET = f"error: the output would pass the budget of {MAX_OUTPUT_BYTES} bytes"

def lines_of(capsys):
    out = capsys.readouterr().out
    return out.splitlines()


class EndlessOnes:
    """A stdin that yields "1\n" forever; reading it to the end fails."""

    def __init__(self):
        self.chars_read = 0

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read to the end of an endless stream")
        self.chars_read += size
        return ("1\n" * (size // 2 + 1))[:size]


class EndlessDigits:
    """A stdin that yields "7" forever, with no separator; a fourth read
    fails, so a reader that never refuses the token cannot hang."""

    def __init__(self):
        self.reads = 0

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read to the end of an endless stream")
        self.reads += 1
        if self.reads > 3:
            raise AssertionError("a fourth read of one unterminated token")
        return "7" * size


class TestEval:
    def test_tau2_at_one_half(self, capsys):
        assert run(["eval", "--lambda", "tau2", "--x", "1/2"]) == 0
        assert lines_of(capsys) == ["3/2-1/2√5\t0.381966011250105"]

    def test_routes_agree(self, capsys):
        outputs = set()
        for route in ("inductive", "series", "tau2"):
            assert run(["eval", "--lambda", "tau2", "--x", "2/5", "--route", route]) == 0
            outputs.update(lines_of(capsys))
        assert len(outputs) == 1

    def test_salem_route_matches_series(self, capsys):
        assert run(["eval", "--lambda", "1/2", "--x", "3/7", "--route", "salem"]) == 0
        salem = lines_of(capsys)
        assert run(["eval", "--lambda", "1/2", "--x", "3/7", "--route", "series"]) == 0
        assert lines_of(capsys) == salem

    def test_rational_lambda_prints_a_fraction(self, capsys):
        assert run(["eval", "--lambda", "1/3", "--x", "2/3"]) == 0
        exact, decimal = lines_of(capsys)[0].split("\t")
        assert parse_rational(exact) == Fraction(5, 9)
        assert decimal.startswith("0.5555")

    def test_endpoints(self, capsys):
        assert run(["eval", "--lambda", "1/3", "--x", "0"]) == 0
        assert lines_of(capsys) == ["0\t0.000000000000000"]
        assert run(["eval", "--lambda", "tau2", "--x", "0", "--route", "tau2"]) == 0
        assert lines_of(capsys) == ["0\t0.000000000000000"]
        assert run(["eval", "--lambda", "1/3", "--x", "1"]) == 0
        assert lines_of(capsys)[0].split("\t")[0] == "1"

    def test_route_parameter_mismatch_is_a_usage_error(self, capsys):
        assert run(["eval", "--lambda", "1/2", "--x", "1/2", "--route", "tau2"]) == 2
        assert run(["eval", "--lambda", "tau2", "--x", "1/2", "--route", "salem"]) == 2
        capsys.readouterr()
        # x = 0 is checked like any other point
        assert run(["eval", "--lambda", "1/3", "--x", "0", "--route", "salem"]) == 2
        assert run(["eval", "--lambda", "1/2", "--x", "0", "--route", "tau2"]) == 2
        assert capsys.readouterr().out == ""

    def test_invalid_lambda_is_a_usage_error(self, capsys):
        assert run(["eval", "--lambda", "7/5", "--x", "1/2"]) == 2
        assert run(["eval", "--lambda", "nonsense", "--x", "1/2"]) == 2
        capsys.readouterr()
        assert run(["eval", "--lambda", "2", "--x", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_exponent_in_the_surd_coefficient(self, capsys):
        assert run(["eval", "--lambda", "1/2+1e-1√5", "--x", "1/2"]) == 0
        exponent = lines_of(capsys)
        assert run(["eval", "--lambda", "1/2+1/10√5", "--x", "1/2"]) == 0
        assert exponent == lines_of(capsys) == ["1/2+1/10√5\t0.723606797749979"]

    def test_unit_surd_lambda(self, capsys):
        assert run(["eval", "--lambda", "3-√5", "--x", "1/2"]) == 0
        assert lines_of(capsys) == ["3-1√5\t0.763932022500210"]

    @pytest.mark.parametrize("lam", ["tau", "tau2", "3-√5", "-2+√5", "1/3"])
    def test_printed_value_parses_back_to_itself(self, capsys, lam):
        # g(1/2) = lambda, so the printed value is a lambda the CLI must take back
        assert run(["eval", "--lambda", lam, "--x", "1/2"]) == 0
        line = lines_of(capsys)[0]
        assert run(["eval", "--lambda", line.split("\t")[0], "--x", "1/2"]) == 0
        assert lines_of(capsys) == [line]

    def test_exact_output_reparses(self, capsys):
        assert run(["eval", "--lambda", "tau2", "--x", "4/7"]) == 0
        exact = lines_of(capsys)[0].split("\t")[0]
        assert 0 < parse_quadsurd(exact) < 1

    def test_exact_value_past_the_int_digit_limit(self, capsys):
        # g(1/9100) at lambda = 1/3 has a 4342-digit denominator
        assert run(["eval", "--lambda", "1/3", "--x", "1/9100"]) == 0
        exact, decimal = lines_of(capsys)[0].split("\t")
        with int_digit_limit(0):
            assert parse_rational(exact) == g_series(expand_rcf(Fraction(1, 9100)), Fraction(1, 3))
        assert decimal == "0.000000000000000"

    def test_the_digit_limit_is_restored(self, capsys):
        with int_digit_limit(5000):
            assert run(["eval", "--lambda", "1/3", "--x", "1/9100"]) == 0
            if INT_DIGITS_LIMITED:
                assert sys.get_int_max_str_digits() == 5000
        capsys.readouterr()


class TestEvalStream:
    def test_golden_ratio_quotients(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 " * 40))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 0
        lo_text, hi_text, lo_dec, hi_dec = lines_of(capsys)[0].split("\t")
        lo, hi = parse_rational(lo_text), parse_rational(hi_text)
        assert lo < Fraction(2, 3) < hi
        assert hi - lo < Fraction(1, 10 ** 5)
        assert lo_dec.startswith("0.666") and hi_dec.startswith("0.666")

    def test_lambda_with_a_leading_minus(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 " * 40))
        assert run(["eval-stream", "--lambda", "-1/2+1/2√5", "--epsilon", "1e-5"]) == 0
        minus = lines_of(capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 " * 40))
        assert run(["eval-stream", "--lambda", "tau", "--epsilon", "1e-5"]) == 0
        assert lines_of(capsys) == minus

    def test_exhausted_stream_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-12"]) == 2
        assert "rational" in capsys.readouterr().err

    def test_endless_stream_is_read_only_as_far_as_needed(self, capsys, monkeypatch):
        stdin = EndlessOnes()
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 0
        lo, hi = map(parse_rational, lines_of(capsys)[0].split("\t")[:2])
        assert lo < Fraction(2, 3) < hi
        assert stdin.chars_read <= 2 * cli.STREAM_CHUNK

    def test_tokens_split_across_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "STREAM_CHUNK", 2)
        text = io.StringIO("12 345\n 6\t78 9")
        assert list(cli._read_quotients(text)) == [12, 345, 6, 78, 9]
        assert list(cli._read_quotients(io.StringIO(" \n"))) == []

    def test_an_overlong_token_is_refused_before_it_is_converted(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("7" * 2_000_000))
        start = time.perf_counter()
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: a quotient token is longer than {cli.MAX_TOKEN_CHARS} characters\n")

    def test_an_endless_token_is_refused_within_three_reads(self, capsys, monkeypatch):
        stdin = EndlessDigits()
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 2
        assert stdin.reads <= 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_a_token_at_the_length_limit_is_read(self, capsys, monkeypatch):
        assert cli.MAX_TOKEN_CHARS == 4300
        ones = " 1" * 40
        monkeypatch.setattr("sys.stdin", io.StringIO("0" * 4299 + "2" + ones))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 0
        padded = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("2" + ones))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 0
        assert capsys.readouterr() == padded
        assert list(cli._read_quotients(io.StringIO("0" * 4299 + "2"))) == [2]

    def test_bad_token_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1 x 1"))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"]) == 2
        capsys.readouterr()


class TestQuestionMark:
    def test_example(self, capsys):
        assert run(["question-mark", "--x", "2/3"]) == 0
        assert lines_of(capsys) == ["3/4\t0.750000000000000"]

    def test_zero(self, capsys):
        assert run(["question-mark", "--x", "0"]) == 0
        assert lines_of(capsys) == ["0\t0.000000000000000"]

    @pytest.mark.parametrize("x", ["2", "3/2", "-1/2"])
    def test_outside_the_unit_interval_is_a_usage_error(self, capsys, x):
        assert run(["question-mark", f"--x={x}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--x" in captured.err

    def test_exact_value_past_the_int_digit_limit(self, capsys):
        # ?(1/20000) = 2**-19999, a 6021-digit denominator
        assert run(["question-mark", "--x", "1/20000"]) == 0
        exact, decimal = lines_of(capsys)[0].split("\t")
        with int_digit_limit(0):
            assert parse_rational(exact) == Fraction(1, 2 ** 19999)
        assert decimal == "0.000000000000000"


class TestSequences:
    def test_stern_brocot_level(self, capsys):
        assert run(["stern-brocot", "--n", "2"]) == 0
        assert lines_of(capsys) == ["0\t1", "1\t3", "1\t2", "2\t3", "1\t1"]

    def test_stern_brocot_cap(self, capsys):
        # the output budget, from the estimate alone: --n 22 (42 MB) is
        # accepted and --n 23 refused before its first row; --cap is gone
        assert cli._walk_bytes(22, 1) <= MAX_OUTPUT_BYTES < cli._walk_bytes(23, 1)
        assert run(["stern-brocot", "--n", "23"]) == 2
        assert capsys.readouterr() == ("", f"{OVER_BUDGET}\n")
        assert run(["stern-brocot", "--n", "3", "--cap", "3"]) == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err

    def test_xi_rows(self, capsys):
        assert run(["xi", "--n", "3"]) == 0
        assert lines_of(capsys) == [
            "0\t1\t0",
            "1\t3\t3",
            "1\t2\t1",
            "2\t3\t2",
            "3\t4\t3",
            "1\t1\t0",
        ]

    def test_theta_rows(self, capsys):
        assert run(["theta", "--k", "3"]) == 0
        assert lines_of(capsys) == ["1\t3\t3", "3\t4\t3"]

    def test_caps_are_usage_errors(self, capsys):
        # xi first passes the output budget at index 32, theta, whose rows
        # are the walk's deepest alone, at 34; both from the estimate alone
        assert cli._walk_bytes(31, 2) <= MAX_OUTPUT_BYTES < cli._walk_bytes(32, 2)
        assert theta_bytes(33) <= MAX_OUTPUT_BYTES < theta_bytes(34)
        assert run(["xi", "--n", "32"]) == 2
        assert run(["theta", "--k", "34"]) == 2
        assert run(["theta", "--k", "99"]) == 2
        assert run(["xi", "--n", "0"]) == 2
        capsys.readouterr()


class TestHandlerRefusals:
    """A range or the output budget refused after parsing is one `error:`
    line, exit 2, as for a bad --x; only argparse's own errors print the
    usage block."""

    @pytest.mark.parametrize("argv", [
        ["stern-brocot", "--n", "23"],
        ["stern-brocot", "--n", "-1"],
        ["xi", "--n", "0"],
        ["xi", "--n", "32"],
        ["theta", "--k", "34"],
        ["theta", "--k", "99"],
        ["plot-data", "--lambda", "1/3", "--grid", "0"],
        ["plot-data", "--lambda", "1/3", "--grid", "29"],
        ["verify", "theorem1", "--x", "1/2", "--n-max", "17789"],
    ])
    def test_one_error_line(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("lam, grid", [("5", "40"), ("0", "40"), ("-1/2", "30")])
    def test_plot_data_checks_lambda_before_the_budget(self, capsys, lam, grid):
        assert run(["plot-data", "--lambda", lam, "--grid", grid]) == 2
        assert capsys.readouterr() == (
            "", "error: the split parameter must lie strictly between 0 and 1\n")


class TestConvertCF:
    def test_example(self, capsys):
        assert run(["convert-cf", "--x", "3/5"]) == 0
        assert lines_of(capsys) == ["[0;1,1,2]", "[[1;3,2]]"]

    def test_domain(self, capsys):
        assert run(["convert-cf", "--x", "1"]) == 2
        capsys.readouterr()


class TestVerify:
    def test_pass_and_exit_zero(self, capsys):
        assert run(["verify", "theorem1", "--x", "1/2", "--n-max", "10", "--tol", "0.05"]) == 0
        out = lines_of(capsys)
        assert out[-1] == "PASS"
        assert len(out) == 10  # n = 2..10 plus the verdict

    def test_fail_and_exit_one(self, capsys):
        assert run(["verify", "theorem1", "--x", "1/2", "--n-max", "10", "--tol", "1e-12"]) == 1
        assert lines_of(capsys)[-1] == "FAIL"

    def test_row_values_reparse(self, capsys):
        assert run(["verify", "theorem1", "--x", "2/3", "--n-max", "5", "--tol", "0.5"]) == 0
        first = lines_of(capsys)[0].split("\t")
        assert first[0] == "2"
        assert parse_rational(first[1]) == Fraction(3, 4)  # rank of 2/3 in {0,1/2,2/3,1}
        assert parse_quadsurd(first[2]) == parse_quadsurd("tau")


class TestOneExpansion:
    """A command that needs the regular expansion of x runs Euclid once:
    convert-cf derives the reduced expansion from the regular one, and
    verify theorem1 reads its target and its path runs from one."""

    @pytest.mark.parametrize("argv", [
        ["convert-cf", "--x", f"{fibonacci(301)}/{fibonacci(302)}"],
        ["verify", "theorem1", "--x", "355/1133", "--n-max", "30", "--tol", "0.5"],
    ], ids=["convert-cf", "verify"])
    def test_x_is_expanded_once(self, argv):
        counted = mock.Mock(wraps=cf.expand_rcf)
        with ExitStack() as stack:
            for module in (cf, cli, dist, singular, stern):  # every module that binds the name
                stack.enter_context(mock.patch.object(module, "expand_rcf", counted))
            code, out, err = captured_run(argv)
        assert (code, err) == (0, "")
        assert counted.call_count == 1


class TestValuesWithALeadingMinus:
    """Every --option takes the next token as its value, even one that
    starts with a minus, so the command gives its own range message."""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--lambda", "1/2", "--x", "-1/2"], "--x must lie in [0,1], got -1/2"),
        (["question-mark", "--x", "-1/2"], "--x must lie in [0,1], got -1/2"),
        (["convert-cf", "--x", "-1/2"], "--x must lie in (0,1), got -1/2"),
        (["verify", "theorem1", "--x", "-1/2"], "need 0 < x < 1, got -1/2"),
    ])
    def test_x_outside_the_range(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_negative_epsilon(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        assert run(["eval-stream", "--lambda", "1/2", "--epsilon", "-1e-5"]) == 2
        assert capsys.readouterr() == ("", "error: epsilon must be positive\n")

    def test_negative_tolerance(self, capsys):
        assert run(["verify", "theorem1", "--x", "1/2", "--n-max", "5", "--tol", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be >= 0" in captured.err

    def test_help_takes_no_value(self, capsys):
        assert run(["--help", "eval"]) == 0
        assert "usage: sternbrocot" in capsys.readouterr().out


def child_env():
    """The environment for a child `python -m sternbrocot.cli` that
    imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestHugeExponents:
    """Fraction("1e-N") builds 10**N while it parses; an exponent beyond
    4300 in absolute value is a usage error before that, whatever the
    option, and the message names the option."""

    @pytest.mark.parametrize("argv, option", [
        (["eval", "--lambda", "1/2", "--x", "1e-99999999"], "--x"),
        (["question-mark", "--x", "1e-99999999"], "--x"),
        (["verify", "theorem1", "--x", "1e-99999999", "--n-max", "3"], "--x"),
        (["eval-stream", "--lambda", "1/2", "--epsilon", "1e-99999999"], "--epsilon"),
        (["verify", "theorem1", "--x", "1/2", "--tol", "1e99999999"], "--tol"),
        (["eval", "--lambda", "1e-99999999", "--x", "1/2"], "--lambda"),
    ])
    def test_refused_before_the_power_is_built(self, argv, option):
        child = subprocess.run([sys.executable, "-m", "sternbrocot.cli", *argv], env=child_env(),
                               input=b"1 2 3", capture_output=True, timeout=10)
        assert child.returncode == 2
        assert child.stdout == b""
        assert (f"argument {option}: the exponent of '1e" in child.stderr.decode()
                and "exceeds 4300 in absolute value" in child.stderr.decode())

    def test_an_exponent_of_4300_is_read_as_before(self, capsys):
        # g(1/2) = lambda
        assert run(["eval", "--lambda", "1e-4300", "--x", "1/2"]) == 0
        exact, decimal = lines_of(capsys)[0].split("\t")
        with int_digit_limit(0):
            assert exact == f"1/{10 ** 4300}"
        assert decimal == "0.000000000000000"


class TestOverflow:
    """A result past Python's int or index size is an error (exit 2), not a
    traceback with exit 1, the code of a failed verification. The size
    budgets refuse every known input before it gets there, so the test
    raises the OverflowError itself."""

    def test_an_overflow_in_a_command_is_one_error_line(self, capsys, monkeypatch):
        def overflow(cf):
            raise OverflowError("too many digits in integer")

        monkeypatch.setattr("sternbrocot.cli.question_mark", overflow)
        assert run(["question-mark", "--x", "1/3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: too many digits in integer\n"


class TestSizeRefusals:
    """An input whose exact result would pass a documented size bound is
    refused at once, exit 2, one `error:` line and empty stdout, before
    the result is built."""

    @pytest.mark.parametrize("argv", [
        ["convert-cf", "--x", "1e-30"],  # 10**30 - 1 reduced digits
        ["convert-cf", "--x", "1e-9"],  # 10**9 - 1 reduced digits
        ["convert-cf", "--x", "1/1048578"],  # one digit past the cap
    ])
    def test_convert_cf_refuses_past_the_digit_cap(self, argv):
        child = subprocess.run([sys.executable, "-m", "sternbrocot.cli", *argv], env=child_env(),
                               capture_output=True, timeout=30)
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr.decode() == (
            f"error: the reduced expansion would pass the cap of {MAX_REDUCED_DIGITS} digits\n")

    @pytest.mark.parametrize("lam", ["1/2", "tau2", "1/7+1/11√5"])
    @pytest.mark.parametrize("route", ["series", "inductive"])
    def test_eval_refuses_past_the_bit_budget(self, lam, route):
        argv = ["eval", "--lambda", lam, "--x", "1e-4300", "--route", route]
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "sternbrocot.cli", *argv], env=child_env(),
                               capture_output=True, timeout=30)
        assert time.perf_counter() - start < 10  # it ran for minutes before the budget
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr.decode() == (
            f"error: the exact value would pass the size budget of {MAX_EXACT_BITS} bits\n")

    @pytest.mark.parametrize("x", ["1e-30", "1e-12", "1e-9"])
    def test_question_mark_refuses_past_the_bit_budget(self, x):
        # unbudgeted, the shift ends 1e-30 in an OverflowError and 1e-12 in
        # a MemoryError, and 1e-9 runs for more than 20 s
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "sternbrocot.cli", "question-mark", "--x", x],
                               env=child_env(), capture_output=True, timeout=30)
        assert time.perf_counter() - start < 10
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr.decode() == (
            f"error: the exact value would pass the size budget of {MAX_EXACT_BITS} bits\n")

    def test_eval_stream_refuses_past_the_bit_budget(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"1 {10 ** 30} 1 1"))
        assert run(["eval-stream", "--lambda", "1/3", "--epsilon", "1e-40"]) == 2
        assert capsys.readouterr().out == ""


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # nor typing; under -S, so that no site-packages .pth file loads it first
    probe = ("import sys, sternbrocot.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    child = subprocess.run([sys.executable, "-S", "-c", probe], env=child_env(),
                           capture_output=True, text=True, timeout=30)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "\n"


class TestPlotData:
    def test_curve_endpoints_and_monotonicity(self, capsys):
        assert run(["plot-data", "--lambda", "tau2", "--grid", "3"]) == 0
        rows = [line.split("\t") for line in lines_of(capsys)]
        assert len(rows) == 6
        g_values = [parse_quadsurd(row[1]) for row in rows]
        assert g_values[0] == 0 and g_values[-1] == 1
        assert all(a < b for a, b in zip(g_values, g_values[1:]))

    def test_lambda_with_a_leading_minus(self, capsys):
        assert run(["plot-data", "--lambda", "-1/2+1/2√5", "--grid", "8"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "plot-data_tau_grid8.tsv").read_text(encoding="utf-8")

    def test_rational_parameter(self, capsys):
        assert run(["plot-data", "--lambda", "1/2", "--grid", "2"]) == 0
        rows = [line.split("\t") for line in lines_of(capsys)]
        assert [row[0] for row in rows] == ["0", "1/2", "2/3", "1"]


class TestPlotDataAgainstTheSeries:
    """plot-data rows against g evaluated row by row from the quotients of x."""

    @staticmethod
    def check_rows(lam_text, grid):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(["plot-data", "--lambda", lam_text, "--grid", str(grid)]) == 0
        rows = [line.split("\t") for line in out.getvalue().splitlines()]
        lam = parse_quadsurd(lam_text)
        lam = lam.as_fraction() if lam.is_rational else lam
        assert [parse_rational(row[0]) for row in rows] == list(xi(grid).elements)
        for x_text, g_text, x_decimal, g_decimal in rows:
            x = parse_rational(x_text)
            expected = lam - lam if x == 0 else g_series(expand_rcf(x), lam)
            if lam == TAU2 and x != 0:
                assert expected == g_tau2(expand_rcf(x))
            assert g_text == str(expected)
            assert x_decimal == to_decimal(x, cli.DISPLAY_DIGITS)
            assert g_decimal == to_decimal(expected, cli.DISPLAY_DIGITS)

    @pytest.mark.parametrize("lam", ["tau2", "tau", "1/3", "1/2"])
    def test_named_parameters(self, lam):
        for grid in range(1, 9):
            self.check_rows(lam, grid)

    @settings(max_examples=25)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda lam: 0 < lam < 1), st.integers(1, 8))
    def test_rational_parameters(self, lam, grid):
        self.check_rows(str(lam), grid)


def plot_data_chunks(argv):
    """What the plot-data handler yields for argv, one string per yield."""
    args = cli.build_parser().parse_args(argv)
    return list(args.handler(args))


def open_unit_fraction(q: int, t: int) -> Fraction:
    """A fraction of (0,1) over q >= 2, in lowest terms, picked by t."""
    return Fraction(1 + t % (q - 1), q)


#: Fractions of (0,1) over 2**a 5**b, whose decimals may tie at the 16th
#: digit (a = 16 in lowest terms, b < 16), for to_decimal to round half up,
#: and over any denominator.
OPEN_UNIT = st.one_of(
    st.builds(lambda a, b, t: open_unit_fraction(2 ** a * 5 ** b, t),
              st.one_of(st.just(16), st.integers(0, 22)), st.integers(1, 22), st.integers(0, 10 ** 40)),
    st.builds(open_unit_fraction, st.integers(2, 10 ** 40), st.integers(0, 10 ** 40)))


class TestPlotDataRowsInChunks:
    """plot-data writes its node rows PLOT_CHUNK to a string, each as the one
    value formatter `cli._row` prints (x, g), with the decimals of x and of
    a rational g rounded inline."""

    @pytest.mark.parametrize("lam", ["tau2", "tau", "1/3", "1/2", "2/9", "1/7+1/11√5"])
    def test_every_row_is_the_one_value_formatters(self, lam):
        # grid 15: 1596 nodes, past the first chunk of rows
        argv = ["plot-data", "--lambda", lam, "--grid", "15"]
        value = cli._lambda_arg(lam)
        nodes = list(stern.graded_walk(15, 2, value))
        assert cli.PLOT_CHUNK < len(nodes) <= 2 * cli.PLOT_CHUNK
        expected = [cli._row(Fraction(0), singular.g_inductive(Fraction(0), value)),
                    *(cli._row(Fraction(p, q), g) for p, q, _, g in nodes),
                    cli._row(Fraction(1), singular.g_inductive(Fraction(1), value))]
        chunks = plot_data_chunks(argv)
        assert [chunk.count("\n") for chunk in chunks] == [1, cli.PLOT_CHUNK, len(nodes) - cli.PLOT_CHUNK, 1]
        assert "".join(chunks).splitlines(keepends=True) == expected
        assert captured_run(argv) == (0, "".join(expected), "")

    @settings(max_examples=200)
    @given(st.lists(st.tuples(OPEN_UNIT, OPEN_UNIT), min_size=1, max_size=4), st.booleans())
    @example([(Fraction(1, 2 ** 16), Fraction(3, 2 ** 16))], False)
    @example([(Fraction(1, 2 * 10 ** 15), Fraction(10 ** 16 - 5, 10 ** 16))], False)
    @example([(Fraction(10 ** 16 - 5, 10 ** 16), Fraction(1, 2 * 10 ** 15))], True)
    def test_the_inline_decimals_are_to_decimals(self, pairs, surd):
        # any x = p/q in lowest terms and any g in (0,1), ties at the 16th
        # digit included, given to the handler as the walk's nodes: a surd
        # g takes to_decimal, a rational one the inline rounding
        lam = "tau2" if surd else "1/3"
        pairs = [(x, QuadSurd(g, g / 7) if surd else g) for x, g in pairs]
        nodes = [(x.numerator, x.denominator, 1, g) for x, g in pairs]
        with mock.patch.object(cli, "graded_walk", lambda n, left, value: iter(nodes)):
            rows = "".join(plot_data_chunks(["plot-data", "--lambda", lam, "--grid", "1"])).splitlines(True)
        assert rows[1:-1] == [cli._row(x, g) for x, g in pairs]
        cells = [row[:-1].split("\t") for row in rows[1:-1]]
        assert [(x_decimal, g_decimal) for *_, x_decimal, g_decimal in cells] == [
            (to_decimal(x, 15), to_decimal(g, 15)) for x, g in pairs]


class TestPlotDataRefusals:
    @pytest.mark.parametrize("lam", ["2", "0", "1", "1/2+1/2√5", "1+√5"])
    def test_split_outside_the_unit_interval(self, capsys, lam):
        assert run(["plot-data", "--lambda", lam, "--grid", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "split parameter" in captured.err

    def test_unparsable_split(self, capsys):
        assert run(["plot-data", "--lambda", "x√5", "--grid", "3"]) == 2
        assert capsys.readouterr().out == ""


#: The tool that replays every pinned run of tests/pins.py in child
#: processes, under the interpreter that runs it.
REPLAY = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


def load_replay() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("replay", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


EVAL_GRID_LAMBDAS = ("1/2", "tau2", "1/3", "tau")
EVAL_GRID_XS = ("0", "1", "1/2", "3/7", "13/21", "355/1133", "1/3000")
EVAL_GRID_ROUTES = ("inductive", "series", "tau2", "salem")
EVAL_GRID_STREAM = "3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3 2 3 8 4 6 2 6 4 3 3 8 3 2 7 9 5"
EVAL_GRID_EPSILON = "1e-20"


def eval_grid() -> str:
    """One TSV row per command: argv, exit code, then its stdout line.

    Every eval route at every lambda and x of the grid, the refusals
    included, then eval-stream at four lambdas on EVAL_GRID_STREAM.
    """
    cases = [(["eval", "--lambda", lam, "--x", x, "--route", route], "")
             for lam in EVAL_GRID_LAMBDAS for x in EVAL_GRID_XS for route in EVAL_GRID_ROUTES]
    cases += [(["eval-stream", "--lambda", lam, "--epsilon", EVAL_GRID_EPSILON], EVAL_GRID_STREAM)
              for lam in ("1/2", "1/3", "tau2", "tau")]
    rows = []
    saved_stdin = sys.stdin
    try:
        for argv, stdin in cases:
            sys.stdin, out = io.StringIO(stdin), io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = run(argv)
            stdout = out.getvalue() or "\n"  # one line, or none on a refusal
            rows.append(f"{' '.join(argv)}\t{code}\t{stdout}")
    finally:
        sys.stdin = saved_stdin
    return "".join(rows)


class TestGoldenOutput:
    """Sequence and plot-data TSV, byte for byte, as the materializing
    implementation printed it (tests/golden)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_matches_the_golden_file(self, capsys, name):
        assert run(GOLDEN_RUNS[name]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_matches_the_digest(self, command):
        code, out, _ = captured_run(*digest_case(command))
        assert code == 0
        assert sha256(out) == DIGESTS[command]

    def test_no_run_is_pinned_twice(self):
        # the replay's cases are the tables of tests/pins.py, and no
        # (argv, stdin) is pinned in two of them or twice in one
        found = load_replay().cases()
        assert Counter(kind for kind, _ in found) == {"golden": 9, "digest": 25, "long": 1, "ending": 6}
        runs = Counter((run.python, tuple(run.argv), run.stdin) for _, run in found)
        assert [run for run, count in runs.items() if count > 1] == []

    def test_the_pins_import_only_the_standard_library(self):
        # no site-packages and no src/: neither the test packages nor the library
        child = subprocess.run([sys.executable, "-S", "-c", "import pins"], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": str(Path(__file__).parent)}, timeout=30)
        assert child.returncode == 0, child.stderr

    def test_the_replay_tool_fails_the_right_bytes_from_a_run_that_exits_one(self):
        replay = load_replay()
        level = next(run for kind, run in replay.cases() if kind == "golden" and run.argv[0] == "stern-brocot")
        assert replay.passes(level) == (True, 0)
        assert replay.passes(level._replace(argv=["stern-brocot", "--n", "9"])) == (False, 0)
        text = (GOLDEN / "stern-brocot_n10.tsv").read_text(encoding="utf-8")
        code = f"import sys; sys.stdout.write({text!r}); sys.exit(%d)"
        wrote = level._replace(argv=["-c", code % 1], python=True)
        assert replay.passes(wrote) == (False, 1)
        assert replay.passes(wrote._replace(argv=["-c", code % 0])) == (True, 0)

    def test_the_replay_tool_passes_every_ending_and_fails_a_run_that_exits_zero(self):
        replay = load_replay()
        endings = [run for kind, run in replay.cases() if kind == "ending"]
        for run in endings:
            assert replay.passes(run) == (True, run.code), run.argv
            if not run.head:  # a run that prints its rows and exits 0 fails each one
                assert not replay.passes(run._replace(argv=["stern-brocot", "--n", "2"], python=False))[0]
        # a refusal passes with its error line on stderr, and fails with it on stdout
        refusal = next(run for run in endings if run.stderr == ONE_ERROR_LINE)
        placed = refusal._replace(argv=["-c", "import sys; sys.stderr.write('error: no\\n'); sys.exit(2)"],
                                  python=True)
        assert replay.passes(placed) == (True, 2)
        assert replay.passes(placed._replace(argv=["-c", placed.argv[1].replace("stderr", "stdout")])) == (False, 2)

    @pytest.mark.parametrize("head", [True, False], ids=["head", "whole"])
    def test_a_child_past_its_timeout_is_killed_and_fails_with_124(self, head):
        # one line, then a sleep past the run's 0.25 s timeout, which a child's start-up stays well within
        sleeper = Run(["-c", "import time; print('0\\t1\\t0', flush=True); time.sleep(60)"], sha256("0\t1\t0\n"),
                      timeout=0.25, head=head, python=True)
        start = time.perf_counter()
        assert load_replay().passes(sleeper) == (False, 124)
        assert time.perf_counter() - start < 10

    def test_eval_grid_matches_the_golden_file(self):
        golden = (GOLDEN / "eval_grid.tsv").read_text(encoding="utf-8")
        assert len(golden.splitlines()) == 4 * 7 * 4 + 4
        assert eval_grid() == golden


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(ARGPARSE_TEXT))
    def test_argparse_prints_its_golden_text(self, name, monkeypatch):
        # the parser built from the command table prints what the
        # hand-built one printed: option order, metavars, help, descriptions
        monkeypatch.setenv("COLUMNS", "80")
        golden = (GOLDEN / "argparse" / name).read_text(encoding="utf-8")
        code, *got = captured_run(ARGPARSE_TEXT[name])
        assert code == (0 if name.startswith("help") else 2)
        want = [golden, ""] if code == 0 else ["", golden]
        if sys.version_info >= (3, 12):  # not the argparse that the goldens were taken with
            got, want = [*map(argparse_neutral, got)], [*map(argparse_neutral, want)]
        assert got == want


def argparse_neutral(text):
    """Argparse's text with each run of whitespace one space and no quote
    marks, as the argparse of every Python from 3.10 on prints it: later
    ones wrap the top-level usage line and quote an invalid choice's
    choices each their own way."""
    return " ".join(text.replace("'", "").split())


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
class TestClosedPipe:
    """A reader that stops early ends a streaming command like `yes | head`."""

    # every multi-row command, each writing more than a 64 KiB pipe buffer:
    # xi 187 KB, theta 200 KB, verify 562 KB, convert-cf 200 KB
    @pytest.mark.parametrize("argv", [["stern-brocot", "--n", "18"],
                                      ["plot-data", "--lambda", "tau2", "--grid", "15"],
                                      ["xi", "--n", "20"],
                                      ["theta", "--k", "22"],
                                      ["verify", "theorem1", "--x", "355/1133", "--n-max", "1500"],
                                      ["convert-cf", "--x", "1/100000"]])
    def test_killed_by_sigpipe_without_a_traceback(self, argv):
        child = subprocess.Popen([sys.executable, "-m", "sternbrocot.cli", *argv], env=child_env(),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == -signal.SIGPIPE
        assert stderr == b""


#: A child that registers an atexit handler, then runs `cli.main()` on its
#: argv; the handler writes the freeze count it sees as the last stderr line.
EXIT_PROBE = ("import atexit, gc, sys\n"
              "from sternbrocot import cli\n"
              "atexit.register(lambda: print(f'frozen {gc.get_freeze_count()}', file=sys.stderr))\n"
              "cli.main()\n")


class TestProcessExit:
    """`main` freezes the import-time heap for the rest of the process, so
    shutdown does not collect it; `run` leaves the caller's heap alone."""

    @pytest.mark.parametrize("argv, code", [(["stern-brocot", "--n", "2"], 0),
                                            (["verify", "theorem1", "--x", "1/3", "--n-max", "5",
                                              "--tol", "0"], 1),
                                            (["stern-brocot", "--n", "23"], 2)])
    def test_atexit_handlers_run_and_the_ending_is_unchanged(self, argv, code):
        child = subprocess.run([sys.executable, "-c", EXIT_PROBE, *argv], env=child_env(),
                               capture_output=True, text=True, timeout=60)
        expected = captured_run(argv)
        assert expected[0] == code
        *err, frozen = child.stderr.splitlines(keepends=True)
        assert (child.returncode, child.stdout, "".join(err)) == expected
        assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0

    def test_run_freezes_nothing(self):
        before = gc.get_freeze_count()
        assert captured_run(["stern-brocot", "--n", "4"])[0] == 0
        assert gc.get_freeze_count() == before


#: A small run of every subcommand, eval at each of its routes, with its
#: stdin; verify once passing and once failing.
ONE_PATH_RUNS = [
    *((["eval", "--lambda", lam, "--x", "3/7", "--route", route], "")
      for route, lam in (("inductive", "1/3"), ("series", "tau"), ("tau2", "tau2"), ("salem", "1/2"))),
    (["eval-stream", "--lambda", "1/7+1/11√5", "--epsilon", "1e-9"], "1 2 3 " * 10),
    (["question-mark", "--x", "2/7"], ""),
    (["stern-brocot", "--n", "5"], ""),
    (["xi", "--n", "6"], ""),
    (["theta", "--k", "6"], ""),
    (["convert-cf", "--x", "13/21"], ""),
    (["verify", "theorem1", "--x", "355/1133", "--n-max", "12"], ""),
    (["verify", "theorem1", "--x", "1/3", "--n-max", "5", "--tol", "0"], ""),
    (["plot-data", "--lambda", "2/9", "--grid", "5"], ""),
]


def command_words(argv):
    """The subcommand words of an argv, before its first option."""
    return tuple(itertools.takewhile(lambda word: not word.startswith("--"), argv))


def subcommands(parser, words=()):
    """(words, parser) of every leaf subcommand of a parser."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield words, parser
    for action in actions:
        for name, sub in action.choices.items():
            yield from subcommands(sub, (*words, name))


class TestOnePath:
    """Every command is a generator of its text, and `run` writes what it
    yields and nothing else, through one writer; its return value is the
    exit code."""

    @pytest.mark.parametrize("argv, stdin", ONE_PATH_RUNS,
                             ids=[" ".join(argv) for argv, _ in ONE_PATH_RUNS])
    def test_run_writes_exactly_what_the_handler_yields(self, argv, stdin, monkeypatch):
        args = cli.build_parser().parse_args(argv)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        chunks = args.handler(args)
        assert isinstance(chunks, types.GeneratorType)
        yielded = []
        with pytest.raises(StopIteration) as done:
            while True:
                yielded.append(next(chunks))
        assert yielded and all(isinstance(chunk, str) for chunk in yielded)
        with mock.patch("builtins.print", side_effect=AssertionError("a command called print")):
            assert captured_run(argv, stdin) == (done.value.value or 0, "".join(yielded), "")

    def test_every_subcommand_and_eval_route_is_covered(self):
        parsers = dict(subcommands(cli.build_parser()))
        assert {command_words(argv) for argv, _ in ONE_PATH_RUNS} == set(parsers)
        routes = next(a.choices for a in parsers[("eval",)]._actions if a.dest == "route")
        assert {argv[-1] for argv, _ in ONE_PATH_RUNS if argv[0] == "eval"} == set(routes)


def captured_run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process run, stdin given as text."""
    saved_stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def written_bytes(argv):
    code, out, _ = captured_run(argv)
    assert code in (0, 1)
    return len(out.encode())


def theta_bytes(k):
    return cli._walk_bytes(k, 2, deepest=True)


def first_walk_past_the_budget(left, lam=None, deepest=False):
    return next(n for n in range(1, 60) if cli._walk_bytes(n, left, lam, deepest) > MAX_OUTPUT_BYTES)


class TestOutputBudget:
    """One output budget, exact.MAX_OUTPUT_BYTES, checked from an exact
    estimate before the first row; the estimate bounds what is written."""

    @pytest.mark.parametrize("lam", [None, "1/3", "1/2", "tau2", "tau", "1/7+1/11√5", "1e-40"])
    def test_the_walk_estimate_bounds_the_bytes_written(self, lam):
        for n in range(1, 13):
            if lam is None:
                assert written_bytes(["stern-brocot", "--n", str(n)]) <= cli._walk_bytes(n, 1)
                assert written_bytes(["xi", "--n", str(n)]) <= cli._walk_bytes(n, 2)
                assert written_bytes(["theta", "--k", str(n)]) <= theta_bytes(n)
                continue
            assert (written_bytes(["plot-data", "--lambda", lam, "--grid", str(n)])
                    <= cli._walk_bytes(n, 2, cli._lambda_arg(lam)))

    @pytest.mark.parametrize("lam", ["1/3", "1/2", "tau2", "999999/1000000", "1/7+1/11√5"])
    def test_plot_data_at_grid_25_is_within_the_budget(self, lam):
        # from the estimate alone: each of these ran under the old default
        # cap (999999/1000000 writes 50.2 MB, 1/7+1/11√5 35.3 MB)
        assert cli._walk_bytes(25, 2, cli._lambda_arg(lam)) <= MAX_OUTPUT_BYTES

    @pytest.mark.parametrize("lam", ["tau2", "tau"])
    def test_plot_data_at_tau_and_tau2_first_passes_the_budget_at_grid_28(self, lam):
        # g at tau**2 = 2 - phi keeps denominators <= 2: grid 27 writes 33.3 MB
        # at tau2 and 34.3 MB at tau, and is priced within the budget
        assert cli._walk_bytes(27, 2, cli._lambda_arg(lam)) <= MAX_OUTPUT_BYTES
        assert first_walk_past_the_budget(2, cli._lambda_arg(lam)) == 28

    @pytest.mark.parametrize("x", ["1/2", "355/1133", "2/3", "1/3000"])
    def test_the_table_estimate_bounds_the_bytes_written(self, x):
        target = g_tau2(expand_rcf(parse_rational(x)))
        for n_max in (2, 3, 17, 40):
            argv = ["verify", "theorem1", "--x", x, "--n-max", str(n_max)]
            assert written_bytes(argv) <= _table_bytes(n_max, target)

    def test_verify_runs_past_thirty(self):
        argv = ["verify", "theorem1", "--x", "355/1133", "--n-max"]
        _, at_30, _ = captured_run([*argv, "30"])
        code, at_31, _ = captured_run([*argv, "31"])
        assert code == 0
        assert at_31.splitlines()[:29] == at_30.splitlines()[:29]
        assert at_31.splitlines()[29].startswith("31\t")

    def test_plot_data_at_a_tiny_lambda_is_refused_before_its_first_row(self):
        # lam = 1e-4000 has a 13,288-bit denominator: grids 8 and 12 (1.9 and
        # 21.5 MB) stay accepted; the first grid past the budget is refused
        first = first_walk_past_the_budget(2, cli._lambda_arg("1e-4000"))
        assert first == 14
        for grid in (first, 25, 10 ** 6, 2 ** 40):
            start = time.perf_counter()
            code, out, err = captured_run(["plot-data", "--lambda", "1e-4000", "--grid", str(grid)])
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_no_subcommand_takes_a_cap(self):
        def options(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from options(sub)

        found = list(options(cli.build_parser()))
        assert "--n-max" in found and "--grid" in found
        assert "--cap" not in found


# The CLI grammar, for the property below: every subcommand, with literals
# that carry signs, exponents near +-4300, √5 forms, p/0 and whitespace; lam
# near 0 and 1 and x near 0; small sizes, and sizes just past the output
# budget and far past it, which are refused before any row.
SIGNED_RATIONALS = st.builds("{}{}/{}".format, st.sampled_from(["", "-", "+"]),
                             st.integers(0, 30), st.integers(0, 30))
UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=50).map(str)
NEAR_ZERO = st.sampled_from(["1/300", "1e-9", "1e-12", "1e-30", "1e-4299"])
RATIONAL_LITERALS = st.one_of(UNIT_FRACTIONS, NEAR_ZERO, SIGNED_RATIONALS, st.sampled_from([
    "0", "1", " 1/3 ", "0.25", "-0.5", "1_0e-2", "7/0", "abc", "", "1e-4300", "3e-4301", "2e4300",
]))
LAMBDA_LITERALS = st.one_of(UNIT_FRACTIONS, SIGNED_RATIONALS, st.sampled_from([
    "tau", "tau2", "√5", "-√5", "3-√5", "sqrt5", "1/7+1/11√5", "-1/2+1/2√5", "-2+√5",
    "1+2e-3√5", "1/2-1/10sqrt5", "x√5", "1e-40", "1/1000000", "999999/1000000", "0.9999999",
    "1e-4301", "2e4300", "-1e-4300",
]))
FAR_PAST = (10 ** 6, 2 ** 40)
SMALL = st.integers(-1, 8)


COMMANDS = ["eval", "eval-stream", "question-mark", "stern-brocot", "xi", "theta", "convert-cf",
            "verify", "plot-data"]


@st.composite
def cli_commands(draw, command):
    """(subcommand words, [(option, value), ...], stdin) of one command."""
    if command == "eval":
        options = [("--lambda", draw(LAMBDA_LITERALS)), ("--x", draw(RATIONAL_LITERALS))]
        if draw(st.booleans()):
            options.append(("--route", draw(st.sampled_from(["inductive", "series", "tau2", "salem"]))))
        return ["eval"], options, ""
    if command == "eval-stream":
        quotient = st.integers(1, 50).map(str)
        tokens = draw(st.lists(st.one_of(quotient, quotient, quotient,
                                         st.sampled_from(["0", "-3", str(10 ** 30), "abc"])),
                               max_size=16))
        epsilon = draw(st.one_of(st.sampled_from(["1/10", "1e-3", "1/1000000"]), RATIONAL_LITERALS))
        return (["eval-stream"], [("--lambda", draw(LAMBDA_LITERALS)), ("--epsilon", epsilon)],
                " ".join(tokens))
    if command in ("question-mark", "convert-cf"):
        return [command], [("--x", draw(RATIONAL_LITERALS))], ""
    if command == "verify":
        options = [("--x", draw(RATIONAL_LITERALS)),
                   ("--n-max", str(draw(st.one_of(SMALL, st.integers(9, 40),
                                                  st.sampled_from((17789, *FAR_PAST))))))]
        if draw(st.booleans()):
            options.append(("--tol", draw(RATIONAL_LITERALS)))
        return ["verify", "theorem1"], options, ""
    if command == "plot-data":
        lam = draw(LAMBDA_LITERALS)
        sizes = [*FAR_PAST]
        try:
            sizes.append(first_walk_past_the_budget(2, cli._lambda_arg(lam)))
        except (ValueError, argparse.ArgumentTypeError):
            pass
        grid = draw(st.one_of(st.integers(-1, 6), st.sampled_from(sizes)))
        return ["plot-data"], [("--lambda", lam), ("--grid", str(grid))], ""
    left, flag = (1, "--n") if command == "stern-brocot" else (2, "--k" if command == "theta" else "--n")
    first = first_walk_past_the_budget(left, deepest=command == "theta")
    size = draw(st.one_of(SMALL, st.sampled_from((first, *FAR_PAST))))
    return [command], [(flag, str(size))], ""


DECIMAL = re.compile(r"-?\d+\.\d+")


def check_rows(command, out):
    """Every exact field of the output parses back, and each decimal column
    is its exact field rounded."""
    lines = out.splitlines()
    if command == "convert-cf":
        assert [line[:3] for line in lines] == ["[0;", "[[1"]
        return
    if command == "verify":
        assert lines[-1] in ("PASS", "FAIL")
        lines = lines[:-1]
    for line in lines:
        fields = line.split("\t")
        if command == "verify":
            _, empirical, target, error = fields
            assert to_decimal(abs(parse_quadsurd(target) - parse_rational(empirical)), 30) == error
            continue
        exact = [field for field in fields if not DECIMAL.fullmatch(field)]
        decimals = fields[len(exact):]
        values = [parse_quadsurd(field) for field in exact]
        if decimals:
            assert [to_decimal(v, cli.DISPLAY_DIGITS) for v in values] == decimals


class TestGrammarProperty:
    """Any command line, in either the `--option value` or the
    `--option=value` form, ends with exit code 0, 1 or 2 and no escaping
    exception; a refusal writes nothing to stdout and one `error:` line or
    argparse's usage to stderr; output stays within the budget and its
    exact fields parse back."""

    @pytest.mark.parametrize("name", COMMANDS)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_every_command_line(self, name, data):
        words, options, stdin = data.draw(cli_commands(name))
        spaced = captured_run([*words, *(part for pair in options for part in pair)], stdin)
        joined = captured_run([*words, *(f"{flag}={value}" for flag, value in options)], stdin)
        assert spaced == joined
        code, out, err = joined
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert (len(err.splitlines()) == 1 and err.startswith("error: ")) or err.startswith("usage: ")
            return
        assert len(out.encode()) <= MAX_OUTPUT_BYTES
        with int_digit_limit(0):
            check_rows(words[0], out)


# Literals no command accepts as they stand, or only after a range check:
# p/0 and 0/0, nan and inf, an exponent past 4300, a doubled √5,
# Arabic-Indic digits (which int and Fraction read as digits), 20-digit
# integers and leading minus signs.
ODD_LITERALS = st.sampled_from([
    "0/0", "1/0", "nan", "-inf", "1e-4301", "√5√5", "sqrt5√5", "٣/٧", "-١/٢", "٠٫٥",
    "12345678901234567890", "-12345678901234567890", "1/12345678901234567890", "-0", "-1/2", "-tau",
    "--", "-", "", " ", "tau", "tau2", "1/7+1/11√5", "1e-30", "2/9",
])
SMALL_FRACTIONS = st.fractions(0, 1, max_denominator=20).map(str)
VALUES = st.one_of(ODD_LITERALS, SMALL_FRACTIONS, SMALL_FRACTIONS)  # two in three in [0, 1]


def sizes(limit: int) -> st.SearchStrategy[str]:
    """An index up to `limit`, or a literal int() refuses or the range check does."""
    return st.one_of(st.integers(-2, limit).map(str), st.sampled_from(
        ["٩", "-٣", "12345678901234567890", "-12345678901234567890", "0/0", "nan", "", "1e3"]))


#: The options of every subcommand, each with its values: levels up to 12,
#: grids up to 9 and --n-max up to 30, so that every run is quick.
ARGV_OPTIONS = {
    ("eval",): {"--lambda": VALUES, "--x": VALUES,
                "--route": st.sampled_from(["series", "inductive", "tau2", "salem", "", "-1"])},
    ("eval-stream",): {"--lambda": VALUES, "--epsilon": VALUES},
    ("question-mark",): {"--x": VALUES},
    ("convert-cf",): {"--x": VALUES},
    ("stern-brocot",): {"--n": sizes(12)},
    ("xi",): {"--n": sizes(12)},
    ("theta",): {"--k": sizes(12)},
    ("verify", "theorem1"): {"--x": VALUES, "--n-max": sizes(30), "--tol": VALUES},
    ("plot-data",): {"--lambda": VALUES, "--grid": sizes(9)},
}
STREAM_TOKENS = st.sampled_from(["1", "2", "7", "99", "0", "-3", "٣", "12345678901234567890", "nan", "1/2"])


class TestNoArgvCrashes:
    """Any argv of a subcommand, its options in any order, left out,
    repeated or unknown, their values odd literals, exits 0, 1 or 2 with
    no escaping exception; exit 2 writes nothing to stdout and either
    argparse's usage block or one `error:` line to stderr."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2(self, data):
        words = data.draw(st.sampled_from(sorted(ARGV_OPTIONS)))
        pairs = [[flag, data.draw(values)] for flag, values in ARGV_OPTIONS[words].items()
                 if data.draw(st.integers(0, 7))]  # each option in 7 of 8 draws
        if not data.draw(st.integers(0, 7)):
            pairs.append(data.draw(st.sampled_from([["--bogus", "1"], pairs[0] if pairs else ["-x"]])))
        argv = [*words, *(part for pair in data.draw(st.permutations(pairs)) for part in pair)]
        stdin = data.draw(st.lists(STREAM_TOKENS, max_size=6).map(" ".join))
        code, out, err = captured_run(argv, stdin)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            lines = err.splitlines()
            assert (len(lines) == 1 and err.startswith("error: ")) or (
                err.startswith("usage: ") and ": error: " in lines[-1])


#: Words that name no command, or not all of one.
ODD_WORDS = [(), ("verify",), ("frobnicate",), ("verify", "theorem2"), ("-h",), ("--",)]
#: Tokens of no option of any command, among them help and the end of options.
ODD_TOKENS = ["-h", "--help", "--", "frobnicate", "--bogus=1", "--bogus", "-1/2", "=", "--=1"]


class TestTheTableReadsWhatArgparseReads:
    """`cli._parse` reads a command line only as argparse reads it: a run
    writes what it writes when `_parse` leaves every command line to
    argparse, and a command line that `_parse` reads, argparse reads as
    the same handler and fields."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_run_is_the_same_with_argparse_alone(self, data):
        command = data.draw(st.sampled_from(sorted(ARGV_OPTIONS)))
        words = command if data.draw(st.integers(0, 7)) else data.draw(st.sampled_from(ODD_WORDS))
        pairs = []
        for flag, values in ARGV_OPTIONS[command].items():
            # each option once in 6 of 8 draws, else left out or twice; its
            # flag exact in 3 of 4, else abbreviated (--n-m for --n-max)
            for _ in range(data.draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))):
                spelled = flag if data.draw(st.integers(0, 3)) else flag[:data.draw(st.integers(3, len(flag)))]
                value = data.draw(values)
                pairs.append(data.draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]])))
        pairs += data.draw(st.lists(st.sampled_from(ODD_TOKENS).map(lambda token: [token]), max_size=2))
        argv = [*words, *(part for pair in data.draw(st.permutations(pairs)) for part in pair)]
        stdin = data.draw(st.lists(STREAM_TOKENS, max_size=6).map(" ".join))

        real, read = cli._parse, []

        def spy(tokens):
            read.append((list(tokens), real(tokens)))
            return read[-1][1]

        with mock.patch.object(cli, "_parse", spy):
            ran = captured_run(argv, stdin)
        with mock.patch.object(cli, "_parse", lambda tokens: None):
            assert ran == captured_run(argv, stdin)
        [(tokens, args)] = read
        event("read by the table" if args is not None else "left to argparse")
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(tokens))

    @pytest.mark.parametrize("argv, stdin", ONE_PATH_RUNS, ids=[" ".join(argv) for argv, _ in ONE_PATH_RUNS])
    def test_the_table_reads_every_well_formed_run(self, argv, stdin):
        words = command_words(argv)
        options = argv[len(words):]
        joined = [*words, *map("=".join, zip(options[::2], options[1::2]))]
        assert vars(cli._parse(joined)) == vars(cli.build_parser().parse_args(argv))
