"""Replay every pinned stdout and ending of the CLI under the interpreter that runs this.

    python tools/replay.py

Each case runs `python -m sternbrocot.cli ARGV` in a child process, with
this interpreter, `src/` first on PYTHONPATH and the case's stdin, and
compares its stdout with a pin, or its ending with the checks that the
workflow makes of it. The cases are read, not copied:

- golden: every `GOLDEN_RUNS` entry of tests/test_cli.py, against its
  file in tests/golden;
- digest: every `DIGESTS` entry of tests/test_cli.py, against its sha256,
  with the stdin of its " < LINE" suffix or its `DIGEST_STDIN` entry. A
  key that is an f-string may call `fibonacci(n)`, computed here;
- workflow: every stdout pin of the console-script step of
  .github/workflows/tier1.yml: a sha256 piped (`sternbrocot ARGV |
  sha256sum`), or a run through a file (`sternbrocot ARGV > FILE`) with
  the checks that follow it: `sha256sum < FILE`, its bytes (`wc -c`), or
  `printf 'TEXT' | cmp - FILE`;
- ending: every other run of that step, with the `test` and `grep` lines
  that follow it. A run is either `[timeout S] sternbrocot ARGV [< FILE]
  > OUT 2> ERR || status=$?`, its stdin a FILE the step wrote with
  `python -c "print('C' * N)"`, or the same with `python -c "CODE"`, the
  library in this interpreter, in place of `sternbrocot ARGV`, or
  `sternbrocot ARGV 2> ERR | head -n 1`, whose reader closes the pipe
  after one line. Its checks are the exit status, an empty file, a file's
  line count, a `grep -q` pattern and the last line of a file.

A pinned case passes when the child exits 0 and its stdout matches; an
ending or a run through a file passes when each of its checks holds, and
a run through a file, which nothing guards with `|| status=$?`, exits 0
as the step's shell demands. One line per case gives its
time, then a summary line; the exit status is 1 if any case failed. Only
the standard library is used, so the tool runs under any interpreter
that pyproject.toml admits, test packages or not.
"""

from __future__ import annotations

import ast
import hashlib
import os
import platform
import re
import shlex
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_cli.py"
GOLDEN = ROOT / "tests" / "golden"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

PIPED_PIN = re.compile(r"""test "\$\((?:printf '(?P<stdin>[^']*)' \| )?sternbrocot (?P<argv>[^|]*) """
                       r"""\| sha256sum \| cut -d ' ' -f 1\)" = (?P<digest>[0-9a-f]{64})""")
WRITTEN = re.compile(r"sternbrocot (?P<argv>[^>|]*) > (?P<file>\S+)$")
MADE = re.compile(r"""python -c "print\('(?P<text>[^']*)' \* (?P<count>\d+)\)" > (?P<file>\S+)""")
ENDING = re.compile(r"(?:timeout (?P<timeout>\d+) )?(?P<command>sternbrocot|python) (?P<argv>[^<>|]*?)"
                    r"(?: < (?P<stdin>\S+))?(?: > (?P<out>\S+))? 2> (?P<err>\S+) \|\| status=\$\?")
HEAD = re.compile(r"\(set \+o pipefail; sternbrocot (?P<argv>[^<>|]*?) 2> (?P<err>\S+) \| head -n 1\)")
#: The checks an ending may carry, each a predicate of the match, the exit
#: status and the run's files by name.
CHECKS = [
    (re.compile(r'test "\$status" -eq (?P<code>\d+)'), lambda m, code, files: code == int(m["code"])),
    (re.compile(r"test ! -s (?P<file>\S+)"), lambda m, code, files: files[m["file"]] == b""),
    (re.compile(r'test "\$\(wc -l < (?P<file>\S+)\)" -eq (?P<count>\d+)'),
     lambda m, code, files: files[m["file"]].count(b"\n") == int(m["count"])),
    (re.compile(r'test "\$\(wc -c < (?P<file>\S+)\)" -eq (?P<count>\d+)'),
     lambda m, code, files: len(files[m["file"]]) == int(m["count"])),
    (re.compile(r"""test "\$\(sha256sum < (?P<file>\S+) \| cut -d ' ' -f 1\)" = (?P<digest>[0-9a-f]{64})"""),
     lambda m, code, files: _sha256(files[m["file"]]) == m["digest"]),
    (re.compile(r"printf '(?P<text>[^']*)' \| cmp - (?P<file>\S+)"),
     lambda m, code, files: files[m["file"]] == _printf(m["text"]).encode()),
    (re.compile(r"grep -q '(?P<pattern>[^']*)' (?P<file>\S+)"),
     lambda m, code, files: re.search(m["pattern"].encode(), files[m["file"]], re.M) is not None),
    (re.compile(r'test "\$\(tail -n 1 (?P<file>\S+)\)" = (?P<text>\S+)'),
     lambda m, code, files: files[m["file"]].splitlines()[-1:] == [m["text"].encode()]),
]


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1, by the plain loop."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _value(node: ast.expr) -> object:
    """A literal, or an f-string whose fields are `fibonacci(n)` calls."""
    if not isinstance(node, ast.JoinedStr):
        return ast.literal_eval(node)
    parts = []
    for part in node.values:
        if isinstance(part, ast.FormattedValue):
            call = part.value
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "fibonacci" and len(call.args) == 1):
                raise ValueError(f"an f-string field other than fibonacci(n): {ast.unparse(call)}")
            parts.append(str(fibonacci(ast.literal_eval(call.args[0]))))
        else:
            parts.append(part.value)
    return "".join(parts)


def assignments(path: Path, *names: str) -> list[dict]:
    """The dict literals assigned to the names at module level in a file."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    pairs = zip(node.value.keys, node.value.values)
                    found[target.id] = {_value(key): _value(value) for key, value in pairs}
    return [found[name] for name in names]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _printf(text: str) -> str:
    """The text printf writes for a format with no conversions, the two
    escapes the step uses, \\t and \\n, decoded."""
    return text.replace("\\t", "\t").replace("\\n", "\n")


class Ending(NamedTuple):
    """How an ending case, or a run through a file, runs, and what it checks."""
    files: dict[str, str]  # the run's file names: "out" for stdout, "err" for stderr
    checks: list[str]  # the workflow's check lines, each one of CHECKS
    timeout: float | None = None
    head: bool = False  # the reader takes one line of stdout, then closes it
    python: bool = False  # the argv is the interpreter's (python -c CODE), not the CLI's
    exits_zero: bool = False  # no `|| status=$?` guards the run, so it must exit 0


def _check(line: str) -> tuple[re.Match, Callable[[re.Match, int, dict[str, bytes]], bool]] | None:
    """The match and predicate of a check line, or None."""
    for pattern, holds in CHECKS:
        if match := pattern.fullmatch(line):
            return match, holds
    return None


def cases() -> list[tuple[str, list[str], str, str | Ending]]:
    """(kind, argv, stdin, expected) of every pinned stdout and every
    ending: a sha256 for a pin, an `Ending` for an ending or a run
    through a file."""
    golden_runs, digests, digest_stdin = assignments(TESTS, "GOLDEN_RUNS", "DIGESTS", "DIGEST_STDIN")
    found = [("golden", argv, "", _sha256((GOLDEN / name).read_bytes()))
             for name, argv in sorted(golden_runs.items())]
    for key, digest in digests.items():
        command, _, line = key.partition(" < ")
        found.append(("digest", command.split(), line + "\n" if line else digest_stdin.get(command, ""),
                      digest))
    text = WORKFLOW.read_text(encoding="utf-8")
    made, ending = {}, None
    for line in text[text.index("- name: Console script"):].splitlines():
        line = line.strip()
        checked = line.startswith(("test ", "grep ", "printf ")) and not PIPED_PIN.fullmatch(line)
        if ending is not None and checked:
            check = _check(line)
            file = check and check[0].groupdict().get("file")
            if not check or file and file not in ending.files:
                raise ValueError(f"a check of the console-script step that this tool cannot read: {line}")
            ending.checks.append(line)
            continue
        ending = None
        if match := PIPED_PIN.fullmatch(line):
            stdin = _printf(match["stdin"] or "")
            found.append(("workflow", shlex.split(match["argv"]), stdin, match["digest"]))
        elif match := ENDING.fullmatch(line):
            files = {match[stream]: stream for stream in ("out", "err") if match[stream]}
            ending = Ending(files, [], match["timeout"] and float(match["timeout"]),
                            python=match["command"] == "python")
            found.append(("ending", shlex.split(match["argv"]), made[match["stdin"]] if match["stdin"] else "",
                          ending))
        elif match := HEAD.fullmatch(line):
            ending = Ending({match["err"]: "err"}, [], head=True)
            found.append(("ending", shlex.split(match["argv"]), "", ending))
        elif match := WRITTEN.fullmatch(line):
            ending = Ending({match["file"]: "out"}, [], exits_zero=True)
            found.append(("workflow", shlex.split(match["argv"]), "", ending))
        elif match := MADE.fullmatch(line):
            made[match["file"]] = match["text"] * int(match["count"]) + "\n"
    return found


def replay(argv: list[str], stdin: str = "", timeout: float | None = None,
           head: bool = False, python: bool = False) -> tuple[int, bytes, bytes]:
    """(exit status, stdout, stderr) of one child, the CLI or, with python,
    the interpreter itself on argv; with head, the stdout of the one line
    read before the pipe is closed. A child past its timeout is killed,
    and its status is 124, as timeout(1) gives."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, *([] if python else ["-m", "sternbrocot.cli"]), *argv]
    if head:
        with subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as child:
            out = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            return child.wait(), out, err
    try:
        child = subprocess.run(command, input=stdin.encode("utf-8"), capture_output=True, env=env,
                               timeout=timeout, check=False)
    except subprocess.TimeoutExpired as late:
        return 124, late.stdout or b"", late.stderr or b""
    return child.returncode, child.stdout, child.stderr


def passes(argv: list[str], stdin: str, expected: str | Ending) -> tuple[bool, int]:
    """Whether one case's child matches its pin, or meets its ending's
    checks, and the child's exit status."""
    if not isinstance(expected, Ending):
        code, out, err = replay(argv, stdin)
        sys.stderr.buffer.write(err)  # empty unless the child failed
        return code == 0 and _sha256(out) == expected, code
    code, out, err = replay(argv, stdin, expected.timeout, expected.head, expected.python)
    files = {name: out if stream == "out" else err for name, stream in expected.files.items()}
    return ((code == 0 or not expected.exits_zero)
            and all(holds(match, code, files) for match, holds in map(_check, expected.checks))), code


def main() -> int:
    failed, start = 0, time.perf_counter()
    found = cases()
    for kind, argv, stdin, expected in found:
        began = time.perf_counter()
        ok, code = passes(argv, stdin, expected)
        failed += not ok
        shown = stdin.strip() if len(stdin) <= 80 else f"{len(stdin)} characters"
        python = isinstance(expected, Ending) and expected.python
        print(f"{'ok' if ok else 'FAIL'}\t{time.perf_counter() - began:.2f} s\t{kind}\t"
              f"{'python ' if python else ''}{shlex.join(argv)}"
              + (f" < {shown}" if stdin else "")
              + (" | head -n 1" if isinstance(expected, Ending) and expected.head else "")
              + ("" if ok else f"\texit {code}"), flush=True)
    print(f"{len(found) - failed} of {len(found)} passed in {time.perf_counter() - start:.1f} s "
          f"under Python {platform.python_version()} ({sys.executable})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
