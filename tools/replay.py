"""Replay every pinned stdout of the CLI under the interpreter that runs this.

    python tools/replay.py

Each case runs `python -m sternbrocot.cli ARGV` in a child process, with
this interpreter, `src/` first on PYTHONPATH and the case's stdin, and
compares its stdout with a pin. The cases are read, not copied:

- golden: every `GOLDEN_RUNS` entry of tests/test_cli.py, against its
  file in tests/golden;
- digest: every `DIGESTS` entry of tests/test_cli.py, against its sha256,
  with the stdin of its " < LINE" suffix or its `DIGEST_STDIN` entry. A
  key that is an f-string may call `fibonacci(n)`, computed here;
- workflow: every sha256 pin of the console-script step of
  .github/workflows/tier1.yml, piped (`sternbrocot ARGV | sha256sum`) or
  through a file (`sternbrocot ARGV > FILE`, then `sha256sum < FILE`).

A case passes when the child exits 0 and its stdout matches. One line per
case gives its time, then a summary line; the exit status is 1 if any
case failed. Only the standard library is used, so the tool runs under
any interpreter that pyproject.toml admits, test packages or not.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_cli.py"
GOLDEN = ROOT / "tests" / "golden"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

PIPED_PIN = re.compile(r"""test "\$\((?:printf '(?P<stdin>[^']*)' \| )?sternbrocot (?P<argv>[^|]*) """
                       r"""\| sha256sum \| cut -d ' ' -f 1\)" = (?P<digest>[0-9a-f]{64})""")
WRITTEN = re.compile(r"sternbrocot (?P<argv>[^>|]*) > (?P<file>\S+)$")
FILE_PIN = re.compile(r"""test "\$\(sha256sum < (?P<file>\S+) \| cut -d ' ' -f 1\)" """
                      r"""= (?P<digest>[0-9a-f]{64})""")


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


def cases() -> list[tuple[str, list[str], str, str]]:
    """(kind, argv, stdin, expected sha256) of every pinned stdout."""
    golden_runs, digests, digest_stdin = assignments(TESTS, "GOLDEN_RUNS", "DIGESTS", "DIGEST_STDIN")
    found = [("golden", argv, "", _sha256((GOLDEN / name).read_bytes()))
             for name, argv in sorted(golden_runs.items())]
    for key, digest in digests.items():
        command, _, line = key.partition(" < ")
        found.append(("digest", command.split(), line + "\n" if line else digest_stdin.get(command, ""),
                      digest))
    text = WORKFLOW.read_text(encoding="utf-8")
    written = {}
    for line in text[text.index("- name: Console script"):].splitlines():
        line = line.strip()
        if match := PIPED_PIN.fullmatch(line):
            stdin = (match["stdin"] or "").replace("\\n", "\n")
            found.append(("workflow", shlex.split(match["argv"]), stdin, match["digest"]))
        elif match := WRITTEN.fullmatch(line):
            written[match["file"]] = shlex.split(match["argv"])
        elif match := FILE_PIN.fullmatch(line):
            found.append(("workflow", written[match["file"]], "", match["digest"]))
    return found


def replay(argv: list[str], stdin: str) -> tuple[int, bytes]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-m", "sternbrocot.cli", *argv], input=stdin.encode("utf-8"),
                           stdout=subprocess.PIPE, env=env, check=False)
    return child.returncode, child.stdout


def main() -> int:
    failed, start = 0, time.perf_counter()
    found = cases()
    for kind, argv, stdin, digest in found:
        began = time.perf_counter()
        code, out = replay(argv, stdin)
        ok = code == 0 and _sha256(out) == digest
        failed += not ok
        print(f"{'ok' if ok else 'FAIL'}\t{time.perf_counter() - began:.2f} s\t{kind}\t{shlex.join(argv)}"
              + (f" < {stdin.strip()}" if stdin else "") + ("" if ok else f"\texit {code}"), flush=True)
    print(f"{len(found) - failed} of {len(found)} matched in {time.perf_counter() - start:.1f} s "
          f"under Python {platform.python_version()} ({sys.executable})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
