"""Replay every pinned run of the CLI under the interpreter that runs this.

    python tools/replay.py

The cases are the tables of tests/pins.py:

- golden: every `GOLDEN_RUNS` entry, against the sha256 of its file in
  tests/golden;
- digest: every `DIGESTS` entry, against its sha256;
- long: every `LONG_DIGESTS` entry, too long for tier-1;
- ending: every `ENDINGS` run, against its exit status, the sha256 of
  its stdout and the pattern of its stderr.

Each case runs `python -m sternbrocot.cli ARGV`, or `python ARGV` for a
run of the interpreter itself, in a child process, with this
interpreter, `src/` first on PYTHONPATH and the case's stdin. A case
passes when the child's exit status is its code (0 for a golden file or
a digest), the sha256 of its stdout is its pin and its whole stderr
matches its pattern (empty unless it names one). Every child runs under
a timeout, the run's own or `pins.TIMEOUT`, so that a hung command fails
in place of stalling the caller: a child past it is killed, and its
status is 124, as timeout(1) gives. One line per case gives its time,
then a summary line; the exit status is 1 if any case failed. Only the
standard library is used, so the tool runs under any interpreter that
pyproject.toml admits, test packages or not.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tests"))
import pins  # noqa: E402


def cases() -> list[tuple[str, pins.Run]]:
    """(kind, run) of every pinned run of tests/pins.py."""
    found = [("golden", pins.Run(argv, hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()))
             for name, argv in sorted(pins.GOLDEN_RUNS.items())]
    for kind, table in (("digest", pins.DIGESTS), ("long", pins.LONG_DIGESTS)):
        for key, digest in table.items():
            argv, stdin = pins.digest_case(key)
            found.append((kind, pins.Run(argv, digest, stdin)))
    return found + [("ending", run) for run in pins.ENDINGS]


def replay(run: pins.Run) -> tuple[int, bytes, bytes]:
    """(exit status, stdout, stderr) of one child, the CLI or, with
    run.python, the interpreter itself on run.argv; with run.head, the
    stdout of the one line read before the pipe is closed. A child past
    run.timeout is killed, and its status is 124."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, *([] if run.python else ["-m", "sternbrocot.cli"]), *run.argv]
    late = threading.Event()
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as child:
        timer = threading.Timer(run.timeout, lambda: (late.set(), child.kill()))
        timer.start()
        try:
            if run.head:
                child.stdin.close()
                out = child.stdout.readline()
                child.stdout.close()
                err = child.stderr.read()
            else:
                out, err = child.communicate(run.stdin.encode("utf-8"))
        finally:
            timer.cancel()
    return (124 if late.is_set() else child.returncode), out, err


def passes(run: pins.Run) -> tuple[bool, int]:
    """Whether one run ends as pinned, and the child's exit status."""
    code, out, err = replay(run)
    ok = (code == run.code and hashlib.sha256(out).hexdigest() == run.stdout
          and re.fullmatch(run.stderr.encode("utf-8"), err) is not None)
    if not ok:
        sys.stderr.buffer.write(err)
    return ok, code


def main() -> int:
    failed, start = 0, time.perf_counter()
    found = cases()
    for kind, run in found:
        began = time.perf_counter()
        ok, code = passes(run)
        failed += not ok
        shown = run.stdin.strip() if len(run.stdin) <= 80 else f"{len(run.stdin)} characters"
        print(f"{'ok' if ok else 'FAIL'}\t{time.perf_counter() - began:.2f} s\t{kind}\t"
              f"{'python ' if run.python else ''}{shlex.join(run.argv)}"
              + (f" < {shown}" if run.stdin else "")
              + (" | head -n 1" if run.head else "")
              + ("" if ok else f"\texit {code}"), flush=True)
    print(f"{len(found) - failed} of {len(found)} passed in {time.perf_counter() - start:.1f} s "
          f"under Python {platform.python_version()} ({sys.executable})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
