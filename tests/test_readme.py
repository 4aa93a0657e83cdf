"""README's CLI tour as a check: every command of its `sh` block runs
through `cli.run` and exits 0, and the `# ` lines directly below a
command, up to the next blank line, are that command's stdout, tabs
included."""

import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from sternbrocot import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_runs(block: str) -> list[tuple[list[str], str | None, list[str]]]:
    """(argv, stdin or None, shown stdout lines) of each command of an `sh`
    block. A line is blank, a `# ` comment, a `sternbrocot` command, a
    `# ` line of the output shown below a command, or `echo "..." | \\`,
    whose text feeds the command on the next line; any other line raises
    ValueError."""
    runs: list[tuple[list[str], str | None, list[str]]] = []
    shown = None  # the output lines of the last command, while they last
    lines = iter(block.splitlines())
    for line in lines:
        stdin = None
        if echo := re.fullmatch(r'echo "([^"]*)" \| \\', line):
            stdin, line = echo[1] + "\n", next(lines, "").strip()
        if line.startswith("sternbrocot "):
            shown = []
            runs.append((shlex.split(line)[1:], stdin, shown))
        elif stdin is not None or not (line == "" or line.startswith("# ")):
            raise ValueError(f"a tour line that is not a command, a comment or a blank: {line!r}")
        elif line == "":
            shown = None
        elif shown is not None:
            shown.append(line[2:])
    return runs


def tour_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## CLI tour\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("\n```\n", 1)[0]


def test_every_tour_command_runs_and_prints_what_it_shows(monkeypatch, capsys):
    runs = tour_runs(tour_block())
    assert len(runs) == 11 and sum(bool(shown) for _, _, shown in runs) == 5
    for argv, stdin, shown in runs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert cli.run(argv) == 0, argv
        out = capsys.readouterr().out
        if shown:
            assert out == "".join(line + "\n" for line in shown), argv


@pytest.mark.parametrize("block", [
    "ls -l\n",
    "sternbrocot xi --n 3\n#no space\n",
    'echo "1 1" | \\\n# not a command\n',
    'echo "1 1" | \\\n',
])
def test_a_line_the_tour_reader_cannot_parse_fails(block):
    with pytest.raises(ValueError, match="not a command"):
        tour_runs(block)


def test_the_tour_reader_on_a_small_block():
    block = ('# a comment\nsternbrocot convert-cf --x 3/5\n# [0;1,1,2]\n# [[1;3,2]]\n\n# another\n'
             'echo "1 2" | \\\n    sternbrocot eval-stream --lambda 1/2 --epsilon 1e-5\n')
    assert tour_runs(block) == [(["convert-cf", "--x", "3/5"], None, ["[0;1,1,2]", "[[1;3,2]]"]),
                                (["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"], "1 2\n", [])]
