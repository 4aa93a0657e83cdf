"""Every pinned run of the CLI, declared once.

A pin gives a command line and its stdin, and how the run must end: its
stdout, as a golden file in tests/golden or a sha256, and for an ending
its exit status and a pattern that its whole stderr matches. A new pin
goes in one table below and nowhere else.

- tests/test_cli.py runs `GOLDEN_RUNS` and `DIGESTS` in process, and
  `ENDINGS` in child processes through tools/replay.py;
- tools/replay.py runs every table in child processes, under the
  interpreter that runs it, `LONG_DIGESTS` included, but not
  `ARGPARSE_TEXT`: argparse wraps and quotes its text in its own way in
  each Python version, and the replay compares bytes.

Only the standard library is imported, not pytest, Hypothesis or
sternbrocot, so the replay needs no test packages.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1, by the plain loop."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN_RUNS = {
    "stern-brocot_n10.tsv": ["stern-brocot", "--n", "10"],
    "xi_n12.tsv": ["xi", "--n", "12"],
    "theta_k12.tsv": ["theta", "--k", "12"],
    "plot-data_tau2_grid8.tsv": ["plot-data", "--lambda", "tau2", "--grid", "8"],
    "plot-data_tau_grid8.tsv": ["plot-data", "--lambda", "tau", "--grid", "8"],
    "plot-data_1-3_grid8.tsv": ["plot-data", "--lambda", "1/3", "--grid", "8"],
    "plot-data_1-2_grid8.tsv": ["plot-data", "--lambda", "1/2", "--grid", "8"],
    # a composite denominator, and a Q(sqrt5) lambda = (u + v*phi)/d with d = 77
    "plot-data_2-9_grid8.tsv": ["plot-data", "--lambda", "2/9", "--grid", "8"],
    "plot-data_1-7+1-11r5_grid8.tsv": ["plot-data", "--lambda", "1/7+1/11√5", "--grid", "8"],
}

#: SHA-256 of the stdout of outputs too long for a golden file. The
#: tables' rows come from many blocks of `stern.walk_blocks` (plot-data:
#: from the walk with g), taken from the walk that wrote one row per node.
#: plot-data at 2/9, grid 18 (6,766 rows), takes `exact._phi_value`'s
#: full gcd, for a numerator that shares the prime 3 with d = 9**s, to
#: deeper nodes than its grid-8 golden file; its digest was taken before
#: `graded_walk` and `walk_blocks` shared one traversal.
#: The tau2 values of eval (139-kbit coefficients), of eval-stream (a first
#: quotient of 9546, so hi is tau**19090) and the error column of the
#: verify rows past n = 713 are printed by `to_decimal`'s norm route; their
#: digests were taken from the exact square-root route alone.
#: A key "COMMAND < LINE" runs COMMAND on the stdin LINE, so that one command
#: is pinned on more than one input (`digest_case`).
DIGESTS = {
    "stern-brocot --n 16": "6f6fa904003fd9d9888dbeaca3bf483913b6496714f95eba5fd47840d979aeee",
    "xi --n 20": "b598ae624de32a65397affb638dd752a3b041a701c308214a2366e74605a63fc",
    "theta --k 21": "3a4c32d4bb54e6f6cd74dccdc775b02bd196663740ebc621919eb48e397cf921",
    "plot-data --lambda tau2 --grid 13":
        "48ee6a0ee3bfb03c6bcfa3d2b52dc3edb58ff0cfed65c2150a80af0afcf29697",
    "plot-data --lambda 2/9 --grid 18":
        "21ee4eb023f3bb5ccf7717a665d0115d1161c9773171c89f2da80a6b5280bdc6",
    # grids of 6,765 nodes at rational lambdas, and a generation of 75,025
    # nodes, each past many chunks of rows or many blocks; digests taken
    # before plot-data wrote by chunks and theta walked generation k alone
    "plot-data --lambda 1/3 --grid 18":
        "e0d7fc1e8234a975379fc60acddb21688f83ee9f146c8dfc7b2b9c54e7b8fbb7",
    "plot-data --lambda 1/2 --grid 18":
        "b95bad0be29941dfcebb44dd9a7474097c9f5c80e9cfaed9bc300fcce5fe7d1e",
    "theta --k 25": "0fc066b7e98aa1827482cc9903d1bab20e76da331a3c90538238d4565ae000c6",
    "eval --lambda tau2 --x 1/100000":
        "ba766d47224d45499deebb36143785be74964443d4464fe11e498a4f927e37a5",
    # a wide value at the unit kernel tau, tau**99999 with 69-kbit
    # coefficients, whose decimals read the norm it carries; digest taken
    # before values carried their norms
    "eval --lambda tau --x 1/100000":
        "77524fa3d50bfab56e3a6d6e9b9feef081059731c5073bd861d57828cb36bdbd",
    "eval-stream --lambda tau2 --epsilon 1e-30":
        "59adf3a373b83b9c49242787d11d981b84967fa92a935c919e8abd842297a66e",
    "verify theorem1 --x 355/1133 --n-max 2000":
        "55bc5f88ac6e623884c6d1b4c86885a79a7686aa70937f2bcf8bc82535df3922",
    # the series at a rational lambda (d = 9) and at an irrational one
    # with d > 1, over x = F(301)/F(302) = [0; 1, ..., 1, 2], 300 quotients
    "eval --lambda 2/9 --x 1/100000":
        "86b2f924d83b81a0e6586ce54cee6b78c0ebf56d076cec72fa9215958df33633",
    f"eval --lambda 1/7+1/11√5 --x {fibonacci(301)}/{fibonacci(302)}":
        "57648c56a2eb8030bcf2936161c863dc65123426b5ce42290059f05fb4cd872a",
    "eval-stream --lambda 1/3 --epsilon 1e-30":
        "c2065d358998bf159cbcc401fc99acef424097a9f80df8e9f2bd8e4361056df4",
    # streams that stop at a wide term, decided by its leading bits: at tau
    # a quotient of 9892 at place 2 (lo lies just under 1), and at an
    # irrational lambda with d > 1, whose norm is not a unit
    "eval-stream --lambda tau --epsilon 1e-30":
        "1b1b05df12722c3946eb4cd707c4e48ee43bd6391692571c477fa59bcbcf589e",
    # the same stream at tau2, whose lo and hi lie just under 1 and whose
    # decimals are read from 1 - value by the norm route
    "eval-stream --lambda tau2 --epsilon 1e-30 < 1 9892 4 1 2":
        "9a6c83c6bd2cd6923048fcdc7dc10a58e9dafb124fc6d3356619c76e99b7446b",
    "eval-stream --lambda 1/7+1/11√5 --epsilon 1e-50":
        "6f688d9aa3ea3667787821a6b89faad6e113109a4159108c6bb93e47b44b6b13",
    # a stream whose wide first term, lam**19999 with coefficients of one
    # sign, is judged by its leading bits, and whose two bounds' decimals
    # are read the same way; digest taken before the judge read such values
    "eval-stream --lambda 1/4+1/8√5 --epsilon 1e-30":
        "862e6ad056b08059af2dc0afd92049e5ae08bae406518b1c46dc2610091298f7",
    # tau2 values just under 1, x = [0; 1, 5456, ...] and [0; 1, 3896, ...],
    # whose decimals are read from 1 - value by the norm route; digests
    # taken when they still ran the exact square root
    "eval --lambda tau2 --x 60020/60031":
        "4741d876f648d9a568ca2f512c9d8b83181f323c6da8e06c5befd650778a2a4f",
    "eval --lambda tau2 --x 179261/179307":
        "a03a026b092bdf584f24ff3d10afb29e1f42898ce6a6c6349913be6b8c77282d",
    # the two shapes of the slowest pointwise points, a quotient in
    # 1000..9999 at the first place (tau2, x = [0; 9272, ...], 15
    # quotients) or the second (1/3, x = [0; 1, 8695, ...], 14 quotients),
    # whose power the series summed from the last quotient builds once
    "eval --lambda tau2 --x 192289497/1783023865006":
        "49fff1583f739e1815b56ba05370070550257f8140eedc11bfd5a4d602221d48",
    "eval --lambda 1/3 --x 209961559609/209985706024":
        "dda50cf5bb26fa02d2090e2800cec3efa52c8807e96363ba414d41e2aee7fc3c",
    # both continued-fraction literals: a long regular expansion (300
    # quotients, x = F(301)/F(302)) and a long reduced one (99,999 digits)
    f"convert-cf --x {fibonacci(301)}/{fibonacci(302)}":
        "7a3bea1218ebe3b5c333ac0e5d3043bcefce27c31145ef5c98ce3734308b5812",
    "convert-cf --x 1/100000":
        "4569629aa0ef0293af7ae456d979bc8ce33da9e11ab7f5af72e76d80d4223b91",
}
#: The stdin of a DIGESTS command that reads one and names none in its key;
#: the others read none.
DIGEST_STDIN = {"eval-stream --lambda tau2 --epsilon 1e-30": "9546 1 2 3 4 5\n",
                "eval-stream --lambda 1/3 --epsilon 1e-30": "9546 1 2 3 4 5\n",
                "eval-stream --lambda tau --epsilon 1e-30": "1 9892 4 1 2\n",
                "eval-stream --lambda 1/7+1/11√5 --epsilon 1e-50": "2 7480 1 3 5\n",
                "eval-stream --lambda 1/4+1/8√5 --epsilon 1e-30": "20000 1 2 3\n"}
#: Digests of runs too long for tier-1, replayed only: plot-data at tau2,
#: grid 27, is priced within the output budget and writes 33,294,223
#: bytes, in 2.4-4 s.
LONG_DIGESTS = {
    "plot-data --lambda tau2 --grid 27":
        "fcea74170b30c84ab95f601e5bbb1ab44bb8b4a9a2ed5d19c8fb14dbebc8019e",
}


#: Everything argparse prints, in a golden file of tests/golden/argparse,
#: taken from the hand-built parser at COLUMNS=80 under Python 3.11.7: each
#: "help" file the stdout of a --help (exit 0), each "error" file the
#: stderr of one kind of argparse error (exit 2).
ARGPARSE_TEXT = {
    "help.txt": ["--help"],
    **{f"help_{name}.txt": [name, "--help"] for name in (
        "eval", "eval-stream", "question-mark", "stern-brocot", "xi", "theta", "convert-cf", "verify",
        "plot-data")},
    "help_verify_theorem1.txt": ["verify", "theorem1", "--help"],
    "error_no-command.txt": [],
    "error_unknown-command.txt": ["frobnicate"],
    "error_unknown-option.txt": ["xi", "--n", "3", "--bogus", "1"],
    "error_missing-option.txt": ["xi"],
    "error_missing-value.txt": ["xi", "--n"],
    "error_bad-int.txt": ["xi", "--n", "x"],
    "error_bad-rational.txt": ["question-mark", "--x", "abc"],
    "error_bad-lambda.txt": ["eval", "--lambda", "x√5", "--x", "1/2"],
    "error_bad-route.txt": ["eval", "--lambda", "1/2", "--x", "1/2", "--route", "bad"],
    "error_extra-positional.txt": ["xi", "--n", "3", "extra"],
}


def digest_case(key: str) -> tuple[list[str], str]:
    """(argv, stdin) of a DIGESTS or LONG_DIGESTS key: the line after " < "
    in the key, or the command's DIGEST_STDIN entry, or nothing."""
    command, _, line = key.partition(" < ")
    return command.split(), (line + "\n" if line else DIGEST_STDIN.get(command, ""))


#: The seconds a replayed child may run before it is killed, unless its
#: run names its own.
TIMEOUT = 60


class Run(NamedTuple):
    """One run of a child process and how it must end."""
    argv: list[str]
    stdout: str  # the sha256 of its whole stdout
    stdin: str = ""
    code: int = 0  # its exit status, negative for the signal that killed it
    stderr: str = ""  # a regular expression that its whole stderr matches
    timeout: float = TIMEOUT
    head: bool = False  # the reader takes one line of stdout and closes the pipe; stdin is empty
    python: bool = False  # argv is the interpreter's (python -c CODE), not the CLI's


#: One line of stderr, as every refusal made after parsing writes it.
ONE_ERROR_LINE = r"error: [^\n]*\n"

#: Runs pinned by how they end.
ENDINGS = [
    # a level and a generation past the output budget, and an eval-stream
    # token of 2,000,000 digits, are refused at once: exit 2, no stdout
    Run(["stern-brocot", "--n", "23"], sha256(""), code=2, stderr=ONE_ERROR_LINE),
    Run(["theta", "--k", "34"], sha256(""), code=2, stderr=ONE_ERROR_LINE),
    Run(["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"], sha256(""), stdin="7" * 2_000_000 + "\n",
        code=2, stderr=ONE_ERROR_LINE, timeout=20),
    # a reader that closes the pipe after one line ends the writer by
    # SIGPIPE (13), as `yes | head` ends, with no traceback
    Run(["xi", "--n", "25"], sha256("0\t1\t0\n"), code=-13, head=True),
    # the library refuses xi(60) against its element budget at once
    Run(["-c", "import sternbrocot; sternbrocot.xi(60)"], sha256(""), code=1,
        stderr=r"Traceback \(most recent call last\):\n(?:.*\n)*"
               r"ValueError: the sequence would pass the budget of 1048576 elements\n",
        timeout=10, python=True),
    # a verification that fails its tolerance prints its table and FAIL,
    # and exits 1 with nothing on stderr
    Run(["verify", "theorem1", "--x", "1/3", "--n-max", "5", "--tol", "0"], sha256(
        "2\t1/4\t7/2-3/2√5\t0.104101966249684544613760503097\n"
        "3\t1/3\t7/2-3/2√5\t0.187435299583017877947093836430\n"
        "4\t2/9\t7/2-3/2√5\t0.076324188471906766835982725319\n"
        "5\t3/14\t7/2-3/2√5\t0.068387680535398830328046217383\n"
        "FAIL\n"), code=1),
]
