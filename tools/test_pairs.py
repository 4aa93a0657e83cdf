"""The summary arithmetic of tools/pairs.py, on fixed numbers.

    python3 -m pytest tools/test_pairs.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pairs  # noqa: E402

#: (base, change) of ten pairs: the change is lower in eight, higher in
#: one and tied in one.
PAIRS = [(10.0, 9.0), (12.0, 11.0), (11.0, 11.0), (13.0, 10.0), (9.0, 9.5),
         (10.5, 9.0), (11.5, 10.0), (12.5, 11.0), (10.0, 8.0), (14.0, 12.0)]


def test_medians_quartiles_and_wins():
    s = pairs.summarize(PAIRS, "lower")
    # base sorted: 9, 10, 10, 10.5, 11, 11.5, 12, 12.5, 13, 14
    assert s["base"] == 11.25
    assert (s["q1"], s["q3"]) == (10.125, 12.375)
    # change sorted: 8, 9, 9, 9.5, 10, 10, 11, 11, 11, 12
    assert s["change"] == 10.0
    assert (s["wins"], s["pairs"]) == (8, 10)


def test_higher_is_better_counts_the_other_side_and_ties_for_neither():
    s = pairs.summarize(PAIRS, "higher")
    assert (s["wins"], s["pairs"]) == (1, 10)
    assert pairs.summarize([(1.0, 1.0), (2.0, 2.0)], "lower")["wins"] == 0


def test_the_summary_line():
    line = pairs.summary_line("op_p50_ms", "ms", "lower", pairs.summarize(PAIRS, "lower"))
    assert line == ("op_p50_ms (ms, better lower): base 11.25 [10.125, 12.375] -> change 10,"
                    " won 8 of 10")
