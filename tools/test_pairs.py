"""The summary arithmetic of tools/pairs.py, on fixed numbers, and one run
of each probe set against this checkout.

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


def test_the_paired_differences():
    s = pairs.summarize(PAIRS, "lower")
    # change - base sorted: -3, -2, -2, -1.5, -1.5, -1.5, -1, -1, 0, 0.5;
    # not the difference of the two medians, 10 - 11.25
    assert s["diff"] == -1.5
    assert (s["diff_q1"], s["diff_q3"]) == (-1.875, -1.0)
    flat = pairs.summarize([(5.0, 7.0), (6.0, 8.0), (9.0, 11.0)], "lower")
    assert (flat["diff_q1"], flat["diff"], flat["diff_q3"]) == (2.0, 2.0, 2.0)


def test_higher_is_better_counts_the_other_side_and_ties_for_neither():
    s = pairs.summarize(PAIRS, "higher")
    assert (s["wins"], s["pairs"]) == (1, 10)
    assert pairs.summarize([(1.0, 1.0), (2.0, 2.0)], "lower")["wins"] == 0


def test_the_summary_line():
    line = pairs.summary_line("op_p50_ms", "ms", "lower", pairs.summarize(PAIRS, "lower"))
    assert line == ("op_p50_ms (ms, better lower): base 11.25 [10.125, 12.375] -> change 10,"
                    " change - base -1.5 [-1.875, -1], won 8 of 10")


def test_every_probe_runs_once_against_this_checkout():
    # run_once raises RunFailed on a probe that exits with another status
    # than its own: 2 for the usage error, 0 for every other one
    assert pairs.STARTUP["usage"][1] == 2
    for workload, names in (("startup", pairs.STARTUP), ("routes", pairs.ROUTE_CASES)):
        ms = pairs.run_once(pairs.ROOT, workload, 1, 0)
        assert sorted(ms) == sorted(names)
        assert all(value > 0 for value in ms.values())
    assert len(pairs.ROUTE_CASES) == 21 and "question_mark 1/2" in pairs.ROUTE_CASES
