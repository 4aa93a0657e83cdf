"""The host's current speed, read from a fixed piece of pure-Python work.

On a shared host the CPU can run 1.3 to 2 times slower for tens of
seconds at a time while other tenants are busy: longer than a run, so
repeating an op within one run cannot hide it. So the benchmark times
the reference work right before each timed execution, and reports the
execution's time t as t * NOMINAL_SECONDS / r, where r is what the
reference took: the time the execution would have taken with the host
at the speed at which the reference takes NOMINAL_SECONDS. The reference
uses the interpreter alone, never the program under test, so no change
to the program moves it. It mixes interpreter dispatch (a loop) with
allocation and memory traffic (building and sorting a list of tuples),
because a busy neighbour slows the two by different amounts; the mix
followed all three workloads closer than either part alone.
"""

from __future__ import annotations

from time import perf_counter

#: The reference's time on the host the benchmark was written on (2
#: shared cores of an Intel Xeon under KVM, Python 3.11) in its quiet
#: stretches.
NOMINAL_SECONDS = 5.5e-3
LOOP_ITERATIONS = 20_000
SORTED_PAIRS = 10_000
SAMPLES = 3


def reference_seconds() -> float:
    """The fastest of SAMPLES timings of the reference work."""
    best = float("inf")
    for _ in range(SAMPLES):
        start = perf_counter()
        total, table = 0, {}
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
            table[i & 1023] = total
        pairs = [(i * 7919 % 100003, i) for i in range(SORTED_PAIRS)]
        pairs.sort()
        best = min(best, perf_counter() - start)
    return best


def scale() -> float:
    """The factor that turns a time measured now into one at nominal speed."""
    return NOMINAL_SECONDS / reference_seconds()
