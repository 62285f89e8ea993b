"""Machine-speed reference for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to half between runs a minute apart: the same
sweep over the same instances took 3.4 s in one minute and 5.1 s in the
next (2-core x86 guest, Python 3.11). A short, fixed, pure-Python reference
slice is therefore timed between consecutive instances and around every
set-up, and each measured time is reported at the nominal reference speed:

    reported = measured * NOMINAL_SLICE_S / (slice time around the sample)

The slice time around a sample is the mean of the slices timed just before
and just after it. The reference code is the benchmark's own and does not
call the library, so a change to the library cannot move it; a slower
program still reads slower. Raw wall-clock values are kept in the run's
details.
"""

from __future__ import annotations

from time import perf_counter

# Slice time the bounds in BENCHMARK.json were measured against: the median
# slice time on the 2-core x86 guest where the benchmark was written.
NOMINAL_SLICE_S = 0.005


def _reference_work() -> int:
    table: dict[int, int] = {}
    pairs = []
    acc = 0
    for i in range(20000):
        table[i & 1023] = i
        acc += (i * 7) % 13
        if i % 8 == 0:
            pairs.append((i, acc))
    return acc + len(pairs)


def reference_slice() -> float:
    """Seconds one reference slice takes now."""
    t = perf_counter()
    _reference_work()
    return perf_counter() - t


def speed_factors(slices: list[float]) -> list[float]:
    """Factor for each sample timed between slices j and j + 1: the nominal
    slice time over the mean of those two slices. The machine's speed
    changes within a second, so the two adjacent slices track it better
    than any wider window (per-instance spread over repeated solves: 7% on
    uniform-min against 10% for a 9-slice running median and 23% raw)."""
    return [2 * NOMINAL_SLICE_S / (a + b) for a, b in zip(slices, slices[1:])]
