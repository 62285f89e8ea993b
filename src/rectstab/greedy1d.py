"""Optimal one-dimensional stabbing by the greedy rule, over candidate indices.

Projecting rectangles and lines of one axis onto that axis turns single-axis
stabbing into interval piercing, solved exactly by the classic greedy rule:
process intervals by right end; whenever one is unpierced, take the
rightmost candidate inside it. The search names lines by candidate index,
so stab_1d takes each interval as the half-open range [start, end) of the
candidates that stab it (the stabber table's (a, b) or (c, d)): a range
that starts above the candidate taken last triggers and takes candidate
end - 1. Preselection (its gap needs and V0), the vertical cover's W'
count and heavy-line test, and kernelization (its group test and H0) all
run it (see rectstab.approx). The exact oracle's packing seed runs the
same trigger rule inline (see rectstab.exact).
"""

from __future__ import annotations

from typing import Iterable, Optional


def stab_1d(ranges: Iterable[tuple[int, int]]) -> Optional[list[int]]:
    """The fewest candidate indices, ascending, that stab every half-open
    range (start, end), given in order of end, then start; None when a
    triggering range is empty (start == end), which no candidate stabs."""
    taken: list[int] = []
    last = -1  # below every candidate
    for start, end in ranges:
        if start > last:
            if start == end:
                return None
            last = end - 1
            taken.append(last)
    return taken
