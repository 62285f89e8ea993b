"""Optimal one-dimensional stabbing by greedy rightmost-point selection.

Projecting rectangles and lines of one axis onto that axis turns single-axis
stabbing into interval piercing, solved exactly by the classic greedy rule:
process intervals by right endpoint; whenever one is unpierced, take the
rightmost candidate point inside it. stab_1d takes closed (lo, hi)
intervals and points as plain sequences, in coordinates (such as
[rect.interval(axis) for rect in rects] and inst.line_positions(axis)) or
in candidate indices: kernelization (approx.eliminate_redundant) passes
the closed index ranges (a, b - 1) of stabbers hlines[a:b] and the points
range(len(hlines)). Preselection (approx.preselect) and the exact oracle's
packing seed run the rule on the half-open index ranges directly: a range
[c, d) that starts above the candidate taken last takes candidate d - 1.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable


class Infeasible(Exception):
    """No candidate point lies inside the witness interval."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"interval [{witness[0]}, {witness[1]}] contains no candidate point")


def stab_1d(intervals: Iterable[tuple[int, int]], points: Iterable[int]) -> list[int]:
    """Minimum-cardinality subset of points piercing every closed interval.

    points need not be sorted; the result is ascending. Raises ValueError
    on an interval with lo > hi. Deterministic: the greedy rule forces
    each choice (largest point <= hi of the first unpierced interval, and
    >= its lo). Raises Infeasible with the first witnessing interval when
    some interval contains no point.
    """
    order = sorted(intervals, key=itemgetter(1, 0))
    for lo, hi in order:
        if lo > hi:
            raise ValueError(f"malformed interval ({lo}, {hi})")
    points = sorted(points)
    chosen: list[int] = []
    for lo, hi in order:
        if chosen and chosen[-1] >= lo:
            continue  # chosen ascending, last one is the only useful check
        i = bisect_right(points, hi) - 1
        if i < 0 or points[i] < lo:
            raise Infeasible((lo, hi))
        chosen.append(points[i])
    return chosen
