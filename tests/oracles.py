"""Reference predicates the tests compare the library against.

They answer one question each by the definition, with no shared index
structure, so they stay independent of the stabbing kernel in
rectstab.core.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from rectstab.core import Line, Rect, Strip


def stabs(line: Line, rect: Rect) -> bool:
    """True iff the line intersects the closed rectangle (boundary counts)."""
    a, b = rect.interval(line.axis)
    return a <= line.pos <= b


def separated(strips: Sequence[Strip], line_positions: Iterable[int]) -> bool:
    """Separation predicate for a family of disjoint parallel strips.

    True iff every pair of strips has a line between them (weakly touching
    both boundaries counts: the strips lie on opposite sides) and no line
    meets any strip's interior.
    """
    pool = sorted(set(line_positions))
    for s in strips:
        for p in pool:
            if s.contains_pos(p):
                return False

    def key(s: Strip) -> tuple[int, int]:
        return (0, s.lo) if s.lo is not None else (-1, 0)

    ordered = sorted(strips, key=key)
    for left, right in zip(ordered, ordered[1:]):
        if left.hi is None or right.lo is None:
            return False  # overlapping unbounded strips cannot be separated
        if not any(left.hi <= p <= right.lo for p in pool):
            return False
    return True
