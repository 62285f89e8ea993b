"""Exact minimum stabbing for small instances.

Branch and bound over the undominated rectangles and candidate lines
(Instance.reduced), with a packing lower bound. The tests cross-check it
against a subset-enumeration brute force on the raw instance
(tests/oracles.py).

Each search node carries the chosen lines and a mask of excluded lines;
the lines not excluded are live. One pass per node sorts the unstabbed
rectangles by (live stabber count, index). The head of that order is the
branching rectangle (fail-first; ties go to the lowest index), and the
node is cut when it has no live stabber. Branch j over the live stabbers
j1 < j2 < ... of that rectangle chooses j and excludes j1..j(i-1) for its
whole subtree (sibling exclusion), so each line set is reached at most
once, not once per ordering of its lines.

Bound: no live line stabs two rectangles whose live stabber sets are
disjoint, so a set of such rectangles (a packing) needs one more line
each, and its size bounds the lines still to choose. The packing is
seeded per axis with the triggers of the 1-D greedy (greedy1d) over the
unstabbed rectangles only that axis can stab: the rectangles it finds
unpierced. Each trigger lies wholly above the line taken for the one
before, so their stabbers are pairwise disjoint, and there are as many as
that axis's 1-D optimum. The two axes' triggers have stabbers on
different axes. The seed is therefore never below the additive
single-axis bound, and the sorted order then extends it greedily. The
node is cut when the chosen lines plus the packing reach the incumbent's
size.

Completeness: let T be any solution that contains the chosen lines and
avoids the excluded ones. T stabs the picked rectangle; let j be the first
of its live stabbers that lies in T. Branch j adds j to the chosen lines
and excludes only stabbers before j, none of which is in T, so T is a
solution of branch j's node. By induction T is reached, or a node on its
path is cut by the bound because it cannot hold a solution smaller than
the incumbent. A node whose picked rectangle has no live stabber holds no
such T. A None result is therefore still a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import I64_MIN, Axis, Instance, Line, Solution, bits, line_masks


@dataclass(frozen=True)
class SearchBudget:
    max_size: int
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise ValueError("max_size must be nonnegative")


class NodeLimitExceeded(Exception):
    """The branch-and-bound node budget ran out before the search finished."""


@dataclass
class ExactStats:
    """Counters over the branch and bound, for run reports."""

    nodes: int = 0


def dedup_lines(inst: Instance) -> list[tuple[Line, int]]:
    """Candidate lines deduplicated by stabbed-rectangle set.

    Returns (line, stab mask) pairs in canonical order (horizontal before
    vertical, positions ascending). Per class of lines with identical
    stabbed sets only the canonically smallest survives; lines stabbing
    nothing are dropped since no minimal solution can use them.
    """
    seen: dict[int, Line] = {}
    for axis in (Axis.HORIZONTAL, Axis.VERTICAL):
        for pos, mask in line_masks(inst, axis).items():
            if mask and mask not in seen:
                seen[mask] = Line(axis, pos)
    return [(ln, mask) for mask, ln in seen.items()]


def _lines_to_solution(lines: list[Line]) -> Solution:
    return Solution(
        hlines=[ln.pos for ln in lines if ln.axis is Axis.HORIZONTAL],
        vlines=[ln.pos for ln in lines if ln.axis is Axis.VERTICAL],
    )


def _one_axis_chains(inst: Instance) -> list[list[tuple[int, int, int]]]:
    """Per axis, the rectangles that axis stabs and the other cannot, as
    (index, lo, point) in stab_1d's order (hi, then lo). point is the
    largest candidate <= hi, the line the 1-D greedy takes when the
    rectangle is the first one left unpierced; it is >= lo because the
    axis stabs the rectangle. Both are read off the stabber table: a
    rectangle with ranges (a, b, c, d) has a horizontal stabber iff a < b,
    and its largest horizontal candidate <= y2 is hlines[b - 1]."""
    table = inst.stabbers
    h_any = table.mask(["1" if a < b else "0" for a, b, _, _ in table.ranges])
    v_any = table.mask(["1" if c < d else "0" for _, _, c, d in table.ranges])
    chains = []
    axes = ((Axis.VERTICAL, v_any & ~h_any, 3), (Axis.HORIZONTAL, h_any & ~v_any, 1))
    for axis, only, end in axes:  # end: where the axis's range end sits in (a, b, c, d)
        positions = inst.line_positions(axis)
        extents = []
        for i in bits(only):
            lo, hi = inst.rects[i].interval(axis)
            extents.append((hi, lo, i))
        extents.sort()
        chains.append(
            [(i, lo, positions[table.ranges[table.ids[i]][end] - 1]) for hi, lo, i in extents]
        )
    return chains


def opt_exact(
    inst: Instance, budget: SearchBudget, stats: Optional[ExactStats] = None
) -> Optional[Solution]:
    """Minimum-size stabbing solution of size <= budget.max_size, else None.

    None certifies that no stabbing subset within the budget exists.
    Raises NodeLimitExceeded when budget.node_limit is set and hit, which
    is deliberately distinct from the no-solution outcome. The search runs
    on inst.reduced, whose optimum and solutions are inst's. stats, when
    given, gains the number of search nodes, also when the limit is hit.
    """
    inst = inst.reduced
    n = len(inst.rects)
    full = (1 << n) - 1
    pool = dedup_lines(inst)
    masks = [m for _, m in pool]
    chains = _one_axis_chains(inst)

    # stab_lines[i]: mask of the pool lines that stab rectangle i
    stab_lines = [0] * n
    for j, m in enumerate(masks):
        for i in bits(m):
            stab_lines[i] |= 1 << j

    best: Optional[list[int]] = None
    best_size = budget.max_size + 1
    nodes = 0

    def dfs(unstabbed: int, chosen: list[int], excluded: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if budget.node_limit is not None and nodes > budget.node_limit:
            raise NodeLimitExceeded(f"exceeded {budget.node_limit} search nodes")
        if not unstabbed:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        live = ~excluded
        need = best_size - len(chosen)
        # The seed may cut before the sort: a trigger with no live stabber
        # makes the node a dead end anyway.
        pack = 0
        used = 0
        for chain in chains:
            last = I64_MIN - 1  # below every coordinate
            for i, lo, point in chain:
                if lo > last and unstabbed >> i & 1:
                    last = point
                    used |= stab_lines[i] & live
                    pack += 1
        if pack >= need:
            return
        order = sorted([((stab_lines[i] & live).bit_count(), i) for i in bits(unstabbed)])
        if not order[0][0]:
            return  # fail-first: a rectangle with no live stabber is a dead end
        for _, i in order:
            s = stab_lines[i] & live
            if not s & used:
                used |= s
                pack += 1
                if pack >= need:
                    return
        for j in bits(stab_lines[order[0][1]] & live):
            chosen.append(j)
            dfs(unstabbed & ~masks[j], chosen, excluded)
            chosen.pop()
            excluded |= 1 << j

    try:
        dfs(full, [], 0)
    finally:
        if stats is not None:
            stats.nodes += nodes
    if best is None:
        return None
    return _lines_to_solution([pool[j][0] for j in best])
