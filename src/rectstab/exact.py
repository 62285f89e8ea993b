"""Exact minimum stabbing for small instances.

Branch and bound over the undominated rectangles and candidate lines
(Instance.reduced), with an additive lower bound from the two single-axis
subproblems restricted to rectangles that only one axis can stab. The
tests cross-check it against a subset-enumeration brute force on the raw
instance (tests/oracles.py).

Each search node carries the chosen lines and a mask of excluded lines.
It branches on the unstabbed rectangle with the fewest stabbers that are
not excluded (fail-first; ties go to the lowest index), and cuts the node
when that rectangle has none left. Branch j over the live stabbers j1 <
j2 < ... of that rectangle chooses j and excludes j1..j(i-1) for its whole
subtree (sibling exclusion), so each line set is reached at most once,
not once per ordering of its lines.

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

from .core import Axis, Instance, Line, Solution, bits, line_masks, stab_mask
from .greedy1d import stab_1d


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

    # Which rects can each axis stab at all? Fixed per instance.
    h_any = stab_mask(inst, inst.hlines)
    v_any = stab_mask(inst, (), inst.vlines)

    # stab_lines[i]: mask of the pool lines that stab rectangle i
    stab_lines = [0] * n
    for j, m in enumerate(masks):
        for i in bits(m):
            stab_lines[i] |= 1 << j

    best: Optional[list[int]] = None
    best_size = budget.max_size + 1
    nodes = 0

    def lower_bound(unstabbed: int) -> int:
        # Rectangles only one axis can stab need that axis's 1-D optimum.
        # dfs calls this only when every unstabbed rectangle has a live
        # stabber, so that axis stabs each of them and stab_1d cannot raise.
        lb = 0
        for axis, other_any in ((Axis.VERTICAL, h_any), (Axis.HORIZONTAL, v_any)):
            only = unstabbed & ~other_any
            if only:
                extents = [inst.rects[i].interval(axis) for i in bits(only)]
                lb += len(stab_1d(extents, inst.line_positions(axis)))
        return lb

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
        # fail-first on the stabbers not excluded; a rectangle with none is a dead end
        live = ~excluded
        pick = min(bits(unstabbed), key=lambda i: (stab_lines[i] & live).bit_count())
        branches = stab_lines[pick] & live
        if not branches:
            return
        if len(chosen) + max(lower_bound(unstabbed), 1) >= best_size:
            return
        for j in bits(branches):
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
