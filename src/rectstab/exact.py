"""Exact minimum stabbing for small instances.

Branch and bound over deduplicated candidate lines, branching on the
unstabbed rectangle with the fewest stabbing candidates, with an additive
lower bound from the two single-axis subproblems restricted to rectangles
that only one axis can stab. A subset-enumeration brute force serves as the
independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import Axis, Instance, Line, Rect, Solution, stabs
from .greedy1d import Infeasible, stab_axis


@dataclass(frozen=True)
class SearchBudget:
    max_size: int
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise ValueError("max_size must be nonnegative")


class NodeLimitExceeded(Exception):
    """The branch-and-bound node budget ran out before the search finished."""


def dedup_lines(inst: Instance) -> list[tuple[Line, int]]:
    """Candidate lines deduplicated by stabbed-rectangle set.

    Returns (line, stab mask) pairs in canonical order (horizontal before
    vertical, positions ascending). Per class of lines with identical
    stabbed sets only the canonically smallest survives; lines stabbing
    nothing are dropped since no minimal solution can use them.
    """
    seen: dict[int, tuple[Line, int]] = {}
    for ln in inst.all_lines():  # already in canonical order
        mask = 0
        for i, r in enumerate(inst.rects):
            if stabs(ln, r):
                mask |= 1 << i
        if mask and mask not in seen:
            seen[mask] = (ln, mask)
    return list(seen.values())


def _lines_to_solution(lines: list[Line]) -> Solution:
    return Solution(
        hlines=[ln.pos for ln in lines if ln.axis is Axis.HORIZONTAL],
        vlines=[ln.pos for ln in lines if ln.axis is Axis.VERTICAL],
    )


def _single_axis_lb(rects: list[Rect], inst: Instance, axis: Axis) -> Optional[int]:
    """Exact 1-D optimum for rects only the given axis can stab; None = stuck."""
    if not rects:
        return 0
    try:
        return len(stab_axis(rects, inst, axis))
    except Infeasible:
        return None


def opt_exact(inst: Instance, budget: SearchBudget) -> Optional[Solution]:
    """Minimum-size stabbing solution of size <= budget.max_size, else None.

    None certifies that no stabbing subset within the budget exists.
    Raises NodeLimitExceeded when budget.node_limit is set and hit, which
    is deliberately distinct from the no-solution outcome.
    """
    n = len(inst.rects)
    full = (1 << n) - 1
    pool = dedup_lines(inst)
    masks = [m for _, m in pool]
    hset = set(inst.hlines)
    vset = set(inst.vlines)

    # Which rects can each axis stab at all? Fixed per instance.
    h_possible = [any(r.y1 <= y <= r.y2 for y in hset) for r in inst.rects]
    v_possible = [any(r.x1 <= x <= r.x2 for x in vset) for r in inst.rects]

    stabbers: list[list[int]] = [[] for _ in range(n)]
    for j, m in enumerate(masks):
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            stabbers[i].append(j)
            mm &= mm - 1

    best: Optional[list[int]] = None
    best_size = budget.max_size + 1
    nodes = 0

    def lower_bound(unstabbed: int) -> Optional[int]:
        v_only: list[Rect] = []
        h_only: list[Rect] = []
        mm = unstabbed
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            if not h_possible[i] and not v_possible[i]:
                return None
            if not h_possible[i]:
                v_only.append(inst.rects[i])
            elif not v_possible[i]:
                h_only.append(inst.rects[i])
        lv = _single_axis_lb(v_only, inst, Axis.VERTICAL)
        lh = _single_axis_lb(h_only, inst, Axis.HORIZONTAL)
        if lv is None or lh is None:
            return None
        return lv + lh

    def dfs(unstabbed: int, chosen: list[int]) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if budget.node_limit is not None and nodes > budget.node_limit:
            raise NodeLimitExceeded(f"exceeded {budget.node_limit} search nodes")
        if not unstabbed:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        lb = lower_bound(unstabbed)
        if lb is None:
            return
        if len(chosen) + max(lb, 1) >= best_size:
            return
        # fail-first: branch on the rectangle with the fewest stabbing lines
        pick = -1
        pick_opts: list[int] = []
        mm = unstabbed
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            opts = stabbers[i]
            if pick < 0 or len(opts) < len(pick_opts):
                pick, pick_opts = i, opts
        if not pick_opts:
            return
        for j in pick_opts:
            chosen.append(j)
            dfs(unstabbed & ~masks[j], chosen)
            chosen.pop()

    dfs(full, [])
    if best is None:
        return None
    return _lines_to_solution([pool[j][0] for j in best])


def brute_force(inst: Instance, max_size: int) -> Optional[Solution]:
    """First stabbing line subset in (size, lexicographic) enumeration order.

    Enumerates subsets of the deduplicated candidate pool; intended for
    instances with at most ~20 deduplicated lines.
    """
    n = len(inst.rects)
    full = (1 << n) - 1
    pool = dedup_lines(inst)
    for size in range(0, max_size + 1):
        for combo in combinations(range(len(pool)), size):
            covered = 0
            for j in combo:
                covered |= pool[j][1]
            if covered == full:
                return _lines_to_solution([pool[j][0] for j in combo])
    return None
