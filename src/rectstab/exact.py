"""Exact minimum stabbing for small instances.

Branch and bound over the undominated rectangles and candidate lines
(Instance.reduced), branching on the unstabbed rectangle with the fewest
stabbing candidates, with an additive lower bound from the two single-axis
subproblems restricted to rectangles that only one axis can stab. A
subset-enumeration brute force on the raw instance serves as the
independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import Axis, Instance, Line, Solution, bits, line_masks, stab_mask
from .greedy1d import stab_axis


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


def opt_exact(inst: Instance, budget: SearchBudget) -> Optional[Solution]:
    """Minimum-size stabbing solution of size <= budget.max_size, else None.

    None certifies that no stabbing subset within the budget exists.
    Raises NodeLimitExceeded when budget.node_limit is set and hit, which
    is deliberately distinct from the no-solution outcome. The search runs
    on inst.reduced, whose optimum and solutions are inst's.
    """
    inst = inst.reduced
    n = len(inst.rects)
    full = (1 << n) - 1
    pool = dedup_lines(inst)
    masks = [m for _, m in pool]

    # Which rects can each axis stab at all? Fixed per instance.
    h_any = stab_mask(inst, inst.hlines)
    v_any = stab_mask(inst, (), inst.vlines)

    stabbers: list[list[int]] = [[] for _ in range(n)]
    for j, m in enumerate(masks):
        for i in bits(m):
            stabbers[i].append(j)
    n_stabbers = [len(s) for s in stabbers]

    best: Optional[list[int]] = None
    best_size = budget.max_size + 1
    nodes = 0

    def lower_bound(unstabbed: int) -> Optional[int]:
        if unstabbed & ~(h_any | v_any):
            return None  # some rectangle no candidate stabs
        # Rectangles only one axis can stab need that axis's 1-D optimum;
        # that axis stabs each of them, so stab_axis cannot raise here.
        lb = 0
        for axis, other_any in ((Axis.VERTICAL, h_any), (Axis.HORIZONTAL, v_any)):
            only = unstabbed & ~other_any
            if only:
                lb += len(stab_axis([inst.rects[i] for i in bits(only)], inst, axis))
        return lb

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
        pick = min(bits(unstabbed), key=n_stabbers.__getitem__)
        for j in stabbers[pick]:
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
