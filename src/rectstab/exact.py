"""Exact minimum stabbing for small instances.

Branch and bound over the undominated rectangles and candidate lines
(Instance.reduced), with a packing lower bound. The tests cross-check it
against a subset-enumeration brute force on the raw instance
(tests/oracles.py).

Each search node carries the chosen lines and a mask of excluded lines;
the lines not excluded are live. Each node selects the live stabber sets
of the unstabbed rectangles in index order and sorts them stably by
size, which is the order of (live stabber count, index). The head of
that order is the branching rectangle (fail-first; ties go to the lowest
index), and the node is cut when it has no live stabber. Branch j over
the live stabbers j1 < j2 < ... of that rectangle chooses j and excludes
j1..j(i-1) for its whole subtree (sibling exclusion), so each line set is
reached at most once, not once per ordering of its lines.

Lines are numbered by candidate index: the horizontal lines of
inst.reduced are 0..mh-1 and its vertical lines mh.. (dedup_lines keeps
every line of a reduced instance, in this order). A rectangle with
stabber ranges (a, b, c, d) is then stabbed by the lines a..b-1 and
mh+c..mh+d-1, read off the stabber table.

Bound: no live line stabs two rectangles whose live stabber sets are
disjoint, so a set of such rectangles (a packing) needs one more line
each, and its size bounds the lines still to choose. The packing is
seeded per axis with the triggers of the 1-D greedy over the unstabbed
rectangles only that axis can stab, run on their candidate index ranges
[start, end) in order of end: a rectangle whose range starts after the
candidate taken last is a trigger, and the greedy takes its candidate
end - 1. This is greedy1d.stab_1d's trigger rule, run inline: the seed
needs each trigger's stabber mask, not the candidate it takes, and it
runs at every search node. Each trigger's range lies wholly above the
candidate taken for the one before, so their stabbers are pairwise
disjoint, and there are as many as that axis's 1-D optimum. The two axes'
triggers have stabbers on different axes. The seed is therefore never
below the additive single-axis bound, and the node's order then extends
it greedily. The node is cut when the chosen lines plus the packing reach
the incumbent's size. At the root nothing is chosen or excluded, so the
root's packing bounds every solution, and the search stops as soon as an
incumbent has that many lines. packing_bound is that root packing, by the
same code (_packing) the nodes run: the approximation skips every split
whose size bound is below it, and the solve report gives it as a proven
lower bound.

Completeness: let T be any solution that contains the chosen lines and
avoids the excluded ones. T stabs the picked rectangle; let j be the first
of its live stabbers that lies in T. Branch j adds j to the chosen lines
and excludes only stabbers before j, none of which is in T, so T is a
solution of branch j's node. By induction T is reached, or a node on its
path is cut by the bound because it cannot hold a solution smaller than
the incumbent. A node whose picked rectangle has no live stabber holds no
such T. A None result is therefore still a certificate. The stop at the
root's packing keeps the minimum and the certificate: it fires only once
an incumbent exists, and that incumbent is a minimum, since no solution
has fewer lines; a search that finds no solution runs to its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .core import Axis, Instance, Line, Solution, bits, line_masks


# bin()'s digits as the 0/1 bytes itertools.compress selects by
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class SearchBudget:
    max_size: int
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise ValueError("max_size must be nonnegative")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be nonnegative")


class NodeLimitExceeded(Exception):
    """The branch-and-bound node budget ran out before the search finished.

    incumbent is the size of the best solution found before that, an
    upper bound on the optimum, or None when none was found."""

    def __init__(self, message: str, incumbent: Optional[int] = None):
        super().__init__(message)
        self.incumbent = incumbent


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
        for pos, mask in zip(inst.line_positions(axis), line_masks(inst, axis)):
            if mask and mask not in seen:
                seen[mask] = Line(axis, pos)
    return [(ln, mask) for mask, ln in seen.items()]


def _stab_tables(inst: Instance) -> tuple[list[list[tuple[int, int, int]]], list[int]]:
    """(chains, stab_lines) over inst's rectangles, numbered as its input.

    stab_lines[i] is the mask of the lines that stab rectangle i, with the
    horizontal lines as bits 0..mh-1 and the vertical ones from mh. chains
    holds, per axis, vertical first, the rectangles that axis stabs and the
    other cannot, as (end, start, index) triples sorted in the 1-D greedy's
    order: that axis's candidates start..end-1 are their stabbers."""
    mh = len(inst.hlines)
    table = inst.stabbers
    ranges = [table.ranges[j] for j in table.ids]
    chains = [
        sorted((d, c, i) for i, (a, b, c, d) in enumerate(ranges) if a == b and c < d),
        sorted((b, a, i) for i, (a, b, c, d) in enumerate(ranges) if c == d and a < b),
    ]
    return chains, [(1 << b) - (1 << a) | ((1 << d) - (1 << c)) << mh for a, b, c, d in ranges]


def _packing(
    chains: list[list[tuple[int, int, int]]],
    stab_lines: list[int],
    unstabbed: int,
    live: int,
    need: int,
) -> tuple[int, list[int]]:
    """(pack, order) at a search node: the size of a packing of the
    unstabbed rectangles over the live lines, and their live stabber sets
    in the node's branching order (see the module docstring).

    The count stops once it reaches need. It also stops, with order empty,
    when the seed alone reaches need or when some rectangle has no live
    stabber: the node then has no completion within need lines."""
    # The seed may cut before the sort: a trigger with no live stabber
    # makes the node a dead end anyway.
    pack = 0
    used = 0
    for chain in chains:
        last = -1  # below every candidate
        for end, start, i in chain:
            if start > last and unstabbed >> i & 1:
                last = end - 1
                used |= stab_lines[i] & live
                pack += 1
    if pack >= need:
        return pack, []
    # The live stabbers of the unstabbed rectangles, by live count; the
    # sort is stable, so ties keep rectangle index order.
    selected = compress(stab_lines, bin(unstabbed)[:1:-1].encode().translate(_DIGIT_FLAGS))
    order = sorted(map(live.__and__, selected), key=int.bit_count)
    if order and not order[0]:
        return pack, []  # fail-first: a rectangle with no live stabber is a dead end
    for s in order:
        if not s & used:
            used |= s
            pack += 1
            if pack >= need:
                break
    return pack, order


def packing_bound(inst: Instance) -> int:
    """A lower bound on the size of every solution of inst: the root
    packing of the branch and bound (see the module docstring), computed
    on inst as given. opt_exact's floor is packing_bound(inst.reduced),
    which bounds inst's optimum too. An instance with a rectangle no line
    stabs has no solution, and any number bounds it."""
    chains, stab_lines = _stab_tables(inst)
    return _packing(chains, stab_lines, (1 << len(stab_lines)) - 1, -1, len(stab_lines) + 1)[0]


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
    mh = len(inst.hlines)
    masks = [m for _, m in dedup_lines(inst)]
    if len(masks) != mh + len(inst.vlines):
        raise RuntimeError("the line pool of a reduced instance must hold every line")
    chains, stab_lines = _stab_tables(inst)

    best: Optional[list[int]] = None
    best_size = budget.max_size + 1
    floor = 0  # the root's packing once it is known: no solution is smaller
    nodes = 0

    def dfs(unstabbed: int, chosen: list[int], excluded: int) -> bool:
        """Search the node's subtree; True once the incumbent is a minimum."""
        nonlocal best, best_size, floor, nodes
        nodes += 1
        if budget.node_limit is not None and nodes > budget.node_limit:
            raise NodeLimitExceeded(
                f"exceeded {budget.node_limit} search nodes", None if best is None else best_size
            )
        if not unstabbed:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return best_size <= floor
        need = best_size - len(chosen)
        pack, order = _packing(chains, stab_lines, unstabbed, ~excluded, need)
        if pack >= need or not order:
            return False
        if not chosen:
            floor = pack
        for j in bits(order[0]):
            chosen.append(j)
            if dfs(unstabbed & ~masks[j], chosen, excluded):
                return True
            chosen.pop()
            excluded |= 1 << j
        return False

    try:
        dfs((1 << len(stab_lines)) - 1, [], 0)
    finally:
        if stats is not None:
            stats.nodes += nodes
    if best is None:
        return None
    return Solution(
        hlines=[inst.hlines[j] for j in best if j < mh],
        vlines=[inst.vlines[j - mh] for j in best if j >= mh],
    )
