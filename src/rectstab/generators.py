"""Reproducible instance and graph generators.

Planted instances carry a known stabbing set so solver guarantees that are
stated relative to an unknown optimal solution become testable; the colored
point-set path converts axis-parallel class-separation problems into
stabbing instances on doubled coordinates.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import Axis, Instance, Line, Rect, Solution, verify
from .reduction import MAX_CROSS_PAIRS, MCClique, MCGraph
from .rng import Xoshiro256StarStar


@dataclass(frozen=True)
class PlantedWitness:
    """Generator-known stabbing set; hstar/vstar positions together stab
    the emitted instance."""

    hstar: frozenset[int]
    vstar: frozenset[int]

    def __init__(self, hstar, vstar):
        object.__setattr__(self, "hstar", frozenset(hstar))
        object.__setattr__(self, "vstar", frozenset(vstar))

    def as_solution(self) -> Solution:
        return Solution(hlines=self.hstar, vlines=self.vstar)

    def __len__(self) -> int:
        return len(self.hstar) + len(self.vstar)


@dataclass(frozen=True)
class ColoredPointSet:
    points: tuple[tuple[int, int, int], ...]  # (x, y, color)

    def __init__(self, points):
        object.__setattr__(self, "points", tuple((int(x), int(y), int(c)) for x, y, c in points))


class InseparablePoints(ValueError):
    """Two points at the same position carry different colors."""


def gen_planted(k: int, n: int, coord_range: int, seed: int) -> tuple[Instance, PlantedWitness]:
    """Instance with a planted stabbing set of exactly k lines.

    Samples k distinct witness lines over a random axis split, then n
    rectangles each forced to contain at least one witness line, plus 2k
    distractor candidate lines. Deterministic in (k, n, coord_range, seed).
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if coord_range < k:
        raise ValueError("coord_range too small to hold k distinct positions per axis")
    rng = Xoshiro256StarStar(seed)
    c = coord_range
    k_h = rng.randint(0, k)
    k_v = k - k_h
    hstar = rng.sample_distinct(-c, c, k_h)
    vstar = rng.sample_distinct(-c, c, k_v)
    witness_lines = [Line(Axis.HORIZONTAL, y) for y in hstar] + [
        Line(Axis.VERTICAL, x) for x in vstar
    ]

    ext = max(1, c // 4)
    rects = []
    for _ in range(n):
        ln = rng.choice(witness_lines)
        if ln.axis is Axis.HORIZONTAL:
            y1 = max(-c, ln.pos - rng.randint(0, ext))
            y2 = min(c, ln.pos + rng.randint(0, ext))
            x1 = rng.randint(-c, c)
            x2 = min(c, x1 + rng.randint(0, 2 * ext))
        else:
            x1 = max(-c, ln.pos - rng.randint(0, ext))
            x2 = min(c, ln.pos + rng.randint(0, ext))
            y1 = rng.randint(-c, c)
            y2 = min(c, y1 + rng.randint(0, 2 * ext))
        rects.append(Rect(x1, x2, y1, y2))

    hlines = list(hstar)
    vlines = list(vstar)
    for _ in range(2 * k):
        if rng.chance(1, 2):
            hlines.append(rng.randint(-c, c))
        else:
            vlines.append(rng.randint(-c, c))

    inst = Instance(rects=rects, hlines=hlines, vlines=vlines)
    witness = PlantedWitness(hstar=hstar, vstar=vstar)
    # checked on a memo-free copy, so the instance returned carries no stabber table
    if verify(copy.copy(inst), witness.as_solution()):
        raise RuntimeError("planted witness must stab everything")
    return inst, witness


def gen_uniform(n: int, m_lines: int, coord_range: int, seed: int) -> Instance:
    """Uniform random rectangles and candidate lines; possibly infeasible."""
    if n < 0 or m_lines < 0 or coord_range < 0:
        raise ValueError("need n, m_lines and coord_range >= 0")
    rng = Xoshiro256StarStar(seed)
    c = coord_range
    rects = []
    for _ in range(n):
        x1 = rng.randint(-c, c)
        x2 = rng.randint(x1, c)
        y1 = rng.randint(-c, c)
        y2 = rng.randint(y1, c)
        rects.append(Rect(x1, x2, y1, y2))
    hlines = []
    vlines = []
    for _ in range(m_lines):
        (hlines if rng.chance(1, 2) else vlines).append(rng.randint(-c, c))
    return Instance(rects=rects, hlines=hlines, vlines=vlines)


def gen_mcgraph(
    k: int,
    r: int,
    extra_edge_prob_num: int,
    extra_edge_prob_den: int,
    seed: int,
    plant: bool,
) -> tuple[MCGraph, Optional[MCClique]]:
    """k-partite graph with parts of size r; optionally plants a clique.

    With plant=True one vertex per part is selected, all its pairwise edges
    inserted, and every remaining cross-part pair added independently with
    probability extra_edge_prob_num/extra_edge_prob_den. Raises ValueError
    before any draw when that probability is not in [0, 1] or the graph
    has more than MAX_CROSS_PAIRS cross-part pairs, which reduction.build
    refuses.
    """
    if k < 1 or r < 1:
        raise ValueError("need k >= 1 and r >= 1")
    if extra_edge_prob_den <= 0 or not 0 <= extra_edge_prob_num <= extra_edge_prob_den:
        raise ValueError("extra edge probability must be a rational in [0, 1]")
    if k * (k - 1) * r * r > MAX_CROSS_PAIRS:
        raise ValueError(f"graph too large to reduce: k(k-1)r^2 exceeds {MAX_CROSS_PAIRS}")
    rng = Xoshiro256StarStar(seed)
    edges: set[tuple[int, int]] = set()
    clique: Optional[MCClique] = None
    chosen_ids: list[int] = []
    if plant:
        chosen = {i: rng.randint(1, r) for i in range(1, k + 1)}
        clique = MCClique(chosen=chosen)
        chosen_ids = [(i - 1) * r + (p - 1) for i, p in chosen.items()]
        for a in range(len(chosen_ids)):
            for b in range(a + 1, len(chosen_ids)):
                u, v = sorted((chosen_ids[a], chosen_ids[b]))
                edges.add((u, v))
    for u in range(k * r):
        for v in range((u // r + 1) * r, k * r):  # the later parts' vertices
            if (u, v) not in edges and rng.chance(extra_edge_prob_num, extra_edge_prob_den):
                edges.add((u, v))
    return MCGraph(k=k, r=r, edges=frozenset(edges)), clique


MAX_CUT_LINES = 10**6  # cap on the odd lines of a doubled bounding box
MAX_BICHROMATIC_PAIRS = 10**6  # cap on the rectangles, one per bichromatic pair


def discretization_to_stabbing(pts: ColoredPointSet) -> Instance:
    """Stabbing instance whose solutions are exactly the axis-parallel cut
    sets separating every bichromatic point pair.

    Coordinates are doubled; a bichromatic pair with distinct x becomes the
    x-range [2*min+1, 2*max-1] (odd cut positions strictly between them)
    and an equal coordinate becomes a zero-width even range no odd line can
    stab, forcing separation on the other axis. Candidate lines are all odd
    integers inside the doubled bounding box, (max x - min x) + (max y -
    min y) of them; raises ValueError before building anything when that
    exceeds MAX_CUT_LINES, or when the bichromatic pairs, C(n, 2) minus
    C(n_c, 2) per color c, exceed MAX_BICHROMATIC_PAIRS.
    """
    points = pts.points
    n = len(points)
    same_color = sum(m * (m - 1) // 2 for m in Counter(c for _, _, c in points).values())
    n_pairs = n * (n - 1) // 2 - same_color
    if n_pairs > MAX_BICHROMATIC_PAIRS:
        raise ValueError(
            f"too many bichromatic point pairs: {n_pairs}, more than {MAX_BICHROMATIC_PAIRS}"
        )
    vlines: list[int] = []
    hlines: list[int] = []
    if points:
        x_lo, x_hi = min(x for x, _, _ in points), max(x for x, _, _ in points)
        y_lo, y_hi = min(y for _, y, _ in points), max(y for _, y, _ in points)
        n_lines = (x_hi - x_lo) + (y_hi - y_lo)
        if n_lines > MAX_CUT_LINES:
            raise ValueError(
                f"point set too spread out: its doubled bounding box has {n_lines} "
                f"odd cut lines, more than {MAX_CUT_LINES}"
            )
        vlines = list(range(2 * x_lo + 1, 2 * x_hi, 2))
        hlines = list(range(2 * y_lo + 1, 2 * y_hi, 2))

    by_pos: dict[tuple[int, int], int] = {}
    for x, y, color in points:
        prev = by_pos.get((x, y))
        if prev is not None and prev != color:
            raise InseparablePoints(f"points at ({x}, {y}) carry colors {prev} and {color}")
        by_pos[(x, y)] = color

    rects = []
    for i in range(n):
        for j in range(i + 1, n):
            px, py, pc = points[i]
            qx, qy, qc = points[j]
            if pc == qc:
                continue
            if px != qx:
                xr = (2 * min(px, qx) + 1, 2 * max(px, qx) - 1)
            else:
                xr = (2 * px, 2 * px)
            if py != qy:
                yr = (2 * min(py, qy) + 1, 2 * max(py, qy) - 1)
            else:
                yr = (2 * py, 2 * py)
            rects.append(Rect(xr[0], xr[1], yr[0], yr[1]))
    return Instance(rects=rects, hlines=hlines, vlines=vlines)
