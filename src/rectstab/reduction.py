"""Gap-preserving reduction from Multicolored Clique to rectangle stabbing.

A k-partite graph with parts of size r maps to an instance over 4k closed
coordinate strips (2k vertical, 2k horizontal), each holding r consecutive
integer candidate lines. Force rectangles pin one solution line into every
strip, staircase rectangles make the four lines of a part agree on a vertex
index, and adjacency rectangles rule out non-edges. A clique of size k
yields a stabbing set of 4k lines; conversely any stabbing set of size at
most (5 - eps)k lets a clique of size at least eps*k be read back off the
singleton strips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .core import Instance, Rect, Solution, UnknownLineError, verify


class NotApplicable(Exception):
    """Extraction preconditions do not hold for the given solution."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class MalformedReduction(Exception):
    """An internal invariant of the constructed instance failed, which means
    the instance or solution fed in was not produced by this reduction."""


@dataclass(frozen=True)
class MCGraph:
    """k parts of r vertices each; vertex p of part i has id (i-1)*r+(p-1).

    Edges are stored as sorted id pairs. Intra-part edges are tolerated in
    storage and ignored by the reduction; only cross-part non-edges generate
    adjacency rectangles.
    """

    k: int
    r: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.k < 1 or self.r < 1:
            raise ValueError("need k >= 1 and r >= 1")
        n = self.k * self.r
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not stored as sorted pair")

    def vertex_id(self, part: int, index: int) -> int:
        """Vertex id for 1-based part i and 1-based in-part index p."""
        if not (1 <= part <= self.k and 1 <= index <= self.r):
            raise ValueError(f"vertex ({part}, {index}) out of range")
        return (part - 1) * self.r + (index - 1)

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def part_of(self, u: int) -> int:
        return u // self.r + 1

    def has_intra_part_edges(self) -> bool:
        return any(self.part_of(u) == self.part_of(v) for u, v in self.edges)

    def cross_nonedges(self) -> list[tuple[int, int, int, int]]:
        """Ordered (i, j, p, q), 1-based, with i != j and no edge between
        vertex p of part i and vertex q of part j.

        Walks the 0-based vertex ids of each part pair and looks the sorted
        pair up in edges directly: __post_init__ already holds every edge
        to a sorted pair of in-range ids, and a vertex of an earlier part
        has the smaller id."""
        k, r, edges = self.k, self.r, self.edges
        return [
            (i + 1, j + 1, p + 1, q + 1)
            for i in range(k)
            for j in range(k)
            if i != j
            for p in range(r)
            for q in range(r)
            if ((i * r + p, j * r + q) if i < j else (j * r + q, i * r + p)) not in edges
        ]


@dataclass(frozen=True)
class MCClique:
    """Partial vertex choice: 1-based part -> 1-based in-part index."""

    chosen: dict[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", dict(self.chosen))

    def __len__(self) -> int:
        return len(self.chosen)

    def vertex_ids(self, r: int) -> set[int]:
        return {(i - 1) * r + (p - 1) for i, p in self.chosen.items()}


@dataclass(frozen=True)
class ReducedInstance:
    """The stabbing instance plus the closed strip table, indexed by
    x in [0, 2k-1]: strip x spans positions [2r + x*r + 1, 2r + x*r + r]
    on its axis."""

    inst: Instance
    k: int
    r: int
    vstrips: tuple[tuple[int, int], ...]
    hstrips: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency_shaped(self) -> frozenset[Rect]:
        """The rectangles of inst that are r - 2 wide on both axes, as every
        adjacency rectangle is, built on first use."""
        w = self.r - 2
        return frozenset(rc for rc in self.inst.rects if rc.x2 - rc.x1 == w == rc.y2 - rc.y1)


def _strip_range(r: int, x: int) -> tuple[int, int]:
    lo = 2 * r + x * r + 1
    return (lo, lo + r - 1)


def _adjacency_rect(r: int, i: int, j: int, p: int, q: int) -> Rect:
    return Rect(2 * i * r + p + 1, 2 * i * r + r + p - 1, 2 * j * r + q + 1, 2 * j * r + r + q - 1)


MAX_CROSS_PAIRS = 10**6  # k(k-1)r^2 cap; each pair may become a rectangle
FIXED_CLASSES_CACHED = 8  # (k, r) classes whose fixed rectangles _fixed_rects keeps


@lru_cache(maxsize=FIXED_CLASSES_CACHED)
def _fixed_rects(k: int, r: int) -> tuple[tuple[Rect, ...], tuple[Rect, ...]]:
    """The force and equality rectangles of every graph with k parts of r
    vertices, in build's order; they do not depend on the edges."""
    force = []
    # force: one line per strip, pinned by 5k disjoint segments per strip
    for x in range(2 * k):
        lo, hi = _strip_range(r, x)
        for q in range(-5 * k, 0):
            force.append(Rect(lo, hi, q, q))  # F_v
            force.append(Rect(q, q, lo, hi))  # F_h
    equality = []
    # equality: staircases tying the four strips of each part together
    for x in range(2 * k):
        for y in range(2 * k):
            if x // 2 != y // 2:
                continue
            xlo, _ = _strip_range(r, x)
            ylo, _ = _strip_range(r, y)
            for a in range(2, r + 1):
                equality.append(Rect(xlo, xlo + a - 2, ylo + a - 1, ylo + r - 1))  # top left
                equality.append(Rect(xlo + a - 1, xlo + r - 1, ylo, ylo + a - 2))  # bottom right
    return tuple(force), tuple(equality)


def build(g: MCGraph) -> ReducedInstance:
    """Emit the full rectangle families and in-strip candidate lines.

    Cardinalities: 4*k*r lines, 20*k^2 force rectangles, 8*k*(r-1) equality
    rectangles, and two adjacency rectangles per cross-part non-edge, in
    that order: force, adjacency, equality. Force and equality rectangles
    depend on (k, r) alone; they are built once per class and shared, as
    the same frozen Rect objects, by every instance of that class. The
    cache retains one instance's force and equality rectangles for each of
    the FIXED_CLASSES_CACHED classes built most recently.
    Raises ValueError when k*(k-1)*r^2 exceeds MAX_CROSS_PAIRS.
    """
    k, r = g.k, g.r
    if k * (k - 1) * r * r > MAX_CROSS_PAIRS:
        raise ValueError(f"graph too large to reduce: k(k-1)r^2 exceeds {MAX_CROSS_PAIRS}")
    nonedges = g.cross_nonedges()
    if r == 1 and nonedges:
        raise ValueError("adjacency rectangles are undefined for r = 1 with cross-part non-edges")

    force, equality = _fixed_rects(k, r)
    # adjacency: one rectangle per ordered cross-part non-edge
    adjacency = [_adjacency_rect(r, i, j, p, q) for i, j, p, q in nonedges]
    rects = (*force, *adjacency, *equality)

    positions = []
    for x in range(2 * k):
        lo, hi = _strip_range(r, x)
        positions.extend(range(lo, hi + 1))
    inst = Instance(rects=rects, hlines=positions, vlines=positions)

    strips = tuple(_strip_range(r, x) for x in range(2 * k))
    if len(inst.hlines) != 2 * k * r or len(inst.vlines) != 2 * k * r:
        raise RuntimeError("reduced instance must have 2kr candidate lines per axis")
    return ReducedInstance(inst=inst, k=k, r=r, vstrips=strips, hstrips=strips)


def _check_pairwise_adjacent(red: ReducedInstance, chosen: dict[int, int]) -> Optional[tuple[int, int]]:
    """First non-adjacent part pair among the chosen vertices, if any.

    Adjacency is read off the instance itself: a cross-part pair is a
    non-edge exactly when its adjacency rectangle was emitted. Every
    adjacency rectangle is r - 2 wide on both axes, so the lookup set holds
    only the instance's rectangles of that shape (with r = 2 that admits
    the equality points too, which pair no two different parts). The set
    is red.adjacency_shaped, so forward and reverse on one red share it.
    """
    r = red.r
    if r == 1:
        return None  # no adjacency rectangles exist; nothing to check against
    rect_set = red.adjacency_shaped
    parts = sorted(chosen)
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            i, j = parts[a], parts[b]
            if _adjacency_rect(r, i, j, chosen[i], chosen[j]) in rect_set:
                return (i, j)
    return None


def forward(red: ReducedInstance, clique: MCClique) -> Solution:
    """The 4k-line stabbing set encoding a full multicolored clique.

    Part i with chosen index p contributes lines at 2ir + p and 2ir + r + p
    on both axes. Rejects cliques that are not total or not pairwise
    adjacent; raises MalformedReduction if the output does not verify
    against red.inst.
    """
    k, r = red.k, red.r
    if sorted(clique.chosen) != list(range(1, k + 1)):
        raise ValueError("clique must choose exactly one vertex in every part")
    for i, p in clique.chosen.items():
        if not 1 <= p <= r:
            raise ValueError(f"chosen index {p} of part {i} out of range")
    bad = _check_pairwise_adjacent(red, clique.chosen)
    if bad is not None:
        raise ValueError(f"chosen vertices of parts {bad[0]} and {bad[1]} are not adjacent")
    positions = []
    for i, p in clique.chosen.items():
        positions.append(2 * i * r + p)
        positions.append(2 * i * r + r + p)
    sol = Solution(hlines=positions, vlines=positions)
    if verify(red.inst, sol):
        raise MalformedReduction("forward map must stab the whole instance")
    return sol


def reverse(red: ReducedInstance, sol: Solution, eps_num: int, eps_den: int) -> MCClique:
    """Extract a multicolored clique of size >= eps*k from a small solution.

    Applicable when sol stabs the instance and |sol| <= 5k - (eps_num/eps_den)*k
    (compared exactly in integers). Parts whose four strips each contain
    exactly one solution line must agree on a single vertex index; those
    vertices form the clique. Violations of the agreement or adjacency
    invariants mean the inputs were not a faithful reduction and raise
    MalformedReduction.
    """
    if eps_den <= 0 or eps_num <= 0:
        raise ValueError("eps must be a positive rational")
    k, r = red.k, red.r
    if len(sol) * eps_den > 5 * k * eps_den - eps_num * k:
        raise NotApplicable("size bound: |sol| exceeds 5k - eps*k")
    try:
        unstabbed = verify(red.inst, sol)
    except UnknownLineError as exc:
        raise NotApplicable(f"not stabbing: {exc}") from exc
    if unstabbed:
        raise NotApplicable("not stabbing: solution leaves rectangles unstabbed")

    vsorted = sorted(sol.vlines)
    hsorted = sorted(sol.hlines)

    def in_strip(pool: list[int], lo: int, hi: int) -> list[int]:
        return [p for p in pool if lo <= p <= hi]

    full_parts: list[int] = []
    per_part: dict[int, tuple[int, int, int, int]] = {}
    for i in range(1, k + 1):
        vlo = in_strip(vsorted, *red.vstrips[2 * i - 2])
        vhi = in_strip(vsorted, *red.vstrips[2 * i - 1])
        hlo = in_strip(hsorted, *red.hstrips[2 * i - 2])
        hhi = in_strip(hsorted, *red.hstrips[2 * i - 1])
        if len(vlo) == len(vhi) == len(hlo) == len(hhi) == 1:
            full_parts.append(i)
            v_minus = vlo[0] - 2 * i * r
            v_plus = vhi[0] - 2 * i * r - r
            h_minus = hlo[0] - 2 * i * r
            h_plus = hhi[0] - 2 * i * r - r
            for val in (v_minus, v_plus, h_minus, h_plus):
                if not 1 <= val <= r:
                    raise MalformedReduction(f"strip line offset {val} of part {i} outside [1, r]")
            if not v_minus == v_plus == h_minus == h_plus:
                raise MalformedReduction(
                    f"part {i} strips select offsets {(v_minus, v_plus, h_minus, h_plus)}, not a single vertex"
                )
            per_part[i] = (v_minus, v_plus, h_minus, h_plus)

    need = -(-eps_num * k // eps_den)  # ceil(eps * k)
    if len(full_parts) < need:
        raise MalformedReduction(
            f"only {len(full_parts)} singleton parts, counting argument promises >= {need}"
        )

    chosen = {i: per_part[i][0] for i in full_parts}
    bad = _check_pairwise_adjacent(red, chosen)
    if bad is not None:
        raise MalformedReduction(f"extracted vertices of parts {bad[0]} and {bad[1]} are not adjacent")
    return MCClique(chosen=chosen)


def make_nondegenerate(inst: Instance) -> Instance:
    """Double every rectangle to [2a, 2b+1] x [2c, 2d+1] and every candidate
    line position x to the pair {2x, 2x+1}.

    Eliminates degenerate rectangles while preserving solutions exactly: a
    line set stabs the doubled instance iff its halving (map_solution_back)
    stabs the original. map_instance_back undoes the doubling.
    """
    rects = [Rect(2 * re.x1, 2 * re.x2 + 1, 2 * re.y1, 2 * re.y2 + 1) for re in inst.rects]
    hlines = [t for y in inst.hlines for t in (2 * y, 2 * y + 1)]
    vlines = [t for x in inst.vlines for t in (2 * x, 2 * x + 1)]
    return Instance(rects=rects, hlines=hlines, vlines=vlines)


def map_instance_back(doubled: Instance) -> Instance:
    """The instance that make_nondegenerate doubled into doubled: each
    rectangle [x1, x2] x [y1, y2] halves to [x1 // 2, (x2 - 1) // 2] x
    [y1 // 2, (y2 - 1) // 2] and each line position to its half, rounded
    down. Raises ValueError on a rectangle that halves to an empty one,
    which no doubling emits."""
    rects = [Rect(rc.x1 // 2, (rc.x2 - 1) // 2, rc.y1 // 2, (rc.y2 - 1) // 2) for rc in doubled.rects]
    hlines = [y // 2 for y in doubled.hlines]
    vlines = [x // 2 for x in doubled.vlines]
    return Instance(rects=rects, hlines=hlines, vlines=vlines)


def map_solution_back(sol: Solution) -> Solution:
    """A solution of a make_nondegenerate instance halved, rounded down, onto
    the original's line positions."""
    return Solution(hlines={y // 2 for y in sol.hlines}, vlines={x // 2 for x in sol.vlines})
