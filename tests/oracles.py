"""Reference predicates the tests compare the library against.

They answer one question each by the definition, with no shared index
structure, so they stay independent of the stabbing kernel in
rectstab.core. They speak in coordinates; the approximation's search
names lines by candidate index, and to_positions maps what it names to
positions before any comparison with them. stab_1d is the 1-D greedy in
coordinates: it sorts closed intervals and bisects the points, apart from
the library's rectstab.greedy1d.stab_1d over candidate index ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from rectstab.approx import (
    Cover,
    Guess,
    enumerate_horizontal_guesses,
    enumerate_vertical_guesses,
)
from rectstab.core import (
    I64_MAX,
    I64_MIN,
    Axis,
    Instance,
    Line,
    Rect,
    Solution,
    bits,
)


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


def to_positions(positions: Sequence[int], named):
    """What the search names by candidate index, in positions, given the
    sorted candidate positions of its axis: a Guess with its base and lines
    mapped, a set as a frozenset, any other sequence as a tuple; None stays
    None."""
    if named is None:
        return None
    if isinstance(named, Guess):
        base, lines = to_positions(positions, named.base), to_positions(positions, named.lines)
        return Guess(base, named.slots, lines)
    if isinstance(named, (set, frozenset)):
        return frozenset(positions[t] for t in named)
    return tuple(positions[t] for t in named)


def _pool(candidates: Iterable[int], pool: Iterable[int]) -> tuple[list[int], list[int]]:
    """(sorted candidates joined by the pool lines, the pool's indices into
    them). A pool line sits on a slot boundary, so joining the candidates
    puts no candidate strictly inside a slot."""
    cands = sorted({*candidates, *pool})
    return cands, [cands.index(p) for p in pool]


def vertical_guesses_at(
    v0: Sequence[int], k_v: int, vlines: Iterable[int], cover: Optional[Cover] = None
) -> list[Guess]:
    """approx.enumerate_vertical_guesses over the pool v0 and the
    candidates vlines, both given as positions, its guesses in positions."""
    cands, pool = _pool(vlines, v0)
    guesses = enumerate_vertical_guesses(pool, k_v, len(cands), cover)
    return [to_positions(cands, g) for g in guesses]


def horizontal_guesses_at(
    h1: Sequence[int],
    h0: Sequence[int],
    k_h: int,
    hlines: Iterable[int],
    cover: Optional[Cover] = None,
) -> list[Guess]:
    """approx.enumerate_horizontal_guesses over H1, H0 and the candidates
    hlines, all given as positions, its guesses in positions."""
    cands, pool = _pool(hlines, (*h1, *h0))
    h1_idx, h0_idx = pool[: len(h1)], pool[len(h1) :]
    guesses = enumerate_horizontal_guesses(h1_idx, h0_idx, k_h, len(cands), cover)
    return [to_positions(cands, g) for g in guesses]


def stabbed_by(inst: Instance, axis: Axis, positions: Iterable[int]) -> int:
    """Mask of the rectangles of inst some line of the axis at these
    positions stabs, by the definition."""
    lines = [Line(axis, p) for p in positions]
    return sum(1 << i for i, r in enumerate(inst.rects) if any(stabs(ln, r) for ln in lines))


@dataclass(frozen=True)
class Strip:
    """Open region strictly between two parallel lines.

    lo/hi are bounding-line positions; None means unbounded on that side.
    A vertical strip is the set lo < x < hi, a horizontal one lo < y < hi.
    """

    axis: Axis
    lo: Optional[int]
    hi: Optional[int]

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ValueError(f"empty strip bounds ({self.lo}, {self.hi})")

    def contains_pos(self, pos: int) -> bool:
        return (self.lo is None or pos > self.lo) and (self.hi is None or pos < self.hi)


def strips_of(axis: Axis, positions: Sequence[int]) -> list[Strip]:
    """The n+1 open strips cut out of the plane by n sorted line positions."""
    for a, b in zip(positions, positions[1:]):
        if a >= b:
            raise ValueError("line positions must be strictly increasing")
    bounds: list[Optional[int]] = [None, *positions, None]
    return [Strip(axis, bounds[i], bounds[i + 1]) for i in range(len(positions) + 1)]


def guess_strips(axis: Axis, base: Sequence[int], slots: Iterable[int]) -> tuple[Strip, ...]:
    """The strips a guess's slot indices name: slot i of base is the i-th
    strip of strips_of(axis, base)."""
    strips = strips_of(axis, base)
    return tuple(strips[i] for i in slots)


def strip_holds(strip: Strip, rect: Rect, candidates: Iterable[int]) -> bool:
    """True iff some candidate position strictly inside the strip stabs
    the rectangle."""
    a, b = rect.interval(strip.axis)
    return any(strip.contains_pos(p) and a <= p <= b for p in candidates)


def held_by_definition(inst: Instance, axis: Axis, base: Sequence[int], mask: int) -> list[int]:
    """Reference for rectstab.core.held_masks: per strip of
    strips_of(axis, base), the rectangles of mask it holds (strip_holds
    over the axis's candidates), decided from the coordinates."""
    candidates = inst.line_positions(axis)
    return [
        sum(1 << i for i in bits(mask) if strip_holds(s, inst.rects[i], candidates))
        for s in strips_of(axis, base)
    ]


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


def separated_families(
    n_base: int, fixed_idx: frozenset[int], free_idx: Sequence[int], budget: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Filter-then-yield reference for rectstab.approx._separated_families
    without its candidate slots and cover: every (strip combo, line pick)
    over the n_base + 1 strips of n_base sorted positions and the lines
    free_idx, with |strips| + |picked| <= budget, kept when each pair of
    consecutive strips i < j has a fixed or picked line t with
    i <= t <= j - 1. Order: nondecreasing combined size, then fewer strips
    first, then lexicographic by strip and line index combinations.
    """
    for total in range(budget + 1):
        for n_strips in range(total + 1):
            n_lines = total - n_strips
            if n_strips > n_base + 1 or n_lines > len(free_idx):
                continue
            for strip_combo in combinations(range(n_base + 1), n_strips):
                for line_pick in combinations(free_idx, n_lines):
                    lines = fixed_idx.union(line_pick)
                    if all(
                        any(a <= t <= b - 1 for t in lines)
                        for a, b in zip(strip_combo, strip_combo[1:])
                    ):
                        yield strip_combo, line_pick


def cover_reached(
    cover: Cover,
    order: Sequence[tuple[int, int, int]],
    slots: Iterable[int],
    lines: Iterable[int],
) -> bool:
    """Does a guess with these slot and line indices reach an approx.Cover
    whose count runs over order, by its definition? The rectangles (bit
    indices) of need that no chosen slot reaches and no picked line stabs
    must each be in cover.counted, and some cover.spare indices must hit
    every range [a, b) order gives them, found by trying every index set
    of each size."""

    def members(mask: int) -> set[int]:
        return {i for i in range(mask.bit_length()) if mask >> i & 1}

    left = members(cover.need)
    for i in slots:
        left -= members(cover.slots[i])
    for t in lines:
        left -= members(cover.lines[t])
    ranges = {i: (a, b) for a, b, i in order}
    if not left <= members(cover.counted):
        return False
    points = range(max((b for a, b in ranges.values()), default=0))
    return any(
        all(any(ranges[i][0] <= p < ranges[i][1] for p in pick) for i in left)
        for n in range(cover.spare + 1)
        for pick in combinations(points, n)
    )


def preselect_by_sweep(
    inst: Instance, k_v: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Coordinate-sweep reference for rectstab.approx.preselect: (H1, V0),
    or None when the split is infeasible.

    From a sentinel below every rectangle, try each higher candidate (and
    finally a sentinel above everything) as the next line, gathering by
    coordinates the rectangles strictly between the anchor and it, until
    they need more than k_v vertical lines; the last line that fit joins
    H1 and becomes the anchor. V0 stabs, by stab_1d, whatever H1 misses.
    """
    rects = inst.rects
    hpos = inst.hlines
    vpos = inst.vlines
    m = len(hpos)
    if rects:
        below = min(r.y1 for r in rects) - 1
        above = max(r.y2 for r in rects) + 1
    else:
        below, above = 0, 1
    # sentinel positions; sentinels are never added to H1
    pos_of = [below] + [p for p in hpos] + [max(above, (hpos[-1] + 1) if hpos else above)]

    def opt_le_kv(intervals: list[tuple[int, int]]) -> bool:
        try:
            return len(stab_1d(intervals, vpos)) <= k_v
        except Infeasible:
            return False

    by_top = sorted(range(len(rects)), key=lambda i: rects[i].y2)
    h1: list[int] = []
    i = 0
    while i <= m:
        anchor = pos_of[i]
        acc: list[tuple[int, int]] = []
        ptr = 0
        j_star = None
        for j in range(i + 1, m + 2):
            top = pos_of[j]
            while ptr < len(by_top) and rects[by_top[ptr]].y2 < top:
                r = rects[by_top[ptr]]
                if r.y1 > anchor:
                    acc.append((r.x1, r.x2))
                ptr += 1
            if opt_le_kv(acc):
                j_star = j
            else:
                break  # infeasibility is monotone in j
        if j_star is None:
            return None
        if j_star <= m:
            h1.append(pos_of[j_star])
        i = j_star

    h1set = sorted(h1)
    missed = [r for r in rects if not any(stabs(Line(Axis.HORIZONTAL, y), r) for y in h1set)]
    try:
        v0 = stab_1d([(r.x1, r.x2) for r in missed], vpos)
    except Infeasible:
        return None
    return tuple(h1set), tuple(v0)


def eliminate_by_rescan(
    inst: Instance, h1: Sequence[int], vg: Guess, k: int
) -> tuple[int, tuple[int, ...]]:
    """Rescan reference for rectstab.approx.eliminate_redundant: (K, H0),
    with H1, the guess and H0 in positions (to_positions).

    The kernelization as the paper states it: while some guessed strip
    boundary, scanned by ascending slot from the first one again after
    every removal, has a group needing 2k+2 horizontal lines, discard that
    group's widest-in-strip rectangle. Groups and needs are decided from
    the coordinates.
    """
    rects = inst.rects
    full = (1 << len(rects)) - 1
    rprime = stabbed_by(inst, Axis.HORIZONTAL, inst.hlines) & ~(
        stabbed_by(inst, Axis.HORIZONTAL, h1) | stabbed_by(inst, Axis.VERTICAL, vg.lines)
    )
    removed = 0

    # slot i spans clip[i]..clip[i + 1]; the sentinels clip nothing and are
    # no boundary
    clip = (I64_MIN, *vg.base, I64_MAX)
    scan = [
        (stabbed_by(inst, Axis.VERTICAL, [clip[j]]), clip[i], clip[i + 1])
        for i in sorted(vg.slots)
        for j in (i, i + 1)
        if 0 < j <= len(vg.base)
    ]
    fired = True
    while fired:
        fired = False
        for wall, lo, hi in scan:
            group = list(bits(wall & rprime & ~removed))
            if not group:
                continue
            try:
                need = len(stab_1d([(rects[i].y1, rects[i].y2) for i in group], inst.hlines))
            except Infeasible:  # pragma: no cover
                raise RuntimeError("group drawn from horizontally stabbable rectangles")
            if need >= 2 * k + 2:
                # every group member holds the boundary, so its clipped width is >= 0
                widest = max(group, key=lambda i: (min(rects[i].x2, hi) - max(rects[i].x1, lo), -i))
                removed |= 1 << widest
                fired = True
                break  # rescan from the first boundary

    survivors = [(rects[i].y1, rects[i].y2) for i in bits(rprime & ~removed)]
    h0 = stab_1d(survivors, inst.hlines)
    return full & ~removed, tuple(h0)


def horizontal_need(inst: Instance, rects: Iterable[Rect]) -> int:
    """Fewest horizontal candidates of inst that stab every one of rects,
    each stabbed by some candidate: stab_1d over their y extents."""
    return len(stab_1d([(r.y1, r.y2) for r in rects], inst.hlines))


def heavy_lines(inst: Instance, h1: Sequence[int], v0: Sequence[int], k: int) -> list[int]:
    """The V0 lines (positions) that are heavy under the budget k when H1
    is preselected, by the definition: the line's group, the rectangles it
    stabs that H1 misses and some horizontal candidate stabs, needs at
    least 2k + 2 horizontal lines."""

    def in_group(x: int, r: Rect) -> bool:
        return (
            r.x1 <= x <= r.x2
            and not any(r.y1 <= y <= r.y2 for y in h1)
            and any(r.y1 <= y <= r.y2 for y in inst.hlines)
        )

    return [
        x
        for x in v0
        if horizontal_need(inst, [r for r in inst.rects if in_group(x, r)]) >= 2 * k + 2
    ]


def w_prime(
    inst: Instance,
    h1: Sequence[int],
    v0: Sequence[int],
    k: int,
    vstrips: Sequence[Strip],
    v1: Iterable[int],
) -> list[Rect]:
    """W' of a vertical guess (strips vstrips and lines v1 over the pool
    v0) under the budget k when H1 is preselected, all in positions, by
    the definition: the rectangles that some horizontal candidate stabs,
    that H1 and V1 miss, that no strip of vstrips holds (strip_holds over
    inst's candidates) and that no heavy V0 line (heavy_lines) stabs."""
    heavy = heavy_lines(inst, h1, v0, k)
    return [
        r
        for r in inst.rects
        if any(r.y1 <= y <= r.y2 for y in inst.hlines)
        and not any(r.y1 <= y <= r.y2 for y in h1)
        and not any(r.x1 <= x <= r.x2 for x in (*v1, *heavy))
        and not any(strip_holds(s, r, inst.vlines) for s in vstrips)
    ]


def vertical_guess_fits(
    inst: Instance,
    h1: Sequence[int],
    v0: Sequence[int],
    k: int,
    budget: int,
    vstrips: Sequence[Strip],
    v1: Iterable[int],
) -> bool:
    """Does a vertical guess (strips vstrips, lines v1) pass the W' bound,
    by the definition? Every rectangle no horizontal candidate stabs must
    be held by a strip of vstrips or stabbed by V1, and at most budget
    horizontal candidates must stab its W' (w_prime)."""
    v1 = set(v1)
    for r in inst.rects:
        if not any(r.y1 <= y <= r.y2 for y in inst.hlines):
            if not any(r.x1 <= x <= r.x2 for x in v1) and not any(
                strip_holds(s, r, inst.vlines) for s in vstrips
            ):
                return False
    return horizontal_need(inst, w_prime(inst, h1, v0, k, vstrips, v1)) <= budget


def heavy_column(layers: int = 6) -> Instance:
    """A reduced instance whose two V0 lines are heavy at budget 2: two
    columns of layers stacked rectangles, x = 1 stabbing the left column
    and x = 5 the right one, and one horizontal candidate per layer that
    stabs the layer's two rectangles. Its optimum is the two vertical
    lines; each column needs layers horizontal lines, at least 2k + 2 = 6
    for k = 2."""
    rects = [Rect(x1, x1 + 1, 3 * j, 3 * j + 1) for x1 in (0, 5) for j in range(layers)]
    return Instance(rects, [3 * j for j in range(layers)], [1, 5])


def dominance_reduce(inst: Instance) -> Instance:
    """Pairwise reference for core.drop_dominated, by the definition.

    Rectangle pass: drop a rectangle when another one's stabber set is a
    strict subset of its own, or an equal set of an earlier rectangle. Line
    pass: drop a line that stabs nothing, whose stab set is a strict subset
    of another line's, or equal to that of a line earlier in canonical
    order (horizontal before vertical, ascending). Repeat both passes until
    nothing changes.
    """
    while True:
        lines = [Line(Axis.HORIZONTAL, y) for y in inst.hlines]
        lines += [Line(Axis.VERTICAL, x) for x in inst.vlines]
        stabbers = [frozenset(ln for ln in lines if stabs(ln, r)) for r in inst.rects]
        rects = [
            r
            for i, r in enumerate(inst.rects)
            if not any(
                s < stabbers[i] or (j < i and s == stabbers[i]) for j, s in enumerate(stabbers)
            )
        ]
        stabbed = [frozenset(j for j, r in enumerate(rects) if stabs(ln, r)) for ln in lines]
        kept = [
            ln
            for i, ln in enumerate(lines)
            if stabbed[i]
            and not any(
                stabbed[i] < s or (j < i and s == stabbed[i]) for j, s in enumerate(stabbed)
            )
        ]
        reduced = Instance(
            rects,
            [ln.pos for ln in kept if ln.axis is Axis.HORIZONTAL],
            [ln.pos for ln in kept if ln.axis is Axis.VERTICAL],
        )
        if reduced == inst:
            return inst
        inst = reduced


def brute_force(inst: Instance, max_size: int) -> Optional[Solution]:
    """First stabbing line subset in (size, lexicographic) enumeration
    order, by the definition.

    The pool is every candidate line that stabs some rectangle, in
    canonical order (horizontal before vertical, positions ascending),
    keeping only the first line of each set of stabbed rectangles.
    Enumerates subsets of that pool; intended for instances with at most
    ~20 pool lines.
    """
    lines = [Line(Axis.HORIZONTAL, y) for y in inst.hlines]
    lines += [Line(Axis.VERTICAL, x) for x in inst.vlines]
    pool: dict[int, Line] = {}
    for ln in lines:
        stabbed = sum(1 << i for i, r in enumerate(inst.rects) if stabs(ln, r))
        if stabbed:
            pool.setdefault(stabbed, ln)
    full = (1 << len(inst.rects)) - 1
    for size in range(max_size + 1):
        for combo in combinations(pool.items(), size):
            covered = 0
            for stabbed, _ in combo:
                covered |= stabbed
            if covered == full:
                return Solution(
                    hlines=[ln.pos for _, ln in combo if ln.axis is Axis.HORIZONTAL],
                    vlines=[ln.pos for _, ln in combo if ln.axis is Axis.VERTICAL],
                )
    return None
