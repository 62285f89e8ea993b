"""Reference predicates the tests compare the library against.

They answer one question each by the definition, with no shared index
structure, so they stay independent of the stabbing kernel in
rectstab.core. They speak in coordinates; the approximation's search
names lines by candidate index, and to_positions maps what it names to
positions before any comparison with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
from rectstab.greedy1d import Infeasible, stab_1d


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


def cover_reached(cover, slots: Iterable[int], lines: Iterable[int]) -> bool:
    """Does a guess with these slot and line indices reach an
    approx.Cover, by its definition? The rectangles (bit indices) of need
    that no chosen slot reaches and no picked line stabs must each lie in
    a group, and in at most cover.spare distinct groups."""

    def members(mask: int) -> set[int]:
        return {i for i in range(mask.bit_length()) if mask >> i & 1}

    left = members(cover.need)
    for i in slots:
        left -= members(cover.slots[i])
    for t in lines:
        left -= members(cover.lines[t])
    groups = [members(g) for g in cover.groups]
    return all(any(r in g for g in groups) for r in left) and (
        sum(1 for g in groups if g & left) <= cover.spare
    )


def horizontal_guess_reaches(
    inst: Instance,
    h1: Sequence[int],
    h0: Sequence[int],
    kept: Iterable[Rect],
    vstrips: Sequence[Strip],
    v1: Iterable[int],
    budget: int,
) -> bool:
    """Can some horizontal guess complete a vertical guess (strips
    vstrips, lines v1) on inst, by the definition? After kernelization
    (the kept rectangles of inst and the pool H0), it asks for a separated
    family of at most budget open strips of the H1 | H0 arrangement and
    lines of H0 off H1 (separated_families) that holds or stabs every kept
    rectangle that H1 and V1 miss and that no strip of vstrips holds
    (strip_holds over inst's candidates). Strips with no candidate inside
    hold nothing, so this holds whenever the horizontal enumerator yields
    a guess under solve_split's hcover."""
    base = sorted(set(h1) | set(h0))
    fixed = frozenset(t for t, y in enumerate(base) if y in set(h1))
    free = [t for t in range(len(base)) if t not in fixed]
    hstrips = strips_of(Axis.HORIZONTAL, base)
    need = [
        r
        for r in kept
        if not any(stabs(Line(Axis.HORIZONTAL, y), r) for y in h1)
        and not any(stabs(Line(Axis.VERTICAL, x), r) for x in v1)
        and not any(strip_holds(s, r, inst.vlines) for s in vstrips)
    ]
    for slot_combo, line_pick in separated_families(len(base), fixed, free, budget):
        if all(
            any(strip_holds(hstrips[i], r, inst.hlines) for i in slot_combo)
            or any(stabs(Line(Axis.HORIZONTAL, base[t]), r) for t in line_pick)
            for r in need
        ):
            return True
    return False


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


def vertical_cover_two_halves(inst: Instance, h1: Sequence[int], v0: Sequence[int]) -> Cover:
    """Two-bit reference for the cover of rectstab.approx's
    Orientation.vertical_cover, with spare 0, for H1 and V0 in positions
    (to_positions): every rectangle r has bit r, needed for the rectangles
    no horizontal candidate stabs and reached by an open V0 slot that
    holds it, and bit n + r, needed for the rectangles H1 misses, reached
    by an open V0 slot that holds it or a slot boundary that stabs it, and
    grouped by the open H1 slot that holds it. A V0 line reaches both bits
    of what it stabs. Every mask is decided from the coordinates."""
    n = len(inst.rects)
    full = (1 << n) - 1
    v_only = full & ~stabbed_by(inst, Axis.HORIZONTAL, inst.hlines)
    missed = full & ~stabbed_by(inst, Axis.HORIZONTAL, h1)
    held = held_by_definition(inst, Axis.VERTICAL, v0, full)
    vmask = [stabbed_by(inst, Axis.VERTICAL, [x]) for x in v0]
    walls = [0, *vmask, 0]  # slot i lies between walls i, i + 1
    slots = [m | (m | walls[i] | walls[i + 1]) << n for i, m in enumerate(held)]
    lines = [m | m << n for m in vmask]
    groups = [g << n for g in held_by_definition(inst, Axis.HORIZONTAL, h1, missed)]
    return Cover(v_only | missed << n, slots, lines, groups)


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
