"""Parameterized 7/4-approximation for rectangle stabbing.

Given a budget k, the solver first drops dominated rectangles and lines
(Instance.reduced), which keeps the optimum, then guesses how an unknown
solution of at most k lines of what is left splits into at most k_h
horizontal and k_v vertical lines, over the k + 1 splits k_h + k_v = k
(k_h <= k_v after transposing), and per split:

  1. greedily preselects horizontal lines H1 and an auxiliary vertical
     candidate pool V0 that together stab everything, reading how many
     vertical lines each horizontal gap needs off the orientation's need
     table, which every budget asked of it shares,
  2. enumerates guesses of vertical strips (each believed to hold exactly
     one solution line) separated by chosen lines V1, keeping only those
     whose leftover W' (what H1, V1 and the guessed strips leave of the
     rectangles a horizontal candidate stabs, but those a heavy V0 line
     stabs) at most 2*k_h - |H1| horizontal candidates stab, the lines a
     horizontal guess can still add (see Cover),
  3. prunes rectangles that any viable completion stabs anyway, yielding a
     kernel K and a horizontal candidate pool H0, in one pass that decides
     each guessed strip boundary once,
  4. enumerates horizontal strip guesses separated by H1 plus chosen H1',
  5. encodes "pick one line inside every guessed strip so the kernel is
     stabbed" as a 2-SAT formula with one threshold variable per candidate
     inside a guessed strip, numbered in one sequence over the vertical
     strips, then the horizontal ones, reading each kernel rectangle's
     stabbers in a strip off the stabber table, clipped to the strip: the
     strip holds the rectangle (some candidate strictly inside stabs it)
     exactly when that clipped range is nonempty.

Any satisfiable guess assembles a verified solution of size at most
2*k_h + floor(3*k_v/2) <= floor(7k/4); exhausting every guess certifies
that no size-k solution exists. A split whose size bound is below the
instance's packing bound (exact.packing_bound) is not searched: every
solution is larger than it may answer.

Inside the search every line is a candidate index of its axis; positions
appear only in the Solution solve_split builds and in kernelization's
widest-in-strip pick, which reads x extents.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import twosat
from .core import (
    I64_MAX,
    I64_MIN,
    Axis,
    Instance,
    Solution,
    bits,
    held_masks,
    line_masks,
    prefix_counts,
    suffix_ors,
    transpose,
    verify,
)
from .exact import packing_bound
from .greedy1d import stab_1d


class GuessInfeasible(Exception):
    """The current guess cannot be completed to a solution."""


@dataclass(frozen=True)
class Guess:
    """Guessed strips of one axis as slot indices over the pool base, ascending
    candidate indices of the axis: slot i is the open strip between base[i - 1]
    and base[i], unbounded past either end. lines holds the picked separators:
    V1 for a vertical guess over V0, H1' for a horizontal one over H1 | H0."""

    base: tuple[int, ...]
    slots: tuple[int, ...]
    lines: frozenset[int]


@dataclass
class SearchStats:
    """Counters over the guess search, for run reports."""

    splits: int = 0
    vertical_guesses: int = 0
    horizontal_guesses: int = 0
    twosat_calls: int = 0


def preselect(
    tables: Orientation, k_v: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Greedy horizontal preselection: (H1, V0) as candidate indices, or None.

    Sweeping bottom-up from below every rectangle, repeatedly jump to the
    furthest candidate line such that the rectangles strictly between the
    current line and it are stabbable by at most k_v vertical candidates,
    collecting the jump targets into H1; V0 then stabs whatever H1 missed.
    Returns None when some gap between consecutive candidates already
    needs more than k_v vertical lines: no solution with at most k_v
    vertical lines exists.

    The sweep runs over candidate indices and over the stabber classes of
    tables.inst (Instance.stabbers), whose rectangles all have the same
    candidates. A class whose horizontal stabbers are hlines[a:b] lies
    strictly between hlines[i - 1] and hlines[j - 1] (unbounded past
    either end) iff i <= a and b < j. From anchor i the sweep reads row i
    of the orientation's need table (Orientation.need): how many vertical
    lines the gaps from hlines[i - 1] up to hlines[i], hlines[i + 1], ...
    and past the top need. The row is nondecreasing, so the furthest line
    that fits k_v is found by bisection. V0 is the same 1-D greedy over
    the classes H1 misses. Every budget asked of one orientation reads the
    same rows.
    That greedy always finds V0: it fails only at a class with no vertical
    stabber, and every class H1 misses lies in an accepted gap, whose
    finite need shows that each of its classes has one.

    Always satisfies |V0| <= k_v * (|H1| + 1); when a solution whose
    vertical part has size at most k_v exists, H1 additionally has at most
    as many lines as that solution's horizontal part and tracks it gap by
    gap.
    """
    table = tables.need
    m = table.m
    h1: list[int] = []
    i = 0
    while i <= m:
        b = i + bisect_right(table.row(i, k_v), k_v)
        if b == i:
            return None  # the gap between two consecutive candidates does not fit
        if b <= m:
            h1.append(b - 1)  # the furthest line that fits
        i = b

    hit = prefix_counts(h1, m)
    v0 = stab_1d((c, d) for a, b, c, d in table.order if hit[a] == hit[b])
    if v0 is None:
        raise RuntimeError("a class in an accepted gap has no vertical stabber")
    if len(v0) > k_v * (len(h1) + 1):
        raise RuntimeError("vertical pool exceeded its per-gap accounting bound")
    return tuple(h1), tuple(v0)


class _NeedRows:
    """preselect's table over one instance, kept by its Orientation (need).

    order holds the stabber classes (a, b, c, d) of the instance sorted
    once in the order the vertical 1-D greedy (stab_1d) takes them: by d,
    then c. rows[i] holds need(i, e) for e = i, i + 1, ...: the fewest
    vertical candidates that stab the classes with a >= i and b <= e, one
    stab_1d pass over their ranges (c, d) each, which is nondecreasing in
    e. A row ends at e = len(hlines), or at its first infinite need, where
    such a class has no vertical stabber. It is grown only as far as the
    largest budget asked of it needs, so one budget makes no more passes
    than a sweep from scratch. Each growth replaces the row whole, so threads
    racing on one row compute equal values."""

    def __init__(self, inst: Instance):
        self.m = len(inst.hlines)
        self.order = sorted(inst.stabbers.ranges, key=itemgetter(3, 2))
        self.rows: list[tuple[float, ...]] = [()] * (self.m + 1)

    def row(self, i: int, k_v: int) -> tuple[float, ...]:
        """Row i, grown until it ends or holds a need above k_v."""
        row = self.rows[i]
        e = i + len(row)
        need = row[-1] if row else 0
        if e > self.m or need > k_v:
            return row
        gap = [(b, c, d) for a, b, c, d in self.order if a >= i]
        ends = {b for b, _, _ in gap}
        grown = list(row)
        while e <= self.m and need <= k_v:
            if e in ends:  # classes join the gap: one greedy pass
                taken = stab_1d([(c, d) for b, c, d in gap if b <= e])
                need = inf if taken is None else len(taken)
            grown.append(need)
            e += 1
        self.rows[i] = row = tuple(grown)
        return row


def _candidate_slots(base: Sequence[int], m: int) -> list[int]:
    """Slots of the ascending candidate indices base with one of the m
    candidates strictly inside: slot i lies between base[i - 1] and base[i]."""
    ends = (-1, *base, m)
    return [i for i in range(len(base) + 1) if ends[i] + 1 < ends[i + 1]]


def _hitting_picks(
    free: Sequence[int],
    gaps: Sequence[tuple[int, int]],
    n: int,
    missing: int,
    stabs: Sequence[int],
    reach: Sequence[int],
    fits: Callable[[int], bool],
    start: int = 0,
    g: int = 0,
) -> Iterator[tuple[int, ...]]:
    """The n-subsets of free[start:] that hit every index range [lo, hi) of
    gaps[g:] and leave of missing a mask that fits, in lexicographic order;
    the ranges are nonempty, disjoint and ascending, and there are at most n
    of them. stabs[q] is the stab mask of free[q], reach[q] the OR of
    stabs[q:].

    Each pick either hits the first range not hit yet or lies before it.
    It is kept only when the picks after it can still hit the rest, and
    when what even all of free after it would leave of missing still fits."""
    if n == 0:
        if fits(missing):
            yield ()
        return
    lo, hi = gaps[g] if g < len(gaps) else (len(free), len(free))
    stop = min(hi, len(free) - n + 1)  # past hi, range g stays unhit
    if n == 1:
        for q in range(start if g == len(gaps) else max(start, lo), stop):
            if fits(missing & ~stabs[q]):
                yield (free[q],)
        return
    for q in range(start, stop):
        g_next = g + 1 if q >= lo else g
        if len(gaps) - g_next < n:
            left = missing & ~stabs[q]
            if fits(left & ~reach[q + 1]):
                for rest in _hitting_picks(
                    free, gaps, n - 1, left, stabs, reach, fits, q + 1, g_next
                ):
                    yield (free[q], *rest)


@dataclass(frozen=True)
class Cover:
    """Rectangles a guess must reach, as masks: each rectangle of need is
    reached by a chosen slot (slots[i]: the rectangles slot i holds) or
    stabbed by a picked line (lines[t]: the rectangles the line base[t]
    stabs), unless the mask counted holds it. What a guess leaves of need
    fits when counted holds all of it and at most spare horizontal
    candidates stab it, count(leftover) of them; count is read only when
    counted is nonzero, and a vertical cover reads its orientation's
    (Orientation.count).

    A slot holds a rectangle (core.held_masks) when some candidate strictly
    inside it stabs the rectangle. That is sound: a satisfying assignment
    of assemble_2sat's formula stabs each kernel rectangle with a fixed
    line or with the line it picks in a guessed strip, a candidate inside
    the strip and inside the rectangle's stabber range, so the strip holds
    the rectangle. A guess that leaves a kernel rectangle to no line and
    no strip that holds it has no satisfying assignment.

    The vertical cover (Orientation.vertical_cover) needs the rectangles
    H1 misses. One that no horizontal candidate stabs is not counted: it
    must be held by an open guessed slot or stabbed by V1. A V0 line is
    heavy when its group, the rectangles it stabs that H1 misses and some
    horizontal candidate stabs, needs at least 2k + 2 horizontal lines
    (_heavy, the test kernelization runs on its groups too).
    need and counted drop every group of a heavy line, counted holds the
    rest of the groups' rectangles, and spare is the horizontal budget
    b = 2k_h - |H1|. The bound is sound: call W' what such a guess leaves
    of counted.
      - Kernelization removes a rectangle only from the current group of
        a guessed slot boundary, a V0 line, while that group needs at
        least 2k + 2 lines. The group is a subset of the line's group, so
        the line is heavy. Every W' rectangle is thus in the kernel.
      - H1 and V1 miss a W' rectangle, and no vertical strip line can stab
        it, as no guessed strip holds it. Only an H1' line of the
        horizontal guess, or the line 2-SAT picks in one of its strips,
        can stab it.
      - A horizontal guess has at most b items, so a satisfying assignment
        stabs W' with at most b horizontal candidates.
    If more than b candidates are needed, no horizontal guess completes
    the vertical guess and it cannot reach a satisfiable 2-SAT call. The
    kernel is not the cover's need: it holds every rectangle H1 and V1
    miss, those of heavy groups too."""

    need: int
    slots: Sequence[int]
    lines: Sequence[int]
    counted: int = 0
    spare: int = 0
    count: Optional[Callable[[int], int]] = None


def _in_mask(order: Iterable[tuple[int, int, int]], mask: int) -> Iterator[tuple[int, int]]:
    """The ranges (a, b), in order, of the entries (a, b, i) of order whose
    rectangle i is in mask."""
    return ((a, b) for a, b, i in order if mask >> i & 1)


def _count(order: Sequence[tuple[int, int, int]], counts: dict[int, int], mask: int) -> int:
    """Fewest horizontal candidates that stab the rectangles of mask, which
    order lists (Orientation.horder), kept in counts by mask."""
    n = counts.get(mask)
    if n is None:
        n = counts[mask] = len(stab_1d(_in_mask(order, mask)))
    return n


def _heavy(group: int, k: int, count: Callable[[int], int]) -> bool:
    """Whether the rectangles of the mask group need at least 2k + 2
    horizontal lines, count(group) of them. A group of fewer rectangles
    cannot, so count runs only on a group that has as many."""
    return group.bit_count() >= 2 * k + 2 and count(group) >= 2 * k + 2


def _separated_families(
    n_base: int,
    cand_slots: Sequence[int],
    fixed_idx: frozenset[int],
    budget: int,
    cover: Optional[Cover] = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Index pairs (slot combo, line pick) over a base of n_base lines:
    slots drawn from cand_slots (ascending) among the n_base + 1 strips the
    base cuts out, lines picked from the base lines not in fixed_idx,
    with |slots| + |picked| <= budget and every pair of consecutive chosen
    slots separated by a fixed or picked line; with a cover, only pairs
    whose leftover fits it.

    Pairs are built, not filtered: line t separates slots i < j iff
    i <= t < j, so a gap with no fixed line between its slots becomes a
    range of free lines the pick must hit. Slots are chosen one by one,
    and a branch is cut as soon as a gap it opens has no free line, it
    opens more gaps than lines remain, or what it leaves of the cover
    would not fit even if every later slot and line reached its share (a
    suffix OR of their masks). Deterministic order: nondecreasing combined
    size, then fewer slots first, then lexicographic by slot and line
    index combinations.
    """
    fixed = sorted(fixed_idx)
    free = [t for t in range(n_base) if t not in fixed_idx]
    cover = cover or Cover(0, [0] * (n_base + 1), [0] * n_base)
    need, counted, spare, count = cover.need, cover.counted, cover.spare, cover.count
    if not need & counted or count(need & counted) <= spare:
        need &= ~counted  # every leftover fits
        counted = 0
    elif not spare:
        counted = 0  # a counted rectangle needs a line

    def fits(left: int) -> bool:  # no more rectangles than spare need no count
        return not left or (
            not left & ~counted and (left.bit_count() <= spare or count(left) <= spare)
        )

    meets = [cover.slots[i] for i in cand_slots]
    stabs = [cover.lines[t] for t in free]
    slot_reach, line_reach = suffix_ors(meets), suffix_ors(stabs)

    def slot_combos(n, n_lines, p, combo, gaps, missing):
        """Combos extending combo by n slots of cand_slots[p:], with their
        gaps and what they leave of missing."""
        if n == 0:
            yield combo, gaps, missing
            return
        lines_reach = line_reach[0] if n_lines else 0
        for q in range(p, len(cand_slots) - n + 1):
            b = cand_slots[q]
            grown = gaps
            if combo and bisect_left(fixed, combo[-1]) == bisect_left(fixed, b):
                gap = (bisect_left(free, combo[-1]), bisect_left(free, b))
                if gap[0] == gap[1] or len(gaps) == n_lines:
                    continue
                grown = [*gaps, gap]
            left = missing & ~meets[q]
            if fits(left & ~(slot_reach[q + 1] if n > 1 else 0) & ~lines_reach):
                yield from slot_combos(n - 1, n_lines, q + 1, (*combo, b), grown, left)

    for total in range(budget + 1):
        for n_slots in range(total + 1):
            n_lines = total - n_slots
            if n_lines > len(free):
                continue
            for slot_combo, gaps, missing in slot_combos(n_slots, n_lines, 0, (), [], need):
                for line_pick in _hitting_picks(
                    free, gaps, n_lines, missing, stabs, line_reach, fits
                ):
                    yield slot_combo, line_pick


def _guesses(
    base: tuple[int, ...], m: int, fixed_idx: frozenset[int], budget: int, cover: Optional[Cover]
) -> Iterator[Guess]:
    """The guesses over the ascending pool base, candidate indices of the m
    candidates of its axis, that _separated_families yields, in its order."""
    families = _separated_families(len(base), _candidate_slots(base, m), fixed_idx, budget, cover)
    for slot_combo, line_pick in families:
        yield Guess(base, slot_combo, frozenset(base[t] for t in line_pick))


def enumerate_vertical_guesses(
    v0: Sequence[int], k_v: int, m: int, cover: Optional[Cover] = None
) -> Iterator[Guess]:
    """All guesses (slots, V1) over the pool v0, candidate indices of the m
    vertical candidates, with |slots| + |V1| <= floor(3*k_v/2), the slots
    separated by V1 and each holding a candidate strictly inside, in the
    order of _separated_families. A strip with no interior candidate can
    hold no solution line, so it is never guessed. With a cover (slots and
    lines indexed over sorted v0), only guesses reaching it are yielded;
    guess counters count yields."""
    yield from _guesses(tuple(sorted(v0)), m, frozenset(), (3 * k_v) // 2, cover)


def enumerate_horizontal_guesses(
    h1: Sequence[int],
    h0: Sequence[int],
    k_h: int,
    m: int,
    cover: Optional[Cover] = None,
) -> Iterator[Guess]:
    """All guesses (slots, H1') over the pool H1 | H0, candidate indices of
    the m horizontal candidates, with |H1| + |slots| + |H1'| <= 2*k_h, H1'
    drawn from H0, and the slots (each with a candidate strictly inside)
    separated by H1 together with H1'. Same order, cover and counting as
    the vertical enumeration; cover slots and lines are indexed over
    sorted H1 | H0."""
    base = tuple(sorted(set(h1) | set(h0)))
    h1set = set(h1)
    h1_idx = frozenset(t for t, j in enumerate(base) if j in h1set)
    yield from _guesses(base, m, h1_idx, 2 * k_h - len(h1), cover)


def eliminate_redundant(
    tables: Orientation, h1: Sequence[int], vg: Guess, k: int
) -> tuple[int, tuple[int, ...]]:
    """Kernelization: (K, H0), with K a mask over tables.inst.rects.

    Among rectangles stabbed by some horizontal candidate but missed by
    H1 and V1, discard the widest-in-strip rectangle on a guessed strip
    boundary while its co-stabbed group needs 2k+2 horizontal lines;
    whatever a boundary line stabs that widely must be handled vertically,
    and the widest rectangle is stabbed by any in-strip vertical line that
    stabs a narrower one. Boundaries are decided once each, by ascending
    slot, left first: a removal only shrinks groups, so a boundary passed
    never fires again, and rescanning after each removal finds the same.
    K is everything kept, H0 a minimum horizontal stabbing of the kept
    leftovers. The group test reads the orientation's count (which the W'
    bound shares), and H0 runs stab_1d over the stabber ranges hlines[a:b]
    of the kept leftovers, in the order tables.horder keeps. H1, H0, V1
    and vg.base are candidate indices.
    """
    inst = tables.inst
    rects = inst.rects
    full = (1 << len(rects)) - 1
    rprime = full & ~(tables.v_only | tables.stabbed(h1, vg.lines))
    removed = 0
    clip = (I64_MIN, *(inst.vlines[t] for t in vg.base), I64_MAX)  # slot s: clip[s]..clip[s + 1]
    for s in sorted(vg.slots):
        lo, hi = clip[s], clip[s + 1]
        for t in vg.base[max(s - 1, 0) : s + 1]:  # the slot's boundaries, left first
            while True:
                group = tables.vmask[t] & rprime & ~removed
                if not _heavy(group, k, tables.count):
                    break
                # every group member holds the boundary, so its clipped width is >= 0
                widest = max(
                    bits(group), key=lambda i: (min(rects[i].x2, hi) - max(rects[i].x1, lo), -i)
                )
                removed |= 1 << widest

    h0 = stab_1d(_in_mask(tables.horder, rprime & ~removed))
    return full & ~removed, tuple(h0)


def assemble_2sat(
    kernel: int,
    vg: Guess,
    hg: Guess,
    inst: Instance,
) -> tuple[twosat.Formula, Callable[[list[bool]], tuple[frozenset[int], frozenset[int]]]]:
    """Formula whose satisfying assignments pick one candidate line inside
    every guessed strip such that every rectangle of kernel, a mask over
    inst.rects, is stabbed.

    The candidates strictly inside the guessed strips are numbered in one
    sequence, vertical strips first, each strip's ascending, so a strip is
    a variable range [s, e) over a candidate index range [lo, hi), and
    candidate j of it is variable j + shift with shift = s - lo. Variable
    t means "the strip's line is at or beyond candidate t - shift":
    ordering clauses chain each strip's thresholds and a unit clause pins
    its first, so decode, which returns candidate indices, gives exactly
    one line per strip. A rectangle's stabbers inside a strip are its
    stabber-table range clipped to the strip's variables, [p, q), and the
    strip holds the rectangle (some candidate inside stabs it) exactly
    when p < q. A rectangle stabbed inside a strip exactly by variables
    [p, q) needs p and not q (when q < e); held by one strip of each
    family, it needs either strip's condition. Raises GuessInfeasible
    when a guessed strip has no interior candidate or some rectangle is
    held by no guessed strip: no pick of one line per strip stabs it.
    """
    n_vars = 0
    families: list[list[tuple[int, int, int]]] = []  # (s, e, shift) per strip
    for guess, axis in ((vg, Axis.VERTICAL), (hg, Axis.HORIZONTAL)):
        ends = (-1, *guess.base, len(inst.line_positions(axis)))  # slot i: ends[i]..ends[i + 1]
        strips = []
        for i in guess.slots:
            lo, hi = ends[i] + 1, ends[i + 1]
            if lo == hi:
                raise GuessInfeasible("guessed strip contains no candidate line")
            strips.append((n_vars, n_vars + hi - lo, n_vars - lo))
            n_vars += hi - lo
        families.append(strips)
    v_strips, h_strips = families

    f = twosat.Formula(num_vars=n_vars)
    for s, e, _ in v_strips + h_strips:
        for t in range(s, e - 1):
            f.add_clause((t + 1, True), (t, False))  # threshold t+1 implies threshold t
        f.add_unit((s, False))

    ranges, ids = inst.stabbers
    for r in bits(kernel):
        a, b, c, d = ranges[ids[r]]
        stabs: list[list[twosat.Lit]] = []  # per strip that holds the rectangle
        for strips, first, stop in ((v_strips, c, d), (h_strips, a, b)):
            # its stabbers [first, stop) as variables, clipped to each strip
            clipped = [(max(first + shift, s), min(stop + shift, e), e) for s, e, shift in strips]
            hits = [(p, q, e) for p, q, e in clipped if p < q]
            if len(hits) > 1:
                raise RuntimeError("kernel rectangle meets two strips of one family")
            for p, q, e in hits:
                stabs.append([(p, False), (q, True)] if q < e else [(p, False)])
        if not stabs:
            raise GuessInfeasible("kernel rectangle held by no guessed strip")
        if len(stabs) == 2:
            for x, y in product(*stabs):
                f.add_clause(x, y)
        else:
            for lit in stabs[0]:
                f.add_unit(lit)

    def decode(values: list[bool]) -> tuple[frozenset[int], frozenset[int]]:
        def pick(s: int, e: int, shift: int) -> int:
            return max(t for t in range(s, e) if values[t]) - shift

        return (
            frozenset(pick(s, e, shift) for s, e, shift in h_strips),
            frozenset(pick(s, e, shift) for s, e, shift in v_strips),
        )

    return f, decode


@dataclass(frozen=True)
class SplitWitness:
    """The first satisfiable guess of a split: the preselection and both
    guesses, in candidate indices of the split's inst, the rectangles kept
    by kernelization and the kernel handed to 2-SAT, both as masks over
    its inst.rects, and the assembled solution, in positions."""

    h1: tuple[int, ...]
    v0: tuple[int, ...]
    vguess: Guess
    hguess: Guess
    kept: int
    kernel: int
    solution: Solution


class Orientation:
    """One orientation of an instance with the tables every split over it
    shares; preselect, solve_split and eliminate_redundant work on its
    inst. Every table is built on first use, so a search that preselection
    ends builds no stab masks. No table depends on k, so one object serves
    every split of every search of an instance (see of). packing, the
    lower bound solve_with_budget cuts splits by, is one of them."""

    def __init__(self, inst: Instance):
        self.inst = inst
        # k_v -> preselect's (H1, V0), or its None for an infeasible split
        self._preselected: dict[int, Optional[tuple]] = {}

    @classmethod
    def of(cls, inst: Instance) -> Orientation:
        """The upright orientation of inst.reduced, kept in inst's memo next
        to inst.reduced, so every search of that object shares its tables.
        It refers to inst.reduced, never to inst, so the memo makes no
        reference cycle."""
        memo = vars(inst)
        upright = memo.get("_approx_upright")
        if upright is None:
            upright = memo.setdefault("_approx_upright", cls(inst.reduced))
        return upright

    def preselected(self, k_v: int) -> Optional[tuple]:
        if k_v not in self._preselected:
            self._preselected[k_v] = preselect(self, k_v)
        return self._preselected[k_v]

    def vertical_cover(
        self, h1: tuple[int, ...], v0: tuple[int, ...], k: int, spare: int
    ) -> Cover:
        """The cover that every vertical guess over the pool v0 must reach
        when H1 is preselected under the budget k, with spare horizontal
        lines left (see Cover), built with every heavy line's group already
        dropped from its need and counted. Its slot masks are the open
        slots' hold masks over every rectangle, from which solve_split also
        reads which kernel rectangles a guess's strips hold."""
        full = (1 << len(self.inst.rects)) - 1
        missed = full & ~self.stabbed(h1, ())
        counted = missed & ~self.v_only
        heavy = 0
        for t in v0:
            group = self.vmask[t] & counted
            if _heavy(group, k, self.count):
                heavy |= group
        return Cover(
            missed & ~heavy,
            held_masks(self.inst, Axis.VERTICAL, v0, full),
            [self.vmask[t] for t in v0],
            counted & ~heavy,
            spare,
            self.count,
        )

    @cached_property
    def need(self) -> _NeedRows:
        """preselect's need table, shared by every budget asked of inst."""
        return _NeedRows(self.inst)

    @cached_property
    def count(self) -> Callable[[int], int]:
        """Fewest horizontal candidates that stab the rectangles of a mask,
        for the masks horder lists, kept by mask: the W' bound, the heavy
        test and kernelization's group test read it. It holds horder and
        its dict, not self, so it makes no reference cycle."""
        return partial(_count, self.horder, {})

    @cached_property
    def hmask(self) -> tuple[int, ...]:
        """Stab mask of each horizontal candidate, by candidate index."""
        return line_masks(self.inst, Axis.HORIZONTAL)

    @cached_property
    def vmask(self) -> tuple[int, ...]:
        """Stab mask of each vertical candidate, by candidate index."""
        return line_masks(self.inst, Axis.VERTICAL)

    @cached_property
    def horder(self) -> list[tuple[int, int, int]]:
        """(a, b, i) for each rectangle i some horizontal candidate stabs,
        hlines[a:b] its horizontal stabbers, by b, then a, then i: the
        order stab_1d takes them in, restricted to a mask by _in_mask. count
        and kernelization's H0 run over it."""
        ranges, ids = self.inst.stabbers
        spans = ((*ranges[j][:2], i) for i, j in enumerate(ids))
        return sorted(((a, b, i) for a, b, i in spans if a < b), key=itemgetter(1, 0, 2))

    @cached_property
    def v_only(self) -> int:
        """Rectangles no horizontal candidate stabs."""
        return ((1 << len(self.inst.rects)) - 1) & ~self.stabbed(range(len(self.hmask)), ())

    def stabbed(self, hlines: Iterable[int], vlines: Iterable[int]) -> int:
        """Mask of the rectangles some of these candidate lines (indices) stab."""
        mask = 0
        for t in hlines:
            mask |= self.hmask[t]
        for t in vlines:
            mask |= self.vmask[t]
        return mask

    @cached_property
    def packing(self) -> int:
        """exact.packing_bound of inst, a lower bound on its optimum; the
        flipped orientation's optimum is the same, and solve_with_budget
        reads this one's bound for the splits of both."""
        return packing_bound(self.inst)

    @cached_property
    def flipped(self) -> Orientation:
        """The transposed orientation, built on first use."""
        return Orientation(transpose(self.inst))


def solve_split(
    tables: Orientation, k_h: int, k_v: int, stats: Optional[SearchStats] = None
) -> Optional[SplitWitness]:
    """Run the pipeline for one split with k_h <= k_v on tables.inst,
    kernelizing under the budget k_h + k_v: the first satisfiable guess in
    enumeration order, or None when every guess of the split fails."""
    stats = stats if stats is not None else SearchStats()
    inst = tables.inst
    pre = tables.preselected(k_v)
    if pre is None:
        return None
    h1, v0 = pre
    if len(h1) > 2 * k_h:
        return None  # no horizontal guess can fit the budget

    vcover = tables.vertical_cover(h1, v0, k_h + k_v, 2 * k_h - len(h1))
    # A guess can succeed only if it reaches vcover (every rectangle no
    # horizontal candidate stabs, and leaves of the others, but those in
    # heavy groups, what at most 2k_h - |H1| horizontal candidates stab)
    # and every kernel rectangle is held by a guessed strip of either axis
    # or stabbed by H1' (hcover): see Cover. The kernel starts from every
    # rectangle H1 and V1 miss, never from vcover's need.
    # The enumerators yield only guesses that reach their cover with a
    # candidate inside every strip, so assemble_2sat has no GuessInfeasible
    # to raise here; one would be a broken invariant and propagates instead
    # of passing for a failed guess.
    for vg in enumerate_vertical_guesses(v0, k_v, len(inst.vlines), vcover):
        stats.vertical_guesses += 1
        kept, h0 = eliminate_redundant(tables, h1, vg, k_h + k_v)
        unstabbed = kept & ~tables.stabbed(h1, vg.lines)
        off_vstrips = unstabbed
        for i in vg.slots:
            off_vstrips &= ~vcover.slots[i]
        hbase = sorted(set(h1) | set(h0))
        hcover = Cover(
            off_vstrips,
            held_masks(inst, Axis.HORIZONTAL, hbase, off_vstrips),
            [tables.hmask[t] for t in hbase],
        )
        for hg in enumerate_horizontal_guesses(h1, h0, k_h, len(inst.hlines), hcover):
            stats.horizontal_guesses += 1
            kernel = unstabbed & ~tables.stabbed(hg.lines, ())
            formula, decode = assemble_2sat(kernel, vg, hg, inst)
            stats.twosat_calls += 1
            assignment = twosat.solve(formula)
            if assignment is None:
                continue
            h2, v2 = decode(assignment)
            ys, xs = inst.hlines, inst.vlines
            sol = Solution((ys[t] for t in {*h1, *hg.lines, *h2}), (xs[t] for t in vg.lines | v2))
            return SplitWitness(h1, v0, vg, hg, kept, kernel, sol)
    return None


def solve_with_budget(
    inst: Instance, k: int, stats: Optional[SearchStats] = None
) -> Optional[Solution]:
    """Stabbing set of size <= floor(7k/4), or None.

    Tries the k + 1 splits k_h + k_v = k in ascending k_h, transposing the
    instance when k_h > k_v so the executed pipeline always has k_h <= k_v.
    These suffice: every stage reads the split's sizes only as upper
    bounds (preselection's gap test, which keeps |H1| within the
    horizontal part of any solution with at most k_v vertical lines; the
    vertical guess budget floor(3*k_v/2); the spare 2*k_h - |H1|; the
    horizontal budget 2*k_h), and kernelization reads only the total k.
    So a solution with s_h horizontal and s_v vertical lines, s_h + s_v <=
    k, is found by the split (s_h, k - s_h) as by (s_h, s_v), and the
    answer stays within 2*min + floor(3*max/2) <= floor(7k/4) of that
    split. None is returned only after every split is exhausted, which
    certifies that no stabbing subset of size <= k exists.

    A split whose size bound 2*min + floor(3*max/2) is below the packing
    bound of inst.reduced (Orientation.packing, a lower bound on the
    optimum) is skipped, and stats do not count it. That changes no
    answer and keeps the certificate. Every split's bound is at least k,
    so when a solution of size <= k exists, bound >= k >= OPT >= packing
    for every split and none is skipped. A skipped split's pipeline
    assembles at most bound lines, and every solution has at least
    packing > bound, so its search would find none.

    Every split runs on inst.reduced, which has the same optimum; the
    answer is checked against inst itself. The reduction and the split
    tables are kept on inst, so calls with several budgets on one object
    reduce it once, transpose it at most once and preselect at most once
    per orientation and k_v; stats count the same as on a fresh copy. Time
    a cold search on a new Instance.
    """
    if k < 0:
        raise ValueError("budget must be nonnegative")
    stats = stats if stats is not None else SearchStats()
    upright = Orientation.of(inst)
    for k_h in range(k + 1):
        k_v = k - k_h
        bound = 2 * min(k_h, k_v) + (3 * max(k_h, k_v)) // 2
        if bound < upright.packing:
            continue  # every solution is larger than the split may answer
        stats.splits += 1
        if k_h <= k_v:
            found = solve_split(upright, k_h, k_v, stats)
            sol = found.solution if found is not None else None
        else:
            found = solve_split(upright.flipped, k_v, k_h, stats)
            sol = found.solution.transpose() if found is not None else None
        if sol is None:
            continue
        if verify(inst, sol) or len(sol) > bound:
            raise RuntimeError("assembled solution misses a rectangle or exceeds its size bound")
        return sol
    return None


def solve_min(
    inst: Instance, k_max: int, stats: Optional[SearchStats] = None
) -> Optional[tuple[int, Solution]]:
    """Smallest budget k <= k_max the approximation succeeds at, with its
    solution; an upper bound witness for the optimum, not the optimum."""
    if k_max < 0:
        raise ValueError("budget must be nonnegative")
    for k in range(k_max + 1):
        sol = solve_with_budget(inst, k, stats)
        if sol is not None:
            return k, sol
    return None
