"""Exact-integer geometric primitives for rectangle stabbing.

Lines, closed rectangles, problem instances, solutions, the stabbing
kernel (stab masks: Python integers whose bit i stands for inst.rects[i]),
the slot hold masks of the guess covers, and the dominance reduction both
solvers start from. All coordinates are plain Python integers kept within
signed 64-bit range; every value is immutable and every operation is a
pure function, so everything here is safe to share across threads. Rect
and Line are slotted (no per-object __dict__), and one chained
comparison validates the common case of a new one.

The stabbing kernel reads one table per instance (Instance.stabbers),
built by a single pass that bisects each rectangle once: a rectangle
stabbed by exactly hlines[a:b] and vlines[c:d] has the ranges
(a, b, c, d), rectangles with equal ranges form one stabber class, and
the table holds each class's ranges once and the class id of every
rectangle. The ranges are raw: an empty range keeps where it lies (a == b
counts the candidates below the rectangle), which preselection needs, so
rectangles with equal stabber sets can fall into several classes; the
dominance reduction makes empty ranges (0, 0) per class, so that equal
stabber sets have equal ranges. stab_mask (and through it verify) decides
one hit per class and maps the answers back over the class ids, unless
every class is hit; line_masks, held_masks, approx.preselect,
approx.Orientation.horder (the horizontal ranges the W' count and
kernelization hand greedy1d.stab_1d as they are) and exact.opt_exact
read the ranges, and drop_dominated starts
its rounds from them; like the approximation's search, line_masks and
held_masks name lines by candidate index. A derived instance always
carries its table and its line masks, and never bisects again:
drop_dominated's result, always a new instance, is handed its kept
classes' raw ranges renumbered to the kept lines and both axes' masks;
transpose swaps the axes of its source's table and of the masks its
source holds, building none, so a reduced instance's transpose carries
both axes' masks too.

The dominance reduction runs in rounds over stabber classes. Each round
builds both axes' class masks once, keeps the undominated classes, keeps
the lines undominated over those, and renumbers what is left. It ends at
a line pass that drops no line, or, after a renumbering, at a class pass
that keeps every class, with no line pass; drop_dominated's docstring
proves that neither exit changes the result.

An Instance carries a per-object memo of pure values derived from it
(its stabber table, each axis's line masks, its reduced instance, and
the upright approx.Orientation over that, which owns every table the
search's splits read), so repeated questions about one object share the
work; two threads racing on the memo can only compute the same value
twice. Copies and pickles carry the fields only and start with no memo.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import or_, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Axis(Enum):
    HORIZONTAL = "h"
    VERTICAL = "v"


class UnknownLineError(ValueError):
    """A solution references lines that are not instance candidates."""

    def __init__(self, lines: Sequence["Line"]):
        self.lines = tuple(lines)
        desc = ", ".join(f"{ln.axis.value}@{ln.pos}" for ln in self.lines)
        super().__init__(f"solution lines not among instance candidates: {desc}")


def _check_i64(*vals: int) -> None:
    for v in vals:
        if not isinstance(v, int):
            raise TypeError(f"coordinate {v!r} is not an integer")
        if not I64_MIN <= v <= I64_MAX:
            raise OverflowError(f"coordinate {v} outside signed 64-bit range")


@dataclass(frozen=True, init=False, slots=True)
class Line:
    """An axis-parallel line: y = pos (horizontal) or x = pos (vertical)."""

    axis: Axis
    pos: int

    def __init__(self, axis: Axis, pos: int) -> None:
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "pos", pos)
        if not (type(pos) is int and I64_MIN <= pos <= I64_MAX):
            _check_i64(pos)


@dataclass(frozen=True, init=False, slots=True)
class Rect:
    """Closed axis-parallel rectangle [x1,x2] x [y1,y2]; zero extent allowed."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __init__(self, x1: int, x2: int, y1: int, y2: int) -> None:
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)
        # One test passes the common case. Anything else, bools and other
        # int subclasses included, takes the full checks, which raise type
        # and range errors before a malformed rectangle.
        if not (
            type(x1) is int and type(x2) is int and type(y1) is int and type(y2) is int
            and I64_MIN <= x1 <= x2 <= I64_MAX and I64_MIN <= y1 <= y2 <= I64_MAX
        ):
            _check_i64(x1, x2, y1, y2)
            if x1 > x2 or y1 > y2:
                raise ValueError(f"malformed rectangle {self}")

    def interval(self, axis: Axis) -> tuple[int, int]:
        """Extent crossed by lines of the given axis (x for vertical lines)."""
        if axis is Axis.VERTICAL:
            return (self.x1, self.x2)
        return (self.y1, self.y2)

    def transpose(self) -> "Rect":
        return Rect(self.y1, self.y2, self.x1, self.x2)


class Stabbers(NamedTuple):
    """The stabber table of an instance (see the module docstring):
    ranges[j] = (a, b, c, d) when the rectangles of class j are stabbed by
    exactly hlines[a:b] and vlines[c:d], with raw empty ranges, and ids[i]
    is the class of rects[i]. Classes are numbered in the order of their
    first rectangle. The ids are an unsigned 32-bit array, half the size of
    a list of them."""

    ranges: list[tuple[int, int, int, int]]
    ids: array

    def mask(self, flags: Sequence[str]) -> int:
        """Mask of the rectangles whose class j has flags[j] == "1"."""
        digits = "".join(map(flags.__getitem__, self.ids))  # rects[0] first
        return int("0" + digits[::-1], 2)


@dataclass(frozen=True)
class Instance:
    """A set of rectangles plus candidate lines, split by axis.

    Candidate positions are deduplicated and sorted at construction;
    duplicate rectangles are kept and treated independently.
    """

    rects: tuple[Rect, ...]
    hlines: tuple[int, ...]
    vlines: tuple[int, ...]

    def __init__(self, rects: Iterable[Rect], hlines: Iterable[int], vlines: Iterable[int]):
        object.__setattr__(self, "rects", tuple(rects))
        object.__setattr__(self, "hlines", tuple(sorted(set(hlines))))
        object.__setattr__(self, "vlines", tuple(sorted(set(vlines))))
        _check_i64(*self.hlines, *self.vlines)

    def line_positions(self, axis: Axis) -> tuple[int, ...]:
        return self.vlines if axis is Axis.VERTICAL else self.hlines

    @cached_property
    def stabbers(self) -> Stabbers:
        """The stabber table, built by one pass that bisects each rectangle
        once, unless a derived instance was handed its table."""
        hpos, vpos = self.hlines, self.vlines
        classes: dict[tuple[int, int, int, int], int] = {}
        ids = [
            classes.setdefault(
                (bisect_left(hpos, r.y1), bisect_right(hpos, r.y2),
                 bisect_left(vpos, r.x1), bisect_right(vpos, r.x2)),
                len(classes),
            )
            for r in self.rects
        ]
        return Stabbers(list(classes), array("I", ids))

    @cached_property
    def reduced(self) -> "Instance":
        """drop_dominated(self), computed once per object. It is always a
        new instance, so the memo holds no reference back to its own
        object."""
        return drop_dominated(self)

    def __getstate__(self) -> dict:
        # copies and pickles carry the fields only and start with no memo
        return {"rects": self.rects, "hlines": self.hlines, "vlines": self.vlines}


@dataclass(frozen=True)
class Solution:
    """A chosen subset of candidate lines, by axis."""

    hlines: frozenset[int]
    vlines: frozenset[int]

    def __init__(self, hlines: Iterable[int] = (), vlines: Iterable[int] = ()):
        object.__setattr__(self, "hlines", frozenset(hlines))
        object.__setattr__(self, "vlines", frozenset(vlines))

    def __len__(self) -> int:
        return len(self.hlines) + len(self.vlines)

    def transpose(self) -> "Solution":
        return Solution(hlines=self.vlines, vlines=self.hlines)

    def lines(self) -> list[Line]:
        return [Line(Axis.HORIZONTAL, y) for y in sorted(self.hlines)] + [
            Line(Axis.VERTICAL, x) for x in sorted(self.vlines)
        ]


def _handed(inst: Instance, table: Stabbers, masks: dict[Axis, tuple[int, ...]]) -> Instance:
    """inst with its stabber table, and its line masks of the axes in
    masks, already in the memo."""
    memo = vars(inst)
    memo["stabbers"] = table
    memo.setdefault("_line_masks", {}).update(masks)
    return inst


def line_masks(inst: Instance, axis: Axis) -> tuple[int, ...]:
    """Stab mask of every candidate line of one axis, in candidate order:
    bit i of masks[t] is set iff inst.line_positions(axis)[t] stabs
    inst.rects[i].

    The masks are built once per instance and axis and kept in its memo;
    every call returns that tuple. A derived instance is handed its masks:
    drop_dominated hands over both axes', transpose those its source
    holds. Otherwise they are read off the stabber table without
    bisecting: one pass over the class ids gathers each class's
    rectangles, and each class sets its mask in the masks of its range of
    the axis's candidates."""
    held = vars(inst).setdefault("_line_masks", {})
    masks = held.get(axis)
    if masks is None:
        table = inst.stabbers
        members = [0] * len(table.ranges)
        for i, j in enumerate(table.ids):
            members[j] |= 1 << i
        own = 0 if axis is Axis.HORIZONTAL else 2  # where the axis sits in (a, b, c, d)
        spans = ((r[own], r[own + 1], m) for r, m in zip(table.ranges, members))
        masks = held.setdefault(axis, tuple(_range_masks(spans, len(inst.line_positions(axis)))))
    return masks


def _range_masks(spans: Iterable[tuple[int, int, int]], m: int) -> list[int]:
    """Masks of m candidates from (s, e, bits) triples: the bits of a triple
    are set in masks[t] for s <= t < e.

    One sweep: each triple toggles its bits at s and again at e, and a
    running XOR accumulates them.
    """
    toggles = [0] * (m + 1)
    for s, e, mask in spans:
        toggles[s] ^= mask
        toggles[e] ^= mask
    return list(accumulate(toggles[:m], xor))


def prefix_counts(indices: Iterable[int], m: int) -> list[int]:
    """counts[t] = how many of the distinct indices (each below m) are
    below t, for t = 0..m. Some index lies in [s, e) iff counts[s] <
    counts[e]."""
    marks = [0] * m
    for t in indices:
        marks[t] = 1
    return list(accumulate(marks, initial=0))


def stab_mask(inst: Instance, hlines: Iterable[int], vlines: Iterable[int] = ()) -> int:
    """Mask of the rectangles some of the given lines stab: bit i is set iff
    one of them stabs inst.rects[i]. Boundary contact counts.

    The lines must be candidates of inst: the kernel works on candidate
    indices, so any other line raises UnknownLineError (all such lines,
    sorted, horizontal first) instead of being bisected to a neighbour.
    With prefix counts of the lines' indices, one test per stabber class
    decides whether a line lies in its ranges, and the table maps the
    answers back over the class ids; when every class is hit, the mask is
    every rectangle and nothing is mapped.
    """
    counts = []
    foreign = []
    for axis, lines in ((Axis.HORIZONTAL, hlines), (Axis.VERTICAL, vlines)):
        positions = inst.line_positions(axis)
        index = []
        for pos in sorted(set(lines)):
            t = bisect_left(positions, pos)
            if t < len(positions) and positions[t] == pos:
                index.append(t)
            else:
                foreign.append(Line(axis, pos))
        counts.append(prefix_counts(index, len(positions)))
    if foreign:
        raise UnknownLineError(foreign)
    ch, cv = counts
    table = inst.stabbers
    flags = ["1" if ch[a] < ch[b] or cv[c] < cv[d] else "0" for a, b, c, d in table.ranges]
    if "0" in flags:
        return table.mask(flags)
    return (1 << len(inst.rects)) - 1  # every class is hit


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    digits = bin(mask)[:1:-1]  # least significant digit first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def verify(inst: Instance, sol: Solution) -> list[Rect]:
    """Return the rectangles stabbed by no solution line, in input order.

    Raises UnknownLineError (from stab_mask) if the solution uses lines
    outside the instance's candidate sets instead of silently dropping
    them.
    """
    missed = ((1 << len(inst.rects)) - 1) & ~stab_mask(inst, sol.hlines, sol.vlines)
    return [inst.rects[i] for i in bits(missed)]


def drop_dominated(inst: Instance) -> Instance:
    """Subinstance with the same optimum, every solution of which stabs inst.

    A rectangle goes when its stabber set strictly contains another one's,
    or equals that of an earlier rectangle: whatever stabs the other one
    stabs it too. A line goes when it stabs nothing, when its stab set lies
    strictly inside another line's on either axis, or when it equals that
    of a canonically smaller line (horizontal before vertical, ascending):
    the other line can replace it in any solution. Dropping lines can make
    more rectangles dominated and dropping rectangles more lines, so the
    two passes repeat until neither drops anything. Rectangles keep their
    input order.

    The rounds start from inst's stabber table and bisect nothing. Its
    classes with an empty range made (0, 0) on that axis merge where their
    stabber sets are equal, keeping the lowest class and so the lowest
    input index. The rounds run on classes in index space. A round builds
    both axes' class masks once (_class_masks: bit j of a line's mask for
    the round's class j), keeps the undominated classes (a keep mask), and
    keeps the lines undominated over them, reading the same masks with the
    dropped classes' bits cleared. It then renumbers the kept ranges by
    prefix counts of the kept lines; classes that become equal merge and
    keep the lower index (_merge_classes, one rule for both). A line's
    dominators on its own axis form an interval around it, and those on
    the other axis lie in one range of its lowest class, so two short
    scans find them all (_undominated_lines).

    The loop ends at the first of two exits, each exact:

    (a) A line pass that drops no line. The next class pass would see the
        same lines and the kept classes. Each of those was undominated
        among a superset of them, so it stays, and the line pass after it
        would see the same lines and classes again and drop nothing.
    (b) After a renumbering, a class pass that keeps every class; it needs
        no line pass. Classes merge only when their stabber sets agree on
        the kept lines, so every kept line stabs both merged classes or
        neither. So whether a kept line stabs nothing, and subset and
        equality between kept lines, are what they were over the classes
        before the merge. Each kept line was undominated then, against a
        superset of today's lines, so it stays.

    The classes are held as two parallel lists, their ranges and their
    first classes, in ascending first class. One new Instance is built at
    the end, whatever went, from each kept class's first rectangle. It is
    handed its table: those rectangles' raw ranges renumbered by prefix
    counts of the kept lines, one class each. It is handed both axes' line
    masks (see line_masks) too: the class masks of the last class pass,
    or, after an exit (a) round that dropped a class, whose bits still sit
    at the dropped classes' positions, those of one more _class_masks
    sweep over the kept classes. Either holds one mask per kept line, in
    candidate order, with bit j for kept class j; the classes run in
    ascending order, as do their first rectangles, so class j is the
    result's rectangle j.
    """
    table = inst.stabbers
    spans, firsts = _merge_classes(enumerate(table.ranges))
    # the input indices of the lines still in play
    hkept: Sequence[int] = range(len(inst.hlines))
    vkept: Sequence[int] = range(len(inst.vlines))
    renumbered = False
    while True:
        hmasks, vmasks = _class_masks(spans, len(hkept), len(vkept))
        keep = _undominated_classes(spans, hmasks, vmasks)
        full = (1 << len(spans)) - 1
        if keep == full and renumbered:
            break  # exit (b): the line pass would keep every line
        passed = spans  # the classes the bits of this pass's masks stand for
        if keep != full:
            spans, firsts = [spans[j] for j in bits(keep)], [firsts[j] for j in bits(keep)]
            hmasks, vmasks = [m & keep for m in hmasks], [m & keep for m in vmasks]
        ht, vt = _undominated_lines(passed, hmasks, vmasks)
        if (len(ht), len(vt)) == (len(hkept), len(vkept)):
            if keep != full:  # bits still sit at the dropped classes' positions
                hmasks, vmasks = _class_masks(spans, len(hkept), len(vkept))
            break  # exit (a): the next class pass would keep every class
        # the new index of a kept line or range end: the kept lines below it
        ph, pv = prefix_counts(ht, len(hkept)), prefix_counts(vt, len(vkept))
        spans, firsts = _merge_classes(zip(firsts, [(ph[a], ph[b], pv[c], pv[d]) for a, b, c, d in spans]))
        hkept, vkept = [hkept[t] for t in ht], [vkept[t] for t in vt]
        renumbered = True
    ph, pv = prefix_counts(hkept, len(inst.hlines)), prefix_counts(vkept, len(inst.vlines))
    rects, ranges = [], []
    i = 0
    for j in firsts:  # ascending, and so are the classes' first rectangles
        i = table.ids.index(j, i)
        a, b, c, d = table.ranges[j]
        rects.append(inst.rects[i])
        ranges.append((ph[a], ph[b], pv[c], pv[d]))
    reduced = Instance(rects, [inst.hlines[t] for t in hkept], [inst.vlines[t] for t in vkept])
    masks = {Axis.HORIZONTAL: tuple(hmasks), Axis.VERTICAL: tuple(vmasks)}
    return _handed(reduced, Stabbers(ranges, array("I", range(len(ranges)))), masks)


def _merge_classes(
    ranged: Iterable[tuple[int, tuple[int, int, int, int]]]
) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """The merged classes' ranges and first classes, as two parallel lists,
    from (class, ranges) pairs in ascending class. An empty range is made
    (0, 0), and classes whose ranges are then equal merge into the first,
    lowest one."""
    merged: dict[tuple[int, int, int, int], int] = {}
    for j, (a, b, c, d) in ranged:
        if a == b:
            a = b = 0
        if c == d:
            c = d = 0
        merged.setdefault((a, b, c, d), j)
    return list(merged), list(merged.values())


def _class_masks(
    spans: list[tuple[int, int, int, int]], mh: int, mv: int
) -> tuple[list[int], list[int]]:
    """The class-bit masks of the mh horizontal and mv vertical candidates
    over the classes spans: bit j of a candidate's mask is set iff it lies
    in spans[j]'s range of its axis. One toggle sweep builds both axes (as
    in _range_masks)."""
    th, tv = [0] * (mh + 1), [0] * (mv + 1)
    bit = 1
    for a, b, c, d in spans:
        th[a] ^= bit
        th[b] ^= bit
        tv[c] ^= bit
        tv[d] ^= bit
        bit <<= 1
    return list(accumulate(th[:mh], xor)), list(accumulate(tv[:mv], xor))


def _undominated_classes(
    spans: list[tuple[int, int, int, int]], hmasks: list[int], vmasks: list[int]
) -> int:
    """Mask of the spans whose stabber set holds no other one's (bit j for
    spans[j], over the class masks _class_masks built). The classes with a
    stabber outside a class's ranges (an empty range (0, 0) puts its whole
    axis outside) are the OR of the masks before and after its ranges,
    which never holds the class itself; it stays iff that OR holds every
    other class."""
    pre_h = list(accumulate(hmasks, or_, initial=0))
    pre_v = list(accumulate(vmasks, or_, initial=0))
    suf_h, suf_v = suffix_ors(hmasks), suffix_ors(vmasks)
    full = (1 << len(spans)) - 1
    keep = 0
    bit = 1
    for a, b, c, d in spans:
        if pre_h[a] | suf_h[b] | pre_v[c] | suf_v[d] | bit == full:
            keep |= bit
        bit <<= 1
    return keep


def suffix_ors(masks: Sequence[int]) -> list[int]:
    """suf[t] = the OR of masks[t:], for t = 0..len(masks)."""
    return list(accumulate(reversed(masks), or_, initial=0))[::-1]


def _undominated_lines(
    spans: list[tuple[int, int, int, int]], hmasks: list[int], vmasks: list[int]
) -> tuple[list[int], list[int]]:
    """Indices of the horizontal and the vertical candidates that
    drop_dominated keeps, given their class masks (bit j for spans[j]) with
    the dominated classes' bits cleared.

    Both scans are complete. A line of t's own axis stabs all t does iff
    it lies in every range of t's classes, an interval around t, so the
    walk outward from t stops at the first line that does not. A line of
    the other axis that does stabs t's lowest class, so it lies in that
    class's range. t stays iff neither finds a larger stab set or an equal
    one that comes first: an earlier one of its axis, or a horizontal one
    when t is vertical.
    """
    kept: tuple[list[int], list[int]] = ([], [])
    # own: where the line's own axis sits in an (a, b, c, d) span
    for masks, others, own, out in ((hmasks, vmasks, 0, kept[0]), (vmasks, hmasks, 2, kept[1])):
        for t, mask in enumerate(masks):
            if not mask or t and masks[t - 1] & mask == mask:
                continue  # stabs nothing, or the line before it stabs all it does
            u = t + 1
            while u < len(masks) and masks[u] == mask:
                u += 1
            if u < len(masks) and masks[u] & mask == mask:
                continue  # a later line of its axis stabs more
            low = spans[(mask & -mask).bit_length() - 1]
            for o in others[low[2 - own] : low[3 - own]]:
                if o & mask == mask and (own or o != mask):
                    break  # a line of the other axis stabs more, or as much and comes first
            else:
                out.append(t)
    return kept


def transpose(inst: Instance) -> Instance:
    """Swap x and y everywhere; an involution mapping solutions likewise.
    The result is handed inst's stabber table with the axes swapped, and
    the line masks inst already holds, each as the other axis's; a mask
    inst has not built is not built here. Rectangles keep their order, so
    bit i still stands for rectangle i."""
    flipped = Instance(
        rects=[r.transpose() for r in inst.rects],
        hlines=inst.vlines,
        vlines=inst.hlines,
    )
    ranges, ids = inst.stabbers
    held = vars(inst).get("_line_masks", {})
    h, v = Axis.HORIZONTAL, Axis.VERTICAL
    masks = {new: held[old] for new, old in ((h, v), (v, h)) if old in held}
    return _handed(flipped, Stabbers([(c, d, a, b) for a, b, c, d in ranges], ids), masks)


def held_masks(inst: Instance, axis: Axis, base: Sequence[int], mask: int) -> list[int]:
    """Hold mask of each of the n+1 open strips (slots) that n ascending
    candidate indices base of the axis cut out, left to right, over the
    rectangles of mask: bit i is set iff it is set in mask and some
    candidate strictly inside the slot stabs inst.rects[i].

    Read off the stabber table alone: slot s holds the candidates strictly
    between base[s - 1] and base[s], so a rectangle stabbed by the
    candidates [lo, hi) of the axis, lo < hi, is held by slots
    bisect_right(base, lo) .. bisect_left(base, hi - 1), except a slot
    between adjacent candidates, which holds none. A rectangle with no
    stabber on the axis is held by no slot."""
    ranges, ids = inst.stabbers
    own = 0 if axis is Axis.HORIZONTAL else 2  # where the axis sits in (a, b, c, d)
    spans = []
    for i in bits(mask):
        lo, hi = ranges[ids[i]][own : own + 2]
        if lo < hi:
            spans.append((bisect_right(base, lo), bisect_left(base, hi - 1) + 1, 1 << i))
    held = _range_masks(spans, len(base) + 1)
    ends = [-1, *base, len(inst.line_positions(axis))]  # slot s lies between ends[s], ends[s + 1]
    return [m if ends[s] + 1 < ends[s + 1] else 0 for s, m in enumerate(held)]
