"""Exact-integer geometric primitives for rectangle stabbing.

Lines, closed rectangles, problem instances, solutions, the stabbing
kernel (stab masks: Python integers whose bit i stands for inst.rects[i])
and the open-strip machinery shared by the solvers. All coordinates are
plain Python integers kept within signed 64-bit range; every value is
immutable and every operation is a pure function, so everything here is
safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import xor
from typing import Iterable, Iterator, Optional, Sequence

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
_ABOVE = I64_MAX + 1  # sentinel above every coordinate


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


@dataclass(frozen=True)
class Line:
    """An axis-parallel line: y = pos (horizontal) or x = pos (vertical)."""

    axis: Axis
    pos: int

    def __post_init__(self) -> None:
        _check_i64(self.pos)


@dataclass(frozen=True)
class Rect:
    """Closed axis-parallel rectangle [x1,x2] x [y1,y2]; zero extent allowed."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self) -> None:
        _check_i64(self.x1, self.x2, self.y1, self.y2)
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"malformed rectangle {self}")

    def interval(self, axis: Axis) -> tuple[int, int]:
        """Extent crossed by lines of the given axis (x for vertical lines)."""
        if axis is Axis.VERTICAL:
            return (self.x1, self.x2)
        return (self.y1, self.y2)

    def transpose(self) -> "Rect":
        return Rect(self.y1, self.y2, self.x1, self.x2)


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
        if self.lo is not None:
            _check_i64(self.lo)
        if self.hi is not None:
            _check_i64(self.hi)
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ValueError(f"empty strip bounds ({self.lo}, {self.hi})")

    def contains_pos(self, pos: int) -> bool:
        return (self.lo is None or pos > self.lo) and (self.hi is None or pos < self.hi)

    def meets_interval(self, a: int, b: int) -> bool:
        """Does the closed interval [a,b] intersect the open strip interior?"""
        return (self.hi is None or a < self.hi) and (self.lo is None or b > self.lo)


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


def line_masks(inst: Instance, axis: Axis) -> dict[int, int]:
    """Stab mask of every candidate line of one axis, keyed by position in
    ascending order: bit i is set iff the line stabs inst.rects[i].

    One sweep: each rectangle toggles its bit at its first stabbing
    position and again past its last, and a running XOR accumulates them.
    """
    positions = inst.line_positions(axis)
    toggles = [0] * (len(positions) + 1)
    for i, r in enumerate(inst.rects):
        a, b = r.interval(axis)
        bit = 1 << i
        toggles[bisect_left(positions, a)] ^= bit
        toggles[bisect_right(positions, b)] ^= bit
    return dict(zip(positions, accumulate(toggles, xor)))


def stab_mask(inst: Instance, hlines: Iterable[int], vlines: Iterable[int] = ()) -> int:
    """Mask of the rectangles some of the given lines stab: bit i is set iff
    one of them stabs inst.rects[i]. Boundary contact counts.

    One pass per nonempty pool with one bisection per rectangle. The flags
    are collected as a string of binary digits and converted once, which
    is cheaper than growing an integer bit by bit; the two axes are spelled
    out because attribute access is the cost of each pass.
    """
    rects = inst.rects[::-1]  # the last rectangle is the leading digit
    mask = 0
    hs = sorted(hlines)
    if hs:
        hs.append(_ABOVE)
        digits = ["1" if hs[bisect_left(hs, r.y1)] <= r.y2 else "0" for r in rects]
        mask |= int("0" + "".join(digits), 2)
    vs = sorted(vlines)
    if vs:
        vs.append(_ABOVE)
        digits = ["1" if vs[bisect_left(vs, r.x1)] <= r.x2 else "0" for r in rects]
        mask |= int("0" + "".join(digits), 2)
    return mask


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    digits = bin(mask)[:1:-1]  # least significant digit first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def verify(inst: Instance, sol: Solution) -> list[Rect]:
    """Return the rectangles stabbed by no solution line, in input order.

    Raises UnknownLineError if the solution uses lines outside the
    instance's candidate sets instead of silently dropping them.
    """
    foreign = [Line(Axis.HORIZONTAL, y) for y in sorted(sol.hlines - set(inst.hlines))]
    foreign += [Line(Axis.VERTICAL, x) for x in sorted(sol.vlines - set(inst.vlines))]
    if foreign:
        raise UnknownLineError(foreign)
    missed = ((1 << len(inst.rects)) - 1) & ~stab_mask(inst, sol.hlines, sol.vlines)
    return [inst.rects[i] for i in bits(missed)]


def transpose(inst: Instance) -> Instance:
    """Swap x and y everywhere; an involution mapping solutions likewise."""
    return Instance(
        rects=[r.transpose() for r in inst.rects],
        hlines=inst.vlines,
        vlines=inst.hlines,
    )


def strips_of(axis: Axis, positions: Sequence[int]) -> list[Strip]:
    """The n+1 open strips cut out of the plane by n sorted line positions."""
    for a, b in zip(positions, positions[1:]):
        if a >= b:
            raise ValueError("line positions must be strictly increasing")
    bounds: list[Optional[int]] = [None, *positions, None]
    return [Strip(axis, bounds[i], bounds[i + 1]) for i in range(len(positions) + 1)]


def rect_meets_strip(strip: Strip, rect: Rect) -> bool:
    """True iff the rectangle's extent intersects the strip's open interior."""
    a, b = rect.interval(strip.axis)
    return strip.meets_interval(a, b)
