import copy
import gc
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import weakref
from collections import Counter
from itertools import chain, combinations, islice, product
from pathlib import Path

import pytest

from rectstab import approx, core, reduction
from rectstab.approx import (
    Cover,
    Guess,
    GuessInfeasible,
    Orientation,
    SearchStats,
    assemble_2sat,
    eliminate_redundant,
    enumerate_horizontal_guesses,
    enumerate_vertical_guesses,
    preselect,
    solve_min,
    solve_split,
    solve_with_budget,
)
from rectstab.core import (
    Axis,
    Instance,
    Rect,
    Solution,
    bits,
    drop_dominated,
    held_masks,
    line_masks,
    stab_mask,
    transpose,
    verify,
)
from rectstab.exact import SearchBudget, opt_exact, packing_bound
from rectstab.generators import gen_mcgraph, gen_planted, gen_uniform
from rectstab.rng import Xoshiro256StarStar
from rectstab.twosat import solve as solve_2sat

from oracles import (
    Strip,
    eliminate_by_rescan,
    guess_strips,
    horizontal_guesses_at,
    preselect_by_sweep,
    separated,
    strips_of,
    to_positions,
    vertical_guesses_at,
)

H, V = Axis.HORIZONTAL, Axis.VERTICAL


def _preselect_at(inst, k_v, tables=None):
    """preselect's (H1, V0) over tables, a new Orientation of inst unless
    given, in positions, or None."""
    pre = preselect(tables or Orientation(inst), k_v)
    if pre is None:
        return None
    return to_positions(inst.hlines, pre[0]), to_positions(inst.vlines, pre[1])


def _guess(positions, base, slots, lines=()):
    """The Guess that names, by candidate index into positions, the pool
    base and the picks lines given as positions."""
    index = {p: t for t, p in enumerate(positions)}
    return Guess(tuple(index[p] for p in base), tuple(slots), frozenset(index[p] for p in lines))


# ---------------------------------------------------------------- preselect

def test_preselect_no_rectangles():
    inst = Instance([], hlines=[1, 2], vlines=[3])
    assert _preselect_at(inst, 0) == ((), ())


def test_preselect_hand_trace():
    inst = Instance(
        [Rect(0, 1, 0, 1), Rect(0, 1, 3, 4)],
        hlines=[0, 1, 2, 3, 4, 5],
        vlines=[0, 1],
    )
    h1, v0 = _preselect_at(inst, 1)
    assert h1 == ()
    assert v0 == (1,)


def test_preselect_infeasible_gap():
    # two x-disjoint rects strictly between consecutive horizontal candidates
    inst = Instance(
        [Rect(0, 1, 1, 2), Rect(5, 6, 1, 2)],
        hlines=[0, 3],
        vlines=[0, 5],
    )
    assert preselect(Orientation(inst), 1) is None
    h1, v0 = _preselect_at(inst, 2)  # budget 2 is enough
    assert h1 == () and v0 == (0, 5)


def test_preselect_infeasible_leftover():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[5], vlines=[])
    assert preselect(Orientation(inst), 1) is None


def test_preselect_raises_on_a_need_table_that_accepts_an_unstabbable_class():
    """Every class H1 misses lies in an accepted gap, whose finite need
    says it has a vertical stabber. A need table that accepts a gap
    holding a class with none breaks that, and preselect raises instead
    of answering a no-witness."""
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[5])
    assert _preselect_at(inst, 1) == ((0,), ())
    corrupted = Orientation(inst)
    corrupted.need.rows[0] = (0, 0)  # need(0, 1) is infinite
    with pytest.raises(RuntimeError, match="no vertical stabber"):
        preselect(corrupted, 1)


def test_preselect_v0_accounting_bound():
    for seed in range(20):
        inst, witness = gen_planted(k=4, n=25, coord_range=30, seed=seed)
        k_v = len(witness.vstar)
        pre = preselect(Orientation(inst), k_v)
        if pre is None:
            continue
        h1, v0 = pre
        assert len(v0) <= k_v * (len(h1) + 1)


def test_preselect_nicely_positioned_wrt_witness():
    hits = 0
    for seed in range(40):
        inst, witness = gen_planted(k=4, n=20, coord_range=25, seed=seed)
        k_v = len(witness.vstar)
        hstar = sorted(witness.hstar)
        h1, _ = _preselect_at(inst, k_v)
        assert len(h1) <= len(witness.hstar)
        prev = None
        for y in h1:
            assert any((prev is None or h > prev) and h <= y for h in hstar)
            prev = y
        hits += bool(h1)
    assert hits > 5  # the suite must exercise nonempty preselections


def _preselect_pool():
    """Empty, uniform and planted instances, each raw, transposed and reduced."""
    bases = [Instance([], [], []), Instance([], hlines=[1, 2], vlines=[3])]
    bases += [gen_uniform(10 + s % 51, 5 + s % 57, 20 + s % 41, s) for s in range(100)]
    bases += [gen_planted(1 + s % 7, 5 + s % 60, 15 + s % 50, s)[0] for s in range(100)]
    for base in bases:
        yield from (base, transpose(base), base.reduced)


def test_preselect_matches_the_coordinate_sweep():
    outcomes = Counter()
    for inst in _preselect_pool():
        for k_v in range(7):
            got = _preselect_at(inst, k_v)
            assert got == preselect_by_sweep(inst, k_v), (inst, k_v)
            outcomes["infeasible" if got is None else "H1" if got[0] else "no H1"] += 1
    # every outcome must be exercised
    assert min(outcomes.values()) > 200, outcomes


def test_preselect_answers_every_budget_in_any_order():
    """The need rows one orientation keeps for every budget give the
    sweep's answers whatever order the budgets come in: descending, so the
    first question grows the rows furthest, then shuffled, on one
    orientation and on a fresh one."""
    rng = Xoshiro256StarStar(20)
    for base in _preselect_pool():
        expected = {k_v: preselect_by_sweep(base, k_v) for k_v in range(7)}
        shuffled = sorted(range(7), key=lambda _: rng.next_u64())
        tables = Orientation(base)
        for k_v in [*range(6, -1, -1), *shuffled]:
            assert _preselect_at(base, k_v, tables) == expected[k_v], (base, k_v)
        other = Orientation(base)
        for k_v in shuffled:
            assert _preselect_at(base, k_v, other) == expected[k_v], (base, k_v)


def test_line_masks_are_built_once_and_shared():
    """line_masks keeps one mask tuple per instance and axis, in candidate
    order, and every call returns that object, as do an Orientation's
    tables; copies and pickles start without masks."""
    base = gen_uniform(40, 30, 25, 6)
    for inst in (base, base.reduced, transpose(base.reduced)):
        fresh = {axis: line_masks(copy.copy(inst), axis) for axis in (H, V)}
        for axis in (H, V):
            got = line_masks(inst, axis)
            assert type(got) is tuple and got == fresh[axis]
            assert len(got) == len(inst.line_positions(axis))
            assert line_masks(inst, axis) is got
        tables = Orientation(inst)
        assert tables.hmask is line_masks(inst, H) and tables.vmask is line_masks(inst, V)
        assert "_line_masks" in vars(inst)
        for copied in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
            assert copied == inst and "_line_masks" not in vars(copied)


# ------------------------------------------------------------- enumerations

def brute_vertical_guesses(v0, k_v, vlines):
    """Every separated guess within the budget, by exhaustive search over
    the strips with a candidate of vlines strictly inside: a strip without
    one is never guessed."""
    strips = [s for s in strips_of(V, sorted(v0)) if any(s.contains_pos(p) for p in vlines)]
    budget = (3 * k_v) // 2
    found = set()
    idx = range(len(strips))
    for strip_sub in chain.from_iterable(combinations(idx, n) for n in range(len(strips) + 1)):
        for line_sub in chain.from_iterable(
            combinations(sorted(v0), n) for n in range(len(v0) + 1)
        ):
            chosen = tuple(strips[i] for i in strip_sub)
            if len(chosen) + len(line_sub) > budget:
                continue
            if separated(chosen, line_sub):
                found.add((chosen, frozenset(line_sub)))
    return found


# candidate pools: one inside every strip, one inside some strips, none inside
VLINE_POOLS = (range(-2, 12), (-1, 3, 9), (0, 5, 9))


def test_vertical_guesses_match_exhaustive_oracle():
    for v0, k_v in (((), 0), ((5,), 2), ((0, 5), 2), ((0, 5, 9), 3)):
        for vlines in VLINE_POOLS:
            got = [
                (guess_strips(V, g.base, g.slots), g.lines)
                for g in vertical_guesses_at(v0, k_v, vlines)
            ]
            assert len(set(got)) == len(got)  # no duplicates
            assert set(got) == brute_vertical_guesses(v0, k_v, vlines)
            sizes = [len(a) + len(b) for a, b in got]
            assert sizes == sorted(sizes)  # nondecreasing combined size


def test_vertical_guesses_single_position_examples():
    got = {
        (guess_strips(V, g.base, g.slots), g.lines)
        for g in vertical_guesses_at((5,), 2, range(10))
    }
    assert (tuple([Strip(V, None, 5)]), frozenset()) in got
    assert (tuple([Strip(V, 5, None)]), frozenset({5})) in got
    assert ((Strip(V, None, 5), Strip(V, 5, None)), frozenset({5})) in got
    # unseparated pair must be absent
    assert ((Strip(V, None, 5), Strip(V, 5, None)), frozenset()) not in got


def test_vertical_guess_empty_pool():
    assert [(g.base, g.slots, g.lines) for g in vertical_guesses_at((), 0, (1,))] == [
        ((), (), frozenset())
    ]


def test_horizontal_guesses_budget_and_separation():
    h1 = (0, 10)
    h0 = (4, 7, 20)
    # |H1| = 2k_h exhausts the budget: only the empty guess fits
    hlines = range(-5, 30)
    got = horizontal_guesses_at(h1, h0, 1, hlines)
    assert [(g.slots, g.lines) for g in got] == [((), frozenset())]

    got3 = horizontal_guesses_at(h1, h0, 3, hlines)
    assert all(
        len(h1) + len(g.slots) + len(g.lines) <= 6
        and separated(guess_strips(H, g.base, g.slots), set(h1) | g.lines)
        for g in got3
    )
    assert all(g.lines <= set(h0) for g in got3)
    # H1 lines are free separators: adjacent strips around 0 can both be chosen
    strips = strips_of(H, sorted(set(h1) | set(h0)))
    pair = (strips[0], strips[1])
    assert any(guess_strips(H, g.base, g.slots) == pair and not g.lines for g in got3)


def brute_horizontal_guesses(h1, h0, k_h, hlines):
    """As brute_vertical_guesses, over the strips of the H1-union-H0
    arrangement with H1 as fixed separators."""
    base = sorted(set(h1) | set(h0))
    strips = [s for s in strips_of(H, base) if any(s.contains_pos(p) for p in hlines)]
    budget = 2 * k_h - len(h1)
    found = set()
    if budget < 0:
        return found
    idx = range(len(strips))
    for strip_sub in chain.from_iterable(combinations(idx, n) for n in range(len(strips) + 1)):
        for line_sub in chain.from_iterable(
            combinations(sorted(set(h0) - set(h1)), n) for n in range(len(h0) + 1)
        ):
            chosen = tuple(strips[i] for i in strip_sub)
            if len(chosen) + len(line_sub) > budget:
                continue
            if separated(chosen, set(h1) | set(line_sub)):
                found.add((chosen, frozenset(line_sub)))
    return found


def test_horizontal_guesses_match_exhaustive_oracle():
    cases = (
        ((), (), 0),
        ((), (3,), 1),
        ((0,), (4, 9), 2),
        ((0, 10), (4, 7, 20), 3),
    )
    for h1, h0, k_h in cases:
        for hlines in (range(-2, 25), (-1, 2, 8, 15), (*h1, *h0)):
            got = [
                (guess_strips(H, g.base, g.slots), g.lines)
                for g in horizontal_guesses_at(h1, h0, k_h, hlines)
            ]
            assert len(set(got)) == len(got)
            assert set(got) == brute_horizontal_guesses(h1, h0, k_h, hlines)


def test_horizontal_guesses_empty():
    assert [(g.base, g.slots, g.lines) for g in horizontal_guesses_at((), (), 0, ())] == [
        ((), (), frozenset())
    ]


def test_horizontal_guesses_overfull_h1_yields_nothing():
    assert horizontal_guesses_at((0, 1, 2), (), 1, range(5)) == []


# ------------------------------------------------------- eliminate_redundant

def _widest_fixture():
    # four narrow rects touch the strip boundary x=0 (two share a horizontal
    # line), plus one wide rect crossing the whole strip (0, 10)
    narrows = [
        Rect(-2, 1, 0, 1),
        Rect(-2, 1, 10, 11),
        Rect(-2, 1, 20, 21),
        Rect(-2, 1, 20, 21),
    ]
    wide = Rect(-5, 9, 40, 41)
    inst = Instance(
        narrows + [wide],
        hlines=[0, 10, 20, 30, 40],
        vlines=[0, 3, 5, 10],
    )
    vg = _guess(inst.vlines, base=(0, 10), slots=(1,))  # the strip 0 < x < 10
    return inst, vg, wide


def test_eliminate_noop_without_strips():
    inst, _, _ = _widest_fixture()
    vg = _guess(inst.vlines, (0, 10), ())
    kept, h0 = eliminate_redundant(Orientation(inst), h1=(), vg=vg, k=1)
    assert [inst.rects[i] for i in bits(kept)] == list(inst.rects)
    assert to_positions(inst.hlines, h0) == (0, 10, 20, 40)


def test_eliminate_removes_widest_only():
    inst, vg, wide = _widest_fixture()
    kept, h0 = eliminate_redundant(Orientation(inst), h1=(), vg=vg, k=1)
    kept = [inst.rects[i] for i in bits(kept)]
    assert wide not in kept
    assert len(kept) == 4
    assert to_positions(inst.hlines, h0) == (0, 10, 20)


def test_eliminate_extension_property():
    # any stabbing of the kept rects by <=2k horizontal lines plus one line
    # per guessed strip extends to the removed ones (k=1 here)
    inst, vg, wide = _widest_fixture()
    kept, _ = eliminate_redundant(Orientation(inst), h1=(), vg=vg, k=1)
    kept = [inst.rects[i] for i in bits(kept)]
    (strip,) = guess_strips(V, to_positions(inst.vlines, vg.base), vg.slots)
    in_strip = [x for x in inst.vlines if strip.contains_pos(x)]
    for a in chain.from_iterable(combinations(inst.hlines, n) for n in range(3)):
        for v in in_strip:
            sol = Solution(hlines=a, vlines=[v])
            kept_ok = all(
                any(y1 <= y <= y2 for y in a) or x1 <= v <= x2
                for x1, x2, y1, y2 in ((r.x1, r.x2, r.y1, r.y2) for r in kept)
            )
            if kept_ok:
                assert verify(inst, sol) == []


@pytest.mark.parametrize("base, slot", [((0, 10), 1), ((0,), 1), ((0,), 0)])
def test_eliminate_measures_width_inside_the_strip(base, slot):
    # four rectangles on the boundary x=0 with one horizontal line each
    # (k=1: a group of 4 fires, of 3 does not); "far" is the widest overall
    # but reaches only 1 into the strip, "deep" reaches 5 and is removed
    sign = 1 if slot == 1 else -1  # mirror x for the strip left of 0
    far, deep = (-100, 1), (-2, 5)
    shallow = [(-2, 1)] * 2
    rects = [
        Rect(*sorted((sign * a, sign * b)), 10 * t, 10 * t)
        for t, (a, b) in enumerate([far, deep, *shallow])
    ]
    inst = Instance(rects, hlines=[0, 10, 20, 30], vlines=[-10, -3, 0, 3, 10])
    vg = _guess(inst.vlines, base, (slot,))
    kept, _ = eliminate_redundant(Orientation(inst), h1=(), vg=vg, k=1)
    assert list(bits(kept)) == [0, 2, 3]


def test_eliminate_visits_boundaries_by_ascending_slot():
    # strips (0, 10) and (20, 30). w crosses both; at x=10 it is the widest
    # of a group of 4, at x=20 the group of 4 holds the wider x. Visiting
    # x=10 first removes w, which leaves x=20 with 3; visiting x=20 first
    # would remove x, then w.
    spans = [(5, 25), (9, 11), (9, 11), (9, 11), (19, 30), (19, 21), (19, 21)]
    rects = [Rect(a, b, 10 * t, 10 * t) for t, (a, b) in enumerate(spans)]
    inst = Instance(rects, hlines=range(0, 70, 10), vlines=range(0, 35, 5))
    vg = _guess(inst.vlines, (0, 10, 20, 30), (3, 1))
    kept, _ = eliminate_redundant(Orientation(inst), h1=(), vg=vg, k=1)
    assert list(bits(kept)) == [1, 2, 3, 4, 5, 6]


def test_eliminate_h0_accounting_bound_on_planted():
    for seed in range(12):
        inst, witness = gen_planted(k=3, n=20, coord_range=25, seed=seed)
        k = 3
        k_v = len(witness.vstar)
        pre = preselect(Orientation(inst), k_v)
        if pre is None:
            continue
        h1, v0 = pre
        vg_at = witness_vertical_guess(to_positions(inst.vlines, v0), sorted(witness.vstar))
        vg = _guess(inst.vlines, vg_at.base, vg_at.slots, vg_at.lines)
        kept, h0 = eliminate_redundant(Orientation(inst), h1, vg, k)
        strips = guess_strips(V, vg_at.base, vg_at.slots)
        boundaries = {b for s in strips for b in (s.lo, s.hi) if b is not None}
        assert len(h0) <= (2 * k + 1) * len(boundaries) + k


def _random_guesses(rng, count):
    """count random (tables, H1, vertical guess, k) per instance of a pinned
    uniform pool: base, its slots, V1 and H1 each a random subset, lines
    as candidate indices."""

    def subset(seq, num, den):
        return [x for x in seq if rng.chance(num, den)]

    for seed in range(100):
        inst = gen_uniform(100, 24, 40, seed)
        tables = Orientation(inst)
        for _ in range(count):
            base = tuple(subset(range(len(inst.vlines)), 1, 2))
            slots = tuple(subset(range(len(base) + 1), 1, 2))
            v1 = frozenset(subset(base, 1, 4))
            h1 = tuple(subset(range(len(inst.hlines)), 1, 4))
            yield tables, h1, Guess(base, slots, v1), rng.randrange(3)


def test_eliminate_one_pass_matches_the_rescan():
    """Deciding each boundary once removes what rescanning from the first
    boundary after every removal removes, and gives the same H0."""
    removing = 0
    for tables, h1, vg, k in _random_guesses(Xoshiro256StarStar(23), 40):
        inst = tables.inst
        kept, h0 = eliminate_redundant(tables, h1, vg, k)
        rescan = eliminate_by_rescan(
            inst, to_positions(inst.hlines, h1), to_positions(inst.vlines, vg), k
        )
        assert (kept, to_positions(inst.hlines, h0)) == rescan, (vg, k)
        removing += kept != (1 << len(tables.inst.rects)) - 1
    assert removing >= 1000


def test_kernelization_shares_the_orientation_count(monkeypatch):
    """eliminate_redundant's group test reads Orientation.count, whose
    memo the W' bound shares, so a repeat on one orientation and guess
    makes one stab_1d pass, its H0."""
    passes = 0
    stab_1d = approx.stab_1d

    def counting(ranges):
        nonlocal passes
        passes += 1
        return stab_1d(ranges)

    monkeypatch.setattr(approx, "stab_1d", counting)
    for tables, h1, vg, k in islice(_random_guesses(Xoshiro256StarStar(23), 40), 800):
        first = eliminate_redundant(tables, h1, vg, k)
        passes = 0
        assert eliminate_redundant(tables, h1, vg, k) == first
        assert passes == 1, (vg, k)


def test_orientation_count_is_the_exhaustive_minimum():
    """Orientation.count(mask) is the fewest horizontal candidates that stab
    every rectangle of a random mask of those some candidate stabs, found
    by trying every candidate set of each size, and a repeat answers the
    same."""
    rng = Xoshiro256StarStar(31)
    checked = 0
    for seed in range(30):
        inst = gen_uniform(14, 7, 20, seed)
        tables = Orientation(inst)
        stabbable = [
            i for i, r in enumerate(inst.rects) if any(r.y1 <= y <= r.y2 for y in inst.hlines)
        ]
        for _ in range(10):
            chosen = [i for i in stabbable if rng.chance(1, 2)]
            mask = sum(1 << i for i in chosen)
            fewest = next(
                n
                for n in range(len(inst.hlines) + 1)
                for ys in combinations(inst.hlines, n)
                if all(any(inst.rects[i].y1 <= y <= inst.rects[i].y2 for y in ys) for i in chosen)
            )
            assert tables.count(mask) == fewest == tables.count(mask), (inst, mask)
            checked += fewest > 1
    assert checked > 100


# ------------------------------------- witness-guided guesses (oracle)

def witness_vertical_guess(v0, vstar):
    """The strip/line guess a size-|vstar| vertical witness induces: odd light
    strips become the guess, boundaries of the others plus witness lines
    already in the pool become separators."""
    base = tuple(sorted(v0))
    strips = strips_of(V, base)
    light = [i for i, s in enumerate(strips) if sum(1 for v in vstar if s.contains_pos(v)) == 1]
    heavy = [i for i, s in enumerate(strips) if sum(1 for v in vstar if s.contains_pos(v)) >= 2]
    gamma_v = tuple(strips[i] for i in light[0::2])
    v1 = set(v0) & set(vstar)
    for s in (strips[i] for i in light[1::2] + heavy):
        v1.update(b for b in (s.lo, s.hi) if b is not None)
    k_v = len(vstar)
    assert len(gamma_v) + len(v1) <= (3 * k_v) // 2
    assert separated(gamma_v, v1)
    return Guess(base, tuple(light[0::2]), frozenset(v1))


def witness_horizontal_guess(h1, h0, hstar, k_h):
    """All light strips of the H1+H0 arrangement, separated by heavy-strip
    boundaries, pool witness lines, and patch lines between consecutive
    unseparated light strips."""
    base = tuple(sorted(set(h1) | set(h0)))
    strips = strips_of(H, base)
    light_idx = [i for i, s in enumerate(strips) if sum(1 for h in hstar if s.contains_pos(h)) == 1]
    light = [strips[i] for i in light_idx]
    heavy = [s for s in strips if sum(1 for h in hstar if s.contains_pos(h)) >= 2]
    gamma_h = tuple(light)
    h1p = set(h0) & set(hstar)
    for s in heavy:
        h1p.update(b for b in (s.lo, s.hi) if b is not None and b in set(h0))
    for a, b in zip(light, light[1:]):
        if not separated((a, b), set(h1) | h1p):
            patch = [p for p in h0 if a.hi <= p <= b.lo]
            assert patch, "an H0 separator must exist between unseparated light strips"
            h1p.add(patch[0])
    assert len(h1) + len(gamma_h) + len(h1p) <= 2 * k_h
    assert separated(gamma_h, set(h1) | h1p)
    return Guess(base, tuple(light_idx), frozenset(h1p))


def test_witness_guided_pipeline_is_satisfiable():
    """Drive the witness-constructed guesses end to end: the resulting 2-SAT
    must be satisfiable and decode into a verified solution."""
    ran = 0
    for seed in range(30):
        k = 4
        inst, witness = gen_planted(k=k, n=18, coord_range=25, seed=seed)
        work = inst
        hstar, vstar = sorted(witness.hstar), sorted(witness.vstar)
        if len(hstar) > len(vstar):
            work = transpose(inst)
            hstar, vstar = vstar, hstar
        k_h, k_v = len(hstar), len(vstar)
        ys, xs = work.hlines, work.vlines
        h1, v0 = preselect(Orientation(work), k_v)
        vg_at = witness_vertical_guess(to_positions(xs, v0), vstar)
        vg = _guess(xs, vg_at.base, vg_at.slots, vg_at.lines)
        v1 = vg_at.lines
        kept, h0 = eliminate_redundant(Orientation(work), h1, vg, k)
        h1, h0 = to_positions(ys, h1), to_positions(ys, h0)
        hg_at = witness_horizontal_guess(h1, h0, hstar, k_h)
        hg = _guess(ys, hg_at.base, hg_at.slots, hg_at.lines)
        h1p = hg_at.lines
        base_h = sorted(set(h1) | h1p)
        kprime = 0
        for i in bits(kept):
            r = work.rects[i]
            if not any(r.y1 <= y <= r.y2 for y in base_h) and not any(r.x1 <= x <= r.x2 for x in v1):
                kprime |= 1 << i
        formula, decode = assemble_2sat(kprime, vg, hg, work)
        values = solve_2sat(formula)
        assert values is not None
        h2, v2 = decode(values)
        h2, v2 = to_positions(ys, h2), to_positions(xs, v2)
        sol = Solution(hlines=set(h1) | h1p | h2, vlines=set(v1) | v2)
        assert verify(work, sol) == []
        assert len(sol) <= 2 * k_h + (3 * k_v) // 2
        ran += 1
    assert ran == 30


# -------------------------------------------------------------- assemble_2sat

NO_HGUESS = Guess((), (), frozenset())


def _between(inst, lo, hi):
    """Vertical and horizontal guesses of the one strip lo < x (or y) < hi."""
    return _guess(inst.vlines, (lo, hi), (1,)), _guess(inst.hlines, (lo, hi), (1,))


def test_assemble_empty_kernel_decodes_one_line_per_strip():
    inst = Instance([], hlines=[0, 4, 8], vlines=[0, 4, 8])
    formula, decode = assemble_2sat(0, *_between(inst, 0, 8), inst)
    values = solve_2sat(formula)
    assert values is not None
    h2, v2 = decode(values)
    assert len(h2) == 1 and len(v2) == 1
    assert to_positions(inst.hlines, h2) == {4} and to_positions(inst.vlines, v2) == {4}


def test_assemble_rejects_empty_strip():
    inst = Instance([], [], [0, 8])
    with pytest.raises(GuessInfeasible):
        assemble_2sat(0, _guess(inst.vlines, (0, 8), (1,)), NO_HGUESS, inst)


def test_assemble_window_thresholds():
    # candidates v1..v5 at 1..5 inside strip (0,6); rect stabbable by {3,4}
    inst = Instance([Rect(3, 4, 0, 1)], hlines=[], vlines=[0, 1, 2, 3, 4, 5, 6])
    formula, decode = assemble_2sat(1, _guess(inst.vlines, (0, 6), (1,)), NO_HGUESS, inst)
    sat_choices = set()
    # enumerate the five monotone threshold assignments and check which satisfy
    for cut in range(1, 6):
        values = [t < cut for t in range(5)]
        ok = all(
            (values[a[0]] != a[1]) or (values[b[0]] != b[1]) for a, b in formula.clauses
        )
        if ok:
            sat_choices.add(cut)  # decoded line = candidate index cut-1 -> position cut
    assert sat_choices == {3, 4}
    values = solve_2sat(formula)
    assert values is not None
    _, v2 = decode(values)
    assert to_positions(inst.vlines, v2) <= {3, 4} and len(v2) == 1


def test_assemble_unstabbable_rect_in_both_strips_is_guess_infeasible():
    # the rect meets both strips but contains no interior candidate on either axis
    rect = Rect(2, 3, 2, 3)
    inst = Instance([rect], hlines=[0, 9], vlines=[0, 9])
    with pytest.raises(GuessInfeasible):
        # strips have no interior candidates at all: rejected upfront
        assemble_2sat(1, *_between(inst, 0, 9), inst)
    # each strip holds the candidate 5, which misses the rect: neither holds it
    inst2 = Instance([rect], hlines=[0, 5, 9], vlines=[0, 5, 9])
    with pytest.raises(GuessInfeasible, match="held by no guessed strip"):
        assemble_2sat(1, *_between(inst2, 0, 9), inst2)


def test_assemble_rect_meeting_no_strip_is_guess_infeasible():
    inst = Instance([Rect(20, 21, 20, 21)], hlines=[0, 5, 9], vlines=[0, 5, 9])
    with pytest.raises(GuessInfeasible):
        assemble_2sat(1, *_between(inst, 0, 9), inst)


def _covered_guesses(inst, k_h, k_v, k):
    """(vertical guess, horizontal guess, kernel) for every pair the
    enumerators yield under the covers solve_split builds, past the first
    satisfiable one; the kernel is the mask of every rectangle the guess's
    lines (H1, V1, H1') miss, so a guessed strip holds every kernel
    rectangle."""
    pre = preselect(Orientation(inst), k_v)
    if pre is None:
        return
    h1, v0 = pre
    if len(h1) > 2 * k_h:
        return
    full = (1 << len(inst.rects)) - 1
    ys, xs = inst.hlines, inst.vlines
    hmask, vmask = line_masks(inst, H), line_masks(inst, V)
    vheld = held_masks(inst, V, v0, full)
    vcover = Cover(full & ~stab_mask(inst, inst.hlines), vheld, [vmask[t] for t in v0])
    tables = Orientation(inst)
    for vg in enumerate_vertical_guesses(v0, k_v, len(xs), vcover):
        _, h0 = eliminate_redundant(tables, h1, vg, k)
        missed = full & ~stab_mask(inst, to_positions(ys, h1), to_positions(xs, vg.lines))
        off_vstrips = missed
        for i in vg.slots:
            off_vstrips &= ~vheld[i]
        hbase = sorted(set(h1) | set(h0))
        hcover = Cover(
            off_vstrips, held_masks(inst, H, hbase, off_vstrips), [hmask[t] for t in hbase]
        )
        for hg in enumerate_horizontal_guesses(h1, h0, k_h, len(ys), hcover):
            kernel = missed & ~stab_mask(inst, to_positions(ys, hg.lines))
            yield vg, hg, kernel


def _held_guesses(inst, k_h, k_v, k):
    """(vertical guess, horizontal guess, kernel) for every pair the
    enumerators yield with no cover; the kernel keeps, of the rectangles
    the guess's lines (H1, V1, H1') miss, those some guessed strip holds.
    No cover cuts a pair here, so some kernels have no stabbing pick."""
    pre = preselect(Orientation(inst), k_v)
    if pre is None:
        return
    h1, v0 = pre
    if len(h1) > 2 * k_h:
        return
    full = (1 << len(inst.rects)) - 1
    ys, xs = inst.hlines, inst.vlines
    tables = Orientation(inst)
    for vg in enumerate_vertical_guesses(v0, k_v, len(xs)):
        _, h0 = eliminate_redundant(tables, h1, vg, k)
        missed = full & ~stab_mask(inst, to_positions(ys, h1), to_positions(xs, vg.lines))
        vheld = held_masks(inst, V, vg.base, missed)
        for hg in enumerate_horizontal_guesses(h1, h0, k_h, len(ys)):
            kernel = missed & ~stab_mask(inst, to_positions(ys, hg.lines))
            hheld = held_masks(inst, H, hg.base, kernel)
            held = 0
            for i in vg.slots:
                held |= vheld[i]
            for i in hg.slots:
                held |= hheld[i]
            yield vg, hg, kernel & held


def _covered_pool(sizes, guesses=_covered_guesses):
    """(instance, vertical guess, horizontal guess, kernel) for every
    guess pair of guesses (covered by default) over gen_uniform(n, m, c,
    seed) for each (n, m, c) of sizes, seeds 0-29, both orientations,
    every split of every k < 5."""
    for n, m, c in sizes:
        for seed in range(30):
            raw = gen_uniform(n, m, c, seed)
            for inst in (raw, transpose(raw)):
                for k in range(5):
                    for k_h in range(k // 2 + 1):
                        for k_v in range(k_h, k - k_h + 1):
                            for vg, hg, kernel in guesses(inst, k_h, k_v, k):
                                yield inst, vg, hg, kernel


def test_assemble_matches_brute_force_on_covered_guesses():
    """The formula is satisfiable iff some pick of one candidate inside
    each guessed strip (oracle Strips) stabs the kernel, and decode returns
    such a pick. The covers hand 2-SAT no guess whose strips hold no
    stabber of a kernel rectangle, and on the covered pairs every formula
    is satisfiable; the uncovered pairs with held kernels add the
    unsatisfiable ones."""
    covered = _covered_pool(((10, 10, 8), (14, 12, 10)))
    held = _covered_pool(((12, 30, 15),), _held_guesses)
    seen = Counter(_check_assembly(*case) for case in chain(covered, held))
    assert seen["sat"] > 500 and seen["unsat"] > 500 and seen["sat, both axes"] > 100


def test_assembled_formulas_pinned():
    """Every formula over the covered-guess pool, clause for clause, with
    its assignment and decoded picks, hashes to the digest of the 2-SAT
    stage as first written, over the pairs the held covers yield (each of
    them assembled the same formula before the covers held); a change to
    variable numbering, clause order or the solver's adjacency order shows
    here."""
    digest = hashlib.sha256()
    count = 0
    for inst, vg, hg, kernel in _covered_pool(((10, 10, 8), (14, 12, 10), (30, 24, 20))):
        formula, decode = assemble_2sat(kernel, vg, hg, inst)
        values = solve_2sat(formula)
        if values is None:
            picks = None
        else:
            h2, v2 = decode(values)
            picks = (sorted(to_positions(inst.hlines, h2)), sorted(to_positions(inst.vlines, v2)))
        digest.update(repr((formula.num_vars, formula.clauses, values, picks)).encode())
        count += 1
    assert count == 1821
    assert digest.hexdigest() == "d7622c6a2a43b9c58481e535a6073f89c891d2ccd6e629711c4d495918d63317"


@pytest.mark.parametrize("slots", [(0, 2), (2, 0)])
def test_assemble_rejects_a_rectangle_meeting_two_strips_of_one_family(slots):
    # strips x < 0 and x > 10 hold the candidates -3 and 12; the rectangle
    # spans both, which kernelization rules out for any enumerated guess
    inst = Instance([Rect(-5, 15, 0, 1)], hlines=[], vlines=[-3, 0, 10, 12])
    with pytest.raises(RuntimeError, match="meets two strips of one family"):
        assemble_2sat(1, _guess(inst.vlines, (0, 10), slots), NO_HGUESS, inst)


def test_assemble_reads_strip_membership_off_the_clipped_stabber_ranges(monkeypatch):
    """A guessed strip holds a kernel rectangle exactly when its stabber
    range clipped to the strip is nonempty, so assemble_2sat builds no
    hold masks, on guess pairs with slots on both axes too."""
    pool = _covered_pool(((12, 30, 15),), _held_guesses)
    pairs = list(islice((case for case in pool if case[1].slots and case[2].slots), 1000))

    def no_hold_masks(*args):
        raise RuntimeError("assemble_2sat built hold masks")

    monkeypatch.setattr(approx, "held_masks", no_hold_masks)
    seen = Counter(_check_assembly(*case) for case in pairs)
    assert seen["sat, both axes"] > 0 and seen["unsat"] > 0


def _check_assembly(inst, vg, hg, kernel):
    vstrips = guess_strips(V, to_positions(inst.vlines, vg.base), vg.slots)
    hstrips = guess_strips(H, to_positions(inst.hlines, hg.base), hg.slots)

    def stabbed(hs, vs):
        return all(
            any(r.y1 <= y <= r.y2 for y in hs) or any(r.x1 <= x <= r.x2 for x in vs)
            for r in (inst.rects[i] for i in bits(kernel))
        )

    def inside(strips, positions):
        return [[p for p in positions if s.contains_pos(p)] for s in strips]

    vcands, hcands = inside(vstrips, inst.vlines), inside(hstrips, inst.hlines)
    brute = any(
        stabbed(hs, vs) for vs in product(*vcands) for hs in product(*hcands)
    )
    formula, decode = assemble_2sat(kernel, vg, hg, inst)
    values = solve_2sat(formula)
    assert (values is not None) == brute
    if values is None:
        return "unsat"
    h2, v2 = decode(values)
    h2, v2 = to_positions(inst.hlines, h2), to_positions(inst.vlines, v2)
    assert len(v2) == len(vstrips) and len(h2) == len(hstrips)
    assert all(len(set(cands) & v2) == 1 for cands in vcands)
    assert all(len(set(cands) & h2) == 1 for cands in hcands)
    assert stabbed(h2, v2)
    return "sat, both axes" if vstrips and hstrips else "sat"


# ------------------------------------------------------------ full pipeline

def test_solve_empty_instance_with_zero_budget():
    sol = solve_with_budget(Instance([], [], []), 0)
    assert sol is not None and len(sol) == 0


def test_solve_single_rect():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[], vlines=[0])
    sol = solve_with_budget(inst, 1)
    assert sol == Solution(vlines=[0])
    assert len(sol) <= (7 * 1) // 4


def test_solve_zero_budget_nonempty():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[], vlines=[0])
    assert solve_with_budget(inst, 0) is None


def test_solve_planted_suite_small():
    for seed in range(15):
        k = 2 + seed % 3
        inst, _ = gen_planted(k=k, n=15, coord_range=20, seed=seed)
        stats = SearchStats()
        sol = solve_with_budget(inst, k, stats)
        assert sol is not None, f"seed {seed}: planted instance must not be NoWitness"
        assert verify(inst, sol) == []
        assert len(sol) <= (7 * k) // 4
        assert stats.splits >= 1


def test_solve_never_worse_than_7_4_of_opt():
    for seed in range(10):
        inst, _ = gen_planted(k=3, n=12, coord_range=15, seed=100 + seed)
        exact_sol = opt_exact(inst, SearchBudget(max_size=3))
        assert exact_sol is not None
        opt = len(exact_sol)
        sol = solve_with_budget(inst, max(opt, 0), SearchStats())
        assert sol is not None
        assert len(sol) <= (7 * opt) // 4


def test_solve_min_returns_first_success():
    inst = Instance([], [], [])
    assert solve_min(inst, 3) == (0, Solution())

    inst2, _ = gen_planted(k=2, n=8, coord_range=12, seed=5)
    exact_sol = opt_exact(inst2, SearchBudget(max_size=2))
    found = solve_min(inst2, 2)
    assert found is not None
    k, sol = found
    assert k <= len(exact_sol)
    assert verify(inst2, sol) == []
    assert len(sol) <= (7 * k) // 4


def test_solve_min_below_opt_is_nowitness():
    # opt = 2: two far-apart rects
    inst = Instance(
        [Rect(0, 1, 0, 1), Rect(50, 51, 50, 51)],
        hlines=[0, 50],
        vlines=[],
    )
    assert opt_exact(inst, SearchBudget(max_size=1)) is None
    assert solve_min(inst, 1) is None
    found = solve_min(inst, 2)
    assert found is not None and found[0] == 2


def test_negative_budgets_raise():
    # a negative budget is a caller's error, not a no-witness
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[])
    for solve in (solve_with_budget, solve_min):
        with pytest.raises(ValueError, match="nonnegative"):
            solve(inst, -1)


def test_transpose_coherence():
    for seed in range(8):
        inst, _ = gen_planted(k=2, n=10, coord_range=15, seed=200 + seed)
        for k in (1, 2):
            a = solve_with_budget(inst, k)
            b = solve_with_budget(transpose(inst), k)
            assert (a is None) == (b is None)
            if a is not None:
                assert verify(transpose(inst), b) == []


def _affine(inst):
    """inst with every coordinate mapped through x -> 3x - 7, which keeps
    the order of the lines and what each of them stabs, but moves every
    position off its candidate index."""
    f = lambda v: 3 * v - 7  # noqa: E731
    rects = [Rect(f(r.x1), f(r.x2), f(r.y1), f(r.y2)) for r in inst.rects]
    return Instance(rects, map(f, inst.hlines), map(f, inst.vlines)), f


def test_the_search_is_invariant_under_an_affine_map_of_the_coordinates():
    """The search works in candidate indices, so mapping every coordinate
    through x -> 3x - 7 leaves each split's witness (H1, V0, both guesses,
    the kept rectangles and the kernel) and its counters as they were, and
    maps its solution, and solve_min's, through the same map. A stage that
    mixed positions with indices would tell the two apart, which
    instances whose candidates sit at 0, 1, 2, ... cannot."""
    pool = [Instance([Rect(0, 4, 2, 3), Rect(6, 9, 0, 8), Rect(1, 2, 5, 9)], [1, 3, 6], [2, 5, 8])]
    pool += [gen_uniform(60, 60, 40, seed) for seed in range(12)]
    pool += [gen_planted(k=4 + seed % 2, n=60, coord_range=40, seed=seed)[0] for seed in range(8)]
    witnesses = answers = 0
    for inst in pool:
        mapped, f = _affine(inst)
        upright, image = Orientation.of(inst), Orientation.of(mapped)
        for tables, twin in ((upright, image), (upright.flipped, image.flipped)):
            for k_h in range(4):
                for k_v in range(k_h, 7 - k_h):
                    stats, twin_stats = SearchStats(), SearchStats()
                    found = solve_split(tables, k_h, k_v, stats)
                    other = solve_split(twin, k_h, k_v, twin_stats)
                    assert stats == twin_stats
                    assert (found is None) == (other is None)
                    if found is None:
                        continue
                    witnesses += 1
                    assert (found.h1, found.v0, found.vguess, found.hguess) == (
                        other.h1, other.v0, other.vguess, other.hguess
                    )
                    assert (found.kept, found.kernel) == (other.kept, other.kernel)
                    sol = found.solution
                    assert other.solution == Solution(map(f, sol.hlines), map(f, sol.vlines))
        found = solve_min(inst, 12)
        if found is not None:
            k, sol = found
            found = k, Solution(map(f, sol.hlines), map(f, sol.vlines))
            answers += 1
        assert solve_min(mapped, 12) == found
    assert witnesses > 120 and answers > 12, (witnesses, answers)


def test_search_counters_pinned():
    """SearchStats and answer sizes on pinned instances, recorded once the
    enumerators stopped yielding guesses that cannot reach 2-SAT: a strip
    with no interior candidate, a rectangle no horizontal candidate stabs
    left to no vertical strip or V1 line, a vertical guess leaving W' (the
    rectangles H1 misses, some horizontal candidate stabs and no heavy V0
    line stabs) to more horizontal candidates than the budget 2k_h - |H1|
    has items, or a kernel rectangle left to no strip that holds one of
    its stabbers and no H1' line. The W' count cut uniform seed 3 from 3
    vertical guesses to 1, with the same answer. splits counts the splits
    searched, those whose size bound reaches the packing bound (7 on each
    uniform instance here). A change that prunes guesses or splits must
    update these literals and say why."""
    stats = SearchStats()
    k, sol = solve_min(gen_uniform(60, 60, 40, 5), 12, stats)
    assert (k, len(sol)) == (5, 8)
    assert stats == SearchStats(splits=4, vertical_guesses=1, horizontal_guesses=1, twosat_calls=1)

    stats = SearchStats()
    k, sol = solve_min(gen_uniform(60, 60, 40, 3), 12, stats)
    assert (k, len(sol)) == (5, 8)
    assert stats == SearchStats(splits=5, vertical_guesses=1, horizontal_guesses=1, twosat_calls=1)

    # The ladder counts what searches of each budget on fresh copies do.
    inst = gen_uniform(60, 60, 40, 4)
    stats = SearchStats()
    k, sol = solve_min(inst, 12, stats)
    assert (k, len(sol)) == (5, 8)
    assert stats == SearchStats(splits=4, vertical_guesses=1, horizontal_guesses=1, twosat_calls=1)
    cold = SearchStats()
    for j in range(k + 1):
        solve_with_budget(_fresh(inst), j, cold)
    assert cold == stats

    inst, _ = gen_planted(k=7, n=300, coord_range=10**4, seed=3)
    stats = SearchStats()
    assert solve_with_budget(inst, 6, stats) is None
    assert stats == SearchStats(splits=7, vertical_guesses=0, horizontal_guesses=0, twosat_calls=0)
    stats = SearchStats()
    assert len(solve_with_budget(inst, 7, stats)) == 7
    assert stats == SearchStats(splits=1, vertical_guesses=1, horizontal_guesses=1, twosat_calls=1)


def test_hard_family_rungs_make_one_vertical_guess():
    """On the clique-reduction instances (4, 3) U and (4, 4) P the ladder
    stops at budget 12 with 20 lines. The W' count cuts every vertical
    guess of the rung but the one whose 2-SAT call is satisfiable.
    Counting the open H1 slots the leftover meets instead lets 192
    through."""
    for r, plant in ((3, False), (4, True)):
        inst = reduction.build(gen_mcgraph(4, r, 1, 3, 1, plant)[0]).inst
        stats = SearchStats()
        sol = solve_with_budget(inst, 12, stats)
        assert verify(inst, sol) == [] and len(sol) == 20
        assert (stats.vertical_guesses, stats.twosat_calls) == (1, 1)


def test_orientations_are_freed_without_the_cyclic_gc():
    """The transposed orientation holds no reference back to its owner,
    so both go as soon as the search drops them."""
    inst, _ = gen_planted(k=3, n=30, coord_range=20, seed=1)
    gc.disable()
    try:
        upright = Orientation(inst)
        flipped = upright.flipped
        assert flipped.hmask == upright.vmask and flipped.vmask == upright.hmask
        assert flipped.v_only == Orientation(transpose(inst)).v_only
        gone = [weakref.ref(upright), weakref.ref(flipped)]
        del upright, flipped
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


def _unshared_solve(inst, k, stats, kept=None):
    """solve_with_budget with nothing shared between splits and no split
    skipped: every split k_h + k_v = k runs solve_split on its own, on the
    instance without dominated rectangles and lines, freshly transposed
    when k_h > k_v. stats counts every split searched. With kept, a list,
    it counts only the splits solve_with_budget searches too, those whose
    size bound reaches packing_bound, and kept gains their (k_h, k_v)."""
    inst = drop_dominated(inst)
    floor = packing_bound(inst)
    for k_h in range(k + 1):
        k_v = k - k_h
        counted = stats
        if kept is not None:
            if 2 * min(k_h, k_v) + 3 * max(k_h, k_v) // 2 >= floor:
                kept.append((k_h, k_v))
            else:
                counted = SearchStats()
        counted.splits += 1
        if k_h <= k_v:
            found = solve_split(Orientation(inst), k_h, k_v, counted)
            sol = found.solution if found is not None else None
        else:
            found = solve_split(Orientation(transpose(inst)), k_v, k_h, counted)
            sol = found.solution.transpose() if found is not None else None
        if sol is not None:
            return sol
    return None


def _unshared_min(inst, k_max, stats, kept=None):
    """solve_min as a ladder of _unshared_solve."""
    for k in range(k_max + 1):
        sol = _unshared_solve(inst, k, stats, kept)
        if sol is not None:
            return k, sol
    return None


# pinned instances whose budget ladders run through no-witness rungs
# (gen_uniform seeds 2 and 5 have a rectangle no candidate stabs)
SHARED_TABLE_POOL = [gen_uniform(24, 40, 24, seed) for seed in range(8)] + [
    gen_planted(k=3 + seed % 2, n=40, coord_range=30, seed=seed)[0] for seed in range(4)
]


def test_shared_tables_match_unshared_splits():
    """Searches of one object answer and count as unshared searches do:
    the budgets k = 0..6, then a solve_min ladder on a fresh copy and on
    the searched object."""
    for base in SHARED_TABLE_POOL:
        inst = _fresh(base)
        for k in range(7):
            ref_stats, stats = SearchStats(), SearchStats()
            expected = _unshared_solve(base, k, ref_stats, [])
            assert solve_with_budget(inst, k, stats) == expected
            assert stats == ref_stats
        ref_stats = SearchStats()
        expected = _unshared_min(base, 6, ref_stats, [])
        for target in (_fresh(base), inst):
            stats = SearchStats()
            assert solve_min(target, 6, stats) == expected
            assert stats == ref_stats


def _fresh(inst):
    """An equal Instance with an empty memo."""
    return Instance(inst.rects, inst.hlines, inst.vlines)


def test_transpose_and_preselect_run_once_per_orientation(monkeypatch):
    """All searches of one object share its tables: the budgets k = 0..6, a
    solve_min ladder over the same budgets and an exact search reduce it
    once, transpose it at most once and preselect at most once per
    orientation and k_v. A cold ladder transposes exactly when it
    searches a split with k_h > k_v, which the unshared reference, which
    skips no split, predicts from the splits whose size bound reaches the
    packing bound."""
    reductions = 0
    transposes = 0
    preselects = Counter()

    def counting_drop_dominated(inst):
        nonlocal reductions
        reductions += 1
        return drop_dominated(inst)

    def counting_transpose(inst):
        nonlocal transposes
        transposes += 1
        return transpose(inst)

    def counting_preselect(tables, k_v):
        preselects[tables.inst, k_v] += 1
        return preselect(tables, k_v)

    monkeypatch.setattr(core, "drop_dominated", counting_drop_dominated)
    monkeypatch.setattr(approx, "transpose", counting_transpose)
    monkeypatch.setattr(approx, "preselect", counting_preselect)
    flips = 0
    for base in SHARED_TABLE_POOL:
        inst = _fresh(base)
        reductions = transposes = 0
        preselects.clear()
        for k in range(7):
            solve_with_budget(inst, k)
        solve_min(inst, 6)
        opt_exact(inst, SearchBudget(max_size=6))
        assert reductions == 1
        assert transposes <= 1
        assert max(preselects.values(), default=0) <= 1
        transposes = 0
        found = solve_min(_fresh(base), 6)
        kept = []
        assert _unshared_min(base, 6, SearchStats(), kept) == found
        flipped = any(k_h > k_v for k_h, k_v in kept)
        assert transposes == flipped
        flips += flipped
    assert flips  # some ladder reaches a split with k_h > k_v


# planted instances the reduction shrinks from 200 rectangles to a few
MEMO_POOL = SHARED_TABLE_POOL + [
    gen_planted(k=4 + seed % 2, n=200, coord_range=10**4, seed=seed)[0] for seed in range(3)
]


def test_threads_sharing_one_instance_get_the_cold_answers():
    """Threads racing on one object's empty memo may build a table twice,
    but each gets the answer and the counters of a cold search."""
    base = MEMO_POOL[-1]
    cold_stats = SearchStats()
    cold = solve_min(_fresh(base), 6, cold_stats)
    ref_stats = SearchStats()
    assert _unshared_min(base, 6, ref_stats, []) == cold
    assert ref_stats == cold_stats
    inst = _fresh(base)
    results = []

    def work():
        stats = SearchStats()
        results.append((solve_min(inst, 6, stats), stats))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(cold, cold_stats)] * 4


# gen_mcgraph(k, r, 1, 3, seed, plant) arguments of CLIQUE_POOL
CLIQUE_GRAPHS = [
    (k, r, seed, plant)
    for k, r in ((2, 2), (2, 3), (3, 2))
    for seed in range(3)
    for plant in (False, True)
]
# their clique reductions with the budget tops 3k, and small uniform
# instances, on which a split (a, b) can fail upright while (b, a)
# succeeds transposed
CLIQUE_POOL = [
    (reduction.build(gen_mcgraph(k, r, 1, 3, seed, plant)[0]).inst, 3 * k)
    for k, r, seed, plant in CLIQUE_GRAPHS
]
UNIFORM_POOL = [(gen_uniform(60, 60, 40, seed), 6) for seed in range(8)]
ORDER_POOL = [(inst, 6) for inst in MEMO_POOL] + CLIQUE_POOL + UNIFORM_POOL


def test_shuffled_budgets_answer_as_cold_searches():
    """Budgets asked of one object in ascending order, then descending,
    then in a pinned shuffle, twice over, answer and count as searches of
    fresh equal copies and as the unshared reference do, and leave the
    object's eq, hash and repr as they were."""
    rng = Xoshiro256StarStar(22)
    for base, top in ORDER_POOL:
        budgets = list(range(top + 1))
        shuffled = sorted(budgets, key=lambda _: rng.next_u64())
        inst = _fresh(base)
        for k in (budgets + budgets[::-1] + shuffled) * 2:
            stats, cold_stats, ref_stats = SearchStats(), SearchStats(), SearchStats()
            expected = _unshared_solve(base, k, ref_stats, [])
            assert solve_with_budget(inst, k, stats) == expected, (base, k)
            assert solve_with_budget(_fresh(base), k, cold_stats) == expected
            assert stats == cold_stats == ref_stats, (base, k)
        budget = SearchBudget(max_size=top)
        assert opt_exact(inst, budget) == opt_exact(_fresh(base), budget)
        assert inst.reduced == drop_dominated(base)
        assert inst == base and hash(inst) == hash(base) and repr(inst) == repr(base)


def test_every_split_the_packing_cut_skips_has_no_answer():
    """At every budget from 0 to OPT + 2 (to 6 with no solution), each
    split solve_with_budget skips, its size bound 2*min + floor(3*max/2)
    below packing_bound, returns None from solve_split searched in full.
    The pool: the small uniform instances of SHARED_TABLE_POOL, of which
    seeds 2 and 5 have no solution, those of UNIFORM_POOL and the clique
    reductions."""
    pool = SHARED_TABLE_POOL[:8] + [inst for inst, _ in UNIFORM_POOL + CLIQUE_POOL]
    skipped = 0
    for base in pool:
        upright = Orientation.of(_fresh(base))
        sol = opt_exact(base, SearchBudget(max_size=40))
        for k in range(7 if sol is None else len(sol) + 3):
            for k_h in range(k + 1):
                k_v = k - k_h
                if 2 * min(k_h, k_v) + 3 * max(k_h, k_v) // 2 >= upright.packing:
                    continue
                skipped += 1
                if k_h <= k_v:
                    assert solve_split(upright, k_h, k_v) is None, (base, k_h, k_v)
                else:
                    assert solve_split(upright.flipped, k_v, k_h) is None, (base, k_h, k_v)
    assert skipped == 533


# instances whose answers at every budget from OPT to OPT + 2 came from a
# split with k_h + k_v < k when every split with k_h + k_v <= k was searched
LEMMA_POOL = [gen_uniform(60, 60, 40, seed) for seed in (1, 3, 10, 15, 19, 25, 29)] + [
    gen_uniform(24, 40, 24, 4)
]


def test_splits_of_total_k_answer_every_budget_from_the_optimum():
    """The k + 1 splits k_h + k_v = k find a solution at every budget k
    with a size-k solution: from OPT to OPT + 2 on uniform instances, and
    at 4k on planted clique reductions, where the forward image of the
    clique has 4k lines. A None there would be a false certificate."""
    cases = []
    for base in LEMMA_POOL:
        opt = len(opt_exact(base, SearchBudget(max_size=12)))
        cases += [(base, k) for k in range(opt, opt + 3)]
    cases += [
        (inst, 4 * k)
        for (k, _, _, plant), (inst, _) in zip(CLIQUE_GRAPHS, CLIQUE_POOL)
        if plant
    ]
    for base, k in cases:
        stats = SearchStats()
        sol = solve_with_budget(_fresh(base), k, stats)
        assert sol is not None, (base, k)
        assert verify(base, sol) == [] and len(sol) <= (7 * k) // 4
        assert stats.splits <= k + 1


def _memo_subject(shrinks: bool) -> Instance:
    """An instance the reduction shrinks, or one it leaves as it is; the
    solve_min ladder of either reaches a transposed split."""
    if shrinks:
        inst = gen_planted(k=3, n=30, coord_range=20, seed=1)[0]
    else:
        inst = Instance([Rect(0, 1, 0, 1), Rect(5, 6, 5, 6)], hlines=[0], vlines=[5])
    if (drop_dominated(inst) != inst) != shrinks:
        raise ValueError("subject does not fit the case")
    return inst


@pytest.mark.parametrize("shrinks", [True, False])
def test_solved_instance_is_freed_without_the_cyclic_gc(shrinks):
    """The memo puts the instance in no reference cycle, also when the
    reduction drops nothing, so a solved instance goes at its last del."""
    inst = _memo_subject(shrinks)
    gc.disable()
    try:
        solve_with_budget(inst, 3)
        solve_min(inst, 3)
        opt_exact(inst, SearchBudget(max_size=3))
        assert "reduced" in vars(inst) and "_approx_upright" in vars(inst)
        upright = Orientation.of(inst)
        gone = [weakref.ref(x) for x in (inst, upright, upright.flipped, inst.reduced)]
        del upright
        assert all(ref() is not None for ref in gone)
        del inst
        assert [ref() for ref in gone] == [None] * 4
    finally:
        gc.enable()


def test_each_memo_holds_only_its_own_tables():
    """The search's tables live on their Orientation and the clique
    reduction's adjacency set on its ReducedInstance, so after a solve_min
    ladder that reaches a transposed split, and a forward map, each
    instance's memo holds only what the instance itself owns."""
    fields = {"rects", "hlines", "vlines"}
    inst = gen_uniform(60, 60, 40, 3)
    assert solve_min(inst, 12) is not None
    upright = Orientation.of(inst)
    assert "flipped" in vars(upright)
    assert set(vars(inst)) - fields == {"stabbers", "reduced", "_approx_upright"}
    for derived in (inst.reduced, upright.flipped.inst):
        assert set(vars(derived)) - fields == {"stabbers", "_line_masks"}
    graph, clique = gen_mcgraph(2, 3, 1, 3, 1, True)
    red = reduction.build(graph)
    reduction.forward(red, clique)
    assert set(vars(red.inst)) - fields == {"stabbers"}
    assert "adjacency_shaped" in vars(red)


@pytest.mark.parametrize("shrinks", [True, False])
def test_copies_of_a_solved_instance_start_cold(shrinks):
    inst = _memo_subject(shrinks)
    expected = solve_min(inst, 3)
    assert Orientation.of(inst).flipped is not None  # its memo holds both orientations
    for other in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert other == inst
        assert vars(other) == {"rects": inst.rects, "hlines": inst.hlines, "vlines": inst.vlines}
        assert solve_min(other, 3) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_core_bisects_each_rectangle_fewer_than_five_times(seed, monkeypatch):
    """The benchmark's planted-large chain on one instance: the search at
    the planted k - 1, then at k, then a verify of the answer. The stabber
    table is its one per-rectangle bisection pass (four per rectangle);
    the reduced and transposed instances are handed theirs, and stab_mask
    bisects only the lines it is given. The instance is a memo-free copy,
    as gen_planted's own verify leaves a table on the one it returns."""
    k = 4 + seed % 4
    inst = copy.copy(gen_planted(k, 2500, 10**6, seed)[0])
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(core, "bisect_left", counted(core.bisect_left))
    monkeypatch.setattr(core, "bisect_right", counted(core.bisect_right))
    solve_with_budget(inst, k - 1)
    sol = solve_with_budget(inst, k)
    assert verify(inst, sol) == []
    assert calls / len(inst.rects) < 5


def test_guess_streams_respect_invariants_under_pipeline():
    inst, witness = gen_planted(k=3, n=12, coord_range=15, seed=9)
    k_v = 2
    pre = preselect(Orientation(inst), k_v)
    if pre is None:
        pytest.skip("split infeasible for this fixture")
    h1, v0 = pre
    for g in enumerate_vertical_guesses(v0, k_v, len(inst.vlines)):
        g = to_positions(inst.vlines, g)
        strips = guess_strips(V, g.base, g.slots)
        assert len(strips) + len(g.lines) <= (3 * k_v) // 2
        assert separated(strips, g.lines)
        assert all(any(s.contains_pos(x) for x in inst.vlines) for s in strips)


def test_final_check_survives_optimized_mode():
    """With assertions stripped (python -O), a split that hands back a
    solution missing a rectangle, or one over the split's size bound,
    still makes solve_with_budget raise."""
    script = textwrap.dedent(
        """
        from rectstab import approx, core
        from rectstab.core import Instance, Rect, Solution

        if __debug__:
            raise SystemExit("assertions are not stripped")
        inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[0])
        # the first split tried is k_h = 0, k_v = 1, whose size bound is 1
        for bogus in (Solution(), Solution(hlines=[0], vlines=[0])):
            witness = approx.SplitWitness((), (), None, None, 0, 0, bogus)
            approx.solve_split = lambda *args: witness
            try:
                approx.solve_with_budget(inst, 1)
            except RuntimeError:
                print("raised")
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]
