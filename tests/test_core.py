import copy
import os
import pickle
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from rectstab.core import (
    Axis,
    Instance,
    Line,
    Rect,
    Solution,
    UnknownLineError,
    bits,
    held_masks,
    line_masks,
    stab_mask,
    transpose,
    verify,
)
from rectstab.rng import Xoshiro256StarStar

from oracles import (
    Strip,
    held_by_definition,
    separated,
    stabs,
    strip_holds,
    strips_of,
    to_positions,
)

H, V = Axis.HORIZONTAL, Axis.VERTICAL


def rand_rect(rng, c=20):
    x1 = rng.randint(-c, c)
    x2 = rng.randint(x1, c)
    y1 = rng.randint(-c, c)
    y2 = rng.randint(y1, c)
    return Rect(x1, x2, y1, y2)


def test_stabs_boundary_touch_counts():
    assert stabs(Line(V, 0), Rect(0, 1, 0, 1))


def test_stabs_disjoint():
    assert not stabs(Line(H, 5), Rect(0, 1, 0, 1))


def test_stabs_degenerate_rect_on_line():
    assert stabs(Line(V, 3), Rect(3, 3, 2, 8))


def test_stabs_monotone_under_enlargement():
    rng = Xoshiro256StarStar(11)
    for _ in range(300):
        r = rand_rect(rng)
        grown = Rect(r.x1 - rng.randint(0, 3), r.x2 + rng.randint(0, 3),
                     r.y1 - rng.randint(0, 3), r.y2 + rng.randint(0, 3))
        axis = H if rng.chance(1, 2) else V
        ln = Line(axis, rng.randint(-25, 25))
        if stabs(ln, r):
            assert stabs(ln, grown)


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 0)
    with pytest.raises(ValueError):
        Rect(0, 0, 5, 4)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((0.5, 1, 0, 1), TypeError, "coordinate 0.5 is not an integer"),
        (("a", 1, 0, 1), TypeError, "coordinate 'a' is not an integer"),
        ((0, 1, 0, 1.0), TypeError, "coordinate 1.0 is not an integer"),
        ((2, 1.5, 0, 0), TypeError, "coordinate 1.5 is not an integer"),
        ((0, 2**63, 0, 1), OverflowError, "coordinate 9223372036854775808 outside signed 64-bit range"),
        ((2**63, "a", 0, 0), OverflowError, "coordinate 9223372036854775808 outside signed 64-bit range"),
        ((2, 1, -(2**63) - 1, 0), OverflowError, "coordinate -9223372036854775809 outside signed 64-bit range"),
        ((2**63, 0, 0, 0), OverflowError, "coordinate 9223372036854775808 outside signed 64-bit range"),
        ((2, 1, 0, 0), ValueError, "malformed rectangle Rect(x1=2, x2=1, y1=0, y2=0)"),
        ((True, False, 0, 0), ValueError, "malformed rectangle Rect(x1=True, x2=False, y1=0, y2=0)"),
    ],
)
def test_rect_construction_errors(args, error, message):
    """Type and range errors come before a malformed rectangle, in
    argument order, with the same messages as the checked constructor."""
    with pytest.raises(error) as info:
        Rect(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "pos, error, message",
    [
        (1.5, TypeError, "coordinate 1.5 is not an integer"),
        ("1", TypeError, "coordinate '1' is not an integer"),
        (2**63, OverflowError, "coordinate 9223372036854775808 outside signed 64-bit range"),
        (-(2**63) - 1, OverflowError, "coordinate -9223372036854775809 outside signed 64-bit range"),
    ],
)
def test_line_construction_errors(pos, error, message):
    with pytest.raises(error) as info:
        Line(V, pos)
    assert type(info.value) is error and str(info.value) == message


def test_rect_and_line_value_semantics():
    """Bools and other int subclasses are accepted; the objects are frozen,
    slotted, and keep their eq, hash, repr and keyword construction."""

    class Sub(int):
        pass

    assert repr(Rect(True, 1, False, 0)) == "Rect(x1=True, x2=1, y1=False, y2=0)"
    assert Rect(Sub(1), 2, 3, 4) == Rect(1, 2, 3, 4)
    assert Line(V, True) == Line(V, 1)
    assert Rect(-(2**63), 2**63 - 1, 0, 0).x2 == 2**63 - 1
    r = Rect(x1=1, x2=2, y1=3, y2=4)
    assert r == Rect(1, 2, 3, 4) and r != Rect(1, 2, 3, 5) and r != (1, 2, 3, 4)
    assert hash(r) == hash((1, 2, 3, 4)) and repr(r) == "Rect(x1=1, x2=2, y1=3, y2=4)"
    ln = Line(axis=H, pos=-3)
    assert ln == Line(H, -3) and ln != Line(V, -3) and hash(ln) == hash((H, -3))
    assert repr(ln) == "Line(axis=<Axis.HORIZONTAL: 'h'>, pos=-3)"
    for obj, name in ((r, "x1"), (r, "y2"), (ln, "pos")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    # no per-object __dict__: a dict-backed Rect costs about 40 more bytes
    assert not hasattr(Rect(0, 0, 0, 0), "__dict__")
    assert not hasattr(Line(V, 0), "__dict__")


def test_values_survive_pickle_and_copy():
    inst = Instance([Rect(0, 1, 0, 1), Rect(-5, 5, 2, 2)], hlines=[2, 0], vlines=[1])
    values = [Rect(1, 2, 3, 4), Line(V, 7), Line(H, -(2**63)), inst, Solution(hlines=[0], vlines=[1])]
    for obj in values:
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, proto))
            assert back == obj and type(back) is type(obj) and repr(back) == repr(obj)
        for back in (copy.copy(obj), copy.deepcopy(obj)):
            assert back == obj and type(back) is type(obj) and repr(back) == repr(obj)


def test_construction_checks_survive_optimized_mode():
    """With assertions stripped (python -O), bad rectangles and lines still
    raise: the fast path is an if, not an assert."""
    script = textwrap.dedent(
        """
        from rectstab.core import Axis, Line, Rect

        if __debug__:
            raise SystemExit("assertions are not stripped")
        for make in (
            lambda: Rect(2, 1, 0, 0),
            lambda: Rect(0, 1, 0, 2**63),
            lambda: Line(Axis.VERTICAL, 1.5),
        ):
            try:
                make()
            except (TypeError, OverflowError, ValueError) as e:
                print(type(e).__name__)
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
    assert proc.stdout.split() == ["ValueError", "OverflowError", "TypeError"]


def test_verify_simple():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[], vlines=[0])
    assert verify(inst, Solution(vlines=[0])) == []


def test_verify_reports_unstabbed_in_order():
    inst = Instance([Rect(0, 1, 0, 1), Rect(5, 6, 5, 6)], hlines=[], vlines=[0])
    assert verify(inst, Solution(vlines=[0])) == [Rect(5, 6, 5, 6)]


def test_verify_vacuous():
    assert verify(Instance([], [], []), Solution()) == []


def test_verify_rejects_foreign_lines():
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[0])
    with pytest.raises(UnknownLineError) as exc:
        verify(inst, Solution(hlines=[7], vlines=[0]))
    assert exc.value.lines == (Line(H, 7),)


def _check_kernel_against_oracle(inst: Instance, sol: Solution, rng) -> None:
    naive = [
        r
        for r in inst.rects
        if not any(stabs(ln, r) for ln in sol.lines())
    ]
    assert verify(inst, sol) == naive

    def oracle_mask(lines):
        hit = [any(stabs(ln, r) for ln in lines) for r in inst.rects]
        return sum(1 << i for i, h in enumerate(hit) if h)

    for axis in (H, V):
        masks = line_masks(inst, axis)
        assert len(masks) == len(inst.line_positions(axis))
        for pos, mask in zip(inst.line_positions(axis), masks):
            assert mask == oracle_mask([Line(axis, pos)])
    assert stab_mask(inst, sol.hlines, sol.vlines) == oracle_mask(sol.lines())
    assert stab_mask(inst, sol.hlines) == oracle_mask([Line(H, y) for y in sol.hlines])
    assert stab_mask(inst, (), ()) == 0
    for mask in (oracle_mask(sol.lines()), rng.next_u64() << 64 | rng.next_u64()):
        assert sum(1 << i for i in bits(mask)) == mask
        assert list(bits(mask)) == sorted(bits(mask))


def _random_solution(inst: Instance, rng) -> Solution:
    return Solution(
        hlines=[y for y in inst.hlines if rng.chance(1, 2)],
        vlines=[x for x in inst.vlines if rng.chance(1, 2)],
    )


def test_verify_matches_naive_double_loop():
    """verify and the stabbing kernel (line_masks, stab_mask, bits) against
    the stabs oracle. Besides random rectangles the inputs hold degenerate
    rectangles, duplicates, lines on rectangle boundaries, empty pools,
    solutions that stab everything and solutions that miss one class."""
    rng = Xoshiro256StarStar(12)
    for _ in range(300):
        rects = [rand_rect(rng, c=rng.choice([3, 20])) for _ in range(rng.randint(0, 8))]
        if rects and rng.chance(1, 3):
            rects.append(rng.choice(rects))  # duplicate
        if rng.chance(1, 3):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            rects.append(Rect(x, x, y, y + rng.randint(0, 2)))  # degenerate
        hl = [rng.randint(-20, 20) for _ in range(rng.randint(0, 5))]
        vl = [rng.randint(-20, 20) for _ in range(rng.randint(0, 5))]
        for r in rects:  # lines on rectangle boundaries
            if rng.chance(1, 4):
                hl.append(rng.choice([r.y1, r.y2]))
            if rng.chance(1, 4):
                vl.append(rng.choice([r.x1, r.x2]))
        inst = Instance(rects, hl, vl)
        _check_kernel_against_oracle(inst, _random_solution(inst, rng), rng)

    # Many rectangles per stabber class, so the answers decided per class
    # are mapped back over long runs of repeated class ids.
    rng = Xoshiro256StarStar(19)
    per_class = []
    for _ in range(60):
        rects = [rand_rect(rng, c=rng.choice([6, 20])) for _ in range(rng.randint(20, 70))]
        inst = Instance(
            rects,
            [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))],
            [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))],
        )
        per_class.append(len(inst.rects) / max(1, len(inst.stabbers.ranges)))
        _check_kernel_against_oracle(inst, _random_solution(inst, rng), rng)
    assert sorted(per_class)[len(per_class) // 2] >= 4

    # Solutions that stab everything, which stab_mask decides per class
    # alone, and solutions that miss exactly one class of several
    # rectangles (equal stabber sets, by the oracle).
    rng = Xoshiro256StarStar(23)
    one_class_misses = 0
    for _ in range(60):
        rects = [rand_rect(rng, c=6) for _ in range(rng.randint(20, 70))]
        hl = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        vl = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        every = Solution(hl, vl).lines()
        classes = {}  # stabber set -> its rectangles, in input order
        for r in rects:
            stabbers = frozenset(ln for ln in every if stabs(ln, r))
            if stabbers:
                classes.setdefault(stabbers, []).append(r)
        inst = Instance([r for r in rects if any(stabs(ln, r) for ln in every)], hl, vl)
        _check_kernel_against_oracle(inst, Solution(inst.hlines, inst.vlines), rng)
        for stabbers, members in classes.items():
            others = [ln for ln in every if ln not in stabbers]
            if len(members) > 1 and all(s & set(others) for s in classes if s != stabbers):
                one_class_misses += 1
                sol = Solution(
                    [ln.pos for ln in others if ln.axis is H],
                    [ln.pos for ln in others if ln.axis is V],
                )
                assert verify(inst, sol) == members
                _check_kernel_against_oracle(inst, sol, rng)
    assert one_class_misses >= 100


def test_stab_mask_rejects_lines_that_are_not_candidates():
    """The kernel works on candidate indices; a position that is no
    candidate must not be bisected to a neighbouring candidate."""
    inst = Instance([Rect(0, 4, 0, 4), Rect(10, 12, 10, 12)], hlines=[0, 11], vlines=[2])
    assert stab_mask(inst, [0], [2]) == 0b01
    with pytest.raises(UnknownLineError) as exc:
        stab_mask(inst, [3, 0])  # y = 3 stabs rects[0] but is no candidate
    assert exc.value.lines == (Line(H, 3),)
    with pytest.raises(UnknownLineError) as exc:
        stab_mask(inst, [12, 11], [11, 2])
    assert exc.value.lines == (Line(H, 12), Line(V, 11))


def test_transpose_example_and_involution():
    assert Rect(1, 2, 3, 4).transpose() == Rect(3, 4, 1, 2)
    inst = Instance([Rect(1, 2, 3, 4), Rect(0, 0, -5, 5)], hlines=[1, 9], vlines=[-3])
    assert transpose(transpose(inst)) == inst


def test_transpose_maps_solutions():
    rng = Xoshiro256StarStar(13)
    for _ in range(60):
        rects = [rand_rect(rng) for _ in range(rng.randint(1, 6))]
        inst = Instance(rects, [rng.randint(-20, 20) for _ in range(3)],
                        [rng.randint(-20, 20) for _ in range(3)])
        sol = Solution(hlines=inst.hlines[:2], vlines=inst.vlines[:1])
        flipped = transpose(inst)
        assert (verify(inst, sol) == []) == (verify(flipped, sol.transpose()) == [])


def test_strips_of_empty():
    assert strips_of(V, []) == [Strip(V, None, None)]


def test_strips_of_two_positions():
    assert strips_of(V, [0, 5]) == [Strip(V, None, 0), Strip(V, 0, 5), Strip(V, 5, None)]


def test_strips_of_counts_and_coverage():
    rng = Xoshiro256StarStar(14)
    for _ in range(50):
        positions = sorted({rng.randint(-30, 30) for _ in range(rng.randint(0, 8))})
        strips = strips_of(H, positions)
        assert len(strips) == len(positions) + 1
        # pairwise disjoint, cover everything off the lines, contain no line
        for probe in range(-35, 36):
            inside = [s for s in strips if s.contains_pos(probe)]
            if probe in positions:
                assert inside == []
            else:
                assert len(inside) == 1


def test_strip_holds_needs_a_stabbing_candidate_strictly_inside():
    s = Strip(V, 0, 5)
    assert strip_holds(s, Rect(3, 9, 0, 1), [4])
    assert not strip_holds(s, Rect(3, 9, 0, 1), [5, 9])  # on the boundary, outside
    assert not strip_holds(s, Rect(1, 2, 0, 1), [4])  # meets the strip, no stabber inside


def test_held_masks_match_the_definition():
    """held_masks, read off the stabber table, against the coordinates
    (oracles.held_by_definition) over random candidate subsets as bases,
    given to held_masks as candidate indices and to the reference as
    positions (to_positions).
    The pool has adjacent base candidates, whose empty slot holds nothing,
    rectangles with no stabber on the axis, rectangles whose only stabber
    is a base line, and a mask filter on every case."""
    rng = Xoshiro256StarStar(17)
    seen = Counter()
    for _ in range(200):
        rects = []
        for _ in range(rng.randint(0, 8)):
            x1, y1 = rng.randint(-6, 6), rng.randint(-6, 6)
            rects.append(Rect(x1, x1 + rng.randint(0, 4), y1, y1 + rng.randint(0, 4)))
        hlines = [rng.randint(-7, 7) for _ in range(rng.randint(0, 8))]
        vlines = [rng.randint(-7, 7) for _ in range(rng.randint(0, 8))]
        inst = Instance(rects, hlines, vlines)
        full = (1 << len(rects)) - 1
        mask = rng.randrange(1 << len(rects))
        for axis in (H, V):
            candidates = inst.line_positions(axis)
            base = [t for t in range(len(candidates)) if rng.randrange(3)]
            at = to_positions(candidates, base)
            expected = held_by_definition(inst, axis, at, full)
            assert held_masks(inst, axis, base, full) == expected
            assert held_masks(inst, axis, base, mask) == [m & mask for m in expected]
            seen["adjacent base"] += any(u - t == 1 for t, u in zip(base, base[1:]))
            for r in rects:
                a, b = r.interval(axis)
                stabbers = [p for p in candidates if a <= p <= b]
                seen["no stabber"] += not stabbers
                seen["only a base stabber"] += len(stabbers) == 1 and stabbers[0] in at
    assert seen["adjacent base"] > 100 and seen["no stabber"] > 100, seen
    assert seen["only a base stabber"] > 100, seen


def test_separated_predicate():
    a, b, c = Strip(V, None, 0), Strip(V, 0, 5), Strip(V, 5, None)
    assert separated([a, c], [0, 5])
    assert separated([a, c], [3])
    assert not separated([a, c], [])
    assert not separated([a, b], [3])  # line 3 sits inside strip b
    assert separated([a, b], [0])


def test_instance_dedups_and_sorts_lines():
    inst = Instance([], hlines=[3, 1, 3], vlines=[2, 2, -1])
    assert inst.hlines == (1, 3)
    assert inst.vlines == (-1, 2)
