"""Differential tests of core.drop_dominated against the pairwise reference
oracles.dominance_reduce, and of both solvers on the reduced instance
against the raw one."""

import copy
import time

from rectstab import core, reduction
from rectstab.approx import solve_with_budget
from rectstab.core import Axis, Instance, Line, Rect, Solution, drop_dominated, transpose, verify
from rectstab.exact import SearchBudget, dedup_lines, opt_exact
from rectstab.generators import gen_mcgraph, gen_planted, gen_uniform
from rectstab.rng import Xoshiro256StarStar

from oracles import brute_force, dominance_reduce


def _pool() -> list[Instance]:
    """300 pinned small instances, coordinates in a range of 3 to 13 so
    duplicate and zero-extent rectangles and lines on rectangle boundaries
    are common, plus the empty instance and a lone unstabbable rectangle."""
    rng = Xoshiro256StarStar(7)
    pool = [Instance([], [], []), Instance([Rect(0, 1, 0, 1)], [5], [-5])]
    for seed in range(300):
        c = rng.randint(1, 6)
        if seed % 3:
            pool.append(gen_uniform(rng.randint(0, 10), rng.randint(0, 10), c, seed))
        else:
            k = rng.randint(1, 3)
            pool.append(gen_planted(k, rng.randint(1, 10), max(c, k), seed)[0])
    return pool


POOL = _pool()


def _classes_and_reductions() -> list[Instance]:
    """Shapes the small pool lacks, with the transpose of each: 400
    planted rectangles over a few lines, so many rectangles share a
    stabber class, and clique reductions, whose rectangles nest."""
    pool = [gen_planted(k, 400, 10**4, seed)[0] for k in range(1, 7) for seed in range(3)]
    pool += [
        reduction.build(gen_mcgraph(k, r, 1, 3, seed, plant)[0]).inst
        for k, r in ((2, 2), (2, 3), (3, 2))
        for seed in range(3)
        for plant in (False, True)
    ]
    return pool + [transpose(inst) for inst in pool]


LARGE_POOL = _classes_and_reductions()


def _generated() -> list[Instance]:
    """Pinned-RNG generator instances of assorted sizes, up to 300
    rectangles."""
    rng = Xoshiro256StarStar(23)
    pool = []
    for seed in range(40):
        pool.append(gen_uniform(rng.randint(0, 120), rng.randint(0, 40), rng.randint(1, 60), seed))
        k = rng.randint(1, 6)
        pool.append(gen_planted(k, rng.randint(1, 300), 10 ** rng.randint(1, 4) + k, seed)[0])
    return pool


GENERATED = _generated()


def _is_subsequence(part, whole) -> bool:
    it = iter(whole)
    return all(any(x == y for y in it) for x in part)


def test_pool_covers_the_corner_cases():
    def unstabbable(inst):
        return bool(verify(inst, Solution(inst.hlines, inst.vlines)))

    assert any(not inst.rects for inst in POOL)
    assert sum(len(set(inst.rects)) < len(inst.rects) for inst in POOL) >= 30
    assert sum(any(r.x1 == r.x2 or r.y1 == r.y2 for r in inst.rects) for inst in POOL) >= 30
    assert sum(unstabbable(inst) for inst in POOL) >= 30
    on_boundary = sum(
        any(y in (r.y1, r.y2) for r in inst.rects for y in inst.hlines)
        or any(x in (r.x1, r.x2) for r in inst.rects for x in inst.vlines)
        for inst in POOL
    )
    assert on_boundary >= 100
    planted = [inst for inst in LARGE_POOL if len(inst.rects) == 400]
    assert len(planted) == 36
    assert all(len(inst.hlines) + len(inst.vlines) <= 20 for inst in planted)


def test_drop_dominated_matches_pairwise_reference():
    for inst in POOL + LARGE_POOL:
        reduced = drop_dominated(inst)
        assert reduced == dominance_reduce(inst), inst
        assert drop_dominated(reduced) == reduced
        assert _is_subsequence(reduced.rects, inst.rects)
        assert set(reduced.hlines) <= set(inst.hlines)
        assert set(reduced.vlines) <= set(inst.vlines)


def _record_passes(monkeypatch) -> list[str]:
    """The passes drop_dominated runs from now on, in order: "class" for
    each _undominated_classes call and "line" for each _undominated_lines
    call."""
    passes: list[str] = []
    for name, tag in (("_undominated_classes", "class"), ("_undominated_lines", "line")):
        run = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *args, run=run, tag=tag: passes.append(tag) or run(*args))
    return passes


def _rounds(passes: list[str]) -> tuple[int, str]:
    """The class passes of one reduction and the exit it ended on: "a"
    after a line pass, "b" after a class pass. The passes alternate from a
    class pass."""
    rounds = passes.count("class")
    end = "a" if passes[-1] == "line" else "b"
    assert passes == (["class", "line"] * rounds)[: 2 * rounds - (end == "b")]
    return rounds, end


def test_both_early_exits_run_in_the_differential_pools(monkeypatch):
    """drop_dominated ends at a line pass that drops no line (exit (a)),
    or, after a renumbering, at a class pass that keeps every class with
    no line pass (exit (b)). The pools the pairwise reference and the
    handed-table test check hold both, exit (a) after a renumbering too,
    and reductions of three rounds and more."""
    passes = _record_passes(monkeypatch)
    ends: dict[str, int] = {}
    renumbered_a = long = 0
    for inst in POOL + LARGE_POOL:
        passes.clear()
        assert drop_dominated(inst) == dominance_reduce(inst), inst
        rounds, end = _rounds(passes)
        assert end == "a" or rounds >= 2  # exit (b) needs a renumbering
        ends[end] = ends.get(end, 0) + 1
        renumbered_a += end == "a" and rounds >= 2
        long += rounds >= 3
    assert ends["a"] >= 50 and ends["b"] >= 250
    assert renumbered_a >= 3 and long >= 5


def test_pass_counts_pinned(monkeypatch):
    """The passes over the pinned generator pool. Before both exits it took
    165 class and 165 line passes: every reduction closed with a round
    that dropped nothing. Ending at a line pass that drops nothing saves a
    class and a line pass once (the other exit (a) ends the first round),
    and ending at a class pass that keeps everything saves 78 line passes;
    a closing line pass that came back would add them again."""
    passes = _record_passes(monkeypatch)
    ends = {"a": 0, "b": 0}
    classes = lines = 0
    for inst in GENERATED:
        passes.clear()
        drop_dominated(inst)
        ends[_rounds(passes)[1]] += 1
        classes += passes.count("class")
        lines += passes.count("line")
    assert ends == {"a": 2, "b": 78}
    assert (classes, lines) == (164, 86)


# nothing is dominated when each line stabs one rectangle of its own
IRREDUCIBLE = [
    Instance([Rect(10 * i, 10 * i + 1, 3 * i, 50) for i in range(n)], [], range(0, 10 * n, 10))
    for n in range(1, 6)
]


def test_derived_instances_are_handed_the_table_a_fresh_build_gives():
    """drop_dominated, Instance.reduced and transpose hand their results a
    stabber table instead of bisecting again. Each handed table must equal
    the one a memo-free copy (copy.copy) of the result builds itself. An
    input with nothing dominated gets back an equal, new instance."""
    unchanged = 0
    for inst in POOL + LARGE_POOL + GENERATED + IRREDUCIBLE:
        reduced = drop_dominated(inst)
        derived = [reduced, inst.reduced, transpose(inst), transpose(reduced)]
        for result in derived:
            assert "stabbers" in vars(result)
            assert result.stabbers == copy.copy(result).stabbers, inst
        assert reduced is not inst and inst.reduced is not inst
        unchanged += reduced == inst
    assert unchanged >= len(IRREDUCIBLE)


def _held_masks(inst: Instance) -> dict:
    """The line masks in inst's memo, by axis (see core.line_masks)."""
    return vars(inst).get("_line_masks", {})


def _check_held_masks(result: Instance) -> None:
    """Every line-mask tuple in result's memo is what a memo-free copy of
    result builds, and line_masks reads it back."""
    for axis, masks in _held_masks(result).items():
        fresh = core.line_masks(copy.copy(result), axis)
        assert masks == fresh, (result, axis)
        assert core.line_masks(result, axis) is masks


def test_derived_instances_are_handed_the_masks_a_fresh_build_gives(monkeypatch):
    """drop_dominated hands every result both axes' line masks: those of
    its last class pass when that pass kept every class (exit (b), or exit
    (a) in the first round), and those of one more class-mask sweep over
    the kept classes after an exit (a) round that dropped a class.
    Instance.reduced is drop_dominated's result, and transpose hands its
    result the source's masks with the axes swapped, building none. Each
    handed mask tuple must equal the one a memo-free copy of the result
    builds. The pools reach all three drop_dominated cases."""
    passes = _record_passes(monkeypatch)
    kept_all: list[bool] = []
    run = core._undominated_classes

    def recording(spans, hmasks, vmasks):
        keep = run(spans, hmasks, vmasks)
        kept_all.append(keep == (1 << len(spans)) - 1)
        return keep

    monkeypatch.setattr(core, "_undominated_classes", recording)
    both = {Axis.HORIZONTAL, Axis.VERTICAL}
    cases = {"a": 0, "b": 0, "dropped": 0}
    for inst in POOL + LARGE_POOL + GENERATED + IRREDUCIBLE:
        passes.clear()
        kept_all.clear()
        source = copy.copy(inst)  # no masks of its own yet
        reduced = drop_dominated(source)
        rounds, end = _rounds(passes)
        if kept_all[-1]:
            cases[end] += 1
            assert end == "b" or rounds == 1
        else:
            cases["dropped"] += 1
            assert end == "a"
        flipped = transpose(reduced)
        assert all(set(_held_masks(r)) == both for r in (reduced, source.reduced, flipped))
        assert not _held_masks(transpose(copy.copy(inst)))  # transpose forces no build
        for result in (reduced, source.reduced, transpose(source), flipped):
            _check_held_masks(result)
    assert cases["a"] >= 50 and cases["b"] >= 250 and cases["dropped"] >= 6, cases


def test_exact_line_dedup_keeps_every_reduced_line():
    """opt_exact branches over dedup_lines(inst.reduced). The reduction
    leaves no line that stabs nothing and no two lines with equal stab
    sets, so the dedup keeps every line, in canonical order."""
    for inst in POOL + LARGE_POOL:
        reduced = inst.reduced
        lines = [Line(Axis.HORIZONTAL, y) for y in reduced.hlines]
        lines += [Line(Axis.VERTICAL, x) for x in reduced.vlines]
        assert [ln for ln, _ in dedup_lines(reduced)] == lines, inst


def test_reduced_instance_keeps_the_optimum_and_its_answers_stab_the_original():
    for inst in POOL:
        reduced = drop_dominated(inst)
        n_lines = len(inst.hlines) + len(inst.vlines)
        raw = brute_force(inst, n_lines)
        opt = brute_force(reduced, n_lines)
        assert (raw is None) == (opt is None)
        exact = opt_exact(reduced, SearchBudget(n_lines))
        if raw is None:
            assert exact is None
            assert solve_with_budget(reduced, n_lines) is None
            continue
        assert len(raw) == len(opt) == len(exact)
        assert verify(inst, exact) == []
        for k in range(len(opt) + 1):
            sol = solve_with_budget(reduced, k)
            if sol is None:
                assert k < len(opt)  # a no-witness must be a true certificate
                continue
            assert len(opt) <= len(sol) <= (7 * k) // 4
            assert verify(inst, sol) == []


def test_dropping_lines_can_dominate_rectangles():
    # v@0 and v@5 each stab a subset of what h@0 stabs, so they go; then
    # both rectangles have the stabber set {h@0} and the second one goes
    first, second = Rect(0, 0, 0, 0), Rect(5, 5, 0, 0)
    inst = Instance([first, second], hlines=[0], vlines=[0, 5])
    assert drop_dominated(inst) == Instance([first], hlines=[0], vlines=[])


def test_classes_merged_after_a_line_drop_keep_the_lowest_index():
    # stabber sets {h@0, v@9}, {h@0, v@0} and {h@0, v@5}: three classes, of
    # which the first rectangle's ranges sort last. Each vertical line stabs
    # a subset of what h@0 stabs, so all go, and then the three classes are
    # {h@0} and merge into the first rectangle's
    first = Rect(9, 9, 0, 0)
    inst = Instance([first, Rect(0, 0, 0, 0), Rect(5, 5, 0, 0)], hlines=[0], vlines=[0, 5, 9])
    assert drop_dominated(inst) == Instance([first], hlines=[0], vlines=[])


def test_unstabbable_rectangle_dominates_everything():
    lone = Rect(10, 11, 10, 11)
    inst = Instance([Rect(0, 1, 0, 1), lone, Rect(0, 2, 0, 2), lone], hlines=[0], vlines=[1])
    assert drop_dominated(inst) == Instance([lone], [], [])


def test_returns_an_equal_new_instance_when_nothing_is_dominated():
    inst = Instance([Rect(0, 0, 0, 0), Rect(5, 5, 5, 5)], hlines=[0], vlines=[5])
    reduced = drop_dominated(inst)
    assert reduced == inst and reduced is not inst
    assert vars(reduced)["stabbers"] == copy.copy(inst).stabbers
    assert _held_masks(reduced) == {Axis.HORIZONTAL: (0b01,), Axis.VERTICAL: (0b10,)}


def test_reduced_is_computed_once_and_is_never_the_instance_itself():
    first, second = Rect(0, 0, 0, 0), Rect(5, 5, 0, 0)
    shrinks = Instance([first, second], hlines=[0], vlines=[0, 5])
    unchanged = Instance([Rect(0, 0, 0, 0), Rect(5, 5, 5, 5)], hlines=[0], vlines=[5])
    for inst in (shrinks, unchanged):
        reduced = inst.reduced
        assert reduced == drop_dominated(inst)
        assert reduced is not inst
        assert inst.reduced is reduced


def test_large_uniform_instance_in_index_space():
    """2,500 rectangles and 4,000 candidate lines: the sizes a pairwise
    prototype gave, in well under a second."""
    inst = gen_uniform(2500, 4000, 10**6, 1)
    start = time.perf_counter()
    reduced = drop_dominated(inst)
    elapsed = time.perf_counter() - start
    assert (len(reduced.rects), len(reduced.hlines), len(reduced.vlines)) == (320, 150, 151)
    assert elapsed < 1.0
