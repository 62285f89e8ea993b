"""The guess-family generator against its filter-then-yield reference.

approx._separated_families builds line picks gap by gap over the slots that
hold a candidate; oracles.separated_families filters every raw combination.
On every small arrangement they must agree pair for pair, in order.
"""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial
from itertools import combinations

from rectstab.approx import (
    Cover,
    GuessInfeasible,
    Orientation,
    SearchStats,
    _count,
    _separated_families,
    assemble_2sat,
    eliminate_redundant,
    enumerate_horizontal_guesses,
    enumerate_vertical_guesses,
    preselect,
    solve_min,
    solve_split,
)
from rectstab.core import Axis, Solution, bits, drop_dominated, transpose
from rectstab.generators import gen_mcgraph, gen_planted, gen_uniform
from rectstab.reduction import build
from rectstab.twosat import solve as solve_2sat

from oracles import (
    Strip,
    cover_reached,
    guess_strips,
    heavy_column,
    heavy_lines,
    horizontal_guesses_at,
    separated_families,
    strip_holds,
    strips_of,
    to_positions,
    vertical_guess_fits,
    vertical_guesses_at,
)

H, V = Axis.HORIZONTAL, Axis.VERTICAL
MAX_BUDGET = 5


def _subsets(items):
    return [c for n in range(len(items) + 1) for c in combinations(items, n)]


@lru_cache(maxsize=None)
def _reference(n_base, fixed):
    """Reference families at MAX_BUDGET; those of a smaller budget are its
    prefix of combined size <= budget, since size is the outer order."""
    free = [t for t in range(n_base) if t not in fixed]
    full = list(separated_families(n_base, fixed, free, MAX_BUDGET))
    for budget in range(MAX_BUDGET):
        assert list(separated_families(n_base, fixed, free, budget)) == [
            (s, l) for s, l in full if len(s) + len(l) <= budget
        ]
    return full


def test_families_match_reference_on_every_small_arrangement():
    checked = 0
    for n_base in range(7):
        for fixed in map(frozenset, _subsets(range(n_base))):
            full = [
                (sum(1 << i for i in s), len(s) + len(l), (s, l))
                for s, l in _reference(n_base, fixed)
            ]
            for cand in _subsets(range(n_base + 1)):
                off = ~sum(1 << i for i in cand)
                kept = [(size, pair) for slots, size, pair in full if not slots & off]
                for budget in range(MAX_BUDGET + 1):
                    expected = [pair for size, pair in kept if size <= budget]
                    assert list(_separated_families(n_base, cand, fixed, budget)) == expected
                    checked += 1
    assert checked == sum(6 * 2 ** (2 * n + 1) for n in range(7))


def _random_cover(rng, n_base):
    """(cover, order): a cover over 6 rectangles with sparse masks, so that
    suffix-OR cuts fire, and the order (a, b, i) its count runs over, which
    lists most rectangles i over a random nonempty range [a, b) of 5
    indices; a random part of those is counted."""

    def sparse():
        return rng.getrandbits(6) & rng.getrandbits(6)

    order = []
    for i in range(6):
        if rng.random() < 0.7:
            a = rng.randrange(5)
            order.append((a, rng.randrange(a + 1, 6), i))
    order.sort(key=lambda o: (o[1], o[0]))
    cover = Cover(
        need=rng.getrandbits(6),
        slots=[sparse() for _ in range(n_base + 1)],
        lines=[sparse() for _ in range(n_base)],
        counted=sum(1 << i for _, _, i in order) & rng.getrandbits(6),
        spare=rng.randrange(4),
        count=partial(_count, order, {}),
    )
    return cover, order


def test_families_with_a_cover_match_the_filtered_reference():
    """Cover-first generation, counted leftovers included, yields exactly
    the reference pairs that reach the cover, in order."""
    rng = random.Random(8)
    cut = 0
    for n_base in range(7):
        for fixed in map(frozenset, _subsets(range(n_base))):
            full = _reference(n_base, fixed)
            for _ in range(6):
                cand = [i for i in range(n_base + 1) if rng.random() < 0.7]
                cover, order = _random_cover(rng, n_base)
                if rng.random() < 0.3:
                    cover = replace(cover, counted=0, spare=0)
                expected = [
                    (s, l)
                    for s, l in full
                    if set(s) <= set(cand) and cover_reached(cover, order, s, l)
                ]
                assert list(_separated_families(n_base, cand, fixed, MAX_BUDGET, cover)) == expected
                cut += len(expected) < sum(set(s) <= set(cand) for s, _ in full)
    assert cut > 500


def _strips_and_lines(guesses):
    return [(guess_strips(V, g.base, g.slots), g.lines) for g in guesses]


def test_empty_pool_guesses_the_whole_plane_only_with_a_candidate():
    guesses = _strips_and_lines(vertical_guesses_at((), 2, (4,)))
    assert guesses == [((), frozenset()), ((Strip(V, None, None),), frozenset())]
    assert _strips_and_lines(vertical_guesses_at((), 2, ())) == [((), frozenset())]


def test_no_candidate_slot_leaves_pure_line_picks():
    # every candidate sits on a pool line, so no strip has one inside
    v0 = (0, 5, 9)
    guesses = _strips_and_lines(vertical_guesses_at(v0, 3, v0))
    assert guesses == [((), frozenset(pick)) for pick in _subsets(v0) if len(pick) <= 4]


def test_unbounded_end_slots():
    guesses = set(_strips_and_lines(vertical_guesses_at((5,), 2, (1, 9))))
    assert guesses == {
        ((), frozenset()),
        ((), frozenset({5})),
        ((Strip(V, None, 5),), frozenset()),
        ((Strip(V, 5, None),), frozenset()),
        ((Strip(V, None, 5),), frozenset({5})),
        ((Strip(V, 5, None),), frozenset({5})),
        ((Strip(V, None, 5), Strip(V, 5, None)), frozenset({5})),
    }
    # a candidate on one side only: the other end slot is never guessed
    one_side = [gamma for gamma, _ in _strips_and_lines(vertical_guesses_at((5,), 2, (9,)))]
    assert all(s == Strip(V, 5, None) for gamma in one_side for s in gamma)


def test_full_h1_leaves_only_the_empty_guess():
    h1, h0 = (0, 10), (4, 7)
    hlines = range(-3, 14)
    assert [(g.slots, g.lines) for g in horizontal_guesses_at(h1, h0, 1, hlines)] == [
        ((), frozenset())
    ]
    # ... and nothing once the empty guess cannot reach what the cover needs
    cover = Cover(need=1, slots=[0] * 5, lines=[0] * 4)
    assert horizontal_guesses_at(h1, h0, 1, hlines, cover) == []


def _leaves_v_only(inst, vg):
    """Does the vertical guess leave a rectangle no horizontal candidate
    stabs to no strip that holds it and no V1 line? By the definition,
    with the guess in positions."""
    strips = guess_strips(V, vg.base, vg.slots)
    return any(
        not any(r.y1 <= y <= r.y2 for y in inst.hlines)
        and not any(r.x1 <= x <= r.x2 for x in vg.lines)
        and not any(strip_holds(s, r, inst.vlines) for s in strips)
        for r in inst.rects
    )


def _cover_pool():
    """Upright orientations of gen_uniform(40, 40, 30, seed) for seeds 0-5
    and of the heavy column, whose V0 lines are heavy at budget 2."""
    pool = [drop_dominated(gen_uniform(40, 40, 30, seed)) for seed in range(6)]
    return [Orientation(inst) for inst in (*pool, heavy_column())]


def test_vertical_cover_masks_by_definition():
    """The cover needs every rectangle H1 misses but those some heavy V0
    line stabs and some horizontal candidate stabs, and counts the needed
    rectangles some horizontal candidate stabs, with the orientation's
    count. That count runs over horder, which lists every rectangle some
    horizontal candidate stabs with the range of those candidates, by the
    range's end, then start. Its slot masks are the open V0 slots' hold
    masks over every rectangle, and its lines stab their own
    rectangles."""
    heavy_seen = 0
    for tables in _cover_pool():
        inst = tables.inst
        for k_v in range(1, 5):
            pre = tables.preselected(k_v)
            if pre is None:
                continue
            h1, v0 = to_positions(inst.hlines, pre[0]), to_positions(inst.vlines, pre[1])

            def mask(pred):
                return sum(1 << i for i, r in enumerate(inst.rects) if pred(r))

            def stabbed(y_lines, x_lines):
                return lambda r: any(r.y1 <= y <= r.y2 for y in y_lines) or any(
                    r.x1 <= x <= r.x2 for x in x_lines
                )

            for k in range(k_v, k_v + 3):
                cover = tables.vertical_cover(*pre, k, 0)
                heavy = heavy_lines(inst, h1, v0, k)
                heavy_seen += len(heavy)
                v_only = mask(lambda r: not stabbed(inst.hlines, ())(r))
                missed = mask(lambda r: not stabbed(h1, ())(r))
                need = missed & ~(mask(stabbed((), heavy)) & ~v_only)
                assert cover.need == need and cover.spare == 0
                assert cover.counted == need & ~v_only
                assert cover.count is tables.count
                ranges = [
                    ([t for t, y in enumerate(inst.hlines) if r.y1 <= y <= r.y2], i)
                    for i, r in enumerate(inst.rects)
                ]
                assert tables.horder == sorted(
                    ((ts[0], ts[-1] + 1, i) for ts, i in ranges if ts), key=lambda o: (o[1], o[0])
                )
                for i, strip in enumerate(strips_of(V, v0)):
                    assert cover.slots[i] == mask(lambda r: strip_holds(strip, r, inst.vlines))
                for t, x in enumerate(v0):
                    assert cover.lines[t] == mask(stabbed((), [x]))
    assert heavy_seen > 0


def test_vertical_cover_yields_the_guesses_w_prime_keeps():
    """Under its cover with spare b, the vertical enumeration yields, in
    order, exactly the unbounded stream's guesses that pass the W' bound
    by the definition (oracles.vertical_guess_fits): every rectangle no
    horizontal candidate stabs is held by a guessed strip or stabbed by
    V1, and at most b horizontal candidates stab W'. The bound cuts
    guesses on this pool."""
    cut = 0
    pool = [Orientation(drop_dominated(gen_uniform(40, 40, 30, seed))) for seed in range(40)]
    for upright in (*pool, Orientation(heavy_column())):
        for tables in (upright, upright.flipped):
            inst = tables.inst
            for k_v in range(5):
                pre = tables.preselected(k_v)
                if pre is None:
                    continue
                h1, v0 = pre
                h1_at, v0_at = to_positions(inst.hlines, h1), to_positions(inst.vlines, v0)
                m = len(inst.vlines)
                stream = list(enumerate_vertical_guesses(v0, k_v, m))
                for k_h in range((len(h1) + 1) // 2, k_v + 1):
                    spare = 2 * k_h - len(h1)
                    cover = tables.vertical_cover(h1, v0, k_h + k_v, spare)
                    kept = list(enumerate_vertical_guesses(v0, k_v, m, cover))
                    expected = []
                    for vg in stream:
                        vg_at = to_positions(inst.vlines, vg)
                        strips = guess_strips(V, vg_at.base, vg_at.slots)
                        if vertical_guess_fits(
                            inst, h1_at, v0_at, k_h + k_v, spare, strips, vg_at.lines
                        ):
                            expected.append(vg)
                    assert kept == expected
                    cut += len(stream) - len(kept)
    assert cut >= 500, cut


def _completes(tables, h1, vg, k, k_h):
    """Does some horizontal guess of at most 2k_h - |H1| items complete
    the vertical guess vg, kernelized under the budget k, to a satisfying
    2-SAT assignment? Every horizontal guess is tried with no cover, on
    the kernel of every kept rectangle its lines and H1 and V1 miss."""
    inst = tables.inst
    kept, h0 = eliminate_redundant(tables, h1, vg, k)
    for hg in enumerate_horizontal_guesses(h1, h0, k_h, len(inst.hlines)):
        kernel = kept & ~tables.stabbed((*h1, *hg.lines), vg.lines)
        try:
            formula, _ = assemble_2sat(kernel, vg, hg, inst)
        except GuessInfeasible:
            continue
        if solve_2sat(formula) is not None:
            return True
    return False


def test_budget_bound_drops_only_guesses_no_horizontal_guess_completes():
    """The vertical cover's W' bound against the search it cuts: the
    guesses it drops from the unbounded stream (every separated guess that
    reaches the rectangles no horizontal candidate stabs) are guesses no
    horizontal guess of at most 2k_h - |H1| items completes to a
    satisfiable 2-SAT call, after kernelization under the split's budget
    or any larger one, and the rest keep their order. Pinned-RNG uniform,
    planted and reduction instances."""
    pool = [gen_uniform(60, 60, 40, seed) for seed in range(24)]
    pool += [gen_planted(k=3 + seed % 3, n=24, coord_range=30, seed=seed)[0] for seed in range(12)]
    pool += [
        build(gen_mcgraph(2, 2 + seed % 2, 1, 3, seed, plant=seed < 2)[0]).inst
        for seed in range(4)
    ]
    dropped = Counter()
    for raw in pool:
        for inst in (drop_dominated(raw), drop_dominated(transpose(raw))):
            tables = Orientation(inst)
            splits = [(k_h, k_v) for k_v in range(7) for k_h in range(min(k_v, 6 - k_v) + 1)]
            for k_h, k_v in splits:
                pre = tables.preselected(k_v)
                if pre is None or len(pre[0]) > 2 * k_h:
                    continue
                h1, v0 = pre
                spare = 2 * k_h - len(h1)
                cover = tables.vertical_cover(h1, v0, k_h + k_v, spare)
                m = len(inst.vlines)
                bounded = list(enumerate_vertical_guesses(v0, k_v, m, cover))
                old = [
                    vg
                    for vg in enumerate_vertical_guesses(v0, k_v, m)
                    if not _leaves_v_only(inst, to_positions(inst.vlines, vg))
                ]
                kept = set(bounded)
                assert bounded == [vg for vg in old if vg in kept]
                for vg in old:
                    if vg in kept:
                        continue
                    for k in range(k_h + k_v, 7):
                        assert not _completes(tables, h1, vg, k, k_h)
                    dropped["spare > 0" if spare else "spare 0"] += 1
    assert dropped["spare 0"] > 100 and dropped["spare > 0"] > 100, dropped


def test_heavy_line_rectangles_stay_in_the_2sat_kernel():
    """On the heavy column both V0 lines are heavy at budget 2, so the
    vertical cover neither needs nor counts the columns, and the empty
    vertical guess and each single line pass it. The 2-SAT kernel still
    holds every rectangle H1 and V1 miss: those guesses leave a column no
    horizontal guess of the budget 0 reaches, and the first 2-SAT call is
    the guess of both lines. A kernel taken from the cover's need would
    be empty at the empty guess and answer no line at all."""
    inst = heavy_column()
    tables = Orientation.of(inst)
    h1, v0 = tables.preselected(2)
    assert (h1, v0) == ((), (0, 1))
    full = (1 << len(inst.rects)) - 1
    cover = tables.vertical_cover(h1, v0, 2, 0)
    assert cover.need == 0 and cover.counted == 0
    assert tables.vertical_cover(h1, v0, 3, 0).need == full  # 6 layers < 2k + 2 = 8
    stats = SearchStats()
    found = solve_split(tables, 0, 2, stats)
    assert stats == SearchStats(vertical_guesses=4, horizontal_guesses=1, twosat_calls=1)
    assert found.vguess.lines == {0, 1} and found.kernel == 0
    assert found.solution == Solution(hlines=(), vlines=(1, 5))
    stats = SearchStats()
    assert solve_min(inst, 4, stats) == (2, found.solution)
    assert stats.vertical_guesses == 4 and stats.twosat_calls == 1


def _uncovered_split(inst, k_h, k_v):
    """solve_split with no cover: every separated guess of candidate strips
    is built, and a scan by the definition skips a vertical guess leaving
    a rectangle no horizontal candidate stabs to no strip that holds it
    and no V1 line, and a horizontal guess leaving a kernel rectangle to
    no strip of either axis that holds it (such a guess has no satisfying
    assignment). Returns the first satisfiable guess's solution and the
    2-SAT calls."""
    pre = preselect(Orientation(inst), k_v)
    if pre is None:
        return None, 0
    h1, v0 = pre
    if len(h1) > 2 * k_h:
        return None, 0
    calls = 0
    tables = Orientation(inst)
    ys, xs = inst.hlines, inst.vlines
    for vg in enumerate_vertical_guesses(v0, k_v, len(xs)):
        vg_at = to_positions(xs, vg)
        if _leaves_v_only(inst, vg_at):
            continue
        kept, h0 = eliminate_redundant(tables, h1, vg, k_h + k_v)
        for hg in enumerate_horizontal_guesses(h1, h0, k_h, len(ys)):
            hg_at = to_positions(ys, hg)
            hs = set(to_positions(ys, h1)) | hg_at.lines
            kernel = 0
            for i in bits(kept):
                r = inst.rects[i]
                if not any(r.y1 <= y <= r.y2 for y in hs) and not any(
                    r.x1 <= x <= r.x2 for x in vg_at.lines
                ):
                    kernel |= 1 << i
            strips = [
                (s, xs) for s in guess_strips(V, vg_at.base, vg_at.slots)
            ] + [(s, ys) for s in guess_strips(H, hg_at.base, hg_at.slots)]
            if not all(
                any(strip_holds(s, inst.rects[i], cands) for s, cands in strips)
                for i in bits(kernel)
            ):
                continue
            formula, decode = assemble_2sat(kernel, vg, hg, inst)
            calls += 1
            values = solve_2sat(formula)
            if values is not None:
                h2, v2 = decode(values)
                h2, v2 = to_positions(ys, h2), to_positions(xs, v2)
                return Solution(hlines=hs | h2, vlines=vg_at.lines | v2), calls
    return None, calls


def test_covers_keep_every_first_satisfiable_guess_and_2sat_call():
    pool = [gen_uniform(60, 60, 40, seed) for seed in range(12)]
    pool += [gen_planted(k=4 + seed % 2, n=60, coord_range=40, seed=seed)[0] for seed in range(8)]
    for raw in pool:
        for inst in (drop_dominated(raw), drop_dominated(transpose(raw))):
            for k_h in range(4):
                for k_v in range(k_h, 7 - k_h):
                    stats = SearchStats()
                    found = solve_split(Orientation(inst), k_h, k_v, stats)
                    sol = found.solution if found is not None else None
                    assert (sol, stats.twosat_calls) == _uncovered_split(inst, k_h, k_v)
