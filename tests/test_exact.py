import hashlib

import pytest

from rectstab import exact
from rectstab.core import Instance, Rect, Solution, verify
from rectstab.exact import (
    ExactStats,
    NodeLimitExceeded,
    SearchBudget,
    dedup_lines,
    opt_exact,
    packing_bound,
)
from rectstab.generators import gen_mcgraph, gen_planted, gen_uniform
from rectstab.reduction import build
from rectstab.rng import Xoshiro256StarStar

from oracles import brute_force


def rand_instance(rng, max_rects=12, max_lines=10):
    c = 12
    rects = []
    for _ in range(rng.randint(0, max_rects)):
        x1 = rng.randint(-c, c)
        x2 = x1 + rng.randint(0, 6)
        y1 = rng.randint(-c, c)
        y2 = y1 + rng.randint(0, 6)
        rects.append(Rect(x1, min(x2, c), y1, min(y2, c)))
    hl, vl = [], []
    for _ in range(rng.randint(0, max_lines)):
        if rects and rng.chance(1, 2):
            # aim at a rectangle so a fair share of instances is feasible
            r = rng.choice(rects)
            if rng.chance(1, 2):
                hl.append(rng.randint(r.y1, r.y2))
            else:
                vl.append(rng.randint(r.x1, r.x2))
        else:
            (hl if rng.chance(1, 2) else vl).append(rng.randint(-c, c))
    return Instance(rects, hl, vl)


def test_empty_instance():
    sol = opt_exact(Instance([], [], []), SearchBudget(max_size=0))
    assert sol is not None and len(sol) == 0


def test_two_disjoint_rects_force_two_lines():
    inst = Instance(
        [Rect(0, 1, 0, 1), Rect(10, 11, 10, 11)],
        hlines=[0, 10],
        vlines=[],
    )
    sol = opt_exact(inst, SearchBudget(max_size=4))
    assert sol is not None and len(sol) == 2
    # removing either line leaves a rect unstabbed
    for y in sol.hlines:
        smaller = Solution(hlines=sol.hlines - {y}, vlines=sol.vlines)
        assert verify(inst, smaller) != []


def test_brute_force_trivial():
    assert brute_force(Instance([], [], []), 0) == Solution()
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[])
    assert brute_force(inst, 1) == Solution(hlines=[0])


def test_agreement_with_brute_force_on_random_suite():
    rng = Xoshiro256StarStar(31337)
    solved = 0
    stats = ExactStats()
    for _ in range(300):
        inst = rand_instance(rng)
        bf = brute_force(inst, 6)
        bb = opt_exact(inst, SearchBudget(max_size=6), stats)
        assert (bf is None) == (bb is None)
        if bf is not None:
            assert len(bf) == len(bb)
            assert verify(inst, bb) == []
            solved += 1
    assert solved > 80  # the suite must actually exercise feasible cases
    assert stats.nodes == 459  # pinned, like HARD_FAMILY_NODES, on general instances


UNIFORM_POOL = [gen_uniform(30, 24, 20, s) for s in range(40)]
PLANTED_POOL = [gen_planted(4 + s % 3, 200, 60, s)[0] for s in range(20)]


@pytest.mark.parametrize(
    "pool, max_size, nodes",
    [(UNIFORM_POOL, 12, 104), (PLANTED_POOL, 8, 116)],
    ids=["uniform", "planted"],
)
def test_node_sums_pinned_on_general_instances(pool, max_size, nodes):
    # Unlike the clique family, where every one-axis-only rectangle spans a
    # whole strip, these exercise the packing seed's chains on rectangles
    # of any extent.
    stats = ExactStats()
    for inst in pool:
        opt_exact(inst, SearchBudget(max_size), stats)
    assert stats.nodes == nodes


def pinned_searches():
    """(instance, max_size) of every search whose answer is pinned below:
    the general pools above, the clique reduction's hard family at budget
    4k (the classes of HARD_FAMILY_NODES in test_reduction.py) and the
    unplanted graphs of its gap test at budget 5k."""
    for inst in UNIFORM_POOL:
        yield inst, 12
    for inst in PLANTED_POOL:
        yield inst, 8
    for k, r in [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3)]:
        for plant in (True, False):
            for seed in range(6):
                yield build(gen_mcgraph(k, r, 1, 3, seed=seed, plant=plant)[0]).inst, 4 * k
    for k, r in [(3, 3), (3, 4), (4, 3)]:
        for seed in range(4):
            yield build(gen_mcgraph(k, r, 1, 3, seed=seed, plant=False)[0]).inst, 5 * k


def test_answers_pinned():
    # The node counts pin how much is searched; this pins what is found.
    # A change to the branching order or the bound may move the counts,
    # but must return these very line sets, None for no solution.
    digest = hashlib.sha256()
    count = 0
    for inst, max_size in pinned_searches():
        sol = opt_exact(inst, SearchBudget(max_size))
        lines = None if sol is None else (sorted(sol.hlines), sorted(sol.vlines))
        digest.update(repr(lines).encode())
        count += 1
    assert count == 132
    assert digest.hexdigest() == "382095bb013889bcd9526345b4aa30e28ad3f5c3ba02b28afab3c3c5808028fb"


def test_packing_bound_is_never_above_the_optimum():
    # On the uniform, planted and clique-reduction searches pinned above,
    # over the reduced instance (opt_exact's floor) and the raw one.
    solved = 0
    for inst, max_size in pinned_searches():
        sol = opt_exact(inst, SearchBudget(max_size))
        if sol is not None:
            assert packing_bound(inst.reduced) <= len(sol)
            assert packing_bound(inst) <= len(sol)
            solved += 1
    assert solved == 81


def test_node_limit_carries_the_incumbent_size():
    # An unplanted clique reduction at 5k: the root packing is 4k = 12 and
    # OPT is 14, so the search goes on after its first incumbent (15).
    inst = build(gen_mcgraph(3, 3, 1, 3, seed=0, plant=False)[0]).inst
    assert packing_bound(inst.reduced) == 12
    stats = ExactStats()
    assert len(opt_exact(inst, SearchBudget(15), stats)) == 14
    for limit, incumbent in [(1, None), (20, 15), (stats.nodes - 1, 14)]:
        with pytest.raises(NodeLimitExceeded, match="search nodes") as exc:
            opt_exact(inst, SearchBudget(15, node_limit=limit))
        assert exc.value.incumbent == incumbent


def test_a_pool_missing_a_line_of_the_reduced_instance_raises(monkeypatch):
    # opt_exact numbers lines by candidate index, which holds only if the
    # pool keeps every line of the reduced instance.
    inst = Instance([Rect(0, 1, 0, 1), Rect(10, 11, 10, 11)], hlines=[0, 10], vlines=[])
    dedup = exact.dedup_lines
    monkeypatch.setattr(exact, "dedup_lines", lambda inst: dedup(inst)[1:])
    with pytest.raises(RuntimeError, match="every line"):
        opt_exact(inst, SearchBudget(max_size=2))


def edge_instance(rng, max_lines=6, max_edges=20):
    """Every rectangle stabbed by exactly two candidate lines.

    Lines are vertices: hline a at y = 10a, vline b at x = 10b. Each
    rectangle is an edge, between an hline and a vline, two neighbouring
    hlines or two neighbouring vlines, so a stabbing set is a vertex cover.
    """
    nh, nv = rng.randint(1, max_lines), rng.randint(1, max_lines)
    rects = []
    for _ in range(rng.randint(1, max_edges)):
        a, b = rng.randint(0, nh - 1), rng.randint(0, nv - 1)
        kind = rng.randint(0, 2)
        if kind == 1 and a + 1 < nh:  # hlines a and a+1, between two vlines
            rects.append(Rect(10 * b + 2, 10 * b + 5, 10 * a - 1, 10 * a + 11))
        elif kind == 2 and b + 1 < nv:  # vlines b and b+1, between two hlines
            rects.append(Rect(10 * b - 1, 10 * b + 11, 10 * a + 2, 10 * a + 5))
        else:  # hline a and vline b
            rects.append(Rect(10 * b - 1, 10 * b + 1, 10 * a - 1, 10 * a + 1))
    return Instance(rects, [10 * a for a in range(nh)], [10 * b for b in range(nv)])


def test_agreement_with_brute_force_on_vertex_cover_shapes():
    # Two stabbers per rectangle is where sibling exclusion cuts the most.
    rng = Xoshiro256StarStar(4242)
    for _ in range(1000):
        inst = edge_instance(rng)
        assert all(
            sum(r.y1 <= y <= r.y2 for y in inst.hlines)
            + sum(r.x1 <= x <= r.x2 for x in inst.vlines) == 2
            for r in inst.rects
        )
        n_lines = len(inst.hlines) + len(inst.vlines)
        bf = brute_force(inst, n_lines)
        bb = opt_exact(inst, SearchBudget(max_size=n_lines))
        assert len(bb) == len(bf)
        assert verify(inst, bb) == []
        # one line less: both answer None, and None is a certificate
        assert opt_exact(inst, SearchBudget(max_size=len(bf) - 1)) is None
        assert brute_force(inst, len(bf) - 1) is None


def test_stats_count_every_node_also_at_the_limit():
    rects = [Rect(10 * i, 10 * i + 1, 10 * i, 10 * i + 1) for i in range(4)]
    inst = Instance(rects, hlines=[0, 10, 20, 30], vlines=[])
    stats = ExactStats()
    assert len(opt_exact(inst, SearchBudget(max_size=4), stats)) == 4
    assert stats.nodes == 5  # the root and one line per level
    with pytest.raises(NodeLimitExceeded):
        opt_exact(inst, SearchBudget(max_size=4, node_limit=3), stats)
    assert stats.nodes == 5 + 4  # adds up across calls; the 4th node raised


def test_minimality_certified_by_brute_force():
    rng = Xoshiro256StarStar(99)
    checked = 0
    for _ in range(60):
        inst = rand_instance(rng, max_rects=8, max_lines=8)
        sol = opt_exact(inst, SearchBudget(max_size=5))
        if sol is None or len(sol) == 0:
            continue
        assert brute_force(inst, len(sol) - 1) is None
        checked += 1
    assert checked > 10


def test_dedup_preserves_optimum():
    rng = Xoshiro256StarStar(7)
    for _ in range(40):
        inst = rand_instance(rng, max_rects=8, max_lines=6)
        # duplicate every line at a shifted position stabbing the same rects
        # (same position on the other side is simplest: reuse identical sets)
        doubled = Instance(
            list(inst.rects),
            hlines=list(inst.hlines) + list(inst.hlines),
            vlines=list(inst.vlines) + list(inst.vlines),
        )
        a = opt_exact(inst, SearchBudget(max_size=6))
        b = opt_exact(doubled, SearchBudget(max_size=6))
        assert (a is None) == (b is None)
        if a is not None:
            assert len(a) == len(b)


def test_dedup_lines_drops_useless_and_keeps_smallest():
    inst = Instance(
        [Rect(0, 5, 0, 5)],
        hlines=[-9, 1, 2],  # -9 stabs nothing; 1 and 2 stab the same set
        vlines=[],
    )
    pool = dedup_lines(inst)
    assert [ln.pos for ln, _ in pool] == [1]


def test_node_limit_is_distinct():
    # four spread-out rects, each with its own stabbing line: search must branch
    rects = [Rect(10 * i, 10 * i + 1, 10 * i, 10 * i + 1) for i in range(4)]
    inst = Instance(rects, hlines=[0, 10, 20, 30], vlines=[0, 10, 20, 30])
    with pytest.raises(NodeLimitExceeded):
        opt_exact(inst, SearchBudget(max_size=4, node_limit=1))


def test_budget_rejects_negative_limits():
    with pytest.raises(ValueError, match="node_limit"):
        SearchBudget(3, node_limit=-1)
    with pytest.raises(ValueError, match="max_size"):
        SearchBudget(-1)
    # a zero node limit is a valid limit: the root node already exceeds it
    inst = Instance([Rect(0, 1, 0, 1)], hlines=[0], vlines=[])
    with pytest.raises(NodeLimitExceeded):
        opt_exact(inst, SearchBudget(1, node_limit=0))


def test_unstabbable_rectangle_next_to_one_axis_rectangles():
    # The rectangle at (5, 6) meets no candidate line. The one-axis tables
    # must hold only rectangles their own axis stabs, not everything the
    # other axis misses: the vertical axis has no candidate at all.
    inst = Instance(
        [Rect(0, 1, 0, 1), Rect(5, 6, 5, 6), Rect(3, 4, 10, 11)],
        hlines=[0, 10],
        vlines=[],
    )
    assert opt_exact(inst, SearchBudget(max_size=3)) is None


def test_no_solution_within_budget():
    inst = Instance(
        [Rect(0, 1, 0, 1), Rect(10, 11, 10, 11)],
        hlines=[0, 10],
        vlines=[],
    )
    assert opt_exact(inst, SearchBudget(max_size=1)) is None
