import copy
import hashlib
import json
from itertools import product

import pytest

from rectstab import core, formats
from rectstab.core import Axis, Instance, Line, Rect, Solution, verify
from rectstab.exact import ExactStats, SearchBudget, opt_exact
from rectstab.generators import gen_mcgraph, gen_uniform
from rectstab.reduction import (
    FIXED_CLASSES_CACHED,
    MCClique,
    MCGraph,
    MalformedReduction,
    NotApplicable,
    ReducedInstance,
    _adjacency_rect,
    _check_pairwise_adjacent,
    _fixed_rects,
    _strip_range,
    build,
    forward,
    make_nondegenerate,
    map_instance_back,
    map_solution_back,
    reverse,
)

from oracles import stabs


def count_families(red):
    """Classify emitted rectangles by shape: force rects have a negative
    coordinate, equality rects live inside one part's block, adjacency
    rects span two different blocks."""
    f = a = e = 0
    for r in red.inst.rects:
        if r.y1 < 0 or r.x1 < 0:
            f += 1
        else:
            xblock = (r.x1 - 2 * red.r - 1) // (2 * red.r)
            yblock = (r.y1 - 2 * red.r - 1) // (2 * red.r)
            if xblock == yblock:
                e += 1
            else:
                a += 1
    return f, a, e


def cross_nonedge_count(g: MCGraph) -> int:
    total = 0
    for u in range(g.k * g.r):
        for v in range(u + 1, g.k * g.r):
            if u // g.r != v // g.r and not g.adjacent(u, v):
                total += 1
    return total


def test_cardinalities_complete_multipartite():
    g, _ = gen_mcgraph(2, 2, 1, 1, seed=0, plant=False)
    red = build(g)
    f, a, e = count_families(red)
    assert (f, a, e) == (80, 0, 16)
    assert len(red.inst.hlines) + len(red.inst.vlines) == 16
    assert len(red.inst.rects) == 96


def test_cardinality_identities_random_graphs():
    for seed in range(12):
        k = 1 + seed % 3
        r = 2 + seed % 3
        g, _ = gen_mcgraph(k, r, 1, 2, seed=seed, plant=bool(seed % 2))
        red = build(g)
        f, a, e = count_families(red)
        assert f == 20 * k * k
        assert e == 8 * k * (r - 1)
        assert a == 2 * cross_nonedge_count(g)
        assert len(red.inst.hlines) == 2 * k * r and len(red.inst.vlines) == 2 * k * r


def test_every_rect_is_stabbable():
    g, _ = gen_mcgraph(2, 3, 1, 3, seed=4, plant=True)
    red = build(g)
    assert verify(red.inst, Solution(red.inst.hlines, red.inst.vlines)) == []


def test_adjacency_offsets_match_blueprint():
    # r=7, non-edges (v^i_1, v^j_4) and (v^i_5, v^j_5) for (i,j)=(1,2):
    # bottom-left corners offset by (1,4) and (5,5) from (2ir+1, 2jr+1)
    k, r = 2, 7
    edges = set()
    for u in range(k * r):
        for v in range(u + 1, k * r):
            if u // r != v // r:
                edges.add((u, v))

    def vid(i, p):
        return (i - 1) * r + (p - 1)

    for p, q in ((1, 4), (5, 5)):
        edges.discard(tuple(sorted((vid(1, p), vid(2, q)))))
    g = MCGraph(k=k, r=r, edges=frozenset(edges))
    red = build(g)
    corners = {
        (rc.x1, rc.y1)
        for rc in red.inst.rects
        if rc.x1 > 0 and (rc.x1 - 2 * r - 1) // (2 * r) != (rc.y1 - 2 * r - 1) // (2 * r)
    }
    i, j = 1, 2
    assert (2 * i * r + 1 + 1, 2 * j * r + 4 + 1) in corners
    assert (2 * i * r + 5 + 1, 2 * j * r + 5 + 1) in corners


def test_forward_k1_example():
    g = MCGraph(k=1, r=2, edges=frozenset())
    red = build(g)
    sol = forward(red, MCClique(chosen={1: 1}))
    assert sol == Solution(hlines=[5, 7], vlines=[5, 7])


def test_forward_one_line_per_strip():
    for seed in range(6):
        k = 1 + seed % 3
        g, clique = gen_mcgraph(k, 3, 1, 2, seed=seed, plant=True)
        red = build(g)
        sol = forward(red, clique)
        assert len(sol) == 4 * k
        for lo, hi in red.vstrips:
            assert sum(1 for x in sol.vlines if lo <= x <= hi) == 1
        for lo, hi in red.hstrips:
            assert sum(1 for y in sol.hlines if lo <= y <= hi) == 1
        assert verify(red.inst, sol) == []


def test_forward_rejects_partial_or_nonclique():
    g = MCGraph(k=2, r=2, edges=frozenset())  # no edges at all
    red = build(g)
    with pytest.raises(ValueError):
        forward(red, MCClique(chosen={1: 1}))  # not total
    with pytest.raises(ValueError):
        forward(red, MCClique(chosen={1: 1, 2: 1}))  # not adjacent


def largest_multicolored_clique(g: MCGraph) -> int:
    """omega: the most pairwise adjacent vertices with at most one per part,
    by brute force over every choice of a vertex or none per part."""
    best = 0
    for combo in product(range(g.r + 1), repeat=g.k):  # 0: no vertex of that part
        ids = [(i - 1) * g.r + (p - 1) for i, p in enumerate(combo, start=1) if p]
        if len(ids) > best and all(
            g.adjacent(ids[a], ids[b]) for a in range(len(ids)) for b in range(a + 1, len(ids))
        ):
            best = len(ids)
    return best


def test_roundtrip_reverse_of_forward():
    for seed in range(10):
        k = 1 + seed % 3
        r = 2 + seed % 3
        g, clique = gen_mcgraph(k, r, 1, 4, seed=100 + seed, plant=True)
        red = build(g)
        sol = forward(red, clique)
        extracted = reverse(red, sol, eps_num=1, eps_den=1)
        assert extracted == clique


def test_reverse_size_bound():
    g, clique = gen_mcgraph(2, 2, 1, 1, seed=9, plant=True)
    red = build(g)
    sol = forward(red, clique)
    # pad with extra candidate lines until |sol| = 5k
    extra = [y for y in red.inst.hlines if y not in sol.hlines]
    padded = Solution(hlines=set(sol.hlines) | set(extra[: 5 * red.k - len(sol)]), vlines=sol.vlines)
    assert len(padded) == 5 * red.k
    with pytest.raises(NotApplicable) as exc:
        reverse(red, padded, eps_num=1, eps_den=100)
    assert "size bound" in exc.value.reason


def test_reverse_requires_stabbing():
    g, clique = gen_mcgraph(2, 2, 1, 1, seed=9, plant=True)
    red = build(g)
    sol = forward(red, clique)
    broken = Solution(hlines=set(list(sol.hlines)[1:]), vlines=sol.vlines)
    with pytest.raises(NotApplicable) as exc:
        reverse(red, broken, eps_num=1, eps_den=1)
    assert "not stabbing" in exc.value.reason


def test_completeness_and_tightness_small():
    # clique exists -> opt is exactly 4k
    for seed in range(4):
        for k, r in ((1, 2), (2, 2), (2, 3)):
            g, clique = gen_mcgraph(k, r, 1, 3, seed=200 + seed, plant=True)
            red = build(g)
            sol = opt_exact(red.inst, SearchBudget(max_size=4 * k))
            assert sol is not None and len(sol) == 4 * k
            extracted = reverse(red, sol, eps_num=1, eps_den=1)
            assert len(extracted) == k
            assert largest_multicolored_clique(g) == k


def test_soundness_small():
    # no multicolored clique -> no stabbing set of size 4k
    found = 0
    seed = 0
    while found < 4:
        g, _ = gen_mcgraph(2, 3, 1, 3, seed=300 + seed, plant=False)
        seed += 1
        if largest_multicolored_clique(g) == g.k:
            continue
        found += 1
        red = build(g)
        assert opt_exact(red.inst, SearchBudget(max_size=4 * red.k)) is None


# Summed ExactStats.nodes of each class's twelve searches below, recorded
# with the packing bound and the stop at the root's packing. A change to
# the bound or the branching order must update these literals and say
# why; a larger one is a regression.
HARD_FAMILY_NODES = {(3, 3): 988, (3, 4): 1370, (4, 3): 2287, (4, 4): 5886, (5, 3): 5448}
# The same for the small classes the reduction-exact benchmark times.
SMALL_CLASS_NODES = {(2, 2): 174, (2, 3): 304, (3, 2): 316}


def certify_class(k, r):
    """Search the P and U graphs of seeds 0-5 of class (k, r) at budget
    4k, check every answer, and return the summed search nodes."""
    outcomes = set()
    stats = ExactStats()
    for plant in (True, False):
        for seed in range(6):
            g, _ = gen_mcgraph(k, r, 1, 3, seed=seed, plant=plant)
            red = build(g)
            sol = opt_exact(red.inst, SearchBudget(max_size=4 * k, node_limit=200_000), stats)
            assert (sol is None) == (largest_multicolored_clique(g) < k)
            if sol is not None:
                assert len(sol) == 4 * k
                assert verify(red.inst, sol) == []
            outcomes.add(sol is None)
    assert outcomes == {True, False}  # both a solution and a certificate
    return stats.nodes


@pytest.mark.parametrize("k, r", sorted(HARD_FAMILY_NODES))
def test_exact_certifies_the_hard_family(k, r):
    # Instances far past the brute-force oracles: 4k lines stab the
    # reduction exactly when the graph has a multicolored clique.
    assert certify_class(k, r) == HARD_FAMILY_NODES[(k, r)]


@pytest.mark.parametrize("k, r", sorted(SMALL_CLASS_NODES))
def test_exact_certifies_the_small_classes(k, r):
    assert certify_class(k, r) == SMALL_CLASS_NODES[(k, r)]


@pytest.mark.parametrize("k, r", [(3, 3), (3, 4), (4, 3)])
def test_gap_beyond_4k(k, r):
    # The reduction's gap, which rules out a (5/4 - eps)-approximation:
    # OPT >= 5k - omega, and a solution of OPT = (5 - eps)k lines gives
    # back a clique of at least eps*k = 5k - OPT vertices.
    for seed in range(4):
        g, _ = gen_mcgraph(k, r, 1, 3, seed=seed, plant=False)
        red = build(g)
        sol = opt_exact(red.inst, SearchBudget(max_size=5 * k))
        assert sol is not None and verify(red.inst, sol) == []
        assert len(sol) >= 5 * k - largest_multicolored_clique(g)
        gap = 5 * k - len(sol)
        ids = sorted(reverse(red, sol, eps_num=gap, eps_den=k).vertex_ids(red.r))
        assert len(ids) >= gap
        assert all(g.adjacent(u, v) for a, u in enumerate(ids) for v in ids[a + 1:])


def test_exact_solution_feeds_reverse():
    g, clique = gen_mcgraph(2, 3, 1, 2, seed=42, plant=True)
    red = build(g)
    sol = opt_exact(red.inst, SearchBudget(max_size=8))
    assert sol is not None and len(sol) == 8
    extracted = reverse(red, sol, eps_num=1, eps_den=1)
    assert len(extracted) == 2
    ids = sorted(extracted.vertex_ids(red.r))
    assert all(g.adjacent(u, v) for a, u in enumerate(ids) for v in ids[a + 1:])


def test_r1_with_nonedge_rejected():
    g = MCGraph(k=2, r=1, edges=frozenset())
    with pytest.raises(ValueError):
        build(g)


# (k, r) classes built, interleaved, by the tests below: k = 1, r = 1,
# and both (2, 3) and (3, 2). Every r = 1 graph is complete, since build
# rejects r = 1 with a cross-part non-edge.
BUILD_CLASSES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (4, 2)]


def class_graph(k, r, seed):
    return gen_mcgraph(k, r, 1, 1 if r == 1 else 2, seed, seed % 2 == 0)[0]


def test_build_output_pinned():
    # Recorded before force and equality rectangles were built once per
    # (k, r): the cache must not change a byte of any reduced instance.
    _fixed_rects.cache_clear()
    digest = hashlib.sha256()
    for seed in range(3):
        for k, r in BUILD_CLASSES:
            digest.update(repr(build(class_graph(k, r, seed))).encode())
    assert digest.hexdigest() == "b98fa6225dbb4d9aec72fde745803ab6914578bff7655b5ada66f0fe4aae071d"
    info = _fixed_rects.cache_info()
    assert (info.misses, info.hits) == (7, 14)  # the later rounds come from the cache


def test_exact_builds_no_line_masks_on_reduced_graphs(monkeypatch):
    """drop_dominated hands the reduced instance of every clique reduction
    the line masks of its last class pass, so opt_exact's line dedup reads
    them and builds none, over the graphs built here and the small classes
    the reduction-exact benchmark times."""
    builds = []
    run = core._range_masks
    monkeypatch.setattr(core, "_range_masks", lambda spans, m: builds.append(m) or run(spans, m))
    graphs = [class_graph(k, r, seed) for seed in range(3) for k, r in BUILD_CLASSES]
    graphs += [
        gen_mcgraph(k, r, 1, 3, seed=seed, plant=plant)[0]
        for k, r in SMALL_CLASS_NODES
        for plant in (True, False)
        for seed in range(6)
    ]
    for g in graphs:
        opt_exact(build(g).inst, SearchBudget(max_size=4 * g.k))
    assert builds == []
    core.line_masks(copy.copy(build(graphs[0]).inst.reduced), Axis.HORIZONTAL)
    assert len(builds) == 1  # the counter sees a build


def test_fixed_rects_shared_within_a_class_only():
    fixed_ids = []
    for k, r in BUILD_CLASSES:
        a, b = (build(class_graph(k, r, seed)).inst.rects for seed in (0, 1))
        nf, ne = 20 * k * k, 8 * k * (r - 1)
        assert all(x is y for x, y in zip(a[:nf], b[:nf]))
        assert all(x is y for x, y in zip(a[len(a) - ne:], b[len(b) - ne:]))
        fixed_ids.append({id(x) for x in (*a[:nf], *a[len(a) - ne:])})
        assert len(fixed_ids[-1]) == nf + ne
    # a and b of every class are still alive, so no id was reused
    assert len(set().union(*fixed_ids)) == sum(map(len, fixed_ids))


def test_fixed_rects_cache_is_bounded():
    assert 4 <= FIXED_CLASSES_CACHED == _fixed_rects.cache_info().maxsize
    for r in range(1, FIXED_CLASSES_CACHED + 4):
        build(MCGraph(k=1, r=r, edges=frozenset()))
    assert _fixed_rects.cache_info().currsize <= FIXED_CLASSES_CACHED


def test_memoized_rect_set_never_hides_a_nonedge(tmp_path):
    g, clique = gen_mcgraph(2, 3, 1, 2, seed=5, plant=True)
    p = clique.chosen[1]
    q = next(q for q in range(1, 4) if not g.adjacent(g.vertex_id(1, p), g.vertex_id(2, q)))
    red = build(g)
    assert len(forward(red, clique)) == 8
    with pytest.raises(ValueError):
        forward(red, MCClique(chosen={1: p, 2: q}))

    # A complete graph of the same class, its clique {1: 1, 2: 1} read
    # back from files in which vertical strip 0 shrinks to the clique's
    # line 7 and an extra line 8 stabs an added adjacency rectangle for
    # that clique's own pair.
    g = MCGraph(k=2, r=3, edges=frozenset((u, v) for u in range(3) for v in range(3, 6)))
    red = build(g)
    clique = MCClique(chosen={1: 1, 2: 1})
    sol = forward(red, clique)
    sol = Solution(hlines=sol.hlines, vlines=sol.vlines | {8})
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    formats.dump_instance(red.inst, ipath)
    formats.dump_strip_table(red, spath)
    strips = json.loads(spath.read_text())
    strips["vstrips"][0] = [7, 7]
    spath.write_text(json.dumps(strips))
    loaded, _ = formats.load_reduced(ipath, spath)
    assert reverse(loaded, sol, eps_num=1, eps_den=2) == clique
    obj = json.loads(ipath.read_text())
    bad = _adjacency_rect(3, 1, 2, 1, 1)
    assert bad == Rect(8, 9, 14, 15)
    obj["rects"].append([bad.x1, bad.x2, bad.y1, bad.y2])
    ipath.write_text(json.dumps(obj))
    tampered, _ = formats.load_reduced(ipath, spath)
    with pytest.raises(MalformedReduction, match="not adjacent"):
        reverse(tampered, sol, eps_num=1, eps_den=2)


def nonedges_by_definition(g: MCGraph) -> list[tuple[int, int, int, int]]:
    """cross_nonedges spelled out through vertex_id and adjacent, in its
    (i, j, p, q) order."""
    out = []
    for i in range(1, g.k + 1):
        for j in range(1, g.k + 1):
            if i == j:
                continue
            for p in range(1, g.r + 1):
                for q in range(1, g.r + 1):
                    if not g.adjacent(g.vertex_id(i, p), g.vertex_id(j, q)):
                        out.append((i, j, p, q))
    return out


def with_intra_part_edges(g: MCGraph) -> MCGraph:
    """g plus every pair of vertices within one part."""
    intra = {(u, v) for u in range(g.k * g.r) for v in range(u + 1, (u // g.r + 1) * g.r)}
    return MCGraph(k=g.k, r=g.r, edges=g.edges | intra)


def complete_multipartite(k: int, r: int) -> MCGraph:
    n = k * r
    return MCGraph(k=k, r=r, edges=frozenset((u, v) for u in range(n) for v in range((u // r + 1) * r, n)))


def test_cross_nonedges_match_their_definition():
    graphs = [class_graph(k, r, seed) for seed in range(3) for k, r in BUILD_CLASSES]
    for k, r in ((1, 1), (1, 4), (2, 1), (3, 1), (2, 3), (3, 2), (4, 3)):
        graphs += [MCGraph(k=k, r=r, edges=frozenset()), complete_multipartite(k, r)]
    graphs += [gen_mcgraph(k, r, 1, 2, seed, seed % 2 == 0)[0] for seed in range(6) for k, r in ((3, 3), (4, 2))]
    graphs += [with_intra_part_edges(g) for g in list(graphs)]
    assert any(g.has_intra_part_edges() for g in graphs)
    for g in graphs:
        assert g.cross_nonedges() == nonedges_by_definition(g)
    assert complete_multipartite(3, 2).cross_nonedges() == []
    assert len(MCGraph(k=3, r=2, edges=frozenset()).cross_nonedges()) == 3 * 2 * 2 * 2


def first_nonadjacent_pair(g: MCGraph, chosen: dict[int, int]):
    """The first part pair (i, j), i < j, whose chosen vertices MCGraph
    calls non-adjacent, or None."""
    parts = sorted(chosen)
    for a, i in enumerate(parts):
        for j in parts[a + 1:]:
            if not g.adjacent(g.vertex_id(i, chosen[i]), g.vertex_id(j, chosen[j])):
                return (i, j)
    return None


def test_adjacency_reads_agree_with_the_graph(tmp_path):
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    for r in (2, 3, 4):
        for seed, plant in ((r, True), (r + 10, False)):
            g, _ = gen_mcgraph(3, r, 1, 2, seed, plant)
            red = build(g)
            doubled = make_nondegenerate(red.inst)
            formats.dump_instance(doubled, ipath)
            formats.dump_strip_table(red, spath, doubled=True)
            loaded, was_doubled = formats.load_reduced(ipath, spath)
            assert was_doubled and set(loaded.inst.rects) == set(red.inst.rects)
            for choice in product(range(1, r + 1), repeat=3):
                chosen = dict(zip((1, 2, 3), choice))
                expected = first_nonadjacent_pair(g, chosen)
                assert _check_pairwise_adjacent(red, chosen) == expected
                assert _check_pairwise_adjacent(loaded, chosen) == expected


def test_adjacency_memo_is_kept_per_r():
    # One instance holding a non-edge rectangle of an r = 3 reduction and
    # one of an r = 4 reduction, read by strip tables of both r, in both
    # orders: a set shared across r would answer the second read wrong.
    for order in ((3, 4), (4, 3)):
        inst = Instance([_adjacency_rect(3, 1, 2, 1, 1), _adjacency_rect(4, 1, 2, 2, 2)], [], [])
        for r in order:
            strips = tuple(_strip_range(r, x) for x in range(4))
            red = ReducedInstance(inst=inst, k=2, r=r, vstrips=strips, hstrips=strips)
            nonedge = {3: {1: 1, 2: 1}, 4: {1: 2, 2: 2}}[r]
            edge = {3: {1: 2, 2: 2}, 4: {1: 1, 2: 1}}[r]
            assert _check_pairwise_adjacent(red, nonedge) == (1, 2)
            assert _check_pairwise_adjacent(red, edge) is None


def test_doubling_formula():
    doubled = make_nondegenerate(Instance([Rect(3, 3, 2, 8)], hlines=[2], vlines=[3]))
    assert doubled.rects == (Rect(6, 7, 4, 17),)
    assert doubled.hlines == (4, 5) and doubled.vlines == (6, 7)
    assert map_solution_back(Solution(hlines=[7], vlines=[6])) == Solution(hlines=[3], vlines=[3])


def test_doubling_no_degenerate_output():
    inst = gen_uniform(n=20, m_lines=10, coord_range=15, seed=8)
    doubled = make_nondegenerate(inst)
    assert all(r.x1 < r.x2 and r.y1 < r.y2 for r in doubled.rects)


def test_instance_inverse_undoes_the_doubling():
    zero_extent = 0
    for seed in range(20):
        inst = gen_uniform(n=15, m_lines=8, coord_range=10, seed=900 + seed)
        back = map_instance_back(make_nondegenerate(inst))
        assert back.rects == inst.rects
        assert back.hlines == inst.hlines and back.vlines == inst.vlines
        zero_extent += sum(r.x1 == r.x2 or r.y1 == r.y2 for r in inst.rects)
    assert zero_extent > 0
    # a degenerate rectangle is not a doubled one: it halves to an empty one
    for rect in (Rect(4, 4, 0, 1), Rect(0, 1, -2, -2)):
        with pytest.raises(ValueError):
            map_instance_back(Instance([rect], [], []))


def test_doubling_solution_equivalence_both_directions():
    from rectstab.rng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(606)
    for trial in range(50):
        inst = gen_uniform(n=rng.randint(1, 12), m_lines=rng.randint(1, 10),
                           coord_range=12, seed=700 + trial)
        doubled = make_nondegenerate(inst)
        # any subset of doubled candidates stabs doubled iff its halving stabs original
        sub = Solution(
            hlines=[y for y in doubled.hlines if rng.chance(1, 2)],
            vlines=[x for x in doubled.vlines if rng.chance(1, 2)],
        )
        mapped = map_solution_back(sub)
        assert (verify(doubled, sub) == []) == (verify(inst, mapped) == [])
        # and per rectangle, stabbing status carries over line by line
        for r, rd in zip(inst.rects, doubled.rects):
            for x in doubled.vlines:
                (back,) = map_solution_back(Solution(vlines=[x])).lines()
                assert stabs(Line(Axis.VERTICAL, x), rd) == stabs(back, r)
            for y in doubled.hlines:
                (back,) = map_solution_back(Solution(hlines=[y])).lines()
                assert stabs(Line(Axis.HORIZONTAL, y), rd) == stabs(back, r)


def test_doubling_overflow_guard():
    big = 2**62
    with pytest.raises(OverflowError):
        make_nondegenerate(Instance([Rect(0, big, 0, 1)], [], []))
