import hashlib
import os
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

from rectstab.core import Solution, verify
from rectstab.exact import SearchBudget, opt_exact
from rectstab.generators import (
    ColoredPointSet,
    InseparablePoints,
    discretization_to_stabbing,
    gen_mcgraph,
    gen_planted,
    gen_uniform,
)
from rectstab.rng import Xoshiro256StarStar


def test_planted_single():
    inst, witness = gen_planted(k=1, n=1, coord_range=10, seed=1)
    assert len(witness) == 1
    assert verify(inst, witness.as_solution()) == []


def test_planted_witness_stabs_for_many_seeds():
    for seed in range(30):
        inst, witness = gen_planted(k=3, n=12, coord_range=30, seed=seed)
        assert len(witness) == 3
        assert verify(inst, witness.as_solution()) == []


def test_planted_witness_check_survives_optimized_mode():
    """With assertions stripped (python -O), a planted witness that leaves a
    rectangle unstabbed still makes gen_planted raise."""
    script = textwrap.dedent(
        """
        from rectstab import generators

        if __debug__:
            raise SystemExit("assertions are not stripped")
        generators.verify = lambda inst, sol: list(inst.rects[:1])
        try:
            generators.gen_planted(k=2, n=5, coord_range=10, seed=1)
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
    assert proc.stdout.split() == ["raised"]


def test_planted_instance_carries_no_stabber_table():
    """The witness check runs on a memo-free copy, so a generated instance
    holds no stabber table until something asks it a stabbing question."""
    inst, _ = gen_planted(k=4, n=200, coord_range=60, seed=1)
    assert "stabbers" not in vars(inst)


def test_generated_instances_digest_pinned():
    """A digest over the repr of every generator's output at a few seeds:
    a change to the generators, the RNG, or the construction and repr of
    Rect, Line and Instance that alters any generated instance fails it."""
    digest = hashlib.sha256()
    for s in range(3):
        digest.update(repr(gen_planted(3 + s, 40, 50, s)).encode())
        digest.update(repr(gen_uniform(30, 12, 20, s)).encode())
        digest.update(repr(gen_mcgraph(3, 3, 1, 2, s, plant=s % 2 == 0)).encode())
        rng = Xoshiro256StarStar(s)
        pts = [(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 1)) for _ in range(6)]
        try:
            digest.update(repr(discretization_to_stabbing(ColoredPointSet(pts))).encode())
        except InseparablePoints as e:
            digest.update(repr(e).encode())
    assert digest.hexdigest() == "70acd438d6cbb6241e306c7a8684ba90868869a2537718504bbb98f249671350"


def test_planted_opt_at_most_k():
    for seed in range(10):
        inst, witness = gen_planted(k=2, n=8, coord_range=15, seed=seed)
        sol = opt_exact(inst, SearchBudget(max_size=2))
        assert sol is not None and len(sol) <= 2


def test_planted_deterministic():
    a = gen_planted(k=3, n=20, coord_range=40, seed=7)
    b = gen_planted(k=3, n=20, coord_range=40, seed=7)
    assert a == b


def test_uniform_deterministic_and_feasibility_verdict():
    a = gen_uniform(n=15, m_lines=8, coord_range=25, seed=3)
    b = gen_uniform(n=15, m_lines=8, coord_range=25, seed=3)
    assert a == b
    full = verify(a, Solution(a.hlines, a.vlines))
    naive_feasible = all(
        any(r.y1 <= y <= r.y2 for y in a.hlines) or any(r.x1 <= x <= r.x2 for x in a.vlines)
        for r in a.rects
    )
    assert (full == []) == naive_feasible


def test_uniform_empty():
    inst = gen_uniform(n=0, m_lines=4, coord_range=10, seed=1)
    assert inst.rects == ()


@pytest.mark.parametrize("n, m_lines, coord_range", [(-2, 4, 10), (3, -1, 10), (3, 4, -1)])
def test_uniform_rejects_negative_counts(n, m_lines, coord_range):
    with pytest.raises(ValueError):
        gen_uniform(n=n, m_lines=m_lines, coord_range=coord_range, seed=1)


def test_mcgraph_planted_clique_edges_only():
    g, clique = gen_mcgraph(k=3, r=3, extra_edge_prob_num=0, extra_edge_prob_den=1, seed=5, plant=True)
    assert clique is not None and len(clique) == 3
    assert len(g.edges) == 3  # k*(k-1)/2 clique edges
    ids = sorted(clique.vertex_ids(g.r))
    assert set(g.edges) == {(u, v) for a, u in enumerate(ids) for v in ids[a + 1:]}


def test_mcgraph_planted_clique_is_pairwise_adjacent():
    for seed in range(8):
        g, clique = gen_mcgraph(2, 4, 1, 3, seed, plant=True)
        ids = sorted(clique.vertex_ids(g.r))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                assert g.adjacent(ids[a], ids[b])


def test_mcgraph_prob_one_is_complete_multipartite():
    g, _ = gen_mcgraph(3, 2, 1, 1, seed=2, plant=False)
    expected = sum(
        1
        for u in range(6)
        for v in range(u + 1, 6)
        if u // 2 != v // 2
    )
    assert len(g.edges) == expected


def separating_cut_minimum(points):
    """Brute force: fewest axis cuts separating all bichromatic pairs.

    Cuts sit between consecutive distinct coordinates; a pair is separated
    when some chosen cut lies strictly between its coordinates on either
    axis.
    """
    xs = sorted({x for x, _, _ in points})
    ys = sorted({y for _, y, _ in points})
    xcuts = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    ycuts = [(a + b) / 2 for a, b in zip(ys, ys[1:])]
    pairs = [
        (p, q)
        for i, p in enumerate(points)
        for q in points[i + 1:]
        if p[2] != q[2]
    ]
    cuts = [("x", c) for c in xcuts] + [("y", c) for c in ycuts]
    for size in range(len(cuts) + 1):
        for combo in combinations(cuts, size):
            ok = True
            for p, q in pairs:
                sep = False
                for axis, c in combo:
                    if axis == "x" and min(p[0], q[0]) < c < max(p[0], q[0]):
                        sep = True
                        break
                    if axis == "y" and min(p[1], q[1]) < c < max(p[1], q[1]):
                        sep = True
                        break
                if not sep:
                    ok = False
                    break
            if ok:
                return size
    return None


def test_discretize_same_color_pair():
    inst = discretization_to_stabbing(ColoredPointSet([(0, 0, 1), (4, 4, 1)]))
    assert inst.rects == ()


def test_discretize_two_point_example():
    inst = discretization_to_stabbing(ColoredPointSet([(0, 0, 0), (1, 1, 1)]))
    assert len(inst.rects) == 1
    r = inst.rects[0]
    assert (r.x1, r.x2, r.y1, r.y2) == (1, 1, 1, 1)
    assert inst.vlines == (1,) and inst.hlines == (1,)


def test_discretize_coincident_bichromatic_rejected():
    with pytest.raises(InseparablePoints):
        discretization_to_stabbing(ColoredPointSet([(2, 2, 0), (2, 2, 1)]))


def test_discretize_matches_cut_brute_force():
    rng = Xoshiro256StarStar(404)
    done = 0
    while done < 30:
        n = rng.randint(2, 8)
        pts = []
        seen = set()
        for _ in range(n):
            x, y = rng.randint(0, 6), rng.randint(0, 6)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            pts.append((x, y, rng.randint(0, 2)))
        if len(pts) < 2:
            continue
        inst = discretization_to_stabbing(ColoredPointSet(pts))
        oracle = separating_cut_minimum(pts)
        sol = opt_exact(inst, SearchBudget(max_size=14))
        got = len(sol) if sol is not None else None
        assert got == oracle
        done += 1


def test_randrange_refuses_bounds_beyond_64_bits():
    rng = Xoshiro256StarStar(1)
    assert 0 <= rng.randrange(2**64) < 2**64
    with pytest.raises(ValueError):
        rng.randrange(2**64 + 1)
