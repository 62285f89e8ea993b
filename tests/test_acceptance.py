"""Acceptance suite: every product guarantee at desk scale, one criterion per
test, each printing a single PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time
from bisect import bisect_left, bisect_right
from itertools import combinations, product
from operator import itemgetter

import pytest

from rectstab.approx import solve_with_budget
from rectstab.cli import main as cli_main
from rectstab.core import Solution, verify
from rectstab.exact import SearchBudget, dedup_lines, opt_exact
from rectstab.generators import (
    ColoredPointSet,
    discretization_to_stabbing,
    gen_mcgraph,
    gen_planted,
    gen_uniform,
)
from rectstab.reduction import build, forward, make_nondegenerate, map_solution_back, reverse
from rectstab.rng import Xoshiro256StarStar
from rectstab.twosat import Formula
from rectstab.twosat import solve as solve_2sat

PLANTED_KS = (2, 3, 4, 5)
# 25 instances per k; the first 13 sizes stay <= 25 rects so criterion 3 has
# at least 50 exactly-solvable instances to draw from
N_PATTERN = (8, 10, 12, 14, 15, 16, 18, 20, 21, 22, 23, 24, 25,
             28, 30, 32, 35, 38, 40, 42, 44, 46, 48, 49, 50)


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def planted_pool():
    pool = []
    for k in PLANTED_KS:
        for i, n in enumerate(N_PATTERN):
            inst, witness = gen_planted(k=k, n=n, coord_range=30, seed=1000 * k + i)
            pool.append((k, inst, witness))
    assert len(pool) == 100
    return pool


@pytest.fixture(scope="module")
def solved_pool(planted_pool):
    t0 = time.perf_counter()
    solved = [(k, inst, solve_with_budget(inst, k)) for k, inst, _ in planted_pool]
    return solved, time.perf_counter() - t0


def test_criterion_01_approx_guarantee(solved_pool):
    solved, elapsed = solved_pool
    bad = [
        (k, len(sol) if sol else None)
        for k, inst, sol in solved
        if sol is None or verify(inst, sol) != [] or len(sol) > (7 * k) // 4
    ]
    ok = not bad and elapsed < 120.0
    report(1, ok, f"100 planted instances: verified size <= floor(7k/4) in {elapsed:.1f}s")
    assert not bad
    assert elapsed < 120.0


def test_criterion_02_never_no_witness(solved_pool):
    solved, _ = solved_pool
    misses = sum(1 for _, _, sol in solved if sol is None)
    report(2, misses == 0, f"solve_with_budget returned NoWitness {misses}/100 times on planted suite")
    assert misses == 0


def test_criterion_03_ratio_vs_optimum(planted_pool):
    eligible = [
        (k, inst)
        for k, inst, _ in planted_pool
        if len(inst.rects) <= 25 and len(dedup_lines(inst)) <= 16
    ]
    assert len(eligible) >= 50
    checked = 0
    bad = []
    for k, inst in eligible[:50]:
        exact_sol = opt_exact(inst, SearchBudget(max_size=k))
        opt = len(exact_sol)
        sol = solve_with_budget(inst, opt)
        if sol is None or len(sol) > (7 * opt) // 4:
            bad.append((opt, len(sol) if sol else None))
        checked += 1
    report(3, not bad, f"{checked - len(bad)}/{checked} instances: approx at k=opt within floor(7*opt/4)")
    assert checked == 50 and not bad


def test_criterion_04_greedy_1d_optimality():
    from rectstab.greedy1d import stab_1d

    def oracle(intervals, points):
        for size in range(len(points) + 1):
            for combo in combinations(points, size):
                if all(any(lo <= p <= hi for p in combo) for lo, hi in intervals):
                    return size
        return None

    rng = Xoshiro256StarStar(4001)
    agree = 0
    for _ in range(500):
        intervals = []
        for _ in range(rng.randint(0, 10)):
            lo = rng.randint(-15, 15)
            intervals.append((lo, lo + rng.randint(0, 10)))
        points = sorted({rng.randint(-15, 15) for _ in range(rng.randint(0, 12))})
        expected = oracle(intervals, points)
        # each interval as the range [start, end) of the sorted points it holds
        ranges = [(bisect_left(points, lo), bisect_right(points, hi)) for lo, hi in intervals]
        taken = stab_1d(sorted(ranges, key=itemgetter(1, 0)))
        got = None if taken is None else len(taken)
        agree += got == expected
    report(4, agree == 500, f"1D greedy matched exhaustive minimum {agree}/500")
    assert agree == 500


def test_criterion_05_twosat_correctness():
    rng = Xoshiro256StarStar(5001)
    agree = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        f = Formula(num_vars=n)
        for _ in range(rng.randint(0, 40)):
            f.add_clause(
                (rng.randint(0, n - 1), rng.chance(1, 2)),
                (rng.randint(0, n - 1), rng.chance(1, 2)),
            )
        expected = any(
            all((vals[a[0]] != a[1]) or (vals[b[0]] != b[1]) for a, b in f.clauses)
            for vals in product([False, True], repeat=n)
        )
        got = solve_2sat(f)
        valid = (got is not None) == expected
        if got is not None:
            valid &= all((got[a[0]] != a[1]) or (got[b[0]] != b[1]) for a, b in f.clauses)
        agree += valid
    report(5, agree == 1000, f"2-SAT verdicts matched truth-table oracle {agree}/1000")
    assert agree == 1000


def _planted_graphs():
    fixtures = []
    shapes = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 2), (2, 2)]
    for i, (k, r) in enumerate(shapes * 2):
        g, clique = gen_mcgraph(k, r, 1, 3, seed=6000 + i, plant=True)
        fixtures.append((g, clique))
    return fixtures[:20]


def test_criterion_06_hardness_completeness():
    ok_forward = 0
    ok_opt = 0
    small = 0
    for g, clique in _planted_graphs():
        red = build(g)
        sol = forward(red, clique)
        if len(sol) == 4 * g.k and verify(red.inst, sol) == []:
            ok_forward += 1
        if g.k <= 2 and g.r <= 3:
            small += 1
            exact_sol = opt_exact(red.inst, SearchBudget(max_size=4 * g.k))
            if exact_sol is not None and len(exact_sol) == 4 * g.k:
                ok_opt += 1
    ok = ok_forward == 20 and ok_opt == small
    report(6, ok, f"forward verified 4k lines {ok_forward}/20; opt=4k exactly {ok_opt}/{small} small cases")
    assert ok


def _clique_free_graphs(count: int):
    def has_mc_clique(g):
        for combo in product(range(1, g.r + 1), repeat=g.k):
            ids = [(i - 1) * g.r + (p - 1) for i, p in enumerate(combo, start=1)]
            if all(g.adjacent(u, v) for a, u in enumerate(ids) for v in ids[a + 1:]):
                return True
        return False

    out = []
    seed = 0
    while len(out) < count:
        g, _ = gen_mcgraph(2, 3, 2, 5, seed=7000 + seed, plant=False)
        seed += 1
        if not has_mc_clique(g):
            out.append(g)
    return out


def test_criterion_07_hardness_soundness():
    certified = 0
    for g in _clique_free_graphs(10):
        red = build(g)
        if opt_exact(red.inst, SearchBudget(max_size=4 * g.k)) is None:
            certified += 1
    report(7, certified == 10, f"clique-free graphs with opt > 4k certified {certified}/10")
    assert certified == 10


def test_criterion_08_reverse_extraction():
    round_trips = 0
    fixtures = _planted_graphs()
    for g, clique in fixtures:
        red = build(g)
        if reverse(red, forward(red, clique), 1, 1) == clique:
            round_trips += 1
    # exact solutions of clique-carrying instances also extract
    extracted = 0
    small = [(g, c) for g, c in fixtures if g.k <= 2 and g.r <= 3][:5]
    for g, clique in small:
        red = build(g)
        sol = opt_exact(red.inst, SearchBudget(max_size=4 * g.k))
        got = reverse(red, sol, 1, 1)
        ids = sorted(got.vertex_ids(g.r))
        if len(got) == g.k and all(
            g.adjacent(u, v) for a, u in enumerate(ids) for v in ids[a + 1:]
        ):
            extracted += 1
    ok = round_trips == len(fixtures) and extracted == len(small)
    report(8, ok, f"reverse(forward(C))=C {round_trips}/{len(fixtures)}; exact 4k solutions extract {extracted}/{len(small)}")
    assert ok


def test_criterion_09_construction_cardinalities():
    checked = 0
    bad = 0
    for i in range(12):
        k = 1 + i % 3
        r = 2 + i % 3
        g, _ = gen_mcgraph(k, r, 1, 2, seed=9000 + i, plant=bool(i % 2))
        red = build(g)
        nonedges = sum(
            1
            for u in range(k * r)
            for v in range(u + 1, k * r)
            if u // r != v // r and not g.adjacent(u, v)
        )
        f = sum(1 for rc in red.inst.rects if rc.x1 < 0 or rc.y1 < 0)
        blocks = lambda rc: ((rc.x1 - 2 * r - 1) // (2 * r), (rc.y1 - 2 * r - 1) // (2 * r))
        e = sum(1 for rc in red.inst.rects if rc.x1 > 0 and blocks(rc)[0] == blocks(rc)[1])
        a = len(red.inst.rects) - f - e
        checked += 1
        if not (
            len(red.inst.hlines) + len(red.inst.vlines) == 4 * k * r
            and f == 20 * k * k
            and e == 8 * k * (r - 1)
            and a == 2 * nonedges
        ):
            bad += 1
    report(9, bad == 0, f"cardinality identities exact on {checked - bad}/{checked} graphs")
    assert bad == 0


def test_criterion_10_doubling_equivalence():
    rng = Xoshiro256StarStar(10001)
    agree = 0
    for trial in range(50):
        inst = gen_uniform(
            n=rng.randint(1, 15), m_lines=rng.randint(1, 12), coord_range=15, seed=10100 + trial
        )
        doubled, back = make_nondegenerate(inst)
        sub = Solution(
            hlines=[y for y in doubled.hlines if rng.chance(1, 2)],
            vlines=[x for x in doubled.vlines if rng.chance(1, 2)],
        )
        mapped = map_solution_back(sub, back)
        forward_ok = (verify(doubled, sub) == []) == (verify(inst, mapped) == [])
        # reverse direction: lift an original-candidate subset and compare
        orig = Solution(
            hlines=[y for y in inst.hlines if rng.chance(1, 2)],
            vlines=[x for x in inst.vlines if rng.chance(1, 2)],
        )
        lifted = Solution(
            hlines=[2 * y for y in orig.hlines], vlines=[2 * x for x in orig.vlines]
        )
        reverse_ok = (verify(inst, orig) == []) == (verify(doubled, lifted) == [])
        agree += forward_ok and reverse_ok
    report(10, agree == 50, f"doubling equivalence held in both directions {agree}/50")
    assert agree == 50


def test_criterion_11_discretization():
    def cut_minimum(points):
        xs = sorted({x for x, _, _ in points})
        ys = sorted({y for _, y, _ in points})
        cuts = [("x", (a + b) / 2) for a, b in zip(xs, xs[1:])]
        cuts += [("y", (a + b) / 2) for a, b in zip(ys, ys[1:])]
        pairs = [
            (p, q)
            for i, p in enumerate(points)
            for q in points[i + 1:]
            if p[2] != q[2]
        ]
        for size in range(len(cuts) + 1):
            for combo in combinations(cuts, size):
                if all(
                    any(
                        (axis == "x" and min(p[0], q[0]) < c < max(p[0], q[0]))
                        or (axis == "y" and min(p[1], q[1]) < c < max(p[1], q[1]))
                        for axis, c in combo
                    )
                    for p, q in pairs
                ):
                    return size
        return None

    rng = Xoshiro256StarStar(11001)
    agree = 0
    done = 0
    while done < 30:
        pts = []
        seen = set()
        for _ in range(rng.randint(2, 8)):
            x, y = rng.randint(0, 6), rng.randint(0, 6)
            if (x, y) not in seen:
                seen.add((x, y))
                pts.append((x, y, rng.randint(0, 2)))
        if len(pts) < 2:
            continue
        done += 1
        inst = discretization_to_stabbing(ColoredPointSet(pts))
        sol = opt_exact(inst, SearchBudget(max_size=14))
        got = len(sol) if sol is not None else None
        agree += got == cut_minimum(pts)
    report(11, agree == 30, f"discretization minimum matched separating-cut brute force {agree}/30")
    assert agree == 30


def test_criterion_12_determinism(tmp_path):
    def run_all(base):
        base.mkdir()
        fx = base / "fx"
        fx.mkdir()
        cmds = [
            ["gen", "planted", "--k", "3", "--n", "15", "--seed", "21",
             "--out", str(base / "planted.json")],
            ["gen", "uniform", "--n", "10", "--m-lines", "8", "--seed", "22",
             "--out", str(base / "uniform.json")],
            ["gen", "mcgraph", "--k", "2", "--r", "3", "--plant", "--prob", "1/3",
             "--seed", "23", "--out", str(base / "graph.json")],
            ["reduce", str(base / "graph.json"), "--out", str(base / "red.json")],
            ["reduce", str(base / "graph.json"), "--nondegenerate",
             "--out", str(base / "rednd.json")],
            ["solve", str(base / "planted.json"), "--approx", "-k", "3",
             "--out", str(base / "sol.json")],
            ["solve", str(base / "planted.json"), "--exact", "--max-size", "3",
             "--out", str(base / "sol_exact.json")],
            ["gen", "planted", "--k", "2", "--n", "6", "--seed", "24",
             "--out", str(fx / "a.json")],
            ["gen", "planted", "--k", "2", "--n", "7", "--seed", "25",
             "--out", str(fx / "b.json")],
            ["bench", str(fx), "--approx", "--exact", "--kmax", "3", "--max-size", "4",
             "--out", str(base / "bench.csv")],
        ]
        pts = base / "pts.csv"
        pts.write_text("x,y,color\n0,0,0\n2,1,1\n4,4,0\n")
        cmds.append(["gen", "discretize", str(pts), "--out", str(base / "disc.json")])
        for cmd in cmds:
            assert cli_main(cmd) == 0, cmd

        sol = json.loads((base / "sol.json").read_text())
        cmds.append(
            ["extract", str(base / "red.json"), str(base / "fwd.json"), "--eps", "1/1",
             "--out", str(base / "clique.json")]
        )
        # forward solution for the planted clique, via library helpers
        from rectstab import formats
        from rectstab.reduction import MCClique

        planted = json.loads((base / "graph.clique.json").read_text())
        red = build(formats.load_graph(base / "graph.json"))
        clique = MCClique(chosen={i: p for i, p in planted["members"]})
        formats.dump_solution(forward(red, clique), base / "fwd.json")
        assert cli_main(cmds[-1]) == 0
        return sorted(p for p in base.rglob("*") if p.is_file())

    a_files = run_all(tmp_path / "a")
    b_files = run_all(tmp_path / "b")
    names_a = [str(p.relative_to(tmp_path / "a")) for p in a_files]
    names_b = [str(p.relative_to(tmp_path / "b")) for p in b_files]
    ok = names_a == names_b and all(
        pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a_files, b_files)
    )
    report(12, ok, f"two runs of every command emitted byte-identical files ({len(a_files)} files)")
    assert ok
