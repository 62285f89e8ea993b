import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rectstab.cli import main
from rectstab import approx, exact, formats
from rectstab.core import Instance, Rect, Solution, drop_dominated, verify
from rectstab.generators import gen_mcgraph
from rectstab.reduction import build, forward


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def planted_paths(tmp_path):
    inst_path = tmp_path / "inst.json"
    code = main(
        ["gen", "planted", "--k", "2", "--n", "12", "--coord-range", "20",
         "--seed", "7", "--out", str(inst_path)]
    )
    assert code == 0
    return inst_path, tmp_path / "inst.witness.json"


def test_gen_planted_writes_instance_and_witness(planted_paths, capsys):
    inst_path, witness_path = planted_paths
    assert inst_path.exists() and witness_path.exists()
    inst = formats.load_instance(inst_path)
    witness = formats.load_solution(witness_path)
    assert verify(inst, witness) == []


def test_gen_determinism_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "planted", "--k", "3", "--n", "20", "--seed", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    wa = (tmp_path / "a.witness.json").read_bytes()
    wb = (tmp_path / "b.witness.json").read_bytes()
    assert wa == wb


def test_solve_exact_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"rects": [], "hlines": [], "vlines": []}')
    code, out, _ = run(capsys, "solve", str(path), "--exact", "--max-size", "0")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "solved" and report["size"] == 0


def test_solve_exact_reports_node_count(tmp_path, capsys):
    # four spread-out rects, each stabbed by one line per axis: the search
    # needs more than the root node, and the count matches the API's
    rects = [Rect(10 * i, 10 * i + 1, 10 * i, 10 * i + 1) for i in range(4)]
    inst = Instance(rects, hlines=[0, 10, 20, 30], vlines=[0, 10, 20, 30])
    path = tmp_path / "i.json"
    formats.dump_instance(inst, path)
    code, out, _ = run(capsys, "solve", str(path), "--exact", "--max-size", "4")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "solved" and report["size"] == 4
    stats = exact.ExactStats()
    exact.opt_exact(inst, exact.SearchBudget(4), stats)
    assert stats.nodes > 1
    assert report["counters"] == {"nodes": stats.nodes}


def test_solve_approx_planted(planted_paths, tmp_path, capsys):
    inst_path, _ = planted_paths
    sol_path = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", str(inst_path), "--approx", "-k", "2",
                       "--out", str(sol_path))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "solved"
    assert report["size"] <= (7 * 2) // 4
    assert set(report["counters"]) == {
        "splits", "vertical_guesses", "horizontal_guesses", "twosat_calls"
    }
    sol = formats.load_solution(sol_path)
    assert verify(formats.load_instance(inst_path), sol) == []


def test_solve_approx_zero_budget_no_witness(planted_paths, capsys):
    inst_path, _ = planted_paths
    code, out, _ = run(capsys, "solve", str(inst_path), "--approx", "-k", "0")
    assert code == 1
    assert json.loads(out)["outcome"] == "no-witness"


def test_solve_min_mode(planted_paths, capsys):
    inst_path, _ = planted_paths
    code, out, _ = run(capsys, "solve", str(inst_path), "--approx", "--min", "--kmax", "4")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "solved" and report["budget"] <= 2


def test_solve_infeasible_outcome(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"rects": [[0, 1, 0, 1]], "hlines": [], "vlines": []}')
    code, out, _ = run(capsys, "solve", str(path), "--exact", "--max-size", "3")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "infeasible"
    assert report["lower"] is None and report["upper"] is None


# Three rectangles whose stabber sets, {h0, v0}, {h1, v0} and {h0, h1},
# meet pairwise: the packing bound is 1 and the optimum 2, so a
# no-witness at budget 1 proves more than the packing.
TRIANGLE = Instance(
    [Rect(-1, 1, -1, 1), Rect(-1, 1, 9, 11), Rect(5, 6, -1, 11)], hlines=[0, 10], vlines=[0]
)


@pytest.mark.parametrize(
    "argv, outcome, lower, upper",
    [
        (["--approx", "-k", "2"], "solved", 1, 2),  # the packing bound
        (["--approx", "-k", "1"], "no-witness", 2, None),  # above the failed budget
        (["--approx", "--min", "--kmax", "3"], "solved", 2, 2),  # the first budget solved
        (["--approx", "--min", "--kmax", "1"], "no-witness", 2, None),
        (["--exact", "--max-size", "3"], "solved", 2, 2),  # the minimum
        (["--exact", "--max-size", "1"], "no-witness", 2, None),
    ],
    ids=["approx", "approx-no-witness", "approx-min", "approx-min-no-witness", "exact",
         "exact-no-witness"],
)
def test_solve_reports_proven_bounds(argv, outcome, lower, upper, tmp_path, capsys):
    path = tmp_path / "triangle.json"
    formats.dump_instance(TRIANGLE, str(path))
    assert exact.packing_bound(TRIANGLE.reduced) == 1
    code, out, _ = run(capsys, "solve", str(path), *argv)
    report = json.loads(out)
    assert code == (0 if outcome == "solved" else 1)
    assert (report["outcome"], report["lower"], report["upper"]) == (outcome, lower, upper)


def test_solve_budget_exhausted_reports_the_incumbent(tmp_path, capsys):
    # An unplanted clique reduction: the packing bound is 4k = 12, the
    # optimum 14, and the search of the instance as read back has found a
    # 15-line solution by node 200.
    path = tmp_path / "red.json"
    formats.dump_instance(build(gen_mcgraph(3, 3, 1, 3, seed=0, plant=False)[0]).inst, str(path))
    code, out, err = run(capsys, "solve", str(path), "--exact", "--max-size", "15",
                         "--node-limit", "200")
    assert code == 1 and "search nodes" in err
    report = json.loads(out)
    assert (report["outcome"], report["lower"], report["upper"]) == ("budget-exhausted", 12, 15)


def _bench_rows(capsys, fixtures, out, *argv):
    code, _, _ = run(capsys, "bench", str(fixtures), "--out", str(out), *argv)
    assert code == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    return [dict(zip(header, row)) for row in rows]


def test_bench_reports_proven_bounds(tmp_path, capsys):
    """lower and upper mean what solve's report fields mean: the exact row
    proves the optimum 2 from both sides, the approx row's ladder fails at
    budget 1 and so proves 2, above the packing bound 1."""
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    formats.dump_instance(TRIANGLE, str(fixtures / "triangle.json"))
    exact_row, approx_row = sorted(
        _bench_rows(capsys, fixtures, tmp_path / "b.csv", "--approx", "--exact", "--kmax", "3",
                    "--max-size", "3"),
        key=lambda c: c["solver"] != "exact",
    )
    assert (exact_row["lower"], exact_row["upper"]) == ("2", "2")
    assert approx_row["outcome"] == "solved"
    assert (approx_row["lower"], approx_row["upper"]) == ("2", approx_row["size"])


def _solve_report(capsys, path, *argv):
    code, out, _ = run(capsys, "solve", str(path), *argv)
    report = json.loads(out)
    assert code == (0 if report["outcome"] == "solved" else 1)
    return report


@pytest.mark.parametrize("bound", [1, 4])
def test_solve_and_bench_agree(bound, tmp_path, capsys):
    """bench's rows and solve's reports come from one run: on every
    instance they agree on the outcome, the size, the budget found, the
    proven bounds and every counter. At bound 1 the planted and triangle
    instances end in a no-witness."""
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for seed in (1, 2):
        main(["gen", "planted", "--k", "2", "--n", "8", "--seed", str(seed),
              "--out", str(fixtures / f"p{seed}.json")])
    formats.dump_instance(TRIANGLE, str(fixtures / "triangle.json"))
    (fixtures / "inf.json").write_text('{"rects": [[0, 1, 0, 1]], "hlines": [], "vlines": []}')
    cases = [(["--approx", "--kmax", str(bound)], ["--approx", "--min", "--kmax", str(bound)]),
             (["--exact", "--max-size", str(bound)], ["--exact", "--max-size", str(bound)])]
    outcomes = set()
    for bench_argv, solve_argv in cases:
        rows = _bench_rows(capsys, fixtures, tmp_path / "b.csv", *bench_argv)
        assert len(rows) == 4
        for cells in rows:
            report = _solve_report(capsys, fixtures / cells["instance"], *solve_argv)
            outcomes.add(report["outcome"])
            fields = {"outcome": report["outcome"], "size": report["size"],
                      "lower": report["lower"], "upper": report["upper"], **report["counters"]}
            if cells["solver"] == "approx":
                fields["k"] = report["budget"]
            assert {key: cells[key] for key in fields} == {
                key: "" if value is None else str(value) for key, value in fields.items()
            }, cells["instance"]
    assert outcomes == ({"infeasible", "no-witness"} if bound == 1 else {"infeasible", "solved"})


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "solve", str(path), "--exact", "--max-size", "1")
    assert code == 2 and "error" in err


def test_verify_paths(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text('{"rects": [[0, 1, 0, 1]], "hlines": [], "vlines": [0]}')
    good = tmp_path / "good.json"
    good.write_text('{"hlines": [], "vlines": [0]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"hlines": [], "vlines": []}')
    foreign = tmp_path / "foreign.json"
    foreign.write_text('{"hlines": [99], "vlines": [0]}')
    broken = tmp_path / "broken.json"
    broken.write_text("[")

    assert run(capsys, "verify", str(inst), str(good))[0] == 0
    code, _, err = run(capsys, "verify", str(inst), str(bad))
    assert code == 1 and "unstabbed" in err
    assert run(capsys, "verify", str(inst), str(foreign))[0] == 2
    assert run(capsys, "verify", str(inst), str(broken))[0] == 2


def test_reduce_counts_and_sidecar(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert main(["gen", "mcgraph", "--k", "2", "--r", "2", "--prob", "1/1",
                 "--seed", "1", "--out", str(graph)]) == 0
    out = tmp_path / "red.json"
    assert main(["reduce", str(graph), "--out", str(out)]) == 0
    inst = formats.load_instance(out)
    assert len(inst.rects) == 96
    assert len(inst.hlines) + len(inst.vlines) == 16
    red, doubled = formats.load_reduced(out, tmp_path / "red.strips.json")
    assert not doubled and red.k == 2 and red.r == 2


def test_extract_roundtrip(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert main(["gen", "mcgraph", "--k", "2", "--r", "3", "--plant", "--prob", "1/3",
                 "--seed", "4", "--out", str(graph)]) == 0
    planted = json.loads((tmp_path / "g.clique.json").read_text())
    out = tmp_path / "red.json"
    assert main(["reduce", str(graph), "--out", str(out)]) == 0

    g = formats.load_graph(graph)
    red = build(g)
    from rectstab.reduction import MCClique

    clique = MCClique(chosen={i: p for i, p in planted["members"]})
    sol_path = tmp_path / "sol.json"
    formats.dump_solution(forward(red, clique), sol_path)

    code, stdout, _ = run(capsys, "extract", str(out), str(sol_path), "--eps", "1/1")
    assert code == 0
    assert json.loads(stdout) == planted


def test_extract_oversized_solution(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert main(["gen", "mcgraph", "--k", "2", "--r", "2", "--plant", "--prob", "1/1",
                 "--seed", "2", "--out", str(graph)]) == 0
    out = tmp_path / "red.json"
    assert main(["reduce", str(graph), "--out", str(out)]) == 0
    inst = formats.load_instance(out)
    sol_path = tmp_path / "all.json"
    formats.dump_solution(Solution(inst.hlines, inst.vlines), sol_path)
    code, _, err = run(capsys, "extract", str(out), str(sol_path), "--eps", "1/1")
    assert code == 1 and "size bound" in err


def test_reduce_nondegenerate_extract_roundtrip(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert main(["gen", "mcgraph", "--k", "2", "--r", "3", "--plant", "--prob", "1/2",
                 "--seed", "8", "--out", str(graph)]) == 0
    out = tmp_path / "red.json"
    assert main(["reduce", str(graph), "--out", str(out), "--nondegenerate"]) == 0
    inst = formats.load_instance(out)
    assert all(r.x1 < r.x2 and r.y1 < r.y2 for r in inst.rects)

    planted = json.loads((tmp_path / "g.clique.json").read_text())
    from rectstab.reduction import MCClique

    g = formats.load_graph(graph)
    red = build(g)
    clique = MCClique(chosen={i: p for i, p in planted["members"]})
    plain = forward(red, clique)
    # lift the 4k-line solution onto doubled coordinates
    doubled_sol = Solution(
        hlines=[2 * y for y in plain.hlines], vlines=[2 * x for x in plain.vlines]
    )
    sol_path = tmp_path / "sol.json"
    formats.dump_solution(doubled_sol, sol_path)
    code, stdout, _ = run(capsys, "extract", str(out), str(sol_path), "--eps", "1/1")
    assert code == 0
    assert json.loads(stdout) == planted


def test_gen_discretize(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x,y,color\n0,0,0\n1,1,1\n3,0,0\n")
    out = tmp_path / "pts_stab.json"
    assert main(["gen", "discretize", str(csv_path), "--out", str(out)]) == 0
    inst = formats.load_instance(out)
    assert len(inst.rects) == 2  # one per bichromatic pair


def test_bench_empty_dir(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path / "missing")]) == 2
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    assert main(["bench", str(fixtures), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("instance,solver,outcome")


def test_bench_planted_dir(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for seed in range(3):
        main(["gen", "planted", "--k", "2", "--n", "8", "--seed", str(seed),
              "--out", str(fixtures / f"p{seed}.json")])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(fixtures), "--out", str(out), "--approx", "--exact",
                 "--kmax", "4", "--max-size", "4"]) == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    assert len(rows) == 1 + 2 * 3  # two solvers per instance
    k_i, size_i, ratio_i, solver_i, outcome_i, nodes_i = (
        header.index("k"), header.index("size"), header.index("ratio"),
        header.index("solver"), header.index("outcome"), header.index("nodes"),
    )
    from fractions import Fraction

    for row in rows[1:]:
        cells = row.split(",")
        assert cells[outcome_i] == "solved"
        if cells[solver_i] == "approx":
            k = int(cells[k_i])
            assert int(cells[size_i]) <= (7 * k) // 4
            assert Fraction(cells[ratio_i]) <= Fraction(7, 4)
            assert cells[nodes_i] == ""
        else:  # the exact row counts the B&B nodes of its solve
            stats = exact.ExactStats()
            exact.opt_exact(formats.load_instance(fixtures / cells[0]), exact.SearchBudget(4), stats)
            assert int(cells[nodes_i]) == stats.nodes > 0
    summary = (tmp_path / "bench.summary.csv").read_text().splitlines()
    assert summary[0] == "k,count,max_size,size_bound,max_ratio"
    assert len(summary) >= 2

    # byte-determinism of the emitted CSVs
    out2 = tmp_path / "bench2.csv"
    assert main(["bench", str(fixtures), "--out", str(out2), "--approx", "--exact",
                 "--kmax", "4", "--max-size", "4"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_console_script_entrypoint():
    proc = subprocess.run(["rectstab", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_module_invocation():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "rectstab.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0


def test_bench_continues_past_broken_instance(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    main(["gen", "planted", "--k", "2", "--n", "6", "--seed", "1",
          "--out", str(fixtures / "ok.json")])
    (fixtures / "broken.json").write_text("{nope")
    out = tmp_path / "bench.csv"
    assert main(["bench", str(fixtures), "--approx", "--kmax", "3",
                 "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line for line in out.read_text().splitlines()[1:]}
    assert "error" in rows["broken.json"]
    assert "solved" in rows["ok.json"]


@pytest.mark.parametrize("module, solver, flag", [(approx, "solve_min", "--approx"),
                                                  (exact, "opt_exact", "--exact")],
                         ids=["approx", "exact"])
def test_bench_guarantee_failure_propagates(module, solver, flag, tmp_path, monkeypatch):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    main(["gen", "planted", "--k", "2", "--n", "6", "--seed", "1",
          "--out", str(fixtures / "ok.json")])

    def broken(*args):
        raise RuntimeError("returned solution misses a rectangle")

    monkeypatch.setattr(module, solver, broken)
    out = tmp_path / "bench.csv"
    with pytest.raises(RuntimeError):
        main(["bench", str(fixtures), flag, "--out", str(out)])
    assert not out.exists()  # no "error" row stands in for the violated guarantee


def test_bench_bad_max_size_exits_2(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    main(["gen", "planted", "--k", "2", "--n", "6", "--seed", "1",
          "--out", str(fixtures / "ok.json")])
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", str(fixtures), "--exact", "--max-size", "-1",
                       "--out", str(out))
    assert code == 2 and err.startswith("error:")
    assert not out.exists()


def test_bench_bad_max_size_exits_2_with_no_readable_instance(tmp_path, capsys):
    # checked up front: with nothing to solve, no SearchBudget would refuse it
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "broken.json").write_text("{nope")
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", str(fixtures), "--exact", "--max-size", "-1",
                       "--out", str(out))
    assert code == 2 and err == "error: --max-size must be nonnegative\n"
    assert not out.exists()


def test_bench_reports_the_reduced_sizes(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for seed in range(3):
        main(["gen", "uniform", "--n", "12", "--m-lines", "10", "--coord-range", "8",
              "--seed", str(seed), "--out", str(fixtures / f"u{seed}.json")])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(fixtures), "--out", str(out), "--approx", "--exact",
                 "--kmax", "6", "--max-size", "6"]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[-3:] == ["reduced_rects", "reduced_hlines", "reduced_vlines"]
    shrunk = 0
    for row in rows:
        cells = dict(zip(header, row))
        inst = formats.load_instance(fixtures / cells["instance"])
        reduced = drop_dominated(inst)
        sizes = [len(reduced.rects), len(reduced.hlines), len(reduced.vlines)]
        assert [int(cells[f"reduced_{key}"]) for key in ("rects", "hlines", "vlines")] == sizes
        shrunk += sizes != [int(cells["rects"]), int(cells["hlines"]), int(cells["vlines"])]
    assert len(rows) == 6 and shrunk > 0


def test_bench_decides_infeasibility_before_either_solver(tmp_path, capsys):
    """A rectangle no candidate stabs makes both rows read infeasible, as
    solve says, with zero counters: neither solver runs."""
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "inf.json").write_text(
        '{"rects": [[0, 1, 0, 1], [5, 6, 5, 6]], "hlines": [0], "vlines": [0]}'
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", str(fixtures), "--out", str(out), "--approx", "--exact"]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    cells = [dict(zip(header, row)) for row in rows]
    assert [(c["solver"], c["outcome"]) for c in cells] == [
        ("approx", "infeasible"), ("exact", "infeasible")
    ]
    counters = ("splits", "vertical_guesses", "horizontal_guesses", "twosat_calls")
    assert [cells[0][name] for name in counters] == ["0"] * 4
    assert cells[1]["nodes"] == "0"


def test_bench_negative_kmax_exits_2(tmp_path, capsys):
    # an empty budget ladder tries no budget, so its no-witness would be false
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    main(["gen", "planted", "--k", "3", "--n", "6", "--seed", "1",
          "--out", str(fixtures / "ok.json")])
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", str(fixtures), "--kmax", "-1", "--out", str(out))
    assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_solve_min_no_witness_exit(tmp_path, capsys):
    inst = tmp_path / "two.json"
    inst.write_text(
        '{"rects": [[0, 1, 0, 1], [50, 51, 50, 51]], "hlines": [0, 50], "vlines": []}'
    )
    code, out, _ = run(capsys, "solve", str(inst), "--approx", "--min", "--kmax", "1")
    assert code == 1
    assert json.loads(out)["outcome"] == "no-witness"


def test_extract_with_explicit_strips_flag(tmp_path, capsys):
    graph = tmp_path / "g.json"
    main(["gen", "mcgraph", "--k", "2", "--r", "2", "--plant", "--prob", "1/1",
          "--seed", "3", "--out", str(graph)])
    out = tmp_path / "red.json"
    main(["reduce", str(graph), "--out", str(out)])
    moved = tmp_path / "elsewhere.json"
    (tmp_path / "red.strips.json").rename(moved)

    planted = json.loads((tmp_path / "g.clique.json").read_text())
    from rectstab.reduction import MCClique

    red = build(formats.load_graph(graph))
    clique = MCClique(chosen={i: p for i, p in planted["members"]})
    sol_path = tmp_path / "sol.json"
    formats.dump_solution(forward(red, clique), sol_path)
    code, stdout, _ = run(capsys, "extract", str(out), str(sol_path),
                          "--eps", "1/1", "--strips", str(moved))
    assert code == 0 and json.loads(stdout) == planted


def test_extract_foreign_line_solution_not_applicable(tmp_path, capsys):
    graph = tmp_path / "g.json"
    main(["gen", "mcgraph", "--k", "2", "--r", "2", "--plant", "--prob", "1/1",
          "--seed", "3", "--out", str(graph)])
    out = tmp_path / "red.json"
    main(["reduce", str(graph), "--out", str(out)])
    sol_path = tmp_path / "sol.json"
    sol_path.write_text('{"hlines": [99999], "vlines": []}')
    code, _, err = run(capsys, "extract", str(out), str(sol_path), "--eps", "1/1")
    assert code == 1 and "not applicable" in err


def test_solve_negative_budget_is_usage_error(tmp_path):
    inst = tmp_path / "i.json"
    inst.write_text('{"rects": [], "hlines": [], "vlines": []}')
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--approx", "-k", "-2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--approx", "-k", "2", "--node-limit", "5"],
        ["--approx", "-k", "2", "--max-size", "3"],
        ["--approx", "-k", "2", "--kmax", "4"],
        ["--approx", "--min", "--kmax", "4", "-k", "1"],
        ["--approx", "--min", "--kmax", "4", "--max-size", "3"],
        ["--approx", "--min", "--kmax", "4", "--node-limit", "5"],
        ["--exact", "--max-size", "3", "--min"],
        ["--exact", "--max-size", "3", "--kmax", "4"],
        ["--exact", "--max-size", "3", "-k", "1"],
    ],
    ids=["approx-node-limit", "approx-max-size", "approx-kmax", "min-k", "min-max-size",
         "min-node-limit", "exact-min", "exact-kmax", "exact-k"],
)
def test_solve_flag_of_another_mode_is_usage_error(argv, tmp_path, capsys):
    """A flag the chosen mode would ignore is refused, not echoed back in
    a report of a run that never read it."""
    inst = tmp_path / "i.json"
    inst.write_text('{"rects": [], "hlines": [], "vlines": []}')
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), *argv])
    assert exc.value.code == 2
    assert "does not apply" in capsys.readouterr().err


def test_solve_node_limit_reports_error(tmp_path, capsys):
    rects = ", ".join(f"[{10*i}, {10*i+1}, {10*i}, {10*i+1}]" for i in range(4))
    lines = ", ".join(str(10 * i) for i in range(4))
    inst = tmp_path / "i.json"
    inst.write_text(f'{{"rects": [{rects}], "hlines": [{lines}], "vlines": [{lines}]}}')
    code, out, err = run(capsys, "solve", str(inst), "--exact", "--max-size", "4",
                         "--node-limit", "1")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "budget-exhausted"
    assert report["counters"] == {"nodes": 2}  # the limit is checked on entry to a node
    assert "search nodes" in err
    # the four rectangles' stabber sets are disjoint; no incumbent yet
    assert (report["lower"], report["upper"]) == (4, None)


def _main_under_limit(limit_mb, *argv):
    """Run main(argv) in a subprocess under an address-space limit of
    limit_mb MB. Its stdout is the time spent inside main."""
    resource = pytest.importorskip("resource")
    script = (
        "import sys, time\n"
        "from rectstab.cli import main\n"
        "t = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(code)\n"
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 2**20, limit_mb * 2**20))

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=limit_memory,
        timeout=60,
    )


def _exits_2_at_once(*argv):
    """Run main(argv) in a subprocess under a 600 MB address-space limit: it
    must exit 2 with one error line, under 1 s inside main."""
    proc = _main_under_limit(600, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert float(proc.stdout) < 1.0
    return proc.stderr


def test_reduce_refuses_oversized_graph_before_allocating(tmp_path):
    """k(k-1)r^2 = 4e18 cross-part pairs: reduce must exit 2 at once, well
    inside a 600 MB address-space limit, instead of listing the pairs."""
    graph = tmp_path / "g.json"
    graph.write_text('{"k": 2, "r": 1000000000, "edges": []}')
    _exits_2_at_once("reduce", str(graph))


def test_discretize_refuses_spread_points_before_allocating(tmp_path):
    """x spans 0..4e18, so the doubled box has 4e18 odd vertical lines:
    gen discretize must exit 2 at once instead of listing them."""
    points = tmp_path / "pts.csv"
    points.write_text("x,y,color\n0,0,0\n4000000000000000000,1,1\n")
    _exits_2_at_once("gen", "discretize", str(points), "--out", str(tmp_path / "o.json"))


def test_discretize_refuses_too_many_pairs_before_allocating(tmp_path):
    """1,200 points of each of two colors make 1.44M bichromatic pairs, one
    rectangle each: counted from the color counts and refused at once."""
    points = tmp_path / "pts.csv"
    points.write_text("x,y,color\n" + "0,0,0\n" * 1200 + "1,1,1\n" * 1200)
    out = tmp_path / "o.json"
    err = _exits_2_at_once("gen", "discretize", str(points), "--out", str(out))
    assert "1440000" in err and "pairs" in err
    assert not out.exists()


def test_discretize_writes_its_instance_as_it_encodes(tmp_path):
    """500 points of each of two colors make 250,000 bichromatic pairs, one
    rectangle each. The instance file is written while it is encoded, so
    gen discretize fits in a 120 MB address space (it needs 70-80 MB on
    CPython 3.11, x86_64); holding the whole JSON text at once as well
    needs 180-200 MB there."""
    points = tmp_path / "pts.csv"
    points.write_text("x,y,color\n" + "".join(f"{i},0,0\n{i},1,1\n" for i in range(500)))
    out = tmp_path / "o.json"
    proc = _main_under_limit(120, "gen", "discretize", str(points), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert text.endswith("]\n}\n")
    assert len(json.loads(text)["rects"]) == 250_000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--k", "1", "--r", "3", "--prob", "5/2"), "probability"),
        (("--k", "2", "--r", "1", "--plant", "--prob", "5/2"), "probability"),
        (("--k", "2", "--r", "1000"), "too large"),
    ],
    ids=["one-part", "planted", "oversized"],
)
def test_gen_mcgraph_refuses_before_any_draw(argv, message, tmp_path):
    """A probability outside [0, 1] is refused even where no pair is ever
    drawn (one part; r = 1 with the clique planted), and a graph the
    reduction would refuse (k(k-1)r^2 = 2e6) before its pairs are walked:
    exit 2 with a message, and no file."""
    out = tmp_path / "g.json"
    err = _exits_2_at_once("gen", "mcgraph", *argv, "--seed", "1", "--out", str(out))
    assert message in err
    assert not out.exists()


def test_gen_mcgraph_one_part_walks_no_pairs(tmp_path):
    """A one-part graph has no cross-part pair to draw, so a million
    vertices write an edgeless graph at once."""
    out = tmp_path / "g.json"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "rectstab.cli", "gen", "mcgraph", "--k", "1", "--r", "1000000",
         "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    graph = formats.load_graph(out)
    assert (graph.k, graph.r, graph.edges) == (1, 10**6, frozenset())


def test_gen_uniform_coordinate_range_beyond_64_bits_exits_2(tmp_path):
    """randint(-c, c) with c = 2**63 draws from 2**64 + 1 values, more than
    one 64-bit word holds; the draw is refused instead of rejecting forever."""
    _exits_2_at_once("gen", "uniform", "--n", "2", "--m-lines", "2", "--coord-range",
                     str(2**63), "--seed", "1", "--out", str(tmp_path / "u.json"))


def test_solve_report_gives_reduced_sizes(planted_paths, capsys):
    inst_path, _ = planted_paths
    code, out, _ = run(capsys, "solve", str(inst_path), "--approx", "-k", "2")
    assert code == 0
    report = json.loads(out)
    reduced = drop_dominated(formats.load_instance(inst_path))
    assert report["reduced"] == {
        "rects": len(reduced.rects), "hlines": len(reduced.hlines), "vlines": len(reduced.vlines)
    }
    assert report["instance"] == {"rects": 12, "hlines": 1, "vlines": 5}
    assert report["reduced"]["rects"] < 12


def test_solve_report_counts_stabber_classes(tmp_path, capsys):
    """"classes" counts the classes of the input's stabber table:
    duplicates and rectangles with the same candidate ranges share one."""
    path = tmp_path / "inst.json"
    rects = [Rect(0, 1, 0, 1), Rect(0, 1, 0, 1), Rect(0, 0, 1, 1), Rect(5, 6, 1, 3)]
    formats.dump_instance(Instance(rects, hlines=[1], vlines=[0]), str(path))
    code, out, _ = run(capsys, "solve", str(path), "--approx", "-k", "1")
    report = json.loads(out)
    assert code == 0
    assert report["classes"] == 2
    assert report["instance"] == {"rects": 4, "hlines": 1, "vlines": 1}
