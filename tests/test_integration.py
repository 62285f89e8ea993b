"""Cross-module checks: the approximation against the exact oracle on random
instances, the pipeline on reduction geometry, parallel bench output, and
the package's public names."""

import rectstab
from rectstab.approx import SearchStats, solve_with_budget
from rectstab.cli import main as cli_main
from rectstab.core import Instance, Rect, transpose, verify
from rectstab.exact import SearchBudget, opt_exact
from rectstab.generators import gen_mcgraph
from rectstab.reduction import build
from rectstab.rng import Xoshiro256StarStar

from test_exact import rand_instance


def test_approx_on_reduction_instances():
    # degenerate force rectangles and tight strip geometry end to end
    for k, r, seed in ((1, 2, 3), (1, 3, 4), (2, 2, 5)):
        g, _ = gen_mcgraph(k, r, 1, 1, seed=seed, plant=True)
        red = build(g)
        sol = solve_with_budget(red.inst, 4 * k, SearchStats())
        assert sol is not None
        assert verify(red.inst, sol) == []
        assert len(sol) <= (7 * 4 * k) // 4
        assert len(sol) >= 4 * k  # cannot beat the proven optimum


def test_single_axis_instances():
    inst_h = Instance(
        [Rect(0, 5, i * 10, i * 10 + 1) for i in range(3)],
        hlines=[0, 10, 20],
        vlines=[],
    )
    for inst in (inst_h, transpose(inst_h)):
        sol = solve_with_budget(inst, 3)
        assert sol is not None and len(sol) == 3 and verify(inst, sol) == []
        assert solve_with_budget(inst, 2) is None


def test_completeness_and_ratio_campaign():
    rng = Xoshiro256StarStar(777)
    feasible = 0
    for _ in range(400):
        inst = rand_instance(rng)
        exact_sol = opt_exact(inst, SearchBudget(max_size=6))
        if exact_sol is None:
            continue
        feasible += 1
        opt = len(exact_sol)
        sol = solve_with_budget(inst, opt)
        assert sol is not None, "approximation missed a witness the oracle found"
        assert verify(inst, sol) == []
        assert len(sol) <= (7 * opt) // 4
    assert feasible > 80


def test_no_witness_certificates_against_oracle():
    rng = Xoshiro256StarStar(31415)
    certified = 0
    for _ in range(250):
        inst = rand_instance(rng, max_rects=10, max_lines=9)
        for k in (1, 2):
            if solve_with_budget(inst, k) is None:
                assert opt_exact(inst, SearchBudget(max_size=k)) is None
                certified += 1
    assert certified > 100


def test_bench_jobs_parallel_matches_serial(tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for seed in range(4):
        cli_main(["gen", "planted", "--k", "2", "--n", "6", "--seed", str(seed),
                  "--out", str(fixtures / f"p{seed}.json")])
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli_main(["bench", str(fixtures), "--approx", "--exact", "--kmax", "3",
                     "--max-size", "3", "--out", str(serial)]) == 0
    assert cli_main(["bench", str(fixtures), "--approx", "--exact", "--kmax", "3",
                     "--max-size", "3", "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_every_public_name_resolves_once():
    names = rectstab.__all__
    assert len(names) == len(set(names)), "duplicate names in rectstab.__all__"
    missing = [name for name in names if not hasattr(rectstab, name)]
    assert not missing, f"stale names in rectstab.__all__: {missing}"
