"""Fast self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Runs every workload on a few instances, untraced and traced, and checks
that every metric BENCHMARK.json declares is emitted with its unit; that a
deliberately corrupted answer is counted as failed; that runs repeat
exactly for one seed (outcome digest, SearchStats counters); that the
held-out pool shares no generator seed with the development pool; and that
the benchmark exits with status 2 when the library sources are missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

from run import SRC

sys.path.insert(0, SRC)

import bench  # noqa: E402
import workloads  # noqa: E402
from metrics import LAYER_INTENT  # noqa: E402
from rectstab import approx, core, exact  # noqa: E402
from rectstab.core import Axis, Solution  # noqa: E402

# reduction-exact needs 8 instances to reach its first certificate (seed 8)
SMALL = {"uniform-min": 3, "planted-large": 2, "reduction-exact": 8}


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


@contextmanager
def patched(module, attr: str, replacement):
    saved = getattr(module, attr)
    setattr(module, attr, replacement(saved))
    try:
        yield
    finally:
        setattr(module, attr, saved)


def _solution(lines) -> Solution:
    return Solution(
        hlines=[ln.pos for ln in lines if ln.axis is Axis.HORIZONTAL],
        vlines=[ln.pos for ln in lines if ln.axis is Axis.VERTICAL],
    )


def _without_first_lines(inst, sol: Solution) -> Solution:
    """Drop lines from the front until some rectangle is left unstabbed:
    one line for an irredundant solution, more when lines are redundant."""
    lines = sol.lines()
    while True:
        lines = lines[1:]
        cut = _solution(lines)
        if core.verify(inst, cut):
            return cut


def corrupt_approx(solve):
    def corrupted(inst, k, stats=None):
        sol = solve(inst, k, stats)
        return None if sol is None else _without_first_lines(inst, sol)

    return corrupted


def corrupt_exact(opt):
    def corrupted(inst, budget):
        sol = opt(inst, budget)
        return None if sol is None else _solution(sol.lines()[1:])

    return corrupted


def small_run(name: str, seed: int = 1, traced: bool = False):
    return bench.run(name, seed, 0.0, traced, pool_size=SMALL[name])


def main() -> int:
    config = bench.load_config()
    check(
        sorted(config) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "BENCHMARK.json has exactly the expected top-level keys",
    )
    check(
        sorted(w["name"] for w in config["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json lists exactly the implemented workloads",
    )
    declared = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    check(len(declared) == len(set(declared)), "metric names are unique")
    check(
        sorted(m["name"] for m in config["per_layer"]) == sorted(LAYER_INTENT),
        "every per-layer metric has a recorded intent, and only those",
    )
    setup_bound = next(m["bound"] for m in config["end_to_end"] if m["name"] == "setup_s")
    check(all(m["bound"] <= setup_bound for m in config["end_to_end"]), "setup_s has the largest bound")

    for name in workloads.WORKLOADS:
        values, details, tally = small_run(name)
        metrics = bench.select(values, config["end_to_end"])
        check(
            tally.failed == 0 and all(metrics[m["name"]]["unit"] == m["unit"] for m in config["end_to_end"]),
            f"{name}: every end-to-end metric emitted with its unit, no failures",
        )
        check(
            all(math.isfinite(v["value"]) and v["value"] > 0 for v in metrics.values()),
            f"{name}: every end-to-end metric is finite and above 0",
        )
        traced, tdetails, ttally = small_run(name, traced=True)
        layer = bench.select(traced, config["per_layer"])
        check(
            ttally.failed == 0 and all(layer[m["name"]]["unit"] == m["unit"] for m in config["per_layer"]),
            f"{name}: every per-layer metric emitted with its unit, no failures",
        )
        check(tdetails["digest"] == details["digest"], f"{name}: traced and untraced answers agree")
        again, _, _ = small_run(name, traced=True)
        counters = ["approx.splits", "approx.vertical_guesses", "approx.horizontal_guesses", "approx.twosat_calls"]
        check(
            all(again[c] == traced[c] for c in counters),
            f"{name}: SearchStats counters repeat exactly",
        )
        check(
            traced["approx.vertical_guesses"] == traced["approx.enumerate_vertical_guesses.yields"],
            f"{name}: traced yields match SearchStats guesses",
        )
        _, repeat, _ = small_run(name)
        check(repeat["digest"] == details["digest"], f"{name}: the same seed gives the same answers")

    _, other, _ = small_run("uniform-min", seed=2)
    _, first, _ = small_run("uniform-min", seed=1)
    check(other["digest"] != first["digest"], "another seed presents other inputs")

    with patched(approx, "solve_with_budget", corrupt_approx):
        values, details, tally = small_run("uniform-min")
    check(
        tally.failed == tally.attempted and values["pass_rate"] == 0.0,
        "approximation answers with lines dropped are counted as failed",
    )
    with patched(exact, "opt_exact", corrupt_exact):
        _, details, tally = small_run("reduction-exact")
    check(0 < tally.failed and details["fail_rate"] > 0, "exact answers with a line dropped are counted as failed")

    for name, wl in workloads.WORKLOADS.items():
        dev = {it.seed for it in wl.pool("dev", workloads.POOL_SIZE)}
        held = {it.seed for it in wl.pool("heldout", workloads.POOL_SIZE)}
        check(len(dev) == len(held) == workloads.POOL_SIZE and not dev & held, f"{name}: held-out pool is disjoint")

    bare = os.path.join(bench.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    args = [sys.executable, *config["command"][1:], "--workload", "uniform-min", "--seed", "1"]
    proc = subprocess.run(
        args + ["--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180
    )
    shutil.rmtree(bare)
    check(proc.returncode == 2 and not proc.stdout, "without the library sources the run exits 2 and prints no result")
    print(json.dumps({"selftest": "pass"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
