"""Every demo runs to completion against the checkout's sources and prints
its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Every demo is deterministic, so its output is pinned verbatim. Demo 04
# prints every pipeline stage, down to the lines 2-SAT decodes per strip;
# demo 01 prints the search counters of one budget.
STDOUT = {
    "01_solve_and_verify.py": """\
instance: 20 rectangles, 5 horizontal / 4 vertical candidates
planted witness uses 3 lines -> optimum is at most 3

exact optimum: 3 lines (h=[12, 20], v=[-10])
approx at k=3: 3 lines <= floor(7*3/4) = 5
  search effort: 2 splits, 1 vertical guesses, 1 horizontal guesses, 1 2-SAT calls
solve_min: first success at budget 2 with 3 lines
ratio vs optimum: 3/3
""",
    "02_hardness_roundtrip.py": """\
graph: 2 parts x 3 vertices, 2 edges
planted clique: {1: 1, 2: 3}

reduced instance: 126 rectangles, 24 candidate lines (= 4kr)
strip table (per axis): [(7, 9), (10, 12), (13, 15), (16, 18)]

forward(clique): 8 lines, stabs everything
exact optimum: 8 lines (= 4k, so the bound is tight)
reverse(optimal stabbing): clique {1: 1, 2: 1}
""",
    "03_discretize_points.py": """\
7 points -> 12 pair rectangles, 4 horizontal and 4 vertical cut candidates
minimum cut count: 3
  horizontal cut at y = 3/2
  horizontal cut at y = 5/2
  vertical cut at x = 3/2
""",
    "04_pipeline_stages.py": """\
witness split: k_h=1, k_v=4
preselect: H1=[-11] (kept for the answer), V0=[-21, -7, 1, 11] (candidate pool)

first satisfiable guess:
  vertical strips (x ranges): (-7, 1), V1=[-21, 11]
  horizontal strips (y ranges): none, H1'=[6]
  kernel size fed to 2-SAT: 2 of 16 kept rectangles
  decoded per-strip lines: H2=[], V2=[-3]
solution: 5 lines <= 2*1 + floor(3*4/2) = 8; unstabbed = []
""",
}


@pytest.mark.parametrize("demo", sorted(STDOUT))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == STDOUT[demo]
