"""Every demo runs to completion against the checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_solve_and_verify.py",
    "02_hardness_roundtrip.py",
    "03_discretize_points.py",
    "04_pipeline_stages.py",
]

# Demo 04 is deterministic and prints every pipeline stage, down to the lines
# 2-SAT decodes per strip, so its output is pinned verbatim.
PIPELINE_STAGES_STDOUT = """\
witness split: k_h=1, k_v=4
preselect: H1=[-11] (kept for the answer), V0=[-21, -7, 1, 11] (candidate pool)

first satisfiable guess:
  vertical strips (x ranges): (-7, 1), V1=[-21, 11]
  horizontal strips (y ranges): none, H1'=[6]
  kernel size fed to 2-SAT: 2 of 16 kept rectangles
  decoded per-strip lines: H2=[], V2=[-3]
solution: 5 lines <= 2*1 + floor(3*4/2) = 8; unstabbed = []
"""


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo == "04_pipeline_stages.py":
        assert proc.stdout == PIPELINE_STAGES_STDOUT
