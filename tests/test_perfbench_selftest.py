"""The benchmark's own self-test (perfbench/selftest.py) runs with the
tests, so a library change that breaks a workload, a metric or a traced
layer fails here and not first in a benchmark run. It writes only under
the ignored .bench_out/ and removes the bare checkout it makes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"selftest": "pass"}
