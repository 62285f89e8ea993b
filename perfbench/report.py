"""Run every workload, each in its own process, and print its metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace 0|1] [--seed-set dev|heldout]

Prints one line per metric: workload, name, value and unit, followed by
each workload's outcome digest, failures and (traced) tracing overhead.
Exits 1 when any workload fails a check or does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--seed-set", default="dev")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        config = json.load(fh)
    seconds = args.seconds or str(config["run_seconds"])
    ok = True
    for w in config["workloads"]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", args.seed]
        cmd += ["--seconds", seconds, "--trace", args.trace, "--seed-set", args.seed_set]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{w['name']:16s} {name:44s} {m['value']:>16.6g} {m['unit']}")
        note = f"digest {details['digest'][:16]}  failed {result['failed']}/{result['attempted']}"
        if "tracing_overhead_s" in details:
            note += f"  tracing overhead (s) {details['tracing_overhead_s']}"
        print(f"{w['name']:16s} {note}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
