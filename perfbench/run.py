"""Seeded benchmark of the rectstab solvers.

    python3 perfbench/run.py --workload uniform-min --seed 1 --seconds 30 --trace 0 [--seed-set heldout]

One process, one caller, closed loop: every instance is answered through
the library's public functions, timed, and checked independently before
the next one starts. The instance pool is set up several times and timed
(``setup_s``); then sweeps over the pool repeat, each sweep with a fresh
seeded presentation of every instance, until ``--seconds`` have passed
(at least one full sweep). Latencies are per-instance medians over the
sweeps that reached the instance. Every time is reported at the nominal
speed of a reference slice timed next to it (see clock.py); the details
line keeps the wall-clock values.

With ``--trace 1`` the run instead answers every instance of one
presentation untraced and then traced, in rounds, reports the per-layer
metrics of the traced answers (medians over the rounds) and the tracing
overhead (traced minus untraced time), and writes the spans of the first
round to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, outcome digest, failures, sample counts).
Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "rectstab", "__init__.py")):
        print(f"benchmark: no rectstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checkout's library, ahead of any installed copy
    import bench
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="presentation seed of the run")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--seed-set",
        choices=sorted(workloads.POOL_START),
        default="dev",
        help="instance pool: dev, or heldout to confirm a claim on generator seeds not tuned on",
    )
    args = parser.parse_args(argv)

    config = bench.load_config()
    values, details, tally = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.seed_set)
    metrics = bench.select(values, config["per_layer" if args.trace else "end_to_end"])
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-{args.seed_set}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(bench.OUT_DIR, name), "w") as fh:
        json.dump({"details": details, "metrics": metrics, "all_values": values}, fh, indent=1)
    print(json.dumps({"details": details}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
