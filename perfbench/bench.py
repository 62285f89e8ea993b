"""One benchmark run: set-up, timed sweeps or traced rounds, and the
values they give. The command line is in run.py."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
from time import perf_counter

from rectstab.approx import SearchStats

import workloads
from clock import NOMINAL_SLICE_S, reference_slice, speed_factors
from metrics import TIMINGS, add_stats, end_to_end, per_layer, snapshot
from spans import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
MAX_LISTED_FAILURES = 10


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def digest(records: list) -> str:
    """Hash of the canonical (seed, outcome, k, sorted lines) records."""
    text = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Attempts and failures of one run, with the first failures listed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, seed: int, ans) -> None:
        self.attempted += 1
        if ans.problems:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(f"seed {seed}: {'; '.join(ans.problems)}")


def _fresh_inputs(wl, pool, seed: int, sweep: int) -> list:
    """The seeded presentation of every pool instance for one sweep. The
    inputs are then frozen out of the garbage collector's scans: a user's
    process holds one instance, not a pool of them."""
    presented = [wl.present(it, workloads.presentation_rng(seed, sweep, it.seed)) for it in pool]
    gc.collect()
    gc.freeze()
    return presented


def measure(wl, seed: int, seconds: float, seed_set: str, size: int, tally: Tally):
    """Untraced run: timed set-ups, then sweeps until ``seconds`` pass."""
    setup_raw: list[float] = []
    setup_slices: list[float] = []
    pool = None
    t0 = perf_counter()
    while len(setup_raw) < MIN_SETUPS or perf_counter() - t0 < MIN_SETUP_SECONDS:
        setup_slices.append(reference_slice())
        t = perf_counter()
        built = wl.pool(seed_set, size)
        setup_raw.append(perf_counter() - t)
        pool = pool or built
    setup_slices.append(reference_slice())
    for it in pool:
        wl.add_oracle(it)

    order: list[tuple[int, float, float]] = []  # (instance, latency, certify) per attempt
    slices: list[float] = []
    records: list = []
    lines = 0
    sweep = 0
    start = perf_counter()
    while sweep == 0 or perf_counter() - start < seconds:
        presented = _fresh_inputs(wl, pool, seed, sweep)
        for i, (it, p) in enumerate(zip(pool, presented)):
            if sweep > 0 and perf_counter() - start >= seconds:
                break
            slices.append(reference_slice())
            ans, _stats = workloads.attempt(wl, p)
            tally.add(it.seed, ans)
            order.append((i, ans.latency, ans.certify))
            if sweep == 0:
                records.append(ans.record(it.seed))
                lines += ans.lines
        presented = None  # one presentation alive at a time keeps peak_rss_mb steady
        sweep += 1
    slices.append(reference_slice())

    def summarise(factors: list[float], setup_factors: list[float]):
        lat: list[list[float]] = [[] for _ in pool]
        cert: list[list[float]] = [[] for _ in pool]
        for (i, latency, certify), f in zip(order, factors):
            lat[i].append(latency * f)
            cert[i].append(certify * f)
        setup = [t * f for t, f in zip(setup_raw, setup_factors)]
        return end_to_end(lat, cert, setup, lines, tally.attempted, tally.failed)

    values, details = summarise(speed_factors(slices), speed_factors(setup_slices))
    wall, _ = summarise([1.0] * len(order), [1.0] * len(setup_raw))
    details.update(
        sweeps=sweep,
        setups=len(setup_raw),
        reference_slice_s=statistics.median(slices),
        wall_clock={key: wall[key] for key in TIMINGS},
    )
    return values, details, pool, records


def trace(wl, seed: int, seconds: float, seed_set: str, size: int, tally: Tally):
    """Traced run: every instance of presentation 0 is answered untraced and
    then traced, in rounds until ``seconds`` pass (at least one round)."""
    tracer = Tracer()
    tracer.keep_spans = True
    setup_slices = [reference_slice()]
    with installed(tracer):
        pool = wl.pool(seed_set, size)
    setup_slices.append(reference_slice())
    setup = snapshot(tracer)
    for it in pool:
        wl.add_oracle(it)
    presented = _fresh_inputs(wl, pool, seed, 0)
    rounds = []
    records: list = []
    start = perf_counter()
    while True:
        t_round = perf_counter()
        tracer.reset_aggregates()
        total = SearchStats()
        slices = []
        extra = []  # traced minus untraced latency, per instance
        for it, p in zip(pool, presented):
            slices.append(reference_slice())
            plain, _stats = workloads.attempt(wl, p)
            tally.add(it.seed, plain)
            tracer.instance = it.seed
            with installed(tracer):
                ans, stats = workloads.attempt(wl, p)
            tally.add(it.seed, ans)
            extra.append(ans.latency - plain.latency)
            add_stats(total, stats)
            if not rounds:
                records.append(ans.record(it.seed))
        slices.append(reference_slice())
        tracer.keep_spans = False
        overhead = sum(x * f for x, f in zip(extra, speed_factors(slices)))
        scale = NOMINAL_SLICE_S / statistics.median(slices)
        rounds.append(per_layer(tracer, setup, total, overhead, scale, speed_factors(setup_slices)[0]))
        if perf_counter() - start + (perf_counter() - t_round) > seconds:
            break
    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-{seed_set}-seed{seed}.jsonl.gz")
    tracer.write(spans_path)
    details = {
        "rounds": len(rounds),
        "spans": tracer.stored_spans,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "tracing_overhead_s": [r["trace.overhead_s"] for r in rounds],
    }
    return values, details, pool, records


def run(workload: str, seed: int, seconds: float, traced: bool, seed_set: str = "dev", pool_size=None):
    """One benchmark run; returns (values, details, tally)."""
    wl = workloads.WORKLOADS[workload]
    size = pool_size or workloads.POOL_SIZE
    tally = Tally()
    how = trace if traced else measure
    values, details, pool, records = how(wl, seed, seconds, seed_set, size, tally)
    details.update(
        workload=workload,
        seed=seed,
        seed_set=seed_set,
        trace=int(traced),
        pool_seeds=[it.seed for it in pool],
        digest=digest(records),
        attempted=tally.attempted,
        failed=tally.failed,
        fail_rate=tally.failed / tally.attempted,
        failures=tally.failures,
        environment=environment(),
    )
    return values, details, tally


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, by name and unit; an undeclared value stays out."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"declared metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
