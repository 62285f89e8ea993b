"""Metric values and the intent behind every per-layer metric.

End-to-end values come from untraced sweeps; per-layer values come from
traced sweeps. BENCHMARK.json declares which of these values a run prints
and with which unit.
"""

from __future__ import annotations

import resource
import statistics
from typing import Sequence

from rectstab.approx import SearchStats

from spans import TARGETS, Tracer


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(median, third quartile) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def end_to_end(
    latencies: list[list[float]],
    certify: list[list[float]],
    setup_times: list[float],
    solution_lines: int,
    attempted: int,
    failed: int,
) -> tuple[dict[str, float], dict]:
    """Values from the per-instance medians over the sweeps of one run.

    ``latencies[i]`` and ``certify[i]`` hold one sample per sweep that
    reached instance i. Returns the values and the sample counts behind
    the percentiles.
    """
    med = [statistics.median(x) for x in latencies]
    p50, p75 = quartiles(med)
    values = {
        "instances_per_s": len(med) / sum(med),
        "latency_ms_p50": p50 * 1000.0,
        "latency_ms_p75": p75 * 1000.0,
        "certify_s": sum(statistics.median(x) for x in certify),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_lines": float(solution_lines),
        "pass_rate": 1.0 - failed / attempted,
    }
    samples = {
        "latency_samples": len(med),
        "samples_beyond_p75": sum(1 for x in med if x > p75),
        "samples_per_instance": [min(len(x) for x in latencies), max(len(x) for x in latencies)],
    }
    return values, samples


TIMINGS = ["instances_per_s", "latency_ms_p50", "latency_ms_p75", "certify_s", "setup_s"]
LAYERS = list(dict.fromkeys(name for _, _, name, _, _ in TARGETS))
OUTCOME_COUNTERS = [f"{name}.{extra}" for _, _, name, _, extra in TARGETS if extra] + [
    f"{name}.yields" for _, _, name, kind, _ in TARGETS if kind == "gen"
]


def snapshot(tracer: Tracer) -> Tracer:
    """A frozen copy of the tracer's aggregates."""
    copy = Tracer()
    copy.calls, copy.seconds = dict(tracer.calls), dict(tracer.seconds)
    copy.self_seconds, copy.counts = dict(tracer.self_seconds), dict(tracer.counts)
    return copy


def per_layer(
    tracer: Tracer, setup: Tracer, stats: SearchStats, overhead_s: float, scale: float, setup_scale: float
) -> dict[str, float]:
    """Calls, seconds and self seconds of every traced layer over one traced
    sweep (generators: over the set-up), plus the SearchStats counters, the
    waste ratios and the tracing overhead of the sweep. Seconds are
    multiplied by ``scale`` (``setup_scale`` for the generators) to bring
    them to the nominal reference speed."""
    v: dict[str, float] = {}
    for name in LAYERS:
        src, f = (setup, setup_scale) if name.startswith("generators.") else (tracer, scale)
        v[f"{name}.calls"] = src.calls.get(name, 0)
        v[f"{name}.s"] = src.seconds.get(name, 0.0) * f
        v[f"{name}.self_s"] = src.self_seconds.get(name, 0.0) * f
    for name in OUTCOME_COUNTERS:
        v[name] = tracer.counts.get(name, 0)
    v["approx.splits"] = stats.splits
    v["approx.vertical_guesses"] = stats.vertical_guesses
    v["approx.horizontal_guesses"] = stats.horizontal_guesses
    v["approx.twosat_calls"] = stats.twosat_calls
    assembled = v["approx.assemble_2sat.calls"]
    v["approx.assemble_2sat.useful"] = v["twosat.solve.calls"] / assembled if assembled else 0.0
    guesses = stats.vertical_guesses
    v["approx.vguess.viable"] = v["approx.eliminate_redundant.calls"] / guesses if guesses else 0.0
    v["trace.overhead_s"] = overhead_s
    return v


def add_stats(total: SearchStats, part: SearchStats) -> None:
    total.splits += part.splits
    total.vertical_guesses += part.vertical_guesses
    total.horizontal_guesses += part.horizontal_guesses
    total.twosat_calls += part.twosat_calls


# Which end-to-end metric each per-layer metric should move, and on which
# workload; "none" marks guards that no approximation change should move.
_PLANTED = "planted-large"
_UNIFORM = "uniform-min"
_REDUCTION = "reduction-exact"
_ALL = "all"
LAYER_INTENT: dict[str, tuple[str, str]] = {
    "approx.search.calls": ("none (fixed by the call chains)", f"{_UNIFORM}, {_PLANTED}"),
    "approx.search.s": ("instances_per_s", f"{_UNIFORM}, {_PLANTED}"),
    "approx.search.self_s": ("instances_per_s, latency_ms_p50", f"{_PLANTED}, {_UNIFORM}"),
    "approx.preselect.calls": ("instances_per_s, latency_ms_p75", _PLANTED),
    "approx.preselect.s": ("instances_per_s, latency_ms_p75", _PLANTED),
    "approx.preselect.self_s": ("instances_per_s, latency_ms_p75", _PLANTED),
    "greedy1d.stab_1d.calls": ("instances_per_s, latency_ms_p75", _PLANTED),
    "greedy1d.stab_1d.s": ("instances_per_s, latency_ms_p75", _PLANTED),
    "approx.enumerate_vertical_guesses.yields": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.enumerate_vertical_guesses.s": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.enumerate_horizontal_guesses.yields": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.enumerate_horizontal_guesses.s": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.eliminate_redundant.calls": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.eliminate_redundant.s": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.eliminate_redundant.self_s": ("latency_ms_p50, certify_s", _UNIFORM),
    "approx.assemble_2sat.calls": ("latency_ms_p50", _UNIFORM),
    "approx.assemble_2sat.s": ("latency_ms_p50", _UNIFORM),
    "approx.assemble_2sat.infeasible": ("latency_ms_p50", _UNIFORM),
    "approx.assemble_2sat.useful": ("latency_ms_p50", _UNIFORM),
    "twosat.solve.calls": ("instances_per_s", _PLANTED),
    "twosat.solve.s": ("instances_per_s", _PLANTED),
    "twosat.solve.sat": ("none (one per solution found)", _PLANTED),
    "core.verify.calls": ("instances_per_s", _PLANTED),
    "core.verify.s": ("instances_per_s", _PLANTED),
    "core.transpose.calls": ("instances_per_s", _PLANTED),
    "core.transpose.s": ("instances_per_s", _PLANTED),
    "approx.splits": ("certify_s, latency_ms_p50", _UNIFORM),
    "approx.vertical_guesses": ("certify_s, latency_ms_p50", _UNIFORM),
    "approx.horizontal_guesses": ("certify_s, latency_ms_p50", _UNIFORM),
    "approx.twosat_calls": ("certify_s, latency_ms_p50", _UNIFORM),
    "approx.vguess.viable": ("certify_s, latency_ms_p50", _UNIFORM),
    "exact.opt_exact.calls": ("none (one per instance)", _REDUCTION),
    "exact.opt_exact.s": ("instances_per_s, certify_s", _REDUCTION),
    "exact.opt_exact.self_s": ("instances_per_s, certify_s", _REDUCTION),
    "exact.dedup_lines.calls": ("instances_per_s, certify_s", _REDUCTION),
    "exact.dedup_lines.s": ("instances_per_s, certify_s", _REDUCTION),
    "reduction.build.s": ("none (guard)", _REDUCTION),
    "reduction.forward.s": ("none (guard)", _REDUCTION),
    "reduction.reverse.s": ("none (guard)", _REDUCTION),
    "generators.gen_uniform.s": ("setup_s", _UNIFORM),
    "generators.gen_planted.s": ("setup_s", _PLANTED),
    "generators.gen_mcgraph.s": ("setup_s", _REDUCTION),
    "trace.overhead_s": ("none (cost of tracing itself)", _ALL),
}
