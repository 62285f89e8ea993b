"""In-memory span tracing around the library's layer functions.

The wrappers are installed by rebinding module attributes (for example
``approx.preselect``) from the benchmark's own files, so the library itself
carries no tracing code. Every span records its name, start, end, parent
span and instance id; per-name aggregates (calls, seconds, self seconds)
are kept alongside. Self seconds are a span's duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

from rectstab import approx, exact, generators, reduction, twosat


class Tracer:
    """Span stack plus per-name aggregates; optionally stores every span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._stack: list[list] = []  # [name_id, start, child_seconds, span_index]
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.instance = -1
        self.keep_spans = False
        self._next_index = 0
        # one entry per stored span, kept as flat arrays to stay small
        self._span_index = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_instance = array("i")
        self._span_start = array("d")
        self._span_end = array("d")

    def reset_aggregates(self) -> None:
        self.calls, self.seconds, self.self_seconds, self.counts = {}, {}, {}, {}

    def open(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = self._next_index
        self._next_index += 1
        frame = [nid, perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        nid, start, child, index = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + dur
        self.self_seconds[name] = self.self_seconds.get(name, 0.0) + dur - child
        if self.keep_spans:
            self._span_index.append(index)
            self._span_name.append(nid)
            self._span_parent.append(parent[3] if parent is not None else -1)
            self._span_instance.append(self.instance)
            self._span_start.append(start)
            self._span_end.append(end)

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def stored_spans(self) -> int:
        return len(self._span_name)

    def write(self, path: str) -> None:
        """Write the stored spans as gzipped JSON lines, one span a line:
        [span index, name, instance, parent span index or -1, start, end].
        Span indices count spans in the order they were opened."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self._span_name)):
                fh.write(
                    json.dumps(
                        [
                            self._span_index[i],
                            self.names[self._span_name[i]],
                            self._span_instance[i],
                            self._span_parent[i],
                            round(self._span_start[i], 9),
                            round(self._span_end[i], 9),
                        ]
                    )
                )
                fh.write("\n")


def _wrap_call(tracer: Tracer, name: str, fn: Callable, extra: Optional[str]) -> Callable:
    """One span per call. ``extra`` names an outcome counter: "sat" counts
    results that are not None, "infeasible" counts raised GuessInfeasible."""

    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except approx.GuessInfeasible:
            if extra == "infeasible":
                tracer.count(f"{name}.infeasible")
            raise
        finally:
            tracer.close(frame)
        if extra == "sat" and result is not None:
            tracer.count(f"{name}.sat")
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """One span per ``next()``; the final, exhausting ``next()`` is a span
    too but is not counted as a yield."""

    def traced(*args, **kwargs) -> Iterator:
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.count(f"{name}.yields")
            yield item

    return traced


# (module, attribute, span name, kind, outcome counter). A function is
# traced where its caller looks it up: stab_1d is wrapped in approx, verify
# in approx and reduction. The lower-bound stab_1d calls inside
# exact.opt_exact and the verify inside gen_planted stay in their callers'
# self time.
TARGETS = [
    (approx, "solve_with_budget", "approx.search", "call", None),
    (approx, "preselect", "approx.preselect", "call", None),
    (approx, "stab_1d", "greedy1d.stab_1d", "call", None),
    (approx, "enumerate_vertical_guesses", "approx.enumerate_vertical_guesses", "gen", None),
    (approx, "enumerate_horizontal_guesses", "approx.enumerate_horizontal_guesses", "gen", None),
    (approx, "eliminate_redundant", "approx.eliminate_redundant", "call", None),
    (approx, "assemble_2sat", "approx.assemble_2sat", "call", "infeasible"),
    (approx, "verify", "core.verify", "call", None),
    (approx, "transpose", "core.transpose", "call", None),
    (twosat, "solve", "twosat.solve", "call", "sat"),
    (exact, "opt_exact", "exact.opt_exact", "call", None),
    (exact, "dedup_lines", "exact.dedup_lines", "call", None),
    (reduction, "build", "reduction.build", "call", None),
    (reduction, "forward", "reduction.forward", "call", None),
    (reduction, "reverse", "reduction.reverse", "call", None),
    (reduction, "verify", "core.verify", "call", None),
    (generators, "gen_uniform", "generators.gen_uniform", "call", None),
    (generators, "gen_planted", "generators.gen_planted", "call", None),
    (generators, "gen_mcgraph", "generators.gen_mcgraph", "call", None),
]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind every target to its traced wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, kind, extra in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if kind == "gen":
                setattr(module, attr, _wrap_generator(tracer, name, fn))
            else:
                setattr(module, attr, _wrap_call(tracer, name, fn, extra))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
