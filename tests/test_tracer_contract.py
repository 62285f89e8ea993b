"""The benchmark's tracer wraps library functions by module attribute
(perfbench/spans.py, TARGETS). A refactor that renames, inlines or stops
calling one of them through its module loses that layer's span without an
error; this test turns that loss into a failure."""

import importlib.util
from pathlib import Path

from rectstab import approx, exact, twosat
from rectstab.exact import SearchBudget
from rectstab.generators import gen_mcgraph, gen_planted, gen_uniform
from rectstab.reduction import build

from oracles import heavy_column

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_calls():
    spans = _load_spans()
    for module, attr, *_ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"

    k = 4
    inst, _ = gen_planted(k=k, n=60, coord_range=50, seed=7)
    red = build(gen_mcgraph(2, 2, 1, 3, seed=1, plant=True)[0])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        approx.solve_with_budget(inst, k - 1)
        assert approx.solve_with_budget(inst, k) is not None
        assert exact.opt_exact(red.inst, SearchBudget(4 * red.k)) is not None

    layers = [
        name for module, _, name, *_ in spans.TARGETS if module in (approx, exact, twosat)
    ]
    silent = [name for name in layers if tracer.calls.get(name, 0) == 0]
    assert not silent, f"layers without a recorded call: {silent}"


def test_traced_yields_equal_the_guess_counters():
    """solve_split counts one guess per yield of the enumerators it looks up
    in approx, so under the tracer the yield counts equal SearchStats. The
    heavy column yields three vertical guesses that no horizontal guess
    completes, so counting 2-SAT calls instead of yields would show."""
    spans = _load_spans()
    tracer = spans.Tracer()
    stats = approx.SearchStats()
    with spans.installed(tracer):
        for seed in (3, 4, 10):
            approx.solve_min(gen_uniform(60, 60, 40, seed), 12, stats)
        approx.solve_min(heavy_column(), 4, stats)
    assert stats.horizontal_guesses > 0 and stats.vertical_guesses > stats.twosat_calls
    yields = tracer.counts
    assert yields.get("approx.enumerate_vertical_guesses.yields") == stats.vertical_guesses
    assert yields.get("approx.enumerate_horizontal_guesses.yields") == stats.horizontal_guesses
