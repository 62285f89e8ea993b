"""Command-line surface: solve, verify, gen, reduce, extract, bench.

Exit codes: 0 success, 1 negative outcome (no witness, infeasible, invalid
solution, extraction not applicable), 2 usage errors, malformed input files
or arguments, and paths that cannot be read or written. stdout is
machine-readable JSON or CSV; diagnostics go to stderr. File emissions are
byte-deterministic given inputs and seeds; stdout run reports additionally
carry wall-clock time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import approx, exact, formats, generators, reduction
from .core import Instance, Solution, verify


def _sidecar(out: str, name: str) -> str:
    """out.<name> for name "<tag>.<ext>", replacing out's own suffix when it
    is already .<ext>."""
    p = Path(out)
    if p.suffix == Path(name).suffix:
        return str(p.with_suffix(f".{name}"))
    return f"{out}.{name}"


def _report(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def _instance_stats(inst: Instance) -> dict:
    return {"rects": len(inst.rects), "hlines": len(inst.hlines), "vlines": len(inst.vlines)}


def _is_infeasible(inst: Instance) -> bool:
    return bool(verify(inst, Solution(inst.hlines, inst.vlines)))


@dataclasses.dataclass
class _Run:
    """What one solver run proved: its outcome, the solution and the budget
    it was found at (None unless solved), the proven bounds [lower, upper]
    on the optimum (None where nothing is proven), and the engine's
    counters."""

    outcome: str  # solved, no-witness, infeasible or budget-exhausted
    stats: approx.SearchStats | exact.ExactStats
    sol: Optional[Solution] = None
    budget: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None

    @property
    def size(self) -> Optional[int]:
        return None if self.sol is None else len(self.sol)


def _run(inst: Instance, mode: str, bound: int, node_limit: Optional[int] = None) -> _Run:
    """Run one engine on inst, the one driver behind solve and bench.

    mode "exact" searches up to bound lines, "approx" runs at budget bound
    and "approx-min" tries the budgets 0..bound. Infeasibility is decided
    first, and then no engine runs. lower is the packing bound, raised to
    what the search proves: one past bound after a no-witness, the first
    budget solved by approx-min (every budget below it failed), and the
    size of an exact answer, which is the minimum. upper is the answer's
    size, or with budget-exhausted the incumbent's.
    """
    stats = exact.ExactStats() if mode == "exact" else approx.SearchStats()
    if _is_infeasible(inst):
        return _Run("infeasible", stats)
    budget, sol = bound, None
    try:
        if mode == "exact":
            sol = exact.opt_exact(inst, exact.SearchBudget(bound, node_limit), stats)
        elif mode == "approx-min":
            budget, sol = approx.solve_min(inst, bound, stats) or (bound, None)
        else:
            sol = approx.solve_with_budget(inst, bound, stats)
    except exact.NodeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        outcome, proven, upper = "budget-exhausted", 0, exc.incumbent
    else:
        if sol is None:
            outcome, proven, upper = "no-witness", bound + 1, None
        else:
            # a budget solved by approx alone proves nothing past the packing
            proven = {"exact": len(sol), "approx-min": budget}.get(mode, 0)
            outcome, upper = "solved", len(sol)
    lower = max(proven, exact.packing_bound(inst.reduced))
    return _Run(outcome, stats, sol, None if sol is None else budget, lower, upper)


def _solve_mode(args: argparse.Namespace) -> str:
    return "exact" if args.exact else ("approx-min" if args.min else "approx")


# the flags each solve mode reads, its bound first; main refuses the others
_MODE_FLAGS = {"exact": ("max_size", "node_limit"), "approx-min": ("kmax", "min"), "approx": ("k",)}


def _option(dest: str) -> str:
    return "-k" if dest == "k" else "--" + dest.replace("_", "-")


def cmd_solve(args: argparse.Namespace) -> int:
    inst = formats.load_instance(args.instance)
    mode = _solve_mode(args)
    start = time.perf_counter()
    run = _run(inst, mode, getattr(args, _MODE_FLAGS[mode][0]), args.node_limit)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if run.sol is not None and args.out:
        formats.dump_solution(run.sol, args.out)
    _report(
        command="solve",
        mode=mode,
        args={
            "instance": args.instance,
            "k": args.k,
            "kmax": args.kmax,
            "max_size": args.max_size,
            "node_limit": args.node_limit,
            "out": args.out,
        },
        instance=_instance_stats(inst),
        classes=len(inst.stabbers.ranges),
        reduced=_instance_stats(inst.reduced),
        outcome=run.outcome,
        size=run.size,
        budget=run.budget,
        lower=run.lower,
        upper=run.upper,
        wall_ms=round(wall_ms, 3),
        counters=dataclasses.asdict(run.stats),
    )
    return 0 if run.outcome == "solved" else 1


def cmd_verify(args: argparse.Namespace) -> int:
    unstabbed = verify(formats.load_instance(args.instance), formats.load_solution(args.solution))
    if not unstabbed:
        return 0
    for r in unstabbed:
        print(f"unstabbed: [{r.x1},{r.x2}]x[{r.y1},{r.y2}]", file=sys.stderr)
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "planted":
        out = args.out or f"planted_k{args.k}_n{args.n}_s{args.seed}.json"
        inst, witness = generators.gen_planted(args.k, args.n, args.coord_range, args.seed)
        formats.dump_instance(inst, out)
        formats.dump_solution(witness.as_solution(), _sidecar(out, "witness.json"))
    elif args.generator == "uniform":
        out = args.out or f"uniform_n{args.n}_m{args.m_lines}_s{args.seed}.json"
        formats.dump_instance(
            generators.gen_uniform(args.n, args.m_lines, args.coord_range, args.seed), out
        )
    elif args.generator == "mcgraph":
        out = args.out or f"mcgraph_k{args.k}_r{args.r}_s{args.seed}.json"
        num, den = args.prob
        graph, clique = generators.gen_mcgraph(args.k, args.r, num, den, args.seed, args.plant)
        formats.dump_graph(graph, out)
        if clique is not None:
            formats.dump_clique(clique, _sidecar(out, "clique.json"))
    else:  # discretize
        out = args.out or f"{Path(args.points).stem}_stab.json"
        pts = formats.load_points_csv(args.points)
        formats.dump_instance(generators.discretization_to_stabbing(pts), out)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    graph = formats.load_graph(args.graph)
    if graph.has_intra_part_edges():
        print("warning: intra-part edges present; the reduction ignores them", file=sys.stderr)
    red = reduction.build(graph)
    out = args.out or f"{Path(args.graph).stem}_instance.json"
    inst = red.inst
    if args.nondegenerate:
        inst, _ = reduction.make_nondegenerate(inst)
    formats.dump_instance(inst, out)
    formats.dump_strip_table(red, _sidecar(out, "strips.json"), doubled=args.nondegenerate)
    return 0


def _parse_eps(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or "1")


def cmd_extract(args: argparse.Namespace) -> int:
    strips_path = args.strips or _sidecar(args.instance, "strips.json")
    red, doubled = formats.load_reduced(args.instance, strips_path)
    sol = formats.load_solution(args.solution)
    eps_num, eps_den = _parse_eps(args.eps)
    if doubled:
        sol = reduction.map_solution_back(sol, lambda pos: pos // 2)
    try:
        clique = reduction.reverse(red, sol, eps_num, eps_den)
    except reduction.NotApplicable as exc:
        print(f"not applicable: {exc.reason}", file=sys.stderr)
        return 1
    except reduction.MalformedReduction as exc:
        print(f"malformed reduction inputs: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(formats.clique_json(clique), sort_keys=True))
    if args.out:
        formats.dump_clique(clique, args.out)
    return 0


_BENCH_FIELDS = [
    "instance",
    "solver",
    "outcome",
    "k",
    "size",
    "ratio",
    "lower",
    "upper",
    "rects",
    "hlines",
    "vlines",
    *(field.name for field in dataclasses.fields(approx.SearchStats)),
    *(field.name for field in dataclasses.fields(exact.ExactStats)),
    "reduced_rects",
    "reduced_hlines",
    "reduced_vlines",
]


def _bench_one(job: tuple[str, bool, bool, int, int]) -> list[dict]:
    path, run_approx, run_exact, kmax, max_size = job
    name = Path(path).name
    # exact first: the approx row's ratio is over the exact size
    runs = [("exact", "exact", max_size)] * run_exact + [("approx", "approx-min", kmax)] * run_approx
    try:
        inst = formats.load_instance(path)
    except (formats.FormatError, OSError):
        return [{"instance": name, "solver": solver, "outcome": "error"} for solver, _, _ in runs]
    # the sizes both solvers work on; the reduction is kept on inst for them
    reduced = {f"reduced_{key}": n for key, n in _instance_stats(inst.reduced).items()}
    base = {"instance": name, **_instance_stats(inst), **reduced}
    rows = []
    exact_size: Optional[int] = None
    for solver, mode, bound in runs:
        run = _run(inst, mode, bound)
        row = dict(base, solver=solver, outcome=run.outcome, size=run.size, lower=run.lower,
                   upper=run.upper, **dataclasses.asdict(run.stats))
        if mode == "exact":
            exact_size = run.size
        else:
            row["k"] = run.budget
            if run.size is not None and exact_size:
                row["ratio"] = str(Fraction(run.size, exact_size))
        rows.append(row)
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    fixture_dir = Path(args.fixtures)
    if not fixture_dir.is_dir():
        print(f"error: {fixture_dir} is not a directory", file=sys.stderr)
        return 2
    if args.kmax < 0:  # an empty budget ladder would report a false no-witness
        print("error: --kmax must be nonnegative", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    if args.exact and args.max_size < 0:  # checked before any file is read
        print("error: --max-size must be nonnegative", file=sys.stderr)
        return 2
    run_approx = args.approx or not args.exact
    run_exact = args.exact
    paths = sorted(
        str(p)
        for p in fixture_dir.glob("*.json")
        if not any(p.name.endswith(f".{tag}.json") for tag in ("witness", "clique", "strips"))
    )
    jobs = [(p, run_approx, run_exact, args.kmax, args.max_size) for p in paths]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_one, jobs))
    else:
        results = [_bench_one(j) for j in jobs]
    rows = sorted(
        (row for batch in results for row in batch), key=lambda r: (r["instance"], r["solver"])
    )

    lines_out = [",".join(_BENCH_FIELDS)]
    for row in rows:
        lines_out.append(",".join("" if row.get(f) is None else str(row[f]) for f in _BENCH_FIELDS))
    Path(args.out).write_text("\n".join(lines_out) + "\n")

    # sizes-vs-budget summary over solved approx rows
    by_k: dict[int, list[dict]] = {}
    for row in rows:
        if row["solver"] == "approx" and row.get("outcome") == "solved":
            by_k.setdefault(row["k"], []).append(row)
    summary = ["k,count,max_size,size_bound,max_ratio"]
    for k in sorted(by_k):
        group = by_k[k]
        ratios = [Fraction(r["ratio"]) for r in group if "ratio" in r]
        summary.append(
            ",".join(
                [
                    str(k),
                    str(len(group)),
                    str(max(r["size"] for r in group)),
                    str((7 * k) // 4),
                    str(max(ratios)) if ratios else "",
                ]
            )
        )
    Path(_sidecar(args.out, "summary.csv")).write_text("\n".join(summary) + "\n")
    print(json.dumps({"command": "bench", "instances": len(paths), "rows": len(rows)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rectstab", description="Rectangle stabbing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--approx", action="store_true")
    mode.add_argument("--exact", action="store_true")
    p.add_argument("-k", type=int, help="budget for --approx")
    p.add_argument("--min", action="store_true", help="smallest budget up to --kmax")
    p.add_argument("--kmax", type=int)
    p.add_argument("--max-size", type=int, help="size cap for --exact")
    p.add_argument("--node-limit", type=int)
    p.add_argument("--out", help="write the solution JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instances and graphs")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("planted")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--coord-range", type=int, default=50)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g = gsub.add_parser("uniform")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m-lines", type=int, required=True)
    g.add_argument("--coord-range", type=int, default=50)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g = gsub.add_parser("mcgraph")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--prob", type=_parse_eps, default=(1, 2), help="extra edge probability NUM/DEN")
    g.add_argument("--plant", action="store_true")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g = gsub.add_parser("discretize")
    g.add_argument("points", help="colored points CSV (x,y,color)")
    g.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="build the clique-hardness instance of a graph")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--nondegenerate", action="store_true", help="apply the doubling transform")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extract", help="read a clique back out of a reduced-instance solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--eps", required=True, help="rational NUM/DEN")
    p.add_argument("--strips", help="strip-table sidecar (default: derived from instance path)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("bench", help="run solvers across a fixture directory")
    p.add_argument("fixtures")
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--approx", action="store_true")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        mode = _solve_mode(args)
        bound = _MODE_FLAGS[mode][0]
        if getattr(args, bound) is None:
            parser.error(f"{mode} mode needs {_option(bound)}")
        for name in ("k", "min", "kmax", "max_size", "node_limit"):
            value = getattr(args, name)
            if value not in (None, False) and name not in _MODE_FLAGS[mode]:
                parser.error(f"{_option(name)} does not apply to {mode} mode")
            if value is not None and value < 0:
                parser.error(f"{_option(name)} must be nonnegative")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FormatError and UnknownLineError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
