"""The benchmark's workloads: instance pools, seeded presentations, the
timed call chain of each instance, and independent checks of every answer.

Each workload has a pinned pool of 40 generator seeds, a development pool
and a disjoint held-out pool with the same mix of parameters. The run seed
does not pick the pool; it picks a presentation of every rectangle
instance of the pool: a translation of all coordinates plus a shuffle of
the rectangle order. A presentation changes the input bytes but neither
the optimum nor, beyond tie-breaks, the solver's work. Pools are pinned
because the solve time of random 40-instance blocks varies up to fivefold
from block to block, which would swamp any change a later optimisation
makes. Clique graphs are presented as generated (see ReductionExact).

The generators receive only the generator seed; everything the run seed
changes is applied afterwards by this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Any, Optional

from rectstab import approx, core, exact, generators, reduction
from rectstab.core import Instance, Rect, Solution
from rectstab.reduction import MCClique, MCGraph

POOL_SIZE = 40
# First generator seed of each pool. 10**6 is a multiple of 4 and of 10, so
# the held-out pool repeats the development pool's mix of planted k, of
# (k, r) classes and of planted/unplanted blocks.
POOL_START = {"dev": 1, "heldout": 1_000_001}
SHIFT = 10**6  # translation range; keeps every coordinate below 2**30


@dataclass
class Item:
    """One pool instance: its generator seed, generated input, and the
    facts the checks need that are computed outside the timed region."""

    seed: int
    data: Any
    oracle: Any = None


@dataclass
class Answer:
    """The outcome of one instance's timed call chain."""

    latency: float = 0.0
    certify: float = 0.0
    outcome: str = "error"  # "solved", "no-witness" or "error"
    k: int = 0
    solution: Optional[Solution] = None
    extra: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, seed: int) -> list:
        sol = self.solution
        h = sorted(sol.hlines) if sol is not None else []
        v = sorted(sol.vlines) if sol is not None else []
        return [seed, self.outcome, self.k, h, v]

    @property
    def lines(self) -> int:
        return len(self.solution) if self.solution is not None else 0


def presentation_rng(run_seed: int, sweep: int, item_seed: int) -> random.Random:
    return random.Random(f"{run_seed}/{sweep}/{item_seed}")


def _present_rects(inst: Instance, rng: random.Random) -> Instance:
    dx = rng.randint(-SHIFT, SHIFT)
    dy = rng.randint(-SHIFT, SHIFT)
    rects = [Rect(r.x1 + dx, r.x2 + dx, r.y1 + dy, r.y2 + dy) for r in inst.rects]
    rng.shuffle(rects)
    return Instance(
        rects=rects,
        hlines=[y + dy for y in inst.hlines],
        vlines=[x + dx for x in inst.vlines],
    )


def _unstabbed(inst: Instance, sol: Solution) -> list[str]:
    try:
        missed = core.verify(inst, sol)
    except core.UnknownLineError as exc:
        return [str(exc)]
    return [f"{len(missed)} rectangles unstabbed"] if missed else []


def _check_approx(inst: Instance, sol: Solution, k: int) -> list[str]:
    problems = _unstabbed(inst, sol)
    if len(sol) > (7 * k) // 4:
        problems.append(f"{len(sol)} lines exceed floor(7k/4) at k={k}")
    return problems


def greedy_cover_size(inst: Instance) -> int:
    """Size of a greedy stabbing set (largest new coverage first): an upper
    bound on the optimum computed without the library's solvers."""
    masks = []
    for axis_lines, lo_hi in ((inst.hlines, lambda r: (r.y1, r.y2)), (inst.vlines, lambda r: (r.x1, r.x2))):
        for pos in axis_lines:
            m = 0
            for i, r in enumerate(inst.rects):
                lo, hi = lo_hi(r)
                if lo <= pos <= hi:
                    m |= 1 << i
            masks.append(m)
    left = (1 << len(inst.rects)) - 1
    size = 0
    while left:
        best = max(masks, key=lambda m: (m & left).bit_count())
        if not best & left:
            raise ValueError("instance is not stabbable")
        left &= ~best
        size += 1
    return size


class UniformMin:
    """gen_uniform(60, 60, 40, seed) over the first 40 seeds whose every
    rectangle some candidate stabs, solved by the solve_min budget ladder
    with one timed solve_with_budget call per budget."""

    name = "uniform-min"

    def pool(self, seed_set: str, size: int) -> list[Item]:
        items = []
        seed = POOL_START[seed_set]
        while len(items) < size:
            inst = generators.gen_uniform(60, 60, 40, seed)
            if not core.verify(inst, Solution(inst.hlines, inst.vlines)):
                items.append(Item(seed, inst))
            seed += 1
        return items

    def add_oracle(self, item: Item) -> None:
        item.oracle = greedy_cover_size(item.data)

    def present(self, item: Item, rng: random.Random) -> tuple[Instance, int]:
        return _present_rects(item.data, rng), item.oracle

    def solve(self, presented: tuple[Instance, int], stats: approx.SearchStats, ans: Answer) -> None:
        inst, upper = presented
        k = 0
        while True:
            t = perf_counter()
            sol = approx.solve_with_budget(inst, k, stats)
            dt = perf_counter() - t
            ans.latency += dt
            if sol is not None:
                ans.outcome, ans.k, ans.solution = "solved", k, sol
                return
            ans.certify += dt
            if k >= upper:
                ans.outcome, ans.k = "no-witness", k
                return
            k += 1

    def check(self, presented: tuple[Instance, int], ans: Answer) -> list[str]:
        inst, upper = presented
        if ans.solution is None:
            return [f"no-witness at k={ans.k}, but a greedy stabbing set of {upper} lines exists"]
        return _check_approx(inst, ans.solution, ans.k)


class PlantedLarge:
    """gen_planted(4 + seed % 4, 2500, 10**6, seed) for 40 seeds, solved by
    solve_with_budget at the planted k - 1 (the certificate path whenever
    it answers no-witness) and then at the planted k."""

    name = "planted-large"

    def pool(self, seed_set: str, size: int) -> list[Item]:
        start = POOL_START[seed_set]
        items = []
        for seed in range(start, start + size):
            inst, _witness = generators.gen_planted(4 + seed % 4, 2500, 10**6, seed)
            items.append(Item(seed, inst, 4 + seed % 4))
        return items

    def add_oracle(self, item: Item) -> None:
        pass  # the planted k is known from the seed

    def present(self, item: Item, rng: random.Random) -> tuple[Instance, int]:
        return _present_rects(item.data, rng), item.oracle

    def solve(self, presented: tuple[Instance, int], stats: approx.SearchStats, ans: Answer) -> None:
        inst, k = presented
        t = perf_counter()
        below = approx.solve_with_budget(inst, k - 1, stats)
        dt = perf_counter() - t
        ans.latency += dt
        if below is None:
            ans.certify += dt
        ans.extra["below"] = below
        t = perf_counter()
        sol = approx.solve_with_budget(inst, k, stats)
        ans.latency += perf_counter() - t
        ans.k, ans.solution = k, sol
        ans.outcome = "solved" if sol is not None else "no-witness"

    def check(self, presented: tuple[Instance, int], ans: Answer) -> list[str]:
        inst, k = presented
        if ans.solution is None:
            return [f"no-witness at the planted k={k}"]
        problems = _check_approx(inst, ans.solution, k)
        below = ans.extra.get("below")
        if below is not None:
            problems += _check_approx(inst, below, k - 1)
        return problems


# (k, r) by seed % 5; k = 3 with r >= 3 is left out because one exact solve
# of it takes 15 s (r = 3) to 160 s (r = 4).
REDUCTION_CLASSES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 2)]


def has_multicolored_clique(g: MCGraph) -> bool:
    """Brute force over one vertex per part; independent of the reduction."""
    for choice in product(range(g.r), repeat=g.k):
        ids = [i * g.r + p for i, p in enumerate(choice)]
        if all((ids[a], ids[b]) in g.edges for a in range(g.k) for b in range(a + 1, g.k)):
            return True
    return False


class ReductionExact:
    """gen_mcgraph(k, r, 1, 3, seed, plant) for 40 seeds, (k, r) cycling by
    seed % 5 and plant alternating in blocks of five; timed chain: build,
    opt_exact with budget 4k, reverse (eps = 1) when a solution is found,
    forward when a clique was planted."""

    name = "reduction-exact"

    def pool(self, seed_set: str, size: int) -> list[Item]:
        start = POOL_START[seed_set]
        items = []
        for seed in range(start, start + size):
            k, r = REDUCTION_CLASSES[seed % 5]
            plant = ((seed - 1) // 5) % 2 == 0
            items.append(Item(seed, generators.gen_mcgraph(k, r, 1, 3, seed, plant)))
        return items

    def add_oracle(self, item: Item) -> None:
        item.oracle = has_multicolored_clique(item.data[0])

    def present(self, item: Item, rng: random.Random) -> tuple[MCGraph, Optional[MCClique], bool]:
        # Graphs are presented as generated. Relabelling the vertices changes
        # the branch-and-bound's time on one graph by up to 200x (measured
        # over 40 relabellings of each pool graph), which no number of
        # sweeps in a run averages out.
        g, clique = item.data
        return g, clique, item.oracle

    def solve(self, presented, stats: approx.SearchStats, ans: Answer) -> None:
        g, planted, _ = presented
        t0 = perf_counter()
        red = reduction.build(g)
        t = perf_counter()
        sol = exact.opt_exact(red.inst, exact.SearchBudget(4 * g.k))
        dt = perf_counter() - t
        if sol is None:
            ans.certify += dt
        else:
            ans.extra["clique"] = reduction.reverse(red, sol, 1, 1)
        if planted is not None:
            ans.extra["forward"] = reduction.forward(red, planted)
        ans.latency = perf_counter() - t0
        ans.extra["red"] = red
        ans.k, ans.solution = g.k, sol
        ans.outcome = "solved" if sol is not None else "no-witness"

    def check(self, presented, ans: Answer) -> list[str]:
        g, planted, has_clique = presented
        k = g.k
        red = ans.extra["red"]
        sol = ans.solution
        problems = []
        if planted is not None and sol is None:
            problems.append("planted graph answered no-witness")
        if sol is not None and len(sol) != 4 * k:
            problems.append(f"exact solution has {len(sol)} lines, expected exactly {4 * k}")
        if (sol is not None) != has_clique:
            problems.append(f"exact outcome {ans.outcome} disagrees with brute-force clique search")
        if sol is not None:
            problems += _unstabbed(red.inst, sol)
            clique = ans.extra["clique"]
            ids = sorted(clique.vertex_ids(g.r))
            if len(ids) != k:
                problems.append(f"reverse returned {len(ids)} vertices, expected {k}")
            if any((u, v) not in g.edges for a, u in enumerate(ids) for v in ids[a + 1 :]):
                problems.append("reverse returned vertices that are not pairwise adjacent")
        fwd = ans.extra.get("forward")
        if fwd is not None:
            problems += _unstabbed(red.inst, fwd)
            if len(fwd) != 4 * k:
                problems.append(f"forward returned {len(fwd)} lines, expected {4 * k}")
        return problems


WORKLOADS = {w.name: w for w in (UniformMin(), PlantedLarge(), ReductionExact())}


def attempt(workload, presented) -> tuple[Answer, approx.SearchStats]:
    """Run one instance's timed call chain, then check its answer."""
    ans = Answer()
    stats = approx.SearchStats()
    try:
        workload.solve(presented, stats, ans)
        ans.problems = workload.check(presented, ans)
    except Exception as exc:  # a raising solver counts as a failed instance
        ans.outcome = "error"
        ans.problems = [f"{type(exc).__name__}: {exc}"]
    return ans, stats
