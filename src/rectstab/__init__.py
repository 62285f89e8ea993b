"""Rectangle stabbing toolkit.

Pick the fewest axis-parallel lines from a candidate set so that every
axis-parallel rectangle is intersected. Ships a parameterized
7/4-approximation, an exact branch-and-bound oracle for small instances,
the gap-preserving hardness reduction from Multicolored Clique with both
direction maps, seeded generators, a verifier, and a CLI.

This package exports the public API; the approximation's pipeline stages
live in rectstab.approx and the bit-mask stabbing kernel in rectstab.core.
"""

from .approx import GuessInfeasible, SearchStats, solve_min, solve_with_budget
from .core import (
    Axis,
    Instance,
    Line,
    Rect,
    Solution,
    UnknownLineError,
    drop_dominated,
    transpose,
    verify,
)
from .exact import ExactStats, NodeLimitExceeded, SearchBudget, opt_exact, packing_bound
from .generators import (
    ColoredPointSet,
    InseparablePoints,
    PlantedWitness,
    discretization_to_stabbing,
    gen_mcgraph,
    gen_planted,
    gen_uniform,
)
from .reduction import (
    MCClique,
    MCGraph,
    MalformedReduction,
    NotApplicable,
    ReducedInstance,
    build,
    forward,
    make_nondegenerate,
    map_solution_back,
    reverse,
)
from .twosat import Formula
from .twosat import solve as solve_2sat

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ColoredPointSet",
    "ExactStats",
    "Formula",
    "GuessInfeasible",
    "InseparablePoints",
    "Instance",
    "Line",
    "MCClique",
    "MCGraph",
    "MalformedReduction",
    "NodeLimitExceeded",
    "NotApplicable",
    "PlantedWitness",
    "Rect",
    "ReducedInstance",
    "SearchBudget",
    "SearchStats",
    "Solution",
    "UnknownLineError",
    "build",
    "discretization_to_stabbing",
    "drop_dominated",
    "forward",
    "gen_mcgraph",
    "gen_planted",
    "gen_uniform",
    "make_nondegenerate",
    "map_solution_back",
    "opt_exact",
    "packing_bound",
    "reverse",
    "solve_2sat",
    "solve_min",
    "solve_with_budget",
    "transpose",
    "verify",
]
