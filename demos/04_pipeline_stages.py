#!/usr/bin/env python3
# A guided tour through the approximation pipeline's stages on one instance,
# showing the intermediate objects the solver normally keeps to itself.

from rectstab import gen_planted, verify
from rectstab.approx import Orientation, solve_split

K = 5


def at(positions, indices):
    """The search names lines by candidate index; print their positions."""
    return sorted(positions[t] for t in indices)


def strips(guess, positions):
    """The guessed strips as open ranges between pool lines: slot i lies
    between base[i - 1] and base[i], unbounded past either end."""
    ends = ("-inf", *at(positions, guess.base), "+inf")
    return " ".join(f"({ends[i]}, {ends[i + 1]})" for i in guess.slots) or "none"


inst, witness = gen_planted(k=K, n=16, coord_range=25, seed=53)
tables = Orientation(inst)
k_h, k_v = len(witness.hstar), len(witness.vstar)
if k_h > k_v:
    tables = tables.flipped
    k_h, k_v = k_v, k_h
print(f"witness split: k_h={k_h}, k_v={k_v}")

# stages 1-5 for this split under the budget k_h + k_v, up to the first
# satisfiable guess in enumeration order
found = solve_split(tables, k_h, k_v)
if found is None:
    print("no satisfiable guess at this split (try a larger budget)")
    raise SystemExit(0)
vguess, hguess, sol = found.vguess, found.hguess, found.solution
ys, xs = tables.inst.hlines, tables.inst.vlines
h1 = at(ys, found.h1)
print(f"preselect: H1={h1} (kept for the answer), V0={at(xs, found.v0)} (candidate pool)")
print("\nfirst satisfiable guess:")
print(f"  vertical strips (x ranges): {strips(vguess, xs)}, V1={at(xs, vguess.lines)}")
print(f"  horizontal strips (y ranges): {strips(hguess, ys)}, H1'={at(ys, hguess.lines)}")
print(f"  kernel size fed to 2-SAT: {found.kernel.bit_count()} of {found.kept.bit_count()} kept rectangles")
# the per-strip lines lie strictly inside the guessed strips, so they are
# exactly what the guesses themselves did not fix
h2 = sol.hlines - set(h1) - set(at(ys, hguess.lines))
v2 = sol.vlines - set(at(xs, vguess.lines))
print(f"  decoded per-strip lines: H2={sorted(h2)}, V2={sorted(v2)}")
print(f"solution: {len(sol)} lines <= 2*{k_h} + floor(3*{k_v}/2) "
      f"= {2 * k_h + (3 * k_v) // 2}; unstabbed = {verify(tables.inst, sol)}")
