"""2-SAT via implication graph and strongly connected components.

Literals are (variable index, negated) pairs; literal (v, neg) is graph
node 2v + neg, so its negation is node ^ 1. A clause (a or b) yields the
implication edges not-a -> b and not-b -> a; the formula is unsatisfiable
iff some variable shares an SCC with its own negation, otherwise assigning
each literal by reverse topological component order satisfies every clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

Lit = tuple[int, bool]  # (variable index, negated flag)


@dataclass
class Formula:
    """A 2-CNF under construction. Unit clauses are duplicated-literal pairs."""

    num_vars: int
    clauses: list[tuple[Lit, Lit]] = field(default_factory=list)

    def _check(self, lit: Lit) -> None:
        var, neg = lit
        if not 0 <= var < self.num_vars:
            raise IndexError(f"literal variable {var} out of range [0, {self.num_vars})")
        if not isinstance(neg, bool):
            raise TypeError("negation flag must be a bool")

    def add_clause(self, a: Lit, b: Lit) -> None:
        self._check(a)
        self._check(b)
        self.clauses.append((a, b))

    def add_unit(self, a: Lit) -> None:
        self._check(a)
        self.clauses.append((a, a))


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Component id per node; ids increase in reverse topological order.

    Iterative so that formulas with ~1e5 variables do not hit recursion
    limits.
    """
    n = len(adj)
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    comp = [UNVISITED] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(n):
        if index[root] != UNVISITED:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for j in range(ei, len(adj[v])):
                w = adj[v][j]
                if index[w] == UNVISITED:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def solve(f: Formula) -> Optional[list[bool]]:
    """Satisfying assignment, or None when unsatisfiable.

    Deterministic in the clause order; every returned assignment is checked
    against all clauses before being handed back.
    """
    adj: list[list[int]] = [[] for _ in range(2 * f.num_vars)]
    for (av, an), (bv, bn) in f.clauses:
        a, b = 2 * av + an, 2 * bv + bn
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)
    comp = _tarjan_scc(adj)
    for v in range(f.num_vars):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
    # Tarjan ids grow in reverse topological order, so the smaller id is the
    # later component in topological order; make the literal in it true.
    values = [comp[2 * v] < comp[2 * v + 1] for v in range(f.num_vars)]
    for (av, an), (bv, bn) in f.clauses:
        if values[av] == an and values[bv] == bn:
            raise RuntimeError("2-SAT produced a falsifying assignment")
    return values
