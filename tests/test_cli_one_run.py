"""solve and bench share one driver. In cli.py the engines (opt_exact,
solve_min, solve_with_budget) and packing_bound are called only inside
_run, which decides the outcome, the proven bounds and the counters for
both commands. A second caller would decide them a second time."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "rectstab" / "cli.py"
DRIVER = "_run"
ENGINES = {"opt_exact", "solve_min", "solve_with_budget", "packing_bound"}


class _EngineCalls(ast.NodeVisitor):
    """(engine, innermost enclosing function, line) of every engine call;
    "<module>" for a call outside any function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.functions: set[str] = set()
        self.calls: list[tuple[str, str, int]] = []

    def visit_FunctionDef(self, node):
        self.functions.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ENGINES:
            self.calls.append((name, self.scope[-1], node.lineno))
        self.generic_visit(node)


def test_the_engines_have_one_caller_in_the_cli():
    visitor = _EngineCalls()
    visitor.visit(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert DRIVER in visitor.functions, f"cli.py has no {DRIVER}"
    stray = [f"{name} at cli.py:{line} in {func}" for name, func, line in visitor.calls
             if func != DRIVER]
    assert not stray, f"engines called outside {DRIVER}: {stray}"
    assert {name for name, _, _ in visitor.calls} == ENGINES, "an engine is no longer called"
