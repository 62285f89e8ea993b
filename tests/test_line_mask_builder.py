"""Line masks have one builder. core._range_masks, the toggle sweep that
builds masks over candidate ranges, is called only by core.line_masks,
which keeps one table per instance and axis and hands it to derived
instances, and by core.held_masks, whose masks are over the open slots
between candidates, not over candidate lines.
A second caller would rebuild line masks outside the memo."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rectstab"
BUILDER = "_range_masks"
CALLERS = {("core.py", "line_masks"), ("core.py", "held_masks")}


class _BuilderCalls(ast.NodeVisitor):
    """(innermost enclosing function, line) of every call of the builder;
    "<module>" for a call outside any function."""

    def __init__(self):
        self.scope = ["<module>"]
        self.calls: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == BUILDER:
            self.calls.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _builder_calls(path: Path) -> list[tuple[str, int]]:
    visitor = _BuilderCalls()
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.calls


def test_line_masks_have_one_builder():
    seen, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for func, line in _builder_calls(path):
            if (path.name, func) in CALLERS:
                seen.add((path.name, func))
            else:
                stray.append(f"{path.name}:{line} in {func}")
    assert not stray, f"{BUILDER} called outside {sorted(CALLERS)}: {stray}"
    assert seen == CALLERS, f"a builder caller is gone: narrow CALLERS ({seen})"
