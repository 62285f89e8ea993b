"""Every name the library, the tests and the demos import is used: a
leftover import after a deletion is dead code. A name re-exported through
a module's __all__ counts as used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items() if name not in used)


def _unused_in(*dirs: str) -> list[str]:
    sources = [path for d in dirs for path in sorted((ROOT / d).glob("*.py"))]
    assert sources, f"no sources under {dirs}"
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sources
        for name, line in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_library_has_no_unused_imports():
    found = _unused_in("src/rectstab")
    assert not found, f"unused imports in the library: {found}"


def test_tests_and_demos_have_no_unused_imports():
    found = _unused_in("tests", "demos")
    assert not found, f"unused imports in the tests or demos: {found}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .core import I64_MIN, Line\nx: Line\n__all__ = ['y']\nimport y\n")
    assert _unused_imports(tree) == [("I64_MIN", 1)]
