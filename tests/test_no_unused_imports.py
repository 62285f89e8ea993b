"""Every name the library imports is used: a leftover import after a
deletion is dead code. A name re-exported through a module's __all__
counts as used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rectstab"


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


def test_library_has_no_unused_imports():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for name, line in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused imports in the library: {found}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .core import I64_MIN, Line\nx: Line\n__all__ = ['y']\nimport y\n")
    assert _unused_imports(tree) == [("I64_MIN", 1)]
