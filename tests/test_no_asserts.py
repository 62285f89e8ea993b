"""The checks that guard the solver's guarantees must still run under
python -O, which strips assert statements, so the library has none."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rectstab"


def test_library_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"
