"""The approximation's search asks where a rectangle lies through the
stabber table and core's masks, never by reading its coordinates, and
names every line by its candidate index. The one coordinate read left is
kernelization's widest-in-strip pick (eliminate_redundant), which
measures x extents clipped to the strip; its group needs and H0 come from
the stabber table too. No y extent is read anywhere."""

import ast
from pathlib import Path

APPROX = Path(__file__).resolve().parents[1] / "src" / "rectstab" / "approx.py"
COORDINATES = {"x1", "x2", "y1", "y2"}
ALLOWED = {"eliminate_redundant": {"x1", "x2"}}


def _coordinate_reads(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in COORDINATES
    ]


def test_approx_reads_coordinates_only_in_kernelization():
    tree = ast.parse(APPROX.read_text(), filename=str(APPROX))
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in ALLOWED
        for node in _coordinate_reads(func)
        if node.attr in ALLOWED[func.name]
    }
    assert allowed, "kernelization no longer reads coordinates: narrow ALLOWED"
    found = [
        f"approx.py:{node.lineno} .{node.attr}"
        for node in _coordinate_reads(tree)
        if id(node) not in allowed
    ]
    assert not found, f"coordinate reads outside kernelization's x extents: {found}"
