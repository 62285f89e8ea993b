"""Canonical JSON and CSV formats.

Instance JSON: {"rects": [[x1,x2,y1,y2], ...], "hlines": [...], "vlines": [...]}
Solution JSON: {"hlines": [...], "vlines": [...]}
Graph JSON:    {"k": K, "r": R, "edges": [[u,v], ...]} with vertex ids
               (i-1)*r + (p-1) for vertex p of part i.
Clique JSON:   {"size": S, "members": [[part, index], ...]}
Strip table:   {"k": K, "r": R, "vstrips": [[lo,hi], ...], "hstrips": [...]}
Points CSV:    header "x,y,color", one integer row per point.

All arrays are sorted and integers written in decimal, so emission is
byte-deterministic and files are diffable across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

from .core import I64_MAX, I64_MIN, Instance, Rect, Solution
from .generators import ColoredPointSet
from .reduction import MCClique, MCGraph, ReducedInstance

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Input file does not match the expected schema."""


def _dump_json(obj, path: PathLike) -> None:
    # json.dump writes as it encodes, so the whole text is never held at once
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_json(path: PathLike, keys: tuple[str, ...]) -> dict:
    """The file's JSON object, which must have exactly these keys."""
    try:
        obj = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise FormatError(f"{path}: expected a JSON object with keys {'/'.join(keys)}")
    return obj


def _ints(obj, what: str, n: Optional[int] = None) -> list[int]:
    """obj checked to be a list of signed 64-bit integers, of length n when
    given. JSON booleans are not integers."""
    if not (
        isinstance(obj, list)
        and (n is None or len(obj) == n)
        and all(type(v) is int and I64_MIN <= v <= I64_MAX for v in obj)
    ):
        count = "a list of" if n is None else str(n)
        raise FormatError(f"{what}: expected {count} signed 64-bit integers")
    return obj


def _rows(obj, what: str, width: int) -> list[list[int]]:
    if not isinstance(obj, list):
        raise FormatError(f"{what}: expected a list of rows")
    return [_ints(row, f"{what}[{i}]", width) for i, row in enumerate(obj)]


def dump_instance(inst: Instance, path: PathLike) -> None:
    _dump_json(
        {
            "rects": sorted([r.x1, r.x2, r.y1, r.y2] for r in inst.rects),
            "hlines": list(inst.hlines),
            "vlines": list(inst.vlines),
        },
        path,
    )


def load_instance(path: PathLike) -> Instance:
    obj = _load_json(path, ("rects", "hlines", "vlines"))
    rows = _rows(obj["rects"], f"{path}: rects", 4)
    try:
        rects = [Rect(*row) for row in rows]
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return Instance(
        rects=rects,
        hlines=_ints(obj["hlines"], f"{path}: hlines"),
        vlines=_ints(obj["vlines"], f"{path}: vlines"),
    )


def dump_solution(sol: Solution, path: PathLike) -> None:
    _dump_json({"hlines": sorted(sol.hlines), "vlines": sorted(sol.vlines)}, path)


def load_solution(path: PathLike) -> Solution:
    obj = _load_json(path, ("hlines", "vlines"))
    return Solution(
        hlines=_ints(obj["hlines"], f"{path}: hlines"),
        vlines=_ints(obj["vlines"], f"{path}: vlines"),
    )


def dump_graph(g: MCGraph, path: PathLike) -> None:
    _dump_json({"k": g.k, "r": g.r, "edges": sorted([u, v] for u, v in g.edges)}, path)


def load_graph(path: PathLike) -> MCGraph:
    obj = _load_json(path, ("k", "r", "edges"))
    k, r = _ints([obj["k"], obj["r"]], f"{path}: k, r", 2)
    edges = {(min(u, v), max(u, v)) for u, v in _rows(obj["edges"], f"{path}: edges", 2)}
    try:
        return MCGraph(k=k, r=r, edges=frozenset(edges))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_strip_table(red: ReducedInstance, path: PathLike, doubled: bool = False) -> None:
    _dump_json(
        {
            "k": red.k,
            "r": red.r,
            "doubled": doubled,
            "vstrips": [list(t) for t in red.vstrips],
            "hstrips": [list(t) for t in red.hstrips],
        },
        path,
    )


def load_reduced(instance_path: PathLike, strips_path: PathLike) -> tuple[ReducedInstance, bool]:
    """The reduced instance plus whether the instance file holds the doubled
    (nondegenerate) coordinates. Strip ranges are always in original
    coordinates; a doubled instance is halved back before use."""
    inst = load_instance(instance_path)
    obj = _load_json(strips_path, ("k", "r", "doubled", "vstrips", "hstrips"))
    k, r = _ints([obj["k"], obj["r"]], f"{strips_path}: k, r", 2)
    doubled = obj["doubled"]
    if not isinstance(doubled, bool):
        raise FormatError(f"{strips_path}: doubled must be true or false")
    vstrips = tuple(map(tuple, _rows(obj["vstrips"], f"{strips_path}: vstrips", 2)))
    hstrips = tuple(map(tuple, _rows(obj["hstrips"], f"{strips_path}: hstrips", 2)))
    if len(vstrips) != 2 * k or len(hstrips) != 2 * k:
        raise FormatError(f"{strips_path}: expected 2k strips per axis")
    if doubled:
        try:
            rects = [
                Rect(rc.x1 // 2, (rc.x2 - 1) // 2, rc.y1 // 2, (rc.y2 - 1) // 2)
                for rc in inst.rects
            ]
        except ValueError as exc:
            raise FormatError(f"{instance_path}: not a doubled instance: {exc}") from exc
        inst = Instance(
            rects=rects,
            hlines=sorted({y // 2 for y in inst.hlines}),
            vlines=sorted({x // 2 for x in inst.vlines}),
        )
    return ReducedInstance(inst=inst, k=k, r=r, vstrips=vstrips, hstrips=hstrips), doubled


def dump_clique(clique: MCClique, path: PathLike) -> None:
    _dump_json(clique_json(clique), path)


def clique_json(clique: MCClique) -> dict:
    return {
        "size": len(clique),
        "members": [[i, p] for i, p in sorted(clique.chosen.items())],
    }


def load_points_csv(path: PathLike) -> ColoredPointSet:
    """Coordinates must lie strictly within 2**62 in magnitude, so that
    their doubles in discretization_to_stabbing stay signed 64-bit."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows or [h.strip() for h in rows[0]] != ["x", "y", "color"]:
        raise FormatError(f"{path}: expected header 'x,y,color'")
    points = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise FormatError(f"{path}: row {row!r} does not have 3 fields")
        try:
            x, y, color = map(int, row)
        except ValueError as exc:
            raise FormatError(f"{path}: non-integer field in {row!r}") from exc
        if max(abs(x), abs(y)) >= 2**62:
            raise FormatError(f"{path}: coordinate in {row!r} not below 2**62 in magnitude")
        points.append((x, y, color))
    return ColoredPointSet(points)


def dump_points_csv(pts: ColoredPointSet, path: PathLike) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "color"])
        for x, y, c in pts.points:
            writer.writerow([x, y, c])
