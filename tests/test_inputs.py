"""Malformed input exits with code 2 and one `error:` line, never a traceback.

A seeded fuzzer mutates valid instance, solution, graph, strip-table and
points files and runs each one through the CLI command that reads it. A
mutation that breaks the file's schema must exit 2 with an `error:`
message; one that keeps the schema may give any exit code, but no
exception may escape `cli.main`.
"""

import copy
import json

import pytest

from rectstab import approx, cli, formats
from rectstab.generators import gen_mcgraph
from rectstab.reduction import build, forward
from rectstab.rng import Xoshiro256StarStar

I64 = 2**63  # one past the largest signed 64-bit integer

INSTANCE = '{"rects": [[0, 1, 0, 1], [3, 4, 2, 5]], "hlines": [0, 2], "vlines": [1, 3]}'
SOLUTION = '{"hlines": [0], "vlines": [3]}'
POINTS = "x,y,color\n0,0,0\n1,1,1\n3,0,0\n"
STRIPS_PREFIX = '{"k": 2, "r": 2, "doubled": false, "hstrips": [[5, 6], [7, 8], [9, 10], [11, 12]],'

# Kinds of JSON values: "int" and "bool" scalars, "ints" a list of integers,
# ("rows", n) a list of rows and ("row", n) one row of n integers.
SCHEMAS = {
    "inst.json": {"rects": ("rows", 4), "hlines": "ints", "vlines": "ints"},
    "sol.json": {"hlines": "ints", "vlines": "ints"},
    "g.json": {"k": "int", "r": "int", "edges": ("rows", 2)},
    "red.strips.json": {
        "k": "int", "r": "int", "doubled": "bool", "vstrips": ("rows", 2), "hstrips": ("rows", 2)
    },
}

# The command that reads each file; the others it names stay valid.
COMMANDS = {
    "inst.json": ["solve", "inst.json", "--approx", "-k", "2"],
    "sol.json": ["verify", "inst.json", "sol.json"],
    "g.json": ["reduce", "g.json", "--out", "out.json"],
    "red.strips.json": ["extract", "red.json", "redsol.json", "--eps", "1/1"],
    "pts.csv": ["gen", "discretize", "pts.csv", "--out", "out.json"],
}


@pytest.fixture()
def base(tmp_path):
    """A directory of valid input files, one per format."""
    graph, clique = gen_mcgraph(2, 2, 1, 2, seed=1, plant=True)
    red = build(graph)
    formats.dump_graph(graph, tmp_path / "g.json")
    formats.dump_instance(red.inst, tmp_path / "red.json")
    formats.dump_strip_table(red, tmp_path / "red.strips.json")
    formats.dump_solution(forward(red, clique), tmp_path / "redsol.json")
    (tmp_path / "inst.json").write_text(INSTANCE)
    (tmp_path / "sol.json").write_text(SOLUTION)
    (tmp_path / "pts.csv").write_text(POINTS)
    return tmp_path


def run(capsys, base, argv):
    """cli.main on argv, with file names and "." resolved inside base."""
    argv = [str(base / a) if a == "." or a.endswith((".json", ".csv")) else a for a in argv]
    code = cli.main(argv)
    return code, capsys.readouterr().err


def fits(value, kind) -> bool:
    if kind == "int":
        return type(value) is int and -I64 <= value < I64
    if kind == "bool":
        return type(value) is bool
    if kind == "ints":
        return isinstance(value, list) and all(fits(v, "int") for v in value)
    shape, n = kind
    if shape == "row":
        return fits(value, "ints") and len(value) == n
    return isinstance(value, list) and all(fits(row, ("row", n)) for row in value)


def slots(doc, schema):
    """Every (path, kind) of a valid document, down to single integers."""
    for key, kind in schema.items():
        yield (key,), kind
        if kind == "ints":
            for i in range(len(doc[key])):
                yield (key, i), "int"
        elif isinstance(kind, tuple):
            for i in range(len(doc[key])):
                yield (key, i), ("row", kind[1])
                for j in range(kind[1]):
                    yield (key, i, j), "int"


def get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutate_json(rng, doc, schema):
    """A mutated copy of doc and whether the mutation breaks the schema."""
    doc = copy.deepcopy(doc)
    move = rng.randrange(4)
    if move == 0:
        del doc[rng.choice(sorted(doc))]
        return doc, True
    if move == 1:
        doc["extra"] = 0
        return doc, True
    path, kind = rng.choice(list(slots(doc, schema)))
    old = get(doc, path)
    short = old[:-1] if isinstance(old, list) else []
    new = rng.choice([True, 5, "a", [], I64, short])
    get(doc, path[:-1])[path[-1]] = new
    return doc, not fits(new, kind)


def mutate_csv(rng, text):
    rows = [line.split(",") for line in text.splitlines()]
    move = rng.randrange(4)
    if move == 0:
        rows[0].pop()
        return rows, True
    if move == 1:
        rows[0].append("extra")
        return rows, True
    i = rng.randint(1, len(rows) - 1)
    if move == 2:
        rows[i].pop()
        return rows, True
    j = rng.randrange(3)
    rows[i][j] = new = rng.choice(["true", "5", "a", "[]", str(I64)])
    return rows, new != "5" and (j < 2 or new != str(I64))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fuzzed_files_exit_cleanly(name, base, capsys):
    path = base / name
    assert run(capsys, base, COMMANDS[name])[0] == 0  # the unmutated file is valid
    original = path.read_text()
    rng = Xoshiro256StarStar(sum(map(ord, name)))
    for trial in range(40):
        if name in SCHEMAS:
            doc, breaking = mutate_json(rng, json.loads(original), SCHEMAS[name])
            path.write_text(json.dumps(doc))
        else:
            rows, breaking = mutate_csv(rng, original)
            path.write_text("\n".join(map(",".join, rows)) + "\n")
        code, err = run(capsys, base, COMMANDS[name])
        what = f"trial {trial}: {path.read_text()!r} -> exit {code}, stderr {err!r}"
        if breaking:
            assert code == 2 and err.startswith("error:") and err.count("\n") == 1, what
        else:
            assert code in (0, 1, 2), what
            if code == 2:
                assert err.startswith(("error:", "malformed reduction inputs:")), what


PROBES = [
    ("inst.json", '{"rects": 5, "hlines": [], "vlines": []}', COMMANDS["inst.json"]),
    ("inst.json", '{"rects": [], "hlines": [true], "vlines": []}', COMMANDS["inst.json"]),
    ("inst.json", f'{{"rects": [], "hlines": [{10**20}], "vlines": []}}', COMMANDS["inst.json"]),
    ("inst.json", f'{{"rects": [[0, {10**20}, 0, 1]], "hlines": [0], "vlines": []}}',
     COMMANDS["inst.json"]),
    ("g.json", '{"k": 2, "r": 2, "edges": 7}', COMMANDS["g.json"]),
    ("g.json", '{"k": true, "r": 2, "edges": []}', COMMANDS["g.json"]),
    ("sol.json", f'{{"hlines": [{10**20}], "vlines": []}}', COMMANDS["sol.json"]),
    ("red.strips.json", STRIPS_PREFIX + '"vstrips": [[5], [7, 8], [9, 10], [11, 12]]}',
     COMMANDS["red.strips.json"]),
    ("red.strips.json", STRIPS_PREFIX + '"vstrips": [["a", "b"], [7, 8], [9, 10], [11, 12]]}',
     COMMANDS["red.strips.json"]),
    (None, None, ["extract", "red.json", "redsol.json", "--eps", "1/0"]),
    (None, None, ["solve", "inst.json", "--approx", "-k", "2", "--out", "missing/x.json"]),
    ("pts.csv", f"x,y,color\n0,0,0\n{10**20},1,1\n", COMMANDS["pts.csv"]),
    ("inst.json", "[" * 100_000, COMMANDS["inst.json"]),
    ("sol.json", "\xff{", COMMANDS["sol.json"]),
    ("pts.csv", "x,y,color\n" + "1" * 200_000 + ",0,0\n", COMMANDS["pts.csv"]),  # csv.Error
    (None, None, ["gen", "uniform", "--n", "-2", "--m-lines", "4", "--seed", "1",
                  "--out", "out.json"]),
    (None, None, ["bench", ".", "--jobs", "-3", "--out", "out.csv"]),
    # red.json was never doubled, so its degenerate force rectangles halve to empty ones
    ("red.strips.json",
     STRIPS_PREFIX.replace("false", "true") + '"vstrips": [[5, 6], [7, 8], [9, 10], [11, 12]]}',
     COMMANDS["red.strips.json"]),
]


@pytest.mark.parametrize("name, content, argv", PROBES, ids=range(1, len(PROBES) + 1))
def test_probe_exits_2_with_one_error_line(name, content, argv, base, capsys):
    if name is not None:
        (base / name).write_text(content, encoding="latin-1")  # "\xff" is not UTF-8
    code, err = run(capsys, base, argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_guarantee_failure_propagates(base, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("returned solution misses a rectangle")

    monkeypatch.setattr(approx, "solve_with_budget", broken)
    with pytest.raises(RuntimeError):
        run(capsys, base, COMMANDS["inst.json"])
