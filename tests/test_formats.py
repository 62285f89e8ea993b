import hashlib

import pytest

from rectstab import formats
from rectstab.cli import main
from rectstab.core import Instance, Rect, Solution
from rectstab.generators import gen_mcgraph, gen_planted
from rectstab.reduction import build


def test_instance_roundtrip(tmp_path):
    inst, _ = gen_planted(k=2, n=9, coord_range=15, seed=3)
    path = tmp_path / "i.json"
    formats.dump_instance(inst, path)
    loaded = formats.load_instance(path)
    assert sorted(loaded.rects, key=lambda r: (r.x1, r.x2, r.y1, r.y2)) == sorted(
        inst.rects, key=lambda r: (r.x1, r.x2, r.y1, r.y2)
    )
    assert loaded.hlines == inst.hlines and loaded.vlines == inst.vlines


def test_instance_emission_is_sorted_and_stable(tmp_path):
    inst = Instance([Rect(5, 6, 0, 0), Rect(0, 1, 2, 3)], hlines=[4, 1], vlines=[])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    formats.dump_instance(inst, a)
    formats.dump_instance(inst, b)
    assert a.read_bytes() == b.read_bytes()
    assert '"hlines": [\n    1,\n    4\n  ]' in a.read_text()


# SHA-256 of every file the commands in the test below write
EMITTED = {
    "planted.json": "f7197185849f47982ed382ef28394eab85f73427860331b73b828b07e9bb414d",
    "planted.witness.json": "ed9026bc72fd1f41403099b00b3cfda25bccd1e3017c158ed41306a7c1f86638",
    "graph.json": "7e56ddd6f5923d686ee7cf0d0ea3c40ee2f045807ad7e779c220940f15d8b48b",
    "graph.clique.json": "eec5b0bdb794e6475043c6031755d7ac5624e3fde709b9b48aad647433deaad6",
    "reduced.json": "c8da078e6d9f5377ce20e6cd246d58f476a5116d95b22a4d0d202889ff457ef5",
    "reduced.strips.json": "4d61cbf4b94d754e94606d83cc404079b2fddfb2f973b83288f1eb50195ead75",
}


def test_every_format_emits_pinned_bytes(tmp_path):
    """An instance and its witness solution (gen planted), a graph and its
    planted clique (gen mcgraph), and the reduced instance and its strip
    table (reduce), each byte for byte."""
    planted, graph, reduced = (str(tmp_path / f"{name}.json") for name in ("planted", "graph", "reduced"))
    assert main(["gen", "planted", "--k", "2", "--n", "12", "--seed", "1", "--out", planted]) == 0
    assert main(["gen", "mcgraph", "--k", "2", "--r", "2", "--plant", "--seed", "1", "--out", graph]) == 0
    assert main(["reduce", graph, "--out", reduced]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == EMITTED


def test_solution_roundtrip(tmp_path):
    sol = Solution(hlines=[3, 1], vlines=[7])
    path = tmp_path / "s.json"
    formats.dump_solution(sol, path)
    assert formats.load_solution(path) == sol


def test_graph_roundtrip(tmp_path):
    g, _ = gen_mcgraph(2, 3, 1, 2, seed=6, plant=True)
    path = tmp_path / "g.json"
    formats.dump_graph(g, path)
    assert formats.load_graph(path) == g


def test_strip_table_roundtrip(tmp_path):
    g, _ = gen_mcgraph(2, 2, 1, 1, seed=1, plant=False)
    red = build(g)
    ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
    formats.dump_instance(red.inst, ipath)
    formats.dump_strip_table(red, spath)
    loaded, doubled = formats.load_reduced(ipath, spath)
    assert not doubled
    assert loaded.vstrips == red.vstrips and loaded.hstrips == red.hstrips
    assert loaded.k == red.k and loaded.r == red.r


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rects": [[0, 1, 0]], "hlines": [], "vlines": []}')
    with pytest.raises(formats.FormatError):
        formats.load_instance(bad)
    bad.write_text('{"rects": [[1, 0, 0, 0]], "hlines": [], "vlines": []}')
    with pytest.raises(formats.FormatError):
        formats.load_instance(bad)
    bad.write_text('{"hlines": [1.5], "vlines": []}')
    with pytest.raises(formats.FormatError):
        formats.load_solution(bad)
    bad.write_text("not json")
    with pytest.raises(formats.FormatError):
        formats.load_graph(bad)


def test_points_csv_roundtrip(tmp_path):
    from rectstab.generators import ColoredPointSet

    pts = ColoredPointSet([(0, 0, 1), (3, -2, 0)])
    path = tmp_path / "p.csv"
    formats.dump_points_csv(pts, path)
    assert formats.load_points_csv(path) == pts


def test_points_csv_requires_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0,0,1\n")
    with pytest.raises(formats.FormatError):
        formats.load_points_csv(path)
