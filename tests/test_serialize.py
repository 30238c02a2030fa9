"""JSON envelope, text and DOT rendering: round trips and determinism."""

import json
import random
import string

import pytest

from vinery import domain as dm
from vinery import generate as gen
from vinery import lattice as lt
from vinery import matgraph as mg
from vinery import serialize as io
from vinery import vine as vn
from vinery.errors import StructureError

from oracles import to_dot_by_scan


def all_kinds(intro_graph, intro_vine, intro_domain):
    L = lt.vine_to_lattice(intro_vine)
    return [intro_graph, intro_vine, intro_domain, L, lt.lattice_to_matrix(L)]


def test_kind_of(intro_graph, intro_vine, intro_domain):
    assert [io.kind_of(x) for x in all_kinds(intro_graph, intro_vine, intro_domain)] == \
        list(io.KINDS)
    with pytest.raises(TypeError):
        io.kind_of(42)


def test_json_round_trip_all_kinds(intro_graph, intro_vine, intro_domain):
    for obj in all_kinds(intro_graph, intro_vine, intro_domain):
        text = io.dumps(obj)
        assert text.endswith("\n")
        assert io.loads(text) == obj
        assert io.dumps(io.loads(text)) == text


def test_dumps_is_canonical(intro_vine):
    shuffled = vn.vine("dcba", reversed([sorted(s) for s in intro_vine.sorted_nodes()]))
    assert io.dumps(shuffled) == io.dumps(intro_vine)


def test_json_shape(intro_graph):
    doc = json.loads(io.dumps(intro_graph))
    assert doc["kind"] == "matgraph"
    assert doc["vertices"] == ["a", "b", "c", "d"]
    assert doc["edges"][0] == {"u": "a", "v": "b", "label": 1}


def test_load_file(tmp_path, intro_domain):
    path = tmp_path / "d.json"
    path.write_text(io.dumps(intro_domain))
    assert io.load_file(str(path)) == intro_domain


@pytest.mark.parametrize("doc,axiom", [
    ({}, "parse.kind"),
    ({"kind": "frobnicate"}, "parse.kind"),
    ({"kind": "vine", "ground": ["a"]}, "parse.payload"),
    ({"kind": "matgraph", "vertices": ["a"], "edges": [{"u": "a"}]}, "parse.payload"),
    ({"kind": "matrix", "rows": ["a", "b"], "columns": ["1"]}, "parse.matrix"),
    ({"kind": "matrix", "rows": ["a"], "columns": ["2"]}, "parse.matrix"),
    ({"kind": "matgraph", "vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "label": True}]},
     "matgraph.positive-label"),
    ({"kind": "vine", "ground": "ab", "nodes": [["a"], ["b"], ["a", "b"]]}, "parse.payload"),
    ({"kind": "vine", "ground": ["a", "b"], "nodes": [["a"], ["b"], "ab"]}, "parse.payload"),
    ({"kind": "domain", "alternatives": ["a", "b"], "preferences": ["ab", "ba"]}, "parse.payload"),
    ({"kind": "matrix", "rows": "ab", "columns": ["11"]}, "parse.payload"),
    ({"kind": "matrix", "rows": ["a"], "columns": ["x"]}, "parse.matrix"),
    ({"kind": "vine", "ground": ["a"], "nodes": "a"}, "parse.payload"),
    ({"kind": "domain", "alternatives": ["a"], "preferences": {"a": 1}}, "parse.payload"),
])
def test_parse_errors(doc, axiom):
    with pytest.raises(StructureError) as exc:
        io.from_json_dict(doc)
    assert exc.value.axiom == axiom


def test_a_repeated_column_is_refused_with_its_witness():
    with pytest.raises(StructureError) as exc:
        io.from_json_dict({"kind": "matrix", "rows": ["a", "b"], "columns": ["00", "10", "01", "10", "11"]})
    assert (exc.value.axiom, exc.value.witness) == ("parse.duplicate", "10")


def test_to_text(intro_graph, intro_vine, intro_domain):
    assert io.to_text(intro_graph).splitlines()[0] == "a b 1"
    assert io.to_text(intro_vine).splitlines()[0] == "{a}"
    assert len(io.to_text(intro_domain).splitlines()) == 4
    M = lt.lattice_to_matrix(lt.vine_to_lattice(intro_vine))
    lines = io.to_text(M).splitlines()
    assert len(lines) == 4 and all(len(line) == 11 for line in lines)


def test_to_text_domain_table(intro_domain):
    text = io.to_text(intro_domain)
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 8 for line in lines)
    assert lines[0].split()[0] == "a"           # first column is abcd
    assert io.to_text(dm.domain("", [()])) == "(empty)\n"


def test_to_dot(intro_graph, intro_vine, intro_domain):
    dot = io.to_dot(intro_graph)
    assert dot.startswith("graph matgraph {")
    assert '"a" -- "d" [label=3];' in dot
    vdot = io.to_dot(intro_vine)
    assert vdot.startswith("digraph vine {")
    assert '"{a,b}" -> "{a,b,c}";' in vdot
    with pytest.raises(StructureError) as exc:
        io.to_dot(intro_domain)
    assert exc.value.axiom == "format.dot"


def test_to_dot_escapes_quotes_and_backslashes():
    """A label holding a quote or ending in a backslash stays inside its
    DOT ID, for a vine's node names and for a graph's vertices."""
    v = vn.vine(['a"b', "c\\"], [['a"b'], ["c\\"], ['a"b', "c\\"]])
    assert io.to_dot(v).splitlines() == [
        "digraph vine {", "  rankdir=BT;",
        r'  "{a\"b}";', r'  "{c\\}";', r'  "{a\"b,c\\}";',
        r'  "{a\"b}" -> "{a\"b,c\\}";', r'  "{c\\}" -> "{a\"b,c\\}";', "}"]
    g = mg.mat_graph(['a"b', "c\\"], [('a"b', "c\\", 1)])
    assert io.to_dot(g).splitlines() == [
        "graph matgraph {", r'  "a\"b";', r'  "c\\";', r'  "a\"b" -- "c\\" [label=1];', "}"]


def test_to_dot_matches_cover_scan(seed):
    """The DOT edges of vines and their lattices are the covers a scan of
    the nodes below each node finds, in the same order."""
    rng = random.Random(seed)
    for n in range(4, 9):
        for _ in range(4):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            L = lt.vine_to_lattice(v)
            assert io.to_dot(v) == to_dot_by_scan(v)
            assert io.to_dot(L) == to_dot_by_scan(L)
