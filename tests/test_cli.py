"""The command-line front end: all subcommands, formats and exit codes."""

import hashlib
import json
import random
import subprocess
import sys

import pytest

from vinery import cli
from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import lattice as lt
from vinery import routes
from vinery import serialize as io
from vinery import species as sp
from vinery import vine as vn


@pytest.fixture
def write(tmp_path):
    def _write(name, obj_or_text):
        path = tmp_path / name
        text = obj_or_text if isinstance(obj_or_text, str) else io.dumps(obj_or_text)
        path.write_text(text)
        return str(path)
    return _write


# ----------------------------------------------------------------- verify

def test_verify_all_kinds(write, intro_graph, intro_vine, intro_domain, capsys):
    L = lt.vine_to_lattice(intro_vine)
    for obj in (intro_graph, intro_vine, intro_domain, L, lt.lattice_to_matrix(L)):
        path = write(f"{io.kind_of(obj)}.json", obj)
        assert cli.main(["verify", path]) == 0
        assert capsys.readouterr().out == f"VALID {io.kind_of(obj)}\n"


def test_verify_strict(write, intro_domain, capsys):
    path = write("d.json", intro_domain)
    assert cli.main(["verify", path, "--strict"]) == 0
    assert "strict: all round trips pass" in capsys.readouterr().out


def test_verify_invalid_structure(write, capsys):
    path = write("bad.json", json.dumps(
        {"kind": "matgraph", "vertices": ["a", "b", "c"],
         "edges": [{"u": "a", "v": "b", "label": 1},
                   {"u": "b", "v": "c", "label": 1},
                   {"u": "a", "v": "c", "label": 1}]}))
    assert cli.main(["verify", path]) == 1
    assert "INVALID matgraph.acyclic" in capsys.readouterr().out


def test_verify_incomplete_matgraph(write, capsys):
    path = write("g.json", json.dumps(
        {"kind": "matgraph", "vertices": ["a", "b", "c"],
         "edges": [{"u": "a", "v": "b", "label": 1}]}))
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr().out.startswith("INVALID matgraph.complete: ")


def test_verify_non_maximal_domain(write, capsys):
    path = write("d.json", json.dumps(
        {"kind": "domain", "alternatives": ["a", "b"], "preferences": [["a", "b"]]}))
    assert cli.main(["verify", path]) == 1
    assert "domain.maximal-size" in capsys.readouterr().out


def test_verify_strict_reports_the_first_failed_round_trip(write, intro_vine, monkeypatch, capsys):
    """A graph route that relabels the vine still yields valid structures,
    so only the round-trip comparison catches it."""
    to_vine = sp.GRAPH.to_vine
    monkeypatch.setattr(sp.GRAPH, "to_vine", lambda g: vn.relabel_vine(to_vine(g), dict(zip("abcd", "wxyz"))))
    path = write("v.json", intro_vine)
    assert cli.main(["verify", path, "--strict"]) == 1
    assert capsys.readouterr().out == "INVALID roundtrip.matgraph: conversion does not round-trip\n"


def test_verify_kind_mismatch(write, intro_vine, capsys):
    path = write("v.json", intro_vine)
    assert cli.main(["verify", path, "--kind", "domain"]) == 1
    assert "kind mismatch" in capsys.readouterr().err


CUBE = [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]


@pytest.mark.parametrize("doc,out", [
    ({"kind": "lattice", "ground": ["a", "b", "c"], "nodes": [[], ["a"], ["b"], ["c"], ["b", "c"], ["a", "b", "c"]]},
     "INVALID lattice.size: 6 elements, extremal is 7\n"),
    ({"kind": "lattice", "ground": ["a", "b", "c"], "nodes": CUBE},
     "INVALID lattice.b3-free: induced B(3) on [[], ['a'], ['b'], ['c'], ['a', 'b'], ['a', 'c'], "
     "['b', 'c'], ['a', 'b', 'c']]\n"
     "INVALID lattice.size: 8 elements, extremal is 7\n"),
    ({"kind": "matrix", "rows": ["a", "b", "c"], "columns": ["000", "100", "010", "001", "110", "111"]},
     "INVALID matrix.size: 6 columns, extremal is 7\n"),
    ({"kind": "matrix", "rows": ["a", "b", "c"],
      "columns": ["000", "100", "010", "001", "110", "101", "011", "111"]},
     "INVALID matrix.triangle: triangle at rows ('a', 'b', 'c')\n"
     "INVALID matrix.size: 8 columns, extremal is 7\n"),
    ({"kind": "domain", "alternatives": ["a", "b", "c"],
      "preferences": [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]},
     "INVALID domain.never-bottom: every alternative of ('a', 'b', 'c') is a bottom in the restriction\n"
     "INVALID domain.maximal-size: 3 preferences, maximal ASPDs have 4\n"),
])
def test_verify_reports_every_violation_in_order(write, doc, out, capsys):
    path = write("bad.json", json.dumps(doc))
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("rows", [["a", "a"], ["b", "a"]])
def test_matrix_rows_must_be_strictly_increasing(write, rows, capsys):
    path = write("m.json", json.dumps({"kind": "matrix", "rows": rows, "columns": ["00", "10", "01", "11"]}))
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr().out == f"INVALID matrix.rows: row labels {rows} are not strictly increasing\n"
    for argv in (["convert", path, "--to", "lattice"], ["analyze", path]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INVALID matrix.rows: ")


@pytest.mark.parametrize("doc, err", [
    ({"kind": "lattice", "ground": ["a", "b", "z"], "nodes": [[], ["a"], ["b"], ["a", "b"]]},
     "error: lattice.ground: ground ['a', 'b', 'z'] is not the union ['a', 'b'] of the nodes\n"),
    ({"kind": "lattice", "nodes": [[], ["a"], ["b"], ["a", "b"]]},
     "error: parse.payload: malformed lattice payload: 'ground'\n"),
], ids=["mismatch", "missing"])
def test_lattice_ground_must_be_the_union_of_the_nodes(write, doc, err, capsys):
    path = write("L.json", json.dumps(doc))
    for argv in (["verify", "--strict", path], ["convert", path, "--to", "vine"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("doc, err", [
    ({"kind": "vine", "ground": ["a", "b"], "nodes": [["a"], ["b"], ["a", "b"], ["b", "a"]]},
     "nodes lists ('a', 'b') twice"),
    ({"kind": "vine", "ground": ["a", "a", "b"], "nodes": [["a"], ["b"], ["a", "b"]]}, "ground lists 'a' twice"),
    ({"kind": "lattice", "ground": ["a", "b"], "nodes": [[], ["a"], ["a"], ["b"], ["a", "b"]]},
     "nodes lists ('a',) twice"),
    ({"kind": "lattice", "ground": ["a", "b"], "nodes": [[], ["a", "a"], ["b"], ["a", "b"]]},
     "node ['a', 'a'] lists 'a' twice"),
    ({"kind": "domain", "alternatives": ["a", "b", "a"], "preferences": [["a", "b"], ["b", "a"]]},
     "alternatives lists 'a' twice"),
    ({"kind": "matgraph", "vertices": ["a", "b", "b"], "edges": [{"u": "a", "v": "b", "label": 1}]},
     "vertices lists 'b' twice"),
    ({"kind": "matrix", "rows": ["a", "b"], "columns": ["00", "10", "01", "10", "11"]}, "columns lists '10' twice"),
], ids=["vine-nodes", "vine-ground", "lattice-nodes", "lattice-node", "domain", "matgraph", "matrix"])
def test_a_repeated_entry_of_a_set_is_refused(write, doc, err, capsys):
    """An array that names a set, or a node, may not repeat an entry: the
    set would merge it, and the file would verify with more entries than
    its structure holds."""
    path = write("dup.json", json.dumps(doc))
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr() == ("", f"error: parse.duplicate: {err}\n")


S = "\ud800"  # a lone surrogate: legal JSON, but UTF-8 cannot encode it


@pytest.mark.parametrize("field, doc", [
    ("ground", {"kind": "vine", "ground": [S, "c"], "nodes": [[S], ["c"], [S, "c"]]}),
    ("vertices", {"kind": "matgraph", "vertices": [S, "c"], "edges": [{"u": S, "v": "c", "label": 1}]}),
    ("alternatives", {"kind": "domain", "alternatives": [S, "c"], "preferences": [[S, "c"], ["c", S]]}),
    ("ground", {"kind": "lattice", "ground": [S, "c"], "nodes": [[], [S], ["c"], [S, "c"]]}),
    ("rows", {"kind": "matrix", "rows": ["c", S], "columns": ["00", "10", "01", "11"]}),
], ids=["vine", "matgraph", "domain", "lattice", "matrix"])
def test_a_label_utf8_cannot_encode_is_refused(write, field, doc, capsys):
    """Every output writes the labels, so VALID would promise conversions
    that cannot be written; the ground array holds every label."""
    path = write("s.json", json.dumps(doc))
    for argv in (["verify", path], ["convert", path, "--to", "domain", "--format", "text"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: parse.payload: {field} holds '\\ud800', which UTF-8 cannot encode\n")


@pytest.mark.parametrize("label", ["a\nb", "a\u2028b", "a\n", "a\r\nb"], ids=["newline", "U+2028", "trailing", "CRLF"])
def test_a_label_holding_a_line_break_is_refused(write, label, capsys):
    """The text formats write one row, node or edge per line, so a label
    that `str.splitlines` would split is refused as every output would be."""
    doc = {"kind": "vine", "ground": [label, "c"], "nodes": [[label], ["c"], [label, "c"]]}
    path = write("s.json", json.dumps(doc))
    for argv in (["verify", path], ["convert", path, "--to", "domain", "--format", "text"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: parse.payload: ground holds {label!r}, which holds a line break\n")


# ---------------------------------------------------------------- convert

def test_convert_direct_equals_transport(write, intro_graph, intro_domain, capsys):
    path = write("g.json", intro_graph)
    outputs = {}
    for via in ("direct", "transport"):
        assert cli.main(["convert", path, "--to", "domain", "--via", via]) == 0
        outputs[via] = capsys.readouterr().out
    assert outputs["direct"] == outputs["transport"] == io.dumps(intro_domain)


def test_convert_all_targets(write, intro_vine, capsys):
    path = write("v.json", intro_vine)
    for to in io.KINDS:
        assert cli.main(["convert", path, "--to", to]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == to


def test_convert_formats(write, intro_vine, capsys):
    path = write("v.json", intro_vine)
    assert cli.main(["convert", path, "--to", "domain", "--format", "text"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert cli.main(["convert", path, "--to", "matgraph", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph matgraph {")


def test_convert_rejects_invalid_input(write, capsys):
    path = write("bad.json", json.dumps(
        {"kind": "vine", "ground": ["a", "b"], "nodes": [["a"], ["b"]]}))
    assert cli.main(["convert", path, "--to", "domain"]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_convert_dot_unavailable_is_domain_failure(write, intro_domain, capsys):
    path = write("d.json", intro_domain)
    assert cli.main(["convert", path, "--to", "domain", "--format", "dot"]) == 1
    assert "format.dot" in capsys.readouterr().err


# ---------------------------------------------------------------- analyze

def test_analyze_domain_json(write, intro_domain, capsys):
    path = write("d.json", intro_domain)
    assert cli.main(["analyze", path, "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 4
    assert info["richness"] == 2
    assert info["first_rank"] == {"a": 1, "b": 4, "c": 2, "d": 1}
    assert info["bottom_alternatives"] == ["a", "d"]
    assert info["is_c_vine"] and not info["is_d_vine"]
    assert info["aut_order"] == 2
    assert info["cross_checks"]


def test_analyze_cross_check_failure_raises(write, intro_domain, monkeypatch, capsys):
    path = write("d.json", intro_domain)
    monkeypatch.setattr(dm, "richness_direct", lambda d: -1)
    assert cli.main(["analyze", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: richness cross-check failed\n"


def test_analyze_first_rank_cross_check_failure_raises(write, intro_domain, monkeypatch, capsys):
    path = write("d.json", intro_domain)
    monkeypatch.setattr(dm, "first_rank_distribution", lambda d: {})
    assert cli.main(["analyze", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: first-rank cross-check failed\n"


def test_analyze_validates_the_vine_once(write, monkeypatch, seed, capsys):
    """On input only: the maps trust valid input and check nothing they
    build, and the analytics run on the cores."""
    v = gen.random_vine("abcdefgh", random.Random(seed))
    L = lt.vine_to_lattice(v)
    objs = [co.vine_to_graph(v), v, co.vine_to_domain(v), L, lt.lattice_to_matrix(L)]
    calls = []
    validate = vn.validate_vine

    def counting(x):
        calls.append(x)
        return validate(x)

    monkeypatch.setattr(vn, "validate_vine", counting)
    for obj in objs:
        path = write(f"{io.kind_of(obj)}.json", obj)
        calls.clear()
        assert cli.main(["analyze", path, "--format", "json"]) == 0
        assert len(calls) == (io.kind_of(obj) == "vine"), io.kind_of(obj)
        capsys.readouterr()


def test_one_patch_of_the_vine_validator_sees_every_caller(write, intro_vine, monkeypatch, capsys):
    """The vine row looks `vine.validate_vine` up in its module at call time,
    so a patch there alone sees verify, convert, analyze and
    `routes.convert_structure` validate their input."""
    calls = []
    validate = vn.validate_vine
    monkeypatch.setattr(vn, "validate_vine", lambda v: calls.append(v) or validate(v))
    path = write("vine.json", intro_vine)
    for argv in (["verify", path], ["convert", path, "--to", "matgraph"], ["analyze", path]):
        calls.clear()
        assert cli.main(argv) == 0, argv
        assert calls == [intro_vine], argv
    calls.clear()
    routes.convert_structure(intro_vine, "matgraph")
    assert calls == [intro_vine]
    capsys.readouterr()


def test_analyze_trd_examples(write, capsys):
    trd1 = {"kind": "domain", "alternatives": list("abcd"),
            "preferences": [list(w) for w in
                            ("abcd", "bacd", "bcad", "cbad", "bcda", "cbda", "cdba", "dcba")]}
    path = write("trd1.json", json.dumps(trd1))
    assert cli.main(["analyze", path, "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["richness"] == 3
    assert info["first_rank"] == {"a": 1, "b": 3, "c": 3, "d": 1}
    assert info["is_bspd"] and info["bspd_axis"] == ["a", "b", "c", "d"]
    assert info["is_d_vine"]


def test_analyze_trd1_prints_its_axis(write, trd1, capsys):
    path = write("trd1.json", trd1)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "bspd_axis: ['a', 'b', 'c', 'd']\n" in out
    assert "bottom_alternatives: ['a', 'd']\n" in out


def test_analyze_c_vine_has_no_axis(write, intro_vine, capsys):
    path = write("v.json", intro_vine)
    assert cli.main(["analyze", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"bspd_axis": null' in out and '"is_bspd": false' in out
    info = json.loads(out)
    assert info["is_c_vine"] and not info["is_d_vine"]


def test_analyze_small_n_richness_note(write, capsys):
    doc = {"kind": "domain", "alternatives": ["a", "b"],
           "preferences": [["a", "b"], ["b", "a"]]}
    path = write("d2.json", json.dumps(doc))
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "richness: 2" in out
    assert "bounds apply for n >= 3" in out


def test_analyze_text_format(write, intro_vine, capsys):
    path = write("v.json", intro_vine)
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "richness: 2" in out
    assert "bspd_axis" not in out        # None fields are omitted in text mode


# ------------------------------------------------------------------ count

def test_count_formula_mode(capsys):
    assert cli.main(["count", "--n", "6"]) == 0
    assert capsys.readouterr().out == "n=6 labeled=23040 unlabeled=40 p=16 q=24\n"


def test_count_recursive_mode(capsys):
    assert cli.main(["count", "--n", "12", "--mode", "recursive"]) == 0
    out = capsys.readouterr().out
    assert "unlabeled=17626824704000" in out


def test_count_generate_mode(capsys):
    assert cli.main(["count", "--n", "4", "--mode", "generate"]) == 0
    assert capsys.readouterr().out == "n=4 labeled=24 (agrees with formula value 24)\n"


# (exit code, stdout, stderr) of `count --n k --mode generate`, k = 0..6, as
# recorded from counting the frozenset vines of `generate_vines`: counting
# the mask stream must give the same bytes
GENERATE_MODE_OUTPUT = {
    k: (0, f"n={k} labeled={total} (agrees with formula value {total})\n", "")
    for k, total in enumerate((1, 1, 1, 3, 24, 480))
}
GENERATE_MODE_OUTPUT[6] = (0, "n=6 labeled=23040 (agrees with formula value 23040)\n",
                           "... 5000 vines\n... 10000 vines\n... 15000 vines\n... 20000 vines\n")


@pytest.mark.parametrize("k", range(7))
def test_count_generate_mode_output_is_pinned(k, capsys):
    code = cli.main(["count", "--n", str(k), "--mode", "generate"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == GENERATE_MODE_OUTPUT[k]


def test_count_generate_mode_builds_no_vine(monkeypatch, capsys):
    """Up to n = 6 the command counts the mask stream, not `generate_vines`."""
    def refuse(*args):
        raise AssertionError("count --mode generate built frozenset vines")
    monkeypatch.setattr(gen, "generate_vines", refuse)
    code = cli.main(["count", "--n", "6", "--mode", "generate"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == GENERATE_MODE_OUTPUT[6]


def test_count_generate_dp_n8(capsys):
    assert cli.main(["count", "--n", "8", "--mode", "generate"]) == 0
    assert capsys.readouterr().out == "n=8 labeled=660602880 (agrees with formula value 660602880)\n"


def test_count_generate_dp_n10(capsys):
    assert cli.main(["count", "--n", "10", "--mode", "generate"]) == 0
    assert capsys.readouterr().out == "n=10 labeled=487049291366400 (agrees with formula value 487049291366400)\n"


def test_count_generate_cap(capsys):
    for n in ("11", "-1"):
        assert cli.main(["count", "--n", n, "--mode", "generate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "generate mode capped at 0 <= n <= 10\n"


def test_count_formula_cap(capsys):
    assert cli.main(["count", "--n", "65"]) == 1


def test_count_n0_agrees_across_modes_and_negative_n_is_refused(capsys):
    assert cli.main(["count", "--n", "0"]) == 0
    assert capsys.readouterr().out == "n=0 labeled=1 unlabeled=1 p=0 q=1\n"
    assert cli.main(["count", "--n", "0", "--mode", "generate"]) == 0
    assert capsys.readouterr().out == "n=0 labeled=1 (agrees with formula value 1)\n"
    assert cli.main(["count", "--n", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumerate.range" in captured.err


# ---------------------------------------------------------------- catalog

def test_catalog_writes_deterministic_files(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert cli.main(["catalog", "--n", "4", "--out", str(out)]) == 0
        capsys.readouterr()
    for name in ("catalog_n4.jsonl", "catalog_n4.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    lines = (out1 / "catalog_n4.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["n"] == 4


# sha256 of catalog_n{n}.jsonl and catalog_n{n}.txt: the catalog's bytes
# stay the same whatever route builds them
CATALOG_SHA256 = {
    1: ("683aa18ed9975034f675029d69db2257ab052911bdb9f785fb38883d4d8b2de3",
        "b775607684b86eaabffe4fea3ed5c755e0b5672a98cdb46af2be605e307168da"),
    2: ("7dfe1715ac31553f7aec248b8b871f07657a0b13c8ff8b8d4c2f4b3e062a41bf",
        "f3e71800f206a6e28b1452650f68937f81b64b6a9467b55bcf5e348fe5aa1cf1"),
    3: ("9f74daccb83da2456e95e6c9507c9f0ea0e889374b329cec56896a379b018391",
        "840daf7d4bddd487548d236adeab2ec45d8375ddac8a3779516fc85066692499"),
    4: ("ffef2bedc0e85f5738111fbfc6a9b9520e46aa77834f8f88b2af20cbc795c0c6",
        "190ca777e19002d8fe03c2e6e8a21595e12b88473fac448647fc85726aabe0c9"),
    5: ("61be6b386c3215de484669b319b70ef42d5ba29c487c926c3c3951409469363a",
        "166189cc7065a62d2f4e5d012eaba193313fd93f3717fdd7ef1793918414e533"),
    6: ("4eb77485a3c73897f896e63ea6bbb4ef07041b3798485f16a952ce6eee317237",
        "9a90658d7ab5d194cea41d6a35ec9b45a6ecf3359a13f294a14346a6d37286c8"),
    7: ("636dd538582aea2b9ff42d4091e44e15a2090a2084394a19457a0f36efdc59a8",
        "ace4f8a732f310d28cdd1509e472eeb6fbc7da5ee30b3c1c73438c309548808d"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_catalog_bytes_are_pinned(tmp_path, capsys):
    for n in range(1, 7):
        assert cli.main(["catalog", "--n", str(n), "--out", str(tmp_path)]) == 0
        digests = tuple(_sha256(tmp_path / f"catalog_n{n}.{ext}") for ext in ("jsonl", "txt"))
        assert digests == CATALOG_SHA256[n], n
    capsys.readouterr()


def test_catalog_range(capsys, tmp_path):
    assert cli.main(["catalog", "--n", "8", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "catalog supports 1 <= n <= 7\n"


def test_catalog_reads_its_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(gen, "CATALOG_CAP", 3)
    assert cli.main(["catalog", "--n", "4", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "catalog supports 1 <= n <= 3\n"


def test_a_failed_class_check_leaves_no_catalog_file(monkeypatch, capsys, tmp_path):
    """`catalog_entries` builds and checks the class table when called, so
    a failed check stops the catalog before its files are opened."""
    formula = gen.unlabeled_count_formula
    monkeypatch.setattr(gen, "unlabeled_count_formula", lambda n: formula(n) + (n == 5))
    assert cli.main(["catalog", "--n", "5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: internal: 6 doubled classes")
    assert list(tmp_path.iterdir()) == []


def test_catalog_at_its_cap(tmp_path, capsys, reps7):
    """catalog --n 7: one line per class, in the order of
    `class_representatives(7)`, with orbits adding up to the labeled count."""
    assert cli.main(["catalog", "--n", "7", "--out", str(tmp_path)]) == 0
    entries = [json.loads(line) for line in (tmp_path / "catalog_n7.jsonl").read_text().splitlines()]
    assert len(entries) == 560
    assert sum(e["orbit_size"] for e in entries) == gen.labeled_count_formula(7)
    assert [e["vine_nodes"] for e in entries] == [[sorted(s) for s in v.sorted_nodes()] for v in reps7]
    assert (_sha256(tmp_path / "catalog_n7.jsonl"), _sha256(tmp_path / "catalog_n7.txt")) == CATALOG_SHA256[7]


# ------------------------------------------------------- errors, selftest

def test_missing_file_is_io_failure(capsys):
    assert cli.main(["verify", "/no/such/file.json"]) == 2


def test_malformed_json_is_parse_failure(write, capsys):
    path = write("junk.json", "{not json")
    assert cli.main(["verify", path]) == 2


@pytest.mark.parametrize("content", [b"[" * 200_000, b"\xff\xfe{}"], ids=["deep-nesting", "not-utf8"])
@pytest.mark.parametrize("command", [["verify"], ["convert", "--to", "vine"], ["analyze"]],
                         ids=["verify", "convert", "analyze"])
def test_undecodable_json_is_parse_failure(tmp_path, capsys, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_an_integer_past_the_digit_limit_is_a_parse_failure(write, capsys):
    path = write("g.json", '{"kind": "matgraph", "vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "label": 1%s}]}'
                 % ("0" * 5000))
    assert cli.main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_bad_envelope_is_domain_failure(write, capsys):
    path = write("nokind.json", "{}")
    assert cli.main(["verify", path]) == 1


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "selftest: OK"


def test_parser_is_built_once_and_survives_a_rejected_argv(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        cli.main(["count", "--n", "four"])
    capsys.readouterr()
    assert cli.main(["count", "--n", "6", "--mode", "recursive"]) == 0
    fresh = subprocess.run([sys.executable, "-m", "vinery.cli", "count", "--n", "6", "--mode", "recursive"],
                           capture_output=True, text=True)
    assert capsys.readouterr().out == fresh.stdout == "n=6 unlabeled=40 p=16 q=24\n"


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vinery.cli", "count", "--n", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "n=4 labeled=24 unlabeled=2 p=2 q=0\n"
