"""MAT-labeled graphs: construction, validation, simplicial vertices,
elimination orderings, split/merge."""

import json
import random
import string
import time
from itertools import combinations, permutations

import pytest

from vinery import cli
from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import matgraph as mg
from vinery import routes
from vinery import species as sp
from vinery import vine as vn
from vinery.errors import StructureError, Violation

from conftest import INTRO_PREFS, FIG_PREFS, random_relabeling, sample_vines, split_with_shared
from oracles import (enumerate_mat_peos_by_prefix_check, mat_labelings, triangle_partners_by_labels,
                     validate_mat_labeling_by_labels)


# ----------------------------------------------------------- construction

def test_edge_key_sorts():
    assert mg.edge_key("b", "a") == ("a", "b")
    assert mg.edge_key("a", "b") == ("a", "b")


@pytest.mark.parametrize("edges,axiom", [
    ([("a", "a", 1)], "matgraph.simple"),
    ([("a", "x", 1)], "matgraph.vertices"),
    ([("a", "b", 0)], "matgraph.positive-label"),
    ([("a", "b", -2)], "matgraph.positive-label"),
    ([("a", "b", 1), ("b", "a", 1)], "matgraph.duplicate-edge"),
])
def test_factory_rejects_malformed_input(edges, axiom):
    with pytest.raises(StructureError) as exc:
        mg.mat_graph("abc", edges)
    assert exc.value.axiom == axiom


def test_graph_accessors(intro_graph):
    assert intro_graph.n == 4
    assert intro_graph.is_complete()
    assert intro_graph.label("d", "a") == 3
    assert intro_graph.label("a", "x") is None
    assert intro_graph.neighbors("b") == {"a", "c", "d"}
    assert intro_graph.edges() == [("a", "b"), ("a", "c"), ("a", "d"),
                                   ("b", "c"), ("b", "d"), ("c", "d")]


# ------------------------------------------------------------- validation

def test_worked_examples_are_valid(intro_graph, fig_graph):
    assert mg.validate_mat_labeling(intro_graph) == []
    assert mg.validate_mat_labeling(fig_graph) == []


def test_all_ones_triangle_is_cyclic():
    g = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    report = mg.validate_mat_labeling(g)
    assert any(v.axiom == "matgraph.acyclic" for v in report)


def test_lower_edge_closing_a_level_cycle_is_rejected():
    # b-c (label 1) joins two vertices already connected by level-2 edges
    g = mg.mat_graph("abc", [("a", "b", 2), ("a", "c", 2), ("b", "c", 1)])
    report = mg.validate_mat_labeling(g)
    assert any(v.axiom == "matgraph.acyclic" for v in report)


def test_triangle_count_violation():
    # label 2 on a-d closes no lower triangle
    g = mg.mat_graph("ad", [("a", "d", 2)])
    report = mg.validate_mat_labeling(g)
    assert [v.axiom for v in report] == ["matgraph.triangles"]
    assert report[0].witness == ("a", "d", 2)


def test_require_valid_raises_with_axiom(intro_graph):
    mg.require_valid(intro_graph)  # does not raise
    bad = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    with pytest.raises(StructureError) as exc:
        mg.require_valid(bad)
    assert exc.value.axiom == "matgraph.acyclic"


def test_validation_is_literal_on_incomplete_graphs():
    # a path with both labels 1 satisfies both conditions as stated
    g = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)])
    assert mg.validate_mat_labeling(g) == []


def test_triangle_partners(intro_graph):
    assert mg.triangle_partners(intro_graph, "a", "d") == {"b", "c"}
    assert mg.triangle_partners(intro_graph, "a", "b") == set()
    assert mg.triangle_partners(intro_graph, "c", "d") == {"b"}


def test_triangle_partners_of_a_non_edge_names_the_pair():
    g = mg.mat_graph("abc", [("a", "b", 1)])
    for u, v in (("a", "c"), ("c", "a"), ("a", "z"), ("a", "a")):
        with pytest.raises(StructureError) as exc:
            mg.triangle_partners(g, u, v)
        assert exc.value.axiom == "matgraph.edge"
        assert exc.value.witness == (u, v)


UNKNOWN_VERTEX_GRAPH = mg.MatLabeledGraph(frozenset("ab"), {("a", "x"): 1})


@pytest.mark.parametrize("call, axiom", [
    (lambda: mg.triangle_partners(UNKNOWN_VERTEX_GRAPH, "a", "x"), "matgraph.vertices"),
    (lambda: mg.is_mat_peo(UNKNOWN_VERTEX_GRAPH, ("a", "b")), "matgraph.vertices"),
    (lambda: dm.is_aspd(dm.PreferenceDomain(frozenset("ab"), frozenset({("a", "x")}))), None),
], ids=["triangle_partners", "is_mat_peo", "is_aspd"])
def test_a_label_outside_the_ground_set_raises_no_key_error(call, axiom):
    """A graph whose label key names a vertex it lacks is refused under the
    axiom `validate_mat_labeling` reports; `is_aspd` gives every label the
    preferences hold a row and answers."""
    if axiom is None:
        assert call() == (True, None)
        return
    assert mg.validate_mat_labeling(UNKNOWN_VERTEX_GRAPH)[0].axiom == axiom
    with pytest.raises(StructureError) as exc:
        call()
    assert exc.value.axiom == axiom


def _mutations(g: mg.MatLabeledGraph):
    """Every graph one change away from g: two labels swapped, one label
    raised above n - 1, or one edge dropped (an incomplete graph)."""
    edges = g.edges()
    for e, f in combinations(edges, 2):
        if g.labels[e] != g.labels[f]:
            yield mg.MatLabeledGraph(g.vertices, {**g.labels, e: g.labels[f], f: g.labels[e]})
    for e in edges:
        yield mg.MatLabeledGraph(g.vertices, {**g.labels, e: g.n})
        yield mg.MatLabeledGraph(g.vertices, {x: k for x, k in g.labels.items() if x != e})


def _assert_validator_matches_oracle(g: mg.MatLabeledGraph):
    assert mg.validate_mat_labeling(g) == validate_mat_labeling_by_labels(g)
    for u, v in g.edges():
        assert mg.triangle_partners(g, u, v) == triangle_partners_by_labels(g, u, v)


def test_validate_mat_labeling_matches_label_oracle(vines_by_n, seed):
    """The same reports, byte for byte, and the same triangle partners as the
    level-by-level label-lookup oracle: on the graph of every labeled vine
    with n <= 5, every mutation of those with n <= 4, and every mutation of
    seeded n = 5..8 graphs."""
    for n in range(6):
        for v in vines_by_n[n]:
            g = co.vine_to_graph(v)
            _assert_validator_matches_oracle(g)
            if n <= 4:
                for bad in _mutations(g):
                    _assert_validator_matches_oracle(bad)
    rng = random.Random(seed)
    for n in range(5, 9):
        for v in sample_vines(n, 2, rng):
            for bad in _mutations(co.vine_to_graph(v)):
                _assert_validator_matches_oracle(bad)


def test_validate_mat_labeling_matches_label_oracle_on_every_k4_labeling():
    """Every labeling of K4 with labels 1..3, valid or not."""
    for g in mat_labelings(4):
        assert mg.validate_mat_labeling(g) == validate_mat_labeling_by_labels(g)


def distinct_labels(n: int) -> mg.MatLabeledGraph:
    """K_n with the labels 1..C(n, 2), in edge order: one edge per level."""
    names = [f"v{i:02d}" for i in range(n)]
    return mg.MatLabeledGraph(frozenset(names), {e: k for k, e in enumerate(combinations(names, 2), 1)})


def test_acyclicity_looks_only_inside_each_levels_components():
    """A lower edge can close a cycle only inside a component of its
    level's edges, so one edge per level costs one pair per level: n = 80
    with 3,160 distinct labels."""
    assert mg.validate_mat_labeling(distinct_labels(12)) == validate_mat_labeling_by_labels(distinct_labels(12))
    g = distinct_labels(80)
    t0 = time.perf_counter()
    report = mg.validate_mat_labeling(g)
    assert time.perf_counter() - t0 < 0.5
    assert {x.axiom for x in report} == {"matgraph.triangles"} and len(report) == 3159


@pytest.mark.parametrize("labels, axiom", [
    ({("c", "a"): 1, ("a", "b"): 1, ("b", "c"): 2}, "matgraph.simple"),
    ({("a", "a"): 1}, "matgraph.simple"),
    ({("a",): 1}, "matgraph.simple"),
    ({("a", "x"): 1}, "matgraph.vertices"),
    ({("a", "b"): 0}, "matgraph.positive-label"),
    ({("a", "b"): True}, "matgraph.positive-label"),
    ({("a", "b"): 1.0}, "matgraph.positive-label"),
])
def test_validator_refuses_what_the_factory_refuses(labels, axiom):
    """Under the factory's axiom names, and alone: a key ("c", "a") would
    leave g.label("a", "c") None."""
    g = mg.MatLabeledGraph(frozenset("abc"), labels)
    assert [x.axiom for x in mg.validate_mat_labeling(g)] == [axiom]
    assert mg.validate_matgraph(g)[0].axiom == axiom
    with pytest.raises(StructureError) as exc:
        co.graph_to_vine(g)
    assert exc.value.axiom == axiom


def test_a_huge_label_is_reported_without_a_level_walk(tmp_path, capsys):
    """Only the levels that carry a label are visited, so a label of 10**18
    gets its triangle report at once; a walk over every level would take
    seconds at 10**7 and never end at 10**18."""
    t0 = time.perf_counter()
    assert mg.validate_mat_labeling(mg.mat_graph("abc", [("a", "b", 10 ** 7)]))[0].axiom == "matgraph.triangles"
    assert time.perf_counter() - t0 < 1
    k = 10 ** 18
    report = mg.validate_mat_labeling(mg.mat_graph("abc", [("a", "b", k)]))
    assert report == [Violation("matgraph.triangles", ("a", "b", k),
                                f"edge a-b (label {k}) closes 0 lower triangles, expected {k - 1}")]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "matgraph", "vertices": ["a", "b", "c"],
                                "edges": [{"u": "a", "v": "b", "label": k}]}))
    for argv in (["verify", str(path)], ["convert", str(path), "--to", "vine"], ["analyze", str(path)]):
        assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out.startswith("INVALID matgraph.triangles: edge a-b")
    assert time.perf_counter() - t0 < 5


# ------------------------------------------------- MAT-simplicial vertices

def test_simplicial_vertices_are_max_edge_endpoints(intro_graph, fig_graph):
    assert mg.mat_simplicial_vertices(intro_graph) == frozenset("ad")
    assert mg.mat_simplicial_vertices(fig_graph) == frozenset("ae")


def test_simplicial_vertices_property(vines_by_n):
    from vinery import correspond as co
    for n in (2, 3, 4):
        for v in vines_by_n[n]:
            g = co.vine_to_graph(v)
            simp = mg.mat_simplicial_vertices(g)
            assert len(simp) == 2
            maxlab = max(g.labels.values())
            (top_edge,) = [e for e, k in g.labels.items() if k == maxlab]
            assert simp == frozenset(top_edge)


# -------------------------------------------------- elimination orderings

def test_is_mat_peo_examples(intro_graph):
    assert mg.is_mat_peo(intro_graph, ("a", "b", "c", "d"))
    assert mg.is_mat_peo(intro_graph, ("d", "b", "c", "a"))
    assert not mg.is_mat_peo(intro_graph, ("d", "a", "b", "c"))
    assert not mg.is_mat_peo(intro_graph, ("c", "a", "b", "d"))


def test_is_mat_peo_requires_permutation(intro_graph):
    with pytest.raises(StructureError) as exc:
        mg.is_mat_peo(intro_graph, ("a", "b"))
    assert exc.value.axiom == "matgraph.ordering"


def test_enumerate_mat_peos_intro(intro_graph):
    peos = routes.convert_structure(intro_graph, "domain").sorted_prefs()
    assert peos == sorted(tuple(w) for w in INTRO_PREFS)
    assert len(peos) == 2 ** (4 - 1)


def test_enumerate_mat_peos_fig(fig_graph):
    peos = routes.convert_structure(fig_graph, "domain").sorted_prefs()
    assert peos == sorted(tuple(w) for w in FIG_PREFS)


def test_enumerate_mat_peos_agrees_with_pointwise_check(intro_graph):
    from itertools import permutations
    expected = [w for w in permutations(sorted(intro_graph.vertices))
                if mg.is_mat_peo(intro_graph, w)]
    assert routes.convert_structure(intro_graph, "domain").sorted_prefs() == expected


def test_enumerate_mat_peos_matches_permutation_filter():
    """The chains of the graph's vine equal the is_mat_peo filter over all
    orderings, for the graph of every class with n <= 6."""
    for n in range(1, 7):
        for v in gen.class_representatives(n):
            g = co.vine_to_graph(v)
            expected = [w for w in permutations(sorted(g.vertices)) if mg.is_mat_peo(g, w)]
            assert routes.convert_structure(g, "domain").sorted_prefs() == expected


def test_enumerate_mat_peos_matches_prefix_check_oracle(vines_by_n, seed):
    """The chains of the graph's vine, sorted, are the prefix-check
    oracle's list, on the graph of every labeled vine with n <= 5 and on
    seeded graphs with n = 6..11."""
    graphs = [co.vine_to_graph(v) for n in range(6) for v in vines_by_n[n]]
    rng = random.Random(seed)
    graphs += [co.vine_to_graph(gen.random_vine(string.ascii_lowercase[:n], rng))
               for n in range(6, 12) for _ in range(2)]
    for g in graphs:
        assert routes.convert_structure(g, "domain").sorted_prefs() == enumerate_mat_peos_by_prefix_check(g)


def test_enumerate_mat_peos_requires_complete():
    g = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(StructureError) as exc:
        routes.convert_structure(g, "domain").sorted_prefs()
    assert exc.value.axiom == "matgraph.complete"


# ------------------------------------------------------------ split/merge

def test_split_intro(intro_graph):
    g1, g2, gp = split_with_shared(sp.GRAPH, intro_graph)
    assert g1 == mg.mat_graph("abc", [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)])
    assert g2 == mg.mat_graph("bcd", [("b", "c", 1), ("b", "d", 1), ("c", "d", 2)])
    assert gp == mg.mat_graph("bc", [("b", "c", 1)])


def test_split_fig_shared_part(fig_graph):
    g1, g2, gp = split_with_shared(sp.GRAPH, fig_graph)
    assert gp == mg.mat_graph("bcd", [("b", "c", 1), ("b", "d", 2), ("c", "d", 1)])


def test_split_removes_the_mat_simplicial_vertices(seed):
    """On every class n <= 6 under a random relabeling."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for rep in gen.class_representatives(n):
            g = co.vine_to_graph(vn.relabel_vine(rep, random_relabeling(rep.ground, rng)))
            a1, a2 = sorted(mg.mat_simplicial_vertices(g))
            g1, g2, gp = split_with_shared(sp.GRAPH, g)
            assert (g1.vertices, g2.vertices, gp.vertices) == (g.vertices - {a2}, g.vertices - {a1},
                                                               g.vertices - {a1, a2})


def test_merge_recovers_split(intro_graph, fig_graph):
    for g in (intro_graph, fig_graph):
        g1, g2, _ = split_with_shared(sp.GRAPH, g)
        assert sp.GRAPH.merge(sp.SplitPair(g1, g2)) == g
        assert sp.GRAPH.merge(sp.SplitPair(g2, g1)) == g


def test_merge_requires_coatoms(intro_graph):
    g1, _, gp = split_with_shared(sp.GRAPH, intro_graph)
    with pytest.raises(StructureError) as exc:
        sp.GRAPH.merge(sp.SplitPair(g1, gp))
    assert exc.value.axiom == "matgraph.coatoms"


def test_merge_disagreeing_restrictions_is_none():
    g1 = mg.mat_graph("abc", [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)])
    g2 = mg.mat_graph("abd", [("a", "b", 2), ("a", "d", 1), ("b", "d", 1)])
    # g2's top edge is a-b, so its split has no half on the shared {a, b}
    # (and the shared restrictions carry labels 1 vs 2)
    assert sp.GRAPH.merge(sp.SplitPair(g1, g2)) is None


def test_merge_k1_halves():
    g1 = mg.mat_graph("a", [])
    g2 = mg.mat_graph("b", [])
    merged = sp.GRAPH.merge(sp.SplitPair(g1, g2))
    assert merged == mg.mat_graph("ab", [("a", "b", 1)])


def test_split_requires_valid_complete():
    # the split is reached from checked entries only; check_proximity is the one that splits
    with pytest.raises(StructureError) as exc:
        sp.check_proximity(sp.GRAPH, mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)]))
    assert exc.value.axiom == "matgraph.complete"


# --------------------------------------------------------------- relabeling

def test_relabel_swap_fixes_intro(intro_graph):
    # swapping the two simplicial vertices is an automorphism
    h = {"a": "d", "b": "b", "c": "c", "d": "a"}
    assert mg.relabel_graph(intro_graph, h) == intro_graph


def test_relabel_moves_labels(intro_graph):
    h = {"a": "w", "b": "x", "c": "y", "d": "z"}
    out = mg.relabel_graph(intro_graph, h)
    assert out.vertices == frozenset("wxyz")
    assert out.label("w", "z") == 3
    assert mg.validate_mat_labeling(out) == []
