"""The four explicit bijections between the vine and graphs and domains,
and graph <-> domain, their composition through the vine in `routes`."""

from itertools import combinations

import pytest

from vinery import correspond as co
from vinery import domain as dm
from vinery import matgraph as mg
from vinery import routes
from vinery import vine as vn
from vinery.errors import StructureError

from oracles import enumerate_mat_peos_by_prefix_check


# ------------------------------------------------------- worked examples

def test_intro_triple_maps(intro_graph, intro_vine, intro_domain):
    assert co.graph_to_vine(intro_graph) == intro_vine
    assert co.vine_to_graph(intro_vine) == intro_graph
    assert routes.convert_structure(intro_graph, "domain") == intro_domain
    assert routes.convert_structure(intro_domain, "matgraph") == intro_graph
    assert co.vine_to_domain(intro_vine) == intro_domain
    assert co.domain_to_vine(intro_domain) == intro_vine


def test_fig_triple_maps(fig_graph, fig_vine, fig_domain):
    assert co.graph_to_vine(fig_graph) == fig_vine
    assert co.vine_to_graph(fig_vine) == fig_graph
    assert routes.convert_structure(fig_graph, "domain") == fig_domain
    assert routes.convert_structure(fig_domain, "matgraph") == fig_graph
    assert co.vine_to_domain(fig_vine) == fig_domain
    assert co.domain_to_vine(fig_domain) == fig_vine


def test_convert_structure_refuses_an_unknown_route_or_kind(intro_vine):
    for args, axiom in (((intro_vine, "domain", "teleport"), "convert.via"), ((intro_vine, "frobnicate"), "convert.kind")):
        with pytest.raises(StructureError) as exc:
            routes.convert_structure(*args)
        assert exc.value.axiom == axiom


def test_tiny_cases():
    assert co.vine_to_domain(vn.vine("", [])) == dm.domain("", [()])
    assert co.vine_to_domain(vn.vine("a", ["a"])) == dm.domain("a", [("a",)])
    assert co.graph_to_vine(mg.MatLabeledGraph(frozenset("a"), {})) == vn.vine("a", ["a"])
    two = mg.mat_graph("ab", [("a", "b", 1)])
    assert routes.convert_structure(two, "domain") == dm.domain("ab", [("a", "b"), ("b", "a")])
    assert routes.convert_structure(routes.convert_structure(two, "domain"), "matgraph") == two


# --------------------------------------------------------- input checking

def test_graph_maps_require_complete_valid_input():
    path = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(StructureError) as exc:
        co.graph_to_vine(path)
    assert exc.value.axiom == "matgraph.complete"
    bad = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    with pytest.raises(StructureError):
        routes.convert_structure(bad, "domain")


def test_domain_maps_require_maximal_aspd():
    d = dm.domain("abc", [("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    for f in (lambda x: routes.convert_structure(x, "matgraph"), co.domain_to_vine):
        with pytest.raises(StructureError) as exc:
            f(d)
        assert exc.value.axiom == "domain.never-bottom"


def test_vine_maps_require_valid_vine():
    broken = vn.RegularVine(frozenset("abc"), frozenset({frozenset("a")}))
    with pytest.raises(StructureError):
        co.vine_to_graph(broken)
    with pytest.raises(StructureError):
        co.vine_to_domain(broken)


# ------------------------------------------------ inverses and commuting

def test_maps_mutually_inverse_exhaustive_small(vines_by_n):
    for n in range(5):
        for v in vines_by_n[n]:
            g = co.vine_to_graph(v)
            d = co.vine_to_domain(v)
            assert co.graph_to_vine(g) == v
            assert co.domain_to_vine(d) == v


def test_maps_commute_exhaustive_small(vines_by_n):
    for n in range(5):
        for v in vines_by_n[n]:
            g = co.vine_to_graph(v)
            d = co.vine_to_domain(v)
            # graph <-> domain factor through the vine by definition, so they
            # are held to the paper's explicit maps: the MAT-PEOs, and the
            # topmost contiguous position of every pair
            assert routes.convert_structure(g, "domain").sorted_prefs() == enumerate_mat_peos_by_prefix_check(g)
            assert routes.convert_structure(d, "matgraph").labels == {
                (x, y): dm.topmost_contiguous_position(d, x, y) for x, y in combinations(sorted(d.alternatives), 2)}


def test_graph_labels_match_domain_positions(intro_graph, intro_domain):
    # the edge label equals the topmost contiguous position of the pair
    for (u, v), k in intro_graph.labels.items():
        assert dm.topmost_contiguous_position(intro_domain, u, v) == k


def test_graph_labels_match_vine_joins(fig_graph, fig_vine):
    for (u, v), k in fig_graph.labels.items():
        assert len(vn.join_node(fig_vine, u, v)) - 1 == k
