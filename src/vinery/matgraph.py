"""MAT-labeled graphs.

A MAT-labeling of a simple graph assigns a positive integer to every edge so
that, for every level k, (1) the edges with label <= k form no cycle and
(2) every edge with label k closes exactly k-1 triangles with strictly lower
labeled edges.  On complete graphs these labelings admit a split/merge
recursion driven by the two MAT-simplicial vertices, which are always the
endpoints of the unique edge carrying the largest label.

The principal clique of an edge {u, v} is {u, v} plus its triangle
partners, the vertices c with both labels to u and v below the edge's.
Each graph object finds them once: `MatLabeledGraph._view`, cached on first
use, holds the sorted vertices, their indices, one label matrix and one
principal-clique bitmask per labeled edge, for any graph, complete or not,
valid or not, whose keys are edge keys of its vertices.  Both axioms'
checks, `triangle_partners` and the map to the vine read it; its public
readers first refuse a malformed graph (`_malformed_edges`).

The MAT-PEOs of a valid complete graph are the maximal chains of its vine,
so its domain, `routes.convert_structure(g, "domain")`, lists them (the
argument is in the `correspond` docstring); `is_mat_peo` checks one
ordering by definition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import StructureError, Violation, _UnionFind, raise_first


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered-edge key: label-sorted pair."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, eq=True)
class MatLabeledGraph:
    vertices: frozenset
    labels: Mapping[tuple[str, str], int]  # edge_key -> positive label

    @property
    def n(self) -> int:
        return len(self.vertices)

    def label(self, u: str, v: str) -> Optional[int]:
        return self.labels.get(edge_key(u, v))

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self.labels)

    def is_complete(self) -> bool:
        return len(self.labels) == self.n * (self.n - 1) // 2

    def neighbors(self, v: str) -> set:
        return {b if a == v else a for (a, b) in self.labels if v in (a, b)}

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.labels.items()))))

    @functools.cached_property  # outside the fields: ==, hash and repr ignore it
    def _view(self) -> _View:
        return _index_view(self)


class _View(NamedTuple):
    """A graph's index view: vertex i is the i-th smallest vertex."""
    order: list           # the sorted vertices
    index: dict           # vertex -> its index
    lab: list             # label matrix; absent edges and the diagonal hold max label + 1
    cliques: dict         # edge key -> bitmask of its principal clique


def _index_view(g: MatLabeledGraph) -> _View:
    order = sorted(g.vertices)
    index = {x: i for i, x in enumerate(order)}
    absent = max(g.labels.values(), default=0) + 1
    lab = [[absent] * len(order) for _ in order]
    for (u, v), k in g.labels.items():
        lab[index[u]][index[v]] = lab[index[v]][index[u]] = k
    cliques = {}
    for (u, v), k in g.labels.items():
        # the diagonal and absent edges are never below k, so u, v and
        # vertices missing an edge to them are no partners
        partners = sum(1 << c for c, (ku, kv) in enumerate(zip(lab[index[u]], lab[index[v]]))
                       if ku < k and kv < k)
        cliques[(u, v)] = partners | 1 << index[u] | 1 << index[v]
    return _View(order, index, lab, cliques)


def mat_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]) -> MatLabeledGraph:
    """Build a graph from an edge list, rejecting malformed input."""
    vs = frozenset(vertices)
    labels: dict[tuple[str, str], int] = {}
    for u, v, k in edges:
        if u == v:
            raise StructureError("matgraph.simple", f"self loop at {u!r}", witness=(u, v))
        if u not in vs or v not in vs:
            raise StructureError("matgraph.vertices", f"edge {u!r}-{v!r} uses unknown vertex", witness=(u, v))
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise StructureError("matgraph.positive-label", f"label of {u!r}-{v!r} must be a positive integer", witness=(u, v, k))
        key = edge_key(u, v)
        if key in labels:
            raise StructureError("matgraph.duplicate-edge", f"duplicate edge {key}", witness=key)
        labels[key] = k
    return MatLabeledGraph(vs, labels)


def _malformed_edges(g: MatLabeledGraph) -> list[Violation]:
    """What `mat_graph` refuses, under its axiom names: a label key that is
    not the `edge_key` of two distinct vertices, or a label that is not a
    positive integer."""
    report: list[Violation] = []
    vs = g.vertices
    for key, k in g.labels.items():
        if not isinstance(key, tuple) or len(key) != 2 or key[0] == key[1]:
            report.append(Violation("matgraph.simple", key, f"edge key {key!r} is not a pair of distinct vertices"))
        elif key[0] not in vs or key[1] not in vs:
            report.append(Violation("matgraph.vertices", key, f"edge {key!r} uses unknown vertex"))
        elif key[0] > key[1]:
            report.append(Violation("matgraph.simple", key, f"edge key {key!r} is not the sorted pair"))
        elif not isinstance(k, int) or isinstance(k, bool) or k < 1:
            report.append(Violation("matgraph.positive-label", (*key, k),
                                    f"label of {key[0]!r}-{key[1]!r} must be a positive integer"))
    return report


def validate_mat_labeling(g: MatLabeledGraph) -> list[Violation]:
    """Check the two MAT axioms level by level; empty report means valid.
    A malformed graph (`_malformed_edges`) gets only that report."""
    report = _malformed_edges(g)
    if report or not g.labels:
        return report
    order, index, lab, cliques = g._view
    edges = sorted(g.labels.items())
    levels: dict[int, list] = {}
    for (u, v), k in edges:
        levels.setdefault(k, []).append((index[u], index[v]))
    # condition (1): no cycle inside pi_k plus at most one extra edge of
    # lower-or-equal label, i.e. pi_k is a forest and no lower edge joins
    # vertices already connected within pi_k; a level without edges joins
    # nothing, so only the labels present are visited, and a lower edge can
    # only join two vertices of one component of the level's edges
    for k in sorted(levels):
        uf = _UnionFind({i for e in levels[k] for i in e})
        for i, j in levels[k]:
            if not uf.union(i, j):
                u, v = order[i], order[j]
                report.append(Violation("matgraph.acyclic", (u, v, k), f"edge {u}-{v} closes a cycle within level {k}"))
        components: dict[int, list] = {}
        for i in sorted(uf.parent):
            components.setdefault(uf.find(i), []).append(i)
        for i, j in sorted((i, j) for c in components.values() for i, j in combinations(c, 2) if lab[i][j] < k):
            u, v = order[i], order[j]
            report.append(Violation("matgraph.acyclic", (u, v, k),
                                    f"edge {u}-{v} (label {lab[i][j]}) closes a cycle with level-{k} edges"))
    # condition (2): each level-k edge closes exactly k-1 triangles below
    for (u, v), k in edges:
        found = cliques[(u, v)].bit_count() - 2
        if found != k - 1:
            report.append(Violation("matgraph.triangles", (u, v, k),
                                    f"edge {u}-{v} (label {k}) closes {found} lower triangles, expected {k - 1}"))
    return report


def triangle_partners(g: MatLabeledGraph, u: str, v: str) -> set:
    """Vertices c with both labels lambda(u,c), lambda(v,c) strictly below lambda(u,v)."""
    raise_first(_malformed_edges(g))
    clique = g._view.cliques.get(edge_key(u, v))
    if clique is None:
        raise StructureError("matgraph.edge", f"{u!r}-{v!r} is not a labeled edge", witness=(u, v))
    return {x for i, x in enumerate(g._view.order) if clique >> i & 1} - {u, v}


def validate_matgraph(g: MatLabeledGraph) -> list[Violation]:
    """The MAT axioms, then completeness; empty report means valid."""
    report = validate_mat_labeling(g)
    if not g.is_complete():
        full = g.n * (g.n - 1) // 2
        report.append(Violation("matgraph.complete", (len(g.labels), full),
                                f"{len(g.labels)} labeled edges, the complete graph on {g.n} vertices has {full}"))
    return report


def require_valid(g: MatLabeledGraph) -> None:
    raise_first(validate_matgraph(g))


def _is_mat_simplicial(lab: list, a: int, within) -> bool:
    """Is vertex a MAT-simplicial in the graph induced on the indices
    `within` (a among them), read off the label matrix of a graph's view?"""
    row = lab[a]
    nbrs = [b for b in within if row[b] < row[a]]  # the diagonal holds max label + 1
    # incident labels are exactly 1..deg(a)
    if sorted(row[b] for b in nbrs) != list(range(1, len(nbrs) + 1)):
        return False
    # the neighborhood is a clique whose labels are dominated by the incident
    # ones; an absent edge holds max label + 1, so it fails the bound too
    return all(lab[b][c] < max(row[b], row[c]) for i, b in enumerate(nbrs) for c in nbrs[i + 1:])


def mat_simplicial_vertices(g: MatLabeledGraph) -> frozenset:
    raise_first(validate_mat_labeling(g))
    order, _, lab, _ = g._view
    every = range(len(order))
    return frozenset(x for i, x in enumerate(order) if _is_mat_simplicial(lab, i, every))


def induced_subgraph(g: MatLabeledGraph, subset: Iterable[str]) -> MatLabeledGraph:
    sub = frozenset(subset)
    labels = {e: k for e, k in g.labels.items() if e[0] in sub and e[1] in sub}
    return MatLabeledGraph(sub, labels)


def is_mat_peo(g: MatLabeledGraph, ordering: Sequence[str]) -> bool:
    """True iff each ordering prefix leaves its newest vertex MAT-simplicial."""
    raise_first(_malformed_edges(g))
    if sorted(ordering) != sorted(g.vertices):
        raise StructureError("matgraph.ordering", "ordering is not a permutation of the vertex set",
                             witness=tuple(ordering))
    index, lab = g._view.index, g._view.lab
    prefix = []
    for x in ordering:
        prefix.append(index[x])
        if not _is_mat_simplicial(lab, index[x], prefix):
            return False
    return True


def _glue_graphs(g1: MatLabeledGraph, g2: MatLabeledGraph, a1: str, a2: str) -> MatLabeledGraph:
    """The graph of two compatible halves missing a1 and a2: their labels
    plus the top-label edge a1-a2."""
    labels = dict(g1.labels)
    labels.update(g2.labels)
    labels[edge_key(a1, a2)] = g1.n
    return MatLabeledGraph(g1.vertices | {a1}, labels)


def relabel_graph(g: MatLabeledGraph, h: Mapping[str, str]) -> MatLabeledGraph:
    labels = {edge_key(h[u], h[v]): k for (u, v), k in g.labels.items()}
    return MatLabeledGraph(frozenset(h[v] for v in g.vertices), labels)
