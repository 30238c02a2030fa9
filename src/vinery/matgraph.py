"""MAT-labeled graphs.

A MAT-labeling of a simple graph assigns a positive integer to every edge so
that, for every level k, (1) the edges with label <= k form no cycle and
(2) every edge with label k closes exactly k-1 triangles with strictly lower
labeled edges.  On complete graphs these labelings admit a split/merge
recursion driven by the two MAT-simplicial vertices, which are always the
endpoints of the unique edge carrying the largest label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import StructureError, Violation, _UnionFind, checked, raise_first


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


def validate_mat_labeling(g: MatLabeledGraph) -> list[Violation]:
    """Check the two MAT axioms level by level; empty report means valid."""
    report: list[Violation] = []
    if not g.labels:
        return report
    maxlab = max(g.labels.values())
    # condition (1): no cycle inside pi_k plus at most one extra edge of
    # lower-or-equal label, i.e. pi_k is a forest and no lower edge joins
    # vertices already connected within pi_k
    for k in range(1, maxlab + 1):
        uf = _UnionFind(g.vertices)
        for (u, v) in sorted(e for e, lab in g.labels.items() if lab == k):
            if not uf.union(u, v):
                report.append(Violation("matgraph.acyclic", (u, v, k),
                                        f"edge {u}-{v} closes a cycle within level {k}"))
        for (u, v) in sorted(e for e, lab in g.labels.items() if lab < k):
            if uf.find(u) == uf.find(v):
                report.append(Violation("matgraph.acyclic", (u, v, k),
                                        f"edge {u}-{v} (label {g.labels[(u, v)]}) closes a cycle with level-{k} edges"))
    # condition (2): each level-k edge closes exactly k-1 triangles below
    for (u, v), k in sorted(g.labels.items()):
        partners = triangle_partners(g, u, v)
        if len(partners) != k - 1:
            report.append(Violation("matgraph.triangles", (u, v, k),
                                    f"edge {u}-{v} (label {k}) closes {len(partners)} lower triangles, expected {k - 1}"))
    return report


def triangle_partners(g: MatLabeledGraph, u: str, v: str) -> set:
    """Vertices c with both labels lambda(u,c), lambda(v,c) strictly below lambda(u,v)."""
    k = g.labels[edge_key(u, v)]
    out = set()
    for c in g.vertices:
        if c in (u, v):
            continue
        ku, kv = g.label(u, c), g.label(v, c)
        if ku is not None and kv is not None and ku < k and kv < k:
            out.add(c)
    return out


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


def _is_mat_simplicial(g: MatLabeledGraph, a: str) -> bool:
    nbrs = sorted(g.neighbors(a))
    # (1) simplicial: neighborhood is a clique
    for i, b in enumerate(nbrs):
        for c in nbrs[i + 1:]:
            if g.label(b, c) is None:
                return False
    # (2) incident labels are exactly 1..deg(a)
    incident = sorted(g.labels[edge_key(a, b)] for b in nbrs)
    if incident != list(range(1, len(nbrs) + 1)):
        return False
    # (3) inside the neighborhood, labels are dominated by the incident ones
    for i, b in enumerate(nbrs):
        for c in nbrs[i + 1:]:
            if g.label(b, c) >= max(g.label(a, b), g.label(a, c)):
                return False
    return True


def mat_simplicial_vertices(g: MatLabeledGraph) -> frozenset:
    raise_first(validate_mat_labeling(g))
    return frozenset(a for a in g.vertices if _is_mat_simplicial(g, a))


def induced_subgraph(g: MatLabeledGraph, subset: Iterable[str]) -> MatLabeledGraph:
    sub = frozenset(subset)
    labels = {e: k for e, k in g.labels.items() if e[0] in sub and e[1] in sub}
    return MatLabeledGraph(sub, labels)


def is_mat_peo(g: MatLabeledGraph, ordering: Sequence[str]) -> bool:
    """True iff each ordering prefix leaves its newest vertex MAT-simplicial."""
    if sorted(ordering) != sorted(g.vertices):
        raise StructureError("matgraph.ordering", "ordering is not a permutation of the vertex set",
                             witness=tuple(ordering))
    for i in range(len(ordering)):
        prefix = induced_subgraph(g, ordering[: i + 1])
        if not _is_mat_simplicial(prefix, ordering[i]):
            return False
    return True


def _enumerate_mat_peos(g: MatLabeledGraph) -> list[tuple[str, ...]]:
    """All MAT-PEOs of a valid MAT-labeled complete graph, in sorted order.

    Grown by incremental extension: a vertex may be appended only while it is
    MAT-simplicial in the induced prefix, so the search is output-polynomial.
    Vertices are indices into the sorted vertex list and labels one integer
    matrix; on a complete graph, x is MAT-simplicial after a prefix of p
    vertices iff its p labels to the prefix are 1..p and every prefix edge
    is labeled below the larger of its two labels to x.
    """
    order = sorted(g.vertices)
    index = {x: i for i, x in enumerate(order)}
    lab = [[0] * len(order) for _ in order]
    for (u, v), k in g.labels.items():
        lab[index[u]][index[v]] = lab[index[v]][index[u]] = k
    out: list[tuple[str, ...]] = []

    def can_append(prefix: list[int], x: int) -> bool:
        to_x = lab[x]
        seen = 0
        for b in prefix:
            seen |= 1 << to_x[b]
        if seen != (1 << len(prefix) + 1) - 2:
            return False
        for i, b in enumerate(prefix):
            to_b, xb = lab[b], to_x[b]
            for c in prefix[i + 1:]:
                if to_b[c] >= max(xb, to_x[c]):
                    return False
        return True

    def extend(prefix: list[int], used: int):
        if len(prefix) == len(order):
            out.append(tuple(order[i] for i in prefix))
            return
        for x in range(len(order)):
            if not used >> x & 1 and can_append(prefix, x):
                prefix.append(x)
                extend(prefix, used | 1 << x)
                prefix.pop()

    extend([], 0)
    return out


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


enumerate_mat_peos = checked(require_valid, _enumerate_mat_peos)
