"""Regular vines in poset form.

A regular vine on a ground set A is a family of non-empty subsets of A,
ordered by inclusion, that is graded with the singletons as atoms and A at
the top, has exactly two covers below every non-atom, tree-structured levels,
and satisfies proximity: nodes covered by a common node must themselves
cover a common node.  The family always has n(n+1)/2 nodes.

`validate_vine` finds each node's covers among the bitmasks of the rank
below it; only a node whose covers do not come out as two such nodes with
everything under it below one of them goes through the quadratic
`covered_by`, so invalid families get the same report as from `covered_by`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import StructureError, Violation, _UnionFind, raise_first


@dataclass(frozen=True, eq=True)
class RegularVine:
    ground: frozenset
    nodes: frozenset  # frozenset of frozensets

    @property
    def n(self) -> int:
        return len(self.ground)

    def rank_nodes(self, i: int) -> list[frozenset]:
        return sorted((s for s in self.nodes if len(s) == i), key=sorted)

    def sorted_nodes(self) -> list[frozenset]:
        return sorted(self.nodes, key=lambda s: (len(s), sorted(s)))


def vine(ground: Iterable[str], nodes: Iterable[Iterable[str]]) -> RegularVine:
    g = frozenset(ground)
    ns = frozenset(frozenset(s) for s in nodes)
    for s in ns:
        if not s <= g:
            raise StructureError("vine.subsets", f"node {sorted(s)} is not a subset of the ground set", witness=sorted(s))
        if not s:
            raise StructureError("vine.subsets", "empty node is not allowed", witness=[])
    return RegularVine(g, ns)


def covered_by(v: RegularVine, s: frozenset) -> list[frozenset]:
    """Nodes covered by s in the induced subset order."""
    below = [t for t in v.nodes if t < s]
    return sorted((t for t in below if not any(t < u < s for u in below)), key=sorted)


def _cover_table(v: RegularVine) -> dict[frozenset, list[frozenset]]:
    """covered_by(v, s) for every non-atom node s, in `sorted_nodes` order.

    Nodes are bitmasks over the ground set.  When s contains exactly two
    nodes t1, t2 of the rank below and every node under s lies under one of
    them, its covers are [t1, t2]; any other node takes `covered_by`, so an
    invalid vine gets the same covers as from `covered_by` alone."""
    bit = {x: 1 << i for i, x in enumerate(v.ground)}
    by_rank: dict[int, list[tuple[int, frozenset]]] = {}
    for s in v.sorted_nodes():
        by_rank.setdefault(len(s), []).append((sum(bit[x] for x in s), s))
    covers: dict[frozenset, list[frozenset]] = {}
    lower: list[int] = []  # masks of the nodes of rank below r - 1
    for r in range(2, max(by_rank, default=0) + 1):
        lower.extend(m for m, _ in by_rank.get(r - 2, ()))
        for m, s in by_rank.get(r, ()):
            cands = [(tm, t) for tm, t in by_rank.get(r - 1, ()) if tm & m == tm]
            if len(cands) == 2:
                (m1, t1), (m2, t2) = cands
                if all(u & m1 == u or u & m2 == u for u in lower if u & m == u):
                    covers[s] = [t1, t2]
                    continue
            covers[s] = covered_by(v, s)
    return covers


def validate_vine(v: RegularVine) -> list[Violation]:
    """Check the five vine axioms; empty report means valid."""
    report: list[Violation] = []
    n = v.n
    if n == 0:
        if v.nodes:
            report.append(Violation("vine.grading", sorted(map(sorted, v.nodes)), "empty ground set admits only the empty vine"))
        return report
    singletons = {frozenset([a]) for a in v.ground}
    missing = sorted(a for a in v.ground if frozenset([a]) not in v.nodes)
    if missing:
        report.append(Violation("vine.atoms", missing, f"missing singleton nodes {missing}"))
    for i in range(1, n + 1):
        level = v.rank_nodes(i)
        if len(level) != n + 1 - i:
            report.append(Violation("vine.grading", [sorted(s) for s in level],
                                    f"rank {i} has {len(level)} nodes, expected {n + 1 - i}"))
    extra = [s for s in v.nodes if len(s) > n]
    if extra or len(v.nodes) != n * (n + 1) // 2:
        report.append(Violation("vine.grading", len(v.nodes),
                                f"{len(v.nodes)} nodes in total, expected {n * (n + 1) // 2}"))
    if report:
        return report  # cover/tree checks assume the counts are right

    covers = _cover_table(v)
    for s, cov in covers.items():
        if len(cov) != 2 or any(len(t) != len(s) - 1 for t in cov):
            report.append(Violation("vine.two-covers", (sorted(s), [sorted(t) for t in cov]),
                                    f"node {sorted(s)} covers {len(cov)} nodes of ranks "
                                    f"{[len(t) for t in cov]}, expected two of rank {len(s) - 1}"))
    if report:
        return report

    # each level graph (vertices V(i), edges V(i+1)) must be a tree; with the
    # counts already verified, acyclicity is equivalent to connectedness
    for i in range(1, n):
        uf = _UnionFind(v.rank_nodes(i))
        for s in v.rank_nodes(i + 1):
            t1, t2 = covers[s]
            if not uf.union(t1, t2):
                report.append(Violation("vine.tree", (i, sorted(s)),
                                        f"rank-{i + 1} node {sorted(s)} closes a cycle in the level-{i} graph"))

    # proximity: nodes covered by a common node cover a common node
    for s, (t1, t2) in covers.items():
        if len(s) >= 3:
            c1 = set(covers[t1])
            c2 = set(covers[t2])
            if not c1 & c2:
                report.append(Violation("vine.proximity", (sorted(s), sorted(t1), sorted(t2)),
                                        f"{sorted(t1)} and {sorted(t2)} under {sorted(s)} cover no common node"))
    return report


def require_valid(v: RegularVine) -> None:
    raise_first(validate_vine(v))


class AssociatedTree(NamedTuple):
    level: int
    vertices: tuple  # rank-i nodes
    edges: tuple     # (rank-(i+1) node, (covered, covered)) pairs


def associated_tree(v: RegularVine, i: int) -> AssociatedTree:
    require_valid(v)
    if not 1 <= i <= v.n - 1:
        raise StructureError("vine.level", f"level {i} out of range 1..{v.n - 1}")
    verts = tuple(v.rank_nodes(i))
    edges = tuple((s, tuple(covered_by(v, s))) for s in v.rank_nodes(i + 1))
    return AssociatedTree(i, verts, edges)


def split_vine(v: RegularVine) -> tuple[RegularVine, RegularVine, RegularVine]:
    """Principal ideals of the two co-atoms covered by the top node."""
    require_valid(v)
    return _split_unchecked(v)


def _split_unchecked(v: RegularVine) -> tuple[RegularVine, RegularVine, RegularVine]:
    if v.n < 2:
        raise StructureError("vine.split", "split requires n >= 2")
    c1, c2 = covered_by(v, v.ground)
    v1 = RegularVine(c1, frozenset(s for s in v.nodes if s <= c1))
    v2 = RegularVine(c2, frozenset(s for s in v.nodes if s <= c2))
    shared = c1 & c2
    vp = RegularVine(shared, frozenset(s for s in v.nodes if s <= shared))
    return v1, v2, vp


def merge_vines(v1: RegularVine, v2: RegularVine) -> Optional[RegularVine]:
    """Union plus the full ground set, when the intersection is itself a vine."""
    A = v1.ground | v2.ground
    if len(v1.ground) != len(v2.ground) or len(v1.ground) != len(A) - 1:
        raise StructureError("vine.coatoms", "ground sets are not distinct co-atoms of a common set",
                             witness=(sorted(v1.ground), sorted(v2.ground)))
    shared = v1.ground & v2.ground
    inter = RegularVine(shared, v1.nodes & v2.nodes)
    if validate_vine(inter):
        return None
    return RegularVine(A, v1.nodes | v2.nodes | {A})


def is_d_vine(v: RegularVine) -> bool:
    """True iff every associated tree is a path."""
    require_valid(v)
    return _is_d_vine_unchecked(v)


def _is_d_vine_unchecked(v: RegularVine) -> bool:
    """is_d_vine of a vine already checked."""
    for i in range(1, v.n):
        degs = _level_degrees(v, i)
        if degs and max(degs.values()) > 2:
            return False
    return True


def is_c_vine(v: RegularVine) -> bool:
    """True iff every associated tree is a star."""
    require_valid(v)
    return _is_c_vine_unchecked(v)


def _is_c_vine_unchecked(v: RegularVine) -> bool:
    """is_c_vine of a vine already checked."""
    for i in range(1, v.n):
        degs = _level_degrees(v, i)
        if len(degs) >= 3 and sum(1 for d in degs.values() if d > 1) > 1:
            return False
    return True


def _level_degrees(v: RegularVine, i: int) -> dict[frozenset, int]:
    degs = {s: 0 for s in v.rank_nodes(i)}
    for s in v.rank_nodes(i + 1):
        for t in covered_by(v, s):
            degs[t] += 1
    return degs


def maximal_chains(v: RegularVine) -> list[tuple[frozenset, ...]]:
    """All maximal chains, singleton to A, in lexicographic order (2^(n-1) of them)."""
    require_valid(v)
    if v.n == 0:
        return []
    covers = {s: covered_by(v, s) for s in v.nodes if len(s) > 1}
    chains: list[tuple[frozenset, ...]] = []

    def descend(s: frozenset, acc: list[frozenset]):
        acc.append(s)
        if len(s) == 1:
            chains.append(tuple(reversed(acc)))
        else:
            for t in covers[s]:
                descend(t, acc)
        acc.pop()

    descend(v.ground, [])
    chains.sort(key=lambda c: [sorted(s) for s in c])
    return chains


def chain_counts_from_atoms(v: RegularVine) -> dict[str, int]:
    """Per-atom count of maximal chains, by Pascal-style downward accumulation."""
    require_valid(v)
    return _chain_counts_from_atoms_unchecked(v)


def _chain_counts_from_atoms_unchecked(v: RegularVine) -> dict[str, int]:
    """chain_counts_from_atoms of a vine already checked."""
    count = {v.ground: 1}
    for s in sorted(v.nodes, key=len, reverse=True):
        if len(s) == 1:
            continue
        for t in covered_by(v, s):
            count[t] = count.get(t, 0) + count[s]
    return {a: count.get(frozenset([a]), 1 if v.n == 1 else 0) for a in v.ground}


def join_node(v: RegularVine, a: str, b: str) -> frozenset:
    """The unique minimal node containing both atoms."""
    if a == b or a not in v.ground or b not in v.ground:
        raise StructureError("vine.atoms", f"need two distinct ground labels, got {a!r}, {b!r}")
    for s in v.sorted_nodes():
        if a in s and b in s:
            return s
    raise StructureError("vine.join", f"no node contains both {a!r} and {b!r}")


def richness_via_vine(v: RegularVine) -> int:
    """Least rank whose nodes have a non-empty common intersection."""
    require_valid(v)
    return _richness_via_vine_unchecked(v)


def _richness_via_vine_unchecked(v: RegularVine) -> int:
    """richness_via_vine of a vine already checked."""
    for k in range(1, v.n + 1):
        inter = v.ground
        for s in v.rank_nodes(k):
            inter = inter & s
        if inter:
            return k
    return v.n


def relabel_vine(v: RegularVine, h: Mapping[str, str]) -> RegularVine:
    return RegularVine(frozenset(h[a] for a in v.ground),
                       frozenset(frozenset(h[a] for a in s) for s in v.nodes))
