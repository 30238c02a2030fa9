"""Regular vines in poset form.

A regular vine on a ground set A is a family of non-empty subsets of A,
ordered by inclusion, that is graded with the singletons as atoms and A at
the top, has exactly two covers below every non-atom, tree-structured levels,
and satisfies proximity: nodes covered by a common node must themselves
cover a common node.  The family always has n(n+1)/2 nodes.

The first three axioms imply the other two, so the validator checks atoms,
grading and two covers only.  Call the members of a family nodes, and let
the family pass those checks: the singletons of A are nodes, rank i holds
n + 1 - i nodes for i = 1..n and no other rank holds any, and every node S
of rank i >= 2 covers exactly two nodes T1 and T2, both of rank i - 1.
Covers are taken in the family as given, whose nodes may hold labels
outside A.

1. Every node lies in A and is the union of its two covers, by induction on
   rank: the n rank-1 nodes are the n singletons of A, and T1 != T2 of rank
   i - 1, inside both S and A, give |T1 | T2| >= i = |S|, so S = T1 | T2.
   So S - (T1 & T2) is a pair {a, b}, the conditioned pair of S, with
   T1 = S - a and T2 = S - b.
   Every node under S lies under T1 or T2, which do not both hold a and b,
   so S is a minimal node holding a and b.  Conversely, a minimal node
   holding a pair has rank >= 2 and neither of its covers holds the pair,
   so that pair is its conditioned pair.
2. There are C(n, 2) nodes of rank >= 2 and C(n, 2) pairs, and the rank-n
   node, A, holds every pair, so by step 1 every pair is a conditioned
   pair and no two nodes share one.  Hence each pair {a, b} has exactly one
   minimal node holding it, J(a, b), and every node holding a and b
   contains J(a, b).
3. Proximity.  Let S of rank >= 3 have conditioned pair {a, b}, and let
   W = S - {a, b} = T1 & T2.  For c and d in W, J(c, d) lies in T1 and in
   T2 by step 2, so in W.  Let S' be a minimal node containing W (T1 is
   one).  If S' != W, then S' has rank >= 2 and neither of its covers
   contains W, so the conditioned pair {a', b'} of S' lies inside W and
   S' = J(a', b') lies inside W, a contradiction.  So W is a node one rank
   below T1 and T2, and both cover it.
4. Tree.  Level i has the n + 1 - i rank-i nodes as vertices and the n - i
   rank-(i+1) nodes as edges, each joining its two covers, so it is a tree
   iff it is connected.  At level n - 1 the top joins the two co-atoms.
   Let level i >= 2 be connected.  Any two rank-i nodes are joined by a
   path in it, and by step 3 the two ends of each of its edges share a
   cover, so as edges of level i - 1 they share a vertex: all edges of
   level i - 1 lie in one component.  Every node other than A is covered
   by a node one rank up, so it lies on an edge of its level, and level
   i - 1 is connected.

Which members of a set family lie under or cover which is decided in one
place, `_mask_covers`, exactly for any family, valid or not; every cover
and below-set in the package (vines, lattices, DOT, canonical forms) reads it,
but for the covers of a doubling, which `generate._doubled_covers` derives
from those of the vine it doubles; the split reads no covers, since the top
covers the two rank-(n-1) nodes.
The three checks run in one place too, `_mask_violations`, which
`validate_vine` formats and `generate` runs on the masks of each doubling
it builds; the vines it classifies go through `require_valid`.

Each vine and each lattice computes its covers once: `_index_view` of its
ground set and its family, cached on first use as `RegularVine._view` and
`BoundedLattice._view`, holds the labels, their bits, the members in
`sorted_nodes` order, their masks, below-sets and covers, for any family,
valid or not.  A lattice's view is its vine's with the empty bottom first.
The validator, the cover table, the level degrees, the chain counts and
walks, the map to the domain, the lattice order checks, the DOT covers and
the canonical form all read it.  So do the
domain facts that `analyze` reads off the vine: the bottom alternatives are
the labels missing from the two co-atoms, and the domain is Black
single-peaked iff the vine is a D-vine, on the axis of its level-1 path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import StructureError, Violation, checked, raise_first


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

    @functools.cached_property  # outside the fields: ==, hash and repr ignore it
    def _view(self) -> _View:
        return _index_view(self.ground, self.nodes)


class _View(NamedTuple):
    """A set family's index view: `bit` gives the i-th largest label bit i,
    so the masks sorted by (rank, -mask) list the members in `sorted_nodes`
    order, which is also `sorted_elements` order."""
    labels: list          # sorted labels of the ground set and of the members
    bit: dict             # label -> its one-bit mask
    nodes: list           # the member frozensets, in `sorted_nodes` order
    masks: list           # their masks, a linear extension of inclusion
    below: list           # their `_mask_covers` below-sets, as index bitsets
    covers: list          # their `_mask_covers` covers, as index bitsets


def _index_view(ground: frozenset, family: Collection[frozenset]) -> _View:
    labels = sorted(ground.union(*family))  # a member may hold labels outside the ground set
    bit = {x: 1 << i for i, x in enumerate(reversed(labels))}
    node = {sum(map(bit.__getitem__, s)): s for s in family}
    masks = sorted(node, key=lambda m: (m.bit_count(), -m))
    return _View(labels, bit, [node[m] for m in masks], masks, *_mask_covers(masks))


def vine(ground: Iterable[str], nodes: Iterable[Iterable[str]]) -> RegularVine:
    g = frozenset(ground)
    ns = frozenset(frozenset(s) for s in nodes)
    for s in ns:
        if not s <= g:
            raise StructureError("vine.subsets", f"node {sorted(s)} is not a subset of the ground set", witness=sorted(s))
        if not s:
            raise StructureError("vine.subsets", "empty node is not allowed", witness=[])
    return RegularVine(g, ns)


def _bits(x: int) -> Iterator[int]:
    """The indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mask_covers(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """(below, covers) of distinct masks listed in a linear extension of
    inclusion: bit j of below[i] is set iff masks[j] is a proper subset of
    masks[i], and of covers[i] iff moreover no member lies strictly between.

    The members under masks[i] are those of lower index holding no label
    outside it, read off one column bitset per label.  The highest index
    left in a below-set is a cover; taking it clears everything under it."""
    width = max(masks, default=0).bit_length()
    cols = [sum(1 << i for i, m in enumerate(masks) if m >> b & 1) for b in range(width)]  # per label
    below: list[int] = []
    covers: list[int] = []
    for i, m in enumerate(masks):
        under = (1 << i) - 1
        for b, col in enumerate(cols):
            if not m >> b & 1:
                under &= ~col
        below.append(under)
        cov = 0
        while under:
            j = under.bit_length() - 1
            cov |= 1 << j
            under &= ~(below[j] | 1 << j)
        covers.append(cov)
    return below, covers


def _cover_table(v: RegularVine) -> dict[frozenset, list[frozenset]]:
    """The nodes each non-atom node covers, in `sorted_nodes` order; each
    list is ordered by `sorted`, the order of the two-covers reports."""
    nodes = v._view.nodes
    table: dict[frozenset, list[frozenset]] = {}
    for s, cov in zip(nodes, v._view.covers):
        if len(s) > 1:
            below = [nodes[j] for j in _bits(cov)]  # by rank, then by sorted
            table[s] = sorted(below, key=sorted) if below and len(below[0]) != len(below[-1]) else below
    return table


def _mask_violations(ground: int, masks: Sequence[int], covers: Sequence[int]) -> list[tuple]:
    """Records of the atoms, grading and two-covers axioms, which imply the
    other two, in report order, for distinct node masks in a linear
    extension of inclusion, their `_mask_covers` covers (or
    `generate._doubled_covers`', equal to them) and the ground's mask:
    (axiom, ...) with node indices; empty means valid.  A node of rank i
    passes the two-covers check iff its cover bitset has two bits, both in
    the index bitset of rank i - 1."""
    n = ground.bit_count()
    missing = ground & ~sum(m for m in masks if m.bit_count() == 1)
    records: list[tuple] = [("vine.atoms", missing)] if missing else []
    levels: list[list[int]] = [[] for _ in range(n + 2)]
    for k, m in enumerate(masks):
        levels[min(m.bit_count(), n + 1)].append(k)
    records += [("vine.grading", i, levels[i]) for i in range(1, n + 1) if len(levels[i]) != n + 1 - i]
    if levels[n + 1] or len(masks) != n * (n + 1) // 2:
        records.append(("vine.grading", None))
    if records:
        return records  # the cover check assumes the counts are right
    span = [sum(1 << k for k in level) for level in levels]  # per rank: its nodes' indices
    return [("vine.two-covers", k) for i in range(2, n + 1) for k in levels[i]
            if covers[k].bit_count() != 2 or covers[k] & ~span[i - 1]]


def validate_vine(v: RegularVine) -> list[Violation]:
    """Check atoms, grading and two covers, which imply the other two vine
    axioms, by `_mask_violations`; empty report means valid."""
    n = v.n
    if n == 0 and v.nodes:
        return [Violation("vine.grading", sorted(map(sorted, v.nodes)), "empty ground set admits only the empty vine")]
    labels, bit, nodes, masks, _, covers = v._view
    records = _mask_violations(sum(map(bit.__getitem__, v.ground)), masks, covers)
    named = [sorted(s) for s in nodes] if records else []
    report = []
    for axiom, *at in records:
        if axiom == "vine.atoms":
            witness = sorted(labels[-1 - b] for b in _bits(at[0]))
            message = f"missing singleton nodes {witness}"
        elif at == [None]:
            witness, message = len(v.nodes), f"{len(v.nodes)} nodes in total, expected {n * (n + 1) // 2}"
        elif axiom == "vine.grading":
            witness = [named[k] for k in at[1]]
            message = f"rank {at[0]} has {len(witness)} nodes, expected {n + 1 - at[0]}"
        else:
            witness = s, cov = named[at[0]], sorted(named[j] for j in _bits(covers[at[0]]))
            message = (f"node {s} covers {len(cov)} nodes of ranks {[len(t) for t in cov]}, "
                       f"expected two of rank {len(s) - 1}")
        report.append(Violation(axiom, witness, message))
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
    covers = _cover_table(v)
    edges = tuple((s, tuple(covers[s])) for s in v.rank_nodes(i + 1))
    return AssociatedTree(i, verts, edges)


def _glue_vines(v1: RegularVine, v2: RegularVine, a1: str, a2: str) -> RegularVine:
    """The vine of two compatible halves missing a1 and a2: their nodes
    plus the full ground set."""
    A = v1.ground | {a1}
    return RegularVine(A, v1.nodes | v2.nodes | {A})


def _is_d_vine(v: RegularVine) -> bool:
    """True iff every associated tree is a path."""
    return _all_paths(_level_degrees(v))


def _is_c_vine(v: RegularVine) -> bool:
    """True iff every associated tree is a star."""
    return _all_stars(_level_degrees(v))


def _all_paths(levels: list[list[int]]) -> bool:
    return all(d <= 2 for level in levels for d in level)


def _all_stars(levels: list[list[int]]) -> bool:
    return not any(len(level) >= 3 and sum(1 for d in level if d > 1) > 1 for level in levels)


def _level_degrees(v: RegularVine) -> list[list[int]]:
    """Vertex degrees of the associated trees 1..n-1: the nodes covering each node."""
    masks, covers = v._view.masks, v._view.covers
    degree = [0] * len(masks)
    for cov in covers:
        for j in _bits(cov):
            degree[j] += 1
    levels: list[list[int]] = [[] for _ in range(v.n + 1)]
    for m, d in zip(masks, degree):
        levels[m.bit_count()].append(d)
    return levels[1:v.n]


def _bottom_alternatives(v: RegularVine) -> list[str]:
    """The bottom alternatives of the vine's domain, sorted: the labels
    missing from the two co-atoms, the pair the split removes."""
    if v.n <= 1:
        return sorted(v.ground)
    nodes, covers = v._view.nodes, v._view.covers
    return sorted(x for j in _bits(covers[-1]) for x in v.ground - nodes[j])


def _bspd_axis(v: RegularVine, is_d_vine: bool) -> Optional[tuple]:
    """The axis of the vine's domain if it is Black single-peaked, else None:
    the level-1 path of a D-vine, read from its smaller endpoint.  The
    caller passes `_is_d_vine(v)`, which `_analytics` has computed."""
    if v.n <= 1:
        return tuple(sorted(v.ground))
    if not is_d_vine:
        return None
    nbrs: dict[str, list[str]] = {}
    for s in v._view.nodes[v.n:2 * v.n - 1]:  # the rank-2 nodes, the level-1 edges
        a, b = s
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    path = [min(x for x, ys in nbrs.items() if len(ys) == 1)]
    while len(path) < v.n:
        path.append(next(y for y in nbrs[path[-1]] if len(path) < 2 or y != path[-2]))
    return tuple(path)


def _maximal_chains(v: RegularVine) -> list[tuple[frozenset, ...]]:
    """All maximal chains, singleton to A, in lexicographic order (2^(n-1) of them)."""
    if v.n == 0:
        return []
    return sorted(_chains(v._view.nodes, v._view.covers), key=lambda c: [sorted(s) for s in c])


def _chains(family: list, covers: Sequence[int]) -> list[tuple]:
    """The saturated chains from a minimal member up to the last one of a
    family listed in a linear extension of inclusion, bottom first, over
    the family's covers."""
    chains: list[tuple] = []

    def descend(k: int, acc: list):
        acc.append(family[k])
        if not covers[k]:
            chains.append(tuple(reversed(acc)))
        for j in _bits(covers[k]):
            descend(j, acc)
        acc.pop()

    descend(len(family) - 1, [])
    return chains


def _chain_counts_from_atoms(v: RegularVine) -> dict[str, int]:
    """Per-atom count of maximal chains, by Pascal-style downward accumulation."""
    nodes, covers = v._view.nodes, v._view.covers
    count = [0] * (len(nodes) - 1) + [1]  # one chain from the top down to itself
    for k in reversed(range(len(nodes))):  # every node after the nodes covering it
        for j in _bits(covers[k]):
            count[j] += count[k]
    return {x: count[k] for k in range(v.n) for x in nodes[k]}


def join_node(v: RegularVine, a: str, b: str) -> frozenset:
    """The unique minimal node containing both atoms."""
    if a == b or a not in v.ground or b not in v.ground:
        raise StructureError("vine.atoms", f"need two distinct ground labels, got {a!r}, {b!r}")
    for s in v.sorted_nodes():
        if a in s and b in s:
            return s
    raise StructureError("vine.join", f"no node contains both {a!r} and {b!r}")


def _richness_via_vine(v: RegularVine) -> int:
    """Least rank whose nodes have a non-empty common intersection."""
    common: dict[int, int] = {}
    for m in v._view.masks:
        common[m.bit_count()] = common.get(m.bit_count(), m) & m
    return next((k for k in range(1, v.n + 1) if common[k]), v.n)


def _analytics(v: RegularVine) -> dict:
    """Richness, first-rank distribution and the D-/C-vine flags of a vine
    already checked, keyed as `analyze` and the catalog report them."""
    levels = _level_degrees(v)
    return {"richness": _richness_via_vine(v),
            "first_rank": dict(sorted(_chain_counts_from_atoms(v).items())),
            "is_d_vine": _all_paths(levels), "is_c_vine": _all_stars(levels)}


def relabel_vine(v: RegularVine, h: Mapping[str, str]) -> RegularVine:
    return RegularVine(frozenset(h[a] for a in v.ground),
                       frozenset(frozenset(h[a] for a in s) for s in v.nodes))


is_d_vine = checked(require_valid, _is_d_vine)
is_c_vine = checked(require_valid, _is_c_vine)
maximal_chains = checked(require_valid, _maximal_chains)
chain_counts_from_atoms = checked(require_valid, _chain_counts_from_atoms)
richness_via_vine = checked(require_valid, _richness_via_vine)
