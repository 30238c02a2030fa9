"""Brute-force oracles for the library's kernels.

Each oracle computes from the definition what a kernel computes from index
tables or bitmasks: the n!-relabeling scans behind the canonical form and
|Aut|, and the walk over all 2^(n-1) maximal chains behind the pruned
descent of `generate._scan`, and the digit-by-digit decoder of its keys
behind the memoized positions of `generate._form`; the quadratic
`covered_by` and `covered_elements` scans behind `vine._mask_covers`, and
the DOT rendering built on them; the pairwise join/meet tests behind the lattice order checks
and the direct B(3) search; the row-triple scan behind the triangle table
of `lattice._least_triangle`, and the B(3) check through the lattice's
matrix behind the one on its index view;
the per-pair domain scan behind the one-pass topmost contiguous positions;
and the no-extension scan behind the size criterion of maximal ASPDs; and
every axis checked by Black's definition, behind the pruned axis search of
`domain.is_bspd`; and
the Prüfer decoder that scans every vertex for the smallest leaf at every
entry, behind the degree-list lookup of `generate._decode_prufer`; and
the backtracker over a line graph's edges with a copy-on-branch union-find,
behind the per-clique Prüfer products of `generate._next_trees`; and
the vine stream that enumerates every line graph's spanning trees afresh at
every node and finds every node's labels by a scan, behind the successor
memo, the shared accumulator and the mask table of `generate_vines`; and
the undoubling by the vine split of the lattice's vine, behind the lattice
restriction of `lattice.undouble`; and the doubling of every class along
every chain, behind the canonical augmentation of the class table; and the
unrooted tree shapes and the counting DP that enumerates every line graph's
spanning trees, behind the orbit-weighted `generate._completions`; the
recursive AHU encoder, with each rooted tree's automorphisms, and the rooted
shapes grown from one vertex at every call, behind the iterative walk of
`generate._branches`, `tree_shape` and the cached growth and leaf-marking
counts of `generate.rooted_trees`; and the orbits of every tree under the
permutations of a clique's leaf edges, found by applying each permutation,
behind the tables of `generate._clique_choices` that each split the one
below by one more tag; and
the vine axioms checked on frozenset nodes, behind the mask check of
`vine.validate_vine`, together with the walk over every family that
passes its counts and two covers, behind the proof that the mask check
needs no tree or proximity pass; and
the MAT axioms checked at every level up to the largest label with
triangles found by label lookups, behind the view-backed
`matgraph.validate_mat_labeling`; and the MAT-PEO growth that scans the
prefix's labels for every candidate, behind the chains of the graph's vine
that its domain, `routes.convert_structure(g, "domain")`, lists; and the walks over every labeling
of a complete graph, every never-bottom domain of the maximal size, every
family of subsets of the extremal size and every triangle-free matrix of
the extremal column count, behind the maps that trust the bijection
theorems instead of checking what they build.  They are slow and used by
the tests only.
"""

from __future__ import annotations

import functools
import math
import string
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

from vinery import domain as dm
from vinery import generate as gen
from vinery import lattice as lt
from vinery import matgraph as mg
from vinery import vine as vn
from vinery.errors import StructureError, Violation, _UnionFind


def canonical_form_bruteforce(v: vn.RegularVine) -> tuple:
    """n!-scan over all relabelings; the oracle for `generate.canonical_form`."""
    ground = sorted(v.ground)
    if not ground:
        return ()
    best = None
    for perm in permutations(range(len(ground))):
        order = dict(zip(ground, perm))
        enc = tuple(sorted(tuple(sorted(order[x] for x in s)) for s in v.nodes))
        if best is None or enc < best:
            best = enc
    return best


def automorphism_group_order_bruteforce(v: vn.RegularVine) -> int:
    """n!-scan counting the ground bijections that fix the node set; the
    oracle for the chain-scan |Aut|."""
    ground = sorted(v.ground)
    count = 0
    for perm in permutations(ground):
        if vn.relabel_vine(v, dict(zip(ground, perm))).nodes == v.nodes:
            count += 1
    return count


def canonical_keys_by_all_chains(n: int, nodes: list[int], covers: list[int]) -> tuple[tuple, int, list[int]]:
    """The oracle for `generate._scan`, n >= 2: (the least sorted non-atom
    keys, how many chains attain them, the atoms' digits along the first),
    by relabeling the nodes along every one of the 2^(n-1) maximal chains,
    one OR per non-atom node, and comparing the full sorted lists."""
    even = gen._even(n)
    weight = []  # the pre-XOR digits of an atom at position p
    missing = 0
    for p in range(n):
        shift = 2 * (n - 1 - p)
        weight.append(missing | 3 << shift)
        missing |= 2 << shift
    cover_lists = [list(vn._bits(c)) for c in covers]
    atom = {nodes[i]: i for i in range(n)}
    # per node: (cover, the atom the step down removes, the cover's rank)
    drops = {k: [(j, atom[nodes[k] ^ nodes[j]], nodes[k].bit_count() - 1) for j in cover_lists[k]]
             for k in range(n, len(nodes))}
    atom_digits = [0] * n
    best, hits, first = None, 0, []
    stack = drops[len(nodes) - 1].copy()
    while stack:
        k, a, rank = stack.pop()
        atom_digits[a] = weight[rank]
        if rank > 1:
            stack.extend(drops[k])
            continue
        atom_digits[k] = weight[0]
        digits = atom_digits.copy()
        for a, b in cover_lists[n:]:
            digits.append(digits[a] | digits[b])
        keys = sorted(d ^ even for d in digits[n:])
        if best is None or keys < best:
            best, hits, first = keys, 1, digits[:n]
        elif keys == best:
            hits += 1
    return tuple(best), hits, first


def form_by_digits(n: int, keys: Iterable[int]) -> tuple:
    """The oracle for `generate._form`: every key decoded position by
    position, a position in the node where its digit is 11 before the XOR
    with `_even(n)`, and the atoms merged back in."""
    even = gen._even(n)
    nodes = [tuple(p for p in range(n) if (k ^ even) >> 2 * (n - 1 - p) & 3 == 3) for k in keys]
    return tuple(sorted(nodes + [(p,) for p in range(n)]))


def covered_by(v: vn.RegularVine, s: frozenset) -> list[frozenset]:
    """Nodes covered by s in the induced subset order."""
    below = [t for t in v.nodes if t < s]
    return sorted((t for t in below if not any(t < u < s for u in below)), key=sorted)


def validate_vine_by_sets(v: vn.RegularVine) -> list[Violation]:
    """The five vine axioms checked on the frozenset nodes, levels and
    `_cover_table`; the oracle for `vine.validate_vine`'s mask check."""
    report: list[Violation] = []
    n = v.n
    if n == 0:
        if v.nodes:
            report.append(Violation("vine.grading", sorted(map(sorted, v.nodes)), "empty ground set admits only the empty vine"))
        return report
    missing = sorted(a for a in v.ground if frozenset([a]) not in v.nodes)
    if missing:
        report.append(Violation("vine.atoms", missing, f"missing singleton nodes {missing}"))
    levels: dict[int, list[frozenset]] = {}
    for s in v.sorted_nodes():
        levels.setdefault(len(s), []).append(s)
    for i in range(1, n + 1):
        level = levels.get(i, [])
        if len(level) != n + 1 - i:
            report.append(Violation("vine.grading", [sorted(s) for s in level],
                                    f"rank {i} has {len(level)} nodes, expected {n + 1 - i}"))
    extra = [s for s in v.nodes if len(s) > n]
    if extra or len(v.nodes) != n * (n + 1) // 2:
        report.append(Violation("vine.grading", len(v.nodes),
                                f"{len(v.nodes)} nodes in total, expected {n * (n + 1) // 2}"))
    if report:
        return report  # cover/tree checks assume the counts are right

    covers = vn._cover_table(v)
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
        uf = _UnionFind(levels[i])
        for s in levels[i + 1]:
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


def vine_shaped_families(n: int) -> Iterator[vn.RegularVine]:
    """Every family of subsets of the first n >= 1 letters with the vine rank
    counts in which each member of rank i >= 2 holds exactly two members of
    rank i - 1, walked top-down from the ground set: each rank's members are
    chosen among the subsets one smaller of the rank above.  A family that
    passes `validate_vine`'s counts and two covers is among them, since its
    nodes lie in the ground set and a node's members one rank down are its
    covers (`vine` module docstring, step 1)."""
    labels = string.ascii_lowercase[:n]
    ground, atoms = frozenset(labels), [frozenset(x) for x in labels]

    def down(upper: list[frozenset], acc: list[frozenset]) -> Iterator[vn.RegularVine]:
        if len(upper[0]) <= 2:  # the atoms are forced
            yield vn.RegularVine(ground, frozenset(acc + atoms))
            return
        below = sorted({s - {x} for s in upper for x in s}, key=sorted)
        for lower in combinations(below, len(upper) + 1):
            if all(sum(t <= s for t in lower) == 2 for s in upper):
                yield from down(list(lower), acc + list(lower))

    yield from down([ground], [ground])


def covered_elements(L: lt.BoundedLattice, s: frozenset) -> list[frozenset]:
    below = [t for t in L.elements if t < s]
    return sorted((t for t in below if not any(t < u < s for u in below)), key=lambda t: (len(t), sorted(t)))


def to_dot_by_scan(obj) -> str:
    """`serialize.to_dot` of a vine or lattice, with every cover found by a
    scan of the nodes below it."""
    kind = "vine" if isinstance(obj, vn.RegularVine) else "lattice"
    nodes = obj.sorted_nodes() if kind == "vine" else obj.sorted_elements()
    name = {s: "{" + ",".join(sorted(s)) + "}" for s in nodes}
    lines = [f"digraph {kind} {{", "  rankdir=BT;"]
    for s in nodes:
        lines.append(f'  "{name[s]}";')
    for s in nodes:
        below = [t for t in nodes if t < s]
        for t in below:
            if not any(t < u < s for u in below):
                lines.append(f'  "{name[t]}" -> "{name[s]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def topmost_contiguous_position_by_scan(d: dm.PreferenceDomain, x: str, y: str) -> int:
    """Minimum position at which x and y occur adjacently in some
    preference, by a scan of the whole domain for this one pair."""
    if x == y or x not in d.alternatives or y not in d.alternatives:
        raise StructureError("domain.labels", f"need two distinct alternatives, got {x!r}, {y!r}")
    best = None
    for w in d.prefs:
        for i in range(len(w) - 1):
            if {w[i], w[i + 1]} == {x, y}:
                best = i + 1 if best is None else min(best, i + 1)
                break
    if best is None:
        raise StructureError("domain.contiguity", f"{x!r} and {y!r} are never contiguous", witness=(x, y))
    return best


def bspd_axes_by_all_axes(d: dm.PreferenceDomain) -> list[tuple]:
    """Every axis, a permutation of the alternatives, along which each
    preference is single-peaked by Black's definition: of two alternatives
    on one side of its peak, the nearer one ranks higher.  The oracle for
    the pruned axis search of `domain.is_bspd`."""
    def fits(pos: dict, w: tuple) -> bool:
        rank = {x: i for i, x in enumerate(w)}
        peak = pos[w[0]]
        return all(rank[y] < rank[x] for x in w for y in w
                   if peak <= pos[y] < pos[x] or pos[x] < pos[y] <= peak)
    axes = (dict(zip(axis, range(d.n))) for axis in permutations(sorted(d.alternatives)))
    return [tuple(pos) for pos in axes if all(fits(pos, w) for w in d.prefs)]


def is_maximal_aspd_by_extension(d: dm.PreferenceDomain) -> bool:
    """The literal maximality of an ASPD: every absent preference breaks the
    never-bottom condition; the oracle for `domain.validate_domain`'s size
    criterion, feasible only for small n."""
    if not dm.is_aspd(d)[0]:
        return False
    for w in permutations(sorted(d.alternatives)):
        if w not in d.prefs:
            bigger = dm.PreferenceDomain(d.alternatives, d.prefs | {w})
            if dm.is_aspd(bigger)[0]:
                return False
    return True


def is_lattice_pairwise(L: lt.BoundedLattice) -> bool:
    """Every pair has a join and a meet, by `lattice.join` and `lattice.meet`."""
    if not L.elements:
        return False
    elems = L.sorted_elements()
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if lt.join(L, x, y) is None or lt.meet(L, x, y) is None:
                return False
    return True


def direct_b3_search_by_joins(L: lt.BoundedLattice) -> tuple | None:
    """The first triple of elements, in `sorted_elements()` order, whose
    pairwise joins and meets by `lattice.join` and `lattice.meet` span an
    induced B(3), with that B(3); the oracle for the order-table search of
    `lattice._direct_b3_search`.  Each pair's join and meet is scanned for
    once."""
    join = functools.cache(lambda x, y: lt.join(L, x, y))
    meet = functools.cache(lambda x, y: lt.meet(L, x, y))
    for t1, t2, t3 in combinations(L.sorted_elements(), 3):
        j12, j13, j23 = join(t1, t2), join(t1, t3), join(t2, t3)
        top = join(j12, j23)
        bottom = meet(meet(t1, t2), t3)
        cand = [bottom, t1, t2, t3, j12, j13, j23, top]
        if lt._is_induced_b3(cand):
            return tuple(cand)
    return None


def triangle_by_row_triples(M: lt.BinaryMatrix) -> tuple | None:
    """The first row triple, in `combinations` order, whose sorted columns
    restrict to all three weight-2 patterns, with the first column of each
    pattern in pattern order; the oracle for `lattice.has_no_triangles`."""
    cols = sorted(M.columns)
    for rows3 in combinations(range(len(M.rows)), 3):
        found = {}
        for col in cols:
            pat = tuple(col[r] for r in rows3)
            if sum(pat) == 2 and pat not in found:
                found[pat] = col
        if len(found) == 3:
            return tuple(M.rows[r] for r in rows3), tuple(found[p] for p in sorted(found))
    return None


def b3_witness_by_matrix(L: lt.BoundedLattice) -> tuple | None:
    """`lattice._is_b3_free` by the lattice's matrix: on a family holding
    every singleton, the triangle of `has_no_triangles(lattice_to_matrix(L))`
    with its columns read back as sets and keyed by their restriction to the
    triangle's rows; otherwise the direct search."""
    if not all(frozenset([a]) in L.elements for a in L.ground):
        return lt._direct_b3_search(L)
    M = lt.lattice_to_matrix(L)
    tri = lt.has_no_triangles(M)
    if tri is None:
        return None
    (a1, a2, a3), cols = tri
    by_restriction = {}
    for col in cols:
        s = lt._column_to_set(M.rows, col)
        by_restriction[s & {a1, a2, a3}] = s
    bottom = min(L.elements, key=len)
    top = max(L.elements, key=len)
    return (bottom, frozenset([a1]), frozenset([a2]), frozenset([a3]), by_restriction[frozenset({a1, a2})],
            by_restriction[frozenset({a1, a3})], by_restriction[frozenset({a2, a3})], top)


def join_irreducibles_by_covers(L: lt.BoundedLattice) -> list[frozenset]:
    """Elements other than the bottom with exactly one `covered_elements`."""
    bottom = min(L.elements, key=len)
    return [s for s in L.sorted_elements() if s != bottom and len(covered_elements(L, s)) == 1]


def decode_prufer_by_scan(n: int, seq: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The tree of a Prüfer sequence on 0..n-1, each entry joined to the
    smallest leaf found by a scan of all vertices; the oracle for
    `generate._decode_prufer`."""
    seq = list(seq)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for i in range(n):
            if degree[i] == 1:
                edges.append((min(i, x), max(i, x)))
                degree[i] -= 1
                degree[x] -= 1
                break
    last = [i for i in range(n) if degree[i] == 1]
    edges.append((min(last), max(last)))
    return tuple(edges)


def spanning_trees(nv: int, edges: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """All spanning trees of a graph on 0..nv-1, as sorted edge-index tuples."""
    if nv == 1:
        yield ()
        return
    m = len(edges)

    def rec(i: int, parent: list[int], used: tuple[int, ...]):
        if len(used) == nv - 1:
            yield used
            return
        if i == m or len(used) + (m - i) < nv - 1:
            return

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            child = parent.copy()
            child[ru] = rv
            yield from rec(i + 1, child, used + (i,))
        yield from rec(i + 1, parent, used)

    yield from rec(0, list(range(nv)), ())


def line_graph(edges: tuple) -> list[tuple[int, int]]:
    """Edges (i, j), i < j in lexicographic order, of the line graph of a
    tree given by its edge list: the pairs of edges sharing an endpoint."""
    return [(i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
            if set(edges[i]) & set(edges[j])]


def next_trees_by_spanning_trees(edges: tuple) -> list[tuple[tuple[int, int], ...]]:
    """The spanning trees of a tree's line graph, as edge tuples, in
    `spanning_trees` order; the oracle for `generate._next_trees`."""
    lg_edges = line_graph(edges)
    return [tuple(lg_edges[k] for k in chosen) for chosen in spanning_trees(len(edges), lg_edges)]


def vine_mask_stream_by_recursion(n: int) -> Iterator[list[int]]:
    """The node masks of every labeled vine on n labels, each line graph's
    spanning trees enumerated anew at every node of the recursion; the
    oracle for `generate._vine_mask_stream`."""
    atom_masks = [1 << i for i in range(n)]
    if n <= 1:
        yield atom_masks
        return

    def expand(nodes: tuple, edges: tuple, acc: list[int]) -> Iterator[list[int]]:
        new_nodes = tuple(nodes[u] | nodes[v] for u, v in edges)
        acc = acc + list(new_nodes)
        if len(new_nodes) == 1:
            yield acc
            return
        for tree in next_trees_by_spanning_trees(edges):
            yield from expand(new_nodes, tree, acc)

    for t1 in gen.prufer_trees(n):
        yield from expand(tuple(atom_masks), t1, atom_masks)


def generate_vines_by_scan(ground: Iterable[str]) -> Iterator[vn.RegularVine]:
    """The vines of `vine_mask_stream_by_recursion`, each node's labels found
    by a scan of all labels; the oracle for `generate.generate_vines`."""
    labels = sorted(set(ground))
    for masks in vine_mask_stream_by_recursion(len(labels)):
        nodes = frozenset(frozenset(labels[i] for i in range(len(labels)) if m >> i & 1) for m in masks)
        yield vn.RegularVine(frozenset(labels), nodes)


def undouble_by_vine_split(L: lt.BoundedLattice) -> tuple[lt.BoundedLattice, tuple]:
    """(L1, C) from the first half of the lattice's vine split, the principal
    ideal of the lexicographically smaller co-atom, plus the bottom; the
    oracle for `lattice.undouble`."""
    v = lt.lattice_to_vine(L)
    if v.n < 2:
        raise StructureError("lattice.undouble", "undoubling requires n >= 2")
    top = v.rank_nodes(v.n - 1)[0]
    half = vn.RegularVine(top, frozenset(s for s in v.nodes if s <= top))
    (a,) = v.ground - half.ground
    L1 = lt._vine_to_lattice(half)
    return L1, tuple(x for x in L1.sorted_elements() if x | {a} in L.elements)


def doubled_classes_by_all_chains(n: int) -> list[gen.IsoClass]:
    """Every isomorphism class on n labels, in canonical-form order, by
    doubling every (n - 1)-class representative along every maximal chain
    of its vine and deduplicating by canonical form; the oracle for the
    canonical augmentation of `generate._doubled_classes`."""
    if n <= 1:
        form = tuple((p,) for p in range(n))
        return [gen.IsoClass(form, gen.vine_from_form(form), 1, 1)]
    auts: dict[tuple, int] = {}
    for cls in doubled_classes_by_all_chains(n - 1):
        rep = cls.representative
        view = rep._view
        for chain in vn._chains(view.masks, view.covers):  # a chain holds every label
            doubled = gen._sorted_covers(gen._doubled_masks(n - 1, view.masks, chain))
            keys, aut, _ = gen._scan(n, *doubled)
            auts[keys] = aut
    classes = []
    for keys in sorted(auts):
        form = form_by_digits(n, keys)
        classes.append(gen.IsoClass(form, gen.vine_from_form(form), math.factorial(n) // auts[keys], auts[keys]))
    return classes


def unlabeled_trees(n: int) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """(edges on 0..n-1, |Aut|) of one tree per unlabeled shape on n >= 1
    vertices, in `tree_shape` order.  Each shape on n vertices is a shape on
    n - 1 vertices with one leaf added, so the shapes grow leaf by leaf and
    are deduplicated by `tree_shape`; a shape T has n!/|Aut(T)| labelings."""
    trees: dict[tuple, tuple] = {gen.tree_shape(1, ()): ()}
    for nv in range(2, n + 1):
        grown: dict[tuple, tuple] = {}
        for edges in trees.values():
            for v in range(nv - 1):
                tree = edges + ((v, nv - 1),)
                grown.setdefault(gen.tree_shape(nv, tree), tree)
        trees = grown
    return [(trees[shape], ahu_by_recursion(n, trees[shape])[1]) for shape in sorted(trees)]


def encode_by_recursion(adj: list[list[int]], root: int, parent: int) -> tuple[str, int]:
    """(AHU code, automorphisms fixing the root) of the subtree at root that
    leads away from parent, by recursion; the oracle for the code of
    `generate._branches` and `_code`, and, through `rooted_trees_from_scratch`,
    for the |Aut_root| that `generate.rooted_trees` derives from its counts."""
    subs = [encode_by_recursion(adj, w, root) for w in adj[root] if w != parent]
    if not subs:
        return "()", 1
    subs.sort()
    aut, run, prev = 1, 0, None
    for code, sub_aut in subs:
        run = run + 1 if code == prev else 1
        aut *= sub_aut * run
        prev = code
    return "(" + "".join([code for code, _ in subs]) + ")", aut


def ahu_by_recursion(nv: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple, int]:
    """(AHU canonical form rooted at the center, |Aut|) of a tree, the whole
    tree encoded by recursion from each center; the oracle for
    `generate.tree_shape`."""
    adj = gen._adjacency(nv, edges)
    degree = [len(a) for a in adj]
    layer = [i for i in range(nv) if degree[i] <= 1]
    remaining = nv
    while remaining > 2:
        nxt = []
        for leaf in layer:
            remaining -= 1
            degree[leaf] = 0
            for w in adj[leaf]:
                if degree[w] > 0:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [i for i in range(nv) if degree[i] >= 1] or layer
    rooted = [encode_by_recursion(adj, c, -1) for c in centers]
    codes = tuple(sorted(code for code, _ in rooted))
    return codes, rooted[0][1] * (2 if len(set(codes)) < len(codes) else 1)


def rooted_trees_from_scratch(d: int) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """`generate.rooted_trees(d)` grown leaf by leaf from one vertex at every
    call, deduplicated by `encode_by_recursion`; the oracle for the table
    grown from the cached one of d - 1."""
    trees = {"()": ((), 1)}
    for nv in range(2, d + 1):
        grown: dict[str, tuple] = {}
        for edges, _ in trees.values():
            for v in range(nv - 1):
                tree = edges + ((v, nv - 1),)
                code, aut = encode_by_recursion(gen._adjacency(nv, tree), 0, -1)
                grown.setdefault(code, (tree, aut))
        trees = grown
    return [trees[code] for code in sorted(trees)]


def tree_orbits_by_permutations(d: int, k: int) -> list[frozenset]:
    """The orbits of the labeled trees on 0..d-1 under every permutation of
    vertices k..d-1, each tree as the frozenset of its edges' vertex sets;
    the oracle for `generate._clique_choices`."""
    def key(tree: Iterable[tuple[int, int]]) -> frozenset:
        return frozenset(frozenset(e) for e in tree)
    fixed = list(range(k))
    orbits, seen = [], set()
    for tree in gen.prufer_trees(d):
        if key(tree) in seen:
            continue
        orbit = frozenset(key((pi[u], pi[v]) for u, v in tree)
                          for pi in (fixed + list(p) for p in permutations(range(k, d))))
        seen |= orbit
        orbits.append(orbit)
    return orbits


def completions_by_spanning_trees(nv: int, edges: tuple, memo: dict[tuple, int]) -> int:
    """Completions of a tree sequence whose current tree is the given one,
    summed over every spanning tree of its line graph, memoized by shape;
    the oracle for `generate._completions`."""
    if nv <= 2:
        return 1
    shape = gen.tree_shape(nv, edges)
    hit = memo.get(shape)
    if hit is not None:
        return hit
    total = sum(completions_by_spanning_trees(nv - 1, tree, memo) for tree in next_trees_by_spanning_trees(edges))
    memo[shape] = total
    return total


def triangle_partners_by_labels(g: mg.MatLabeledGraph, u: str, v: str) -> set:
    """Vertices c with both labels lambda(u,c), lambda(v,c) strictly below
    lambda(u,v), by label lookups; the oracle for `matgraph.triangle_partners`."""
    k = g.labels[mg.edge_key(u, v)]
    out = set()
    for c in g.vertices:
        if c in (u, v):
            continue
        ku, kv = g.label(u, c), g.label(v, c)
        if ku is not None and kv is not None and ku < k and kv < k:
            out.add(c)
    return out


def validate_mat_labeling_by_labels(g: mg.MatLabeledGraph) -> list[Violation]:
    """The two MAT axioms checked at every level 1..max label, triangles
    found by `triangle_partners_by_labels`; the oracle for
    `matgraph.validate_mat_labeling`."""
    report: list[Violation] = []
    if not g.labels:
        return report
    maxlab = max(g.labels.values())
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
    for (u, v), k in sorted(g.labels.items()):
        partners = triangle_partners_by_labels(g, u, v)
        if len(partners) != k - 1:
            report.append(Violation("matgraph.triangles", (u, v, k),
                                    f"edge {u}-{v} (label {k}) closes {len(partners)} lower triangles, expected {k - 1}"))
    return report


def enumerate_mat_peos_by_prefix_check(g: mg.MatLabeledGraph) -> list[tuple[str, ...]]:
    """All MAT-PEOs of a valid MAT-labeled complete graph, in sorted order,
    grown by appending a vertex only while it is MAT-simplicial in the
    induced prefix: on a complete graph, x is MAT-simplicial after a prefix
    of p vertices iff its p labels to the prefix are 1..p and every prefix
    edge is labeled below the larger of its two labels to x.  The oracle for
    the graph's domain, `routes.convert_structure(g, "domain")`, which reads
    them off the graph's vine."""
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


def mat_labelings(n: int) -> Iterator[mg.MatLabeledGraph]:
    """Every labeling of the complete graph on the first n letters with
    labels 1..n-1.  No larger label is valid: an edge closes at most n - 2
    triangles."""
    labels = string.ascii_lowercase[:n]
    edges = list(combinations(labels, 2))
    for ks in product(range(1, n), repeat=len(edges)):
        yield mg.MatLabeledGraph(frozenset(labels), dict(zip(edges, ks)))


def mat_labelings_by_levels(n: int) -> Iterator[mg.MatLabeledGraph]:
    """The labelings of `mat_labelings(n)` that satisfy condition (2), each
    edge labeled k closing exactly k - 1 triangles with lower-labeled edges,
    built a level at a time: the edges labeled k are a subset of the
    unlabeled edges that close k - 1 triangles with the edges labeled so far."""
    labels = string.ascii_lowercase[:n]

    def lower_triangles(e: tuple, lab: dict) -> int:
        return sum(mg.edge_key(e[0], c) in lab and mg.edge_key(e[1], c) in lab for c in labels if c not in e)

    def level(k: int, lab: dict, rest: list) -> Iterator[mg.MatLabeledGraph]:
        if not rest:
            yield mg.MatLabeledGraph(frozenset(labels), dict(sorted(lab.items())))
            return
        if k == n:
            return
        fits = [e for e in rest if lower_triangles(e, lab) == k - 1]
        for size in range(len(fits) + 1):
            for chosen in combinations(fits, size):
                yield from level(k + 1, {**lab, **dict.fromkeys(chosen, k)}, [e for e in rest if e not in chosen])

    yield from level(1, {}, list(combinations(labels, 2)))


def never_bottom_domains(n: int) -> Iterator[dm.PreferenceDomain]:
    """Every domain of 2^(n-1) linear orders on the first n >= 1 letters that
    passes `domain.is_aspd`, grown an order at a time in sorted order.  The
    never-bottom test only gains violations as orders are added, so a
    domain that fails it is never grown."""
    labels = string.ascii_lowercase[:n]
    orders = list(permutations(labels))
    size = 2 ** (n - 1)

    def grow(chosen: tuple, start: int) -> Iterator[dm.PreferenceDomain]:
        d = dm.PreferenceDomain(frozenset(labels), frozenset(chosen))
        if not dm.is_aspd(d)[0]:
            return
        if len(chosen) == size:
            yield d
            return
        for i in range(start, len(orders) - (size - len(chosen)) + 1):
            yield from grow(chosen + (orders[i],), i + 1)

    yield from grow((), 0)


def extremal_size_families(n: int) -> Iterator[lt.BoundedLattice]:
    """Every family of 1 + n + C(n, 2) subsets of the first n letters."""
    labels = string.ascii_lowercase[:n]
    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(labels, k)]
    for family in combinations(subsets, 1 + n + n * (n - 1) // 2):
        yield lt.BoundedLattice(frozenset(family))


def family_matrix(n: int, family: Iterable[frozenset]) -> lt.BinaryMatrix:
    """The characteristic vectors of the family, rows the first n letters."""
    rows = tuple(string.ascii_lowercase[:n])
    return lt.BinaryMatrix(rows, frozenset(tuple(int(r in s) for r in rows) for s in family))


def triangle_free_extremal_matrices(n: int) -> Iterator[lt.BinaryMatrix]:
    """Every triangle-free matrix with rows the first n letters and
    1 + n + C(n, 2) distinct columns.  A triangle's three columns have
    weight two on its rows, so adding the zero column, a weight-one column
    or the all-ones column to a triangle-free matrix makes no triangle, and
    by the extremal bound on the column count an extremal matrix holds all
    of them.  The walk chooses the other columns in order and drops a
    choice as soon as three of its rows carry all three weight-two
    patterns: a triangle stays when columns are added."""
    rows = tuple(string.ascii_lowercase[:n])
    forced = {(0,) * n, (1,) * n} | {tuple(int(i == j) for j in range(n)) for i in range(n)}
    free = [c for c in product((0, 1), repeat=n) if c not in forced]
    triples = list(combinations(range(n), 3))
    need = 1 + n + n * (n - 1) // 2 - len(forced)

    def patterns(col: tuple) -> list[int]:
        """Per row triple, the bit of the column's weight-two pattern on it."""
        return [1 << (col[a] + 2 * col[b]) % 3 if col[a] + col[b] + col[c] == 2 else 0 for a, b, c in triples]

    table = [patterns(c) for c in free]

    def grow(chosen: list, seen: list, start: int) -> Iterator[lt.BinaryMatrix]:
        if len(chosen) == need:
            yield lt.BinaryMatrix(rows, frozenset(forced) | frozenset(free[i] for i in chosen))
            return
        for i in range(start, len(free) - (need - len(chosen)) + 1):
            grown = [s | p for s, p in zip(seen, table[i])]
            if 7 not in grown:
                yield from grow(chosen + [i], grown, i + 1)

    yield from grow([], [0] * len(triples), 0)
