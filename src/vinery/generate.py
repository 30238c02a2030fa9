"""Exhaustive generation, canonical forms, classification and counting.

Labeled regular vines are generated by the tree-sequence construction: pick a
tree on the singletons, then repeatedly a spanning tree of the previous
tree's line graph (proximity makes exactly the line-graph edges admissible).
This produces every labeled vine exactly once, so no dedup set is needed.
The line graph of a tree is one clique per vertex of degree d >= 2, the
indices of its d edges (`_incidence`), and no two cliques share a
line-graph edge, so its spanning trees are the products of one labeled tree
per clique, prod d^(d-2) of them (Cayley per clique).  The next level's
trees of a tree come from one helper, `_next_trees`, which the stream and
`random_vine` share: each tree of the product as the sorted tuple of its
index pairs (i, j), i < j, into the edge list, and the trees in
lexicographic order.  That is the order of a backtracker over the
line-graph edges in lexicographic order that tries "include edge i" before
"exclude edge i": of two spanning trees, the one holding the first edge
only one of them holds comes out first, and its sorted tuple is the
smaller, since both agree before that edge and the other's next edge is
larger.  So the stream and `random_vine`'s draws are those of such a
backtracker.  `_next_trees` reads the tree's edges only through
`len(edges)` and its cliques, so everything below a tree depends only on
the key (len(edges), sorted cliques): two trees with one key have the same
completions as index programs.  The stream works on integer node masks
over the sorted labels, and every call keeps one memo of its own that maps
each key below level 1 to its program, the list of all its completions in
stream order: each is one flat tuple of index pairs (i, j), each appending
`out[i] | out[j]` to a list `out` that starts with the tree's own nodes.  A
tree's program is every next tree's edges followed by each of that tree's
programs, shifted by len(edges).  Level-1 trees keep only their next trees,
by the same key: flattening their programs too would hold every vine's
program at once.  So `_next_trees` runs once per distinct clique key (87
times at n = 6, under 1,296 level-1 trees), and each vine is one loop of
ORs over the level-2 nodes, yielded as a fresh list.  Only
`generate_vines` turns the masks into frozenset vines, through a table of
the 2^n label sets indexed by mask that is built once per call, so its
vines share their node sets and those sets' cached hashes; the CLI's
`count --mode generate` and `selftest` count the mask stream itself.

Canonical forms come from one mask kernel.  It reads every node's covers
off `vine._mask_covers` (a vine object's off its cached index view) and
finds the least sorted list of integer node keys over the labelings that
the maximal chains induce by first appearance.  It descends the chains
from the top by branch and bound: at each chain node the keys of the nodes
above it that miss the atom just removed are settled, and they extend a
prefix of the chain's final sorted list; the two covers are tried best
first, and a subtree is skipped once its prefix and a bound on the keys
still unsettled lose to the best list found so far (`_scan` proves it
exact).  It returns that list, the number of chains attaining it, which is
|Aut|, and the atoms' positions along one of them, which relabel the vine
onto its canonical form.  Only the winning list is turned back into the
tuple form.  Vines enter the kernel as masks once, at the boundary.

The class table at every n (`class_representatives`, `catalog_entries`)
comes from the merge step of the split/merge recursion: every extremal
lattice on n labels is an (n - 1)-lattice doubled along a maximal chain (a
lattice's chains are its vine's plus the bottom), so doubling each
(n - 1)-class representative along each chain, in masks, and
deduplicating by canonical form finds every class.  The levels below the
top do that.  The top level runs the kernel once per class by canonical
augmentation (McKay 1998): every vine splits along its two co-atoms and is
the doubling of either half, so every n-class has exactly two parents, and
a doubling is kept only when the representative it doubles is the smaller
of the two.  The other parent is one lookup in the level below, whose
table gives the class of every (representative, chain) doubling.  Each
class is kept from its smaller parent, and only once but for ties (both
parents in one class, deduplicated by canonical form): a class kept from
two representatives would have each as its other parent, smaller both
ways, and an isomorphism between two doublings of one representative
whose co-atoms lie in different classes fixes the fresh label, so it is
an automorphism taking one chain to the other, and the top level doubles
one chain per orbit (`_doubled_classes` spells this out), paired by the σ
of `lattice._automorphism`.  The orbits n!/|Aut| must add up to the
labeled count at every level.  A doubling's covers are not rescanned:
`_doubled_covers` reads them off its representative's sorted masks and
covers, which are computed once per class, and rescans only along a chain
that is not saturated.  Each doubling built is checked by
`vine._mask_violations` on the kernel's own sorted masks and covers.
Classifying the full generator stream (`classify(generate_vines(...))`) is
the independent route the tests and `selftest` check it against.

Counting uses the observation that the number of completions of a partial
tree sequence depends only on the unlabeled shape of the current tree, which
collapses the count into a shape-memoized DP that starts from the star with
n edges (its line graph K_n has the labeled level-1 trees as its spanning
trees).  The DP never lists a tree's next trees: it takes the cliques from
`_incidence` and multiplies per-clique choices.  A clique's leaf edges, the
ones that end in a leaf, lie in no other clique, so permuting them relabels
the next tree without changing its shape.  So each clique, its inner edges
first, contributes one labeled tree per orbit under the permutations of its
leaf edges, weighted by the orbit's size (`_clique_choices`, one cached
table per clique size d and inner-edge count k), each counted from the one
below it without listing a labeled tree.  For a pendant clique, k <= 1, the
orbits are the rooted shapes, whose counts follow from their parents' by
marking a leaf (`_rooted_table`); for k >= 2 each orbit of (d, k - 1) splits
by the vertex that takes label k - 1, keyed by its tagged AHU code.
Rooted and unrooted shapes come from one iterative AHU encoder, and the
memo is keyed by codes alone, without automorphism counts.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import string
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import lattice as lt
from . import serialize as io
from . import species as sp
from . import vine as vn
from .errors import InternalInconsistencyError, StructureError, _UnionFind, checked

GENERATION_CAP = 7
# Largest n that `catalog` accepts.
CATALOG_CAP = 7
# Largest n that `count --mode generate` accepts: on a 2-vCPU Xeon the counting
# DP takes about 0.1 s at n = 10 and 0.4 s at n = 11.
COUNT_CAP = 10


# ---------------------------------------------------------------- tree tools

def _require_size(n: int, least: int = 0) -> None:
    """The range check of every enumeration entry: n >= least."""
    if n < least:
        raise StructureError("enumerate.range", f"n >= {least} required")


def _decode_prufer(n: int, seq: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The tree of a Prüfer sequence on 0..n-1, n >= 2: each entry joins the
    smallest leaf left, found by a scan of the degrees, and the leaf leaves.
    The last edge joins the smallest leaf left to n - 1."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        degree[leaf] = 0
        degree[x] -= 1
        edges.append((leaf, x) if leaf < x else (x, leaf))
    edges.append((degree.index(1), n - 1))
    return tuple(edges)


def prufer_trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labeled trees on vertices 0..n-1, one per Prüfer sequence."""
    _require_size(n, 1)
    if n == 1:
        yield ()
        return

    seq = [0] * (n - 2)
    while True:
        yield _decode_prufer(n, seq)
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


def _adjacency(nv: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _code(subs: list[str]) -> str:
    """The AHU code of a rooted tree from its children's, sorted."""
    return "(" + "".join(subs) + ")"


def _branches(adj: list[list[int]], root: int, parent: int, subs: list[list] | None = None) -> list[str]:
    """The sorted AHU codes of the subtrees at root's neighbours other than
    parent, each leading away from root.  A subtree's code is `_code` of its
    children's sorted codes, together with the entries that `subs` gives its
    vertex in advance (none by default).  No recursion: the walk lists the
    vertices breadth first and folds them in reverse, each before its
    parent."""
    order, above = [root], [parent] * len(adj)
    for v in order:
        up = above[v]
        for w in adj[v]:
            if w != up:
                above[w] = v
                order.append(w)
    if subs is None:
        subs = [[] for _ in adj]
    for v in order[:0:-1]:
        kids = subs[v]
        if kids:
            kids.sort()
            sub = _code(kids)
        else:
            sub = "()"
        subs[above[v]].append(sub)
    kids = subs[root]
    kids.sort()
    return kids


def _shape(nv: int, edges: Iterable[tuple[int, int]]) -> tuple:
    """The sorted AHU codes of a tree on 0..nv-1 rooted at each of its one
    or two centers.  A bicentral tree's halves, each center's subtree away
    from the other, are walked once, and each center's children are its
    half's with the other half inserted."""
    adj = _adjacency(nv, edges)
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
    if len(layer) == 1:  # the last layer holds the centers
        return (_code(_branches(adj, layer[0], -1)),)
    c, e = layer
    a, b = _branches(adj, c, e), _branches(adj, e, c)
    half_a, half_b = _code(a), _code(b)
    bisect.insort(a, half_b)
    bisect.insort(b, half_a)
    return tuple(sorted([_code(a), _code(b)]))


def tree_shape(nv: int, edges: Iterable[tuple[int, int]]) -> tuple:
    """AHU canonical form of an unlabeled tree: its sorted codes rooted at
    each center.  The edges must form a tree on 0..nv-1: nv - 1 of them,
    endpoints in range, no cycle."""
    _require_size(nv, 1)
    edges = tuple(edges)
    uf = _UnionFind(range(nv))
    if len(edges) != nv - 1 or not all(0 <= u < nv and 0 <= v < nv and uf.union(u, v) for u, v in edges):
        raise StructureError("enumerate.tree", f"the edges are not a tree on 0..{nv - 1}", witness=edges)
    return _shape(nv, edges)


@functools.cache
def _rooted_table(d: int) -> dict[str, tuple[tuple[tuple[int, int], ...], int]]:
    """{root code: (edges, count)} of one tree per rooted shape on d
    vertices, in the order found: d - 1's table with a leaf added, and the
    number of labeled trees on 0..d-1 with that shape rooted at 0.  Such a
    tree with one of its L non-root leaves marked is the leaf's label (d - 1
    choices), the labeled tree left and the vertex the leaf hangs from, so
    count * L = (d - 1) * the parents' counts summed over the ways to grow."""
    if d == 1:
        return {"()": ((), 1)}
    grown: dict[str, list] = {}
    for edges, count in _rooted_table(d - 1).values():
        adj = _adjacency(d, edges)  # the new vertex d - 1 alone
        for v in range(d - 1):
            adj[v].append(d - 1)
            adj[d - 1].append(v)
            grown.setdefault(_code(_branches(adj, 0, -1)), [edges + ((v, d - 1),), 0])[1] += count
            adj[v].pop()
            adj[d - 1].pop()
    # each leaf's code is the one "()" in it, and the root is no leaf
    return {code: (edges, (d - 1) * total // code.count("()")) for code, (edges, total) in grown.items()}


def rooted_trees(d: int) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """(edges on 0..d-1, |Aut_root|) of one tree per rooted shape on d >= 1
    vertices, rooted at 0, in AHU code order: the shapes of `_rooted_table`,
    each standing for count = (d - 1)!/|Aut_root| labeled trees."""
    _require_size(d, 1)
    return [(edges, math.factorial(d - 1) // count) for edges, count in _clique_choices(d, 1)]


# ------------------------------------------------------------- vine streams

def _incidence(nv: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The indices of every vertex's edges, ascending, for a tree on
    0..nv-1: each list of length >= 2 is one clique of its line graph."""
    at: list[list[int]] = [[] for _ in range(nv)]
    for k, (u, v) in enumerate(edges):
        at[u].append(k)
        at[v].append(k)
    return at


def _clique_trees(clique: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """Every labeled tree on a clique's edge indices, ascending, as the
    `prufer_trees` of its size mapped onto it: pairs in ascending order."""
    return [tuple((clique[i], clique[j]) for i, j in tree) for tree in prufer_trees(len(clique))]


def _next_trees(edges: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """The next level's trees of a tree given by its edge list: the spanning
    trees of its line graph, one labeled tree per clique, as sorted tuples
    of index pairs (i, j), i < j, in lexicographic order."""
    cliques = [c for c in _incidence(len(edges) + 1, edges) if len(c) > 1]
    return sorted(tuple(sorted(itertools.chain.from_iterable(picked)))
                  for picked in itertools.product(*map(_clique_trees, cliques)))


def _vine_mask_stream(n: int) -> Iterator[list[int]]:
    """Node masks (bit i for the i-th label) of every labeled vine on n
    labels, exactly once, in a deterministic order: atoms, then level by
    level.  Each yielded list is a fresh object."""
    _require_size(n)
    if n > GENERATION_CAP:
        raise StructureError("enumerate.cap", f"generation capped at n <= {GENERATION_CAP}")
    atoms = [1 << i for i in range(n)]
    if n <= 1:
        yield atoms
        return
    programs: dict[tuple, list[tuple]] = {}  # per key below level 1
    successors: dict[tuple, list[tuple]] = {}  # per level-1 key: its `next_trees`

    def key_of(edges: tuple) -> tuple:
        """(len(edges), the sorted cliques): all that `_next_trees` reads."""
        return len(edges), tuple(sorted(tuple(c) for c in _incidence(len(edges) + 1, edges) if len(c) > 1))

    def next_trees(edges: tuple) -> list[tuple[tuple, list[tuple]]]:
        return [(tree, program(tree)) for tree in _next_trees(edges)]

    def program(edges: tuple) -> list[tuple]:
        """Every completion of the tree, in stream order, as the index pairs
        (i, j) whose `out[i] | out[j]` extend the list `out` of the tree's
        own nodes."""
        m = len(edges)
        if m <= 1:
            return [()]
        key = key_of(edges)
        found = programs.get(key)
        if found is None:
            found = programs[key] = [tree + tuple((i + m, j + m) for i, j in rest)
                                     for tree, rests in next_trees(edges) for rest in rests]
        return found

    for t1 in prufer_trees(n):
        level1 = [atoms[u] | atoms[v] for u, v in t1]
        head = atoms + level1
        key = key_of(t1)
        if key not in successors:
            successors[key] = next_trees(t1)
        for t2, rests in successors[key]:
            level2 = [level1[i] | level1[j] for i, j in t2]
            for rest in rests:
                out = level2.copy()
                for i, j in rest:
                    out.append(out[i] | out[j])
                yield head + out


def _label_sets(labels: Sequence[str]) -> list[frozenset]:
    """The set of labels of every mask over the labels, indexed by mask."""
    table = [frozenset()]
    for x in labels:
        table += [s | {x} for s in table]
    return table


def generate_vines(ground: Iterable[str]) -> Iterator[vn.RegularVine]:
    """Every labeled regular vine on the ground set, exactly once, in a
    deterministic order."""
    labels = sorted(set(ground))
    stream = _vine_mask_stream(len(labels))
    first = next(stream)  # the cap check, before the 2^n table is built
    table = _label_sets(labels)
    for masks in itertools.chain((first,), stream):  # all vines share the table's sets
        yield vn.RegularVine(table[-1], frozenset(map(table.__getitem__, masks)))


def random_vine(ground: Iterable[str], rng: random.Random) -> vn.RegularVine:
    """One labeled vine, drawn by uniform choices along the tree-sequence
    construction (uniform per level, not over all vines)."""
    labels = sorted(set(ground))
    n = len(labels)
    # each node's set is the union of its two covers' sets: no 2^n table,
    # since n is not capped here
    nodes = [frozenset((x,)) for x in labels]
    found = nodes.copy()
    if n > 1:
        edges = _decode_prufer(n, [rng.randrange(n) for _ in range(n - 2)])
        while True:
            nodes = [nodes[u] | nodes[v] for u, v in edges]
            found += nodes
            if len(nodes) == 1:
                break
            edges = rng.choice(_next_trees(edges))
    return vn.RegularVine(frozenset(labels), frozenset(found))


# ------------------------------------------------------------ counting DP

@functools.cache
def _clique_choices(d: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """(edges on 0..d-1, orbit size) of one labeled tree per orbit under the
    permutations of vertices k..d-1: the choices of a clique of d edges, k
    of them inner and first, the rest ending in leaves.  k = 0, a star's
    clique, takes k = 1's table (any edge stands in for vertex 0), which
    splits the same trees more finely and is just as exact.

    For k <= 1 the orbits are the rooted shapes of `_rooted_table`, in AHU
    code order.  Above, each orbit of (d, k - 1) splits by the untagged
    vertex u that takes label k - 1: its trees put that label on each of
    their d - k + 1 untagged vertices equally often, so each u adds
    weight/(d - k + 1).  Every tree is keyed by its AHU code rooted at 0 with
    each vertex v < k tagged: its number is one more entry among its
    children's codes, and sorts after them.  Two trees share the key exactly
    when a permutation of k..d-1 maps one onto the other; the first u found
    stands for its orbit.  Immutable, so one table serves every call."""
    if k <= 1:
        table = _rooted_table(d)
        return tuple(table[code] for code in sorted(table))
    found: dict[str, list] = {}
    for tree, weight in _clique_choices(d, k - 1):
        adj = _adjacency(d, tree)
        for u in range(k - 1, d):
            h = list(range(d))
            h[u], h[k - 1] = k - 1, u  # the relabeling that puts label k - 1 on u
            code = _code(_branches(adj, 0, -1, [[str(h[v])] if h[v] < k else [] for v in range(d)]))
            found.setdefault(code, [tuple((h[p], h[q]) for p, q in tree), 0])[1] += weight
    return tuple((tree, total // (d - k + 1)) for tree, total in found.values())


def _completions(nv: int, edges: Sequence[tuple[int, int]], memo: dict[tuple, int]) -> int:
    """Completions of a tree sequence whose current tree is the given one;
    depends only on the unlabeled shape, whose codes (`_shape`) key the memo.

    The next tree is a spanning tree of the line graph, one clique per
    vertex of degree d >= 2 (its d edges), so it picks one labeled tree per
    clique, independently.  A clique's edges are inner when their other end
    is not a leaf, and leaf edges otherwise.  A leaf edge lies in no other
    clique, and permuting the leaves of one vertex's leaf edges is an
    automorphism of the current tree that moves no other edge.  So it maps
    the next tree onto one of the same shape and changes only that clique's
    pick: each clique, its inner edges first, takes one tree per orbit under
    the permutations of its leaf edges (`_clique_choices`), weighted by the
    orbit's size.
    """
    if nv <= 2:
        return 1
    shape = _shape(nv, edges)  # edges is a tree: skip `tree_shape`'s check
    hit = memo.get(shape)
    if hit is not None:
        return hit
    at = _incidence(nv, edges)
    choices = []
    for v, clique in enumerate(at):
        if len(clique) < 2:
            continue
        inner = [k for k in clique if len(at[sum(edges[k]) - v]) > 1]  # other end not a leaf
        order = inner + [k for k in clique if k not in inner]
        choices.append([(tuple((order[i], order[j]) for i, j in tree), weight)
                        for tree, weight in _clique_choices(len(clique), len(inner))])
    total = 0
    for picked in itertools.product(*choices):
        tree = tuple(e for part, _ in picked for e in part)
        total += math.prod(weight for _, weight in picked) * _completions(nv - 1, tree, memo)
    memo[shape] = total
    return total


def count_vines(n: int) -> int:
    """|generate_vines(n)|: the completions of the star with n edges, whose
    line graph K_n has the labeled level-1 trees as its spanning trees, from
    a shape-memoized DP local to this call."""
    _require_size(n)
    return _completions(n + 1, tuple((0, k) for k in range(1, n + 1)), {})


# ------------------------------------------------------- counting formulas

def labeled_count_formula(n: int) -> int:
    _require_size(n)
    if n <= 1:
        return 1
    value = Fraction(2) ** ((n - 2) * (n - 3) // 2 - 1) * math.factorial(n)
    if value.denominator != 1:
        raise InternalInconsistencyError(f"labeled count formula non-integral at n={n}")
    return int(value)


def unlabeled_count_formula(n: int) -> int:
    _require_size(n)
    if n <= 3:
        return 1
    pre = Fraction(2) ** ((n - 2) * (n - 3) // 2 - 1)
    kmax = n // 2 - 1
    total = Fraction(0)
    for k in range(kmax + 1):
        c = 2 if k == kmax else 1
        total += c * Fraction(2) ** (-k * (n - k - 2))
    value = pre * total
    if value.denominator != 1:
        raise InternalInconsistencyError(f"unlabeled count formula non-integral at n={n}")
    return int(value)


def recursive_pq_counts(n: int) -> tuple[int, int]:
    """(p_n, q_n): unlabeled class counts with automorphism order 2 and 1."""
    _require_size(n)
    table: dict[int, tuple[Fraction, Fraction]] = {0: (Fraction(0), Fraction(1)),
                                                   1: (Fraction(0), Fraction(1)),
                                                   2: (Fraction(1), Fraction(0))}
    for m in range(3, n + 1):
        p2, q2 = table[m - 2]
        a = Fraction(2) ** (m - 3)
        b = Fraction(2) ** (m - 4)
        p = a * (p2 + q2)
        q = b * (b - 1) * p2 + b * (2 * b - 1) * q2
        table[m] = (p, q)
    p, q = table[n]
    if p.denominator != 1 or q.denominator != 1:
        raise InternalInconsistencyError(f"recursion non-integral at n={n}")
    return int(p), int(q)


# ------------------------------------------------- canonical forms, classes
#
# The kernel works on a vine given as integer node masks by rank, one bit per
# label, so its atoms come first.  A maximal chain orders the ground set by
# first appearance: position 0 for its atom, position r - 1 for the one bit
# its rank-r node adds.  In the key of a node every position p is a two-bit
# digit, most significant first: 01 past the node's largest position, 10 for
# a position in the node, 11 for one missing below the largest.  Integer
# order on keys is then the lexicographic order of the nodes' sorted
# position tuples.  The digits before the XOR with _even(n) (11 in, 10
# missing, 00 past) are ORs of the two covers' digits, so a chain costs one
# OR per non-atom node.

def _even(n: int) -> int:
    return sum(1 << 2 * q for q in range(n))


def _sorted_covers(masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """A vine's node masks in (rank, mask) order and their covers: `_scan`'s input."""
    nodes = sorted(masks, key=lambda m: (m.bit_count(), m))
    return nodes, vn._mask_covers(nodes)[1]


def _scan(n: int, nodes: Sequence[int], cover_bits: Sequence[int]) -> tuple[tuple, int, list[int]]:
    """The kernel: (the sorted non-atom keys of the least chain-induced
    encoding, how many chains attain it, the position of each atom, in
    `nodes` order, in the first-appearance order of one chain attaining it)
    for the node masks of a valid vine, by rank, and their covers: those of
    `_sorted_covers` or of the vine's index view.  The positions relabel the
    vine onto its canonical form.

    Every relabeling permutes the maximal chains, so the least encoding is a
    complete isomorphism invariant and the chains attaining it are one orbit
    of the automorphism group: their number is |Aut|.

    It descends the chains from the top, depth first, and settles keys as
    it goes.  At the chain node C_r of rank r, reached by removing the atom
    a_r, positions r..n-1 are fixed, so every node X ⊇ C_r has its exact
    key: it holds all of positions 0..r-1, whose order does not matter.
    The search is exact for these reasons:

    - Keys order nodes by their sorted position tuples, so the chain's own
      nodes (0..s-1), s = 2..n, are the n - 1 least non-atom keys of every
      chain, and only the other keys decide a comparison.
    - Every non-chain X ⊇ C_r holds 0..r-1 and a later position, and every
      non-chain node not holding C_r misses a position below r first: the
      former keys are the smaller.  So the batch settled at C_r, the keys
      of the nodes X ⊋ C_r that miss a_r, sorted, follows the batches
      settled above it in the chain's final sorted list, and the batches
      join into a prefix of it; the last, at C_0 = ∅, holds the non-atom
      nodes that miss position 0.
    - At C_r, every key still unsettled is that of a non-chain node missing
      a position below r, so it is >= the key of (0..r-2, r), `bound[r]`.
    - A child whose prefix followed by its bound exceeds the head of the
      best list so far has every leaf below it larger than that list, so
      larger than the final best.  A leaf attaining the final best is never
      skipped, so the hit count is exact; `best` ends in a key past every
      real one, so a complete prefix equal to it is kept.  The order in
      which the two covers are tried, best first, affects only the speed.
    """
    if n <= 1:
        return (), 1, list(range(n))
    even = _even(n)
    weight, full, missing = [], [0], 0  # full[r]: the digit 11 at positions 0..r-1
    for p in range(n):
        shift = 2 * (n - 1 - p)
        weight.append(missing | 3 << shift)
        missing |= 2 << shift
        full.append(full[-1] | 3 << shift)
    bound = [0] + [(full[r - 1] | weight[r]) ^ even for r in range(1, n)]
    above = [r * (n + 1) - r * (r + 1) // 2 for r in range(n)]  # index of the first node of rank > r
    end = 1 << 2 * n  # past every key
    digit = {}  # per atom mask: its weight along the chain descended
    best, hits, chain = None, 0, []

    def settle(r: int, c: int, a: int) -> list[int]:
        """The sorted keys of the non-atom nodes X ⊋ C_r = c that miss a."""
        keys = []
        for i in range(above[max(r, 1)], len(nodes)):
            x = nodes[i]
            if x & c == c and not x & a:
                d, rest = full[r], x ^ c
                while rest:
                    low = rest & -rest
                    d |= digit[low]
                    rest ^= low
                keys.append(d ^ even)
        keys.sort()
        return keys

    def descend(k: int, r: int, prefix: list[int]) -> None:
        nonlocal best, hits, chain
        c = nodes[k]
        if r == 1:
            digit[c] = weight[0]
            keys = prefix + settle(0, 0, c)
            keys.append(end)
            if best is None or keys < best:
                best, hits, chain = keys, 1, [digit[m] for m in nodes[:n]]
            elif keys == best:
                hits += 1
            return
        tries = []
        low = cover_bits[k] & -cover_bits[k]
        for j in (low.bit_length() - 1, cover_bits[k].bit_length() - 1):
            a = c ^ nodes[j]
            digit[a] = weight[r - 1]
            head = prefix + settle(r - 1, nodes[j], a)
            head.append(bound[r - 1])
            tries.append((head, j, a))
        tries.sort()
        for head, j, a in tries:
            if best is None or head <= best[:len(head)]:
                digit[a] = weight[r - 1]
                head.pop()
                descend(j, r - 1, head)

    descend(len(nodes) - 1, n, [])
    # an atom at position p has the digit 11 at 2 (n - 1 - p) and no lower bit
    positions = [n - 1 - ((d & -d).bit_length() - 1) // 2 for d in chain]
    return tuple([full[s] ^ even for s in range(2, n + 1)] + best[:-1]), hits, positions


@functools.lru_cache(maxsize=1 << 12)
def _positions(n: int, digits: int) -> tuple[int, ...]:
    """A node's sorted positions from its in-node digits `raw & raw >> 1 &
    _even(n)`, raw = key ^ _even(n), bit 2 (n - 1 - p) for position p; the
    class tables decode the same node sets over and over."""
    return tuple(p for p in range(n) if digits >> 2 * (n - 1 - p) & 1)


def _form(n: int, keys: Iterable[int]) -> tuple:
    """The encoding `tuple(sorted(tuple(sorted(positions)) ...))` of the
    kernel's keys, with the atoms' one-element tuples merged back in."""
    even = _even(n)
    nodes = [_positions(n, raw & raw >> 1 & even) for raw in map(even.__xor__, keys)]
    return tuple(sorted(nodes + [(p,) for p in range(n)]))


def _canonical_form_and_aut(v: vn.RegularVine) -> tuple[tuple, int]:
    """(canonical_form(v), |Aut(v)|) of a valid vine, by one chain scan."""
    keys, hits, _ = _scan(v.n, v._view.masks, v._view.covers)
    return _form(v.n, keys), hits


def _canonical_form(v: vn.RegularVine) -> tuple:
    """Minimum node-set encoding over the maximal-chain-induced labelings of
    a valid vine: `tuple(sorted(tuple(sorted(order[x] for x in s)) ...))`,
    where `order` numbers the ground set in a chain's first-appearance order.
    """
    return _canonical_form_and_aut(v)[0]


canonical_form_and_aut = checked(vn.require_valid, _canonical_form_and_aut)
canonical_form = checked(vn.require_valid, _canonical_form)


def vine_from_form(form: tuple) -> vn.RegularVine:
    """Rebuild the canonically labeled vine encoded by a canonical form."""
    size = max((i for node in form for i in node), default=-1) + 1
    labels = string.ascii_lowercase[:size]
    nodes = frozenset(frozenset(labels[i] for i in node) for node in form)
    return vn.RegularVine(frozenset(labels), nodes)


class IsoClass(NamedTuple):
    form: tuple
    representative: vn.RegularVine  # canonically labeled
    orbit_size: int
    aut_order: int


def classify(vines: Iterable[vn.RegularVine]) -> list[IsoClass]:
    """Group labeled vines by canonical form; assert orbit sizes n!/|Aut|.
    Each vine is checked by `vine.require_valid`, as by `canonical_form`,
    and the kernel reads its index view."""
    auts: dict[tuple, int] = {}
    orbits: Counter = Counter()
    n = None
    for v in vines:
        if n is None:
            n = v.n
        elif v.n != n:
            raise StructureError("enumerate.mixed", "classification requires a uniform ground size")
        vn.require_valid(v)
        keys, auts[keys], _ = _scan(n, v._view.masks, v._view.covers)
        orbits[keys] += 1
    for keys, aut in auts.items():
        if orbits[keys] * aut != math.factorial(n):
            raise InternalInconsistencyError(
                f"orbit size {orbits[keys]} with |Aut|={aut} violates n!={math.factorial(n)}")
    return list(_iso_classes(n, auts))


def _iso_classes(n: int, auts: dict[tuple, int]) -> Iterator[IsoClass]:
    """The classes on n labels given as {keys: |Aut|}, in canonical-form
    order, each with its orbit n!/|Aut|, decoded as it is drawn."""
    for keys in sorted(auts):  # key order is form order
        form = _form(n, keys)
        yield IsoClass(form, vine_from_form(form), math.factorial(n) // auts[keys], auts[keys])


def _doubled_masks(n: int, masks: list[int], chain: Sequence[int]) -> list[int]:
    """Node masks of the vine of the lattice doubled along a maximal chain:
    the chain plus the empty bottom, each joined with the fresh bit 1 << n."""
    fresh = 1 << n
    return masks + [fresh] + [c | fresh for c in chain]


def _doubled_covers(n: int, nodes: list[int], covers: list[int], chain: Sequence[int]) -> tuple[list[int], list[int]]:
    """`_sorted_covers(_doubled_masks(n - 1, nodes, chain))` for the sorted
    masks and covers of a vine on n - 1 labels, read off them when the chain
    c_1 < ... < c_{n-1} is saturated: an atom, each member covered by the
    next, the top.  Any other chain is rescanned.

    The old nodes keep their covers, {f} covers nothing, c_1 | f covers c_1
    and {f}, and c_i | f covers c_i and c_{i-1} | f.  The fresh bit f is the
    highest, so the fresh node of each rank sorts last in it: an old node of
    rank r moves up r - 1 places, and its covers, of rank r - 1, r - 2."""
    k = len(nodes) - 1
    at = [k]  # the chain's indices, top first
    if len(chain) == n - 1 and chain[-1] == nodes[k] and chain[0].bit_count() == 1:
        for c in chain[-2::-1]:
            cov = covers[k]
            k = cov.bit_length() - 1
            if nodes[k] != c:
                k = (cov & -cov).bit_length() - 1
            if not cov or nodes[k] != c:
                break
            at.append(k)
    if len(at) != n - 1:
        return _sorted_covers(_doubled_masks(n - 1, nodes, chain))
    at.reverse()
    fresh = 1 << n - 1
    masks, out = nodes[:n - 1] + [fresh], covers[:n - 1] + [0]
    start = n - 1  # the first old node of rank r
    for r in range(2, n + 1):  # old rank r holds n - r nodes
        stop, below = start + n - r, len(out) - 1  # the fresh node of rank r - 1 is last in its rank
        masks += nodes[start:stop]
        masks.append(chain[r - 2] | fresh)
        out += [c << r - 2 for c in covers[start:stop]]
        out.append(1 << at[r - 2] + r - 2 | 1 << below)
        start = stop
    return masks, out


def _double(n: int, nodes: list[int], covers: list[int], chain: Sequence[int]) -> tuple[tuple, int, list[int]]:
    """`_scan` of the vine on n labels doubled from the sorted masks
    and covers of one on n - 1 labels along one of their maximal chains,
    once `vine._mask_violations` has checked it on the kernel's own sorted
    masks and covers, those `_doubled_covers` derives."""
    masks, cover_bits = _doubled_covers(n, nodes, covers, chain)
    if records := vn._mask_violations((1 << n) - 1, masks, cover_bits):
        raise InternalInconsistencyError(f"doubling produced an invalid vine at n={n}: {records[0][0]}")
    return _scan(n, masks, cover_bits)


def _representative(n: int, keys: tuple) -> tuple[list[int], list[int]]:
    """`_sorted_covers` of the canonically labeled vine with these kernel
    keys, bit p for position p."""
    return _sorted_covers([sum(1 << p for p in node) for node in _form(n, keys)])


def _check_classes(n: int, auts: dict[tuple, int]) -> None:
    """The orbits n!/|Aut| of the classes must add up to the labeled count,
    the classes to the unlabeled count formula and their |Aut| tally to the
    recursion's (p_n, q_n)."""
    total = math.factorial(n)
    covered, expected = sum(total // aut for aut in auts.values()), labeled_count_formula(n)
    if covered != expected:
        raise InternalInconsistencyError(
            f"doubled classes cover {covered} of the {expected} labeled vines at n={n}")
    (p, q), tally = recursive_pq_counts(n), Counter(auts.values())
    if len(auts) != unlabeled_count_formula(n) or tally != Counter({2: p, 1: q}):
        raise InternalInconsistencyError(
            f"{len(auts)} doubled classes with |Aut| tally {dict(sorted(tally.items()))} at n={n}, the closed "
            f"forms give {unlabeled_count_formula(n)} classes, p={p} with |Aut|=2 and q={q} with |Aut|=1")


def _class_table(n: int) -> tuple[dict[tuple, int], dict[tuple, tuple]]:
    """({keys: |Aut|} of the n-classes, {(keys of an (n - 1)-class, a
    maximal chain of its representative): keys of the doubling along it}),
    by doubling every (n - 1)-class representative along every chain."""
    if n <= 1:
        return {(): 1}, {}
    auts: dict[tuple, int] = {}
    table: dict[tuple, tuple] = {}
    for rep in _class_table(n - 1)[0]:
        nodes, covers = _representative(n - 1, rep)
        for chain in vn._chains(nodes, covers):
            keys, auts[keys], _ = _double(n, nodes, covers, chain)
            table[rep, chain] = keys
    _check_classes(n, auts)
    return auts, table


def _one_chain_per_orbit(n: int, nodes: list[int], covers: list[int], aut: int) -> list[tuple]:
    """One maximal chain per orbit of the automorphism group of a
    canonically labeled vine on n labels, given by `_representative`.

    The group acts freely on the chains: an automorphism fixing a chain
    fixes its first-appearance order, so every label.  The non-trivial one
    is the σ of `lattice._automorphism`, found iff the kernel's aut is 2."""
    chains = vn._chains(nodes, covers)
    image = lt._automorphism(nodes, covers)
    if aut != (1 if image is None else 2):
        raise InternalInconsistencyError(f"the kernel's |Aut|={aut} and the co-atom descent disagree at n={n}")
    if image is None:
        return chains
    seen: set[tuple] = set()
    kept = []
    for chain in chains:
        if chain not in seen:
            kept.append(chain)
            seen.add(tuple(map(image.__getitem__, chain)))
    return kept


def _augmented_classes(n: int) -> dict[tuple, int]:
    """{keys: |Aut|} of the n-classes, n >= 4, by canonical augmentation
    over `_class_table(n - 1)`: each class is doubled from the smaller of
    its two parents (see `_doubled_classes`)."""
    lower, table = _class_table(n - 1)
    auts: dict[tuple, int] = {}
    for rep, aut in lower.items():
        nodes, covers = _representative(n - 1, rep)
        parents = {}  # per co-atom Z: (keys of R|Z, its nodes moved onto its representative)
        for z in vn._bits(covers[-1]):
            sub = [j for j, m in enumerate(nodes) if not m & ~nodes[z]]  # a down-set: covers stay inside
            index = {j: i for i, j in enumerate(sub)}
            below = [nodes[j] for j in sub]
            keys, _, positions = _scan(n - 2, below, [sum(1 << index[i] for i in vn._bits(covers[j])) for j in sub])
            position = dict(zip(below, positions))  # per atom
            parents[nodes[z]] = keys, {m: sum(1 << position[1 << b] for b in vn._bits(m)) for m in below}
        for chain in _one_chain_per_orbit(n - 1, nodes, covers, aut):
            # a chain that is not saturated misses a co-atom or the table
            parent = parents.get(chain[-2])
            other = parent and table.get((parent[0], tuple(map(parent[1].get, chain[:-1]))))
            if other is not None and other < rep:
                continue  # kept from the other parent
            keys, hits, _ = _double(n, nodes, covers, chain)
            if other not in (None, rep) and keys in auts:
                raise InternalInconsistencyError(
                    f"a doubling kept from its smaller parent repeated a class at n={n}")
            auts[keys] = hits
    _check_classes(n, auts)
    return auts


def _doubled_classes(n: int) -> Iterator[IsoClass]:
    """Every isomorphism class on n labels, in canonical-form order, each
    decoded as it is drawn once the class table is built and checked.

    Every extremal lattice arises as a doubling, so doubling each
    (n - 1)-class representative along each maximal chain of its lattice
    finds every class; the levels below the top do that (`_class_table`)
    and deduplicate by canonical form.  The top level, n >= 4, keeps one
    doubling per class (`_augmented_classes`).

    The doubling D of R along the chain c_1 < ... < c_{n-1} with the fresh
    label f has two co-atoms: R's top, A - {f}, and Z | {f}, Z = c_{n-2}.
    Every vine is the doubling of its restriction to either co-atom, so
    each n-class has two parents, the classes of its co-atoms; D's other
    parent, the class of D restricted to Z | {f}, is that of R|Z doubled
    along c_1..c_{n-2}, one lookup in the table below once the kernel has
    labeled R|Z canonically.  D is kept only when R's form is <= the other
    parent's.  Then every class is kept: double its smaller parent's
    representative along the chain that the class restricted to the other
    co-atom maps to.  And no class is kept twice, but for ties (both
    parents in R's class), which are deduplicated by canonical form:
    doublings kept from two representatives would each have the other as
    its other parent, and <= both ways makes them one class; and an
    isomorphism between two doublings of R whose co-atoms lie in different
    classes fixes f, so it is an automorphism of R taking one chain to the
    other, and R is doubled along one chain per orbit.

    |Aut| is the kernel's chain hit count and the orbit n!/|Aut|; at every
    level the orbits must add up to the labeled count, the classes to the
    unlabeled count formula and their |Aut| tally to the recursion's
    (p_n, q_n), and the co-atom descent's |Aut| must match the kernel's.
    """
    _require_size(n)
    return _iso_classes(n, _augmented_classes(n) if n >= 4 else _class_table(n)[0])


def class_representatives(n: int) -> list[vn.RegularVine]:
    """One canonically labeled representative per isomorphism class, in
    canonical-form order, by doubling the (n - 1)-classes along their
    maximal chains at every n; `classify(generate_vines(...))` is the
    enumeration oracle for n <= 7."""
    return [c.representative for c in _doubled_classes(n)]


# ---------------------------------------------------------------- catalog

def catalog_entries(n: int) -> Iterator[dict]:
    """One catalog entry per isomorphism class, in canonical-form order, each
    rendered as it is drawn from `_doubled_classes`, whose class table is
    built and checked at the call.  The four renderings are the payloads of
    the `serialize` JSON envelopes of the representative's images under the
    species rows' maps from the vine; the lattice is the vine plus the
    empty bottom."""
    return (_catalog_entry(n, idx, cls) for idx, cls in enumerate(_doubled_classes(n)))


def _catalog_entry(n: int, idx: int, cls: IsoClass) -> dict:
    v = cls.representative  # `_doubled_classes` checked v
    vine, graph, domain, matrix = (io.to_json_dict(sp.SPECIES[k].from_vine(v))
                                   for k in ("vine", "matgraph", "domain", "matrix"))
    return {
        "index": idx,
        "n": n,
        "vine_nodes": vine["nodes"],
        "graph_edges": graph["edges"],
        "preferences": domain["preferences"],
        "lattice_size": len(v.nodes) + 1,
        "matrix_columns": matrix["columns"],
        "aut_order": cls.aut_order,
        "orbit_size": cls.orbit_size,
        **vn._analytics(v),
    }
