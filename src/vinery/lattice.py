"""(n,3)-extremal lattices and triangle-free extremal binary matrices.

Lattices are carried with a powerset realization: the element set is a family
of subsets of a ground set ordered by inclusion.  A regular vine plus a
bottom element is exactly an (n,3)-extremal lattice; the characteristic
vectors of the elements form a triangle-free binary matrix with the extremal
column count 1 + n + C(n,2).

The order checks read the lattice's index view, `BoundedLattice._view`,
the same `vine._index_view` a vine caches: the elements in
`sorted_elements()` order, a linear extension of inclusion, with their
below-sets and covers, computed once per lattice.  `is_lattice` and the
direct B(3) search find a pair's meet (the search also its join) in a few
integer operations instead of a scan of the element family, and
`join_irreducibles`, the maximal chains and the DOT rendering read the
covers.  `join` and `meet` stay the definitional pairwise versions.
`_least_triangle` is one test behind three checks: rows a < b < c carry a
triangle when a family of sets holds a set with each weight-two pattern on
them, and the family is a matrix's columns (`has_no_triangles`), the
elements of a lattice holding every singleton (`_is_b3_free`) or a
domain's sets ranked above an alternative (`domain.is_aspd`).  It reads
every triple off one table of row pairs, in the order of the row-triple
scan it replaced, so the first triple it finds is the scan's.

`_lattice_to_vine` reads a vine off a valid lattice L without a check.
The paper makes L order-isomorphic to a regular vine V on n = |ground|
labels plus a bottom.  That poset is graded of height n, so every maximal
chain is n + 1 nested subsets of the n-set ground, and each element's size
equals its rank.  So the bottom is empty, the atoms are the n singletons,
and each element is the union of the atoms below it: L minus its bottom is
a relabeling of V.  By the paper, a valid matrix is the characteristic
vectors of such an L.

Lattices and matrices are the last two rows of the split/merge table in
`species`: the half of a lattice on A - {a} is its elements without a, that
of a matrix its columns with 0 at row a, row a deleted.  `undouble` is the
lattice restriction to the smaller co-atom.

|Aut| of a vine, its ground bijections that map the node set onto itself,
is 1 or 2, and one forced descent from the top finds the only candidate
for a nontrivial automorphism.  Let the co-atoms be A - a and A - b.
An automorphism that fixes both co-atoms is the identity, by induction
on n: it fixes a and b, the labels missing from the co-atoms, so it fixes
W = A - {a, b}, which is a co-atom of the half on A - a (proximity makes W
a node under both co-atoms), so it fixes that half's other co-atom too and
is the identity on A - a by induction.  Every automorphism fixes A and
permutes its two covers, so a nontrivial σ swaps the co-atoms and a <-> b.
Two nontrivial σ differ by an automorphism that fixes the co-atoms, so
they are equal, and |Aut| <= 2.
The descent builds that σ.  Set σ(a) = b, σ(b) = a, s = A - a and
t = A - b.  While s is not an atom, s covers s - b and s - r for exactly
one other label r, and t likewise covers t - a and t - r' (at the top,
W = s - b = t - a; below it, proximity puts s - {b, r} under both covers
of s, so s - r covers s - r - b).  σ(s - b) = t - a forces
σ(s - r) = t - r', so σ(r) = r'; then s <- s - r and t <- t - r'.  After
n - 2 steps every label is mapped, and |Aut| is 2 iff σ maps every node
to a node: O(n^3) bit operations, against the 2^(n-1) chains of the
canonical-form kernel, which `generate` keeps for canonical forms only:
`analyze` and `generate`'s class table both take σ from `_automorphism`.
"""

from __future__ import annotations

import functools
import operator
import string
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Optional

from . import vine as vn
from .errors import StructureError, Violation, checked, raise_first


@dataclass(frozen=True, eq=True)
class BoundedLattice:
    elements: frozenset  # frozenset of frozensets, ordered by inclusion

    @functools.cached_property  # outside the fields: == and hash ignore it
    def ground(self) -> frozenset:
        return frozenset().union(*self.elements)

    @functools.cached_property  # likewise outside the fields
    def _view(self) -> vn._View:
        return vn._index_view(self.ground, self.elements)

    def sorted_elements(self) -> list[frozenset]:
        return sorted(self.elements, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True, eq=True)
class BinaryMatrix:
    rows: tuple            # sorted row labels
    columns: frozenset     # frozenset of 0/1 tuples, one per column

    @functools.cached_property
    def ground(self) -> frozenset:
        return frozenset(self.rows)


def lattice(elements: Iterable[Iterable[str]]) -> BoundedLattice:
    return BoundedLattice(frozenset(frozenset(e) for e in elements))


def join(L: BoundedLattice, x: frozenset, y: frozenset) -> Optional[frozenset]:
    """Least upper bound within the element family, or None if not unique."""
    uppers = [z for z in L.elements if x <= z and y <= z]
    mins = [z for z in uppers if not any(w < z for w in uppers)]
    return mins[0] if len(mins) == 1 else None


def meet(L: BoundedLattice, x: frozenset, y: frozenset) -> Optional[frozenset]:
    lowers = [z for z in L.elements if z <= x and z <= y]
    maxs = [z for z in lowers if not any(w > z for w in lowers)]
    return maxs[0] if len(maxs) == 1 else None


def is_lattice(L: BoundedLattice) -> bool:
    """Every pair has a join and a meet: a non-empty family with no pair
    that `_missing_bound` finds."""
    return bool(L.elements) and _missing_bound(L) is None


def _missing_bound(L: BoundedLattice) -> Optional[tuple[frozenset, frozenset]]:
    """A pair of a non-empty family with no meet, or with no join when the
    last element is not the top; None when every pair has both.

    Over the view's elements, a linear extension of inclusion, the common
    lower bounds D of x and y have a greatest element iff D is non-empty and
    lies below its highest index.  When every pair has a meet, every pair
    has a join iff the family has a greatest element (the meet of the common
    upper bounds is then the join), which is the last index if there is one.
    Nothing lies above the last element, so an element not below it has no
    common upper bound with it."""
    nodes = L._view.nodes
    down = [b | 1 << i for i, b in enumerate(L._view.below)]
    if missing := ~down[-1] & (1 << len(down)) - 1:
        return nodes[(missing & -missing).bit_length() - 1], nodes[-1]
    for i, down_x in enumerate(down):
        for j in range(i + 1, len(down)):
            d = down_x & down[j]
            if not d or d & ~down[d.bit_length() - 1]:
                return nodes[i], nodes[j]
    return None


def _require_lattice(L: BoundedLattice) -> None:
    if not is_lattice(L):
        raise StructureError("lattice.lattice", "element family is not a lattice under inclusion")


def join_irreducibles(L: BoundedLattice) -> list[frozenset]:
    """Elements covering exactly one element (the standard finite-lattice
    test; a bottom covers none), in `sorted_elements` order."""
    return [s for s, cov in zip(L._view.nodes, L._view.covers) if cov.bit_count() == 1]


_B3_PATTERN = {0: frozenset(), 1: frozenset("1"), 2: frozenset("2"), 3: frozenset("3"),
               4: frozenset("12"), 5: frozenset("13"), 6: frozenset("23"), 7: frozenset("123")}


def _is_induced_b3(candidates: list, le=frozenset.__le__) -> bool:
    """candidates in the fixed order bottom, T1, T2, T3, J12, J13, J23, top,
    compared by `le`."""
    if len(set(candidates)) != 8:
        return False
    shape = [_B3_PATTERN[i] for i in range(8)]
    for i in range(8):
        for j in range(8):
            if le(candidates[i], candidates[j]) != (shape[i] <= shape[j]):
                return False
    return True


def _direct_b3_search(L: BoundedLattice) -> Optional[tuple]:
    """3-generator search for an induced B(3): triples with their joins.

    Complete: any induced B(3) copy can be replaced by one whose middle layer
    consists of the pairwise joins of its atoms.  Elements are indices into
    the lattice's index view, a linear extension of inclusion, with their
    down- and up-sets read off its below-sets: the meet of x and y is the
    highest index below both and their join the lowest index above both
    (`is_lattice`).
    The atoms of a B(3) are pairwise incomparable, so a comparable pair
    t1 < t2 is skipped before any t3 is tried.
    """
    elements = L._view.nodes
    down = [b | 1 << i for i, b in enumerate(L._view.below)]
    up = [0] * len(down)
    for i, d in enumerate(down):
        for j in vn._bits(d):
            up[j] |= 1 << i

    def meet(x: int, y: int) -> int:
        return (down[x] & down[y]).bit_length() - 1

    def join(x: int, y: int) -> int:
        common = up[x] & up[y]
        return (common & -common).bit_length() - 1

    def le(x: int, y: int) -> bool:
        return bool(down[y] >> x & 1)

    for t1, t2 in combinations(range(len(elements)), 2):
        if le(t1, t2):
            continue
        j12, m12 = join(t1, t2), meet(t1, t2)
        for t3 in range(t2 + 1, len(elements)):
            j13, j23 = join(t1, t3), join(t2, t3)
            cand = [meet(m12, t3), t1, t2, t3, j12, j13, j23, join(j12, j23)]
            if _is_induced_b3(cand, le):
                return tuple(elements[i] for i in cand)
    return None


def _is_b3_free(L: BoundedLattice) -> Optional[tuple]:
    """None if B(3)-free, else an 8-element induced-B(3) witness.

    Uses the triangle test on the elements when all singletons are elements,
    the direct 3-generator search otherwise.  The triangle's witness is
    always an induced B(3): L is then a lattice holding every singleton, so
    its bottom is the empty meet of two singletons and its top is the
    ground set, the join of all of them.  The triangle on rows a1, a2, a3
    has columns s1, s2, s3 whose restrictions to {a1, a2, a3} are {a1, a2},
    {a1, a3} and {a2, a3}.  So each si holds exactly two of a1, a2, a3: it
    lies above the two singletons it holds and below the top, no two si
    are comparable, and the eight sets bottom, {a1}, {a2}, {a3}, s1, s2,
    s3, top are distinct and ordered by inclusion exactly as the subsets of
    {1, 2, 3}.
    """
    if all(frozenset([a]) in L.elements for a in sorted(L.ground)):
        view = L._view
        tri = _least_triangle(len(view.labels), view.masks)
        if tri is None:
            return None
        rows, cols = tri
        a1, a2, a3 = (view.labels[r] for r in rows)
        s3, s2, s1 = map(dict(zip(view.masks, view.nodes)).get, cols)  # patterns 011, 101, 110
        bottom = min(L.elements, key=len)
        top = max(L.elements, key=len)
        return (bottom, frozenset([a1]), frozenset([a2]), frozenset([a3]), s1, s2, s3, top)
    return _direct_b3_search(L)


def validate_lattice(L: BoundedLattice) -> list[Violation]:
    """Lattice, then B(3)-freeness, the extremal size and at most n join-irreducibles
    for n = |ground|; empty report means (n,3)-extremal."""
    if not is_lattice(L):
        witness = _missing_bound(L) if L.elements else None
        return [Violation("lattice.lattice", witness, "element family is not a lattice under inclusion")]
    report: list[Violation] = []
    n = len(L.ground)
    witness = _is_b3_free(L)
    if witness is not None:
        report.append(Violation("lattice.b3-free", witness, f"induced B(3) on {[sorted(s) for s in witness]}"))
    size = 1 + n + n * (n - 1) // 2
    if len(L.elements) != size:
        report.append(Violation("lattice.size", len(L.elements), f"{len(L.elements)} elements, extremal is {size}"))
    irreducibles = join_irreducibles(L)
    if len(irreducibles) > n:
        report.append(Violation("lattice.join-irreducibles", irreducibles, f"more than {n} join-irreducibles"))
    return report


def require_extremal_lattice(L: BoundedLattice) -> None:
    raise_first(validate_lattice(L))


def _vine_to_lattice(v: vn.RegularVine) -> BoundedLattice:
    """The vine's nodes plus the empty bottom."""
    return BoundedLattice(v.nodes | {frozenset()})


def _lattice_to_vine(L: BoundedLattice) -> vn.RegularVine:
    """The elements other than the empty bottom (module docstring)."""
    return vn.RegularVine(L.ground, L.elements - {frozenset()})


def _maximal_chains_of_lattice(L: BoundedLattice) -> list[tuple]:
    """All bottom-to-top saturated chains, lexicographically ordered."""
    return sorted(vn._chains(L._view.nodes, L._view.covers), key=lambda c: [(len(s), sorted(s)) for s in c])


def fresh_label(ground: frozenset) -> str:
    for c in string.ascii_lowercase:
        if c not in ground:
            return c
    i = 1
    while True:
        for c in string.ascii_lowercase:
            cand = f"{c}{i}"
            if cand not in ground:
                return cand
        i += 1


def doubling(L: BoundedLattice, chain: Iterable[frozenset]) -> BoundedLattice:
    """Adjoin a dotted copy of a maximal chain above itself.

    The dotted copy of x is realized as x plus one fresh ground label, which
    keeps the construction inside a powerset and reproducible.
    """
    _require_lattice(L)
    chain = tuple(chain)
    if chain not in set(_maximal_chains_of_lattice(L)):
        raise StructureError("lattice.chain", "not a maximal chain of the lattice",
                             witness=[sorted(s) for s in chain])
    f = fresh_label(L.ground)
    dotted = {x | {f} for x in chain}
    return BoundedLattice(L.elements | frozenset(dotted))


def _undouble(L: BoundedLattice) -> tuple[BoundedLattice, tuple]:
    """One decomposition (L1, C) with doubling(L1, C) isomorphic to L.

    The lattice split: L1 is the restriction to the lexicographically
    smaller co-atom, the elements without the one label a outside it; a is
    the fresh label, and C holds the x in L1 whose dotted copy x | {a} is
    in L.  The other co-atom induces a second, equally valid decomposition.
    """
    n = len(L.ground)
    if n < 2:
        raise StructureError("lattice.undouble", "undoubling requires n >= 2")
    (a,) = L.ground - min((s for s in L.elements if len(s) == n - 1), key=sorted)
    L1 = _restrict_lattice(L, a)
    return L1, tuple(x for x in L1.sorted_elements() if x | {a} in L.elements)


def _restrict_lattice(L: BoundedLattice, a: str) -> BoundedLattice:
    """The half on the ground set without a: the elements without a."""
    return BoundedLattice(frozenset(s for s in L.elements if a not in s))


def lattice_to_matrix(L: BoundedLattice) -> BinaryMatrix:
    rows = tuple(sorted(L.ground))
    cols = frozenset(tuple(1 if r in s else 0 for r in rows) for s in L.elements)
    return BinaryMatrix(rows, cols)


def matrix_to_lattice(M: BinaryMatrix) -> BoundedLattice:
    return BoundedLattice(frozenset(_column_to_set(M.rows, col) for col in M.columns))


def _column_to_set(rows: tuple, col: tuple) -> frozenset:
    return frozenset(r for r, bit in zip(rows, col) if bit)


def _coatom_rows(M: BinaryMatrix) -> list:
    """The rows whose co-atom column, 0 at that row only, is present: the
    labels missing from the lattice's co-atoms."""
    n = len(M.rows)
    return [a for i, a in enumerate(M.rows) if (1,) * i + (0,) + (1,) * (n - 1 - i) in M.columns]


def _restrict_matrix(M: BinaryMatrix, a: str) -> BinaryMatrix:
    """The half on the rows without a: the columns with 0 at row a, row a deleted."""
    i = M.rows.index(a)
    return BinaryMatrix(M.rows[:i] + M.rows[i + 1:], frozenset(c[:i] + c[i + 1:] for c in M.columns if not c[i]))


def _glue_matrices(M1: BinaryMatrix, M2: BinaryMatrix, a1: str, a2: str) -> BinaryMatrix:
    """The matrix of two compatible halves missing rows a1 and a2: each
    half's columns with 0 at its missing row, plus the all-ones column."""
    rows = tuple(sorted(M1.ground | {a1}))
    cols = {(1,) * len(rows)}
    for M, a in ((M1, a1), (M2, a2)):
        i = rows.index(a)
        cols.update(c[:i] + (0,) + c[i:] for c in M.columns)
    return BinaryMatrix(rows, frozenset(cols))


def _least_triangle(n: int, columns: Collection[int]) -> Optional[tuple]:
    """((a, b, c), (s011, s101, s110)) for the least row triple carrying a
    triangle among distinct column masks on n rows, row r at bit n - 1 - r,
    with the least column of each pattern on it; or None.  The columns are a
    matrix's, a lattice's elements or a domain's sets ranked above an
    alternative (module docstring).

    miss[p][q], bits p < q, holds the bits outside some column holding bits
    p and q, so a triple is three lookups.  The triples are walked in
    `combinations` order of the rows, as the row-triple scan walks them, and
    only the first found is scanned for its columns: with row r at bit
    n - 1 - r, integer order is 0/1-tuple order.
    """
    full = (1 << n) - 1
    miss = [[0] * n for _ in range(n)]
    for col in columns:
        outside = full ^ col
        inside = [p for p in range(n) if col >> p & 1]
        for i, p in enumerate(inside):
            row = miss[p]
            for q in inside[i + 1:]:
                row[q] |= outside
    for p, q, r in combinations(range(n - 1, -1, -1), 3):  # bits of rows a < b < c
        if miss[r][q] >> p & 1 and miss[r][p] >> q & 1 and miss[q][p] >> r & 1:
            t = 1 << p | 1 << q | 1 << r
            return ((n - 1 - p, n - 1 - q, n - 1 - r),
                    tuple(min(c for c in columns if c & t == t ^ x) for x in (1 << p, 1 << q, 1 << r)))
    return None


def has_no_triangles(M: BinaryMatrix) -> Optional[tuple]:
    """None if triangle-free; else ((rows), (columns)) of the least witness,
    its columns with the patterns 011, 101 and 110 on its rows."""
    weight = [1 << p for p in range(len(M.rows) - 1, -1, -1)]
    cols = {sum(map(operator.mul, col, weight)): col for col in M.columns}
    tri = _least_triangle(len(M.rows), cols)
    return tri and (tuple(M.rows[r] for r in tri[0]), tuple(map(cols.get, tri[1])))


def validate_matrix(M: BinaryMatrix) -> list[Violation]:
    """0/1 columns of the row count's length, then strictly increasing row
    labels, no triangle, the extremal column count; empty report means extremal."""
    n = len(M.rows)
    bad = [c for c in M.columns if len(c) != n or any(type(b) is not int or b not in (0, 1) for b in c)]
    report = [Violation("matrix.columns", c, f"column {c!r} is not a 0/1 vector of length {n}")
              for c in sorted(bad, key=repr)]
    if report:
        return report
    if any(a >= b for a, b in zip(M.rows, M.rows[1:])):
        report.append(Violation("matrix.rows", list(M.rows),
                                f"row labels {list(M.rows)} are not strictly increasing"))
    witness = has_no_triangles(M)
    if witness is not None:
        report.append(Violation("matrix.triangle", witness, f"triangle at rows {witness[0]}"))
    size = 1 + n + n * (n - 1) // 2
    if len(M.columns) != size:
        report.append(Violation("matrix.size", len(M.columns), f"{len(M.columns)} columns, extremal is {size}"))
    return report


def require_extremal_matrix(M: BinaryMatrix) -> None:
    raise_first(validate_matrix(M))


def _automorphism(masks: list[int], covers: list[int]) -> Optional[dict[int, int]]:
    """σ of the co-atom descent (module docstring) as a map of node masks,
    or None if n <= 1 or σ misses a node, for a valid vine's masks in a
    linear extension of inclusion and their covers."""
    if len(masks) <= 1:
        return None
    index = {m: k for k, m in enumerate(masks)}
    s, t = (masks[k] for k in vn._bits(covers[-1]))
    a, b = masks[-1] ^ s, masks[-1] ^ t

    def pair(x: int) -> int:
        """The two label bits that node x's covers miss, its conditioned pair."""
        j, k = vn._bits(covers[index[x]])
        return x ^ (masks[j] & masks[k])

    sigma = {a: b, b: a}  # on label bits
    while s & s - 1:  # s holds b and t holds a, in their pairs
        r, r2 = pair(s) ^ b, pair(t) ^ a
        sigma[r] = r2
        s, t = s ^ r, t ^ r2
    image: list[int] = []
    for m, cov in zip(masks, covers):  # an atom is its label; any other node the union of its covers
        image.append(sigma.get(m, 0))
        for j in vn._bits(cov):
            image[-1] |= image[j]
    return dict(zip(masks, image)) if all(m in index for m in image) else None


def _automorphism_group_order(v: vn.RegularVine) -> int:
    """Number of ground bijections fixing the node set, 1 or 2."""
    return 1 if _automorphism(v._view.masks, v._view.covers) is None else 2


direct_b3_search = checked(_require_lattice, _direct_b3_search)
is_b3_free = checked(_require_lattice, _is_b3_free)
vine_to_lattice = checked(vn.require_valid, _vine_to_lattice)
lattice_to_vine = checked(require_extremal_lattice, _lattice_to_vine)
undouble = checked(require_extremal_lattice, _undouble)
maximal_chains_of_lattice = checked(_require_lattice, _maximal_chains_of_lattice)
automorphism_group_order = checked(vn.require_valid, _automorphism_group_order)
