"""Split/merge species, the table of the five kinds, and the generic
transport isomorphism.

Each of the five families (MAT-labeled complete graphs, regular vines,
maximal ASPDs, (n,3)-extremal lattices, triangle-free extremal binary
matrices) is a row of the ``Species`` table, and ``SPECIES`` is the only
list of kinds: `serialize`, `routes` and the CLI read a structure's row off
its type with ``species_of``.  A row holds the kind's name and structure
type, its ground-set attribute, its validator's full report, its maps to
and from the regular vine (the hub of `routes`), its trivial structure on a
ground set of size <= 1, and what the axioms name.  The report is the row's
only check: ``Species.validate`` raises its first violation, the same axiom
as the family's own raising check, and refuses a structure of another kind
with a ``TypeError``.  ``top(x)`` is the removed pair, read off the top of the
structure: the ends of the top-label edge, the labels missing from the two
co-atoms, or the two bottoms.  ``restrict(x, a)`` is the half on A - {a}, for
a in ``top(x)``; ``glue(x, y, a, b)`` assembles the structure on A from
halves x on A - {a} and y on A - {b} without checking them.

Splitting is the two restrictions.  Halves x on A - {a} and y on A - {b}
merge exactly when |A| = 2, or b is in top(x), a is in top(y) and
restrict(x, b) equals restrict(y, a).  Any two species are connected by a
unique natural isomorphism, computed recursively by ``transport``: split in
the source, transport both halves, merge in the target.

Validation happens once, where a structure enters this layer: ``transport``,
``merge_checked`` and ``check_proximity`` validate their inputs; splits,
merges and ``_transport`` trust theirs, since the halves of a valid
structure are valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import correspond as co
from . import domain as dm
from . import lattice as lt
from . import matgraph as mg
from . import vine as vn
from .errors import InternalInconsistencyError, StructureError, raise_first


@dataclass(frozen=True)
class SplitPair:
    """Unordered pair of sub-structures on the two co-atoms of the ground set."""
    left: object
    right: object


@dataclass(eq=False)
class Species:
    """One kind, as a row of its type and functions.

    ``report`` returns the family validator's full violation report, empty
    when valid, and is the row's only check: ``validate`` raises its first
    violation.  ``to_vine`` and ``from_vine`` are the cores of the hub maps,
    which trust valid input.  ``trivial`` builds the structure on a ground
    set of size <= 1, given as a collection of labels.  ``top``,
    ``restrict`` and ``glue`` are as in the module docstring.  Rows compare
    and hash by identity.
    """
    name: str
    cls: type
    ground_attr: str
    report: Callable
    to_vine: Callable
    from_vine: Callable
    trivial: Callable
    top: Callable
    restrict: Callable
    glue: Callable

    def ground(self, x) -> frozenset:
        return getattr(x, self.ground_attr)

    def validate(self, x) -> None:
        """Raise the first violation of x's report; a TypeError if x is not of this kind."""
        if type(x) is not self.cls:
            raise TypeError(f"{self.name} expects a {self.cls.__name__}, got a {type(x).__name__}")
        raise_first(self.report(x))

    def pair(self, x, y) -> SplitPair:
        """Normalized pair: halves ordered by their sorted ground sets."""
        if sorted(getattr(x, self.ground_attr)) <= sorted(getattr(y, self.ground_attr)):
            return SplitPair(x, y)
        return SplitPair(y, x)

    def split(self, x) -> SplitPair:
        if len(getattr(x, self.ground_attr)) < 2:
            raise StructureError(f"{self.name}.split", "split requires n >= 2")
        a1, a2 = self.top(x)
        return self.pair(self.restrict(x, a1), self.restrict(x, a2))

    def merge(self, p: SplitPair):
        """The structure splitting into p, or None when the halves are incompatible."""
        x, y = p.left, p.right
        gx, gy = getattr(x, self.ground_attr), getattr(y, self.ground_attr)
        A = gx | gy
        if not len(gx) == len(gy) == len(A) - 1:
            raise StructureError(f"{self.name}.coatoms", "ground sets are not distinct co-atoms of a common set",
                                 witness=(sorted(gx), sorted(gy)))
        (a,), (b,) = A - gx, A - gy
        if len(A) > 2 and not (b in self.top(x) and a in self.top(y)
                               and self.restrict(x, b) == self.restrict(y, a)):
            return None
        return self.glue(x, y, a, b)


def _coatom_labels(ground: frozenset, family) -> list:
    """The labels missing from the co-atoms, the members one short of the ground set."""
    size = len(ground) - 1
    return [a for s in family if len(s) == size for a in ground - s]


# Each report looks its validator up in the family module at call time, so
# a patch or wrapper of the module attribute sees every call through a row.
GRAPH = Species("matgraph", mg.MatLabeledGraph, "vertices",
                report=lambda g: mg.validate_matgraph(g),
                to_vine=co._graph_to_vine, from_vine=co._vine_to_graph,
                trivial=lambda g: mg.MatLabeledGraph(frozenset(g), {}),
                top=lambda g: max(g.labels, key=g.labels.__getitem__),
                restrict=lambda g, a: mg.induced_subgraph(g, g.vertices - {a}), glue=mg._glue_graphs)
VINE = Species("vine", vn.RegularVine, "ground",
               report=lambda v: vn.validate_vine(v),
               to_vine=lambda v: v, from_vine=lambda v: v,
               trivial=lambda g: vn.RegularVine(frozenset(g), frozenset({frozenset(g)}) if g else frozenset()),
               top=lambda v: _coatom_labels(v.ground, v.nodes),
               restrict=lambda v, a: vn.RegularVine(v.ground - {a}, frozenset(s for s in v.nodes if a not in s)),
               glue=vn._glue_vines)
DOMAIN = Species("domain", dm.PreferenceDomain, "alternatives",
                 report=lambda d: dm.validate_domain(d),
                 to_vine=co._domain_to_vine, from_vine=co._vine_to_domain,
                 trivial=lambda g: dm.PreferenceDomain(frozenset(g), frozenset({tuple(sorted(g))})),
                 top=dm.bottom_alternatives,
                 restrict=lambda d, a: dm.PreferenceDomain(d.alternatives - {a},
                                                           frozenset(w[:-1] for w in d.prefs if w[-1] == a)),
                 glue=dm._glue_domains)
LATTICE = Species("lattice", lt.BoundedLattice, "ground",
                  report=lambda L: lt.validate_lattice(L),
                  to_vine=lt._lattice_to_vine, from_vine=lt._vine_to_lattice,
                  trivial=lambda g: lt.BoundedLattice(frozenset({frozenset(), frozenset(g)})),
                  top=lambda L: _coatom_labels(L.ground, L.elements), restrict=lt._restrict_lattice,
                  glue=lambda x, y, a, b: lt.BoundedLattice(x.elements | y.elements | {x.ground | {a}}))
MATRIX = Species("matrix", lt.BinaryMatrix, "ground",
                 report=lambda M: lt.validate_matrix(M),
                 to_vine=lambda M: lt._lattice_to_vine(lt.matrix_to_lattice(M)),
                 from_vine=lambda v: lt.lattice_to_matrix(lt._vine_to_lattice(v)),
                 trivial=lambda g: lt.BinaryMatrix(tuple(sorted(g)), frozenset({(0,) * len(g), (1,) * len(g)})),
                 top=lt._coatom_rows, restrict=lt._restrict_matrix, glue=lt._glue_matrices)
SPECIES = {s.name: s for s in (GRAPH, VINE, DOMAIN, LATTICE, MATRIX)}
_BY_TYPE = {s.cls: s for s in SPECIES.values()}


def species_of(obj) -> Species:
    """The row of obj's kind; a TypeError for an object of no kind."""
    row = _BY_TYPE.get(type(obj))
    if row is None:
        raise TypeError(f"unknown structure type {type(obj).__name__}")
    return row


def check_proximity(S, x) -> bool:
    """Are the two halves of x compatible, i.e. do they restrict to the same
    structure on their common ground set?"""
    S.validate(x)
    return S.merge(S.split(x)) is not None


def merge_checked(S, p: SplitPair):
    """The unique structure splitting into p, or None when incompatible."""
    S.validate(p.left)
    S.validate(p.right)
    return S.merge(p)


def transport(F, G, x):
    """The unique split/merge-compatible image of x under species G.

    Recursive: split in F, transport both halves, merge in G.  Memoized per
    invocation on the sub-ground-set, which is enough because the recursion
    below a fixed structure visits each sub-ground-set through a unique
    substructure.  Only x itself is validated.
    """
    F.validate(x)
    return _transport(F, G, x)


def _transport(F, G, x):
    """transport of a structure already checked as an F-structure."""
    memo: dict[frozenset, object] = {}

    def go(y):
        key = frozenset(F.ground(y))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(key) <= 1:
            out = G.trivial(key)
        else:
            p = F.split(y)
            out = G.merge(G.pair(go(p.left), go(p.right)))
            if out is None:
                raise InternalInconsistencyError(
                    f"transport {F.name}->{G.name}: merge failed on transported halves")
        memo[key] = out
        return out

    return go(x)
