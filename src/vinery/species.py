"""Split/merge species and the generic transport isomorphism.

The three core families (MAT-labeled complete graphs, regular vines, maximal
ASPDs) are one species each, described by a row of the ``Species`` table:
the family's type and ground-set attribute, its validator, its trivial
structure on a ground set of size <= 1, and its split, merge and relabel
operations.  Splitting turns a structure on A into its two halves on
co-atoms of A; merging is the inverse on compatible halves.  Any two species
are connected by a unique natural isomorphism, computed recursively by
``transport``: split in the source, transport both halves, merge in the
target.

Validation happens once, where a structure enters this layer: ``transport``,
``merge_checked`` and ``check_proximity`` validate their inputs; the split
cores and ``_transport`` trust theirs, since the halves of a valid structure
are valid.  Merging keeps its compatibility test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from . import domain as dm
from . import matgraph as mg
from . import vine as vn
from .errors import InternalInconsistencyError, StructureError


@dataclass(frozen=True)
class SplitPair:
    """Unordered pair of sub-structures on the two co-atoms of the ground set."""
    left: object
    right: object

    @property
    def removed(self) -> frozenset:
        gl, gr = _ground_of(self.left), _ground_of(self.right)
        return frozenset((gl | gr) - (gl & gr))


def _ground_of(x) -> frozenset:
    for s in SPECIES.values():
        if isinstance(x, s.type):
            return getattr(x, s.ground_attr)
    raise TypeError(f"not a species structure: {type(x).__name__}")


def make_pair(x, y) -> SplitPair:
    """Normalized pair: halves ordered by their sorted ground sets."""
    if sorted(_ground_of(x)) <= sorted(_ground_of(y)):
        return SplitPair(x, y)
    return SplitPair(y, x)


class Species:
    """One family's split/merge operations, as a row of functions.

    ``require`` raises a ``StructureError`` on an invalid structure;
    ``split`` is the family's split core, returning the two halves and
    their shared part; ``merge`` returns None on incompatible halves.
    """

    def __init__(self, name: str, type_: type, ground_attr: str, require: Callable,
                 trivial: Callable, split: Callable, merge: Callable, relabel: Callable):
        self.name, self.type, self.ground_attr = name, type_, ground_attr
        self._require, self._trivial, self._split = require, trivial, split
        self._merge, self._relabel = merge, relabel

    def ground(self, x) -> frozenset:
        return getattr(x, self.ground_attr)

    def validate(self, x) -> None:
        self._require(x)

    def trivial(self, ground):
        return self._trivial(frozenset(ground))

    def split(self, x) -> SplitPair:
        left, right, _ = self._split(x)
        return make_pair(left, right)

    def merge(self, p: SplitPair):
        return self._merge(p.left, p.right)

    def relabel(self, x, h):
        _check_bijection(self.ground(x), h)
        return self._relabel(x, h)


GRAPH = Species("matgraph", mg.MatLabeledGraph, "vertices", mg.require_valid,
                lambda g: mg.MatLabeledGraph(g, {}),
                mg._split_graph, mg.merge_graphs, mg.relabel_graph)
VINE = Species("vine", vn.RegularVine, "ground", vn.require_valid,
               lambda g: vn.RegularVine(g, frozenset({g}) if g else frozenset()),
               vn._split_vine, vn.merge_vines, vn.relabel_vine)
DOMAIN = Species("domain", dm.PreferenceDomain, "alternatives", dm.require_valid,
                 lambda g: dm.PreferenceDomain(g, frozenset({tuple(sorted(g))})),
                 dm._split_domain, dm.merge_domains, dm.relabel_domain)
SPECIES = {s.name: s for s in (GRAPH, VINE, DOMAIN)}


def _check_bijection(ground: frozenset, h: Mapping) -> None:
    if set(h) != set(ground) or len(set(h.values())) != len(ground):
        raise StructureError("species.bijection", "relabeling map is not a bijection on the ground set",
                             witness=sorted(h.items()))


def _split_image(S, x) -> list:
    """The splitting image as a comparable list: the halves, or the bare
    ground set for structures with n <= 1 (where splitting is the identity)."""
    if len(S.ground(x)) <= 1:
        return [("trivial", tuple(sorted(S.ground(x))))]
    p = S.split(x)
    return [p.left, p.right]


def check_proximity(S, x) -> bool:
    """Do the split images of the two halves differ in exactly two structures?"""
    S.validate(x)
    if len(S.ground(x)) < 2:
        raise StructureError("species.split", "proximity is defined for n >= 2 only")
    p = S.split(x)
    return _image_symmetric_difference(S, p.left, p.right) == 2


def _image_symmetric_difference(S, x, y) -> int:
    ix, iy = _split_image(S, x), _split_image(S, y)
    common = sum(1 for a in ix if any(a == b for b in iy))
    return len(ix) + len(iy) - 2 * common


def merge_checked(S, p: SplitPair):
    """The unique structure splitting into p, or None when incompatible."""
    S.validate(p.left)
    S.validate(p.right)
    if _image_symmetric_difference(S, p.left, p.right) != 2:
        return None
    out = S.merge(p)
    if out is None:
        raise InternalInconsistencyError(
            f"{S.name}: merge failed on a pair passing the compatibility condition")
    return out


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
            out = G.merge(make_pair(go(p.left), go(p.right)))
            if out is None:
                raise InternalInconsistencyError(
                    f"transport {F.name}->{G.name}: merge failed on transported halves")
        memo[key] = out
        return out

    return go(x)
