"""Split/merge species and the generic transport isomorphism.

The three core families (MAT-labeled complete graphs, regular vines, maximal
ASPDs) are one species each, described by a row of the ``Species`` table:
the family's ground-set attribute, its validator, its trivial structure
on a ground set of size <= 1, and its split, glue and relabel operations.  Splitting turns a structure on A into its two halves on
co-atoms of A; merging is the inverse on compatible halves.  Any two species
are connected by a unique natural isomorphism, computed recursively by
``transport``: split in the source, transport both halves, merge in the
target.

Compatibility is decided once, here, from the splits: halves x on A - {a}
and y on A - {b} merge exactly when x's half on A - {a, b} equals y's (always
when |A| = 2).  Each family supplies only its split core and a glue that
assembles the merged structure from compatible halves without checking them.

Validation happens once, where a structure enters this layer: ``transport``,
``merge_checked`` and ``check_proximity`` validate their inputs; the split
cores, the glues and ``_transport`` trust theirs, since the halves of a
valid structure are valid.
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


class Species:
    """One family's split/merge operations, as a row of functions.

    ``require`` raises a ``StructureError`` on an invalid structure;
    ``split`` is the family's split core, returning the two halves and
    their shared part; ``glue(x, y, a, b)`` assembles the structure on
    A = ground(x) + {a} = ground(y) + {b} from compatible halves.
    """

    def __init__(self, name: str, ground_attr: str, require: Callable,
                 trivial: Callable, split: Callable, glue: Callable, relabel: Callable):
        self.name, self.ground_attr = name, ground_attr
        self._require, self._trivial, self._split = require, trivial, split
        self._glue, self._relabel = glue, relabel

    def ground(self, x) -> frozenset:
        return getattr(x, self.ground_attr)

    def validate(self, x) -> None:
        self._require(x)

    def trivial(self, ground):
        return self._trivial(frozenset(ground))

    def pair(self, x, y) -> SplitPair:
        """Normalized pair: halves ordered by their sorted ground sets."""
        if sorted(getattr(x, self.ground_attr)) <= sorted(getattr(y, self.ground_attr)):
            return SplitPair(x, y)
        return SplitPair(y, x)

    def split(self, x) -> SplitPair:
        left, right, _ = self._split(x)
        return self.pair(left, right)

    def merge(self, p: SplitPair):
        """The structure splitting into p, or None when the halves are incompatible."""
        x, y = p.left, p.right
        gx, gy = getattr(x, self.ground_attr), getattr(y, self.ground_attr)
        A = gx | gy
        if not len(gx) == len(gy) == len(A) - 1:
            raise StructureError(f"{self.name}.coatoms", "ground sets are not distinct co-atoms of a common set",
                                 witness=(sorted(gx), sorted(gy)))
        if not self._compatible(x, y, gx & gy):
            return None
        (a,), (b,) = A - gx, A - gy
        return self._glue(x, y, a, b)

    def _compatible(self, x, y, shared: frozenset) -> bool:
        """Do x and y, on distinct co-atoms meeting in ``shared``, split off
        the same half on it?"""
        if not shared:
            return True
        half = self._half(x, shared)
        return half is not None and half == self._half(y, shared)

    def _half(self, x, ground: frozenset):
        """The half of x's split on the given ground set, or None."""
        left, right, _ = self._split(x)
        return next((h for h in (left, right) if getattr(h, self.ground_attr) == ground), None)

    def relabel(self, x, h):
        _check_bijection(self.ground(x), h)
        return self._relabel(x, h)


GRAPH = Species("matgraph", "vertices", mg.require_valid,
                lambda g: mg.MatLabeledGraph(g, {}),
                mg._split_graph, mg._glue_graphs, mg.relabel_graph)
VINE = Species("vine", "ground", vn.require_valid,
               lambda g: vn.RegularVine(g, frozenset({g}) if g else frozenset()),
               vn._split_vine, vn._glue_vines, vn.relabel_vine)
DOMAIN = Species("domain", "alternatives", dm.require_valid,
                 lambda g: dm.PreferenceDomain(g, frozenset({tuple(sorted(g))})),
                 dm._split_domain, dm._glue_domains, dm.relabel_domain)
SPECIES = {s.name: s for s in (GRAPH, VINE, DOMAIN)}


def _check_bijection(ground: frozenset, h: Mapping) -> None:
    if set(h) != set(ground) or len(set(h.values())) != len(ground):
        raise StructureError("species.bijection", "relabeling map is not a bijection on the ground set",
                             witness=sorted(h.items()))


def check_proximity(S, x) -> bool:
    """Are the two halves of x compatible, i.e. do their splits share a half?"""
    S.validate(x)
    if len(S.ground(x)) < 2:
        raise StructureError("species.split", "proximity is defined for n >= 2 only")
    p = S.split(x)
    return S._compatible(p.left, p.right, S.ground(p.left) & S.ground(p.right))


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
