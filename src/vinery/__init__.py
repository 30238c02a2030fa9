"""Regular vines and their equivalent combinatorial structures.

Five provably equivalent families — MAT-labeled complete graphs, regular
vines, maximal Arrow's single-peaked domains, (n,3)-extremal lattices and
triangle-free extremal binary matrices — with validation, split/merge,
explicit and generic conversions, exhaustive enumeration, isomorphism
classification and social-choice analytics.

Factory helpers live on the submodules (``vinery.vine.vine``,
``vinery.domain.domain``, ...); only the value types and the species layer
are re-exported here.
"""

from .errors import InternalInconsistencyError, StructureError
from .matgraph import MatLabeledGraph, mat_graph
from .vine import RegularVine
from .domain import PreferenceDomain
from .lattice import BinaryMatrix, BoundedLattice
from .species import DOMAIN, GRAPH, LATTICE, MATRIX, VINE, SplitPair, transport

__all__ = [
    "InternalInconsistencyError", "StructureError",
    "MatLabeledGraph", "mat_graph",
    "RegularVine",
    "PreferenceDomain",
    "BinaryMatrix", "BoundedLattice",
    "DOMAIN", "GRAPH", "LATTICE", "MATRIX", "VINE", "SplitPair", "transport",
]
