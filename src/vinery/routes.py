"""Conversion routing between all five representations.

``via="transport"`` is the generic species transport between any two of the
five split/merge rows of `species`.  ``via="direct"`` is the explicit hub,
the regular vine: every kind has one map to the vine (`_TO_VINE`) and one
from it (`_FROM_VINE`), and a conversion is the second after the first.
Graphs and domains map by the `correspond` cores; a lattice is the vine plus
the empty bottom, and a matrix the characteristic vectors of that lattice
(`lattice` module docstring).

The kind -> validator table `_VALIDATORS` is read by the CLI and checks the
input of `convert_structure`.  Its core composes the maps' cores, which
send valid structures to valid ones, so nothing is checked on the way.
"""

from __future__ import annotations

from . import correspond as co
from . import domain as dm
from . import lattice as lt
from . import matgraph as mg
from . import species as sp
from . import serialize as io
from . import vine as vn
from .errors import StructureError, checked, raise_first

_VALIDATORS = {
    "matgraph": mg.validate_matgraph,
    "vine": vn.validate_vine,
    "domain": dm.validate_domain,
    "lattice": lt.validate_lattice,
    "matrix": lt.validate_matrix,
}

_TO_VINE = {
    "matgraph": co._graph_to_vine,
    "vine": lambda v: v,
    "domain": co._domain_to_vine,
    "lattice": lt._lattice_to_vine,
    "matrix": lambda M: lt._lattice_to_vine(lt.matrix_to_lattice(M)),
}

_FROM_VINE = {
    "matgraph": co._vine_to_graph,
    "vine": lambda v: v,
    "domain": co._vine_to_domain,
    "lattice": lt._vine_to_lattice,
    "matrix": lambda v: lt.lattice_to_matrix(lt._vine_to_lattice(v)),
}


def _require_valid(obj) -> None:
    """Raise the first violation of the structure's family validator."""
    raise_first(_VALIDATORS[io.kind_of(obj)](obj))


def _convert_structure(obj, to_kind: str, via: str = "direct"):
    """Convert any structure to any target kind; via is direct or transport."""
    if via not in ("direct", "transport"):
        raise StructureError("convert.via", f"unknown route {via!r}")
    if to_kind not in io.KINDS:
        raise StructureError("convert.kind", f"unknown target kind {to_kind!r}")
    kind = io.kind_of(obj)
    if kind == to_kind:
        return obj
    if via == "transport":
        return sp._transport(sp.SPECIES[kind], sp.SPECIES[to_kind], obj)
    return _FROM_VINE[to_kind](_TO_VINE[kind](obj))


convert_structure = checked(_require_valid, _convert_structure)
