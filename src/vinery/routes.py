"""Conversion routing between all five representations.

``via="transport"`` is the generic species transport between any two of the
five split/merge rows of `species`.  ``via="direct"`` is the explicit hub:
graph, vine and domain convert among each other by the six explicit maps,
and lattices and matrices are structural re-packagings of a vine (add/remove
the bottom; characteristic vectors) that compose with them.  The direct
route reads a lattice or matrix source as its vine, which a valid one is
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

_DIRECT = {
    ("matgraph", "vine"): co._graph_to_vine,
    ("vine", "matgraph"): co._vine_to_graph,
    ("matgraph", "domain"): co._graph_to_domain,
    ("domain", "matgraph"): co._domain_to_graph,
    ("vine", "domain"): co._vine_to_domain,
    ("domain", "vine"): co._domain_to_vine,
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
    if kind in ("lattice", "matrix"):
        obj, kind = lt._lattice_to_vine(obj if kind == "lattice" else lt.matrix_to_lattice(obj)), "vine"
    if to_kind in ("lattice", "matrix"):
        L = lt._vine_to_lattice(obj if kind == "vine" else _DIRECT[(kind, "vine")](obj))
        return L if to_kind == "lattice" else lt.lattice_to_matrix(L)
    return obj if kind == to_kind else _DIRECT[(kind, to_kind)](obj)


convert_structure = checked(_require_valid, _convert_structure)
