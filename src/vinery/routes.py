"""Conversion routing between all five representations.

Graph, vine and domain convert among each other either through the explicit
maps or through the generic species transport; lattices and matrices are
structural re-packagings of a vine (add/remove the bottom; characteristic
vectors) and compose with either route.

The kind -> validator table `_VALIDATORS` is read by the CLI and checks the
input of `convert_structure`; its core composes the maps' cores, so a
checked structure is not checked again on the way.
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

_CORE = ("matgraph", "vine", "domain")

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


def _core_map(source: str, target: str, via: str, x):
    """x, one of the graph/vine/domain kinds, as another by the explicit map
    or by transport."""
    if source == target:
        return x
    if via == "transport":
        return sp._transport(sp.SPECIES[source], sp.SPECIES[target], x)
    return _DIRECT[(source, target)](x)


def _convert_structure(obj, to_kind: str, via: str = "direct"):
    """Convert any structure to any target kind; via is direct or transport."""
    if via not in ("direct", "transport"):
        raise StructureError("convert.via", f"unknown route {via!r}")
    if to_kind not in io.KINDS:
        raise StructureError("convert.kind", f"unknown target kind {to_kind!r}")
    kind = io.kind_of(obj)
    if kind == to_kind:
        return obj
    if kind in _CORE and to_kind in _CORE:
        return _core_map(kind, to_kind, via, obj)
    if kind in _CORE:
        v = _core_map(kind, "vine", via, obj)
    else:
        v = lt.lattice_to_vine(obj if kind == "lattice" else lt.matrix_to_lattice(obj))
    if to_kind in _CORE:
        return _core_map("vine", to_kind, via, v)
    L = lt._vine_to_lattice(v)
    return L if to_kind == "lattice" else lt.lattice_to_matrix(L)


convert_structure = checked(_require_valid, _convert_structure)
