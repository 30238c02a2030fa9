"""Conversion routing between all five representations.

Graph, vine and domain convert among each other either through the explicit
maps or through the generic species transport; lattices and matrices are
structural re-packagings of a vine (add/remove the bottom; characteristic
vectors) and compose with either route.
"""

from __future__ import annotations

from . import correspond as co
from . import lattice as lt
from . import species as sp
from . import serialize as io
from .errors import StructureError

_CORE = ("matgraph", "vine", "domain")

_DIRECT = {
    ("matgraph", "vine"): co.graph_to_vine,
    ("vine", "matgraph"): co.vine_to_graph,
    ("matgraph", "domain"): co.graph_to_domain,
    ("domain", "matgraph"): co.domain_to_graph,
    ("vine", "domain"): co.vine_to_domain,
    ("domain", "vine"): co.domain_to_vine,
}


def _to_vine(obj, via: str):
    kind = io.kind_of(obj)
    if kind == "vine":
        return obj
    if kind in _CORE:
        if via == "transport":
            return sp.transport(sp.SPECIES[kind], sp.VINE, obj)
        return _DIRECT[(kind, "vine")](obj)
    if kind == "lattice":
        return lt.lattice_to_vine(obj)
    if kind == "matrix":
        return lt.lattice_to_vine(lt.matrix_to_lattice(obj))
    raise StructureError("convert.kind", f"cannot convert from kind {kind!r}")


def convert_structure(obj, to_kind: str, via: str = "direct"):
    """Convert any structure to any target kind; via is direct or transport."""
    if via not in ("direct", "transport"):
        raise StructureError("convert.via", f"unknown route {via!r}")
    if to_kind not in io.KINDS:
        raise StructureError("convert.kind", f"unknown target kind {to_kind!r}")
    kind = io.kind_of(obj)
    if kind == to_kind:
        return obj
    if kind in _CORE and to_kind in _CORE:
        if via == "transport":
            return sp.transport(sp.SPECIES[kind], sp.SPECIES[to_kind], obj)
        return _DIRECT[(kind, to_kind)](obj)
    v = _to_vine(obj, via)
    if to_kind == "vine":
        return v
    if to_kind in _CORE:
        if via == "transport":
            return sp.transport(sp.VINE, sp.SPECIES[to_kind], v)
        return _DIRECT[("vine", to_kind)](v)
    if to_kind == "lattice":
        return lt.vine_to_lattice(v)
    return lt.lattice_to_matrix(lt.vine_to_lattice(v))
