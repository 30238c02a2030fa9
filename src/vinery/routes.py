"""Conversion routing between all five representations.

Every kind is a row of the `species` table.  ``via="transport"`` is the
generic species transport between any two rows.  ``via="direct"`` is the
explicit hub, the regular vine: every row has one map to the vine
(``to_vine``) and one from it (``from_vine``), and a conversion is the
target's second after the source's first.  Graphs and domains map by the
`correspond` cores, so a graph's domain lists its MAT-PEOs and a domain's
graph labels each pair by its topmost contiguous position (`correspond`
module docstring); a lattice is the vine plus the empty bottom, and a
matrix the characteristic vectors of that lattice (`lattice` module
docstring).

``convert_structure`` checks its input through the input's row,
``Species.validate``, which raises the first violation of the row's
``report``.  Its core composes the maps' cores, which send valid structures
to valid ones, so nothing is checked on the way.  The benchmark harness
imports this module, so it stays even if ``convert_structure`` moves.
"""

from __future__ import annotations

from . import species as sp
from .errors import StructureError, checked


def _convert_structure(obj, to_kind: str, via: str = "direct"):
    """Convert any structure to any target kind; via is direct or transport."""
    if via not in ("direct", "transport"):
        raise StructureError("convert.via", f"unknown route {via!r}")
    if to_kind not in sp.SPECIES:
        raise StructureError("convert.kind", f"unknown target kind {to_kind!r}")
    F, G = sp.species_of(obj), sp.SPECIES[to_kind]
    if F is G:
        return obj
    if via == "transport":
        return sp._transport(F, G, obj)
    return G.from_vine(F.to_vine(obj))


convert_structure = checked(lambda obj: sp.species_of(obj).validate(obj), _convert_structure)
