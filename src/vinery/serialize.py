"""Reading and writing structures: JSON envelope, text tables, DOT graphs.

Every file holds one structure in a self-describing JSON envelope whose
"kind" field names a row of the `species` table: matgraph, vine, domain,
lattice, matrix.  All emitted documents are canonically sorted so identical
structures serialize to identical bytes.  A vine and a lattice, which is a
vine plus a bottom, are written alike in every format; the DOT rendering
draws one edge per cover, read off their shared index view, `vine._View`.
"""

from __future__ import annotations

import json

from . import domain as dm
from . import lattice as lt
from . import matgraph as mg
from . import species as sp
from . import vine as vn
from .errors import StructureError

KINDS = tuple(sp.SPECIES)


def kind_of(obj) -> str:
    return sp.species_of(obj).name


def _ranked(obj) -> list[frozenset]:
    """A vine's nodes or a lattice's elements by rank, then sorted, without
    the index view, which a vine built by a map has not made yet."""
    return obj.sorted_elements() if isinstance(obj, lt.BoundedLattice) else obj.sorted_nodes()


def _name(s: frozenset) -> str:
    """A node's name in text and DOT: its sorted labels, as {a,b}."""
    return "{" + ",".join(sorted(s)) + "}"


def _quoted(x: str) -> str:
    """A DOT ID: x in double quotes, with backslashes and quotes escaped."""
    return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_json_dict(obj) -> dict:
    kind = kind_of(obj)
    if kind == "matgraph":
        return {"kind": kind,
                "vertices": sorted(obj.vertices),
                "edges": [{"u": u, "v": v, "label": obj.labels[(u, v)]} for (u, v) in obj.edges()]}
    if kind in ("vine", "lattice"):
        return {"kind": kind,
                "ground": sorted(obj.ground),
                "nodes": [sorted(s) for s in _ranked(obj)]}
    if kind == "domain":
        return {"kind": kind,
                "alternatives": sorted(obj.alternatives),
                "preferences": [list(w) for w in obj.sorted_prefs()]}
    return {"kind": kind,
            "rows": list(obj.rows),
            "columns": ["".join(str(b) for b in col) for col in sorted(obj.columns)]}


def dumps(obj) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _strings(value, field: str) -> list:
    """A payload field that must be a JSON array of strings.  Labels are
    strings; a bare string is refused rather than split into characters."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise StructureError("parse.payload", f"{field} must be an array of strings")
    return value


def _ground(value, field: str) -> list:
    """A ground array, which holds every label: `_strings` that UTF-8 can
    write and that hold no line boundary, which would split a line of the
    text formats (`\\n`, `\\r`, U+2028: whatever `str.splitlines` splits at)."""
    labels = _strings(value, field)
    for x in labels:
        try:
            x.encode()
        except UnicodeEncodeError:
            raise StructureError("parse.payload", f"{field} holds {x!r}, which UTF-8 cannot encode", witness=x) from None
        if "".join(x.splitlines()) != x:
            raise StructureError("parse.payload", f"{field} holds {x!r}, which holds a line break", witness=x)
    return labels


def _string_lists(value, field: str) -> list:
    if not isinstance(value, list):
        raise StructureError("parse.payload", f"{field} must be an array of arrays of strings")
    return [_strings(x, f"every entry of {field}") for x in value]


def _distinct(items: list, kept: int, field: str) -> None:
    """Refuse a repeated entry in an array that names a set: the set built
    from it, of `kept` members, would merge it silently."""
    if kept == len(items):
        return
    seen = set()
    for x in items:
        if x in seen:
            raise StructureError("parse.duplicate", f"{field} lists {x!r} twice", witness=x)
        seen.add(x)


def _family(members: list, family: frozenset, field: str) -> None:
    """The same for a family of label sets: no member lists a label twice,
    and no two members are one set."""
    if len(family) != len(members) or sum(map(len, family)) != sum(map(len, members)):
        for m in members:
            _distinct(m, len(set(m)), f"node {m}")
        _distinct([tuple(sorted(m)) for m in members], len(family), field)


def from_json_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise StructureError("parse.kind", "document has no \"kind\" field")
    kind = doc["kind"]
    try:
        if kind == "matgraph":
            vertices = _ground(doc["vertices"], "vertices")
            out = mg.mat_graph(vertices, [(e["u"], e["v"], e["label"]) for e in doc["edges"]])
            _distinct(vertices, len(out.vertices), "vertices")
            return out
        if kind == "vine":
            ground, nodes = _ground(doc["ground"], "ground"), _string_lists(doc["nodes"], "nodes")
            out = vn.vine(ground, nodes)
            _distinct(ground, len(out.ground), "ground")
            _family(nodes, out.nodes, "nodes")
            return out
        if kind == "domain":
            alternatives = _ground(doc["alternatives"], "alternatives")
            out = dm.domain(alternatives, _string_lists(doc["preferences"], "preferences"))
            _distinct(alternatives, len(out.alternatives), "alternatives")
            return out
        if kind == "lattice":
            ground, nodes = _ground(doc["ground"], "ground"), _string_lists(doc["nodes"], "nodes")
            out = lt.lattice(nodes)
            if set(ground) != out.ground:
                raise StructureError("lattice.ground", f"ground {sorted(set(ground))} is not the union "
                                     f"{sorted(out.ground)} of the nodes", witness=sorted(set(ground) ^ out.ground))
            _distinct(ground, len(out.ground), "ground")
            _family(nodes, out.elements, "nodes")
            return out
        if kind == "matrix":
            rows = tuple(_ground(doc["rows"], "rows"))
            columns = _strings(doc["columns"], "columns")
            for col in columns:
                if len(col) != len(rows) or not set(col) <= {"0", "1"}:
                    raise StructureError("parse.matrix", f"bad column {col!r}")
            cols = frozenset(tuple(int(c) for c in col) for col in columns)
            _distinct(columns, len(cols), "columns")
            return lt.BinaryMatrix(rows, cols)
    except (KeyError, TypeError) as exc:
        raise StructureError("parse.payload", f"malformed {kind} payload: {exc}") from exc
    raise StructureError("parse.kind", f"unknown kind {kind!r}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:  # nesting too deep, or an integer past the digit limit
        raise json.JSONDecodeError(str(exc), text, 0) from None
    return from_json_dict(doc)


def load_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def to_text(obj) -> str:
    """One line per edge, node or element, and matrix row; a domain as a
    table whose columns are the preferences, top row rank 1."""
    kind = kind_of(obj)
    if kind == "matgraph":
        lines = [f"{u} {v} {obj.labels[(u, v)]}" for (u, v) in obj.edges()]
        return "\n".join(lines) + "\n" if lines else "(no edges)\n"
    if kind in ("vine", "lattice"):
        lines = [_name(s) for s in _ranked(obj)]
    elif kind == "domain":
        cols = obj.sorted_prefs()
        width = max((len(str(x)) for w in cols for x in w), default=0)
        lines = [" ".join(str(w[r]).rjust(width) for w in cols) for r in range(obj.n)] if cols else []
    else:  # matrix, column-sorted
        cols = sorted(obj.columns)
        lines = ["".join(str(col[r]) for col in cols) for r in range(len(obj.rows))] if cols else []
    return "\n".join(lines) + "\n" if lines else "(empty)\n"


def to_dot(obj) -> str:
    kind = kind_of(obj)
    if kind == "matgraph":
        lines = ["graph matgraph {"] + [f"  {_quoted(v)};" for v in sorted(obj.vertices)]
        lines += [f"  {_quoted(u)} -- {_quoted(v)} [label={obj.labels[(u, v)]}];" for (u, v) in obj.edges()]
    elif kind in ("vine", "lattice"):
        names = [_quoted(_name(s)) for s in obj._view.nodes]
        lines = [f"digraph {kind} {{", "  rankdir=BT;"] + [f"  {x};" for x in names]
        for x, cov in zip(names, obj._view.covers):
            lines.extend(f"  {names[j]} -> {x};" for j in vn._bits(cov))
    else:
        raise StructureError("format.dot", f"no DOT form for kind {kind!r}")
    return "\n".join(lines) + "\n}\n"
