"""Error types and the validation vocabulary shared across the library.

Validation failures carry a machine-readable axiom identifier such as
``"vine.two-covers"`` together with a witness of the violation, so that both
the CLI and the tests can assert on *which* rule broke, not just that
something did.  Every family has one validator ``validate_<kind>(x)``
returning a list of ``Violation``s (empty means valid); ``raise_first``
turns such a report into a ``StructureError``.

A structure is checked once, where it enters: an operation on valid input is
a private core, its public name is ``checked(require, core)``, and package
code that holds a checked structure calls the core.  No core checks what it
builds: the families are in bijection, so the image of a valid structure is
valid (`correspond` and `lattice` name the results).  Each validator first
refuses what its factory or the parser refuses, and then stops, so its
later checks never see a malformed structure.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple


class StructureError(ValueError):
    """A structure violates one of its defining axioms, or is malformed."""

    def __init__(self, axiom: str, message: str, witness=None):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom
        self.witness = witness


class InternalInconsistencyError(RuntimeError):
    """Raised when an operation that is guaranteed to succeed fails.

    This signals a bug in a species implementation (e.g. ``transport``'s
    merge refusing the halves it transported), never a problem with user
    input.
    """


class Violation(NamedTuple):
    axiom: str
    witness: object
    message: str


def raise_first(report: list[Violation]) -> None:
    """Raise the first violation of a validator's report, if there is one."""
    if report:
        x = report[0]
        raise StructureError(x.axiom, x.message, witness=x.witness)


def checked(require: Callable, core: Callable) -> Callable:
    """The public form of a core: ``require(x)`` on the first argument, then
    ``core(x, ...)``; it carries the core's docstring, module and signature,
    and the core's name without its leading underscore."""
    @functools.wraps(core)
    def public(x, *args, **kwargs):
        require(x)
        return core(x, *args, **kwargs)

    public.__name__ = public.__qualname__ = core.__name__.removeprefix("_")
    return public


class _UnionFind:
    """Disjoint sets with path halving, for the acyclicity check of MAT
    labelings and the tree check of the vine test oracle."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> bool:
        """Union the two classes; False if already joined (a cycle closed)."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True
