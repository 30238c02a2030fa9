"""Brute-force oracles for the library's kernels.

Each oracle computes from the definition what a kernel computes from index
tables or bitmasks: the n!-relabeling scans behind the canonical form and
|Aut|, and the pairwise join/meet and covered-element tests behind the
lattice order checks.  They are slow and used by the tests only.
"""

from __future__ import annotations

from itertools import permutations

from vinery import lattice as lt
from vinery import vine as vn


def canonical_form_bruteforce(v: vn.RegularVine) -> tuple:
    """n!-scan over all relabelings; the oracle for `generate.canonical_form`."""
    ground = sorted(v.ground)
    if not ground:
        return ()
    best = None
    for perm in permutations(range(len(ground))):
        order = dict(zip(ground, perm))
        enc = tuple(sorted(tuple(sorted(order[x] for x in s)) for s in v.nodes))
        if best is None or enc < best:
            best = enc
    return best


def automorphism_group_order_bruteforce(v: vn.RegularVine) -> int:
    """n!-scan counting the ground bijections that fix the node set; the
    oracle for the chain-scan |Aut|."""
    ground = sorted(v.ground)
    count = 0
    for perm in permutations(ground):
        if vn.relabel_vine(v, dict(zip(ground, perm))).nodes == v.nodes:
            count += 1
    return count


def is_lattice_pairwise(L: lt.BoundedLattice) -> bool:
    """Every pair has a join and a meet, by `lattice.join` and `lattice.meet`."""
    if not L.elements:
        return False
    elems = L.sorted_elements()
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if lt.join(L, x, y) is None or lt.meet(L, x, y) is None:
                return False
    return True


def join_irreducibles_by_covers(L: lt.BoundedLattice) -> list[frozenset]:
    """Elements other than the bottom with exactly one `covered_elements`."""
    bottom = min(L.elements, key=len)
    return [s for s in L.sorted_elements() if s != bottom and len(lt.covered_elements(L, s)) == 1]
