"""Preference domains and Arrow/Black single-peakedness.

A domain is a set of linear orders (preferences) over a common alternative
set.  Arrow's single-peaked domains (ASPDs) are characterized by the
never-bottom condition on triples; the maximal ones have size 2^(n-1),
exactly two bottom alternatives, and split/merge along those bottoms.

`is_aspd` runs the triangle test of the matrix and lattice checks,
`lattice._least_triangle`, on the distinct sets ranked above an
alternative: x is last among {x, y, z} exactly when the set ranked above x
holds y and z (a set ranked above another alternative that holds y and z
but not x ranks them above x too), so the first triple found is the least
that breaks never-bottom, without ranking every triple in every preference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Optional

from . import lattice as lt
from .errors import StructureError, Violation, raise_first

Preference = tuple  # tuple of alternative labels, first-ranked first


@dataclass(frozen=True, eq=True)
class PreferenceDomain:
    alternatives: frozenset
    prefs: frozenset  # frozenset of Preference

    @property
    def n(self) -> int:
        return len(self.alternatives)

    def sorted_prefs(self) -> list[Preference]:
        return sorted(self.prefs)


def domain(alternatives: Iterable[str], prefs: Iterable[Iterable[str]]) -> PreferenceDomain:
    alts = frozenset(alternatives)
    seen: set[Preference] = set()
    for p in prefs:
        w = tuple(p)
        if sorted(w) != sorted(alts):
            raise StructureError("domain.permutation", f"preference {w} is not a linear order on the alternatives", witness=w)
        if w in seen:
            raise StructureError("domain.duplicate", f"duplicate preference {w}", witness=w)
        seen.add(w)
    return PreferenceDomain(alts, frozenset(seen))


def restrict_domain(d: PreferenceDomain, subset: Iterable[str]) -> PreferenceDomain:
    sub = frozenset(subset)
    if not sub <= d.alternatives:
        raise StructureError("domain.subset", f"{sorted(sub)} is not a subset of the alternatives")
    return PreferenceDomain(sub, frozenset(tuple(x for x in w if x in sub) for w in d.prefs))


def find_condorcet_cycle(d: PreferenceDomain):
    """A witness (w1, w2, w3, triple) of a Condorcet cycle, or None."""
    for T in combinations(sorted(d.alternatives), 3):
        rt = restrict_domain(d, T)
        orders = {w: {x: i for i, x in enumerate(w)} for w in rt.prefs}
        for w1, w2, w3 in permutations(sorted(rt.prefs), 3):
            for a, b, c in permutations(T):
                if (orders[w1][a] < orders[w1][b] < orders[w1][c]
                        and orders[w2][b] < orders[w2][c] < orders[w2][a]
                        and orders[w3][c] < orders[w3][a] < orders[w3][b]):
                    return (w1, w2, w3, T)
    return None


def is_aspd(d: PreferenceDomain) -> tuple[bool, Optional[tuple]]:
    """Never-bottom check on all triples; returns (flag, first violating triple).

    A triple violates the condition when each of its three members is ranked
    last among them by some preference, that is when the distinct sets
    ranked above an alternative carry a triangle on it (module docstring).
    Every label the preferences hold gets a row, so any domain is answered.
    """
    labels = sorted(d.alternatives.union(*d.prefs))
    bit = {x: 1 << p for p, x in enumerate(reversed(labels))}
    above = set()
    for w in d.prefs:
        seen = 0
        for x in w:
            above.add(seen)
            seen |= bit[x]
    tri = lt._least_triangle(len(labels), above)
    return (True, None) if tri is None else (False, tuple(labels[r] for r in tri[0]))


def bottom_alternatives(d: PreferenceDomain) -> frozenset:
    return frozenset(w[-1] for w in d.prefs if w)


def validate_domain(d: PreferenceDomain) -> list[Violation]:
    """Every preference a permutation of the alternatives, then never-bottom
    and the maximal size 2^(n-1); empty report means a maximal ASPD."""
    bad = [w for w in d.prefs if len(w) != d.n or set(w) != d.alternatives]
    report = [Violation("domain.permutation", w, f"preference {w} is not a linear order on the alternatives")
              for w in sorted(bad, key=repr)]
    if report:
        return report
    ok, triple = is_aspd(d)
    if not ok:
        report.append(Violation("domain.never-bottom", triple,
                                f"every alternative of {triple} is a bottom in the restriction"))
    expected = 1 if d.n == 0 else 2 ** (d.n - 1)
    if len(d.prefs) != expected:
        report.append(Violation("domain.maximal-size", len(d.prefs),
                                f"{len(d.prefs)} preferences, maximal ASPDs have {expected}"))
    return report


def require_valid(d: PreferenceDomain) -> None:
    raise_first(validate_domain(d))


def _glue_domains(d1: PreferenceDomain, d2: PreferenceDomain, a1: str, a2: str) -> PreferenceDomain:
    """The domain of two compatible halves missing a1 and a2: each half's
    preferences with its own missing alternative appended."""
    merged = frozenset(w + (a1,) for w in d1.prefs) | frozenset(w + (a2,) for w in d2.prefs)
    return PreferenceDomain(d1.alternatives | {a1}, merged)


def first_rank_distribution(d: PreferenceDomain) -> dict[str, int]:
    counts = {a: 0 for a in d.alternatives}
    for w in d.prefs:
        if w:
            counts[w[0]] += 1
    return counts


def topmost_contiguous_position(d: PreferenceDomain, x: str, y: str) -> int:
    """Minimum position at which x and y occur adjacently in some preference."""
    if x == y or x not in d.alternatives or y not in d.alternatives:
        raise StructureError("domain.labels", f"need two distinct alternatives, got {x!r}, {y!r}")
    pos = _contiguous_positions(d).get((x, y) if x < y else (y, x))
    if pos is None:
        raise StructureError("domain.contiguity", f"{x!r} and {y!r} are never contiguous", witness=(x, y))
    return pos


def _contiguous_positions(d: PreferenceDomain) -> dict[tuple, int]:
    """topmost_contiguous_position of every pair ever contiguous, keyed by
    the sorted pair, from one pass over each preference's adjacent pairs."""
    best: dict[tuple, int] = {}
    for w in d.prefs:
        for i, pair in enumerate(zip(w, w[1:]), 1):
            pair = min(pair), max(pair)
            best[pair] = min(best.get(pair, i), i)
    return best


def richness_direct(d: PreferenceDomain) -> int:
    """Largest k such that every row up to k contains every alternative."""
    rich = 0
    for k in range(d.n):
        if {w[k] for w in d.prefs} == set(d.alternatives):
            rich = k + 1
        else:
            break
    return rich


def _single_peaked_on(w: Preference, pos: Mapping[str, int]) -> bool:
    # every prefix of w must be a contiguous interval of the axis
    lo = hi = pos[w[0]]
    for x in w[1:]:
        p = pos[x]
        if p == lo - 1:
            lo = p
        elif p == hi + 1:
            hi = p
        else:
            return False
    return True


def _axis_fits(d: PreferenceDomain, axis: tuple) -> bool:
    pos = {x: i for i, x in enumerate(axis)}
    return all(_single_peaked_on(w, pos) for w in d.prefs if w)


def is_bspd(d: PreferenceDomain) -> Optional[tuple]:
    """A societal axis along which all preferences are single-peaked, or None.

    Maximal ASPDs have a fast path: the domain is a BSPD iff it contains some
    preference together with its reversal, and that preference then serves as
    the axis.  Other domains fall back to a pruned axis search (an axis
    endpoint is the only place a bottom-ranked alternative can sit).
    """
    if d.n <= 1:
        return tuple(sorted(d.alternatives))
    if not validate_domain(d):
        for w in d.sorted_prefs():
            if tuple(reversed(w)) in d.prefs:
                return w if _axis_fits(d, w) else None
        return None
    bottoms = bottom_alternatives(d)
    if len(bottoms) > 2:
        return None
    for axis in permutations(sorted(d.alternatives)):
        if axis[0] > axis[-1]:
            continue  # an axis and its reversal are the same witness
        if bottoms <= {axis[0], axis[-1]} and _axis_fits(d, axis):
            return axis
    return None


def relabel_domain(d: PreferenceDomain, h: Mapping[str, str]) -> PreferenceDomain:
    return PreferenceDomain(frozenset(h[a] for a in d.alternatives),
                            frozenset(tuple(h[x] for x in w) for w in d.prefs))

