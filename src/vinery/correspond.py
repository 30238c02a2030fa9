"""The four explicit bijections between the vine and graphs and domains.

These are the direct, non-recursive maps; the generic ``species.transport``
computes the same functions and the test suite holds the two routes equal.
Each map is a private core that trusts its input and checks nothing it
builds; the public name checks the input first.  The vine is the hub: a
valid input has a valid image by two bijections,

- MAT-labeled complete graphs <-> regular vines (Forum Math. Sigma 2024)
- maximal ASPDs <-> regular vines (this paper)

and graph <-> domain is their composition through the vine, which
`routes.convert_structure` runs as the target row's map from the vine after
the source row's map to it.  It gives the paper's explicit maps:

1. graph -> domain lists the MAT-PEOs of g, read as preferences (first
   eliminated = first ranked); the two correspondences commute, so these
   are the preferences of g's vine.  `_graph_to_vine(g)` is the vine whose
   nodes are exactly the singletons and the principal cliques of g.
   `_vine_to_domain` reads one preference off every maximal chain, ranked
   in chain order.  A vine is graded with the singletons at rank 1 and the
   ground set at rank n, so a maximal chain adds one label per rank and the
   prefix sets of its preference are its nodes; conversely an ordering
   whose prefix sets are all nodes lists a maximal chain.  So an ordering
   is a MAT-PEO iff each of its prefix sets is a singleton or a principal
   clique.
2. domain -> graph labels each pair {u, v} by its topmost contiguous
   position.  `_vine_to_graph` labels it |J| - 1, for J the least node
   holding both.  Where u and v are adjacent at positions i and i + 1 of a
   preference, its prefix set of size i + 1 is a node holding both, so
   i >= |J| - 1.  J covers two nodes J - {x} and J - {y}, and neither holds
   both u and v, so {x, y} = {u, v}.  Their intersection J - {u, v} is a
   node by proximity (or empty when |J| = 2), so some maximal chain runs
   through it, J - {u} and J: its preference has v and u at positions
   |J| - 1 and |J|.

The tests hold `routes.convert_structure` against the definitions: the
MAT-PEOs against the MAT-simplicial check of every prefix, and the labels
against `domain.topmost_contiguous_position`.  The benchmark harness
imports this module, so it stays even if its maps move elsewhere.
"""

from __future__ import annotations

from itertools import combinations

from . import domain as dm
from . import matgraph as mg
from . import vine as vn
from .errors import checked


def _graph_to_vine(g: mg.MatLabeledGraph) -> vn.RegularVine:
    """Singletons plus the principal clique generated by every edge."""
    order, _, _, cliques = g._view
    nodes = {frozenset([a]) for a in g.vertices}
    nodes.update(frozenset(x for i, x in enumerate(order) if clique >> i & 1) for clique in cliques.values())
    return vn.RegularVine(g.vertices, frozenset(nodes))


def _vine_to_graph(v: vn.RegularVine) -> mg.MatLabeledGraph:
    """Label every pair by the rank of its join, the first node holding it, minus one."""
    labels: dict[tuple[str, str], int] = {}
    for s in v.sorted_nodes():
        for e in combinations(sorted(s), 2):
            labels.setdefault(e, len(s) - 1)
    return mg.MatLabeledGraph(v.ground, labels)


def _vine_to_domain(v: vn.RegularVine) -> dm.PreferenceDomain:
    """One preference per maximal chain: rank the elements in chain order."""
    if v.n == 0:
        return dm.PreferenceDomain(v.ground, frozenset({()}))
    _, bit, _, masks, _, covers = v._view
    label = {b: x for x, b in bit.items()}
    # per node, each node it covers with the label between them
    steps = [[(j, label[m ^ masks[j]]) for j in vn._bits(c)] for m, c in zip(masks, covers)]
    prefs = set()

    def descend(k: int, later: tuple):
        """The chains down from node k, which the labels in `later` follow."""
        if not steps[k]:
            prefs.add((label[masks[k]],) + later)
        for j, x in steps[k]:
            descend(j, (x,) + later)

    descend(len(masks) - 1, ())
    return dm.PreferenceDomain(v.ground, frozenset(prefs))


def _domain_to_vine(d: dm.PreferenceDomain) -> vn.RegularVine:
    """All preference prefixes, as a node set; each distinct prefix set is
    collected as a bitmask and built once."""
    order = sorted(d.alternatives)
    bit = {x: 1 << i for i, x in enumerate(order)}
    masks = set()
    for w in d.prefs:
        prefix = 0
        for x in w:
            prefix |= bit[x]
            masks.add(prefix)
    return vn.RegularVine(d.alternatives, frozenset(frozenset(x for i, x in enumerate(order) if m >> i & 1)
                                                    for m in masks))


graph_to_vine = checked(mg.require_valid, _graph_to_vine)
vine_to_graph = checked(vn.require_valid, _vine_to_graph)
vine_to_domain = checked(vn.require_valid, _vine_to_domain)
domain_to_vine = checked(dm.require_valid, _domain_to_vine)
