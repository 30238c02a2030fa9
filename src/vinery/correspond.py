"""The six explicit bijections between graphs, vines and domains.

These are the direct, non-recursive maps; the generic ``species.transport``
computes the same functions and the test suite holds the two routes equal.
Each map is a private core that trusts its input and checks nothing it
builds; the public name checks the input first.  A valid input has a valid
image by two bijections, which the graph <-> domain maps compose:

- MAT-labeled complete graphs <-> regular vines (Forum Math. Sigma 2024)
- maximal ASPDs <-> regular vines (this paper)
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


def _graph_to_domain(g: mg.MatLabeledGraph) -> dm.PreferenceDomain:
    """All MAT-PEOs, read directly as preferences (first eliminated = first
    ranked): the orderings whose prefix sets are singletons or principal
    cliques, which `matgraph._enumerate_mat_peos` grows on the graph's view."""
    return dm.PreferenceDomain(g.vertices, frozenset(mg._enumerate_mat_peos(g)))


def _domain_to_graph(d: dm.PreferenceDomain) -> mg.MatLabeledGraph:
    """Label every pair by its topmost contiguous occurrence."""
    # in a maximal ASPD every pair is contiguous somewhere; the keys are edge keys
    return mg.MatLabeledGraph(d.alternatives, dict(sorted(dm._contiguous_positions(d).items())))


def _vine_to_domain(v: vn.RegularVine) -> dm.PreferenceDomain:
    """One preference per maximal chain: rank the elements in chain order."""
    if v.n == 0:
        return dm.PreferenceDomain(v.ground, frozenset({()}))
    _, bit, _, masks, covers = v._view
    label = {b: x for x, b in bit.items()}
    prefs = set()

    def descend(k: int, later: tuple):
        """The chains down from node k, which the labels in `later` follow."""
        if not covers[k]:
            prefs.add((label[masks[k]],) + later)
        for j in vn._bits(covers[k]):
            descend(j, (label[masks[k] ^ masks[j]],) + later)

    descend(len(masks) - 1, ())
    return dm.PreferenceDomain(v.ground, frozenset(prefs))


def _domain_to_vine(d: dm.PreferenceDomain) -> vn.RegularVine:
    """All preference prefixes, as a node set."""
    nodes = set()
    for w in d.prefs:
        for k in range(1, len(w) + 1):
            nodes.add(frozenset(w[:k]))
    return vn.RegularVine(d.alternatives, frozenset(nodes))


graph_to_vine = checked(mg.require_valid, _graph_to_vine)
vine_to_graph = checked(vn.require_valid, _vine_to_graph)
graph_to_domain = checked(mg.require_valid, _graph_to_domain)
domain_to_graph = checked(dm.require_valid, _domain_to_graph)
vine_to_domain = checked(vn.require_valid, _vine_to_domain)
domain_to_vine = checked(dm.require_valid, _domain_to_vine)
