"""Regular vines: axioms, associated trees, split/merge, chains, analytics."""

import itertools
import random
import string

import pytest

from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import species as sp
from vinery import vine as vn
from vinery.errors import StructureError

from conftest import d_vine, random_relabeling, split_with_shared
from oracles import covered_by, validate_vine_by_sets, vine_shaped_families


def nodes_of(*words):
    return frozenset(frozenset(w) for w in words)


# ----------------------------------------------------------- construction

def test_factory_rejects_bad_nodes():
    with pytest.raises(StructureError) as exc:
        vn.vine("ab", ["a", "b", "ax"])
    assert exc.value.axiom == "vine.subsets"
    with pytest.raises(StructureError) as exc:
        vn.vine("ab", ["a", "b", ""])
    assert exc.value.axiom == "vine.subsets"


def test_rank_nodes_and_sorted_nodes(intro_vine):
    assert intro_vine.rank_nodes(2) == [frozenset("ab"), frozenset("bc"), frozenset("bd")]
    assert intro_vine.sorted_nodes()[0] == frozenset("a")
    assert intro_vine.sorted_nodes()[-1] == frozenset("abcd")


# ------------------------------------------------------------- validation

def test_worked_examples_are_valid(intro_vine, fig_vine):
    assert vn.validate_vine(intro_vine) == []
    assert vn.validate_vine(fig_vine) == []


def test_empty_and_tiny_vines():
    assert vn.validate_vine(vn.vine("", [])) == []
    assert vn.validate_vine(vn.vine("a", ["a"])) == []
    assert vn.validate_vine(vn.vine("ab", ["a", "b", "ab"])) == []
    # a non-empty node family over the empty ground set is rejected
    bad = vn.RegularVine(frozenset(), frozenset({frozenset("x")}))
    assert [x.axiom for x in vn.validate_vine(bad)] == ["vine.grading"]


def test_missing_atom_is_reported():
    v = vn.vine("abc", ["a", "b", "ab", "bc", "abc"])
    report = vn.validate_vine(v)
    assert any(x.axiom == "vine.atoms" and x.witness == ["c"] for x in report)


def test_wrong_level_count_is_reported(intro_vine):
    v = vn.RegularVine(intro_vine.ground, intro_vine.nodes - {frozenset("bc")})
    assert any(x.axiom == "vine.grading" for x in vn.validate_vine(v))


def test_two_cover_violation(intro_vine):
    # replacing bd by ad leaves bcd covering only bc
    nodes = (intro_vine.nodes - {frozenset("bd")}) | {frozenset("ad")}
    v = vn.RegularVine(intro_vine.ground, nodes)
    report = vn.validate_vine(v)
    assert report and all(x.axiom == "vine.two-covers" for x in report)


def test_bd_to_cd_mutation_is_the_path_vine(intro_vine):
    # this mutation lands on another valid vine (the path-shaped one)
    nodes = (intro_vine.nodes - {frozenset("bd")}) | {frozenset("cd")}
    v = vn.RegularVine(intro_vine.ground, nodes)
    assert vn.validate_vine(v) == []
    assert vn.is_d_vine(v)


def assert_counts_and_two_covers_imply_a_vine(n: int) -> None:
    """Every family with the vine rank counts in which each node holds
    exactly two nodes one rank down is a vine, by the set oracle's five
    axioms and by the mask check's three, and there are as many as labeled
    vines: no family reaches a tree or proximity failure."""
    count = 0
    for v in vine_shaped_families(n):
        assert validate_vine_by_sets(v) == [] and vn.validate_vine(v) == [], sorted(map(sorted, v.nodes))
        count += 1
    assert count == gen.labeled_count_formula(n)


def test_counts_and_two_covers_imply_a_vine():
    for n in range(1, 6):
        assert_counts_and_two_covers_imply_a_vine(n)


@pytest.mark.exhaustive(60)
def test_counts_and_two_covers_imply_a_vine_at_six():
    """All 23,040 families."""
    assert_counts_and_two_covers_imply_a_vine(6)


def _mutations(rng, v):
    """v with one node dropped, one subset added, and one node replaced:
    by another subset of its rank, and by the union of two nodes of the rank
    below that differ in one element (which keeps two covers per node)."""
    ground = sorted(v.ground)
    node = rng.choice(v.sorted_nodes())
    extra = frozenset(rng.sample(ground, rng.randint(1, len(ground))))
    out = [v.nodes - {node}, v.nodes | {extra}, (v.nodes - {node}) | {frozenset(rng.sample(ground, len(node)))}]
    r = rng.randint(2, v.n - 1)
    unions = [a | b for a in v.rank_nodes(r - 1) for b in v.rank_nodes(r - 1) if len(a | b) == r]
    fresh = sorted(set(unions) - v.nodes, key=sorted)
    if fresh:
        out.append((v.nodes - {rng.choice(v.rank_nodes(r))}) | {rng.choice(fresh)})
    return [vn.RegularVine(v.ground, nodes) for nodes in out]


def _sampled_cases(seed):
    """Seeded vines n = 4..8 and their `_mutations`."""
    rng = random.Random(seed)
    cases = []
    for n in range(4, 9):
        for _ in range(12):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            cases += [v] + _mutations(rng, v)
    return cases


def test_mask_covers_report_like_covered_by(monkeypatch, seed):
    """The mask cover table equals the plain covered_by table, and the set
    oracle reading the plain table gives validate_vine's reports, on valid
    and mutated vines."""
    cases = _sampled_cases(seed)

    def plain(v):
        return {s: covered_by(v, s) for s in v.sorted_nodes() if len(s) > 1}

    for v in cases:
        # the order of the table is the order of the two-covers reports
        assert list(vn._cover_table(v).items()) == list(plain(v).items())
    fast = [vn.validate_vine(v) for v in cases]
    monkeypatch.setattr(vn, "_cover_table", plain)
    assert fast == [validate_vine_by_sets(v) for v in cases]
    assert {x.axiom for report in fast for x in report} >= {"vine.grading", "vine.two-covers"}
    assert [] in fast


def _odd_families():
    """Families no factory builds: nodes with labels outside the ground set
    (first in `sorted` order or not), an empty node, an oversized node, and
    nodes over an empty ground set."""
    ab, abc = frozenset("ab"), frozenset("abc")
    return [vn.RegularVine(ab, nodes_of("a", "b", "ax")), vn.RegularVine(ab, nodes_of("a", "b", "xy")),
            vn.RegularVine(frozenset("bc"), nodes_of("b", "c", "ab")),
            vn.RegularVine(abc, nodes_of("a", "b", "c", "ab", "xy", "abc")),
            vn.RegularVine(abc, nodes_of("a", "b", "c", "ab", "bc", "abcd")),
            vn.RegularVine(frozenset("a"), nodes_of("", "a")), vn.RegularVine(frozenset(), nodes_of("x"))]


def test_validate_vine_matches_set_oracle(vines_by_n, seed):
    """The same Violations in the same order, witnesses and messages
    included, as the axioms checked on frozensets: on every labeled vine
    n <= 5, on seeded vines n = 4..8 and their mutations, and on families
    no factory builds."""
    cases = [v for n in range(6) for v in vines_by_n[n]] + _sampled_cases(seed) + _odd_families()
    reports = [vn.validate_vine(v) for v in cases]
    assert reports == [validate_vine_by_sets(v) for v in cases]
    assert {x.axiom for report in reports for x in report} == {"vine.atoms", "vine.grading", "vine.two-covers"}


def test_two_covers_check_matches_set_oracle_on_every_family_with_the_rank_counts():
    """The same reports as the set oracle on all 120 families on 4 labels
    with the vine rank counts: the atoms, the top, 3 of the 6 pairs and 2
    of the 4 triples.  Among them are families where a node's two covers
    are not both one rank down, which only the rank bitset test flags."""
    labels = "abcd"
    ground = frozenset(labels)
    atoms = [frozenset(x) for x in labels]
    pairs, triples = (list(map(frozenset, itertools.combinations(labels, r))) for r in (2, 3))
    families = [vn.RegularVine(ground, frozenset(atoms + list(two) + list(three) + [ground]))
                for two in itertools.combinations(pairs, 3) for three in itertools.combinations(triples, 2)]
    assert len(families) == 120
    reports = [vn.validate_vine(v) for v in families]
    assert reports == [validate_vine_by_sets(v) for v in families]
    assert sum(not report for report in reports) == gen.labeled_count_formula(4)

    def two_covers_off_rank(v):
        masks, covers = v._view.masks, v._view.covers
        return any(cov.bit_count() == 2 and any(masks[j].bit_count() != m.bit_count() - 1 for j in vn._bits(cov))
                   for m, cov in zip(masks, covers))

    assert any(map(two_covers_off_rank, families))


def _assert_covers_match_oracle(v):
    """_mask_covers over sorted_nodes: each below-set is every node strictly
    under the node, each cover list the covered_by list."""
    nodes = v.sorted_nodes()
    assert v._view.nodes == nodes
    below, covers = vn._mask_covers(v._view.masks)
    for s, under, cov in zip(nodes, below, covers):
        assert [nodes[j] for j in vn._bits(under)] == [t for t in nodes if t < s]
        assert sorted((nodes[j] for j in vn._bits(cov)), key=sorted) == covered_by(v, s)
    assert list(vn._cover_table(v).items()) == [(s, covered_by(v, s)) for s in nodes if len(s) > 1]


def test_mask_covers_match_covered_by_on_classes():
    for n in range(1, 7):
        for v in gen.class_representatives(n):
            _assert_covers_match_oracle(v)


def test_mask_covers_match_covered_by_on_mutations(seed):
    """Seeded vines n = 4..12 with a node dropped, added or replaced; most
    of them are invalid and some have covers of mixed ranks."""
    rng = random.Random(seed)
    mixed = 0
    for n in range(4, 13):
        for _ in range(3):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            for w in [v] + _mutations(rng, v):
                _assert_covers_match_oracle(w)
                mixed += any(len({len(t) for t in cov}) > 1 for cov in vn._cover_table(w).values())
    assert mixed


def test_require_valid(intro_vine):
    vn.require_valid(intro_vine)
    with pytest.raises(StructureError):
        vn.require_valid(vn.RegularVine(frozenset("ab"), frozenset()))


# --------------------------------------------------------- associated trees

def test_associated_tree_intro(intro_vine):
    t1 = vn.associated_tree(intro_vine, 1)
    assert t1.level == 1
    assert t1.vertices == tuple(frozenset(x) for x in "abcd")
    # the first level is a star centered at b
    edge_pairs = {tuple(tuple(sorted(t)) for t in pair) for _, pair in t1.edges}
    assert edge_pairs == {(("a",), ("b",)), (("b",), ("c",)), (("b",), ("d",))}


def test_associated_tree_range(intro_vine):
    with pytest.raises(StructureError) as exc:
        vn.associated_tree(intro_vine, 4)
    assert exc.value.axiom == "vine.level"


# ------------------------------------------------------------ split/merge

def test_split_intro(intro_vine):
    v1, v2, vp = split_with_shared(sp.VINE, intro_vine)
    assert v1 == vn.vine("abc", ["a", "b", "c", "ab", "bc", "abc"])
    assert v2 == vn.vine("bcd", ["b", "c", "d", "bc", "bd", "bcd"])
    assert vp == vn.vine("bc", ["b", "c", "bc"])


def test_split_fig_shared_part(fig_vine):
    _, _, vp = split_with_shared(sp.VINE, fig_vine)
    assert vp == vn.vine("bcd", ["b", "c", "d", "bc", "cd", "bcd"])


def test_split_halves_are_the_ideals_of_the_tops_covers(seed):
    """On every class n <= 6 under a random relabeling: the halves are the
    principal ideals of the top's two covers, in `sorted` order, and the
    shared part holds the nodes of both."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for rep in gen.class_representatives(n):
            v = vn.relabel_vine(rep, random_relabeling(rep.ground, rng))
            v1, v2, vp = split_with_shared(sp.VINE, v)
            for half, top in zip((v1, v2), covered_by(v, v.ground)):
                assert half == vn.RegularVine(top, frozenset(s for s in v.nodes if s <= top))
            assert vp == vn.RegularVine(v1.ground & v2.ground, v1.nodes & v2.nodes)


def test_merge_recovers_split(intro_vine, fig_vine):
    for v in (intro_vine, fig_vine):
        v1, v2, _ = split_with_shared(sp.VINE, v)
        assert sp.VINE.merge(sp.SplitPair(v1, v2)) == v
        assert sp.VINE.merge(sp.SplitPair(v2, v1)) == v


def test_merge_requires_coatoms(intro_vine):
    v1, _, vp = split_with_shared(sp.VINE, intro_vine)
    with pytest.raises(StructureError) as exc:
        sp.VINE.merge(sp.SplitPair(v1, vp))
    assert exc.value.axiom == "vine.coatoms"


def test_merge_incompatible_is_none():
    v1 = vn.vine("abc", ["a", "b", "c", "ab", "bc", "abc"])
    v2 = vn.vine("abd", ["a", "b", "d", "ad", "bd", "abd"])
    # v2 splits off {a, d} and {b, d}, so it has no half on the shared {a, b}
    assert sp.VINE.merge(sp.SplitPair(v1, v2)) is None


def test_split_requires_two_elements():
    with pytest.raises(StructureError) as exc:
        sp.VINE.split(vn.vine("a", ["a"]))
    assert exc.value.axiom == "vine.split"


# -------------------------------------------------------- shape predicates

def test_shape_predicates(intro_vine, fig_vine):
    assert vn.is_c_vine(intro_vine)       # star levels
    assert not vn.is_d_vine(intro_vine)   # degree 3 at b
    assert not vn.is_d_vine(fig_vine)
    path = vn.vine("abcd", ["a", "b", "c", "d", "ab", "bc", "cd", "abc", "bcd", "abcd"])
    assert vn.is_d_vine(path)
    assert not vn.is_c_vine(path)
    tiny = vn.vine("abc", ["a", "b", "c", "ab", "bc", "abc"])
    assert vn.is_d_vine(tiny) and vn.is_c_vine(tiny)


def test_domain_facts_read_off_the_vine(vines_by_n, seed):
    """The bottoms are the labels missing from the co-atoms, and the Black
    axis is a D-vine's level-1 path from its smaller endpoint: both equal the
    domain-side definitions on every labeled vine n <= 5, and on seeded
    vines and D-vines n = 6..10."""
    rng = random.Random(seed)
    cases = [v for n in range(6) for v in vines_by_n[n]]
    for n in range(6, 11):
        labels = string.ascii_lowercase[:n]
        cases += [gen.random_vine(labels, rng) for _ in range(8)] + [d_vine("".join(rng.sample(labels, n)))]
    domains = [co._vine_to_domain(v) for v in cases]
    assert [vn._bottom_alternatives(v) for v in cases] == [sorted(dm.bottom_alternatives(d)) for d in domains]
    axes = [vn._bspd_axis(v, vn._is_d_vine(v)) for v in cases]
    assert axes == [dm.is_bspd(d) for d in domains]
    assert [axis is not None for axis in axes] == [vn._is_d_vine(v) for v in cases]
    assert None in axes and sum(axis is not None for v, axis in zip(cases, axes) if v.n >= 6) >= 5


def test_domain_facts_of_the_smallest_vines():
    cases = [vn.vine("", []), vn.vine("x", ["x"]), vn.vine("yx", ["x", "y", "xy"])]
    assert [vn._bottom_alternatives(v) for v in cases] == [[], ["x"], ["x", "y"]]
    assert [vn._bspd_axis(v, vn._is_d_vine(v)) for v in cases] == [(), ("x",), ("x", "y")]
    for v in cases:
        d = co._vine_to_domain(v)
        assert (vn._bottom_alternatives(v), vn._bspd_axis(v, vn._is_d_vine(v))) == (sorted(dm.bottom_alternatives(d)), dm.is_bspd(d))


# ------------------------------------------------------------- index view

def test_cached_view_leaves_equality_hash_and_repr_alone(fig_vine):
    fresh = vn.RegularVine(fig_vine.ground, fig_vine.nodes)
    before = (hash(fig_vine), fig_vine == fresh, repr(fig_vine))
    view = fig_vine._view
    assert fig_vine._view is view and view.nodes == fig_vine.sorted_nodes()
    assert (hash(fig_vine), fig_vine == fresh, repr(fig_vine)) == before
    assert before == (hash(fresh), True, repr(fresh))
    assert "_view" not in fresh.__dict__


# --------------------------------------------------------- chains, joins

def test_maximal_chains_intro(intro_vine):
    chains = vn.maximal_chains(intro_vine)
    assert len(chains) == 2 ** (4 - 1)
    assert chains[0] == (frozenset("a"), frozenset("ab"), frozenset("abc"), frozenset("abcd"))
    for chain in chains:
        assert [len(s) for s in chain] == [1, 2, 3, 4]
        for lo, hi in zip(chain, chain[1:]):
            assert lo < hi


def test_chain_counts_intro(intro_vine):
    assert vn.chain_counts_from_atoms(intro_vine) == {"a": 1, "b": 4, "c": 2, "d": 1}


def test_chain_counts_sum_to_chain_total(fig_vine):
    counts = vn.chain_counts_from_atoms(fig_vine)
    assert sum(counts.values()) == len(vn.maximal_chains(fig_vine)) == 16


def test_join_node(intro_vine, fig_vine):
    assert vn.join_node(intro_vine, "a", "d") == frozenset("abcd")
    assert vn.join_node(intro_vine, "a", "c") == frozenset("abc")
    assert vn.join_node(fig_vine, "a", "d") == frozenset("abcd")
    with pytest.raises(StructureError):
        vn.join_node(intro_vine, "a", "a")
    with pytest.raises(StructureError):
        vn.join_node(intro_vine, "a", "x")


def test_richness(intro_vine, fig_vine):
    assert vn.richness_via_vine(intro_vine) == 2
    assert vn.richness_via_vine(fig_vine) == 3
    assert vn.richness_via_vine(vn.vine("ab", ["a", "b", "ab"])) == 2
    assert vn.richness_via_vine(vn.vine("a", ["a"])) == 1


# --------------------------------------------------------------- relabeling

def test_relabel_round_trip(fig_vine):
    h = dict(zip("abcde", "vwxyz"))
    back = {v: k for k, v in h.items()}
    out = vn.relabel_vine(fig_vine, h)
    assert out.ground == frozenset("vwxyz")
    assert vn.validate_vine(out) == []
    assert vn.relabel_vine(out, back) == fig_vine
