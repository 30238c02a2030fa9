"""Enumeration, counting formulas, canonical forms and classification."""

import hashlib
import itertools
import json
import math
import random
import string
from collections import Counter

import pytest

from vinery import generate as gen
from vinery import vine as vn
from vinery.errors import InternalInconsistencyError, StructureError

from conftest import c_vine, d_vine, sample_vines
from oracles import (ahu_by_recursion, automorphism_group_order_bruteforce, canonical_form_bruteforce,
                     canonical_keys_by_all_chains, completions_by_spanning_trees, decode_prufer_by_scan,
                     doubled_classes_by_all_chains, encode_by_recursion, form_by_digits, generate_vines_by_scan,
                     line_graph, next_trees_by_spanning_trees, rooted_trees_from_scratch, spanning_trees,
                     tree_orbits_by_permutations, unlabeled_trees, vine_mask_stream_by_recursion)

LABELED = {1: 1, 2: 1, 3: 3, 4: 24, 5: 480, 6: 23040, 7: 2580480, 8: 660602880}
UNLABELED = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 40, 7: 560, 8: 17024}


# ------------------------------------------------------------- tree tools

def test_prufer_tree_counts():
    assert len(list(gen.prufer_trees(1))) == 1
    assert len(list(gen.prufer_trees(2))) == 1
    assert len(list(gen.prufer_trees(4))) == 16      # n^(n-2)
    assert len(set(gen.prufer_trees(5))) == 125


def test_prufer_decoder_matches_the_scan_on_every_sequence():
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            assert gen._decode_prufer(n, seq) == decode_prufer_by_scan(n, seq)


def test_spanning_trees():
    """The backtracker behind `next_trees_by_spanning_trees`."""
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert sorted(spanning_trees(3, triangle)) == [(0, 1), (0, 2), (1, 2)]
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert len(list(spanning_trees(4, k4))) == 16
    assert list(spanning_trees(1, [])) == [()]


def test_next_trees_are_the_line_graph_spanning_trees():
    """The line graph of a tree is one clique K_d per vertex of degree d, so
    it has prod d^(d-2) spanning trees (Cayley per clique); `_next_trees`
    lists each once, in the lexicographic order of their `spanning_trees`
    index tuples, which `random_vine`'s draws depend on: the backtracker's
    own list, on every labeled tree with up to 6 vertices."""
    for nv in range(2, 7):
        for edges in gen.prufer_trees(nv):
            degrees = Counter(x for e in edges for x in e).values()
            index = {e: k for k, e in enumerate(line_graph(edges))}
            trees = gen._next_trees(edges)
            found = [tuple(index[e] for e in tree) for tree in trees]
            assert len(found) == math.prod(d ** (d - 2) for d in degrees if d > 1)
            assert all(a < b for a, b in zip(found, found[1:]))
            assert trees == next_trees_by_spanning_trees(edges)


def test_tree_shape_distinguishes_path_and_star():
    path = gen.tree_shape(4, [(0, 1), (1, 2), (2, 3)])
    star = gen.tree_shape(4, [(0, 1), (0, 2), (0, 3)])
    assert path != star
    relabeled_path = gen.tree_shape(4, [(2, 0), (0, 3), (3, 1)])
    assert relabeled_path == path


@pytest.mark.parametrize("nv, edges", [
    (4, [(0, 1), (1, 2), (0, 2)]),
    (3, [(0, 1), (0, 1)]),
    (2, [(0, 5)]),
    (3, [(0, 1)]),
    (2, [(0, -1)]),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
], ids=["triangle", "multigraph", "endpoint_past_nv", "too_few_edges", "negative_endpoint", "too_many_edges"])
def test_tree_shape_refuses_a_non_tree(nv, edges):
    """A cycle would stall the center peeling, and an endpoint out of range
    would raise IndexError or index from the end of the adjacency list."""
    with pytest.raises(StructureError) as exc:
        gen.tree_shape(nv, edges)
    assert exc.value.axiom == "enumerate.tree"
    assert exc.value.witness == tuple(edges)


# ------------------------------------------------------------ enumeration

def test_labeled_counts_small(vines_by_n):
    for n in range(1, 6):
        assert len(vines_by_n[n]) == LABELED[n]


def test_generation_yields_valid_distinct_vines(vines_by_n):
    for n in range(6):
        seen = set(v.nodes for v in vines_by_n[n])
        assert len(seen) == len(vines_by_n[n])
    for v in vines_by_n[4]:
        assert vn.validate_vine(v) == []


def test_generation_is_deterministic():
    first = [v.nodes for v in gen.generate_vines("abcd")]
    second = [v.nodes for v in gen.generate_vines("abcd")]
    assert first == second


def test_mask_stream_matches_unmemoized_recursion(vines_by_n):
    for n in range(6):
        assert list(gen._vine_mask_stream(n)) == list(vine_mask_stream_by_recursion(n))
        assert vines_by_n[n] == list(generate_vines_by_scan(string.ascii_lowercase[:n]))


def test_generators_advanced_in_lockstep_agree():
    """Each stream keeps its own program memo."""
    pairs = list(zip(gen.generate_vines("abcde"), gen.generate_vines("abcde")))
    assert len(pairs) == LABELED[5]
    assert all(a == b for a, b in pairs)


def test_mask_stream_yields_distinct_lists():
    streamed = list(gen._vine_mask_stream(5))
    assert len({id(masks) for masks in streamed}) == len(streamed) == LABELED[5]


def test_mask_stream_enumerates_each_line_graph_once(monkeypatch):
    """Everything below a tree depends only on its line graph, whose cliques
    key the memo, so one stream runs `_next_trees` once per distinct line
    graph: 87 at n = 6, under 1,296 level-1 trees."""
    next_trees, calls = gen._next_trees, Counter()
    monkeypatch.setattr(gen, "_next_trees",
                        lambda edges: calls.update([(len(edges), tuple(line_graph(edges)))]) or next_trees(edges))
    assert sum(1 for _ in gen._vine_mask_stream(6)) == LABELED[6]
    assert set(calls.values()) == {1}
    assert len(calls) == 87


def test_repeated_labels_count_once(seed):
    assert list(gen.generate_vines("aabb")) == list(gen.generate_vines("ab"))
    assert list(gen.generate_vines("dcbabd")) == list(gen.generate_vines("abcd"))
    assert gen.random_vine("aabc", random.Random(seed)) == gen.random_vine("abc", random.Random(seed))


def test_generation_cap():
    with pytest.raises(StructureError) as exc:
        next(gen.generate_vines(string.ascii_lowercase[:8]))
    assert exc.value.axiom == "enumerate.cap"


def test_count_vines_matches_enumeration(vines_by_n):
    for n in range(1, 6):
        assert gen.count_vines(n) == len(vines_by_n[n])
    assert gen.count_vines(7) == LABELED[7]
    assert gen.count_vines(8) == LABELED[8]


SHAPES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}  # unlabeled trees


def test_unlabeled_trees_counts_and_weights():
    for n, want in SHAPES.items():
        trees = unlabeled_trees(n)
        assert len(trees) == want
        assert len({gen.tree_shape(n, edges) for edges, _ in trees}) == want
        assert sum(math.factorial(n) // aut for _, aut in trees) == max(1, n ** (n - 2))


def test_shape_weight_is_its_pruefer_tree_count():
    for n in range(1, 7):
        by_shape = Counter(gen.tree_shape(n, t) for t in gen.prufer_trees(n))
        weights = {gen.tree_shape(n, edges): math.factorial(n) // aut for edges, aut in unlabeled_trees(n)}
        assert weights == dict(by_shape)


def test_tree_automorphisms_of_named_trees():
    def aut(n, edges):
        (found,) = [a for e, a in unlabeled_trees(n) if gen.tree_shape(n, e) == gen.tree_shape(n, edges)]
        return found
    assert aut(5, [(0, i) for i in range(1, 5)]) == 24                  # star: S_4 on the leaves
    assert aut(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]) == 2        # path, bicentral
    assert aut(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]) == 6        # bicentral, unequal halves
    assert aut(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]) == 8        # bicentral, swappable halves
    assert aut(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]) == 8  # two equal cherries


ROOTED_SHAPES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286}


def test_rooted_trees_counts_and_weights():
    for d, want in ROOTED_SHAPES.items():
        trees = gen.rooted_trees(d)
        assert len(trees) == want
        assert len({gen._code(gen._branches(gen._adjacency(d, edges), 0, -1)) for edges, _ in trees}) == want
        assert sum(math.factorial(d - 1) // aut for _, aut in trees) == max(1, d ** (d - 2))


def test_rooted_shape_weight_is_its_pruefer_tree_count():
    """(d - 1)!/|Aut_root| is the number of labeled trees on 0..d-1 that,
    rooted at 0, have that rooted shape."""
    def code(d, edges):
        return gen._code(gen._branches(gen._adjacency(d, edges), 0, -1))
    for d in range(1, 7):
        by_code = Counter(code(d, t) for t in gen.prufer_trees(d))
        weights = {code(d, edges): math.factorial(d - 1) // aut for edges, aut in gen.rooted_trees(d)}
        assert weights == dict(by_code)


def test_encoders_match_the_recursive_oracles():
    """On every labeled tree with up to 7 vertices and every 31st with 8,
    `tree_shape` and the memo key of `_completions` equal the recursive
    encoder's codes; the walk of `_branches` does, rooted at 0, and up to 6
    vertices also from either end of every edge away from the other, which
    gives a bicentral tree's halves.  (All 262,144 trees
    with 8 vertices take about 30 s.)"""
    for n in range(1, 9):
        for t in itertools.islice(gen.prufer_trees(n), 0, None, 31 if n == 8 else 1):
            codes, _ = ahu_by_recursion(n, t)
            assert gen._shape(n, t) == gen.tree_shape(n, t) == codes
            adj = gen._adjacency(n, t)
            assert gen._code(gen._branches(adj, 0, -1)) == encode_by_recursion(adj, 0, -1)[0]
            if n <= 6:
                for u, v in t:
                    assert gen._code(gen._branches(adj, u, v)) == encode_by_recursion(adj, u, v)[0]
                    assert gen._code(gen._branches(adj, v, u)) == encode_by_recursion(adj, v, u)[0]


def test_rooted_trees_grow_like_from_scratch():
    for d in range(1, 10):
        assert gen.rooted_trees(d) == rooted_trees_from_scratch(d)


def test_clique_choices_are_the_leaf_edge_orbits():
    """One tree per orbit under the permutations of vertices k..d-1 (1..d-1
    for k = 0), weighted by the orbit's size, for every d <= 6 and k."""
    for d in range(1, 7):
        for k in range(d + 1):
            orbits = tree_orbits_by_permutations(d, max(k, 1))
            orbit_of = {tree: i for i, orbit in enumerate(orbits) for tree in orbit}
            choices = gen._clique_choices(d, k)
            found = {orbit_of[frozenset(frozenset(e) for e in tree)]: weight for tree, weight in choices}
            assert len(choices) == len(orbits)
            assert found == {i: len(orbit) for i, orbit in enumerate(orbits)}
            assert sum(weight for _, weight in choices) == max(1, d ** (d - 2))


def test_completions_match_spanning_tree_dp():
    """Every tree on up to 8 vertices, pendant cliques or not: the
    clique-weighted DP equals the one over all line-graph spanning trees."""
    memo: dict = {}
    oracle_memo: dict = {}
    non_pendant = 0
    for nv in range(1, 9):
        for edges, _ in unlabeled_trees(nv):
            adj = gen._adjacency(nv, edges)
            non_pendant += any(sum(len(adj[w]) > 1 for w in a) > 1 for a in adj)
            assert gen._completions(nv, edges, memo) == completions_by_spanning_trees(nv, edges, oracle_memo)
    assert non_pendant > 0


def test_count_vines_nine_matches_formula():
    assert gen.count_vines(9) == gen.labeled_count_formula(9)


def test_count_vines_ten_matches_formula():
    assert gen.count_vines(10) == gen.labeled_count_formula(10)


def test_count_vines_eleven_matches_formula():
    """One past the generate-mode cap, in under a second."""
    assert gen.count_vines(11) == gen.labeled_count_formula(11)


def test_clique_tables_scan_no_pruefer_tree(monkeypatch):
    """Every table is counted from the one below it, never from a list of
    labeled trees: with the caches cleared and `prufer_trees` refusing,
    each table for d <= 7, and each for d = 8, 9 that `count_vines(11)`
    can reach (a vertex of degree d with k non-leaf neighbours needs
    d + k + 1 <= 11 vertices), has weights summing to Cayley's d^(d-2)
    and one tagged code per tree.  (d = 9, k >= 8 would list all 9^7
    labeled trees.)"""
    def refuse(n):
        raise AssertionError("a clique table scanned the Prüfer trees")
    gen._rooted_table.cache_clear()
    gen._clique_choices.cache_clear()
    monkeypatch.setattr(gen, "prufer_trees", refuse)
    for d in range(1, 10):
        for k in range(d + 1 if d <= 7 else 11 - d):
            choices = gen._clique_choices(d, k)
            assert sum(weight for _, weight in choices) == max(1, d ** (d - 2))
            codes = set()
            for tree, _ in choices:
                tags = [[str(v)] for v in range(max(k, 1))] + [[] for _ in range(max(k, 1), d)]
                codes.add(gen._code(gen._branches(gen._adjacency(d, tree), 0, -1, tags)))
            assert len(codes) == len(choices)


def test_orbit_weighting_cuts_the_dp_calls(monkeypatch):
    """Weighing only pendant cliques by shape, the DP made 605 `_completions`
    calls at n = 8, 604 of them recursive; weighing every clique by the
    orbits of its leaf edges makes fewer."""
    calls = []
    completions = gen._completions
    monkeypatch.setattr(gen, "_completions", lambda *args: calls.append(args[0]) or completions(*args))
    assert gen.count_vines(8) == LABELED[8]
    assert len(calls) < 604


def test_shape_weighted_sum_matches_pruefer_loop():
    """The Prüfer-loop sum over all n^(n-2) labeled level-1 trees is the
    oracle for the shape-weighted count."""
    for n in range(2, 8):
        memo: dict = {}
        oracle = sum(gen._completions(n, t, memo) for t in gen.prufer_trees(n))
        assert gen.count_vines(n) == oracle


def test_random_vine_is_valid(seed):
    rng = random.Random(seed)
    for n in (1, 2, 4, 6, 7):
        for _ in range(5):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            assert vn.validate_vine(v) == []


# SHA-256 of the sorted node lists drawn below, recorded before the vine
# stream shared `_next_trees`; the sampled tests and the benchmark corpora
# are built from these draws.
RANDOM_VINE_DIGEST = "dfb3ad609d3ba49ee5c9dcfc5c72a251f99ee9ca1ce6d095df6a85f8b2a0217e"
# SHA-256 of `json.dumps` of every n = 6 mask list in stream order, recorded
# before the stream memoized completion programs by line graph; the oracle
# recursion of `test_mask_stream_matches_unmemoized_recursion` stops at n = 5.
MASK_STREAM_6_DIGEST = "c97fba951d22d076b3ce4eced5d7c16f044890350e34f9d7b5ad7572c51059b7"
# SHA-256 of the draws of `test_random_vine_large_draws_are_pinned`, recorded
# while `_next_trees` still ran a backtracker over the line graph's edges.
RANDOM_VINE_LARGE_DIGEST = "a500ea6e47b93d5bee12ee81c534fb084f9dfc33e17c92102c60f3df158033ab"


def test_random_vine_draws_are_pinned():
    draws = []
    for seed in range(30):
        rng = random.Random(seed)
        for n in range(2, 10):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            draws.append([sorted(s) for s in v.sorted_nodes()])
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == RANDOM_VINE_DIGEST


def test_random_vine_large_draws_are_pinned():
    """Draws on 12 to 20 labels, where the level-1 trees have large cliques."""
    draws = []
    for seed in range(10):
        rng = random.Random(seed)
        for n in (12, 15, 18, 20):
            v = gen.random_vine(string.ascii_lowercase[:n], rng)
            draws.append([sorted(s) for s in v.sorted_nodes()])
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == RANDOM_VINE_LARGE_DIGEST


def test_mask_stream_six_is_pinned():
    streamed = json.dumps(list(gen._vine_mask_stream(6)))
    assert hashlib.sha256(streamed.encode()).hexdigest() == MASK_STREAM_6_DIGEST


# --------------------------------------------------------------- formulas

def test_labeled_count_formula():
    for n, want in LABELED.items():
        assert gen.labeled_count_formula(n) == want


def test_unlabeled_count_formula():
    for n, want in UNLABELED.items():
        assert gen.unlabeled_count_formula(n) == want
    assert gen.unlabeled_count_formula(12) == 17626824704000


def test_recursion_matches_formula():
    for n in range(1, 13):
        p, q = gen.recursive_pq_counts(n)
        assert p + q == gen.unlabeled_count_formula(n)
    assert gen.recursive_pq_counts(5) == (4, 2)
    assert gen.recursive_pq_counts(6) == (16, 24)


# --------------------------------------------------------- canonical forms

@pytest.mark.parametrize("call", [
    lambda: gen.class_representatives(-1),
    lambda: gen.catalog_entries(-1),
    lambda: gen.count_vines(-1),
    lambda: gen.labeled_count_formula(-3),
    lambda: gen.unlabeled_count_formula(-3),
    lambda: gen.recursive_pq_counts(-1),
    lambda: list(gen.prufer_trees(0)),
    lambda: gen.tree_shape(0, []),
    lambda: gen.rooted_trees(0),
    lambda: list(gen._vine_mask_stream(-1)),
], ids=["class_representatives", "catalog_entries", "count_vines", "labeled_count_formula",
        "unlabeled_count_formula", "recursive_pq_counts", "prufer_trees", "tree_shape", "rooted_trees",
        "vine_mask_stream"])
def test_enumeration_entries_refuse_sizes_out_of_range(call):
    with pytest.raises(StructureError) as exc:
        call()
    assert exc.value.axiom == "enumerate.range"


def test_the_empty_vine_is_one_class_at_n0():
    """n = 0 agrees across every route: one labeled vine, one class, |Aut| = 1."""
    assert gen.count_vines(0) == gen.labeled_count_formula(0) == gen.unlabeled_count_formula(0) == 1
    assert gen.recursive_pq_counts(0) == (0, 1)
    assert gen.class_representatives(0) == list(gen.generate_vines("")) == [vn.vine("", [])]
    (entry,) = gen.catalog_entries(0)
    assert (entry["n"], entry["aut_order"], entry["orbit_size"]) == (0, 1, 1)


def test_canonical_form_tiny():
    assert gen.canonical_form(vn.vine("", [])) == ()
    assert gen.canonical_form(vn.vine("a", ["a"])) == (((0,),))
    assert gen.canonical_form(vn.vine("z", ["z"])) == (((0,),))


def test_canonical_form_matches_bruteforce_exhaustive(vines_by_n):
    for n in range(1, 5):
        for v in vines_by_n[n]:
            assert gen.canonical_form(v) == canonical_form_bruteforce(v)


def test_canonical_form_matches_bruteforce_n5(vines_by_n):
    for v in vines_by_n[5]:
        assert gen.canonical_form(v) == canonical_form_bruteforce(v)


def test_canonical_form_is_relabeling_invariant(fig_vine, seed):
    rng = random.Random(seed)
    form = gen.canonical_form(fig_vine)
    src = sorted(fig_vine.ground)
    for _ in range(20):
        dst = rng.sample("nopqrstuvwxyz", 5)
        out = vn.relabel_vine(fig_vine, dict(zip(src, dst)))
        assert gen.canonical_form(out) == form


def test_vine_from_form_round_trip(intro_vine, fig_vine):
    for v in (intro_vine, fig_vine):
        form = gen.canonical_form(v)
        rebuilt = gen.vine_from_form(form)
        assert vn.validate_vine(rebuilt) == []
        assert gen.canonical_form(rebuilt) == form


# ----------------------------------------------------------- classification

def test_classify_n4(vines_by_n):
    classes = gen.classify(vines_by_n[4])
    assert len(classes) == 2
    assert sorted(c.orbit_size for c in classes) == [12, 12]
    assert all(c.aut_order == 2 for c in classes)
    shapes = {(vn.is_d_vine(c.representative), vn.is_c_vine(c.representative))
              for c in classes}
    assert shapes == {(True, False), (False, True)}


def test_classify_rejects_mixed_sizes(vines_by_n):
    with pytest.raises(StructureError):
        gen.classify(vines_by_n[3] + vines_by_n[4])


def test_canonical_forms_and_classify_refuse_an_invalid_vine(vines_by_n):
    """Each raises the first violation of the vine's report, axiom and
    message, for a vine with no rank-2 nodes, one whose node abd covers
    only ab, and one whose nodes form a vine on labels other than its
    ground set's."""
    bad = {"vine.grading": vn.vine("abc", ["a", "b", "c", "abc"]),
           "vine.two-covers": vn.vine("abcd", ["a", "b", "c", "d", "ab", "bc", "cd", "abc", "abd", "abcd"]),
           "vine.atoms": vn.RegularVine(frozenset("ab"), frozenset(map(frozenset, ["a", "c", "ac"])))}
    for axiom, v in bad.items():
        assert [x.axiom for x in vn.validate_vine(v)][:1] == [axiom]
        for f in (gen.canonical_form, gen.canonical_form_and_aut, lambda x: gen.classify(vines_by_n[x.n] + [x])):
            with pytest.raises(StructureError) as exc:
                f(v)
            assert exc.value.axiom == axiom, f
            assert str(exc.value) == f"{axiom}: {vn.validate_vine(v)[0].message}", f


def test_class_representatives_small():
    assert len(gen.class_representatives(5)) == 6


def test_chain_hit_aut_matches_explicit_scan(vines_by_n):
    for n in range(1, 6):
        for v in vines_by_n[n]:
            _, hits = gen.canonical_form_and_aut(v)
            assert hits == automorphism_group_order_bruteforce(v)


def test_kernel_matches_oracles_sampled(seed):
    rng = random.Random(seed)
    for n, k in ((6, 6), (7, 2)):
        labels = string.ascii_lowercase[:n]
        path = "".join(rng.sample(labels, n))  # |Aut| = 2: the path's reversal
        for v in [d_vine(path)] + sample_vines(n, k, rng):
            form, aut = gen.canonical_form_and_aut(v)
            assert form == gen.canonical_form(v) == canonical_form_bruteforce(v)
            assert aut == automorphism_group_order_bruteforce(v)


def test_pruned_kernel_matches_the_chain_scan_on_every_small_vine(vines_by_n):
    """The descent's keys and hits equal those of the walk over every
    maximal chain on every labeled vine with 2 <= n <= 5."""
    for n in range(2, 6):
        for v in vines_by_n[n]:
            view = v._view
            assert gen._scan(n, view.masks, view.covers)[:2] == \
                canonical_keys_by_all_chains(n, view.masks, view.covers)[:2]


def test_pruned_kernel_matches_the_chain_scan_on_doublings_and_classes(reps7):
    """The same on every doubling of an n = 5 class representative along a
    chain, on the 560 n = 7 class representatives, and on the D-vine and the
    C-vine at n = 12, whose 2,048 chains the descent mostly skips."""
    cases = []
    for rep in gen._class_table(5)[0]:
        nodes, covers = gen._representative(5, rep)
        cases += [(6, *gen._sorted_covers(gen._doubled_masks(5, nodes, chain))) for chain in vn._chains(nodes, covers)]
    assert len(cases) == 6 * 16
    order = string.ascii_lowercase[:12]
    cases += [(v.n, v._view.masks, v._view.covers) for v in reps7 + [d_vine(order), c_vine(order)]]
    for n, nodes, covers in cases:
        assert gen._scan(n, nodes, covers)[:2] == canonical_keys_by_all_chains(n, nodes, covers)[:2]


def test_scan_positions_relabel_onto_the_canonical_form(vines_by_n):
    """The positions `_scan` reads off the chain the descent found relabel
    every vine with 2 <= n <= 5 onto its canonically labeled
    representative."""
    for n in range(2, 6):
        for v in vines_by_n[n]:
            view = v._view
            _, _, positions = gen._scan(n, view.masks, view.covers)
            relabeling = {x: string.ascii_lowercase[p] for (x,), p in zip(view.nodes[:n], positions)}
            assert vn.relabel_vine(v, relabeling) == gen.vine_from_form(gen.canonical_form(v))


def test_scan_answers_zero_and_one_labels():
    """The kernel answers n <= 1 itself: no keys, one chain, the atoms in
    place; and the canonical form of the 0- and 1-label vines is theirs."""
    for n in (0, 1):
        nodes, covers = gen._sorted_covers(1 << i for i in range(n))
        assert gen._scan(n, nodes, covers) == ((), 1, list(range(n)))
        form = tuple((p,) for p in range(n))
        assert gen.canonical_form_and_aut(gen.vine_from_form(form)) == (form, 1)


def test_mask_doubling_matches_lattice_doubling():
    from vinery import lattice as lt
    labels = "abcde"

    def mask(s):
        return sum(1 << labels.index(x) for x in s)

    for rep in gen.class_representatives(5):
        L = lt.vine_to_lattice(rep)
        masks = list(map(mask, rep.nodes))
        for chain in lt.maximal_chains_of_lattice(L):
            keys, _, _ = gen._scan(6, *gen._sorted_covers(gen._doubled_masks(5, masks, list(map(mask, chain[1:])))))
            assert gen._form(6, keys) == gen.canonical_form(lt.lattice_to_vine(lt.doubling(L, chain)))


def test_doubled_covers_match_the_rescan_on_every_doubling():
    """The masks and covers `_doubled_covers` reads off a representative's
    equal those of the rescan, `_sorted_covers` of the doubled masks, on
    all 1,399 doublings of a class representative along a chain for
    n <= 7."""
    count = 0
    for n in range(2, 8):
        for rep in gen._class_table(n - 1)[0]:
            nodes, covers = gen._representative(n - 1, rep)
            for chain in vn._chains(nodes, covers):
                assert gen._doubled_covers(n, nodes, covers, chain) == \
                    gen._sorted_covers(gen._doubled_masks(n - 1, nodes, chain))
                count += 1
    assert count == 1399


def test_doubled_covers_rescan_a_chain_that_is_not_saturated(monkeypatch):
    """A chain with an atom off its rank-2 node, one with a rank-3 node off
    its rank-2 node, and one missing its top are rescanned, and give the
    rescan's masks and covers; a saturated chain builds no cover table."""
    tables = []
    mask_covers = vn._mask_covers
    monkeypatch.setattr(vn, "_mask_covers", lambda masks: tables.append(len(masks)) or mask_covers(masks))
    rep = max(gen._class_table(5)[0])
    nodes, covers = gen._representative(5, rep)
    chain = vn._chains(nodes, covers)[0]
    tables.clear()
    gen._doubled_covers(6, nodes, covers, chain)
    assert tables == []
    perturbed = [_off_chain_atom(nodes, chain), _off_chain_rank3(nodes, chain), chain[:-1]]
    assert chain not in perturbed
    for bad in perturbed:
        expected = gen._sorted_covers(gen._doubled_masks(5, nodes, bad))
        tables.clear()
        assert gen._doubled_covers(6, nodes, covers, bad) == expected
        assert tables == [len(expected[0])]


def test_form_decodes_every_class_as_the_digit_scan():
    """The memoized positions of `_form` against the digit-by-digit decoder
    on the kernel keys of every class for n <= 7."""
    for n in range(8):
        auts = gen._augmented_classes(n) if n >= 4 else gen._class_table(n)[0]
        assert len(auts) == gen.unlabeled_count_formula(n)
        for keys in auts:
            assert gen._form(n, keys) == form_by_digits(n, keys)


def test_doubling_route_matches_enumeration(classification):
    """The production class table (doubling) against the oracle (full
    enumeration plus classification): same forms in the same order, same
    representatives, |Aut| and orbits."""
    for n in range(1, 7):
        enumerated = classification.by_n[n]
        assert list(gen._doubled_classes(n)) == enumerated
        assert gen.class_representatives(n) == [c.representative for c in enumerated]


def test_augmentation_matches_doubling_along_every_chain(reps7):
    """The canonical augmentation against the oracle that doubles every
    class along every chain: same classes for n <= 6, same representatives
    at n = 7."""
    for n in range(1, 7):
        assert list(gen._doubled_classes(n)) == doubled_classes_by_all_chains(n)
    assert [c.representative for c in doubled_classes_by_all_chains(7)] == reps7


@pytest.mark.parametrize("n", [5, 6, 7])
def test_augmentation_runs_the_kernel_once_per_class(monkeypatch, n):
    """The top level runs `_scan` once per class, 6, 40 and 560 times;
    the level below doubles every chain.  A cover table is built once per
    class representative on m < n labels and never for a doubling, whose
    covers are read off its representative's."""
    kernel, tables = Counter(), Counter()
    scan, mask_covers = gen._scan, vn._mask_covers
    monkeypatch.setattr(gen, "_scan", lambda m, *rest: kernel.update([m]) or scan(m, *rest))
    monkeypatch.setattr(vn, "_mask_covers", lambda masks: tables.update([len(masks)]) or mask_covers(masks))
    gen._doubled_classes(n)
    assert kernel[n] == gen.unlabeled_count_formula(n) == UNLABELED[n]
    assert kernel[n - 1] == gen.unlabeled_count_formula(n - 2) * 2 ** (n - 3)  # 2^(n-3) chains per class on n - 2 labels
    assert tables == Counter({m * (m + 1) // 2: gen.unlabeled_count_formula(m) for m in range(1, n)})


def test_augmentation_falls_back_to_building_a_chain_missing_from_the_table(monkeypatch):
    """With the table below emptied, every top-level chain is doubled,
    checked and deduplicated by canonical form: the same classes."""
    expected = list(gen._doubled_classes(6))
    class_table = gen._class_table
    monkeypatch.setattr(gen, "_class_table", lambda n: (class_table(n)[0], {}))
    assert list(gen._doubled_classes(6)) == expected


def test_class_table_takes_sigma_from_the_descent_not_the_kernel(monkeypatch):
    """The kernel runs once per doubling below the top, once per class and
    per co-atom half at the top, 759 times for n = 7, and never to pair an
    |Aut| = 2 representative's chains."""
    calls = []
    scan = gen._scan
    monkeypatch.setattr(gen, "_scan", lambda *a: calls.append(a[0]) or scan(*a))
    gen.class_representatives(7)
    assert len(calls) == 759
    auts = gen._class_table(6)[0]
    calls.clear()
    for keys, aut in auts.items():
        gen._one_chain_per_orbit(6, *gen._representative(6, keys), aut)
    assert calls == []
    assert Counter(auts.values()) == Counter({2: 16, 1: 24})


def test_class_table_cross_checks_aut_against_the_descent(monkeypatch):
    """With the descent finding no σ, the top level at n = 4 disagrees with
    the kernel's |Aut| = 2 on the one 3-class, and fails, naming n = 3."""
    from vinery import lattice as lt
    monkeypatch.setattr(lt, "_automorphism", lambda masks, covers: None)
    assert len(gen.class_representatives(3)) == 1  # the levels below the top double every chain
    with pytest.raises(InternalInconsistencyError,
                       match=r"^the kernel's \|Aut\|=2 and the co-atom descent disagree at n=3$"):
        gen.class_representatives(4)


def test_augmentation_repeat_check(monkeypatch):
    """Doubling an |Aut| = 2 representative along both chains of an orbit
    repeats a class whose parents differ, which fails, naming n."""
    monkeypatch.setattr(gen, "_one_chain_per_orbit", lambda n, nodes, covers, aut: vn._chains(nodes, covers))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^a doubling kept from its smaller parent repeated a class at n=6$"):
        gen.class_representatives(6)


def test_catalog_classes_match_enumeration(classification):
    for n in range(1, 7):
        entries = gen.catalog_entries(n)
        expected = [([sorted(s) for s in c.representative.sorted_nodes()], c.aut_order, c.orbit_size)
                    for c in classification.by_n[n]]
        assert [(e["vine_nodes"], e["aut_order"], e["orbit_size"]) for e in entries] == expected


def test_doubling_completeness_check(monkeypatch):
    """A doubling that misses a class fails the orbit sum Σ n!/|Aut| =
    labeled count, at the n where the class goes missing: at n = 2 with
    every last chain dropped, and at n = 6 with the chains dropped whose
    doubling builds the class of the first doubling the top level keeps."""
    chains = vn._chains
    monkeypatch.setattr(vn, "_chains", lambda family, covers: chains(family, covers)[:-1])
    with pytest.raises(InternalInconsistencyError, match=r"cover 0 of the 1 labeled vines at n=2"):
        gen.class_representatives(6)
    monkeypatch.setattr(vn, "_chains", chains)
    double, kept = gen._double, []
    monkeypatch.setattr(gen, "_double", lambda n, masks, covers, chain:
                        kept.append((n, masks, covers, chain)) or double(n, masks, covers, chain))
    gen.class_representatives(6)
    monkeypatch.setattr(gen, "_double", double)
    _, family, family_covers, chain = next(k for k in kept if k[0] == 6)
    lost = double(6, family, family_covers, chain)[0]
    monkeypatch.setattr(vn, "_chains", lambda f, covers: [c for c in chains(f, covers)
                                                         if f != family or double(6, f, covers, c)[0] != lost])
    with pytest.raises(InternalInconsistencyError, match=r"of the 23040 labeled vines at n=6"):
        gen.class_representatives(6)


def _off_chain_atom(family, chain):
    """The chain of masks with its atom swapped for one outside its rank-2
    node."""
    return (next(a for a in family if a & ~chain[1]),) + chain[1:]


def _off_chain_rank3(family, chain):
    """The chain of masks with its rank-3 node swapped for one of the
    family's not holding the chain's rank-2 node, if there is one."""
    return chain[:2] + (next((s for s in family if s.bit_count() == 3 and chain[1] & ~s), chain[2]),) + chain[3:]


@pytest.mark.parametrize("perturb", [_off_chain_atom, _off_chain_rank3], ids=["atom", "rank-3"])
def test_doubling_check_rejects_an_unsaturated_chain(monkeypatch, perturb):
    """Doubling the n = 5 classes along chains with two incomparable
    consecutive nodes fails the mask check of the doubled vine, naming the
    axiom and n: such a chain is missing from the table below, so the top
    level builds and checks its doubling."""
    chains = vn._chains
    monkeypatch.setattr(vn, "_chains", lambda family, covers: [perturb(family, c) for c in chains(family, covers)]
                        if family[-1].bit_count() == 5 else chains(family, covers))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^doubling produced an invalid vine at n=6: vine\.two-covers$"):
        gen.class_representatives(6)


def test_doubling_shares_one_cover_table_per_representative(monkeypatch):
    """One `_mask_covers` call per representative, read for its chains and
    for the covers of every doubling along them, which the axiom check and
    the kernel read: none per doubled vine, though the levels below the top
    build every chain's doubling, 23 of them, and the top one per class."""
    calls, doubled = [], Counter()
    mask_covers, double = vn._mask_covers, gen._double
    monkeypatch.setattr(vn, "_mask_covers", lambda masks: calls.append(masks) or mask_covers(masks))
    monkeypatch.setattr(gen, "_double", lambda n, *rest: doubled.update([n]) or double(n, *rest))
    gen._doubled_classes(6)
    reps = [gen.unlabeled_count_formula(m) for m in range(1, 6)]  # 1, 1, 1, 2, 6
    below = sum(r * 2 ** (m - 1) for m, r in enumerate(reps[:4], 1))  # 2^(m-1) chains per class on m labels
    assert below == sum(doubled[m] for m in range(2, 6)) == 23
    assert doubled[6] == gen.unlabeled_count_formula(6)
    assert len(calls) == sum(reps) == 11


def test_doubling_class_count_check(monkeypatch):
    """A class count other than the unlabeled count formula's fails, naming n."""
    formula = gen.unlabeled_count_formula
    monkeypatch.setattr(gen, "unlabeled_count_formula", lambda n: formula(n) + (n == 5))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^6 doubled classes with \|Aut\| tally \{1: 2, 2: 4\} at n=5, "
                             r"the closed forms give 7 classes, p=4 with \|Aut\|=2 and q=2 with \|Aut\|=1$"):
        gen.class_representatives(6)


def test_doubling_aut_tally_check(monkeypatch):
    """An |Aut| tally other than the recursion's (p_n, q_n) fails, naming n."""
    recursion = gen.recursive_pq_counts
    monkeypatch.setattr(gen, "recursive_pq_counts",
                        lambda n: recursion(n)[::-1] if n == 5 else recursion(n))
    with pytest.raises(InternalInconsistencyError,
                       match=r"^6 doubled classes with \|Aut\| tally \{1: 2, 2: 4\} at n=5, "
                             r"the closed forms give 6 classes, p=2 with \|Aut\|=2 and q=4 with \|Aut\|=1$"):
        gen.class_representatives(5)


def test_canonical_form_large_n_allocates_no_power_table(seed):
    """The kernel descends the chains one at a time and keeps one prefix of
    keys per level: at n = 14 its peak allocation stays below one pointer
    per subset of the ground set."""
    import tracemalloc
    n = 14
    v = gen.random_vine(string.ascii_lowercase[:n], random.Random(seed))
    tracemalloc.start()
    try:
        gen.canonical_form(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** n


# ---------------------------------------------------------------- catalog

def test_catalog_entries_render_each_class_as_it_is_drawn(monkeypatch):
    """No representative is built before the first entry is drawn, and
    one is built per entry drawn."""
    built = []
    from_form = gen.vine_from_form
    monkeypatch.setattr(gen, "vine_from_form", lambda form: built.append(form) or from_form(form))
    entries = gen.catalog_entries(5)
    assert built == []
    assert next(entries)["index"] == 0
    assert len(built) == 1
    assert [e["index"] for e in entries] == [1, 2, 3, 4, 5]
    assert len(built) == 6


def test_catalog_entries_n3():
    (entry,) = gen.catalog_entries(3)
    assert entry["index"] == 0
    assert entry["n"] == 3
    assert entry["richness"] == 2
    assert entry["lattice_size"] == 7
    assert entry["is_d_vine"] and entry["is_c_vine"]
    assert entry["orbit_size"] * entry["aut_order"] == 6
    assert len(entry["preferences"]) == 4
    assert len(entry["matrix_columns"]) == 7


def test_catalog_entries_n4_count_and_order():
    entries = list(gen.catalog_entries(4))
    assert [e["index"] for e in entries] == [0, 1]
    assert all(len(e["preferences"]) == 8 for e in entries)
