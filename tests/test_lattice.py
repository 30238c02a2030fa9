"""Extremal lattices, triangle-free matrices, doubling and automorphisms."""

import random
import string
import time
from collections import Counter
from itertools import combinations

import pytest

from vinery import generate as gen
from vinery import lattice as lt
from vinery import routes
from vinery import species as sp
from vinery import vine as vn
from vinery.errors import StructureError, Violation

from conftest import c_vine, d_vine, random_relabeling, split_with_shared
from oracles import (automorphism_group_order_bruteforce, b3_witness_by_matrix, covered_elements,
                     direct_b3_search_by_joins, extremal_size_families, is_lattice_pairwise,
                     join_irreducibles_by_covers, triangle_by_row_triples, undouble_by_vine_split)


def boolean_cube():
    return lt.lattice(["", "a", "b", "c", "ab", "ac", "bc", "abc"])


# ------------------------------------------------------ join, meet, order

def test_join_meet(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    assert lt.join(L, frozenset("a"), frozenset("d")) == frozenset("abcd")
    assert lt.join(L, frozenset("a"), frozenset("c")) == frozenset("abc")
    assert lt.meet(L, frozenset("abc"), frozenset("bcd")) == frozenset("bc")
    assert lt.meet(L, frozenset("a"), frozenset("b")) == frozenset()
    assert lt.is_lattice(L)


def test_non_lattice_family():
    # two co-atoms with two common lower bounds and no top
    L = lt.lattice(["", "a", "b", "ab", "abx", "aby"])
    assert lt.join(L, frozenset("abx"), frozenset("aby")) is None
    assert not lt.is_lattice(L)


def test_cached_ground_leaves_equality_and_hash_alone(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    M = lt.lattice_to_matrix(L)
    fresh_L, fresh_M = lt.BoundedLattice(L.elements), lt.BinaryMatrix(M.rows, M.columns)
    before = (hash(L), hash(M), L == fresh_L, M == fresh_M, repr(L), repr(M))
    assert L.ground == M.ground == intro_vine.ground
    assert L.ground is L.ground and M.ground is M.ground
    assert L._view is L._view and "_view" not in fresh_L.__dict__
    assert (hash(L), hash(M), L == fresh_L, M == fresh_M, repr(L), repr(M)) == before
    assert before[:4] == (hash(fresh_L), hash(fresh_M), True, True)


def test_covered_elements_and_join_irreducibles(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    assert covered_elements(L, frozenset("abcd")) == [frozenset("abc"), frozenset("bcd")]
    assert covered_elements(L, frozenset("a")) == [frozenset()]
    # exactly the atoms are join-irreducible here
    assert lt.join_irreducibles(L) == [frozenset(x) for x in "abcd"]


NOT_A_LATTICE = "element family is not a lattice under inclusion"


@pytest.mark.parametrize("elements, pair, bound", [
    (["", "a", "b", "ab", "abx", "aby"], ("abx", "aby"), "join"),  # no top: abx is not below aby
    (["a", "b", "ab"], ("a", "b"), "meet"),                        # no common lower bound
    (["", "x", "y", "wxy", "xyz", "wxyz"], ("wxy", "xyz"), "meet"),  # x and y are both maximal below
], ids=["no-join", "no-lower-bound", "two-maximal-lower-bounds"])
def test_non_lattice_witness_is_a_pair_without_a_bound(elements, pair, bound):
    L = lt.lattice(elements)
    (report,) = lt.validate_lattice(L)
    assert (report.axiom, report.message) == ("lattice.lattice", NOT_A_LATTICE)
    assert report.witness == tuple(map(frozenset, pair))
    assert getattr(lt, bound)(L, *report.witness) is None
    assert lt.validate_lattice(lt.BoundedLattice(frozenset())) == [Violation("lattice.lattice", None, NOT_A_LATTICE)]


def test_non_lattice_witnesses_lack_a_meet_or_a_join(seed):
    rng = random.Random(seed)
    found = 0
    for n in range(2, 7):
        for _ in range(6):
            for fam in _mutated_families(rng, lt.vine_to_lattice(gen.random_vine("abcdefg"[:n], rng))):
                if not lt.is_lattice(fam):
                    (report,) = lt.validate_lattice(fam)
                    x, y = report.witness
                    assert lt.meet(fam, x, y) is None or lt.join(fam, x, y) is None
                    found += 1
    assert found


def test_join_irreducibles_witness_lists_them():
    # two chains a < ab and c < bc under one top: four join-irreducibles on three labels
    L = lt.lattice(["", "a", "ab", "c", "bc", "abc"])
    report = {x.axiom: x for x in lt.validate_lattice(L)}["lattice.join-irreducibles"]
    assert report.message == "more than 3 join-irreducibles"
    assert report.witness == [frozenset(s) for s in ("a", "c", "ab", "bc")]  # in sorted_elements order
    for x in L.elements:  # join-irreducible: not the bottom, nor the join of two elements below it
        below = [y for y in L.elements if y < x]
        assert (x in report.witness) == (bool(below) and x not in {lt.join(L, y, z) for y in below for z in below})


def _mutated_families(rng, L):
    """L with one element dropped, without its bottom (every join exists, some
    meets do not), and with one random subset added."""
    ground = sorted(L.ground)
    drop = rng.choice(L.sorted_elements())
    add = frozenset(rng.sample(ground, rng.randint(1, len(ground))))
    return [lt.BoundedLattice(L.elements - {drop}), lt.BoundedLattice(L.elements - {frozenset()}),
            lt.BoundedLattice(L.elements | {add})]


def test_order_kernels_match_pairwise_oracles_on_classes():
    for n in range(1, 7):
        for v in gen.class_representatives(n):
            L = lt.vine_to_lattice(v)
            assert lt.is_lattice(L) and is_lattice_pairwise(L)
            assert lt.join_irreducibles(L) == join_irreducibles_by_covers(L)


def test_order_kernels_match_pairwise_oracles_on_mutations(seed):
    rng = random.Random(seed)
    verdicts = []
    for n in range(2, 7):
        for _ in range(6):
            L = lt.vine_to_lattice(gen.random_vine("abcdefg"[:n], rng))
            for fam in _mutated_families(rng, L):
                verdicts.append(lt.is_lattice(fam))
                assert verdicts[-1] == is_lattice_pairwise(fam)
                assert lt.join_irreducibles(fam) == join_irreducibles_by_covers(fam)
    assert set(verdicts) == {True, False}
    assert not lt.is_lattice(lt.BoundedLattice(frozenset()))


def _assert_covers_match_oracle(L):
    """The lattice's index view lists sorted_elements: each below-set is
    every element strictly under the element, each cover list the
    covered_elements list."""
    elems = L.sorted_elements()
    assert L._view.nodes == elems
    for s, under, cov in zip(elems, L._view.below, L._view.covers):
        assert [elems[j] for j in vn._bits(under)] == [t for t in elems if t < s]
        assert [elems[j] for j in vn._bits(cov)] == covered_elements(L, s)


def test_mask_covers_match_covered_elements():
    """Every class lattice n <= 6, and non-graded families: a chain with a
    side element, and each class lattice n <= 5 with one subset added."""
    rng = random.Random(5)
    for n in range(1, 7):
        for v in gen.class_representatives(n):
            L = lt.vine_to_lattice(v)
            _assert_covers_match_oracle(L)
            if n <= 5:
                extra = frozenset(rng.sample(sorted(L.ground), rng.randint(1, n)))
                _assert_covers_match_oracle(lt.BoundedLattice(L.elements | {extra}))
    _assert_covers_match_oracle(lt.lattice(["", "a", "ab", "abc", "c"]))
    _assert_covers_match_oracle(lt.lattice(["a", "b", "abx", "aby", "abcxy"]))


def test_lattice_view_is_the_vine_view_with_a_bottom():
    """On every class n <= 6, the lattice of a vine is indexed as the vine
    with the empty bottom first: the same masks and nodes after it, each
    non-bottom member covering what its vine node covers, and the atoms
    covering the bottom."""
    for n in range(1, 7):
        for v in gen.class_representatives(n):
            lv, vv = lt.vine_to_lattice(v)._view, v._view
            assert lv.masks == [0] + vv.masks
            assert lv.nodes[1:] == vv.nodes
            assert lv.covers[0] == 0
            for k, (s, cov) in enumerate(zip(vv.nodes, vv.covers)):
                under = [frozenset()] if len(s) == 1 else [vv.nodes[j] for j in vn._bits(cov)]
                assert [lv.nodes[j] for j in vn._bits(lv.covers[k + 1])] == under


def test_dual_is_lattice_on_one_sided_families(seed):
    """is_lattice tests a greatest element and then meets, so families with
    a least element and no greatest one (and the reverse) get the pairwise
    oracle's verdict."""
    rng = random.Random(seed)
    families = [lt.lattice(["", "a", "b"]), lt.lattice(["", "a", "b", "ab", "abc", "abd"]),
                lt.lattice(["a", "b", "ab"]), lt.lattice(["", "a"])]
    for n in range(2, 7):
        for _ in range(4):
            L = lt.vine_to_lattice(gen.random_vine("abcdefg"[:n], rng))
            top = max(L.elements, key=len)
            extra = frozenset(rng.sample(sorted(L.ground), n - 1)) | {"z"}
            families += [lt.BoundedLattice(L.elements - {top}),
                         lt.BoundedLattice(L.elements - {top} | {extra}),
                         lt.BoundedLattice(L.elements | {extra}),
                         lt.BoundedLattice(L.elements - {frozenset()})]
    verdicts = [lt.is_lattice(fam) for fam in families]
    assert verdicts == [is_lattice_pairwise(fam) for fam in families]
    assert set(verdicts) == {True, False}


# ------------------------------------------------------------ B(3) checks

def test_boolean_cube_contains_b3():
    L = boolean_cube()
    w_triangle = lt.is_b3_free(L)
    w_direct = lt.direct_b3_search(L)
    assert w_triangle is not None and w_direct is not None
    assert lt._is_induced_b3(list(w_triangle))
    assert lt._is_induced_b3(list(w_direct))


def test_chain_is_b3_free():
    L = lt.lattice(["", "a", "ab", "abc"])
    assert lt.is_b3_free(L) is None
    assert lt.direct_b3_search(L) is None


def test_b3_checks_reject_non_lattices():
    L = lt.lattice(["", "a", "b", "ab", "abx", "aby"])
    for check in (lt.is_b3_free, lt.direct_b3_search):
        with pytest.raises(StructureError) as err:
            check(L)
        assert err.value.axiom == "lattice.lattice"


def test_validate_lattice_checks_lattice_once(monkeypatch, seed):
    """validate_lattice and the raising check run is_lattice once each;
    the B(3) check below them trusts it."""
    L = lt.vine_to_lattice(gen.random_vine("abcdefgh", random.Random(seed)))
    calls = []
    is_lattice = lt.is_lattice
    monkeypatch.setattr(lt, "is_lattice", lambda x: calls.append(x) or is_lattice(x))
    assert lt.validate_lattice(L) == []
    assert len(calls) == 1
    lt.require_extremal_lattice(L)
    assert len(calls) == 2


def test_extremal_lattices_from_vines(intro_vine, fig_vine):
    assert not lt.validate_lattice(lt.vine_to_lattice(intro_vine))
    assert not lt.validate_lattice(lt.vine_to_lattice(fig_vine))
    assert lt.validate_lattice(boolean_cube())       # contains B(3)
    assert lt.validate_lattice(lt.lattice(["", "a", "ab", "abc"]))  # too small


def test_triangle_and_direct_checks_agree_on_sublattices(intro_vine):
    # drop one element at a time; both B(3) checks must agree on every family
    L = lt.vine_to_lattice(intro_vine)
    for drop in L.sorted_elements():
        fam = lt.BoundedLattice(L.elements - {drop})
        if not lt.is_lattice(fam):
            continue
        assert (lt.is_b3_free(fam) is None) == (lt.direct_b3_search(fam) is None)


def random_subset_family(rng, ground):
    """A random inclusion-closed-ish family containing bottom, singletons, top."""
    elems = {frozenset(), frozenset(ground)}
    elems.update(frozenset([a]) for a in ground)
    pool = [frozenset(s) for k in range(2, len(ground))
            for s in combinations(ground, k)]
    for s in pool:
        if rng.random() < 0.45:
            elems.add(s)
    return lt.BoundedLattice(frozenset(elems))


def test_triangle_and_direct_checks_agree_on_random_families(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 30:
        fam = random_subset_family(rng, "abcde")
        if not lt.is_lattice(fam):
            continue
        checked += 1
        assert (lt.is_b3_free(fam) is None) == (lt.direct_b3_search(fam) is None)


def small_lattices() -> list[lt.BoundedLattice]:
    """The lattices among the families of 1 + n + C(n, 2) subsets, n <= 4."""
    return [L for n in range(5) for L in extremal_size_families(n) if lt.is_lattice(L)]


def test_direct_b3_search_matches_the_join_scan(seed):
    """The order-table search returns the witness of the join/meet scan, or
    None with it: on `small_lattices`, on the Boolean lattice of {a, b, c},
    and on seeded vine lattices with n = 5..8 missing a singleton or a
    node of a middle rank."""
    families = small_lattices() + [boolean_cube()]
    rng = random.Random(seed)
    for n in range(5, 9):
        L = lt.vine_to_lattice(gen.random_vine("abcdefgh"[:n], rng))
        middle = [s for s in L.sorted_elements() if 1 < len(s) < n]
        for drop in (frozenset(rng.choice(sorted(L.ground))), rng.choice(middle)):
            fam = lt.BoundedLattice(L.elements - {drop})
            if lt.is_lattice(fam):
                families.append(fam)
    witnesses = [lt.direct_b3_search(L) for L in families]
    assert witnesses == [direct_b3_search_by_joins(L) for L in families]
    assert None in witnesses and any(w is not None for w in witnesses)


def test_triangle_witness_is_an_induced_b3():
    """On a lattice holding every singleton, the B(3) read off a triangle
    needs no re-check (`_is_b3_free` docstring): every such witness among
    `small_lattices` is an induced B(3)."""
    witnesses = [lt._is_b3_free(L) for L in small_lattices()
                 if all(frozenset(a) in L.elements for a in L.ground)]
    assert any(w is not None for w in witnesses)
    for w in witnesses:
        assert w is None or lt._is_induced_b3(list(w))


def test_b3_check_matches_the_matrix_route(seed):
    """`_is_b3_free` on the lattice's index view returns what the route
    through its matrix returns, `b3_witness_by_matrix`: on every lattice of
    `small_lattices` holding its singletons, and on every class lattice with
    n <= 6 with one element other than a singleton swapped for a seeded
    subset of the ground set that it lacks (a family without a singleton
    takes the same direct search both ways)."""
    rng = random.Random(seed)
    families = [L for L in small_lattices() if all(frozenset(a) in L.elements for a in L.ground)]
    for n in range(3, 7):
        for v in gen.class_representatives(n):
            L = lt.vine_to_lattice(v)
            lacking = [frozenset(s) for k in range(n + 1) for s in combinations(sorted(L.ground), k)
                       if frozenset(s) not in L.elements]
            families += [lt.BoundedLattice(L.elements - {out} | {rng.choice(lacking)})
                         for out in L.sorted_elements() if len(out) != 1]
    witnesses = [lt._is_b3_free(L) for L in families]
    assert witnesses == [b3_witness_by_matrix(L) for L in families]
    assert None in witnesses and any(w is not None for w in witnesses)


def test_validate_lattice_without_a_singleton_is_fast(seed):
    """A lattice lacking a singleton takes the direct B(3) search, which
    reads meets and joins off the order table: a seeded n = 12 vine lattice
    without {a}, 78 elements, validates in under a second."""
    L = lt.vine_to_lattice(gen.random_vine("abcdefghijkl", random.Random(seed)))
    fam = lt.BoundedLattice(L.elements - {frozenset("a")})
    start = time.perf_counter()
    report = lt.validate_lattice(fam)
    assert time.perf_counter() - start < 1.0
    # a subfamily of a B(3)-free lattice is B(3)-free
    axioms = [r.axiom for r in report]
    assert "lattice.size" in axioms and "lattice.b3-free" not in axioms


# ------------------------------------------------------- vines <-> lattices

def test_vine_lattice_round_trip(intro_vine, fig_vine, vines_by_n):
    for v in [intro_vine, fig_vine] + vines_by_n[4]:
        assert lt.lattice_to_vine(lt.vine_to_lattice(v)) == v


def test_lattice_to_vine_rejects_non_vines():
    with pytest.raises(StructureError):
        lt.lattice_to_vine(boolean_cube())


def test_maximal_chains_of_lattice(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    chains = lt.maximal_chains_of_lattice(L)
    assert len(chains) == 8
    for chain in chains:
        assert chain[0] == frozenset()
        assert chain[-1] == frozenset("abcd")
        assert [len(s) for s in chain] == [0, 1, 2, 3, 4]
    # lattice chains are the vine chains with the bottom prepended
    assert [c[1:] for c in chains] == vn.maximal_chains(intro_vine)


# -------------------------------------------------------------- doubling

def test_fresh_label():
    assert lt.fresh_label(frozenset("ab")) == "c"
    assert lt.fresh_label(frozenset("abcdefghijklmnopqrstuvwxyz")) == "a1"


def test_doubling_two_chain():
    L = lt.lattice(["", "a"])
    (chain,) = lt.maximal_chains_of_lattice(L)
    assert lt.doubling(L, chain) == lt.lattice(["", "a", "b", "ab"])


def test_doubling_requires_maximal_chain(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    with pytest.raises(StructureError) as exc:
        lt.doubling(L, (frozenset(), frozenset("abcd")))
    assert exc.value.axiom == "lattice.chain"


def test_doubling_preserves_extremality(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    for chain in lt.maximal_chains_of_lattice(L):
        assert not lt.validate_lattice(lt.doubling(L, chain))


def test_undouble_round_trip():
    for n in range(2, 7):
        for v in gen.class_representatives(n):
            L = lt.vine_to_lattice(v)
            L1, chain = lt.undouble(L)
            assert not lt.validate_lattice(L1)
            redoubled = lt.doubling(L1, chain)
            assert gen.canonical_form(lt.lattice_to_vine(redoubled)) == gen.canonical_form(v)


def test_undouble_requires_two_elements():
    with pytest.raises(StructureError):
        lt.undouble(lt.lattice(["", "a"]))


def test_undouble_matches_the_vine_split_oracle(seed):
    """On every class n <= 6 and a seeded relabeling of each."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for rep in gen.class_representatives(n):
            for v in (rep, vn.relabel_vine(rep, random_relabeling(rep.ground, rng))):
                L = lt.vine_to_lattice(v)
                assert lt.undouble(L) == undouble_by_vine_split(L)


# ------------------------------------------------------------ split/merge

def test_lattice_and_matrix_split_intro(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    L1, L2, Lp = split_with_shared(sp.LATTICE, L)
    assert L1 == lt.lattice(["", "a", "b", "c", "ab", "bc", "abc"])
    assert L2 == lt.lattice(["", "b", "c", "d", "bc", "bd", "bcd"])
    assert Lp == lt.lattice(["", "b", "c", "bc"])
    M1, M2, Mp = split_with_shared(sp.MATRIX, lt.lattice_to_matrix(L))
    assert (M1, M2, Mp) == tuple(lt.lattice_to_matrix(h) for h in (L1, L2, Lp))
    assert Mp == lt.BinaryMatrix(("b", "c"), frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))


def test_lattice_and_matrix_splits_follow_the_vine_split(seed):
    """On every class n <= 6 under a random relabeling: the halves and the
    shared part are the vine's plus the bottom, as lattices and as matrices."""
    rng = random.Random(seed)
    for n in range(2, 7):
        for rep in gen.class_representatives(n):
            v = vn.relabel_vine(rep, random_relabeling(rep.ground, rng))
            L = lt.vine_to_lattice(v)
            lattices = split_with_shared(sp.LATTICE, L)
            assert lattices == tuple(lt._vine_to_lattice(h) for h in split_with_shared(sp.VINE, v))
            assert split_with_shared(sp.MATRIX, lt.lattice_to_matrix(L)) == \
                tuple(lt.lattice_to_matrix(h) for h in lattices)


def test_lattice_and_matrix_merge_recover_split(intro_vine, fig_vine):
    for v in (intro_vine, fig_vine):
        L = lt.vine_to_lattice(v)
        for S, x in ((sp.LATTICE, L), (sp.MATRIX, lt.lattice_to_matrix(L))):
            x1, x2, xp = split_with_shared(S, x)
            assert S.merge(sp.SplitPair(x1, x2)) == S.merge(sp.SplitPair(x2, x1)) == x
            with pytest.raises(StructureError) as exc:
                S.merge(sp.SplitPair(x1, xp))
            assert exc.value.axiom == f"{S.name}.coatoms"


# --------------------------------------------------------------- matrices

def test_matrix_round_trip(intro_vine):
    L = lt.vine_to_lattice(intro_vine)
    M = lt.lattice_to_matrix(L)
    assert M.rows == ("a", "b", "c", "d")
    assert lt.matrix_to_lattice(M) == L
    assert not lt.validate_matrix(M)


def test_matrix_of_cube_has_triangle():
    M = lt.lattice_to_matrix(boolean_cube())
    witness = lt.has_no_triangles(M)
    assert witness is not None
    rows, cols = witness
    assert rows == ("a", "b", "c")
    assert sorted(sum(c) for c in cols) == [2, 2, 2]


@pytest.mark.parametrize("columns, bad", [
    ({(0, 0), (1, 0), (0, 1), (1, 0, 1)}, [(1, 0, 1)]),
    ({(0, 0), (1, 0), (0, 1), (2, 1)}, [(2, 1)]),
    ({(0, 0), (1, 0), (0,), (1, 1)}, [(0,)]),
])
def test_matrix_validator_refuses_what_the_parser_refuses(columns, bad):
    """Alone, so that neither route sees it."""
    M = lt.BinaryMatrix(("a", "b"), frozenset(columns))
    assert [(x.axiom, x.witness) for x in lt.validate_matrix(M)] == [("matrix.columns", c) for c in bad]
    for via in ("direct", "transport"):
        with pytest.raises(StructureError) as exc:
            routes.convert_structure(M, "domain", via)
        assert exc.value.axiom == "matrix.columns"


def test_extremal_matrix_size_check(fig_vine):
    M = lt.lattice_to_matrix(lt.vine_to_lattice(fig_vine))
    assert not lt.validate_matrix(M)
    smaller = lt.BinaryMatrix(M.rows, frozenset(list(M.columns)[:-1]))
    assert lt.validate_matrix(smaller)


def test_triangle_detection_matches_witness_scan(seed):
    """Same result as the row-triple scan, `triangle_by_row_triples`."""
    rng = random.Random(seed)
    found = []
    for _ in range(300):
        r = rng.randint(4, 7)
        cols = frozenset(tuple(rng.randint(0, 1) for _ in range(r)) for _ in range(rng.randint(1, 3 * r)))
        M = lt.BinaryMatrix(tuple("abcdefg"[:r]), cols)
        found.append(lt.has_no_triangles(M))
        assert found[-1] == triangle_by_row_triples(M)
    assert None in found and any(w is not None for w in found)


# ---------------------------------------------------------- automorphisms

def test_automorphism_orders(intro_vine, fig_vine):
    assert lt.automorphism_group_order(intro_vine) == 2   # a <-> d
    assert lt.automorphism_group_order(fig_vine) == 1
    path = vn.vine("abcd", ["a", "b", "c", "d", "ab", "bc", "cd", "abc", "bcd", "abcd"])
    assert lt.automorphism_group_order(path) == 2
    assert lt.automorphism_group_order(vn.vine("a", ["a"])) == 1


def kernel_hits(v: vn.RegularVine) -> int:
    """|Aut| as the canonical-form kernel counts it: the chains attaining the least form."""
    return gen.canonical_form_and_aut(v)[1]


def test_descent_matches_the_oracles_exhaustively(vines_by_n):
    """Every labeled vine with n <= 5, n = 0, 1 and 2 included."""
    for n in range(6):
        for v in vines_by_n[n]:
            assert lt.automorphism_group_order(v) == automorphism_group_order_bruteforce(v) == kernel_hits(v)
    assert {lt.automorphism_group_order(v) for v in vines_by_n[5]} == {1, 2}


def test_descent_matches_the_class_table(reps7):
    for n in range(1, 7):
        for cls in gen._doubled_classes(n):
            assert lt.automorphism_group_order(cls.representative) == cls.aut_order
    auts = [lt.automorphism_group_order(v) for v in reps7]
    assert auts == [kernel_hits(v) for v in reps7]
    p, q = gen.recursive_pq_counts(7)
    assert Counter(auts) == Counter({2: p, 1: q})


def test_descent_matches_the_kernel_sampled(seed):
    """Seeded vines with n = 8..12, and relabeled D-vines and C-vines."""
    rng = random.Random(seed)
    for n in range(8, 13):
        labels = string.ascii_lowercase[:n]
        order = rng.sample(labels, n)
        for v in [gen.random_vine(labels, rng) for _ in range(3)] + [d_vine(order), c_vine(order)]:
            h = random_relabeling(v.ground, rng)
            for w in (v, vn.relabel_vine(v, h)):
                assert lt.automorphism_group_order(w) == kernel_hits(w)


def test_descent_at_n_40():
    """2 on the D-vine and the C-vine, where the kernel would scan 2^39 chains."""
    order = [f"x{i:02d}" for i in range(40)]
    random.Random(40).shuffle(order)
    for v in (d_vine(order), c_vine(order)):
        assert len(v.nodes) == 820
        assert lt.automorphism_group_order(v) == 2
