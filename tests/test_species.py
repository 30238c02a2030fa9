"""The split/merge species layer and the generic transport isomorphism."""

import random
import string
from itertools import permutations

import pytest

from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import lattice as lt
from vinery import matgraph as mg
from vinery import routes
from vinery import serialize as io
from vinery import species as sp
from vinery import vine as vn
from vinery.errors import StructureError

from conftest import random_relabeling, sample_vines

ALL_SPECIES = (sp.GRAPH, sp.VINE, sp.DOMAIN, sp.LATTICE, sp.MATRIX)

FROM_VINE = {sp.GRAPH: co.vine_to_graph, sp.VINE: lambda v: v, sp.DOMAIN: co.vine_to_domain,
             sp.LATTICE: lt.vine_to_lattice, sp.MATRIX: lambda v: lt.lattice_to_matrix(lt.vine_to_lattice(v))}


def incarnations(v):
    """The vine v in all five species."""
    return {S: FROM_VINE[S](v) for S in ALL_SPECIES}


# ----------------------------------------------------------- basic layer

def test_trivial_structures():
    assert sp.GRAPH.trivial("a") == mg.MatLabeledGraph(frozenset("a"), {})
    assert sp.VINE.trivial("a") == vn.vine("a", ["a"])
    assert sp.VINE.trivial("") == vn.vine("", [])
    assert sp.DOMAIN.trivial("") == dm.domain("", [()])
    assert sp.DOMAIN.trivial("a") == dm.domain("a", [("a",)])
    assert sp.LATTICE.trivial("") == lt.lattice([[]])
    assert sp.LATTICE.trivial("a") == lt.lattice([[], ["a"]])
    assert sp.MATRIX.trivial("") == lt.BinaryMatrix((), frozenset({()}))
    assert sp.MATRIX.trivial("a") == lt.BinaryMatrix(("a",), frozenset({(0,), (1,)}))


def test_species_table_holds_the_five_rows():
    assert sp.SPECIES == {S.name: S for S in ALL_SPECIES}
    assert tuple(sp.SPECIES) == io.KINDS


def test_make_pair_orders_by_ground():
    x = vn.vine("bcd", ["b", "c", "d", "bc", "cd", "bcd"])
    y = vn.vine("abc", ["a", "b", "c", "ab", "bc", "abc"])
    p = sp.VINE.pair(x, y)
    assert p.left is y and p.right is x


def test_validate_rejects_incomplete_graph():
    g = mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)])
    with pytest.raises(StructureError) as exc:
        sp.GRAPH.validate(g)
    assert exc.value.axiom == "matgraph.complete"


def test_validate_rejects_non_maximal_domain():
    with pytest.raises(StructureError) as exc:
        sp.DOMAIN.validate(dm.domain("ab", [("a", "b")]))
    assert exc.value.axiom == "domain.maximal-size"


def test_a_structure_of_another_kind_raises_a_type_error(intro_vine):
    """Every entry that checks by a row refuses another kind's structure,
    naming the row and the type, before any map reads it."""
    inc = incarnations(intro_vine)
    for F in ALL_SPECIES:
        x = inc[F]
        for S in ALL_SPECIES:
            if S is F:
                continue
            target = sp.VINE if S is not sp.VINE else sp.GRAPH
            for call in (lambda: S.validate(x), lambda: sp.transport(S, target, x),
                         lambda: sp.check_proximity(S, x), lambda: sp.merge_checked(S, F.split(x))):
                with pytest.raises(TypeError, match=f"{S.name} .*{type(x).__name__}"):
                    call()


# ----------------------------------------------- proximity and merging

def test_check_proximity_on_examples(intro_vine, fig_vine):
    for v in (intro_vine, fig_vine):
        for S, x in incarnations(v).items():
            assert sp.check_proximity(S, x)


def test_split_requires_two_elements():
    for S in ALL_SPECIES:
        for ground in ("", "a"):
            with pytest.raises(StructureError) as exc:
                S.split(S.trivial(ground))
            assert exc.value.axiom == f"{S.name}.split"


def test_check_proximity_requires_two_elements():
    with pytest.raises(StructureError):
        sp.check_proximity(sp.VINE, vn.vine("a", ["a"]))


def test_merge_checked_round_trip(fig_vine):
    for S, x in incarnations(fig_vine).items():
        assert sp.merge_checked(S, S.split(x)) == x


def test_merge_checked_incompatible_is_none():
    v1 = vn.vine("abc", ["a", "b", "c", "ab", "bc", "abc"])
    v2 = vn.vine("abd", ["a", "b", "d", "ad", "bd", "abd"])
    # v1 splits off {a, b} and {b, c}, v2 {a, d} and {b, d}: no shared half
    p = sp.VINE.pair(v1, v2)
    assert sp.merge_checked(sp.VINE, p) is None
    assert sp.VINE.merge(p) is None


def test_merge_checked_singletons():
    p = sp.VINE.pair(vn.vine("a", ["a"]), vn.vine("b", ["b"]))
    assert sp.merge_checked(sp.VINE, p) == vn.vine("ab", ["a", "b", "ab"])


# ------------------------------------------------------------- transport

def test_transport_identity_on_each_species(intro_vine):
    for S, x in incarnations(intro_vine).items():
        assert sp.transport(S, S, x) == x


def test_transport_equals_explicit_on_examples(intro_vine, fig_vine):
    for v in (intro_vine, fig_vine):
        inc = incarnations(v)
        for F in ALL_SPECIES:
            for G in ALL_SPECIES:
                assert sp.transport(F, G, inc[F]) == inc[G]


def test_transport_tiny():
    assert sp.transport(sp.VINE, sp.DOMAIN, vn.vine("", [])) == dm.domain("", [()])
    assert sp.transport(sp.DOMAIN, sp.GRAPH, dm.domain("a", [("a",)])) == \
        mg.MatLabeledGraph(frozenset("a"), {})
    two = vn.vine("ab", ["a", "b", "ab"])
    assert sp.transport(sp.VINE, sp.GRAPH, two) == \
        mg.mat_graph("ab", [("a", "b", 1)])


def test_transport_validates_the_source_once(monkeypatch, seed):
    inc = incarnations(gen.random_vine("abcdef", random.Random(seed)))
    validators = {sp.VINE: (vn, "validate_vine"), sp.GRAPH: (mg, "validate_mat_labeling"),
                  sp.DOMAIN: (dm, "is_aspd"), sp.LATTICE: (lt, "validate_lattice"),
                  sp.MATRIX: (lt, "validate_matrix")}
    calls = dict.fromkeys(ALL_SPECIES, 0)
    for S, (module, name) in validators.items():
        def counting(x, _inner=getattr(module, name), _S=S):
            calls[_S] += 1
            return _inner(x)
        monkeypatch.setattr(module, name, counting)
    for F in ALL_SPECIES:
        for G in ALL_SPECIES:
            if F is not G:
                calls.update(dict.fromkeys(ALL_SPECIES, 0))
                assert sp.transport(F, G, inc[F]) == inc[G]
                assert calls[F] == 1, (F.name, G.name, calls[F])
                assert calls[G] == 0, (F.name, G.name, calls[G])


def test_transport_validates_input():
    with pytest.raises(StructureError):
        sp.transport(sp.VINE, sp.DOMAIN, vn.RegularVine(frozenset("ab"), frozenset()))


# ------------------------------------------------- exhaustive small laws

def test_split_merge_identity_exhaustive_small(vines_by_n):
    for n in (2, 3, 4):
        for v in vines_by_n[n]:
            for S, x in incarnations(v).items():
                assert sp.merge_checked(S, S.split(x)) == x


def test_merge_is_the_inverse_of_split_exhaustive_small(vines_by_n):
    """For |A| <= 5, every ordered pair of distinct co-atoms and every pair of
    valid halves on them: the merge is the unique valid structure on A whose
    split is that pair, or None when there is none."""
    for n in range(2, 6):
        A = string.ascii_lowercase[:n]
        halves = {a: list(gen.generate_vines(A.replace(a, ""))) for a in A}
        for S in ALL_SPECIES:
            whole = [FROM_VINE[S](v) for v in vines_by_n[n]]
            by_split = {S.split(z): z for z in whole}
            assert len(by_split) == len(whole)
            on = {a: [FROM_VINE[S](v) for v in vs] for a, vs in halves.items()}
            for a, b in permutations(A, 2):
                for x in on[a]:
                    for y in on[b]:
                        p = S.pair(x, y)
                        assert S.merge(p) == by_split.get(p), (S.name, x, y)


def _assert_transport_equals_direct(v):
    """On all 20 ordered pairs of distinct kinds, transport equals the
    explicit hub of `routes` (and both give v's incarnation).  The
    incarnations are checked once, so the cores are compared."""
    inc = incarnations(v)
    for F in ALL_SPECIES:
        for G in ALL_SPECIES:
            if F is not G:
                direct = routes._convert_structure(inc[F], G.name, "direct")
                assert sp._transport(F, G, inc[F]) == direct == inc[G], (F.name, G.name)


def test_transport_equals_explicit_exhaustive_small(vines_by_n):
    for n in range(6):
        for v in vines_by_n[n]:
            _assert_transport_equals_direct(v)


def test_transport_equals_explicit_sampled(seed):
    rng = random.Random(seed)
    for n in (6, 7):
        for v in sample_vines(n, 5, rng):
            _assert_transport_equals_direct(v)


def test_transport_naturality_sampled(vines_by_n, seed):
    rng = random.Random(seed)
    relabel = {sp.GRAPH: mg.relabel_graph, sp.VINE: vn.relabel_vine,
               sp.DOMAIN: dm.relabel_domain,
               sp.LATTICE: lambda L, h: lt.lattice([[h[a] for a in s] for s in L.elements]),
               sp.MATRIX: lambda M, h: lt.lattice_to_matrix(relabel[sp.LATTICE](lt.matrix_to_lattice(M), h))}
    for v in vines_by_n[4]:
        h = random_relabeling(v.ground, rng)
        inc = incarnations(v)
        for F in ALL_SPECIES:
            for G in ALL_SPECIES:
                assert sp.transport(F, G, relabel[F](inc[F], h)) == relabel[G](inc[G], h)
