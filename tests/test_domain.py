"""Preference domains: restriction, Condorcet cycles, single-peakedness,
maximality, split/merge, analytics."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import species as sp
from vinery.errors import StructureError

from conftest import split_with_shared
from oracles import bspd_axes_by_all_axes, is_maximal_aspd_by_extension, topmost_contiguous_position_by_scan


def mkdom(alts, words):
    return dm.domain(alts, [tuple(w) for w in words])


# ----------------------------------------------------------- construction

def test_factory_rejects_malformed_input():
    with pytest.raises(StructureError) as exc:
        dm.domain("abc", [("a", "b")])
    assert exc.value.axiom == "domain.permutation"
    with pytest.raises(StructureError) as exc:
        dm.domain("ab", [("a", "b"), ("a", "b")])
    assert exc.value.axiom == "domain.duplicate"


@pytest.mark.parametrize("alternatives, prefs, bad", [
    ("ab", [("a",), ("b",)], [("a",), ("b",)]),
    ("abc", ["abc", "bac", "cba", "bc"], [("b", "c")]),
    ("ab", [("a", "b"), ("a", "a")], [("a", "a")]),
])
def test_validator_refuses_what_the_factory_refuses(alternatives, prefs, bad):
    """Alone, under the factory's axiom name, so that no map sees it."""
    d = dm.PreferenceDomain(frozenset(alternatives), frozenset(tuple(w) for w in prefs))
    assert [(x.axiom, x.witness) for x in dm.validate_domain(d)] == [("domain.permutation", w) for w in bad]
    with pytest.raises(StructureError) as exc:
        co.domain_to_vine(d)
    assert exc.value.axiom == "domain.permutation"


def test_restrict_domain(fig_domain):
    r = dm.restrict_domain(fig_domain, "abc")
    assert r.alternatives == frozenset("abc")
    assert r.prefs == frozenset({("a", "b", "c"), ("b", "a", "c"),
                                 ("b", "c", "a"), ("c", "b", "a")})
    with pytest.raises(StructureError):
        dm.restrict_domain(fig_domain, "axy")


# ------------------------------------------------- cycles and peakedness

def test_condorcet_cycle_found():
    d = mkdom("abc", ["abc", "bca", "cab"])
    hit = dm.find_condorcet_cycle(d)
    assert hit is not None
    assert hit[3] == ("a", "b", "c")


def test_no_condorcet_cycle_but_not_aspd():
    d = mkdom("abc", ["abc", "acb", "cab", "cba"])
    assert dm.find_condorcet_cycle(d) is None
    ok, triple = dm.is_aspd(d)
    assert not ok and triple == ("a", "b", "c")


def _is_aspd_by_restriction(d):
    """Oracle: the never-bottom check by restricting the domain to each triple."""
    for T in combinations(sorted(d.alternatives), 3):
        bottoms = {w[-1] for w in dm.restrict_domain(d, T).prefs}
        if bottoms >= set(T):
            return False, T
    return True, None


def test_is_aspd_matches_restriction_oracle(classification, seed):
    rng = random.Random(seed)
    verdicts = set()
    for i in range(500):
        alts = "abcde"[:4 + i % 2]
        perms = list(permutations(alts))
        d = dm.domain(alts, rng.sample(perms, rng.randint(1, 2 ** (len(alts) - 1) + 2)))
        assert dm.is_aspd(d) == _is_aspd_by_restriction(d)
        verdicts.add(dm.is_aspd(d)[0])
    assert verdicts == {True, False}
    for n in range(1, 7):
        for cls in classification.by_n[n]:
            d = co.vine_to_domain(cls.representative)
            assert dm.is_aspd(d) == _is_aspd_by_restriction(d) == (True, None)


def test_is_aspd_matches_restriction_oracle_on_swapped_domains(seed):
    """Maximal ASPDs of seeded vines with one preference swapped for another
    linear order."""
    rng = random.Random(seed)
    verdicts = set()
    for n in range(3, 8):
        for _ in range(10):
            d = co.vine_to_domain(gen.random_vine("abcdefg"[:n], rng))
            out = rng.choice(d.sorted_prefs())
            new = tuple(rng.sample(sorted(d.alternatives), n))
            swapped = dm.PreferenceDomain(d.alternatives, (d.prefs - {out}) | {new})
            verdicts.add(dm.is_aspd(swapped)[0])
            assert dm.is_aspd(swapped) == _is_aspd_by_restriction(swapped)
    assert verdicts == {True, False}


def test_worked_examples_are_maximal_aspds(intro_domain, fig_domain, trd1, trd2):
    for d in (intro_domain, fig_domain, trd1, trd2):
        assert dm.is_aspd(d) == (True, None)
        assert not dm.validate_domain(d)


def test_definitional_maximality_matches_size_criterion(intro_domain):
    assert is_maximal_aspd_by_extension(intro_domain)
    smaller = dm.PreferenceDomain(intro_domain.alternatives,
                                  intro_domain.prefs - {("a", "b", "c", "d")})
    assert dm.validate_domain(smaller)
    assert not is_maximal_aspd_by_extension(smaller)


def test_tiny_maximality():
    assert not dm.validate_domain(dm.domain("", [()]))
    assert not dm.validate_domain(mkdom("a", ["a"]))
    assert not dm.validate_domain(mkdom("ab", ["ab", "ba"]))
    assert dm.validate_domain(mkdom("ab", ["ab"]))


def test_bottom_alternatives(intro_domain, trd2):
    assert dm.bottom_alternatives(intro_domain) == frozenset("ad")
    assert dm.bottom_alternatives(trd2) == frozenset("cd")


# ------------------------------------------------------------ split/merge

def test_split_fig(fig_domain):
    d1, d2, dp = split_with_shared(sp.DOMAIN, fig_domain)
    assert d1 == mkdom("abcd", ["abcd", "bacd", "bcad", "cbad",
                                "bcda", "cbda", "cdba", "dcba"])
    assert d2 == mkdom("bcde", ["bcde", "cbde", "cdbe", "dcbe",
                                "cdeb", "dceb", "cedb", "ecdb"])
    assert dp == mkdom("bcd", ["bcd", "cbd", "cdb", "dcb"])


def test_merge_recovers_split(intro_domain, fig_domain):
    for d in (intro_domain, fig_domain):
        d1, d2, _ = split_with_shared(sp.DOMAIN, d)
        assert sp.DOMAIN.merge(sp.SplitPair(d1, d2)) == d
        assert sp.DOMAIN.merge(sp.SplitPair(d2, d1)) == d


def test_merge_requires_coatoms(fig_domain):
    d1, _, dp = split_with_shared(sp.DOMAIN, fig_domain)
    with pytest.raises(StructureError) as exc:
        sp.DOMAIN.merge(sp.SplitPair(d1, dp))
    assert exc.value.axiom == "domain.coatoms"


def test_merge_wrong_bottom_is_none(fig_domain):
    d1 = sp.DOMAIN.restrict(fig_domain, "a")
    other = mkdom("abcd", ["acbd", "cabd", "bacd", "abcd",
                           "badc", "abdc", "adbc", "dabc"])
    # 'a' is not a bottom alternative of the second part
    assert sp.DOMAIN.merge(sp.SplitPair(d1, other)) is None


def test_merge_mismatching_second_blocks_is_none(fig_domain):
    d1, d2 = sp.DOMAIN.restrict(fig_domain, "a"), sp.DOMAIN.restrict(fig_domain, "e")
    swapped = dm.relabel_domain(d2, {"a": "a", "b": "c", "c": "b", "d": "d"})
    assert sp.DOMAIN.merge(sp.SplitPair(d1, swapped)) is None


def test_split_requires_maximal_aspd():
    # the split is reached from checked entries only; check_proximity is the one that splits
    with pytest.raises(StructureError) as exc:
        sp.check_proximity(sp.DOMAIN, mkdom("abc", ["abc", "bca", "cab"]))
    assert exc.value.axiom == "domain.never-bottom"


# -------------------------------------------------------------- analytics

def test_first_rank_distribution(trd1, trd2):
    assert dm.first_rank_distribution(trd1) == {"a": 1, "b": 3, "c": 3, "d": 1}
    assert dm.first_rank_distribution(trd2) == {"a": 4, "b": 2, "c": 1, "d": 1}


def test_richness_direct(intro_domain, trd1, trd2):
    assert dm.richness_direct(intro_domain) == 2
    assert dm.richness_direct(trd1) == 3
    assert dm.richness_direct(trd2) == 2
    assert dm.richness_direct(mkdom("ab", ["ab", "ba"])) == 2
    assert dm.richness_direct(dm.domain("", [()])) == 0


def test_topmost_contiguous_position(intro_domain, fig_domain):
    assert dm.topmost_contiguous_position(fig_domain, "a", "c") == 2
    assert dm.topmost_contiguous_position(intro_domain, "a", "d") == 3
    assert dm.topmost_contiguous_position(intro_domain, "d", "a") == 3
    with pytest.raises(StructureError):
        dm.topmost_contiguous_position(intro_domain, "a", "a")
    with pytest.raises(StructureError) as exc:
        dm.topmost_contiguous_position(mkdom("abc", ["abc"]), "a", "c")
    assert exc.value.axiom == "domain.contiguity"


def _same_position_or_error(d, x, y):
    try:
        want = topmost_contiguous_position_by_scan(d, x, y)
    except StructureError as exc:
        with pytest.raises(StructureError) as got:
            dm.topmost_contiguous_position(d, x, y)
        assert (got.value.axiom, str(got.value)) == (exc.axiom, str(exc))
        return None
    assert dm.topmost_contiguous_position(d, x, y) == want
    return want


def test_topmost_contiguous_position_matches_per_pair_scan(seed):
    """The one-pass positions equal the per-pair domain scan, errors
    included, on every class domain n <= 6 and on seeded domains with
    preferences dropped, so that some pairs are never contiguous."""
    rng = random.Random(seed)
    domains = []
    for n in range(2, 7):
        for v in gen.class_representatives(n):
            d = co.vine_to_domain(v)
            domains.append(d)
            prefs = sorted(d.prefs)
            domains.append(dm.PreferenceDomain(d.alternatives, frozenset(rng.sample(prefs, max(1, len(prefs) // 4)))))
    errors = 0
    for d in domains:
        alts = sorted(d.alternatives)
        for x in alts:
            for y in alts:
                errors += _same_position_or_error(d, x, y) is None
    assert errors > sum(d.n for d in domains)  # more than the x == y cases


# ------------------------------------------------------------------ BSPD

def test_bspd_maximal_fast_path(trd1, trd2):
    assert dm.is_bspd(trd1) == ("a", "b", "c", "d")
    assert dm.is_bspd(trd2) is None


def test_bspd_small_examples():
    assert dm.is_bspd(mkdom("abc", ["abc", "bac", "bca", "cba"])) == ("a", "b", "c")
    assert dm.is_bspd(mkdom("ab", ["ab", "ba"])) == ("a", "b")
    assert dm.is_bspd(mkdom("a", ["a"])) == ("a",)
    # three distinct bottoms rule out any axis
    assert dm.is_bspd(mkdom("abc", ["abc", "bca", "cab"])) is None


def test_bspd_non_maximal_fallback():
    assert dm.is_bspd(mkdom("abc", ["abc", "cba"])) == ("a", "b", "c")
    axis = dm.is_bspd(mkdom("abcd", ["bacd", "bcad"]))
    assert axis is not None
    pos = {x: i for i, x in enumerate(axis)}
    for w in [("b", "a", "c", "d"), ("b", "c", "a", "d")]:
        positions = [pos[x] for x in w]
        # each prefix is an interval of the axis
        for k in range(1, 5):
            chunk = sorted(positions[:k])
            assert chunk == list(range(chunk[0], chunk[0] + k))


def test_bspd_search_agrees_with_every_axis():
    """On every domain of two or three preferences over abcd, none of them
    maximal, the pruned axis search finds an axis exactly when one of all
    24 fits, and one that fits.  {abcd, adcb} has two bottoms and no axis."""
    prefs = list(permutations("abcd"))
    found = 0
    for size in (2, 3):
        for chosen in combinations(prefs, size):
            d = mkdom("abcd", chosen)
            axis, axes = dm.is_bspd(d), bspd_axes_by_all_axes(d)
            assert axis in axes if axis is not None else not axes
            found += axis is not None
    assert 0 < found < len(list(combinations(prefs, 2))) + len(list(combinations(prefs, 3)))
    assert dm.is_bspd(mkdom("abcd", ["abcd", "adcb"])) is None


# ------------------------------------------------- relabeling, rendering

@given(st.permutations(list("abcde")))
def test_relabel_preserves_structure(perm):
    d = dm.domain("abcde", [tuple(w) for w in
                            ["abcde", "bacde", "bcade", "cbade", "bcdae", "cbdae",
                             "cdbae", "dcbae", "bcdea", "cbdea", "cdbea", "dcbea",
                             "cdeba", "dceba", "cedba", "ecdba"]])
    h = dict(zip("abcde", perm))
    out = dm.relabel_domain(d, h)
    assert not dm.validate_domain(out)
    assert dm.richness_direct(out) == dm.richness_direct(d)
    assert dm.bottom_alternatives(out) == frozenset(h[x] for x in dm.bottom_alternatives(d))
