"""Acceptance gate: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete.  Sampled suites are seeded (override with ``--seed``).
"""

import json
import math
import random
import string
import time
from collections import Counter

from vinery import cli
from vinery import correspond as co
from vinery import domain as dm
from vinery import generate as gen
from vinery import lattice as lt
from vinery import matgraph as mg
from vinery import routes
from vinery import serialize as io
from vinery import species as sp
from vinery import vine as vn

from conftest import (FIG_EDGES, FIG_PREFS, FIG_VINE_NODES, INTRO_EDGES,
                      INTRO_PREFS, INTRO_VINE_NODES, TRD1_PREFS, TRD2_PREFS,
                      random_relabeling, sample_vines)

LABELED = [1, 1, 3, 24, 480, 23040]
UNLABELED = [1, 1, 1, 2, 6, 40]


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS {line}", flush=True)


def test_criterion_01_labeled_counts():
    t0 = time.perf_counter()
    counts = [sum(1 for _ in gen.generate_vines(string.ascii_lowercase[:n]))
              for n in range(1, 7)]
    elapsed_small = time.perf_counter() - t0
    assert counts == LABELED
    for n, got in zip(range(1, 7), counts):
        assert got == gen.labeled_count_formula(n)
    assert elapsed_small < 30, f"n <= 6 enumeration took {elapsed_small:.1f}s"
    t0 = time.perf_counter()
    seven = gen.count_vines(7)
    elapsed_seven = time.perf_counter() - t0
    assert seven == 2580480 == gen.labeled_count_formula(7)
    assert elapsed_seven < 600, f"n = 7 reconciliation took {elapsed_seven:.1f}s"
    report(f"criterion 1: labeled counts {counts} in {elapsed_small:.1f}s; "
           f"n=7 -> {seven} in {elapsed_seven:.1f}s")


def test_criterion_02_unlabeled_counts(classification):
    got = [len(classification.by_n[n]) for n in range(1, 7)]
    assert got == UNLABELED
    assert classification.elapsed < 300, \
        f"classification took {classification.elapsed:.1f}s"
    t0 = time.perf_counter()
    for n in range(1, 13):
        p, q = gen.recursive_pq_counts(n)
        assert p + q == gen.unlabeled_count_formula(n)
    assert gen.unlabeled_count_formula(12) == 17626824704000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"formula/recursion comparison took {elapsed:.2f}s"
    report(f"criterion 2: classes {got} in {classification.elapsed:.1f}s; "
           f"formula == recursion for n = 1..12 in {elapsed * 1000:.0f}ms")


def test_criterion_03_worked_examples():
    triples = [
        (mg.mat_graph("abcd", INTRO_EDGES), vn.vine("abcd", INTRO_VINE_NODES),
         dm.domain("abcd", INTRO_PREFS)),
        (mg.mat_graph("abcde", FIG_EDGES), vn.vine("abcde", FIG_VINE_NODES),
         dm.domain("abcde", FIG_PREFS)),
    ]
    for g, v, d in triples:
        expected = {"matgraph": io.dumps(g), "vine": io.dumps(v), "domain": io.dumps(d)}
        for src in (g, v, d):
            for to_kind, want in expected.items():
                for via in ("direct", "transport"):
                    got = io.dumps(routes.convert_structure(src, to_kind, via))
                    assert got == want, (io.kind_of(src), to_kind, via)
    report("criterion 3: intro and 5-element triples reproduced bit-for-bit, "
           "both --via direct and --via transport")


ALL_SPECIES = (sp.GRAPH, sp.VINE, sp.DOMAIN)
FROM_VINE = {sp.GRAPH: co.vine_to_graph, sp.VINE: lambda v: v, sp.DOMAIN: co.vine_to_domain}
RELABEL = {sp.GRAPH: mg.relabel_graph, sp.VINE: vn.relabel_vine, sp.DOMAIN: dm.relabel_domain}


def _check_laws(v, rng, relabelings: int):
    inc = {S: FROM_VINE[S](v) for S in ALL_SPECIES}
    g, d = inc[sp.GRAPH], inc[sp.DOMAIN]
    # merge of split is the identity, in every species
    if v.n >= 2:
        for S, x in inc.items():
            assert sp.merge_checked(S, S.split(x)) == x
    # the four explicit maps are mutually inverse, and their compositions
    # through the vine send g and d to each other
    assert co.graph_to_vine(g) == v
    assert co.domain_to_vine(d) == v
    assert co.vine_to_domain(co.graph_to_vine(g)) == d
    assert co.vine_to_graph(co.domain_to_vine(d)) == g
    # generic transport computes the same maps
    for F in ALL_SPECIES:
        for G in ALL_SPECIES:
            if F is not G:
                assert sp.transport(F, G, inc[F]) == inc[G]
    # naturality: every map commutes with relabeling
    for _ in range(relabelings):
        h = random_relabeling(v.ground, rng)
        hv = vn.relabel_vine(v, h)
        hg = mg.relabel_graph(g, h)
        hd = dm.relabel_domain(d, h)
        assert co.vine_to_graph(hv) == hg and co.vine_to_domain(hv) == hd
        assert co.graph_to_vine(hg) == hv
        assert co.domain_to_vine(hd) == hv


def test_criterion_04_structural_laws(vines_by_n, seed):
    rng = random.Random(seed)
    exhaustive = 0
    for n in range(2, 6):
        for v in vines_by_n[n]:
            _check_laws(v, rng, relabelings=50)
            exhaustive += 1
    sampled = 0
    for n in (6, 7):
        batch = sample_vines(n, 1000, rng)
        for i, v in enumerate(batch):
            # the relabeling battery is run on a 50-instance subsample per n
            _check_laws(v, rng, relabelings=50 if i < 50 else 0)
            sampled += 1
    report(f"criterion 4: structural laws exact on {exhaustive} exhaustive "
           f"(n <= 5) and {sampled} sampled (n = 6, 7) instances")


def test_criterion_05_maximal_aspd_facts(classification, reps7):
    reps = {n: [c.representative for c in classification.by_n[n]] for n in range(1, 7)}
    reps[7] = reps7
    assert len(reps[7]) == 560
    checked = 0
    for n in range(1, 8):
        for v in reps[n]:
            d = co.vine_to_domain(v)
            assert len(d.prefs) == 2 ** (n - 1)
            if n >= 2:
                assert len(dm.bottom_alternatives(d)) == 2
            assert dm.is_aspd(d) == (True, None)
            checked += 1
    report(f"criterion 5: maximal-ASPD facts hold for all {checked} classes, n <= 7")


def test_criterion_06_analytics(classification):
    for n in range(1, 7):
        for cls in classification.by_n[n]:
            v = cls.representative
            d = sp.transport(sp.VINE, sp.DOMAIN, v)
            assert dm.first_rank_distribution(d) == vn.chain_counts_from_atoms(v)
            richness = vn.richness_via_vine(v)
            assert dm.richness_direct(d) == richness
            if n >= 3:
                assert 2 <= richness <= n // 2 + 1
    trd1 = dm.domain("abcd", TRD1_PREFS)
    trd2 = dm.domain("abcd", TRD2_PREFS)
    assert dm.first_rank_distribution(trd1) == {"a": 1, "b": 3, "c": 3, "d": 1}
    assert dm.first_rank_distribution(trd2) == {"a": 4, "b": 2, "c": 1, "d": 1}
    assert dm.richness_direct(trd1) == 3
    assert dm.richness_direct(trd2) == 2
    report("criterion 6: analytics agree across representations (n <= 6) "
           "and reproduce the worked top-rank distributions")


def test_criterion_07_bspd_is_the_d_vine_class(classification):
    for n in range(2, 7):
        bspd_classes = []
        for cls in classification.by_n[n]:
            v = cls.representative
            axis = dm.is_bspd(co.vine_to_domain(v))
            if axis is not None:
                bspd_classes.append((v, axis))
            assert (axis is not None) == vn.is_d_vine(v)
        assert len(bspd_classes) == 1
        v, axis = bspd_classes[0]
        # the axis is the level-one path of the representative, up to reversal
        degree = Counter()
        neighbors = {}
        for pair in v.rank_nodes(2):
            x, y = sorted(pair)
            degree[x] += 1
            degree[y] += 1
            neighbors.setdefault(x, []).append(y)
            neighbors.setdefault(y, []).append(x)
        start = min(x for x in v.ground if degree[x] <= 1)
        path, prev = [start], None
        while len(path) < n:
            nxt = [y for y in neighbors[path[-1]] if y != prev]
            prev = path[-1]
            path.append(nxt[0])
        assert list(axis) in (path, path[::-1])
    report("criterion 7: exactly one BSPD class per n <= 6, equal to the "
           "path-shaped class, with the path order as axis")


def _random_closed_family(rng, ground):
    """A random intersection-closed family containing bottom, singletons, top
    (intersection-closure with a top makes it a lattice)."""
    from itertools import combinations
    elems = {frozenset(), frozenset(ground)}
    elems.update(frozenset([a]) for a in ground)
    pool = [frozenset(s) for k in range(2, len(ground))
            for s in combinations(ground, k)]
    for s in pool:
        if rng.random() < 0.4:
            elems.add(s)
    changed = True
    while changed:
        changed = False
        for x in list(elems):
            for y in list(elems):
                if x & y not in elems:
                    elems.add(x & y)
                    changed = True
    return lt.BoundedLattice(frozenset(elems))


def test_criterion_08_lattice_and_matrix_layer(classification, seed):
    for n in range(1, 6):
        for cls in classification.by_n[n]:
            v = cls.representative
            L = lt.vine_to_lattice(v)
            assert not lt.validate_lattice(L)
            assert len(L.elements) == 1 + n + n * (n - 1) // 2
            M = lt.lattice_to_matrix(L)
            assert not lt.validate_matrix(M)
            assert (lt.is_b3_free(L) is None) == (lt.direct_b3_search(L) is None)
            if n >= 2:
                L1, chain = lt.undouble(L)
                assert not lt.validate_lattice(L1)
                redoubled = lt.doubling(L1, chain)
                assert gen.canonical_form(lt.lattice_to_vine(redoubled)) == cls.form
    rng = random.Random(seed)
    for i in range(100):
        fam = _random_closed_family(rng, "abcde")
        assert lt.is_lattice(fam)
        assert (lt.is_b3_free(fam) is None) == (lt.direct_b3_search(fam) is None)
    report("criterion 8: lattice/matrix extremality, B(3)-check agreement "
           "(classes n <= 5 plus 100 random families) and doubling round trips")


def test_criterion_09_automorphism_tallies(classification):
    for n in range(1, 7):
        tally = Counter(cls.aut_order for cls in classification.by_n[n])
        assert set(tally) <= {1, 2}
        p, q = gen.recursive_pq_counts(n)
        assert (tally.get(2, 0), tally.get(1, 0)) == (p, q)
        for cls in classification.by_n[n]:
            assert cls.orbit_size * cls.aut_order == math.factorial(n)
    report("criterion 9: per-class |Aut| in {1, 2} with tallies equal to "
           "(p_n, q_n) for n <= 6")


def test_criterion_10_catalog_regeneration(tmp_path, capsys):
    t0 = time.perf_counter()
    runs = []
    for run in ("one", "two"):
        out = tmp_path / run
        for n in range(3, 7):
            assert cli.main(["catalog", "--n", str(n), "--out", str(out)]) == 0
            capsys.readouterr()
        runs.append(out)
    entries = 0
    for n in range(3, 7):
        for name in (f"catalog_n{n}.jsonl", f"catalog_n{n}.txt"):
            first = (runs[0] / name).read_bytes()
            assert first == (runs[1] / name).read_bytes()
        lines = (runs[0] / f"catalog_n{n}.jsonl").read_text().splitlines()
        entries += len(lines)
        for line in lines:
            assert json.loads(line)["n"] == n
    elapsed = time.perf_counter() - t0
    assert entries == 49
    assert elapsed < 600, f"catalog regeneration took {elapsed:.1f}s"
    report(f"criterion 10: catalog regenerated twice, 49 entries, "
           f"byte-identical, in {elapsed:.1f}s")
