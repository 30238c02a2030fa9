"""The maps trust the bijection theorems: every structure that passes its
family validator has images that pass theirs and convert back to it, and no
map core, `lattice._lattice_to_vine` or `routes._convert_structure` calls a
validator.  The walks visit every valid structure up to n = 4."""

import inspect
import random
import string

import pytest

from vinery import correspond as co
from vinery import domain as dm
from vinery import errors
from vinery import generate as gen
from vinery import lattice as lt
from vinery import matgraph as mg
from vinery import routes
from vinery import serialize as io
from vinery import species as sp
from vinery import vine as vn

from oracles import (extremal_size_families, family_matrix, mat_labelings, mat_labelings_by_levels,
                     never_bottom_domains, triangle_free_extremal_matrices, vine_shaped_families)


def assert_images_valid_and_round_trip(x):
    """Every image of a valid x, by either route, passes its validator and
    converts back to x by the same route; the direct route runs the map
    cores and `lattice._lattice_to_vine`."""
    kind = io.kind_of(x)
    for to_kind in io.KINDS:
        for via in ("direct", "transport"):
            out = routes._convert_structure(x, to_kind, via)
            assert sp.SPECIES[to_kind].report(out) == [], (kind, to_kind, via)
            assert routes._convert_structure(out, kind, via) == x, (kind, to_kind, via)


def valid(structures) -> list:
    return [x for x in structures if not sp.species_of(x).report(x)]


@pytest.mark.parametrize("n", range(1, 5))
def test_every_valid_graph_has_valid_images(n):
    """Every labeling of K_n with labels 1..n-1; the level-by-level walk
    that CI runs at n = 5 finds the same valid graphs."""
    graphs = valid(mat_labelings(n))
    assert len(graphs) == gen.labeled_count_formula(n)
    assert set(graphs) == set(valid(mat_labelings_by_levels(n)))
    for g in graphs:
        assert_images_valid_and_round_trip(g)


@pytest.mark.parametrize("n", range(1, 5))
def test_every_valid_vine_has_valid_images(n):
    vines = valid(vine_shaped_families(n))
    assert len(vines) == gen.labeled_count_formula(n)
    for v in vines:
        assert_images_valid_and_round_trip(v)


@pytest.mark.parametrize("n", range(1, 5))
def test_every_maximal_aspd_has_valid_images(n):
    """Every never-bottom domain of the maximal size, by hereditary backtracking."""
    domains = valid(never_bottom_domains(n))
    assert len(domains) == gen.labeled_count_formula(n)
    for d in domains:
        assert_images_valid_and_round_trip(d)


@pytest.mark.parametrize("n", range(1, 5))
def test_every_extremal_lattice_and_matrix_has_valid_images(n):
    """Every family of 1 + n + C(n, 2) subsets, as a lattice and as a matrix.
    A lattice holds its ground set, the union of its elements, as its top, so
    only the families holding all n letters are read as lattices; the walk
    that CI runs at n = 5 finds the same valid matrices."""
    ground = frozenset(string.ascii_lowercase[:n])
    families = list(extremal_size_families(n))
    lattices = valid(L for L in families if ground in L.elements)
    matrices = valid(family_matrix(n, L.elements) for L in families)
    assert len(lattices) == len(matrices) == gen.labeled_count_formula(n)
    assert set(matrices) == set(valid(triangle_free_extremal_matrices(n)))
    for x in lattices + matrices:
        assert_images_valid_and_round_trip(x)


# ---------------------------------------------------------------- traffic

CHECK_PREFIXES = ("validate_", "require_", "_require_")
CHECK_NAMES = ("raise_first", "is_lattice", "is_aspd", "has_no_triangles", "_mask_violations")


@pytest.fixture
def checks(monkeypatch) -> list:
    """The names of the validators, `require_*` functions and the kernels
    they run, as each is called through any vinery module; the species
    rows look their validators up in the family modules."""
    calls = []
    for mod in (co, dm, errors, gen, lt, mg, routes, sp, vn):
        for name, f in list(vars(mod).items()):
            if inspect.isfunction(f) and (name.startswith(CHECK_PREFIXES) or name in CHECK_NAMES):
                monkeypatch.setattr(mod, name, lambda *args, _f=f, _name=name: calls.append(_name) or _f(*args))
    return calls


def test_no_core_calls_a_validator(checks, seed):
    """The four map cores, the lattice read and both routes between every
    pair of kinds, on one seeded vine per n <= 6 in all five kinds."""
    cores = {("matgraph", "vine"): co._graph_to_vine, ("vine", "matgraph"): co._vine_to_graph,
             ("vine", "domain"): co._vine_to_domain, ("domain", "vine"): co._domain_to_vine}
    rng = random.Random(seed)
    for n in range(7):
        v = gen.random_vine(string.ascii_lowercase[:n], rng)
        L = lt._vine_to_lattice(v)
        objs = {"matgraph": co._vine_to_graph(v), "vine": v, "domain": co._vine_to_domain(v),
                "lattice": L, "matrix": lt.lattice_to_matrix(L)}
        checks.clear()
        for (kind, to_kind), core in cores.items():
            assert core(objs[kind]) == objs[to_kind]
        assert lt._lattice_to_vine(L) == v
        for kind, x in objs.items():
            for to_kind in io.KINDS:
                for via in ("direct", "transport"):
                    assert routes._convert_structure(x, to_kind, via) == objs[to_kind]
        assert checks == [], n


def test_the_fixture_sees_the_checks(checks, intro_graph):
    """The fixture records the checks that the public forms run."""
    routes.convert_structure(intro_graph, "vine")
    assert checks == ["validate_matgraph", "validate_mat_labeling", "raise_first"]
