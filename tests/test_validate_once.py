"""Validation happens once: the `checked` public forms of the cores, and the
validator traffic of `convert`, `analyze`, `verify --strict` and the catalog."""

import inspect
import random
from collections import Counter

import pytest

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
from vinery.errors import StructureError

MODULES = (co, dm, gen, lt, mg, routes, vn)

# one invalid structure per family
BAD = {
    "matgraph": mg.mat_graph("abc", [("a", "b", 1), ("b", "c", 1)]),  # a MAT-labeled path, not complete
    "vine": vn.vine("abc", ["a", "b", "c", "abc"]),                   # no rank-2 nodes
    "domain": dm.domain("ab", [("a", "b")]),                          # an ASPD, not maximal
    "lattice": lt.lattice([[], ["a"], ["b"]]),                        # no top
    "matrix": lt.BinaryMatrix(("a", "b", "c"), frozenset({
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)})),  # a triangle
}

# (module, public name, invalid input, further arguments, axiom raised)
CASES = [
    (co, "graph_to_vine", "matgraph", (), "matgraph.complete"),
    (co, "vine_to_graph", "vine", (), "vine.grading"),
    (co, "vine_to_domain", "vine", (), "vine.grading"),
    (co, "domain_to_vine", "domain", (), "domain.maximal-size"),
    (vn, "is_d_vine", "vine", (), "vine.grading"),
    (vn, "is_c_vine", "vine", (), "vine.grading"),
    (vn, "maximal_chains", "vine", (), "vine.grading"),
    (vn, "chain_counts_from_atoms", "vine", (), "vine.grading"),
    (vn, "richness_via_vine", "vine", (), "vine.grading"),
    (lt, "is_b3_free", "lattice", (), "lattice.lattice"),
    (lt, "direct_b3_search", "lattice", (), "lattice.lattice"),
    (lt, "vine_to_lattice", "vine", (), "vine.grading"),
    (lt, "lattice_to_vine", "lattice", (), "lattice.lattice"),
    (lt, "undouble", "lattice", (), "lattice.lattice"),
    (lt, "maximal_chains_of_lattice", "lattice", (), "lattice.lattice"),
    (lt, "automorphism_group_order", "vine", (), "vine.grading"),
    (gen, "canonical_form", "vine", (), "vine.grading"),
    (gen, "canonical_form_and_aut", "vine", (), "vine.grading"),
    # routes checks by the input's species row and raises its first violation
    (routes, "convert_structure", "matgraph", ("vine",), "matgraph.complete"),
    (routes, "convert_structure", "vine", ("matgraph",), "vine.grading"),
    (routes, "convert_structure", "domain", ("vine",), "domain.maximal-size"),
    (routes, "convert_structure", "lattice", ("vine",), "lattice.lattice"),
    (routes, "convert_structure", "matrix", ("vine",), "matrix.triangle"),
]


def test_every_checked_function_has_a_case():
    found = {(mod.__name__, name) for mod in MODULES for name, f in vars(mod).items()
             if inspect.isfunction(f) and hasattr(f, "__wrapped__") and f.__module__ == mod.__name__}
    assert found == {(mod.__name__, name) for mod, name, *_ in CASES}


@pytest.mark.parametrize("mod, name, kind, args, axiom", CASES,
                         ids=[f"{mod.__name__.split('.')[-1]}.{name}-{kind}" for mod, name, kind, *_ in CASES])
def test_checked_raises_the_family_axiom_and_looks_public(mod, name, kind, args, axiom):
    fn, core = getattr(mod, name), getattr(mod, "_" + name)
    with pytest.raises(StructureError) as exc:
        fn(BAD[kind], *args)
    assert exc.value.axiom == axiom
    assert fn.__wrapped__ is core
    assert fn.__name__ == fn.__qualname__ == name
    assert fn.__doc__ == core.__doc__ and fn.__doc__
    assert fn.__module__ == mod.__name__
    assert inspect.signature(fn) == inspect.signature(core)


# each family's validator and its raising check
FAMILY = {
    "matgraph": (mg.validate_matgraph, mg.require_valid),
    "vine": (vn.validate_vine, vn.require_valid),
    "domain": (dm.validate_domain, dm.require_valid),
    "lattice": (lt.validate_lattice, lt.require_extremal_lattice),
    "matrix": (lt.validate_matrix, lt.require_extremal_matrix),
}


@pytest.mark.parametrize("kind", list(BAD))
def test_every_check_raises_the_reports_first_axiom(kind):
    """The family's raising check and every entry that checks by the row
    name the same axiom: the first of the family validator's report."""
    x, S = BAD[kind], sp.SPECIES[kind]
    validate, require = FAMILY[kind]
    target = sp.VINE if S is not sp.VINE else sp.GRAPH
    for check in (require, S.validate, lambda y: sp.transport(S, target, y),
                  lambda y: sp.check_proximity(S, y), lambda y: routes.convert_structure(y, target.name)):
        with pytest.raises(StructureError) as exc:
            check(x)
        assert exc.value.axiom == validate(x)[0].axiom, check


# ---------------------------------------------------------- validator traffic

VALIDATORS = ((vn, "validate_vine"), (mg, "validate_mat_labeling"), (dm, "is_aspd"),
              (lt, "is_lattice"), (lt, "has_no_triangles"))


@pytest.fixture
def traffic(monkeypatch) -> list:
    """(validator, object) of every call of the five family validators, through
    their modules, where every caller looks them up; the list keeps every
    object alive, so ids are not reused."""
    calls = []
    for mod, name in VALIDATORS:
        validate = getattr(mod, name)

        def recording(x, _validate=validate, _name=name):
            calls.append((_name, x))
            return _validate(x)

        monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def five_files(tmp_path, seed) -> dict:
    """One seeded n = 6 vine in all five representations, one file each."""
    v = gen.random_vine("abcdef", random.Random(seed))
    L = lt.vine_to_lattice(v)
    paths = {}
    for obj in (co.vine_to_graph(v), v, co.vine_to_domain(v), L, lt.lattice_to_matrix(L)):
        path = tmp_path / f"{io.kind_of(obj)}.json"
        path.write_text(io.dumps(obj))
        paths[io.kind_of(obj)] = str(path)
    return paths


def test_convert_and_analyze_validate_no_object_twice(five_files, traffic, capsys):
    argvs = [["convert", path, "--to", to, "--via", via]
             for path in five_files.values() for to in io.KINDS for via in ("direct", "transport")]
    argvs += [["analyze", path] for path in five_files.values()]
    for argv in argvs:
        traffic.clear()
        assert cli.main(argv) == 0, argv
        assert traffic, argv  # the input is checked
        assert max(Counter(id(x) for _, x in traffic).values()) == 1, argv
    capsys.readouterr()


def test_analyze_finds_each_vines_covers_once(five_files, monkeypatch, capsys):
    """One `_mask_covers` call on the vine's 21 nodes per op, whatever the
    input kind, and one on a lattice's 22 elements, which its validator caches."""
    sizes = []
    mask_covers = vn._mask_covers
    monkeypatch.setattr(vn, "_mask_covers", lambda masks: sizes.append(len(masks)) or mask_covers(masks))
    for kind, path in five_files.items():
        sizes.clear()
        assert cli.main(["analyze", path, "--format", "json"]) == 0
        assert sorted(sizes) == ([21, 22] if kind == "lattice" else [21]), kind
    capsys.readouterr()


def test_analyze_runs_no_kernel_and_one_level_degree_pass(five_files, monkeypatch, capsys):
    """|Aut| comes from the co-atom descent, not the canonical-form kernel's
    chain scan, and the D-vine flag and the axis share one level-degree pass."""
    calls = Counter()
    for mod, name in ((gen, "_scan"), (vn, "_level_degrees")):
        f = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=f, _name=name: calls.update([_name]) or _f(*a))
    for kind, path in five_files.items():
        calls.clear()
        assert cli.main(["analyze", path, "--format", "json"]) == 0
        assert calls == Counter({"_level_degrees": 1}), kind
    capsys.readouterr()


def test_convert_and_verify_strict_find_the_graphs_cliques_once(five_files, monkeypatch, capsys):
    """The validator and the map to the vine share one view of the input
    graph: one principal-clique build per op, and none twice for any
    graph."""
    built, loaded = [], []
    index_view, load_file = mg._index_view, io.load_file
    monkeypatch.setattr(mg, "_index_view", lambda g: built.append(g) or index_view(g))
    monkeypatch.setattr(io, "load_file", lambda path: loaded.append(load_file(path)) or loaded[-1])
    for argv in (["convert", five_files["matgraph"], "--to", "domain"], ["verify", "--strict", five_files["matgraph"]]):
        built.clear()
        loaded.clear()
        assert cli.main(argv) == 0, argv
        (g,) = loaded
        assert [x for x in built if x is g] == [g], argv
        assert len({id(x) for x in built}) == len(built), argv
    capsys.readouterr()


def test_verify_strict_validates_every_first_leg_output(five_files, traffic, monkeypatch, capsys):
    """Every first-leg output is validated once, by the public back leg, and
    no object is validated twice."""
    convert, legs = routes.convert_structure, []

    def recording(obj, *args):
        legs.append(obj)
        return convert(obj, *args)

    # the CLI hands each first leg's output to the public back leg
    monkeypatch.setattr(routes, "convert_structure", recording)
    for kind, path in five_files.items():
        traffic.clear()
        legs.clear()
        assert cli.main(["verify", "--strict", path]) == 0
        assert sorted(io.kind_of(out) for out in legs) == sorted(k for k in io.KINDS if k != kind)
        validated = Counter(id(x) for _, x in traffic)
        assert [validated[id(out)] for out in legs] == [1] * len(legs), kind
        assert max(validated.values()) == 1, kind
    capsys.readouterr()


def test_verify_strict_maps_its_input_to_the_vine_once(five_files, monkeypatch, capsys):
    """The first legs all start from one vine of the input: strict verify
    calls its row's `to_vine` once, on the input."""
    for kind, path in five_files.items():
        row, calls = sp.SPECIES[kind], []
        monkeypatch.setattr(row, "to_vine",
                            lambda x, _calls=calls, _to_vine=row.to_vine: _calls.append(x) or _to_vine(x))
        assert cli.main(["verify", "--strict", path]) == 0
        assert [io.kind_of(x) for x in calls] == [kind], kind
    capsys.readouterr()


def test_catalog_validates_no_representative(traffic):
    """`_doubled_classes` checks each doubling on masks, so the catalog runs
    no vine validator on the representatives it reads."""
    entries = list(gen.catalog_entries(5))
    assert len(entries) == gen.unlabeled_count_formula(5)
    assert [name for name, _ in traffic if name == "validate_vine"] == []


def test_doubling_checks_its_lattice_once(traffic, seed):
    L = lt.vine_to_lattice(gen.random_vine("abcde", random.Random(seed)))
    chain = lt.maximal_chains_of_lattice(L)[0]
    traffic.clear()
    lt.doubling(L, chain)
    assert [name for name, x in traffic if x is L] == ["is_lattice"]
