"""Command-line front end.

Subcommands: verify, convert, analyze, count, catalog, selftest.
Exit codes: 0 success; 1 a structural failure or an internal
inconsistency, every parser refusal that names an axiom (`parse.payload`,
`parse.duplicate`, ...) included; 2 malformed JSON, undecodable bytes, an
`OSError` or a usage error that argparse reports.
All output is canonically ordered, so runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import string
import sys

from . import domain as dm
from . import generate as gen
from . import lattice as lt
from . import matgraph as mg
from . import routes
from . import serialize as io
from . import species as sp
from . import vine as vn
from .errors import InternalInconsistencyError, StructureError


def _emit(obj, fmt: str) -> str:
    if fmt == "json":
        return io.dumps(obj)
    if fmt == "text":
        return io.to_text(obj)
    return io.to_dot(obj)  # argparse's choices admit no other format


def cmd_verify(args) -> int:
    obj = io.load_file(args.path)
    row = sp.species_of(obj)
    if args.kind and row.name != args.kind:
        print(f"kind mismatch: file holds {row.name}, expected {args.kind}", file=sys.stderr)
        return 1
    report = row.report(obj)
    if report:
        for x in report:
            print(f"INVALID {x.axiom}: {x.message}")
        return 1
    if args.strict:
        v, text = row.to_vine(obj), io.dumps(obj)
        for G in sp.SPECIES.values():
            if G is row:
                continue
            # the public back leg checks the first leg's output
            back = routes.convert_structure(G.from_vine(v), row.name, "direct")
            if io.dumps(back) != text:
                print(f"INVALID roundtrip.{G.name}: conversion does not round-trip")
                return 1
        print(f"VALID {row.name} (strict: all round trips pass)")
        return 0
    print(f"VALID {row.name}")
    return 0


def _load_valid(path: str):
    """The structure in the file, or None once its first violation is on stderr."""
    obj = io.load_file(path)
    report = sp.species_of(obj).report(obj)
    if report:
        print(f"INVALID {report[0].axiom}: {report[0].message}", file=sys.stderr)
        return None
    return obj


def cmd_convert(args) -> int:
    obj = _load_valid(args.path)
    if obj is None:
        return 1
    out = routes._convert_structure(obj, args.to, args.via)
    sys.stdout.write(_emit(out, args.format))
    return 0


def cmd_analyze(args) -> int:
    obj = _load_valid(args.path)
    if obj is None:
        return 1
    row = sp.species_of(obj)
    # v is valid: the input passed its validator and the maps keep validity
    v = row.to_vine(obj)
    # the domain's bottoms and Black axis are read off the vine
    facts = vn._analytics(v)
    axis = vn._bspd_axis(v, facts["is_d_vine"])
    info = {
        "kind": row.name,
        "n": v.n,
        "richness_bounds_note": None if v.n >= 3 else "richness bounds apply for n >= 3 only",
        "bottom_alternatives": vn._bottom_alternatives(v),
        "is_bspd": axis is not None,
        "bspd_axis": list(axis) if axis is not None else None,
        "aut_order": lt._automorphism_group_order(v),
        **facts,
    }
    if row is sp.DOMAIN:
        # domain-side cross-checks against the vine-side analytics
        if dm.richness_direct(obj) != info["richness"]:
            raise InternalInconsistencyError("richness cross-check failed")
        if dm.first_rank_distribution(obj) != info["first_rank"]:
            raise InternalInconsistencyError("first-rank cross-check failed")
        info["cross_checks"] = "domain-side richness and first-rank agree"
    if args.format == "json":
        print(json.dumps(info, sort_keys=True))
    else:
        for key in sorted(info):
            if info[key] is not None:
                print(f"{key}: {info[key]}")
    return 0


def cmd_count(args) -> int:
    n = args.n
    if args.mode == "generate":
        if not 0 <= n <= gen.COUNT_CAP:
            print(f"generate mode capped at 0 <= n <= {gen.COUNT_CAP}", file=sys.stderr)
            return 1
        if n <= 6:
            # one mask list per labeled vine: count the stream itself, since
            # building each vine's frozenset nodes only to drop them would
            # take about three times as long
            total = 0
            for _ in gen._vine_mask_stream(n):
                total += 1
                if total % 5000 == 0:
                    print(f"... {total} vines", file=sys.stderr)
        else:
            print("... counting by shape-weighted DP", file=sys.stderr)
            total = gen.count_vines(n)
        expected = gen.labeled_count_formula(n)
        status = "agrees with" if total == expected else "DISAGREES WITH"
        print(f"n={n} labeled={total} ({status} formula value {expected})")
        return 0 if total == expected else 1
    if n > 64:
        print("formula/recursive modes capped at n <= 64", file=sys.stderr)
        return 1
    labeled = gen.labeled_count_formula(n)
    unlabeled = gen.unlabeled_count_formula(n)
    p, q = gen.recursive_pq_counts(n)
    if args.mode == "recursive":
        print(f"n={n} unlabeled={p + q} p={p} q={q}")
        return 0
    print(f"n={n} labeled={labeled} unlabeled={unlabeled} p={p} q={q}")
    return 0


def cmd_catalog(args) -> int:
    n = args.n
    if not 1 <= n <= gen.CATALOG_CAP:
        print(f"catalog supports 1 <= n <= {gen.CATALOG_CAP}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    entries = gen.catalog_entries(n)  # the class table and its checks, before any file is opened
    jsonl_path = os.path.join(args.out, f"catalog_n{n}.jsonl")
    text_path = os.path.join(args.out, f"catalog_n{n}.txt")
    count = 0
    with open(jsonl_path, "w", encoding="utf-8") as jsonl, open(text_path, "w", encoding="utf-8") as text:
        for count, entry in enumerate(entries, 1):
            jsonl.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
            text.write(f"== class {entry['index']} (n={n}, |Aut|={entry['aut_order']}, "
                       f"orbit {entry['orbit_size']}) ==\n")
            text.write("vine:   " + " ".join("{" + ",".join(s) + "}" for s in entry["vine_nodes"]) + "\n")
            text.write("graph:  " + " ".join(f"{e['u']}{e['v']}:{e['label']}" for e in entry["graph_edges"]) + "\n")
            text.write("domain:\n")
            for r in range(n):
                text.write("  " + " ".join(w[r] for w in entry["preferences"]) + "\n")
            text.write("matrix columns: " + " ".join(entry["matrix_columns"]) + "\n")
            text.write(f"richness {entry['richness']}  first-rank {entry['first_rank']}  "
                       f"D-vine {entry['is_d_vine']}  C-vine {entry['is_c_vine']}\n\n")
    print(f"wrote {count} entries to {jsonl_path} and {text_path}")
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    for n in range(1, 7):
        got = sum(1 for _ in gen._vine_mask_stream(n))
        check(f"labeled count n={n}", got == gen.labeled_count_formula(n))
    for n in range(7, gen.COUNT_CAP + 1):
        check(f"counting DP agrees with formula n={n}", gen.count_vines(n) == gen.labeled_count_formula(n))
    for n in range(1, 13):
        p, q = gen.recursive_pq_counts(n)
        check(f"formula/recursion agree n={n}", p + q == gen.unlabeled_count_formula(n))
    intro = mg.mat_graph("abcd", [("a", "b", 1), ("a", "c", 2), ("a", "d", 3),
                                  ("b", "c", 1), ("b", "d", 1), ("c", "d", 2)])
    v = routes.convert_structure(intro, "vine", "direct")
    check("intro graph is valid", not mg.validate_mat_labeling(intro))
    check("intro graph -> vine -> graph round trip",
          routes.convert_structure(v, "matgraph", "direct") == intro)
    check("transport equals explicit map",
          sp.transport(sp.GRAPH, sp.VINE, intro) == v)
    d = routes.convert_structure(intro, "domain", "transport")
    check("intro domain is a maximal ASPD", not dm.validate_domain(d))
    L = lt.vine_to_lattice(v)
    M = lt.lattice_to_matrix(L)
    check("intro lattice is (4,3)-extremal", not lt.validate_lattice(L))
    check("intro matrix is extremal", not lt.validate_matrix(M))
    check("transport equals explicit map: lattice -> matrix", sp.transport(sp.LATTICE, sp.MATRIX, L) == M)
    check("transport equals explicit map: matrix -> domain",
          sp.transport(sp.MATRIX, sp.DOMAIN, M) == routes.convert_structure(M, "domain", "direct") == d)
    check("n=4 classification finds 2 classes",
          len(gen.classify(gen.generate_vines("abcd"))) == 2)
    for n in range(1, 6):
        enumerated = gen.classify(gen.generate_vines(string.ascii_lowercase[:n]))
        check(f"doubling and enumeration find the same classes n={n}",
              gen.class_representatives(n) == [c.representative for c in enumerated])
    print("selftest:", "OK" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="vinery",
                                     description="Regular vines and their equivalent structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a structure file against its family axioms")
    p.add_argument("path")
    p.add_argument("--kind", choices=io.KINDS)
    p.add_argument("--strict", action="store_true", help="also require cross-representation round trips")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert a structure file to another representation")
    p.add_argument("path")
    p.add_argument("--to", required=True, choices=io.KINDS)
    p.add_argument("--via", choices=("direct", "transport"), default="direct")
    p.add_argument("--format", choices=("json", "text", "dot"), default="json")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("analyze", help="richness, first-rank distribution, flags, automorphisms")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("count", help="labeled/unlabeled counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("formula", "recursive", "generate"), default="formula")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("catalog", help="write the per-class catalog for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="run a quick internal consistency battery")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
