"""Workload definitions: seeded corpora, fixed op lists and their expected outcomes.

Every expected outcome is derived from how the input was built, never from
vinery's own output.  The five renderings of a vine are computed here from
its node set alone (the documented JSON envelope), so a `convert` to any kind
must reproduce the corpus file of that kind byte for byte; that covers both
`--via direct` against `--via transport` and the round trip back to the
source kind.  `--format text` output is rendered here too; dot output must
agree between the two routes.  Mutated files violate named axioms by
construction.

Only `generate.random_vine` and the public job entry points come from vinery.
"""

from __future__ import annotations

import json
import math
import os
import random
import string
from collections import Counter
from typing import NamedTuple

KINDS = ("matgraph", "vine", "domain", "lattice", "matrix")
DOT_KINDS = ("matgraph", "vine", "lattice")

# (n, vines, recipe). Small n dominate the op count (per-op overhead,
# op_p50_ms); n = 10..12 dominate the time (validation, MAT-PEO enumeration,
# transport: wall_s, op_p95_ms).  The mix is fixed; the seed picks the vines.
CONVERT_MIX = ((4, 4, "full"), (5, 3, "full"), (6, 2, "full"), (7, 1, "full"),
               (8, 1, "sampled"), (9, 1, "sampled"), (10, 1, "sampled"),
               (11, 1, "sampled"), (12, 1, "sampled"))
# n of the files mutated into each kind's provably invalid form.
INVALID_N = (4, 5, 6, 7, 8)
# n of the matgraph files whose top-label edge is dropped.  Plain `verify`
# wrongly accepts them (a known defect), so those ops are probes, not scored.
EDGE_DROPPED_N = (4, 6, 8)
# Every analyze input is a vine rendered in all five kinds.  n = 8 makes the
# n!-relabeling automorphism scan dominate; the counts leave >= 10 ops above p95.
ANALYZE_MIX = ((4, 18), (5, 15), (6, 8), (7, 2), (8, 1))
# Target of the one conversion per kind in the "sampled" recipe: graph to
# domain is the MAT-PEO enumeration; the rest cover the other explicit maps.
SAMPLED_TARGET = {"matgraph": "domain", "vine": "matgraph", "domain": "vine",
                  "lattice": "matrix", "matrix": "lattice"}

# Smaller settings for the smoke mode.
TINY_CONVERT_MIX = ((4, 1, "full"), (5, 1, "sampled"))
TINY_INVALID_N = (4,)
TINY_EDGE_DROPPED_N = (4,)
TINY_ANALYZE_MIX = ((4, 2), (5, 1))


# Expectations of ops that succeed; their exact output bytes are the product.
SUCCESS = ("stdout", "same", "analyze")


class Op(NamedTuple):
    argv: tuple       # arguments for vinery.cli.main
    tag: str          # valid | invalid | malformed | edge-dropped
    expect: tuple     # see check_ops


# ------------------------------------------------------------ vine renderings

def _by_rank(s: frozenset) -> tuple:
    return (len(s), sorted(s))


def _children(nodes: frozenset) -> dict:
    """The two rank-(k-1) nodes below each node of rank k >= 2."""
    ranks: dict[int, list] = {}
    for s in nodes:
        ranks.setdefault(len(s), []).append(s)
    return {s: [t for t in ranks[len(s) - 1] if t < s] for s in nodes if len(s) > 1}


def chain_orders(ground: frozenset, nodes: frozenset) -> list[tuple]:
    """One linear order per maximal chain: elements in the order the chain adds them."""
    children = _children(nodes)

    def orders(s):
        if len(s) == 1:
            return [tuple(s)]
        return [w + tuple(s - t) for t in children[s] for w in orders(t)]

    return sorted(orders(ground))


def render(ground: frozenset, nodes: frozenset, kind: str) -> dict:
    """The JSON document of the vine in the given representation."""
    g = sorted(ground)
    ordered = sorted(nodes, key=_by_rank)
    if kind == "vine":
        return {"kind": kind, "ground": g, "nodes": [sorted(s) for s in ordered]}
    if kind == "lattice":
        return {"kind": kind, "ground": g, "nodes": [[]] + [sorted(s) for s in ordered]}
    if kind == "matrix":
        cols = [frozenset()] + ordered
        return {"kind": kind, "rows": g,
                "columns": sorted("".join("1" if r in s else "0" for r in g) for s in cols)}
    if kind == "domain":
        return {"kind": kind, "alternatives": g,
                "preferences": [list(w) for w in chain_orders(ground, nodes)]}
    # matgraph: a pair's label is the rank of the least node holding both, minus one
    label = {}
    for s in ordered:
        for a in s:
            for b in s:
                if a < b and (a, b) not in label:
                    label[(a, b)] = len(s) - 1
    return {"kind": kind, "vertices": g,
            "edges": [{"u": u, "v": v, "label": label[(u, v)]} for (u, v) in sorted(label)]}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def text_of(doc: dict) -> str:
    """The documented `--format text` rendering of a document."""
    kind = doc["kind"]
    if kind in ("vine", "lattice"):
        lines = ["{" + ",".join(s) + "}" for s in doc["nodes"]]
    elif kind == "matgraph":
        lines = [f"{e['u']} {e['v']} {e['label']}" for e in doc["edges"]]
    elif kind == "matrix":
        lines = ["".join(col[r] for col in doc["columns"]) for r in range(len(doc["rows"]))]
    else:  # domain: one column per preference, rank 1 on top
        prefs = doc["preferences"]
        width = max(len(x) for w in prefs for x in w)
        lines = [" ".join(w[r].rjust(width) for w in prefs) for r in range(len(doc["alternatives"]))]
    return "\n".join(lines) + "\n"


def invariants(ground: frozenset, nodes: frozenset) -> tuple[tuple, int, dict, list]:
    """(canonical encoding, |Aut|, first-rank counts, bottom alternatives).

    The encoding is the least node-set encoding over the labelings that the
    maximal chains induce; the chains reaching it are one orbit of Aut.
    """
    orders = chain_orders(ground, nodes)
    encodings = []
    for w in orders:
        pos = {x: i for i, x in enumerate(w)}
        encodings.append(tuple(sorted(tuple(sorted(pos[x] for x in s)) for s in nodes)))
    best = min(encodings)
    first = Counter(w[0] for w in orders)
    return best, encodings.count(best), {a: first[a] for a in sorted(ground)}, sorted({w[-1] for w in orders})


def labeled_count(n: int) -> int:
    """n!/2 * 2^((n-2)(n-3)/2) labeled regular vines (Morales-Napoles, 2011)."""
    return 1 if n <= 1 else math.factorial(n) // 2 * 2 ** ((n - 2) * (n - 3) // 2)


# ------------------------------------------------------------- mutations

def _drop_one(items: list, rng: random.Random, keep) -> list:
    candidates = [i for i, x in enumerate(items) if keep(x)]
    drop = rng.choice(candidates)
    return [x for i, x in enumerate(items) if i != drop]


def mutate(doc: dict, n: int, rng: random.Random) -> tuple[dict, tuple]:
    """A provably invalid variant of a valid document and the axioms it violates."""
    doc = json.loads(json.dumps(doc))
    kind = doc["kind"]
    middle = lambda s: 2 <= len(s) <= n - 1  # noqa: E731 - neither an atom, the bottom nor the top
    if kind == "vine":
        # one rank-k node gone: rank k is one short, and a node above it loses a cover
        doc["nodes"] = _drop_one(doc["nodes"], rng, middle)
        return doc, ("vine.grading", "vine.two-covers")
    if kind == "lattice":
        # one element short of the extremal size 1 + n + C(n, 2)
        doc["nodes"] = _drop_one(doc["nodes"], rng, middle)
        return doc, ("lattice.size", "lattice.lattice", "lattice.join-irreducibles")
    if kind == "matrix":
        doc["columns"] = _drop_one(doc["columns"], rng, lambda c: 2 <= c.count("1") <= n - 1)
        return doc, ("matrix.size",)
    if kind == "domain":
        # a subset of an ASPD is an ASPD, so only the size 2^(n-1) breaks
        doc["preferences"] = _drop_one(doc["preferences"], rng, lambda w: True)
        return doc, ("domain.maximal-size",)
    # matgraph: an edge labeled n needs n-1 lower triangles; n vertices allow n-2
    rng.choice(doc["edges"])["label"] = n
    return doc, ("matgraph.triangles",)


def drop_top_edge(doc: dict) -> dict:
    """The graph without its unique top-label edge: MAT axioms still hold, completeness fails."""
    doc = json.loads(json.dumps(doc))
    top = max(e["label"] for e in doc["edges"])
    doc["edges"] = [e for e in doc["edges"] if e["label"] != top]
    return doc


# --------------------------------------------------------------- corpora

class Corpus(NamedTuple):
    ops: list         # scored ops, in run order
    probes: list      # known-defect ops, run and checked apart from the scored ones
    warmup: Op        # a cheap op run once before timing
    files: int
    bytes: int


def _corpus(ops: list, probes: list, w: "_Writer", rng: random.Random) -> Corpus:
    """Shuffled, so every part of the mix is spread over the whole pass and
    slow drifts of the host's speed hit all parts alike."""
    warmup = ops[0]
    ops = list(ops)
    rng.shuffle(ops)
    return Corpus(ops, probes, warmup, w.files, w.bytes)


def _rng(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"vinery-bench:{workload}:{seed}:{slot}")


def _vine(gen, n: int, rng: random.Random):
    v = gen.random_vine(string.ascii_lowercase[:n], rng)
    return v.ground, v.nodes


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files = 0
        self.bytes = 0

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files += 1
        self.bytes += len(text)
        return path


def _valid_ops(paths: dict, docs: dict, n: int, recipe: str) -> list[Op]:
    texts = {k: dumps(doc) for k, doc in docs.items()}
    ops = []
    for i, src in enumerate(KINDS):
        p = paths[src]
        ops.append(Op(("verify", p), "valid", ("stdout", f"VALID {src}\n")))
        if recipe == "sampled":
            # one conversion per kind; the route alternates with n to bound the time
            via = "transport" if n % 2 else "direct"
            to = SAMPLED_TARGET[src]
            ops.append(Op(("convert", p, "--to", to, "--via", via), "valid", ("stdout", texts[to])))
            continue
        ops.append(Op(("verify", "--strict", p), "valid",
                      ("stdout", f"VALID {src} (strict: all round trips pass)\n")))
        for to in KINDS:
            if to != src:
                for via in ("direct", "transport"):
                    ops.append(Op(("convert", p, "--to", to, "--via", via), "valid", ("stdout", texts[to])))
        text_to = KINDS[(i + 1) % len(KINDS)]
        dot_to = [k for k in DOT_KINDS if k != src][i % 2]
        for via in ("direct", "transport"):
            ops.append(Op(("convert", p, "--to", text_to, "--via", via, "--format", "text"),
                          "valid", ("stdout", text_of(docs[text_to]))))
            # dot has no independent rendering here: the two routes must agree
            ops.append(Op(("convert", p, "--to", dot_to, "--via", via, "--format", "dot"),
                          "valid", ("same", f"{p}>{dot_to}.dot")))
    return ops


def build_convert(gen, workdir: str, seed: int, tiny: bool = False) -> Corpus:
    mix, invalid_n, dropped_n = ((TINY_CONVERT_MIX, TINY_INVALID_N, TINY_EDGE_DROPPED_N) if tiny
                                 else (CONVERT_MIX, INVALID_N, EDGE_DROPPED_N))
    w = _Writer(workdir)
    ops: list[Op] = []
    probes: list[Op] = []
    slot = 0
    for n, count, recipe in mix:
        for _ in range(count):
            ground, nodes = _vine(gen, n, _rng("convert", seed, f"vine{slot}"))
            docs = {k: render(ground, nodes, k) for k in KINDS}
            paths = {k: w.write(f"v{slot:02d}-n{n}-{k}.json", dumps(docs[k])) for k in KINDS}
            ops.extend(_valid_ops(paths, docs, n, recipe))
            slot += 1
    for n in invalid_n:
        rng = _rng("convert", seed, f"invalid{n}")
        ground, nodes = _vine(gen, n, rng)
        for i, kind in enumerate(KINDS):
            doc, axioms = mutate(render(ground, nodes, kind), n, rng)
            p = w.write(f"x-n{n}-{kind}.json", dumps(doc))
            to = KINDS[(i + 1) % len(KINDS)]
            for argv in (("verify", p), ("verify", "--strict", p),
                         ("convert", p, "--to", to), ("convert", p, "--to", to, "--via", "transport")):
                ops.append(Op(argv, "invalid", ("axiom", axioms)))
    for n in dropped_n:
        ground, nodes = _vine(gen, n, _rng("convert", seed, f"dropped{n}"))
        p = w.write(f"e-n{n}-matgraph.json", dumps(drop_top_edge(render(ground, nodes, "matgraph"))))
        expect = ("axiom", ("matgraph.complete",))
        for argv in (("verify", "--strict", p), ("convert", p, "--to", "vine"),
                     ("convert", p, "--to", "domain", "--via", "transport")):
            ops.append(Op(argv, "edge-dropped", expect))
        probes.append(Op(("verify", p), "edge-dropped", expect))
    rng = _rng("convert", seed, "malformed")
    for kind in KINDS:
        ground, nodes = _vine(gen, 5, rng)
        text = dumps(render(ground, nodes, kind))
        p = w.write(f"m-{kind}.json", text[: rng.randrange(1, len(text) - 2)])
        for argv in (("verify", p), ("convert", p, "--to", "vine")):
            ops.append(Op(argv, "malformed", ("exit", 2)))
    return _corpus(ops, probes, w, _rng("convert", seed, "order"))


def build_analyze(gen, workdir: str, seed: int, tiny: bool = False) -> Corpus:
    w = _Writer(workdir)
    ops: list[Op] = []
    slot = 0
    for n, count in (TINY_ANALYZE_MIX if tiny else ANALYZE_MIX):
        for _ in range(count):
            ground, nodes = _vine(gen, n, _rng("analyze", seed, f"vine{slot}"))
            _, aut, first, bottoms = invariants(ground, nodes)
            facts = {"n": n, "aut_order": aut, "first_rank": first, "bottom_alternatives": bottoms}
            for kind in KINDS:
                p = w.write(f"a{slot:02d}-n{n}-{kind}.json", dumps(render(ground, nodes, kind)))
                ops.append(Op(("analyze", p, "--format", "json"), "valid", ("analyze", slot, kind, facts)))
            slot += 1
    return _corpus(ops, [], w, _rng("analyze", seed, "order"))


# ------------------------------------------------------------------ checks

def _axiom(stdout: str, stderr: str) -> str | None:
    """The axiom named on the first diagnostic line (`INVALID a: ...` or `error: a: ...`)."""
    for text in (stdout, stderr):
        line = text.split("\n", 1)[0]
        for prefix in ("INVALID ", "error: "):
            if line.startswith(prefix) and ":" in line[len(prefix):]:
                return line[len(prefix):].split(":", 1)[0]
    return None


def check_ops(ops: list[Op], results: list[tuple]) -> list[bool]:
    """Per-op verdict; results are (exit code, stdout, stderr) in op order."""
    ok = []
    pairs: dict[str, str] = {}
    analyses: dict[int, dict] = {}
    for op, (code, out, err) in zip(ops, results):
        kind = op.expect[0]
        if kind == "stdout":
            good = code == 0 and out == op.expect[1]
        elif kind == "axiom":
            good = code == 1 and _axiom(out, err) in op.expect[1]
        elif kind == "exit":
            good = code == op.expect[1]
        elif kind == "same":
            first = pairs.setdefault(op.expect[1], out)
            good = code == 0 and bool(out) and out == first
        else:
            good = code == 0 and _analysis_ok(op, out, analyses)
        ok.append(good)
    return ok


def _analysis_ok(op: Op, out: str, analyses: dict) -> bool:
    _, slot, kind, facts = op.expect
    try:
        info = json.loads(out)
    except json.JSONDecodeError:
        return False
    if info.get("kind") != kind or ("cross_checks" in info) != (kind == "domain"):
        return False
    if any(info.get(key) != value for key, value in facts.items()):
        return False
    shared = {k: v for k, v in info.items() if k not in ("kind", "cross_checks")}
    return analyses.setdefault(slot, shared) == shared


# -------------------------------------------------------------------- jobs

# workload -> (n, n in the smoke mode).  Each job runs alone in a fresh
# interpreter, so the counting DP's module-level memo starts empty.
JOBS = {"reps7": (7, 5), "count8": (8, 6), "generate6": (6, 4)}


def run_job(workload: str, mods: dict, n: int, call_cli):
    if workload == "reps7":
        return mods["generate"].class_representatives(n)
    if workload == "count8":
        return mods["generate"].count_vines(n)
    return call_cli(mods["cli"], ("count", "--n", str(n), "--mode", "generate"))


def check_job(workload: str, n: int, result, gen) -> bool:
    total = labeled_count(n)
    if workload == "count8":
        return result == total == gen.labeled_count_formula(n)
    if workload == "generate6":
        return result == (0, f"n={n} labeled={total} (agrees with formula value {total})\n", result[2])
    # reps7: pairwise non-isomorphic, |Aut| split as the (p_n, q_n) recursion
    # says, and the orbits n!/|Aut| add up to the labeled count
    ground = frozenset(string.ascii_lowercase[:n])
    forms, auts = set(), Counter()
    for v in result:
        if v.ground != ground or len(v.nodes) != n * (n + 1) // 2:
            return False
        try:
            form, aut, _, _ = invariants(v.ground, v.nodes)
        except (KeyError, ValueError):
            return False
        forms.add(form)
        auts[aut] += 1
    p, q = gen.recursive_pq_counts(n)
    return (len(forms) == len(result) == p + q and auts == Counter({2: p, 1: q})
            and sum(math.factorial(n) // a * k for a, k in auts.items()) == total)


def job_output(workload: str, result) -> str:
    """The job's output as text, for the recorded digest."""
    if workload == "reps7":
        return dumps({"reps": [[sorted(s) for s in sorted(v.nodes, key=_by_rank)] for v in result]})
    if workload == "count8":
        return f"{result}\n"
    return f"{result[0]}\n{result[1]}"
