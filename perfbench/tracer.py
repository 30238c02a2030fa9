"""Per-layer tracing of vinery from outside the package.

`install` replaces every public function of each vinery module, and the
methods of the species classes, by a timing wrapper, through module and
class attributes; dict values that captured a function at import time (the
conversion table in `routes`) are replaced too.  A wrapped call records its
duration, the time covered by wrapped calls it made (so self time is the
difference), and a span (id, parent span, op id, function, start, end).
Generator functions are timed per `next`.  Leaf helpers that run inside
inner loops are kept as counters only, so the span list stays small.

Nothing is recorded while `Tracer.active` is false.  The sum of all self
times equals the summed duration of the outermost calls, so per workload the
layers account for the traced wall time except the harness's own work.
"""

from __future__ import annotations

import inspect
from time import perf_counter

LAYERS = ("cli", "serialize", "routes", "correspond", "species",
          "vine", "matgraph", "domain", "lattice", "generate")

# Inner-loop leaves: counted and timed, no span each.
AGGREGATED = frozenset({
    "vine.covered_by", "vine.relabel_vine", "domain.restrict_domain",
    "matgraph.triangle_partners", "matgraph.induced_subgraph",
    "lattice.join", "lattice.meet", "lattice.covered_elements",
    "generate.tree_shape", "generate.prufer_trees", "generate.spanning_trees",
})
# Not wrapped: the unordered-edge key normalizer is called several times per
# step of the MAT-PEO search and would mostly time the wrapper; its time falls
# to its caller, which is in the same layer.
UNWRAPPED = frozenset({"matgraph.edge_key"})
# Functions whose argument or result size is summed (`FnStats.size`).
_SIZES = {
    "serialize.loads": lambda args, result: len(args[0].encode("utf-8")),
    "serialize.dumps": lambda args, result: len(result.encode("utf-8")),
    "serialize.to_text": lambda args, result: len(result.encode("utf-8")),
    "serialize.to_dot": lambda args, result: len(result.encode("utf-8")),
    "matgraph.enumerate_mat_peos": lambda args, result: len(result),
}


class FnStats:
    __slots__ = ("index", "name", "layer", "calls", "yields", "self_s", "incl_s", "depth", "errors",
                 "size", "size_of")

    def __init__(self, index: int, name: str, layer: str):
        self.index, self.name, self.layer = index, name, layer
        self.size_of = _SIZES.get(name)
        self.calls = self.yields = self.depth = self.errors = self.size = 0
        self.self_s = self.incl_s = 0.0


class Tracer:
    def __init__(self, error_type: type):
        self.error_type = error_type
        self.active = False
        self.op = -1
        self.stats: list[FnStats] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # open calls: [start, child time, span id]
        self._next_id = 0
        self._last_error = None

    def _stat(self, name: str, layer: str) -> FnStats:
        st = FnStats(len(self.stats), name, layer)
        self.stats.append(st)
        return st

    def timed(self, st: FnStats, keep_span: bool, fn, args, kwargs, is_next: bool = False):
        stack = self._stack
        frame = [perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        st.depth += 1
        try:
            result = fn(*args, **kwargs)
        except self.error_type as exc:
            if exc is not self._last_error:  # count once, where it first leaves a wrapped call
                self._last_error = exc
                st.errors += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[0]
            st.calls += 1
            st.self_s += dur - frame[1]
            st.depth -= 1
            if not st.depth:
                st.incl_s += dur
            parent = -1
            if stack:
                stack[-1][1] += dur
                parent = stack[-1][2]
            if keep_span:
                self.spans.append((frame[2], parent, self.op, st.index, frame[0], end))
        if is_next:
            st.yields += 1
        if st.size_of is not None:
            st.size += st.size_of(args, result)
        return result

    def get(self, name: str) -> FnStats:
        """Stats of one wrapped function; all zero if vinery no longer has it."""
        for st in self.stats:
            if st.name == name:
                return st
        return FnStats(-1, name, name.split(".", 1)[0])

    def layer(self, layer: str) -> list[FnStats]:
        return [st for st in self.stats if st.layer == layer]


class _TracedIterator:
    __slots__ = ("tracer", "stat", "keep_span", "inner")

    def __init__(self, tracer, stat, keep_span, inner):
        self.tracer, self.stat, self.keep_span, self.inner = tracer, stat, keep_span, inner

    def __iter__(self):
        return self

    def __next__(self):
        if not self.tracer.active:
            return next(self.inner)
        return self.tracer.timed(self.stat, self.keep_span, next, (self.inner,), {}, is_next=True)


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    st = tracer._stat(name, layer)
    keep_span = name not in AGGREGATED
    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, st, keep_span, fn(*args, **kwargs))
    else:
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.timed(st, keep_span, fn, args, kwargs)
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__wrapped__ = fn
    return traced


def install(modules: dict, error_type: type) -> Tracer:
    """Wrap the public functions of the given {layer: module} map in place."""
    tracer = Tracer(error_type)
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            new = _wrap(tracer, name, layer, obj)
            wrapped[id(obj)] = new
            setattr(mod, attr, new)
        for cls_name, cls in list(vars(mod).items()):
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__ and cls_name.endswith("Species")):
                continue
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, attr, _wrap(tracer, f"{layer}.{cls_name}.{attr}", layer, obj))
    for mod in modules.values():
        for value in vars(mod).values():
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    return tracer


# Validators whose calls per op show repeated validation (1 per op is the floor).
VALIDATORS = ("vine.validate_vine", "matgraph.validate_mat_labeling", "domain.is_aspd", "lattice.is_lattice")


def layer_metrics(tracer: Tracer, ops: int, wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass of `ops` ops taking `wall_s`."""
    get = tracer.get
    m: dict = {}
    for layer in LAYERS:
        stats = tracer.layer(layer)
        m[f"{layer}.calls"] = sum(st.calls for st in stats)
        m[f"{layer}.self_s"] = sum(st.self_s for st in stats)
        m[f"{layer}.errors"] = sum(st.errors for st in stats)
    species = {verb: sum(st.calls for st in tracer.layer("species") if st.name.endswith("Species." + verb))
               for verb in ("split", "merge", "validate")}
    m.update({
        "serialize.bytes_in": get("serialize.loads").size,
        "serialize.bytes_out": sum(get(f"serialize.{f}").size for f in ("dumps", "to_text", "to_dot")),
        "species.transport_calls": get("species.transport").calls,
        "species.split_calls": species["split"],
        "species.merge_calls": species["merge"],
        "species.validate_calls": species["validate"],
        "vine.validate_calls": get("vine.validate_vine").calls,
        "vine.validate_s": get("vine.validate_vine").incl_s,
        "vine.covered_by_calls": get("vine.covered_by").calls,
        "vine.relabel_calls": get("vine.relabel_vine").calls,
        "matgraph.validate_calls": get("matgraph.validate_mat_labeling").calls,
        "matgraph.validate_s": get("matgraph.validate_mat_labeling").incl_s,
        "matgraph.peo_calls": get("matgraph.enumerate_mat_peos").calls,
        "matgraph.peos": get("matgraph.enumerate_mat_peos").size,
        "matgraph.peo_s": get("matgraph.enumerate_mat_peos").incl_s,
        "domain.aspd_calls": get("domain.is_aspd").calls,
        "domain.aspd_s": get("domain.is_aspd").incl_s,
        "domain.restrict_calls": get("domain.restrict_domain").calls,
        "domain.bspd_s": get("domain.is_bspd").incl_s,
        "lattice.aut_calls": get("lattice.automorphism_group_order").calls,
        "lattice.aut_s": get("lattice.automorphism_group_order").incl_s,
        "lattice.is_lattice_s": get("lattice.is_lattice").incl_s,
        "lattice.b3_s": get("lattice.is_b3_free").incl_s,
        "lattice.to_matrix_calls": get("lattice.lattice_to_matrix").calls,
        "lattice.doubling_s": get("lattice.doubling").incl_s,
        "generate.vines_yielded": get("generate.generate_vines").yields,
        "generate.generate_s": get("generate.generate_vines").incl_s,
        "generate.classify_s": get("generate.classify").self_s,
        "generate.tree_shape_calls": get("generate.tree_shape").calls,
        "generate.count_s": get("generate.count_vines").incl_s,
        "validate.per_op": sum(get(name).calls for name in VALIDATORS) / ops,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS),
        "trace.spans": len(tracer.spans),
    })
    return m


def write_spans(tracer: Tracer, path: str) -> None:
    """Spans as tab-separated rows, times in seconds from the first span's start."""
    origin = tracer.spans[0][4] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\top\tfunction\tstart_s\tend_s\n")
        for span, parent, op, index, start, end in tracer.spans:
            fh.write(f"{span}\t{parent}\t{op}\t{tracer.stats[index].name}\t{start - origin:.9f}\t{end - origin:.9f}\n")
