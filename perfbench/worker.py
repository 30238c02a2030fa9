"""One fresh interpreter's part of a benchmark run; started by run.py.

    python3 perfbench/worker.py '<json spec>'

Modes: `setup` imports vinery, builds the corpus and runs one warm-up op
(calibrated, see calibrate.py);
`measure` then runs the op list (passes until `seconds` have elapsed) or the
job once, untraced; `trace` wraps vinery's public functions first and runs
one traced pass or job.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from collections import Counter
from time import perf_counter

import calibrate
import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1


def import_vinery():
    sys.path.insert(0, SRC)
    import vinery
    from vinery import (cli, correspond, domain, errors, generate, lattice, matgraph, routes,
                        serialize, species, vine)
    if not os.path.abspath(vinery.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vinery imported from {vinery.__file__}, not from {SRC}")
    mods = {"cli": cli, "serialize": serialize, "routes": routes, "correspond": correspond,
            "species": species, "vine": vine, "matgraph": matgraph, "domain": domain,
            "lattice": lattice, "generate": generate}
    return mods, errors.StructureError


def call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()[:16]


def recorded_digests(spec: dict):
    """Digests recorded at the default seed, or None where they do not apply."""
    seeded = spec["workload"] not in wl.JOBS
    if (seeded and spec["seed"] != DEFAULT_SEED) or spec["tiny"] or spec.get("record") or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(spec["workload"])


def run_pass(cli, ops, tracer=None) -> tuple[list, list]:
    """Each op once through cli.main; ((start, end) per op, (code, stdout, stderr) per op)."""
    times, results = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        results.append(call_cli(cli, op.argv))
        times.append((start, perf_counter()))
    return times, results


def timings(clock, intervals: list) -> tuple[list, list]:
    """(calibrated, raw) durations of the intervals; raw only, twice, without a clock."""
    if clock is None:
        raw = [end - start for start, end in intervals]
        return raw, raw
    return ([clock.calibrated(start, end) for start, end in intervals],
            [end - start - clock.probes_in(start, end) for start, end in intervals])


def verdicts(ops, results, expected) -> list[bool]:
    ok = wl.check_ops(ops, results)
    if expected is not None:
        ok = [good and (i < len(expected) and expected[i] in (None, digest(code, out)))
              for i, (good, (code, out, _)) in enumerate(zip(ok, results))]
    return ok


def digests(ops, results) -> list:
    """Digests of the successful outputs; diagnostics of rejected files may change wording."""
    return [digest(code, out) if op.expect[0] in wl.SUCCESS else None
            for op, (code, out, _) in zip(ops, results)]


def corpus_workload(spec, mods, tracer):
    build = wl.build_convert if spec["workload"] == "convert" else wl.build_analyze
    corpus = build(mods["generate"], spec["workdir"], spec["seed"], spec["tiny"])
    call_cli(mods["cli"], corpus.warmup.argv)
    if spec["mode"] == "setup":
        return {}
    expected = recorded_digests(spec)
    out = {"ops": len(corpus.ops), "files": corpus.files, "corpus_bytes": corpus.bytes,
           "passes": [], "raw_passes": [], "latencies": [], "raw_latencies": [],
           "failed_by_tag": Counter(), "attempted": 0}
    started = perf_counter()
    while True:
        clock = calibrate.CalibratedClock() if spec["mode"] == "measure" else None
        if tracer is not None:
            tracer.active = True
        with clock or contextlib.nullcontext():
            times, results = run_pass(mods["cli"], corpus.ops, tracer)
        if tracer is not None:
            tracer.active = False
        latencies, raw = timings(clock, times)
        (wall,), (raw_wall,) = timings(clock, [(times[0][0], times[-1][1])])
        ok = verdicts(corpus.ops, results, expected)
        out["passes"].append(wall)
        out["raw_passes"].append(raw_wall)
        out["latencies"].extend(latencies)
        out["raw_latencies"].extend(raw)
        out["attempted"] += len(ok)
        out["failed_by_tag"].update(op.tag for op, good in zip(corpus.ops, ok) if not good)
        if spec.get("record"):
            out["digests"] = digests(corpus.ops, results)
        if spec["mode"] == "trace" or spec["seconds"] <= 0 or perf_counter() - started >= spec["seconds"]:
            break
    probe_results = [call_cli(mods["cli"], op.argv) for op in corpus.probes]
    out["probes"] = len(corpus.probes)
    out["probe_failed"] = wl.check_ops(corpus.probes, probe_results).count(False)
    out["failed"] = sum(out["failed_by_tag"].values())
    return out


def job_workload(spec, mods, tracer):
    n = wl.JOBS[spec["workload"]][1 if spec["tiny"] else 0]
    call_cli(mods["cli"], ("count", "--n", "4", "--mode", "generate"))  # the warm-up op
    if spec["mode"] == "setup":
        return {}
    clock = calibrate.CalibratedClock() if spec["mode"] == "measure" else None
    if tracer is not None:
        tracer.op, tracer.active = 0, True
    with clock or contextlib.nullcontext():
        start = perf_counter()
        result = wl.run_job(spec["workload"], mods, n, call_cli)
        end = perf_counter()
    if tracer is not None:
        tracer.active = False
    (wall,), (raw_wall,) = timings(clock, [(start, end)])
    text = wl.job_output(spec["workload"], result)
    expected = recorded_digests(spec)
    good = (wl.check_job(spec["workload"], n, result, mods["generate"])
            and (expected is None or digest(0, text) == expected))
    out = {"ops": 1, "passes": [wall], "raw_passes": [raw_wall], "latencies": [wall], "raw_latencies": [raw_wall],
           "attempted": 1, "failed": 0 if good else 1,
           "failed_by_tag": {} if good else {spec["workload"]: 1}, "probes": 0, "probe_failed": 0}
    if spec.get("record"):
        out["digests"] = digest(0, text)
    return out


def setup(spec: dict) -> dict:
    """Import, corpus and warm-up op, timed on a calibrated clock (the
    interpreter's own start and exit are timed, raw, by run.py)."""
    run = job_workload if spec["workload"] in wl.JOBS else corpus_workload
    with calibrate.CalibratedClock() as clock:
        start = perf_counter()
        mods, _ = import_vinery()
        run(spec, mods, None)
        end = perf_counter()
    return {"inside_s": end - start, "calibrated_s": clock.calibrated(start, end)}


def main(spec: dict) -> dict:
    if spec["mode"] == "setup":
        return setup(spec)
    mods, structure_error = import_vinery()
    tracer = tracing.install(mods, structure_error) if spec["mode"] == "trace" else None
    run = job_workload if spec["workload"] in wl.JOBS else corpus_workload
    out = run(spec, mods, tracer)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, out["ops"], out["raw_passes"][0])
        tracing.write_spans(tracer, spec["spans"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
