"""The vinery benchmark.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests [--workload W]

Workloads (see README.md for the mixes and why each was chosen):
  convert    seeded structure files of all five kinds, n = 4..12, through
             `verify`, `verify --strict` and `convert` (direct and transport;
             json, text and dot), plus provably invalid and malformed files
  analyze    `analyze --format json` on seeded files of all five kinds, n = 4..8
  reps7      class_representatives(7): generation, canonical forms, doubling
  count8     count_vines(8): the shape-memoized counting DP
  generate6  `vinery count --n 6 --mode generate`: generation only

vinery is driven in-process through `vinery.cli.main(argv)` and the public
`generate` functions, by one client in a closed loop.  Each measured unit
runs in a fresh interpreter (perfbench/worker.py), started one at a time.
With `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of one traced pass; the last stdout line is one JSON
object.  Every op's output is checked; the run exits 1 without a result if
vinery cannot be imported from ./src or a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(ROOT, ".perfbench")

JOBS = tuple(wl.JOBS)
WORKLOADS = ("convert", "analyze") + JOBS
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170
E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
DEFECT_NOTE = ("verify reports a MAT-labeled graph missing its top-label edge as VALID "
               "(known defect: completeness is not checked)")


class RunFailed(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("serialize.bytes"):
        return "bytes"
    if name in ("validate.per_op", "trace.overhead_ratio"):
        return "ratio"
    return "count"


def p95(values: list) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


class Runner:
    """Starts workers one at a time, each with its own scratch directory."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.started = 0

    def spawn(self, mode: str, seconds: float = 0, **extra) -> tuple[dict, float]:
        """Run one worker; (its result, seconds from start to exit)."""
        workdir = os.path.join(SCRATCH, f"run-{os.getpid()}-{self.started}")
        self.started += 1
        os.makedirs(workdir)
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed, "seconds": seconds,
                "tiny": self.tiny, "workdir": workdir, **extra}
        remaining = self.deadline - time.monotonic()
        try:
            if remaining <= 0:
                raise RunFailed(f"time limit of {TIME_LIMIT_S} s reached")
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], capture_output=True,
                                  text=True, timeout=remaining, cwd=ROOT)
            elapsed = time.perf_counter() - start
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{mode} worker overran the {TIME_LIMIT_S} s limit") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RunFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def setup_time(r: Runner) -> tuple[float, float]:
    """(calibrated, raw) set-up time of one fresh interpreter: its start and
    exit raw, plus its import, corpus build and warm-up op calibrated."""
    inside, elapsed = r.spawn("setup")
    return elapsed - inside["inside_s"] + inside["calibrated_s"], elapsed


def end_to_end(r: Runner, seconds: float) -> tuple[dict, list, list]:
    """Median set-up time over fresh interpreters, then the measured runs."""
    setup, raw_setup = zip(*(setup_time(r) for _ in range(SETUP_SAMPLES)))
    runs = []
    start = time.monotonic()
    while True:  # jobs: one fresh interpreter each; corpus workloads loop passes inside one
        runs.append(r.spawn("measure", seconds)[0])
        if r.workload not in JOBS or time.monotonic() - start >= seconds:
            break
    passes = [w for run in runs for w in run["passes"]]
    latencies = [x for run in runs for x in run["latencies"]]
    raw_passes = [w for run in runs for w in run["raw_passes"]]
    raw_latencies = [x for run in runs for x in run["raw_latencies"]]
    metrics = {
        "wall_s": statistics.median(passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": p95(latencies) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(run["rss_mb"] for run in runs),
    }
    unit = "jobs" if r.workload in JOBS else "passes"
    notes = {
        "wall_s": f"calibrated, raw {statistics.median(raw_passes):.6g}; "
                  f"median of {len(passes)} {unit} of {runs[0]['ops']} op(s)",
        "op_p50_ms": f"calibrated, raw {statistics.median(raw_latencies) * 1e3:.6g}; median of {len(latencies)} ops",
        "op_p95_ms": f"calibrated, raw {p95(raw_latencies) * 1e3:.6g}; nearest-rank p95 of {len(latencies)} ops, "
                     f"{len(latencies) - math.ceil(0.95 * len(latencies))} above",
        "setup_s": f"calibrated, raw {statistics.median(raw_setup):.6g}; median of {SETUP_SAMPLES} fresh "
                   "interpreters: start, import, corpus, one warm-up op",
        "peak_rss_mb": f"median max RSS of {len(runs)} workload process(es)",
    }
    lines = [f"{name} {value:.6g} {E2E_UNITS[name]} ({notes[name]})" for name, value in metrics.items()]
    if r.workload in JOBS:
        lines.append(f"{r.workload}_s {metrics['wall_s']:.6g} s (the job's time, = wall_s)")
    if "files" in runs[0]:
        lines.append(f"corpus {runs[0]['files']} files, {runs[0]['corpus_bytes']} bytes, {runs[0]['ops']} ops")
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, runs, lines


def traced(r: Runner) -> tuple[dict, list, list]:
    """One untraced and one traced pass, each in a fresh interpreter."""
    plain, _ = r.spawn("measure")
    os.makedirs(SCRATCH, exist_ok=True)
    spans = os.path.join(SCRATCH, f"spans-{r.workload}.tsv")
    run, _ = r.spawn("trace", spans=spans)
    layers = run["layers"]
    layers["trace.untraced_wall_s"] = plain["raw_passes"][0]
    layers["trace.overhead_ratio"] = layers["trace.wall_s"] / plain["raw_passes"][0]
    lines = [f"{name} {value:.6g} {layer_unit(name)}" for name, value in layers.items()]
    lines.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    return {name: (value, layer_unit(name)) for name, value in layers.items()}, [plain, run], lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list]:
    r = Runner(workload, seed, tiny)
    metrics, runs, lines = traced(r) if trace else end_to_end(r, seconds)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    by_tag: dict = {}
    for run in runs:
        for tag, k in run["failed_by_tag"].items():
            by_tag[tag] = by_tag.get(tag, 0) + k
    lines.append(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed"
                 + (f": {by_tag}" if by_tag else "") + ")")
    probes = sum(run["probes"] for run in runs)
    if probes:
        lines.append(f"known_defect {sum(run['probe_failed'] for run in runs)} of {probes} `verify` ops on "
                     f"edge-dropped matgraphs disagree with construction, not scored: {DEFECT_NOTE}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return result, lines


def smoke() -> int:
    """Tiny corpora and jobs: every metric BENCHMARK.json names is emitted with its unit."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(w["name"], DEFAULT_SEED, 0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} {key}: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: {result['failed']} ops failed")
            print(f"smoke {w['name']} {key}: {len(got)} metrics, {result['attempted']} ops", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke OK" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def record_digests(workloads) -> int:
    """Record the outputs of every op at the default seed (run at a commit whose outputs are trusted)."""
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    for w in workloads:
        run, _ = Runner(w, DEFAULT_SEED, False).spawn("measure", record=True)
        if run["failed"]:
            print(f"{w}: {run['failed']} ops fail their construction checks; digests not recorded")
            return 1
        data[w] = run["digests"]
        print(f"{w}: recorded {run['ops']} op digest(s)")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; checks metric names")
    parser.add_argument("--record-digests", action="store_true", help="record default-seed output digests")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record_digests:
            return record_digests([args.workload] if args.workload else WORKLOADS)
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
