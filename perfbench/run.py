#!/usr/bin/env python3
"""Benchmark of ptinertia, built and run from the source tree it sits in.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 30 --trace 0

Workloads: ``hunt``, ``hunt_wide`` and ``reproduce`` (see perfbench/README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half traced and reports the per-layer metrics plus the
tracing overhead, writing every span to perfbench/_out/. The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Exit status: 0 when every output check passed, 1 when one failed, 2 when the
source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
WORK = ROOT / "perfbench" / "_work"
WORKLOAD_NAMES = ("hunt", "hunt_wide", "reproduce")
# workers each workload runs at once; the BLAS cap keeps their sum <= nproc
PROCESSES = {"hunt": 1, "hunt_wide": 2, "reproduce": 1}
SETUP_REPEATS = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(workload: str) -> int:
    """Set the BLAS thread cap before numpy loads; workers inherit it."""
    cap = max(1, nproc() // PROCESSES[workload])
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts 100 groups."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(workload: str, seed: int, workdir: Path) -> dict:
    """A cold set-up, timed inside a fresh interpreter."""
    t0 = time.perf_counter()
    import ptinertia  # noqa: F401  (the cold import is what is timed)
    t1 = time.perf_counter()
    from perfbench import workloads
    workloads.WORKLOADS[workload]().build_inputs(seed, workdir)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "inputs_s": t2 - t1}


def run_setup_probes(args) -> list[dict]:
    out = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe", tmp],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setups, passes, distinct_items: bool) -> dict[str, float]:
    """End-to-end metrics over every timed pass of the run.

    The pass time is the run's time over its passes, and throughput the work
    done over the time spent on it. The speed of a shared machine drifts for
    tens of seconds at a time, so a whole-run average is steadier from run
    to run than a median or fastest pass, which land in one stretch of it.
    The latency percentiles are taken over every item of every pass, or,
    when each item of a pass is a distinct computation (reproduce), over the
    items, each at its mean latency over the passes: pooled repeats of items
    that cost from 5 to 400 ms blur into each other, so a pooled median
    moves with how the machine's speed varied within the run.
    """
    if distinct_items:
        ops = [statistics.fmean(col) for col in zip(*(p.op_ms for p in passes))]
    else:
        ops = [ms for p in passes for ms in p.op_ms]
    wall = statistics.fmean(p.wall_s for p in passes)
    if passes[0].samples:
        throughput = (sum(p.samples for p in passes)
                      / sum(s for p in passes for s in p.search_s))
    else:
        throughput = sum(len(p.op_ms) for p in passes) / sum(p.wall_s for p in passes)
    return {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
        "wall_s": wall,
        "throughput_per_s": throughput,
        "op_ms_p50": statistics.median(ops),
        "op_ms_p90": quantile(ops, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, setups, untraced, traced, tracer) -> dict[str, float]:
    times = tracer.self_times()
    n_passes = len(traced)
    sums = tracer.sums.totals()
    draws = sums["states.random_state"][1]

    def total(name):
        return times.get(name, (0.0, 0))[0]

    def per_call(name, scale):
        t, count = times.get(name, (0.0, 0))
        return t / count * scale if count else 0.0

    def per_sample(name):
        # one random_state and one pt_array call per scanned sample
        return sums[name][0] / draws * 1e6 if draws else 0.0

    def per_pass_ms(name):
        return total(name) / n_passes * 1e3

    calls = times.get("search.run_search", (0.0, 0))[1]
    layers = sum(t for t, _ in sums.values())
    run_search_s = per_call("search.run_search", 1.0)
    # the workers run the draw, PT and eigensolve of one call side by side
    self_s = run_search_s - layers / calls / workload.workers if calls else 0.0
    untraced_wall = statistics.fmean(p.wall_s for p in untraced)
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    metrics = {
        "states.random_state.us": per_sample("states.random_state"),
        "states.pt_array.us": per_sample("states.pt_array"),
        "search.eigensolve.us_per_sample": per_sample("search.eigensolve"),
        "search.run_search.s": run_search_s,
        "search.run_search.self_s": self_s,
        "search.useful_frac": 0.0,
        "search.alarms": 0,
        "search.marginal": 0,
        "search.append_record.ms": per_call("search.append_record", 1e3),
        "search.load_records.ms": per_call("search.load_records", 1e3),
        "search.replay.ms": per_call("search.replay", 1e3),
        "inertia.pt_inertia.us": per_call("inertia.pt_inertia", 1e6),
        "catalog.build.ms": per_pass_ms("catalog.build"),
        "catalog.build_exact.ms": per_pass_ms("catalog.build_exact"),
        "catalog.verify.ms": per_pass_ms("catalog.verify"),
        "catalog.lemma3n_family.ms": per_pass_ms("catalog.lemma3n_family"),
        "tables.inertia_table.ms": per_pass_ms("tables.inertia_table"),
        "tables.table1_report.ms": per_pass_ms("tables.table1_report"),
        "inertia.embed.ms": per_pass_ms("inertia.embed"),
        "matio.load_matrix.ms": per_pass_ms("matio.load_matrix"),
        "exact.exact_inertia.sparse_ms": per_pass_ms("exact.exact_inertia.sparse"),
        "exact.exact_inertia.dense_ms": per_pass_ms("exact.exact_inertia.dense"),
        "exact.max_dim": 0.0,
        "witness.is_witness.ms": per_pass_ms("witness.is_witness"),
        "witness.min_product_expectation.ms": per_pass_ms("witness.min_product_expectation"),
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
        "trace.overhead_pct": (traced_wall / untraced_wall - 1.0) * 100.0,
    }
    metrics.update(workload.layer_metrics())
    return metrics


def environment(cap: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads_cap": cap,
            "blas_env": {var: os.environ[var] for var in BLAS_VARS}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptinertia" / "__init__.py").is_file():
        print(f"perfbench: no ptinertia sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cap = cap_blas_threads(args.workload)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        print(json.dumps(probe_setup(args.workload, args.seed, Path(args.setup_probe))))
        return 0

    WORK.mkdir(parents=True, exist_ok=True)
    setups = run_setup_probes(args)
    import ptinertia
    if Path(ptinertia.__file__).resolve().parent != (SRC / "ptinertia").resolve():
        print(f"perfbench: ptinertia imported from {ptinertia.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.tracing import NullTracer

    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inputs = workload.build_inputs(args.seed, workdir)
        warmup = workloads.run_passes(workload, inputs, 0.0, NullTracer())
        if args.trace:
            untraced = workloads.run_passes(workload, inputs, args.seconds / 2, NullTracer())
            tracer = workloads.new_tracer()
            traced = workloads.run_passes(workload, inputs, args.seconds / 2, tracer)
            metrics = per_layer(workload, setups, untraced, traced, tracer)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            passes = untraced + traced
            wanted = spec["per_layer"]
        else:
            passes = workloads.run_passes(workload, inputs, args.seconds, NullTracer())
            metrics = end_to_end(setups, passes, workload.distinct_items)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [ok for p in warmup + passes for ok in p.checks]
    failed = checks.count(False)
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print("env " + json.dumps(environment(cap), sort_keys=True))
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"items={len(checks)} failed={failed}")
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"  {m['name']:36s} {value:14.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
