"""Benchmark of cartier: three workloads, each timed end to end, plus a
separate traced run that times every layer from outside.

    python3 perfbench/run.py --workload {modules,ideals,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  The seed picks the task list; one
closed-loop client in one thread runs whole passes over it until S seconds
have gone by.  Every answer is checked outside the timed region.  The last
line of standard output is the JSON result; the line before it holds the
details (sample counts, failures, environment, src/ line count).

--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics, the tracing overhead, and writes every span to
.bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOL = os.path.join(HERE, "pool")
WORKDIR = os.path.join(ROOT, ".bench_work")
OUTDIR = os.path.join(ROOT, ".bench_out")

import harness  # noqa: E402
import wl_cli  # noqa: E402
import wl_ideals  # noqa: E402
import wl_modules  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("modules", "ideals", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 2  # per-task latency is the median over the passes

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "failed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CLI_EXIT_CODES = (0, 1, 2, 3, 4)


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for name in Tracer().metrics():
        units.setdefault(name, "s" if name.endswith("_s") else "count")
    units["poly.spair_zero_ratio"] = "ratio"
    units["cli.overhead_ms"] = "ms"
    for code in CLI_EXIT_CODES:
        units[f"cli.exits.{code}"] = "count"
    units["trace.overhead"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_cartier():
    """Import cartier from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cartier", "__init__.py")):
        raise BenchError(f"no cartier package under {SRC}")
    for name in [m for m in sys.modules if m == "cartier" or m.startswith("cartier.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cartier = importlib.import_module("cartier")
    importlib.import_module("cartier.cli")
    if not os.path.abspath(cartier.__file__).startswith(SRC + os.sep):
        raise BenchError(f"cartier was imported from {cartier.__file__}")
    return cartier


def load_pool(workload: str) -> dict:
    path = os.path.join(POOL, f"{workload}.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing pool file {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build(workload: str, seed: int):
    """Import cartier and build this seed's inputs: fields, rings, parsed
    polynomials, modules and argv files."""
    cartier = import_cartier()
    pool = load_pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "modules":
        tasks = wl_modules.build_tasks(cartier, pool["refs"], rng)
    elif workload == "ideals":
        tasks = wl_ideals.build_tasks(cartier, pool, rng)
    else:
        os.makedirs(WORKDIR, exist_ok=True)
        tasks = wl_cli.build_tasks(pool, rng, ROOT, WORKDIR)
    return cartier, tasks


def timed_setup(workload: str, seed: int):
    """Median of several complete set-ups, scaled like task latencies, and
    the raw median; the inputs of the last set-up are used."""
    scaled, raw = [], []
    calibration = harness.Calibration()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cartier, tasks = build(workload, seed)
        took = time.perf_counter() - start
        raw.append(took)
        scaled.append(took * calibration.scale())
    # The inputs and the benchmark's own objects live for the whole run;
    # keep them out of the collections that tasks trigger.
    gc.collect()
    gc.freeze()
    return cartier, tasks, statistics.median(scaled), statistics.median(raw)


def run_pass(tasks, summary, tracer=None, offset=0):
    calibration = harness.Calibration()
    for i, task in enumerate(tasks):
        summary.results.append(harness.run_task(task, offset + i, tracer, calibration))


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


def failure_report(summary):
    expected, unexpected = summary.failures()
    return {
        "known_defect_failures": sorted({r.task.id for r in expected}),
        "unexpected_failures": [
            {"task": r.task.id, "why": r.failure} for r in unexpected[:20]
        ],
    }


def measure(workload: str, seed: int, seconds: float):
    _, tasks, setup_s, raw_setup_s = timed_setup(workload, seed)
    if not harness.enough_beyond_p90(len(tasks)):
        raise BenchError(f"{len(tasks)} tasks per pass leave fewer than 10 beyond p90")
    summary = harness.Summary()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run_pass(tasks, summary, offset=passes * len(tasks))
        passes += 1
    rss = peak_rss_mb(workload)
    values = summary.end_to_end(setup_s, rss)
    raw = summary.end_to_end(raw_setup_s, rss, raw=True)
    details = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "tasks_per_pass": len(tasks),
        "latency_samples": len(tasks),
        "samples_beyond_p90": harness.samples_beyond(len(tasks), 90.0),
        "attempts": len(summary.results),
        "setup_repeats": SETUP_REPEATS,
        "raw_wall_metrics": {k: raw[k] for k in ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s")},
        **failure_report(summary),
        "src_lines": src_lines(),
        "environment": environment(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return summary, metrics, details


def traced(workload: str, seed: int):
    """One untraced pass, then the same pass traced."""
    cartier, tasks, _, _ = timed_setup(workload, seed)
    plain = harness.Summary()
    run_pass(tasks, plain)
    values = {"cli.overhead_ms": 0.0, **{f"cli.exits.{c}": 0 for c in CLI_EXIT_CODES}}
    base = plain
    if workload == "cli":
        # The traced pass runs each request in process, where the wrappers
        # can see it; subprocess wall minus in-process wall is the cost of
        # starting a process.
        tasks = [_inprocess(cartier, t) for t in tasks]
        base = harness.Summary()
        run_pass(tasks, base)
        gaps = [a.scaled - b.scaled for a, b in zip(plain.results, base.results)]
        values["cli.overhead_ms"] = statistics.median(gaps) * 1e3
        for r in plain.results:
            if r.code in CLI_EXIT_CODES:
                values[f"cli.exits.{r.code}"] += 1
    tracer = Tracer()
    tracer.install(cartier)
    traced_summary = harness.Summary()
    try:
        run_pass(tasks, traced_summary, tracer)
    finally:
        tracer.uninstall()
    wall_plain = sum(r.scaled for r in base.results)
    wall_traced = sum(r.scaled for r in traced_summary.results)
    values.update(tracer.metrics())
    values["trace.overhead"] = wall_traced / wall_plain
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}
    path = write_trace(workload, seed, tracer, traced_summary)
    inproc = base.results if base is not plain else []
    both = harness.Summary(plain.results + inproc + traced_summary.results)
    details = {
        "workload": workload,
        "seed": seed,
        "tasks_per_pass": len(tasks),
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "errors_by_kind": tracer.errors_by_kind(),
        "trace_file": os.path.relpath(path, ROOT),
        **failure_report(both),
    }
    return both, metrics, details


def _inprocess(cartier, task):
    argv = task.argv
    return harness.Task(
        id=task.id, kind=task.kind,
        prepare=lambda: lambda: wl_cli.run_inprocess(cartier.cli, argv),
        canon=task.canon, ref=task.ref, prop=task.prop, known_defect=task.known_defect,
    )


def write_trace(workload, seed, tracer, summary):
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"trace-{workload}-{seed}.json")
    tasks = [r.task.id for r in summary.results]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "task"],
            "tasks": tasks,
            "spans": tracer.spans,
            "spans_dropped": tracer.dropped,
            "self_s": tracer.self_s,
            "counts": dict(tracer.counts),
            "errors_by_kind": tracer.errors_by_kind(),
        }, fh, separators=(",", ":"))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        os.chdir(ROOT)
        if args.trace:
            summary, metrics, details = traced(args.workload, args.seed)
        else:
            summary, metrics, details = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _, unexpected = summary.failures()
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(summary.results),
        "failed": len(unexpected),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
