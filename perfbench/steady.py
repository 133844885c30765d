"""Steadiness check: run every workload over ten seeds, twice, and print
every end-to-end metric's quartile spread against its bound in
BENCHMARK.json.

    python3 perfbench/steady.py

The spread is (Q3 - Q1) / median over the seeds, with quartiles from
statistics.quantiles(n=4).  A metric is steady when its spread is below a
third of its bound (setup_s is exempt from the spread rule).  The first set
uses seeds 1-10 and the second seeds 1001-1010; the second set's median must
not be worse than the first's by more than the bound.  Runs go one at a
time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from harness import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SETS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} has unexpected failures")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric: dict, first: float, second: float) -> float:
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = load_spec()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        medians = []
        for s in range(SETS):
            seeds = [1 + 1000 * s + i for i in range(SEEDS)]
            runs = [run_once(spec, workload, seed) for seed in seeds]
            medians.append({})
            print(f"{workload} set {s + 1} seeds {seeds[0]}..{seeds[-1]}")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                med = statistics.median(values)
                medians[-1][name] = med
                spread = quartile_spread(values)
                if name == "setup_s":
                    status = "exempt"
                elif spread <= bound / 3:
                    status = "steady"
                elif spread <= bound:
                    status = "within bound"
                else:
                    status, ok = "NOT STEADY", False
                print(f"  {name:14s} median {med:12.6g} {metric['unit']:6s} spread {spread:7.4f}"
                      f"  bound {bound:5.3f}  {status}")
        for name, second in medians[1].items():
            metric = next(m for m in spec["end_to_end"] if m["name"] == name)
            delta = worse_by(metric, medians[0][name], second)
            verdict = "ok" if delta <= metric["bound"] else "WORSE THAN BOUND"
            ok = ok and verdict == "ok"
            print(f"  second set vs first: {name:14s} worse by {delta:+.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
