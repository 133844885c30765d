"""Record the task pools and their reference answers at the current commit.

    python3 perfbench/record.py --workload {modules,ideals,cli}

Run it only at a commit whose answers are trusted: the benchmark compares
every later answer with what this writes to perfbench/pool/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import harness
import run
import wl_cli
import wl_ideals
import wl_modules


class Overtime(BaseException):
    """Raised by the alarm; a BaseException so no task handler swallows it."""


def limited(fn, seconds: float):
    def alarm(signum, frame):
        raise Overtime()

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except Overtime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def record_modules(cartier):
    refs, costs = {}, {}
    for task in wl_modules.pool_tasks(cartier):
        result = harness.run_task(task, 0)
        costs[task.id] = round(result.seconds, 4)
        if task.known_defect:
            log(f"{task.id}: known defect, {result.failure}")
            continue
        if result.failure:
            raise RuntimeError(f"{task.id} fails its own check: {result.failure}")
        refs[task.id] = result.digest
        log(f"{task.id}: {result.seconds:.3f}s")
    return {"refs": refs, "cost_s": costs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    cartier = run.import_cartier()
    if args.workload == "modules":
        data = record_modules(cartier)
    elif args.workload == "ideals":
        data = wl_ideals.record_pool(cartier, harness.run_task, limited, log)
    else:
        workdir = os.path.join(run.WORKDIR, "record")
        os.makedirs(workdir, exist_ok=True)
        data = wl_cli.record_pool(cartier, run.ROOT, workdir, log)
    os.makedirs(run.POOL, exist_ok=True)
    path = os.path.join(run.POOL, f"{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
