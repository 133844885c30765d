"""Statistics, task execution and answer checking shared by all workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# p90 is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def digest(value) -> str:
    """Short stable hash of a JSON-able answer."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def nearest_rank(sorted_values, pct: float):
    """The nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # rounding first keeps 99.0 / 100 * 1000 from ceiling to 991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    return n - _rank(n, pct)


def enough_beyond_p90(n: int) -> bool:
    """Whether n samples leave at least MIN_BEYOND above the p90 rank."""
    return samples_beyond(n, 90.0) >= MIN_BEYOND


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else (0.0 if q3 == q1 else math.inf)


# -- machine-speed calibration ------------------------------------------------
#
# Shared virtual machines change speed by 20-40 % within tens of seconds,
# for all processes alike (measured on a 2-CPU x86_64 VM).  Each task is
# therefore bracketed by a short probe whose work resembles cartier's
# (small-tuple GF(8) arithmetic and dict updates, but no cartier code, so
# no change to cartier moves it), and its latency is reported scaled to the
# speed at which the probe takes PROBE_REF_S.  Raw wall times are reported
# next to the scaled ones.

PROBE_REF_S = 1.0e-3
_GF8_REDUCTION = ((1, 1, 0), (0, 1, 1))  # t^3 = t + 1, t^4 = t^2 + t over F_2


def _gf8_mul(a, b):
    conv = [0] * 5
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = [v % 2 for v in conv[:3]]
    for k in (3, 4):
        v = conv[k] % 2
        if v:
            row = _GF8_REDUCTION[k - 3]
            for i in range(3):
                out[i] = (out[i] + v * row[i]) % 2
    return tuple(out)


_GF8 = [((i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1) for i in range(8)]


def _probe_kernel() -> int:
    acc, seen = _GF8[1], {}
    for i in range(300):
        acc = _gf8_mul(acc, _GF8[i % 8])
        acc = tuple((x + y) % 2 for x, y in zip(acc, _GF8[(i * 3) % 8]))
        seen[acc] = i
    return len(seen)


class Calibration:
    """Probes machine speed between tasks; see the comment above."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.last = self.probe()

    def probe(self) -> float:
        best = None
        for _ in range(3):
            start = self.clock()
            _probe_kernel()
            took = self.clock() - start
            best = took if best is None else min(best, took)
        return best

    def scale(self) -> float:
        """Factor for the interval since the previous call: the reference
        probe time over the mean of the probes on either side of it."""
        now = self.probe()
        factor = PROBE_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Task:
    """One call into the public API (or one CLI process) with its check.

    `prepare` runs untimed and returns the zero-argument callable that is
    timed.  `canon` turns the answer into JSON compared with `ref` (a
    digest recorded with cartier 0.1.0); `prop` is an independent property
    check returning a failure reason or None.  `known_defect` marks tasks
    that fail at the recording commit on purpose.
    """

    id: str
    kind: str
    prepare: Callable[[], Callable[[], Any]]
    canon: Optional[Callable[[Any], Any]] = None
    ref: Optional[str] = None
    prop: Optional[Callable[[Any], Optional[str]]] = None
    known_defect: Optional[str] = None
    argv: Optional[list] = None  # the command line, for process tasks


@dataclass
class Result:
    task: Task
    seconds: float  # raw wall time of the call
    failure: Optional[str]  # None when the answer checked out
    digest: Optional[str] = None  # of the canonical answer, when there is one
    code: Optional[int] = None  # exit code, when the answer is a process result
    scaled: Optional[float] = None  # seconds at the probe's reference speed
    error: Optional[BaseException] = None  # raised by the timed call


def answer_digest(task: Task, answer) -> str:
    return digest(task.canon(answer) if task.canon else answer)


def verdict(task: Task, answer, error, got: Optional[str] = None) -> Optional[str]:
    """Why the task failed, or None.  Runs outside the timed region."""
    if error is not None:
        return f"unexpected {type(error).__name__}: {str(error)[:160]}"
    if task.prop is not None:
        reason = task.prop(answer)
        if reason:
            return reason
    if task.ref is not None:
        got = got or answer_digest(task, answer)
        if got != task.ref:
            return f"answer {got} differs from reference {task.ref}"
    return None


def run_task(task: Task, index: int, tracer=None, calibration=None) -> Result:
    call = task.prepare()
    # Start every task with empty young generations, so that the garbage
    # collections it triggers depend on its own allocations only.
    gc.collect()
    if tracer is not None:
        tracer.task = index
        tracer.enabled = True
    start = time.perf_counter()
    try:
        answer, error = call(), None
    except Exception as exc:  # a failing task is a result, not a crash
        answer, error = None, exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    scaled = seconds * calibration.scale() if calibration is not None else seconds
    got = None
    try:
        if error is None:
            got = answer_digest(task, answer)
        failure = verdict(task, answer, error, got)
    except Exception as exc:  # a check that cannot even run is a failure
        failure = f"check raised {type(exc).__name__}: {exc}"
    return Result(task, seconds, failure, got, getattr(answer, "code", None), scaled, error)


@dataclass
class Summary:
    """Results of one or more passes over the same task list."""

    results: list = field(default_factory=list)

    def per_task_median(self, raw: bool = False) -> list:
        """Each task's median latency over the passes that ran it."""
        by_task = {}
        for r in self.results:
            value = r.seconds if raw or r.scaled is None else r.scaled
            by_task.setdefault(id(r.task), []).append(value)
        return [statistics.median(v) for v in by_task.values()]

    def end_to_end(self, setup_s: float, peak_rss_mb: float, raw: bool = False) -> dict:
        """Latency and throughput over per-task medians, so that one slow
        moment of the machine does not move a whole run; failures over
        every attempt.

        tasks_per_s is the number of distinct tasks over the sum of their
        median latencies: the rate of one client that runs a pass back to
        back, counting only the timed calls (the garbage collection,
        `prepare` and the answer checks around each call are left out)."""
        latencies = sorted(self.per_task_median(raw))
        failed = sum(1 for r in self.results if r.failure)
        return {
            "tasks_per_s": len(latencies) / sum(latencies),
            "task_p50_ms": nearest_rank(latencies, 50.0) * 1e3,
            "task_p90_ms": nearest_rank(latencies, 90.0) * 1e3,
            "failed_ratio": failed / len(self.results),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    def failures(self):
        """(expected, unexpected) failed results: a known-defect task that
        fails is expected at the recording commit; anything else is not."""
        expected = [r for r in self.results if r.failure and r.task.known_defect]
        unexpected = [r for r in self.results if r.failure and not r.task.known_defect]
        return expected, unexpected
