"""The `cli` workload: one fresh `python -m cartier.cli` process per task.

Inputs are small, so users mostly pay interpreter start, import, argparse,
JSON and FieldSpec construction on every call.  Work moved into set-up
(for example field tables built when a FieldSpec is made) gains on
`modules` and shows its cost here.

Candidates are drawn at record time and kept when the command finishes
within the slot's window at the recording commit; argv, module files, exit code
and the digest of the output live in pool/cli.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import checks
from harness import Task, digest
import wl_ideals

# (slot, tasks per pass, pool size)
SLOTS = [
    ("field-info/bundled-d6", 4, 8),
    ("field-info/bundled", 6, 16),
    ("field-info/searched", 4, 10),
    ("field-info/searched-7-10", 1, 1),
    ("semilinear-analyze", 8, 18),
    ("semilinear-hom", 5, 10),
    ("semilinear-lattice", 5, 10),
    ("crystal-minimal", 5, 10),
    ("crystal-quasilength", 5, 10),
    ("poly-cartier", 7, 20),
    ("poly-image", 6, 12),
    ("poly-stable-image", 6, 12),
    ("poly-smallest", 5, 10),
    ("poly-compatible", 6, 12),
    ("poly-enum-compatible", 3, 6),
    ("poly-split", 6, 12),
    ("poly-supp", 5, 10),
    # The corpus run (about 0.3 s, always the same request) is repeated so
    # that p90 falls among near-equal costs instead of between slots.
    ("corpus-run", 12, 1),
    ("malformed", 4, 6),
    ("defect/analyze-empty-module", 1, 1),
    ("defect/stable-image-q49", 1, 1),
]

COMMAND_WINDOW_S = 0.3  # wall time of one candidate command at record time

MALFORMED = [
    ["field-info", "--p", "4", "--json"],
    ["field-info", "--p", "2", "--d", "0", "--json"],
    ["poly-cartier", "--p", "3", "--vars", "x", "--expr", "y^2", "--json"],
    ["poly-cartier", "--p", "2", "--vars", "x,y", "--expr", "x^", "--json"],
    ["semilinear-analyze", "--module", "{not json", "--json"],
    ["poly-image", "--p", "2", "--vars", "x", "--f", "x^2", "--json"],
]

DEFECTS = {
    "defect/analyze-empty-module": (
        {"argv": ["semilinear-analyze", "--module", "{}", "--json"], "exit": 2},
        "an empty module JSON gives a KeyError traceback and exit 1 in cartier 0.1.0, not exit 2",
    ),
    "defect/stable-image-q49": (
        {"argv": ["poly-stable-image", "--p", "7", "--e", "2", "--vars", "x,y",
                  "--f", "x^60*y^60+x*y", "--json"],
         "exit": 0, "stdout": {"generators": ["1"], "iterations": 0}},
        wl_ideals.DEFECT_NOTE + "; the CLI exits 3",
    ),
}


class Answer:
    """Exit code and standard output of one command."""

    def __init__(self, code: int, stdout: str):
        self.code = code
        self.stdout = stdout

    def canon(self):
        try:
            out = json.loads(self.stdout)
        except json.JSONDecodeError:
            out = self.stdout.strip()
        return [self.code, out]


def structured_error(answer: Answer):
    """Exit 2/3/4 must come with {"error": {"kind", "detail"}} on stdout."""
    try:
        payload = json.loads(answer.stdout)
    except json.JSONDecodeError:
        return "error exit without JSON on stdout"
    err = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(err, dict) or set(err) != {"kind", "detail"}:
        return "error exit without a structured error"
    return None


def _ints(value):
    if isinstance(value, list):
        return [x for v in value for x in _ints(v)]
    return [value]


def _span(basis, q: int, p: int):
    """Canonical form of an F_q-basis printed as coefficient lists."""
    return checks.span_key([_ints(v) for v in basis], q, p)


def normalise(command: str, out: dict, p):
    """A command's JSON output with every part that a correct program may
    choose differently (a basis, a splitting witness, the matrix of a
    representative that is unique up to isomorphism, an enumeration order)
    replaced by what all correct answers share."""
    if command == "semilinear-analyze":
        fixed = out["fixed_points"]
        fixed["basis"] = _span(fixed["basis"], fixed["q"], p)
    elif command == "semilinear-hom":
        out["basis"] = _span(out["basis"], out["q"], p)
    elif command == "semilinear-lattice":
        out["submodules"] = checks.sorted_by_json(out["submodules"])
    elif command == "crystal-minimal":
        del out["minimal"]["matrix"]
    elif command == "crystal-quasilength":
        out["edges"] = len(out["edges"])
    elif command == "poly-split":
        del out["witness"]
    elif command == "poly-enum-compatible":
        out["ideals"] = sorted(out["ideals"])
    return out


def canon_for(entry):
    """The canonical form of the answers to one pool entry's command."""
    command = entry["argv"][0]
    files = entry.get("files")
    p = json.loads(next(iter(files.values())))["field"]["p"] if files else None

    def canon(answer: Answer):
        code, out = answer.canon()
        if code == 0 and isinstance(out, dict):
            out = normalise(command, out, p)
        return [code, out]

    return canon


def check_exit(expected: int):
    def prop(answer: Answer):
        if answer.code != expected:
            return f"unexpected exit code {answer.code} (expected {expected})"
        if expected in (2, 3, 4):
            return structured_error(answer)
        return None
    return prop


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv, root: str, env: dict) -> Answer:
    proc = subprocess.run(
        [sys.executable, "-m", "cartier.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=150,
    )
    return Answer(proc.returncode, proc.stdout)


def run_inprocess(cli, argv) -> Answer:
    """The same request through cartier.cli.run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return Answer(code, out.getvalue())


def materialize(entry, prefix: str, workdir: str):
    """Write the entry's module files and point its @name arguments at them."""
    paths = {}
    for key, text in entry.get("files", {}).items():
        paths[key] = os.path.join(workdir, f"{prefix}_{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    return [paths[a[1:]] if a.startswith("@") else a for a in entry["argv"]]


def make_task(slot, index, entry, argv, root, env):
    task = Task(
        id=f"{slot}/{index}", kind=slot.split("/")[0],
        prepare=lambda: lambda: run_child(argv, root, env),
        canon=canon_for(entry), ref=entry.get("ref"), prop=check_exit(entry["exit"]),
        argv=argv,
    )
    if slot in DEFECTS:
        spec, task.known_defect = DEFECTS[slot]
        if "stdout" in spec:
            task.ref = digest([spec["exit"], spec["stdout"]])
    return task


def build_tasks(pool, rng, root, workdir):
    """One pass: a fixed number of requests from every slot."""
    env = child_env(root)
    tasks = []
    for slot, count, _ in SLOTS:
        entries = pool["slots"][slot]
        if count <= len(entries):
            picks = rng.sample(range(len(entries)), count)
        else:  # a fixed request repeated
            picks = rng.choices(range(len(entries)), k=count)
        for index in sorted(picks):
            argv = materialize(entries[index], f"{slot.replace('/', '_')}_{index}", workdir)
            tasks.append(make_task(slot, index, entries[index], argv, root, env))
    rng.shuffle(tasks)
    return tasks


# -- recording ---------------------------------------------------------------

def _module_json(cartier, rng, p, d, n):
    spec = cartier.FieldSpec(p, d)
    rows = [[spec.element(tuple(rng.randrange(p) for _ in range(d))) for _ in range(n)]
            for _ in range(n)]
    return json.dumps(cartier.SemilinearModule(spec, rows).to_json())


def _ring_args(case):
    return ["--p", str(case["p"]), "--d", str(case["d"]), "--e", str(case["e"]),
            "--vars", ",".join(case["vars"])]


def candidate(cartier, slot, rng) -> dict:
    """argv (with @name placeholders for files) and file contents."""
    if slot == "field-info/bundled-d6":
        p = rng.choice([2, 3, 5, 7])
        return {"argv": ["field-info", "--p", str(p), "--d", "6", "--e", str(rng.choice([1, 2, 3, 6])), "--json"]}
    if slot == "field-info/bundled":
        return {"argv": ["field-info", "--p", str(rng.choice([2, 3, 5, 7])),
                         "--d", str(rng.randint(1, 5)), "--json"]}
    if slot == "field-info/searched":
        p, d = rng.choice([(2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (3, 7), (3, 8), (5, 7), (7, 7), (7, 8)])
        return {"argv": ["field-info", "--p", str(p), "--d", str(d), "--json"]}
    if slot == "field-info/searched-7-10":
        return {"argv": ["field-info", "--p", "7", "--d", "10", "--json"]}
    if slot == "corpus-run":
        return {"argv": ["corpus-run", os.path.join("corpus", "acceptance.json"), "--json"]}
    if slot == "malformed":
        return {"argv": list(rng.choice(MALFORMED))}
    if slot in DEFECTS:
        return {"argv": list(DEFECTS[slot][0]["argv"])}
    fields = [(2, 1), (2, 2), (2, 3), (3, 2)]
    if slot == "semilinear-analyze":
        p, d = rng.choice(fields)
        return {"argv": ["semilinear-analyze", "--module", "@m", "--json"],
                "files": {"m": _module_json(cartier, rng, p, d, rng.randint(3, 6))}}
    if slot == "semilinear-hom":
        p, d = rng.choice(fields)
        n = rng.randint(2, 3)
        return {"argv": ["semilinear-hom", "--module", "@a", "--module", "@b", "--json"],
                "files": {"a": _module_json(cartier, rng, p, d, n),
                          "b": _module_json(cartier, rng, p, d, n)}}
    if slot in ("semilinear-lattice", "crystal-quasilength"):
        p, d, n = rng.choice([(2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 3)])
        return {"argv": [slot, "--module", "@m", "--json"],
                "files": {"m": _module_json(cartier, rng, p, d, n)}}
    if slot == "crystal-minimal":
        p, d = rng.choice(fields)
        return {"argv": [slot, "--module", "@m", "--json"],
                "files": {"m": _module_json(cartier, rng, p, d, rng.randint(3, 5))}}
    if slot == "poly-enum-compatible":
        p, d = rng.choice([(2, 1), (3, 1), (2, 2)])
        exps = [rng.randrange(p) for _ in range(3)]  # below q = p: split
        f = "*".join(f"{v}^{k}" for v, k in zip("xyz", exps))
        return {"argv": [slot, "--p", str(p), "--d", str(d), "--vars", "x,y,z", "--f", f, "--json"]}
    case = wl_ideals.random_case(cartier, "random", rng)
    ring = _ring_args(case)
    ideal = ";".join(case["ideal"])
    if slot == "poly-cartier":
        return {"argv": [slot, *ring, "--expr", case["f"], "--json"]}
    if slot in ("poly-image", "poly-smallest", "poly-compatible"):
        return {"argv": [slot, *ring, "--f", case["f"], "--ideal", ideal, "--json"]}
    if slot == "poly-stable-image":
        extra = ["--ideal", ideal] if rng.random() < 0.5 else []
        return {"argv": [slot, *ring, "--f", case["f"], *extra, "--json"]}
    if slot == "poly-split":
        return {"argv": [slot, *ring, "--f", case["f"], "--json"]}
    if slot == "poly-supp":
        compat = wl_ideals.random_case(cartier, "compatible", rng)
        return {"argv": [slot, *_ring_args(compat), "--f", compat["f"],
                         "--ideal", ";".join(compat["ideal"]) or "0", "--json"]}
    raise ValueError(f"unknown slot {slot}")


def record_pool(cartier, root, workdir, log):
    """Fill every slot with requests that finish within its window.

    A candidate is dropped when it repeats one drawn before, runs too long
    or exits 2, 3 or 4 with a structured error (a declared error); the
    counts by reason are returned with the pool.  One that crashes or exits
    otherwise wrongly stops the recording: such a defect is to be fixed, or
    added as a known-defect slot, before the pool is recorded.
    """
    env = child_env(root)
    pool, drops = {}, {}
    for slot, _, size in SLOTS:
        rng = random.Random(f"cli:{slot}")
        entries, attempts = [], 0
        dropped = {"duplicate": 0, "too_slow": 0, "declared_error": 0}
        while len(entries) < size:
            attempts += 1
            if attempts > 200 * size:
                raise RuntimeError(f"slot {slot}: too few candidates in the window")
            entry = candidate(cartier, slot, rng)
            if any(e["argv"] == entry["argv"] and e.get("files") == entry.get("files")
                   for e in entries):
                dropped["duplicate"] += 1
                continue
            argv = materialize(entry, "record", workdir)
            start = time.perf_counter()
            answer = run_child(argv, root, env)
            seconds = time.perf_counter() - start
            if slot in DEFECTS:
                entry["exit"] = DEFECTS[slot][0]["exit"]
            else:
                limit = 30.0 if slot.startswith("field-info/searched-") else COMMAND_WINDOW_S
                expected = 2 if slot == "malformed" else 0
                if seconds > limit:
                    dropped["too_slow"] += 1
                    continue
                failure = check_exit(expected)(answer)
                if failure and answer.code in (2, 3, 4) and not structured_error(answer):
                    dropped["declared_error"] += 1
                    continue
                if failure:
                    raise RuntimeError(f"{slot} {entry['argv']} fails: {failure}")
                entry["exit"] = expected
                entry["ref"] = digest(canon_for(entry)(answer))
            entry["cost_s"] = round(seconds, 4)
            entries.append(entry)
        drops[slot] = dropped
        log(f"{slot}: {len(entries)} entries from {attempts} candidates, dropped {dropped}")
        pool[slot] = entries
    return {"slots": pool, "dropped": drops}
