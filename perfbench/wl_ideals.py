"""The `ideals` workload: Cartier operators on ideals and Gröbner bases.

poly (Buchberger, division) and operators (the q^n image loop) dominate;
field work stays on the degree-1 path and linalg/semilinear are never
called.  Faster image ideals or a better Buchberger should show here, and
no change on `modules`.

Random instances are drawn at record time and kept only when their cost at
the recording commit falls in the slot's window, so that a pass costs about the
same for every seed.  Their inputs and reference answers live in
pool/ideals.json.
"""

from __future__ import annotations

import random

import checks
from harness import Task, digest

# Random instances are split into narrow cost bands (each about 1.6 times
# wide); a pass takes a fixed number from every band, so seeds differ in
# which instances they get but hardly in what a pass costs.
BAND_RATIO = 1.6


def _bands(kind, lows_ms_counts):
    return [
        (f"{kind}/{lo:g}ms", kind, "compatible" if kind == "supp_crys" else "random",
         count, count + 3, (lo / 1e3, lo * BAND_RATIO / 1e3))
        for lo, count in lows_ms_counts
    ]


# (slot, kind, family, tasks per pass, pool size, cost window in seconds)
SLOTS = [
    *_bands("stable_image", [(2, 2), (3.2, 2), (5.1, 2), (8.2, 3), (13, 3), (21, 3),
                             (34, 3), (54, 3), (86, 2), (137, 2)]),
    *_bands("find_splitting", [(1, 2), (1.6, 2), (2.6, 2), (4.1, 2), (6.6, 2), (10.5, 2)]),
    *_bands("is_compatible", [(1, 2), (1.6, 2), (2.6, 2), (4.1, 2), (6.6, 2), (10.5, 2),
                              (16.8, 3), (27, 3)]),
    *_bands("smallest_stable_containing", [(3.2, 2), (5.1, 2), (8.2, 2), (13, 2), (21, 3),
                                           (34, 3), (54, 2), (86, 2), (137, 2)]),
    *_bands("supp_crys", [(2, 2), (3.2, 2), (5.1, 2), (8.2, 2), (13, 2), (21, 2), (34, 2)]),
    *[(name, kind, "dense", count, pool, window) for name, kind, _, count, pool, window in
      _bands("groebner_basis", [(21, 3), (34, 3), (54, 2), (86, 2), (137, 2), (220, 2)])],
    ("image_of_ring/q25", "image_of_ring", "q25", 4, 12, None),
    ("groebner/katsura3", "groebner_basis", "katsura3", 2, 6, None),
    # Near-equal-cost groups that the median and p90 fall into, so that
    # the percentiles do not jump between cost bands from seed to seed.
    ("groebner/cyclic4", "groebner_basis", "cyclic4", 10, 14, None),
    ("groebner/katsura4", "groebner_basis", "katsura4", 10, 14, None),
    ("enum_compatible/4vars", "enumerate_compatible_monomial", "monomial4", 7, 12, None),
    ("groebner/katsura5", "groebner_basis", "katsura5", 7, 10, None),
    ("stable_image/defect", "stable_image", "defect", 1, 1, None),
]

# (p, d, e): q = p^e in {2, 3, 4, 5, 7, 9}, over prime fields and GF(4)
LEVELS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 2, 1), (2, 2, 2)]

DEFECT_CASE = {"p": 7, "d": 1, "e": 2, "vars": ["x", "y"], "f": "x^60*y^60+x*y", "ideal": None}
DEFECT_ANSWER = [["1"], 0]  # the whole ring is stable at step 0
DEFECT_NOTE = ("stable_image of x^60*y^60 + x*y at q = 49 exceeds the degree cap "
               "in cartier 0.1.0; the true answer is the unit ideal at step 0")

CYCLIC4 = ["a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"]
KATSURA4 = ["a+2*b+2*c+2*d-1", "a^2+2*b^2+2*c^2+2*d^2-a", "2*a*b+2*b*c+2*c*d-b",
            "b^2+2*a*c+2*b*d-c"]
KATSURA3 = ["a+2*b+2*c-1", "a^2+2*b^2+2*c^2-a", "2*a*b+2*b*c-b"]
KATSURA5 = ["a+2*b+2*c+2*d+2*e-1", "a^2+2*b^2+2*c^2+2*d^2+2*e^2-a",
            "2*a*b+2*b*c+2*c*d+2*d*e-b", "b^2+2*a*c+2*b*d+2*c*e-c", "2*b*c+2*a*d+2*b*e-d"]
CLASSIC = {"cyclic4": CYCLIC4, "katsura3": KATSURA3, "katsura4": KATSURA4,
           "katsura5": KATSURA5}


def _coeff(rng, p, d):
    while True:
        c = [rng.randrange(p) for _ in range(d)]
        if any(c):
            return "[" + ",".join(map(str, c)) + "]" if d > 1 else str(c[0])


def _random_poly(rng, p, d, names, nterms, maxdeg):
    terms = []
    for _ in range(nterms):
        mono = "*".join(f"{v}^{rng.randrange(maxdeg + 1)}" for v in names)
        terms.append(f"{_coeff(rng, p, d)}*{mono}")
    return "+".join(terms)


def _scaled(cartier, rng, p, names, texts):
    """A classic system with each variable scaled by a random unit of F_p."""
    ring = cartier.PolyRing(cartier.FieldSpec(p, 1), names)
    scale = {v: rng.randrange(1, p) for v in names}
    subs = {v: ring.parse(f"{scale[v]}*{v}") for v in names}
    out = []
    for text in texts:
        g = ring.zero
        for exps, c in ring.parse(text).terms.items():
            term = ring.constant(c)
            for v, k in zip(names, exps):
                term = term * subs[v] ** k
            g = g + term
        out.append(str(g))
    return out


def random_case(cartier, family, rng) -> dict:
    """Inputs of one candidate instance, as parseable strings."""
    if family == "defect":
        return dict(DEFECT_CASE)
    if family in CLASSIC:
        texts = CLASSIC[family]
        names = ["a", "b", "c", "d", "e"][: len(texts)]
        return {"p": 7, "d": 1, "e": 1, "vars": names, "gens": _scaled(cartier, rng, 7, names, texts)}
    if family == "dense":
        names = ["x", "y", "z"]
        gens = [_random_poly(rng, 7, 1, names, rng.randint(3, 5), 2) for _ in range(3)]
        return {"p": 7, "d": 1, "e": 1, "vars": names, "gens": gens}
    if family == "monomial4":
        p, d = rng.choice([(2, 1), (2, 2)])
        names = ["a", "b", "c", "d"]
        exps = [rng.randrange(2) for _ in names]
        f = "*".join(f"{v}^{k}" for v, k in zip(names, exps))
        return {"p": p, "d": d, "e": 1, "vars": names, "f": f, "ideal": None}
    if family == "q25":
        names = ["x", "y"]
        f = _random_poly(rng, 5, 1, names, rng.randint(1, 3), 40)
        return {"p": 5, "d": 1, "e": 2, "vars": names, "f": f, "ideal": None}
    p, d, e = rng.choice(LEVELS)
    q = p**e
    names = ["x", "y", "z"][: rng.choice([2, 2, 3])]
    f = _random_poly(rng, p, d, names, rng.randint(1, 3), 2 * q - 1)
    seed = [_random_poly(rng, p, d, names, rng.randint(1, 2), 3) for _ in range(rng.randint(1, 2))]
    case = {"p": p, "d": d, "e": e, "vars": names, "f": f, "ideal": seed}
    if family == "compatible":
        ring = cartier.PolyRing(cartier.FieldSpec(p, d), names)
        op = cartier.CartierOperator(ring, ring.parse(f), e)
        stable = op.smallest_stable_containing(cartier.Ideal(ring, [ring.parse(g) for g in seed]))
        case["ideal"] = stable.canonical_strings()
    return case


def make_task(cartier, slot, index, entry):
    name, kind, family = slot[0], slot[1], slot[2]
    case = entry["case"]
    ring = cartier.PolyRing(cartier.FieldSpec(case["p"], case["d"]), case["vars"])
    task = Task(id=f"{name}/{index}", kind=kind, prepare=None, ref=entry.get("ref"))
    if kind == "groebner_basis":
        gens = [ring.parse(g) for g in case["gens"]]
        task.prepare = lambda: lambda: cartier.groebner_basis(gens, cartier.GREVLEX)
        task.canon = lambda gb: sorted(str(g) for g in gb)
        task.prop = lambda gb: checks.groebner(gens, gb)
        return task
    op = cartier.CartierOperator(ring, ring.parse(case["f"]), case["e"])
    seed = [ring.parse(g) for g in case["ideal"] or ()]

    def ideal():
        return cartier.Ideal(ring, seed)  # fresh, so no Gröbner basis is cached

    if kind == "stable_image":
        task.prepare = lambda: (lambda i: lambda: op.stable_image(i))(ideal() if seed else None)
        task.canon = lambda res: [res[0].canonical_strings(), res[1]]
        if family == "defect":
            task.ref = digest(DEFECT_ANSWER)
            task.known_defect = DEFECT_NOTE
    elif kind == "find_splitting":
        task.prepare = lambda: op.find_splitting
        # any h with C(f h) = 1 will do: the digest holds only whether
        # the operator splits, and checks.splitting tests the witness
        task.canon = lambda h: h is not None
        task.prop = lambda h: checks.splitting(op, h)
    elif kind == "is_compatible":
        task.prepare = lambda: (lambda i: lambda: op.is_compatible(i))(ideal())
    elif kind == "smallest_stable_containing":
        task.prepare = lambda: (lambda i: lambda: op.smallest_stable_containing(i))(ideal())
        task.canon = lambda res: res.canonical_strings()
    elif kind == "supp_crys":
        task.prepare = lambda: cartier.IdealModule(op, ideal()).supp_crys
        task.canon = lambda rep: [rep.ann.canonical_strings(), rep.iterations]
    elif kind == "enumerate_compatible_monomial":
        task.prepare = lambda: op.enumerate_compatible_monomial
        task.canon = lambda ideals: sorted(i.canonical_strings() for i in ideals)
        task.prop = checks.squarefree_monomial
    elif kind == "image_of_ring":
        task.prepare = lambda: op.image_of_ring
        task.canon = lambda res: res.canonical_strings()
    else:
        raise ValueError(f"unknown task kind {kind}")
    return task


def build_tasks(cartier, pool, rng):
    """One pass: a fixed number of instances from every slot."""
    tasks = []
    for slot in SLOTS:
        entries = pool["slots"][slot[0]]
        for index in sorted(rng.sample(range(len(entries)), slot[3])):
            tasks.append(make_task(cartier, slot, index, entries[index]))
    rng.shuffle(tasks)
    return tasks


def record_pool(cartier, run_task, limited, log):
    """Fill every slot with instances whose seed-commit cost lies in its
    window; store their inputs and answers.  Candidates are drawn per
    (kind, family) and go to the first band with room that fits them.

    `limited(fn, seconds)` calls fn and returns None if it runs too long.
    A candidate is dropped when it runs too long, ends in a declared
    CartierError, repeats one drawn before or fits no band with room; the
    counts by reason are returned with the pool.  One that gives a wrong
    answer or raises anything else stops the recording: such a defect is
    to be fixed, or added as a known-defect slot, before the pool is
    recorded.
    """
    pool = {slot[0]: [] for slot in SLOTS}
    drops = {}
    groups = {}
    for slot in SLOTS:
        groups.setdefault((slot[1], slot[2]), []).append(slot)
    for (kind, family), slots in groups.items():
        rng = random.Random(f"ideals:{kind}:{family}")
        windows = [s[5] for s in slots if s[5]]
        limit = 3.0 * max(w[1] for w in windows) if windows else 30.0
        dropped = {"slow_to_build": 0, "too_slow": 0, "declared_error": 0,
                   "duplicate": 0, "no_band": 0}
        seen = []
        while any(len(pool[s[0]]) < s[4] for s in slots):
            if sum(dropped.values()) > 20000:
                short = [s[0] for s in slots if len(pool[s[0]]) < s[4]]
                raise RuntimeError(f"too few candidates for {short}")
            case = limited(lambda: random_case(cartier, family, rng), 2.0)
            if case is None:
                dropped["slow_to_build"] += 1
                continue
            if family != "defect" and case in seen:
                dropped["duplicate"] += 1
                continue
            seen.append(case)
            task = make_task(cartier, slots[0], 0, {"case": case})
            result = limited(lambda: run_task(task, 0), limit)
            if result is None:
                dropped["too_slow"] += 1
                continue
            if result.failure and not task.known_defect:
                if not isinstance(result.error, cartier.CartierError):
                    raise RuntimeError(f"{kind} on {case} fails: {result.failure}")
                dropped["declared_error"] += 1
                continue
            slot = next((s for s in slots if len(pool[s[0]]) < s[4] and
                         (s[5] is None or s[5][0] <= result.seconds < s[5][1])), None)
            if slot is None:
                dropped["no_band"] += 1
                continue
            entry = {"case": case, "cost_s": round(result.seconds, 4)}
            if family != "defect":
                entry["ref"] = result.digest
            pool[slot[0]].append(entry)
        drops[f"{kind}/{family}"] = dropped
        log(f"{kind}/{family}: filled {len(slots)} slots, dropped {dropped}")
    return {"slots": pool, "dropped": drops}
