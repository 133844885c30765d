"""The `modules` workload: structure theory of semilinear modules.

Field arithmetic, linalg and the semilinear/crystal algorithms do nearly
all the work here; poly and operators do none.  A table-driven field
kernel or shared power sequences should show their gain on this workload
and no change on `ideals`.

Each slot is a task kind at a fixed input size; every pass runs `count`
instances of it drawn from a pool of `pool` instances whose answers were
recorded with cartier 0.1.0.

Percentiles jump when the tasks at their rank change from seed to seed.
So the slots whose tasks cost 10-30 ms at the recording commit, where the
median falls, and the decompose group where p90 falls run every instance
of their pool in every pass: the tasks around both ranks are the same for
every seed.  Seeds pick the instances of the other slots and the order.
"""

from __future__ import annotations

import random

import checks
from harness import Task

# (kind, field (p, d), dimension n, shape, tasks per pass, pool size)
SLOTS = [
    ("decompose", (2, 1), 6, "random", 2, 6),
    ("decompose", (2, 1), 8, "random", 1, 4),
    ("decompose", (2, 1), 10, "random", 1, 4),
    ("decompose", (2, 2), 6, "random", 2, 6),
    ("decompose", (2, 2), 8, "random", 10, 10),  # where p90 falls
    ("decompose", (2, 2), 10, "random", 1, 4),
    ("decompose", (2, 3), 6, "random", 2, 6),
    ("decompose", (2, 3), 8, "random", 1, 4),
    ("decompose", (2, 3), 12, "random", 1, 4),
    ("decompose", (3, 2), 6, "random", 2, 6),
    ("decompose", (3, 2), 8, "random", 5, 10),
    ("decompose", (3, 2), 10, "random", 1, 4),
    ("fixed_points", (2, 1), 6, "random", 3, 10),
    ("fixed_points", (2, 1), 8, "random", 4, 8),
    ("fixed_points", (2, 1), 10, "random", 4, 4),
    ("fixed_points", (2, 2), 6, "random", 3, 10),
    ("fixed_points", (2, 2), 8, "random", 8, 8),
    ("fixed_points", (2, 2), 10, "random", 1, 4),
    ("fixed_points", (2, 3), 6, "random", 10, 10),
    ("fixed_points", (2, 3), 8, "random", 4, 8),
    ("fixed_points", (2, 3), 12, "random", 1, 4),
    ("fixed_points", (3, 2), 6, "random", 10, 10),
    ("fixed_points", (3, 2), 8, "random", 8, 8),
    ("fixed_points", (3, 2), 10, "random", 1, 4),
    ("hom_space", (2, 1), 3, "random", 3, 10),
    ("hom_space", (2, 1), 4, "random", 16, 16),
    ("hom_space", (2, 1), 5, "random", 1, 4),
    ("hom_space", (2, 2), 3, "random", 10, 10),
    ("hom_space", (2, 2), 4, "random", 1, 4),
    ("hom_space", (2, 2), 5, "random", 1, 4),
    ("hom_space", (2, 3), 3, "random", 5, 10),
    ("hom_space", (2, 3), 4, "random", 1, 4),
    ("hom_space", (3, 2), 3, "random", 10, 10),
    ("hom_space", (3, 2), 4, "random", 1, 4),
    ("hom_space", (3, 2), 5, "random", 1, 4),
    ("jordan_holder", (2, 1), 5, "identity", 1, 1),
    ("jordan_holder", (2, 1), 4, "random", 3, 8),
    ("jordan_holder", (2, 2), 3, "random", 2, 6),
    ("nil_series", (2, 1), 5, "identity", 1, 1),
    ("nil_series", (2, 1), 4, "random", 4, 8),
    ("nil_series", (2, 2), 3, "random", 6, 6),
    ("enumerate_submodules", (2, 1), 6, "random", 1, 4),
    ("enumerate_submodules", (2, 1), 5, "random", 3, 6),
    ("enumerate_submodules", (2, 1), 4, "random", 10, 10),
    ("enumerate_submodules", (2, 2), 3, "random", 4, 10),
    ("saturation_degree", (2, 1), 3, "random", 3, 8),
    ("saturation_degree", (3, 1), 3, "random", 8, 8),
    ("saturation_degree", (5, 1), 3, "random", 8, 8),
    ("saturation_degree", (7, 1), 3, "random", 8, 8),
    ("invariant_profile", (2, 1), 3, "random", 8, 8),
    ("invariant_profile", (3, 1), 3, "random", 8, 8),
    ("invariant_profile", (5, 1), 2, "random", 3, 8),
    ("invariant_profile", (7, 1), 2, "random", 8, 8),
    # Known defect: base change to degree 18 has no modulus in cartier 0.1.0.
    ("invariant_profile", (2, 6), 4, "random", 1, 4),
]

# Base-change bound per characteristic, so every extension field built by
# saturation_degree stays below a few hundred elements.
SATURATION_MAX_M = {2: 6, 3: 4, 5: 3, 7: 3}

KNOWN_DEFECTS = {
    ("invariant_profile", (2, 6), 4): "invariant_profile base-changes GF(2^6) to degree 18, "
    "which has no modulus in cartier 0.1.0",
}


def slot_id(slot) -> str:
    kind, (p, d), n, shape, _, _ = slot
    return f"{kind}/GF{p}^{d}/n{n}/{shape}"


def _element(rng, spec):
    return spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.d)))


def make_module(cartier, p, d, n, shape, key):
    spec = cartier.FieldSpec(p, d)
    if shape == "identity":
        rows = [[spec.one if i == j else spec.zero for j in range(n)] for i in range(n)]
    else:
        rng = random.Random(key)
        rows = [[_element(rng, spec) for _ in range(n)] for _ in range(n)]
    return cartier.SemilinearModule(spec, rows)


def _coeffs(vector):
    return [c for x in vector for c in x.coeffs]


def crystal_invariants(report):
    """What a Jordan-Hoelder report says about the crystal itself: the
    minimal representative is unique only up to isomorphism, so its matrix,
    the lattice's bases and the edge indices are left out."""
    lattice = report.lattice
    return [report.minimal_rep.dim, report.quasi_length, list(report.factor_dims),
            len(lattice), sorted(s.dim for s in lattice), len(report.edges)]


def simple_factor_dims(series):
    """Dimensions of the simple non-nilpotent factors U_i / M_(i+1) of a nil
    series M_0 >= U_0 >= M_1 >= ...; the series itself is not unique, the
    multiset of these factors is."""
    dims = [s.dim for s in series]
    return [dims[0], sorted(dims[k] - dims[k + 1] for k in range(1, len(dims) - 1, 2))]


def make_task(cartier, slot, index, ref):
    kind, (p, d), n, shape, _, _ = slot
    key = f"modules:{slot_id(slot)}:{index}"
    tid = f"{slot_id(slot)}/{index}"
    module = make_module(cartier, p, d, n, shape, key)
    task = Task(id=tid, kind=kind, prepare=None, ref=ref)
    if kind == "decompose":
        task.prepare = lambda: module.decompose
        task.canon = lambda dec: [dec.v_nil.to_json(), dec.v_underline.to_json(), dec.nilord]
        task.prop = lambda dec: checks.decomposition(module, dec)
    elif kind == "fixed_points":
        task.prepare = lambda: module.fixed_points
        task.canon = lambda basis: checks.span_key(
            [_coeffs(v) for v in basis], module.spec.q, module.spec.p)
        task.prop = lambda basis: checks.fixed_points(module, basis)
    elif kind == "hom_space":
        other = make_module(cartier, p, d, n, shape, key + ":target")
        task.prepare = lambda: lambda: module.hom_space(other)
        task.canon = lambda hom: [hom.q, hom.dim, checks.span_key(
            [_coeffs(x for row in phi for x in row) for phi in hom.basis], hom.q, p)]
        task.prop = lambda hom: checks.hom_basis(module, other, hom)
    elif kind == "jordan_holder":
        task.prepare = lambda: lambda: cartier.jordan_holder(module)
        task.canon = crystal_invariants
    elif kind == "nil_series":
        task.prepare = lambda: lambda: cartier.nil_series(module)
        task.canon = simple_factor_dims
    elif kind == "enumerate_submodules":
        task.prepare = lambda: module.enumerate_submodules
        task.canon = lambda infos: checks.sorted_by_json(
            [info.subspace.to_json(), info.surjective] for info in infos
        )
        task.prop = lambda infos: checks.submodules(module, infos)
    elif kind == "saturation_degree":
        max_m = SATURATION_MAX_M[p]
        task.prepare = lambda: lambda: module.saturation_degree(max_m)
    elif kind == "invariant_profile":
        task.prepare = lambda: lambda: cartier.invariant_profile(module)
        task.canon = lambda prof: list(prof)
        task.prop = lambda prof: checks.profile(module, prof)
        task.known_defect = KNOWN_DEFECTS.get((kind, (p, d), n))
        if task.known_defect:
            task.ref = None  # no seed answer exists: checked by property only
    else:
        raise ValueError(f"unknown task kind {kind}")
    return task


def build_tasks(cartier, refs, rng):
    """One pass: `count` pool instances of every slot, in seeded order."""
    tasks = []
    for slot in SLOTS:
        count, pool = slot[4], slot[5]
        for index in sorted(rng.sample(range(pool), count)):
            tid = f"{slot_id(slot)}/{index}"
            if tid not in refs and (slot[0], slot[1], slot[2]) not in KNOWN_DEFECTS:
                raise KeyError(f"no reference answer for {tid}; record the pool again")
            tasks.append(make_task(cartier, slot, index, refs.get(tid)))
    rng.shuffle(tasks)
    return tasks


def pool_tasks(cartier):
    """Every pool instance once, for recording references."""
    return [
        make_task(cartier, slot, index, None)
        for slot in SLOTS
        for index in range(slot[5])
    ]
