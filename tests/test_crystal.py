"""Minimal representatives, quasi-length, nil series, and Hom up to
nilpotence."""

import random
from itertools import combinations

import pytest

from cartier.errors import UsageError
from cartier.field import FieldSpec
from cartier.semilinear import SemilinearModule, Subspace
from cartier import crystal

from conftest import (
    block_extension,
    fq_combinations,
    matmul,
    module_from_ints,
    module_with_nilpotent_part,
    oracle_determinant,
    oracle_intertwiners,
    oracle_inverse,
    oracle_isomorphic,
    random_module,
    random_suite,
    strictly_upper,
)


# -- minimal representatives -------------------------------------------------


def test_minimal_rep_of_invertible_module(f2):
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    rep = crystal.minimal_rep(m)
    assert rep.dim == 2
    assert crystal.isomorphism_verdict(rep, m) == "isomorphic"


def test_minimal_rep_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    rep = crystal.minimal_rep(m)
    assert rep.dim == 1 and rep.matrix == ((f2.one,),)


def test_minimal_rep_of_nilpotent_module(f2):
    m = module_from_ints(f2, [[0, 1], [0, 0]])
    assert crystal.minimal_rep(m).dim == 0


def test_minimal_rep_idempotent_on_suite():
    for m in random_suite(count=60, max_dim=3, seed=404):
        rep = crystal.minimal_rep(m)
        again = crystal.minimal_rep(rep)
        assert again.dim == rep.dim
        assert crystal.invariant_profile(again) == crystal.invariant_profile(rep)
        if rep.dim <= 3:
            assert oracle_isomorphic(again, rep)


def test_nil_isomorphic_modules_share_minimal_rep(f2):
    rng = random.Random(17)
    # embed a seed as a submodule with nilpotent quotient and as a quotient
    # with nilpotent kernel; minimal representatives must agree
    for _ in range(20):
        seed = random_module(rng, f2, 2)
        n_nil = rng.randint(1, 2)
        whole, sub, quot = block_extension(rng, f2, 2, n_nil)
        # overwrite blocks so the quotient block is nilpotent and sub = seed
        rows = [list(r) for r in whole.matrix]
        for i in range(2):
            for j in range(2):
                rows[i][j] = seed.matrix[i][j]
        nil = strictly_upper(rng, f2, n_nil)
        for i in range(n_nil):
            for j in range(n_nil):
                rows[2 + i][2 + j] = nil.matrix[i][j]
        extension = SemilinearModule(f2, rows)
        rep_seed = crystal.minimal_rep(seed)
        rep_ext = crystal.minimal_rep(extension)
        assert rep_seed.dim == rep_ext.dim
        assert len(crystal.fixed_submodule_lattice(rep_seed)) == len(
            crystal.fixed_submodule_lattice(rep_ext)
        )
        if rep_seed.dim <= 3:
            assert oracle_isomorphic(rep_seed, rep_ext)


def test_order_independence_quotient_vs_restrict(f2):
    # quotient by the nilpotent part first, then restrict to the stable
    # image, and the other way around: same crystal
    for m in random_suite(count=40, max_dim=3, seed=99):
        under = m.stable_image()
        route_a = m.restrict_to(under)
        nil_a = route_a.nilpotent_part()
        rep_a, _ = route_a.quotient_by(nil_a)

        nil = m.nilpotent_part()
        route_b, _ = m.quotient_by(nil)
        under_b = route_b.stable_image()
        rep_b = route_b.restrict_to(under_b)

        assert rep_a.dim == rep_b.dim
        hom_a = rep_a.hom_space(rep_a)
        hom_b = rep_b.hom_space(rep_b)
        assert hom_a.dim == hom_b.dim
        if rep_a.dim <= 3:
            assert oracle_isomorphic(rep_a, rep_b)


# -- nil-isomorphisms -----------------------------------------------------------


def test_identity_is_nil_isomorphism(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    assert crystal.is_nil_isomorphism(Subspace.full(f2, 2).rows, m, m)


def test_inclusion_of_stable_image_is_nil_isomorphism(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    under = m.stable_image()
    restricted = m.restrict_to(under)
    # the inclusion matrix has the basis vectors as columns
    phi = tuple(zip(*under.rows))
    assert crystal.is_nil_isomorphism(phi, restricted, m)


def test_zero_map_between_non_nilpotent_is_not(f2):
    m = module_from_ints(f2, [[1]])
    assert not crystal.is_nil_isomorphism([[f2.zero]], m, m)


def test_non_hom_matrix_rejected(f2):
    a = module_from_ints(f2, [[1, 1], [0, 0]])
    b = module_from_ints(f2, [[0, 1], [1, 0]])
    with pytest.raises(UsageError):
        crystal.is_nil_isomorphism(Subspace.full(f2, 2).rows, a, b)


@pytest.mark.parametrize(
    "source, target, expected",
    [([], [[0]], True), ([], [[1]], False), ([[0]], [], True), ([[1]], [], False), ([], [], True)],
    ids=["into-nilpotent", "into-unit", "from-nilpotent", "from-unit", "both"],
)
def test_a_map_with_a_zero_dimensional_side(f2, source, target, expected):
    # both products of the module-map test are empty, so the one matrix of
    # this shape is a map; its kernel or cokernel is the other module
    a, b = module_from_ints(f2, source), module_from_ints(f2, target)
    phi = [[f2.zero] * a.dim for _ in range(b.dim)]
    assert crystal.is_nil_isomorphism(phi, a, b) is expected


def test_nil_isomorphisms_of_minimal_modules_are_invertible(f2):
    # between modules with no nilpotent submodules or quotients, a map with
    # nilpotent kernel and cokernel has no room to be anything but bijective
    rng = random.Random(271)
    for _ in range(15):
        a = crystal.minimal_rep(random_module(rng, f2, rng.randint(1, 3)))
        b = crystal.minimal_rep(random_module(rng, f2, rng.randint(1, 3)))
        for phi in fq_combinations(a.hom_space(b).basis, b.dim, a.dim, f2):
            if crystal.is_nil_isomorphism(phi, a, b):
                assert a.dim == b.dim
                assert not oracle_determinant(phi, f2).is_zero


@pytest.mark.parametrize(
    "spec",
    [FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2), FieldSpec(2, 2, None, 2)],
    ids=["F2", "F3", "GF4-q2", "GF4-q4"],
)
def test_intertwiners_match_brute_force(spec):
    rng = random.Random(spec.p * 10 + spec.e)
    for n in (1, 2):
        for trial in range(6):
            a = random_module(rng, spec, n)
            b = a if trial % 3 == 0 else random_module(rng, spec, n)
            maps = oracle_intertwiners(a, b)
            assert a.hom_space(b).size == len(maps)
            invertible = any(
                not oracle_determinant(phi, spec).is_zero for phi in maps
            )
            assert oracle_isomorphic(a, b) == invertible
    # dim V != dim W, where a row/column swap in the Hom system would show
    found = 0
    for nv, nw in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3)):
        for _ in range(3):
            a, b = random_module(rng, spec, nv), random_module(rng, spec, nw)
            maps = oracle_intertwiners(a, b)
            hom = a.hom_space(b)
            assert hom.size == len(maps)
            for phi in hom.basis:
                assert [list(row) for row in phi] in maps  # phi . A = B . sigma^(-e)(phi)
            found += hom.dim
    assert found


# -- quasi-length -------------------------------------------------------------------


def test_quasi_length_zero_module(f2):
    assert crystal.quasi_length(SemilinearModule(f2, [])) == 0


def test_quasi_length_identity_plane(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    report = crystal.jordan_holder(m)
    assert report.quasi_length == 2
    assert len(report.lattice) == 5
    assert report.factor_dims == (1, 1)


def test_quasi_length_simple_gf4(gf4):
    m = SemilinearModule(gf4, [[gf4.gen]])
    assert crystal.quasi_length(m) == 1


def test_quasi_length_of_nilpotent(f2):
    m = module_from_ints(f2, [[0]])
    assert crystal.quasi_length(m) == 0


def test_submodule_count_bijection_on_suite():
    for m in random_suite(count=50, max_dim=3, seed=2025):
        report = crystal.jordan_holder(m)
        fixed_in_m = crystal.fixed_submodule_lattice(m)
        assert len(fixed_in_m) == len(report.lattice)


def test_quasi_length_additive_on_extensions():
    rng = random.Random(321)
    for _ in range(25):
        spec = FieldSpec(2, 1) if rng.random() < 0.5 else FieldSpec(2, 2)
        whole, sub, quot = block_extension(
            rng, spec, rng.randint(1, 2), rng.randint(1, 2)
        )
        assert crystal.quasi_length(whole) == crystal.quasi_length(
            sub
        ) + crystal.quasi_length(quot)


# -- nil series ------------------------------------------------------------------------


def test_nil_series_simple_minimal(f2):
    m = module_from_ints(f2, [[1]])
    series = crystal.nil_series(m)
    dims = [s.dim for s in series]
    assert dims == [1, 1, 0, 0]


def test_nil_series_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    series = crystal.nil_series(m)
    assert [s.dim for s in series] == [2, 1, 0, 0]
    assert series[1] == Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])


def test_nil_series_nilpotent_module(f2):
    m = module_from_ints(f2, [[0]])
    series = crystal.nil_series(m)
    assert [s.dim for s in series] == [1, 0]


def test_nil_series_restricts_to_the_stable_image_once(monkeypatch):
    restricted, real = [], SemilinearModule.restrict_to
    monkeypatch.setattr(
        SemilinearModule, "restrict_to", lambda self, sub: restricted.append(sub) or real(self, sub)
    )
    for m in random_suite(count=30, max_dim=3, seed=888):
        top = m.stable_image()
        restricted.clear()
        crystal.nil_series(m)
        assert restricted.count(top) == 1


def test_nil_series_structure_on_suite():
    for m in random_suite(count=30, max_dim=3, seed=888):
        series = crystal.nil_series(m)
        # alternating containments with the required factor structure
        assert series[0].dim == m.dim
        assert series[-1].is_zero
        for a, b in zip(series, series[1:]):
            assert a.contains(b)
        # heads over tails are nilpotent: for pairs (M_i, U_i)
        for k in range(0, len(series) - 1, 2):
            head, tail = series[k], series[k + 1]
            if head.dim == tail.dim:
                continue
            restricted = m.restrict_to(head) if m.is_stable(head) else None
            if restricted is None:
                continue
            inner = Subspace.from_vectors(
                m.spec, head.dim, _coords_in(head, tail)
            )
            q, _ = restricted.quotient_by(inner)
            assert q.is_nilpotent
        # the number of simple factors equals the quasi-length
        assert (len(series) - 2) // 2 == crystal.quasi_length(m)


def _coords_in(outer: Subspace, inner: Subspace):
    return [outer.coords(r) for r in inner.rows]


# -- hom up to nilpotence ---------------------------------------------------------------


def test_hom_crys_of_nilpotent_module(f2):
    m = module_from_ints(f2, [[0]])
    assert crystal.hom_crys(m, m).dim == 0


def test_hom_crys_mixed_pair(f2):
    live = module_from_ints(f2, [[1]])
    dead = module_from_ints(f2, [[0]])
    assert crystal.hom_crys(live, dead).dim == 0
    assert crystal.hom_crys(dead, live).dim == 0


def test_hom_crys_of_simple_is_field(gf4):
    m = SemilinearModule(gf4, [[gf4.gen]])
    hom = crystal.hom_crys(m, m)
    assert hom.size == 2
    order, is_field = crystal.minimal_rep(m).end_ring()
    assert (order, is_field) == (2, True)


def test_hom_crys_cardinalities_are_powers_of_q():
    suite = random_suite(count=24, max_dim=3, seed=1234)
    for a, b in zip(suite[::2], suite[1::2]):
        if a.spec != b.spec:
            continue
        hom = crystal.hom_crys(a, b)
        size = hom.size
        q = hom.q
        while size % q == 0:
            size //= q
        assert size == 1


def test_hom_crys_ignores_nilpotent_padding(f2):
    rng = random.Random(777)
    live = module_from_ints(f2, [[1]])
    padded = module_from_ints(f2, [[1, 1], [0, 0]])
    assert crystal.hom_crys(live, padded).dim == crystal.hom_crys(live, live).dim


# -- anti-nilpotence -------------------------------------------------------------------------


def test_anti_nilpotent_invertible(f2):
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    assert crystal.anti_nilpotent(m)


def test_not_anti_nilpotent_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    assert not crystal.anti_nilpotent(m)


def test_anti_nilpotent_zero_module(f2):
    assert crystal.anti_nilpotent(SemilinearModule(f2, []))


def test_anti_nilpotent_counts_agree(f2):
    # when anti-nilpotent, the stable subspaces and the fixed subspaces
    # are the same finite collection
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    infos = m.enumerate_submodules()
    assert crystal.anti_nilpotent(m)
    assert all(i.surjective for i in infos)
    assert len(crystal.fixed_submodule_lattice(m)) == len(infos)


# -- isomorphism verdicts -----------------------------------------------------------------------


def test_isomorphism_verdict_small(f2):
    a = module_from_ints(f2, [[1, 0], [0, 1]])
    b = module_from_ints(f2, [[0, 1], [1, 0]])
    assert crystal.isomorphism_verdict(a, a) == "isomorphic"
    # the swap is conjugate to the identity over F_2? exhaustive search decides
    verdict = crystal.isomorphism_verdict(a, b)
    assert verdict in ("isomorphic", "distinct")


def test_isomorphism_verdict_exact_in_dimension_4(f2):
    a = module_from_ints(
        f2,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    b = module_from_ints(
        f2,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    )
    assert crystal.isomorphism_verdict(a, a) == "isomorphic"
    assert crystal.isomorphism_verdict(a, b) == "distinct"


def jordan_blocks(spec, sizes):
    """Direct sum of unipotent Jordan blocks J_s(1) over a prime field."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            rows[i][i] = 1
            if i + 1 < start + size:
                rows[i][i + 1] = 1
        start += size
    return module_from_ints(spec, rows)


def test_isomorphism_verdict_tells_jordan_types_with_equal_profiles(f2):
    # J_4(1) + J_2(1) and J_3(1) + J_3(1) share dimension, ranks and the
    # fixed-point dimensions (2, 4, 2); their endomorphism rings have
    # dimensions 10 and 12
    a, b = jordan_blocks(f2, (4, 2)), jordan_blocks(f2, (3, 3))
    assert crystal.invariant_profile(a) == crystal.invariant_profile(b)
    assert crystal.isomorphism_verdict(a, b) == "distinct"
    assert crystal.isomorphism_verdict(b, a) == "distinct"


def test_isomorphism_verdict_sees_nilpotent_part_and_field(f2, gf4):
    # equal unit parts (C = 1 on a line), nilpotent parts J_2(0) and
    # J_1(0) + J_1(0)
    a = module_from_ints(f2, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    b = module_from_ints(f2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert crystal.minimal_rep(a) == crystal.minimal_rep(b)
    assert crystal.isomorphism_verdict(a, b) == "distinct"
    assert not oracle_isomorphic(a, b)
    same_ints = module_from_ints(gf4, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert crystal.isomorphism_verdict(a, same_ints) == "distinct"


def conjugate(module, rng):
    """The module in a random basis: P . A . sigma^(-e)(P)^(-1)."""
    spec, n = module.spec, module.dim
    while True:
        p = random_module(rng, spec, n).matrix
        if not oracle_determinant(p, spec).is_zero:
            break
    twisted_inverse = oracle_inverse([[x.inv_frobenius(spec.e) for x in row] for row in p], spec)
    return SemilinearModule(spec, matmul(matmul(p, module.matrix, spec), twisted_inverse, spec))


@pytest.mark.parametrize(
    "spec, max_dim, count",
    [
        (FieldSpec(2, 1), 4, 70),
        (FieldSpec(3, 1), 3, 45),
        (FieldSpec(2, 2), 3, 45),
        (FieldSpec(2, 2, None, 2), 3, 45),
    ],
    ids=["F2", "F3", "GF4-q2", "GF4-q4"],
)
def test_isomorphism_verdict_matches_exhaustive_search(spec, max_dim, count):
    # pairs with equal rank sequences, split into isomorphism classes by
    # the exhaustive oracle; half the modules are conjugates of the others
    rng = random.Random(spec.order * 10 + spec.e)
    groups = {}
    for _ in range(count):
        m = module_with_nilpotent_part(rng, spec, rng.randint(1, max_dim))
        for x in (m, conjugate(m, rng)):
            groups.setdefault(crystal.invariant_profile(x)[2], []).append(x)
    pairs = isomorphic = 0
    for members in groups.values():
        reps, classes = [], []
        for x in members:
            cls = next((i for i, r in enumerate(reps) if oracle_isomorphic(r, x)), None)
            if cls is None:
                cls = len(reps)
                reps.append(x)
            classes.append(cls)
        for i, j in combinations(range(len(members)), 2):
            same = classes[i] == classes[j]
            verdict = crystal.isomorphism_verdict(members[i], members[j])
            assert verdict == ("isomorphic" if same else "distinct")
            pairs += 1
            isomorphic += same
    assert pairs >= 500 and 0 < isomorphic < pairs


@pytest.mark.parametrize(
    "spec",
    [FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(3, 2, None, 2)],
    ids=["F2", "F3", "GF4", "GF9-q3", "GF9-q9"],
)
def test_isomorphism_verdict_on_conjugated_modules(spec):
    rng = random.Random(spec.order + spec.e)
    for n in (4, 5, 6):
        m = module_with_nilpotent_part(rng, spec, n)
        assert crystal.isomorphism_verdict(m, conjugate(m, rng)) == "isomorphic"


def test_report_json(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    data = crystal.jordan_holder(m).to_json()
    assert data["quasi_length"] == 2
    assert len(data["lattice"]) == 5
    assert all(isinstance(e, list) and len(e) == 2 for e in data["edges"])


# -- errors at the public boundary ---------------------------------------------


@pytest.mark.parametrize(
    "phi, target, message",
    [
        ([[1]], FieldSpec(2, 2), "modules live over different field specs"),
        ([[1, 1]], FieldSpec(2, 1), "matrix shape does not match the modules"),
    ],
    ids=["field", "shape"],
)
def test_nil_isomorphism_errors_name_their_cause(f2, phi, target, message):
    source = module_from_ints(f2, [[1]])
    phi = [[f2.from_int(c) for c in row] for row in phi]
    with pytest.raises(UsageError) as info:
        crystal.is_nil_isomorphism(phi, source, module_from_ints(target, [[1]]))
    assert str(info.value) == message
