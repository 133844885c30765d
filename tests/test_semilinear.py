"""Structure theory of modules with a q^(-1)-linear operator."""

import importlib.util
import random
from itertools import islice, product
from pathlib import Path

import pytest

from cartier import crystal, field, semilinear
from cartier.errors import ResourceError, UsageError
from cartier.field import FieldSpec
from cartier import linalg
from cartier.semilinear import (
    FrobeniusModule,
    SemilinearModule,
    Subspace,
    count_subspaces,
    gaussian_binomial,
)

from conftest import (
    block_extension,
    fq_combinations,
    matmul,
    module_from_ints,
    module_with_nilpotent_part,
    nilpotent_block_extension,
    oracle_end_ring,
    oracle_fixed_points,
    oracle_nilpotent_part,
    oracle_rref,
    oracle_stable_image,
    oracle_subspaces,
    random_element,
    random_module,
    random_suite,
    span_set,
    strictly_upper,
    subfield_elements,
)


def rank(rows, spec):
    """The rank of a FieldElement matrix, by conftest's Gauss-Jordan."""
    return len(oracle_rref([spec.unwrap(r) for r in rows], spec.kernel)[0])


# -- apply and power matrices ------------------------------------------


def test_apply_zero_matrix(f2):
    m = module_from_ints(f2, [[0, 0], [0, 0]])
    for v in product([f2.zero, f2.one], repeat=2):
        assert all(x.is_zero for x in m.apply(v))


def test_apply_gf4_scalar(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    assert m.apply((w,)) == (gf4.one,)


def test_apply_identity_trivial_twist(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    for v in product([f2.zero, f2.one], repeat=2):
        assert m.apply(v) == v


def test_apply_dimension_mismatch(f2):
    m = module_from_ints(f2, [[1]])
    with pytest.raises(UsageError):
        m.apply((f2.one, f2.one))


@pytest.mark.parametrize("cls", [SemilinearModule, FrobeniusModule])
def test_structural_matrix_is_validated(cls, f2, gf4):
    with pytest.raises(UsageError, match="square"):
        cls(f2, [[f2.one, f2.zero]])
    with pytest.raises(UsageError, match="outside the coefficient field"):
        cls(f2, [[gf4.one]])
    with pytest.raises(UsageError, match="does not divide"):
        cls(FieldSpec(2, 3, None, 2), [])


def test_twist_must_divide_degree():
    spec = FieldSpec(2, 3, None, 2)
    with pytest.raises(UsageError):
        SemilinearModule(spec, [[spec.one]])


def test_power_matrix_zero_is_identity(gf4):
    m = SemilinearModule(gf4, [[gf4.gen]])
    assert m.power_matrix(0) == Subspace.full(gf4, 1).rows


def test_power_matrix_gf4(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    # B_2 = w * w^(1/2) = w * w^2 = 1, so C^2(v) = v^(1/4)
    assert m.power_matrix(2) == ((gf4.one,),)
    for v in gf4.elements():
        assert m.apply(m.apply((v,))) == (v.inv_frobenius(2),)


def test_power_matrix_nilpotent(f2):
    m = module_from_ints(f2, [[0, 1], [0, 0]])
    assert all(x.is_zero for row in m.power_matrix(2) for x in row)


def test_semilinearity_of_apply(gf8):
    rng = random.Random(7)
    m = random_module(rng, gf8, 3)
    for _ in range(50):
        a = random_element(rng, gf8)
        v = tuple(random_element(rng, gf8) for _ in range(3))
        aq = a.frobenius(gf8.e)
        lhs = m.apply(tuple(aq * x for x in v))
        rhs = tuple(a * y for y in m.apply(v))
        assert lhs == rhs


@pytest.mark.parametrize("p,d,e", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_apply_power_matches_iterated_apply(p, d, e):
    spec = FieldSpec(p, d, None, e)
    rng = random.Random(100 * p + 10 * d + e)
    for n in (1, 3):
        m = random_module(rng, spec, n)
        for _ in range(5):
            v = w = tuple(random_element(rng, spec) for _ in range(n))
            for i in range(6):
                assert m.apply_power(v, i) == w
                w = m.apply(w)
    with pytest.raises(UsageError):
        m.apply_power(v, -1)


def test_vectors_of_the_wrong_length_raise(f2):
    m = module_from_ints(f2, [[1, 1], [0, 1]])
    line = Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])
    _, qmap = m.quotient_by(line)
    calls = [
        m.apply,
        lambda v: m.apply_power(v, 1),
        line.contains_vector,
        line.reduce,
        line.coords,
        qmap.project,
        lambda v: Subspace.from_vectors(f2, 2, [v]),
    ]
    for v in [(f2.one,), (f2.one,) * 3]:
        for call in calls:
            with pytest.raises(UsageError, match=f"vector length {len(v)} != dimension 2"):
                call(v)


def test_subspaces_of_another_field_or_ambient_raise(f2, f3):
    m = module_from_ints(f2, [[1, 1], [0, 1]])
    line = Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])
    calls = [line.add, line.intersect, line.contains, m.is_stable, m.restrict_to, m.quotient_by]
    for other in [
        Subspace.from_vectors(f3, 2, [(f3.one, f3.zero)]),
        Subspace.full(f3, 2),
        Subspace.full(f2, 3),
        Subspace.zero(f2, 1),
    ]:
        for call in calls:
            with pytest.raises(UsageError, match="subspace of FieldSpec"):
                call(other)
    assert line.add(line) == line.intersect(line) == line and m.restrict_to(line).dim == 1


def test_subspace_reduce_is_the_coset_member_vanishing_at_the_pivots(f3, gf4):
    rng = random.Random(11)
    for spec in (f3, gf4):
        for _ in range(8):
            vectors = [[random_element(rng, spec) for _ in range(3)] for _ in range(rng.randint(0, 2))]
            sub = Subspace.from_vectors(spec, 3, vectors)
            members = [tuple(map(spec.element, w)) for w in span_set(sub)]
            for _ in range(6):
                v = tuple(random_element(rng, spec) for _ in range(3))
                coset = [tuple(a + b for a, b in zip(v, w)) for w in members]
                (expected,) = [r for r in coset if all(r[pc].is_zero for pc in sub.pivots)]
                assert sub.reduce(v) == expected
                assert sub.reduce(expected) == expected
                assert sub.contains_vector(v) == (v in members) == all(x.is_zero for x in expected)
                coords = sub.coords(v)
                if coords is None:
                    assert v not in members
                else:
                    combo = [spec.zero] * 3
                    for c, row in zip(coords, sub.rows):
                        combo = [a + c * b for a, b in zip(combo, row)]
                    assert tuple(combo) == v


# -- stable image and nilpotent part ------------------------------------


def test_stable_image_invertible(f2):
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    assert m.stable_image().dim == 2


def test_stable_image_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    sub = m.stable_image()
    assert sub == Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])
    assert span_set(sub) == oracle_stable_image(m)


def test_stable_image_zero(f2):
    m = module_from_ints(f2, [[0, 0], [0, 0]])
    assert m.stable_image().is_zero


def test_nilpotent_part_invertible(f2):
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    assert m.nilpotent_part().is_zero


def test_nilpotent_part_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    sub = m.nilpotent_part()
    assert sub == Subspace.from_vectors(f2, 2, [(f2.one, f2.one)])
    assert span_set(sub) == oracle_nilpotent_part(m)


def test_nilpotent_part_zero_matrix(f2):
    m = module_from_ints(f2, [[0, 0], [0, 0]])
    assert m.nilpotent_part().dim == 2


def test_decompose_example(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    dec = m.decompose()
    assert dec.v_nil.dim == 1 and dec.v_underline.dim == 1
    assert dec.nilord is None


def test_decompose_identity(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    dec = m.decompose()
    assert dec.v_nil.is_zero and dec.v_underline.dim == 2


def test_decompose_strictly_upper_f3(f3):
    rng = random.Random(3)
    m = strictly_upper(rng, f3, 3)
    dec = m.decompose()
    assert dec.v_nil.dim == 3
    assert dec.nilord is not None and dec.nilord <= 3


def test_direct_sum_on_random_suite():
    for m in random_suite(count=200, max_dim=4):
        dec = m.decompose()  # raises InvariantViolation on failure
        assert dec.v_nil.dim + dec.v_underline.dim == m.dim
        assert dec.v_nil.intersect(dec.v_underline).is_zero
        # the restriction of C to the stable image is surjective
        assert m.image_of(dec.v_underline) == dec.v_underline


def test_image_chain_stabilizes_within_dim_steps():
    for m in random_suite(count=60, max_dim=4, seed=5):
        chain = [Subspace.full(m.spec, m.dim)]
        for _ in range(m.dim):
            chain.append(m.image_of(chain[-1]))
        assert m.image_of(chain[-1]) == chain[-1]
        # kernel chain of the power matrices stabilizes as well
        ranks = [rank(m.power_matrix(i), m.spec) for i in range(m.dim + 2)]
        assert ranks[m.dim] == ranks[m.dim + 1]


def test_oracle_agreement_on_small_random_modules():
    rng = random.Random(99)
    specs = [FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(3, 1)]
    for _ in range(40):
        spec = rng.choice(specs)
        n = rng.randint(1, 3)
        m = random_module(rng, spec, n)
        assert span_set(m.stable_image()) == oracle_stable_image(m)
        assert span_set(m.nilpotent_part()) == oracle_nilpotent_part(m)


# -- nilpotence orders ---------------------------------------------------


def fitting_products(m):
    """The matrix products of a walk to the Fitting index: m, or m - 1
    when B_m = 0, and none for n = 0, with m the first index whose rank
    the next one repeats (B_0 = I and B_1 = A are free).  The ranks come
    from the public power matrices."""
    ranks = [rank(m.power_matrix(i), m.spec) for i in range(m.dim + 2)]
    fit = next(i for i in range(m.dim + 1) if ranks[i + 1] == ranks[i])
    return max(fit + (ranks[fit] > 0) - 1, 0)


def count_products(monkeypatch):
    calls, real = [], linalg._mul
    monkeypatch.setattr(linalg, "_mul", lambda a, b, k: calls.append(1) or real(a, b, k))
    return calls


def nilpotent_jordan(spec, sizes):
    """Direct sum of nilpotent Jordan blocks J_s(0)."""
    n, starts = sum(sizes), {sum(sizes[:i]) for i in range(len(sizes))}
    return module_from_ints(
        spec, [[int(j == i + 1 and j not in starts) for j in range(n)] for i in range(n)]
    )


def low_rank(rng, spec, n, r):
    """A random module whose matrix is a product n x r times r x n."""
    left = [[random_element(rng, spec) for _ in range(r)] for _ in range(n)]
    right = [[random_element(rng, spec) for _ in range(n)] for _ in range(r)]
    return SemilinearModule(spec, matmul(left, right, spec) if r else [[spec.zero] * n] * n)


def test_decompose_walks_the_powers_once(gf8, monkeypatch):
    rng = random.Random(88)
    m = random_module(rng, gf8, 8)
    while m.is_nilpotent:
        m = random_module(rng, gf8, 8)
    expected = fitting_products(m)
    calls = count_products(monkeypatch)
    m.decompose()
    assert len(calls) == expected


def test_decompose_of_an_invertible_module_multiplies_and_applies_nothing(gf8, monkeypatch):
    # B_1 = A is free, a full-rank B_m has no kernel, and C maps V into V
    rng = random.Random(89)
    m = random_module(rng, gf8, 8)
    while rank(m.matrix, gf8) < 8:
        m = random_module(rng, gf8, 8)
    products, applied, kernels = count_products(monkeypatch), [], []
    apply, null_space = SemilinearModule._apply, linalg._null_space
    monkeypatch.setattr(SemilinearModule, "_apply", lambda *a: applied.append(1) or apply(*a))
    monkeypatch.setattr(linalg, "_null_space", lambda *a: kernels.append(1) or null_space(*a))
    dec = m.decompose()
    assert dec.v_nil.is_zero and dec.v_underline.dim == 8 and dec.nilord is None
    assert (len(products), len(applied), len(kernels)) == (0, 0, 0)


@pytest.mark.parametrize("spec", [FieldSpec(2, 2), FieldSpec(2, 3)], ids=repr)
def test_saturation_degree_walks_the_powers_once(spec, monkeypatch):
    # B = B_(d/e) comes from the Fitting walk's powers: max(walk, d/e - 1)
    # products, then B^2, ..., B^s for the answer s (max_m when capped)
    rng, max_m = random.Random(spec.d), 4
    modules = [random_module(rng, spec, 5), nilpotent_jordan(spec, (3, 1))]
    modules += [module_with_nilpotent_part(rng, spec, 5) for _ in range(4)]
    answers = [m.saturation_degree(max_m=max_m) for m in modules]
    expected = [
        max(fitting_products(m), spec.d - 1) + (s or max_m) - 1 for m, s in zip(modules, answers)
    ]
    calls = count_products(monkeypatch)
    for m, s, want in zip(modules, answers, expected):
        calls.clear()
        assert m.saturation_degree(max_m=max_m) == s
        assert len(calls) == want


FITTING_QUESTIONS = {
    "stable_image": SemilinearModule.stable_image,
    "nilpotent_part": SemilinearModule.nilpotent_part,
    "nilord": SemilinearModule.nilord,
    "dual_nilord": lambda m: m.dual().nilord(),
    "invariant_profile": crystal.invariant_profile,
    "minimal_rep": crystal.minimal_rep,
}


@pytest.mark.parametrize("question", FITTING_QUESTIONS)
def test_every_fitting_question_walks_the_powers_once(question, gf4, gf8, monkeypatch):
    rng = random.Random(87)
    modules = [random_module(rng, gf8, 8), low_rank(rng, gf4, 6, 3), strictly_upper(rng, gf4, 5)]
    modules += [module_with_nilpotent_part(rng, gf4, 6) for _ in range(6)]
    modules += [nilpotent_jordan(gf4, (3, 2, 1))]
    if question == "minimal_rep":  # one walk of the module and one of its restriction
        expected = [fitting_products(m) + fitting_products(crystal.minimal_rep(m)) for m in modules]
    elif question == "dual_nilord":
        expected = [fitting_products(m.dual()) for m in modules]
    else:
        expected = list(map(fitting_products, modules))
    assert max(expected) > 2
    # the profile's base-change dimensions make products of their own
    monkeypatch.setattr(
        SemilinearModule, "_base_change_fixed_dims", lambda m, powers=None: iter((0,) * 3)
    )
    calls = count_products(monkeypatch)
    for m, want in zip(modules, expected):
        calls.clear()
        FITTING_QUESTIONS[question](m)
        assert len(calls) == want


def test_the_profile_takes_the_base_change_power_from_its_walk(gf4, gf8, monkeypatch):
    # B_(d/e) comes from the powers the walk formed, or from where the walk
    # stopped: max(walk, d/e - 1) products, then B^2 and B^3 for m = 2, 3
    rng = random.Random(86)
    modules = [random_module(rng, gf8, 4), random_module(rng, gf8, 6), low_rank(rng, gf4, 6, 3)]
    modules += [module_with_nilpotent_part(rng, gf8, 6) for _ in range(3)]
    modules += [nilpotent_jordan(gf8, (3, 2, 1)), strictly_upper(rng, gf4, 5)]
    expected = [max(fitting_products(m), m.spec.d // m.spec.e - 1) + 2 for m in modules]
    assert any(fitting_products(m) < m.spec.d // m.spec.e - 1 for m in modules)
    assert any(fitting_products(m) > m.spec.d // m.spec.e - 1 for m in modules)
    calls = count_products(monkeypatch)
    for m, want in zip(modules, expected):
        calls.clear()
        crystal.invariant_profile(m)
        assert len(calls) == want


def count_walks(monkeypatch):
    """Patch `_fitting` to record the module of each walk."""
    walked, real = [], SemilinearModule._fitting
    monkeypatch.setattr(
        SemilinearModule, "_fitting", lambda m, *args: walked.append(m) or real(m, *args)
    )
    return walked


def test_each_crystal_question_walks_a_module_once(gf4, gf8, monkeypatch):
    # nil_series walks the module once, for the top of its series and its
    # minimal representative together; isomorphism_verdict walks each side
    # once, for its profile and its stable image together
    rng = random.Random(85)
    modules = [module_with_nilpotent_part(rng, gf4, 4) for _ in range(3)]
    modules += [random_module(rng, gf8, 4), nilpotent_jordan(gf4, (2, 1))]
    walked = count_walks(monkeypatch)
    for m in modules:
        walked.clear()
        crystal.nil_series(m)
        assert sum(w is m for w in walked) == 1
        other = SemilinearModule(m.spec, m.matrix)
        walked.clear()
        assert crystal.isomorphism_verdict(m, other) == "isomorphic"
        assert sum(w is m for w in walked) == sum(w is other for w in walked) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_a_nilpotent_jordan_block_makes_at_most_n_products(n, f2, gf9, monkeypatch):
    # B_n = 0 ends the walk, and B_0 = I and B_1 = A are free
    for spec in (f2, gf9):
        m = nilpotent_jordan(spec, (n,))
        calls = count_products(monkeypatch)
        dec = m.decompose()
        assert dec.nilord == n and dec.v_nil.dim == n and len(calls) == n - 1


def test_the_walk_from_b0_on_the_smallest_modules(gf8, f2):
    empty = SemilinearModule(gf8, [])
    dec = empty.decompose()
    assert empty.nilord() == 0 and dec.nilord == 0
    assert dec.v_nil.is_zero and dec.v_underline.is_zero
    assert crystal.invariant_profile(empty) == (0, 0, (0,), (0, 0, 0))
    zero = module_from_ints(f2, [[0]])
    assert zero.nilord() == 1 and zero.decompose().v_nil.dim == 1
    assert crystal.invariant_profile(zero) == (1, 1, (1, 0), (0, 0, 0))


def test_the_first_power_matrix_is_the_matrix(gf8):
    m = random_module(random.Random(81), gf8, 4)
    dual = m.dual()
    assert isinstance(dual, FrobeniusModule)
    assert m.power_matrix(1) == m.matrix and dual.power_matrix(1) == dual.matrix


def test_a_full_subspace_of_another_spec_is_not_checked_for_stability(f2, gf4):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    for other in (Subspace.full(gf4, 2), Subspace.full(f2, 3)):
        with pytest.raises(UsageError):
            m.is_stable(other)


def test_profile_ranks_are_the_ranks_of_the_power_matrices():
    rng = random.Random(18)
    padded = 0
    for spec in (FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(2, 2, None, 2)):
        modules = [nilpotent_jordan(spec, sizes) for sizes in ((4,), (3, 1), (2, 2, 1))]
        modules += [low_rank(rng, spec, 5, r) for r in range(4)]
        modules += [module_with_nilpotent_part(rng, spec, rng.randint(0, 5)) for _ in range(12)]
        for m in modules:
            ranks = [rank(m.power_matrix(i), spec) for i in range(m.dim + 1)]
            dim, nilord, got, _ = crystal.invariant_profile(m)
            assert (dim, got) == (m.dim, tuple(ranks))
            assert nilord == (ranks.index(0) if 0 in ranks else None) == m.nilord()
            padded += 0 < ranks[-1] < m.dim and ranks[1] == ranks[-1]
    assert padded  # some walks stop well before n, above rank 0


def test_hot_loops_stay_on_packed_rows(gf8, element_op_calls):
    rng = random.Random(89)
    m = random_module(rng, gf8, 8)
    gf8.one * gf8.one
    assert len(element_op_calls) == 1  # the counter sees element arithmetic
    m.decompose()
    assert len(element_op_calls) == 1


def test_semilinear_code_stays_on_packed_rows(gf4, gf9, element_op_calls, monkeypatch):
    rng = random.Random(90)
    specs = (gf4, gf9, FieldSpec(2, 2, None, 2))
    modules = [random_module(rng, spec, 3) for spec in specs]
    modules += [module_with_nilpotent_part(rng, spec, 4) for spec in specs]
    unwraps = []
    real = FieldSpec.unwrap
    monkeypatch.setattr(FieldSpec, "unwrap", lambda self, v: unwraps.append(1) or real(self, v))
    for m in modules:
        m.decompose()
        m.fixed_points()
        m.hom_space(m)
        crystal.jordan_holder(m)
        crystal.nil_series(m)
    assert element_op_calls == [] and unwraps == []
    gf4.unwrap([gf4.one * gf4.one])
    assert len(element_op_calls) == len(unwraps) == 1  # the counters see element work


# -- row echelon forms --------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(1_000_003, 1), FieldSpec(3, 11)],
    ids=["xor-gf4", "zech-gf9", "prime-f1000003", "poly-gf3^11"],
)
def test_rref_matches_gauss_jordan(spec):
    """Tall, wide and square matrices with zero, duplicate and dependent rows."""
    rng, k = random.Random(spec.order), spec.kernel
    for nrows, ncols in [(1, 1), (6, 3), (3, 6), (5, 5), (9, 4), (4, 9), (7, 7)]:
        for _ in range(8):
            mat = [spec.unwrap([random_element(rng, spec) for _ in range(ncols)])]
            for _ in range(nrows - 1):
                kind = rng.randrange(4)
                if kind == 0:
                    row = [0] * ncols
                elif kind == 1:
                    row = list(rng.choice(mat))
                elif kind == 2:
                    c = spec.unwrap([random_element(rng, spec)])[0]
                    row = k.add_multiple(rng.choice(mat), c, rng.choice(mat))
                else:
                    row = spec.unwrap([random_element(rng, spec) for _ in range(ncols)])
                mat.append(row)
            rng.shuffle(mat)
            before = [list(row) for row in mat]
            rows, pivots = linalg._rref(mat, k)
            want_rows, want_pivots = oracle_rref(mat, k)
            assert (list(map(list, rows)), pivots) == (list(map(list, want_rows)), want_pivots)
            assert mat == before


def test_extend_leaves_the_rows_alone_for_a_vector_in_their_span(gf9):
    rng, k = random.Random(9), gf9.kernel
    for _ in range(20):
        vectors = [gf9.unwrap([random_element(rng, gf9) for _ in range(5)]) for _ in range(3)]
        rows, pivots = linalg._rref(vectors, k)
        rows, pivots = list(rows), list(pivots)
        kept = [list(r) for r in rows], list(pivots)
        c = gf9.unwrap([random_element(rng, gf9)])[0]
        inside = k.add_multiple(vectors[0], c, vectors[2])
        assert not linalg._extend(rows, pivots, inside, k)
        assert ([list(r) for r in rows], pivots) == kept
        assert not any(linalg._reduce(rows, pivots, inside, k))


def test_subspace_constructor_rejects_rows_that_are_not_rref(f2):
    def ints(rows):
        return [[f2.from_int(x) for x in row] for row in rows]

    with pytest.raises(UsageError):  # [0, 1] has its pivot in column 1
        Subspace(f2, 2, ints([[0, 1]]), (0,))
    with pytest.raises(UsageError):  # reduced, [1, 1] becomes [1, 0]
        Subspace(f2, 2, ints([[1, 1], [0, 1]]), (0, 1))
    with pytest.raises(UsageError):
        Subspace(f2, 2, ints([[1, 0, 1]]), (0,))
    line = Subspace(f2, 2, ints([[0, 1]]), (1,))
    assert line.contains_vector(ints([[0, 1]])[0])
    assert Subspace(f2, 2, ints([[1, 0], [0, 1]]), (0, 1)) == Subspace.from_vectors(
        f2, 2, ints([[1, 1], [0, 1]])
    )


def test_subspace_is_immutable(f2):
    sub = Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])
    with pytest.raises(AttributeError):
        sub.rows = ()
    with pytest.raises(AttributeError):
        sub.pivots = (1,)
    assert sub.rows == ((f2.one, f2.zero),)


def test_modules_and_quotient_maps_are_immutable(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    dual = m.dual()
    _, qmap = m.quotient_by(m.nilpotent_part())
    for obj, name, value in [
        (m, "matrix", ((f2.zero,) * 2,) * 2),
        (m, "dim", 3),
        (m, "spec", FieldSpec(2, 2)),
        (dual, "matrix", ()),
        (qmap, "sub", Subspace.zero(f2, 2)),
        (qmap, "coords_cols", ()),
    ]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == before
    assert hash(m) == hash(module_from_ints(f2, [[1, 1], [0, 0]]))


def test_nilord_examples(f2):
    assert module_from_ints(f2, [[0]]).nilord() == 1
    assert module_from_ints(f2, [[1]]).nilord() is None
    assert module_from_ints(f2, [[0, 1], [0, 0]]).nilord() == 2
    assert SemilinearModule(f2, []).nilord() == 0


def test_nilpotence_bounds_on_extensions():
    rng = random.Random(11)
    specs = [FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(2, 3)]
    for i in range(100):
        spec = specs[i % 3]
        big, sub, quot = nilpotent_block_extension(
            rng, spec, rng.randint(1, 3), rng.randint(1, 3)
        )
        a, b, c = sub.nilord(), quot.nilord(), big.nilord()
        assert a is not None and b is not None and c is not None
        assert max(a, b) <= c <= a + b


# -- fixed points ---------------------------------------------------------


def test_fixed_points_identity(gf4):
    m = SemilinearModule(gf4, [[gf4.one, gf4.zero], [gf4.zero, gf4.one]])
    basis = m.fixed_points()
    assert len(basis) == 2
    for v in basis:
        assert m.apply(v) == v


def test_fixed_points_gf4_example(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    basis = m.fixed_points()
    assert len(basis) == 1 and basis[0] == (w * w,)
    assert oracle_fixed_points(m) == {((0, 0),), ((1, 1),)}


def test_fixed_points_zero(gf4):
    m = SemilinearModule(gf4, [[gf4.zero]])
    assert m.fixed_points() == ()


def test_fixed_points_match_oracle_and_bound():
    rng = random.Random(42)
    specs = [FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(3, 1)]
    # e > 1: the F_p-kernel holds e vectors per F_q-direction, and the
    # basis must take one of them for each
    twisted = [FieldSpec(2, 2, None, 2), FieldSpec(3, 2, None, 2), FieldSpec(2, 3, None, 3)]
    modules = [
        module_from_ints(spec, rows)
        for spec in twisted
        for rows in ([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    ]
    for _ in range(60):
        spec = rng.choice(specs + twisted)
        n = rng.randint(1, 3 if spec.order <= 3 else 2)
        modules.append(random_module(rng, spec, n))
    for m in modules:
        basis = m.fixed_points()
        assert len(basis) <= m.stable_image().dim
        fixed = oracle_fixed_points(m)
        assert len(fixed) == m.spec.q ** len(basis)
        span = fq_combinations([(v,) for v in basis], 1, m.dim, m.spec)
        assert {tuple(x.coeffs for x in v) for (v,) in span} == fixed


def test_fixed_point_bound_on_full_suite():
    for m in random_suite(count=120, max_dim=4, seed=77):
        assert len(m.fixed_points()) <= m.stable_image().dim


# -- base change -----------------------------------------------------------


def test_base_change_degree_one_is_identity(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    m1 = m.base_change(1)
    assert m1.dim == 1 and m1.spec.d == 2
    assert len(m1.fixed_points()) == len(m.fixed_points())


def test_base_change_already_saturated(f2):
    m = module_from_ints(f2, [[1]])
    assert len(m.base_change(2).fixed_points()) == 1


def test_saturation_on_curated_set(f2, gf4):
    # modules chosen to saturate at a known small degree
    cases = [
        (module_from_ints(f2, [[1]]), 1),
        (module_from_ints(f2, [[1, 1], [0, 0]]), 1),
        (SemilinearModule(gf4, [[gf4.gen]]), 1),
        # companion matrix of t^2+t+1: no fixed vectors until GF(8),
        # verified by exhaustive evaluation over GF(2), GF(4), GF(8)
        (module_from_ints(f2, [[0, 1], [1, 1]]), 3),
    ]
    for module, expected_m in cases:
        assert module.saturation_degree(max_m=6) == expected_m


def test_saturation_reported_as_none_when_capped(f2):
    m = module_from_ints(f2, [[0, 1], [1, 1]])
    assert m.saturation_degree(max_m=1) is None


def test_saturation_exhaustive_over_2x2_f2(f2):
    # every 2x2 module over F_2 with nonzero stable image saturates by
    # degree 3 (worst case: the companion matrix of t^2+t+1)
    for bits in product(range(2), repeat=4):
        m = module_from_ints(f2, [[bits[0], bits[1]], [bits[2], bits[3]]])
        if m.stable_image().dim == 0:
            continue
        assert m.saturation_degree(max_m=6) <= 3


def test_one_dimensional_modules_saturate_immediately(gf4, gf8):
    # with q = 2 the fixed equation v = a * v^(1/2) always has a nonzero
    # solution in the base field itself
    for spec in (gf4, gf8):
        for a in spec.elements():
            m = SemilinearModule(spec, [[a]])
            if m.stable_image().dim:
                assert m.saturation_degree(max_m=6) == 1


# Fields of the base-change oracle: every GF(p^(dm)) it builds for m <= 4
# stays within the searched moduli.
BASE_CHANGE_FIELDS = [
    FieldSpec(2, 1),
    FieldSpec(3, 1),
    FieldSpec(5, 1),
    FieldSpec(2, 2),
    FieldSpec(2, 2, None, 2),
    FieldSpec(2, 3),
    FieldSpec(3, 2),
    FieldSpec(3, 2, None, 2),
]


def oracle_base_change_dims(module, m_max):
    """F_q-dimensions of the fixed points over GF(p^(dm)), m = 1..m_max,
    from the module base-changed into each field."""
    return [len(module.base_change(m).fixed_points()) for m in range(1, m_max + 1)]


@pytest.mark.parametrize("spec", BASE_CHANGE_FIELDS, ids=repr)
def test_base_change_invariants_match_building_the_field(spec):
    rng = random.Random(spec.p * 100 + spec.d * 10 + spec.e)
    capped = reached = 0
    for _ in range(40):
        m = module_with_nilpotent_part(rng, spec, rng.randint(0, 4))
        oracle = oracle_base_change_dims(m, 4)
        assert list(islice(m._base_change_fixed_dims(m._powers()), 4)) == oracle
        assert crystal.invariant_profile(m)[3] == tuple(oracle[:3])
        target, max_m = m.stable_image().dim, rng.randint(1, 4)
        expected = next((i + 1 for i in range(max_m) if oracle[i] == target), None)
        assert m.saturation_degree(max_m=max_m) == expected
        capped += expected is None
        reached += expected is not None
    assert reached and (capped or spec.order == 2)


def test_profile_and_saturation_build_no_field(monkeypatch):
    rng = random.Random(8)
    modules = [
        module_with_nilpotent_part(rng, spec, 4)
        for spec in (FieldSpec(2, 6), FieldSpec(3, 2, None, 2), FieldSpec(2, 3))
    ]
    built, embedded = [], []
    real_init, real_embed = FieldSpec.__init__, field.embed

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_embed(small, big):
        embedded.append(big)
        return real_embed(small, big)

    monkeypatch.setattr(FieldSpec, "__init__", counting_init)
    monkeypatch.setattr(semilinear, "embed", counting_embed)
    for m in modules:
        crystal.invariant_profile(m)
        m.saturation_degree(max_m=12)
    assert built == [] and embedded == []
    modules[0].base_change(2)  # the counters see a base change
    assert len(built) == 1 and len(embedded) == 1


def load_benchmark_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    loader = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(checks)
    return checks


def test_profile_over_gf64_passes_the_benchmark_check():
    # the third base change is GF(2^18), beyond the searched moduli
    checks, spec, rng = load_benchmark_checks(), FieldSpec(2, 6), random.Random(64)
    for _ in range(4):
        m = module_with_nilpotent_part(rng, spec, 4)
        profile = crystal.invariant_profile(m)
        assert checks.profile(m, profile) is None
        assert list(profile[3][:2]) == oracle_base_change_dims(m, 2)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_saturation_degree_answers_over_gf2_powers(d):
    spec, rng = FieldSpec(2, d), random.Random(d)
    limit = 12 // d  # base changes the oracle builds cheaply
    for _ in range(6):
        m = module_with_nilpotent_part(rng, spec, 3)
        sat, target = m.saturation_degree(max_m=6), m.stable_image().dim
        oracle = oracle_base_change_dims(m, limit)
        first = next((i + 1 for i, f in enumerate(oracle) if f == target), None)
        if first is not None:
            assert sat == first
        else:
            assert sat is None or limit < sat <= 6


def test_stable_image_universal_property(f2, gf4):
    # the stable image is the smallest stable subspace with nilpotent
    # quotient; the nilpotent part is the largest nilpotent stable subspace
    rng = random.Random(61)
    for spec in (f2, gf4):
        for _ in range(12):
            m = random_module(rng, spec, rng.randint(1, 3))
            under = m.stable_image()
            nil = m.nilpotent_part()
            for info in m.enumerate_submodules():
                sub = info.subspace
                quotient, _ = m.quotient_by(sub)
                assert quotient.is_nilpotent == sub.contains(under)
                assert m.restrict_to(sub).is_nilpotent == nil.contains(sub)


# -- hom spaces -------------------------------------------------------------


def test_hom_identity_f2_brute_force(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    hom = m.hom_space(m)
    assert hom.dim == 4 and hom.size == 16
    # brute force: every 2x2 matrix over F_2 commutes with the identity map
    count = 0
    for bits in product([f2.zero, f2.one], repeat=4):
        phi = ((bits[0], bits[1]), (bits[2], bits[3]))
        if matmul(phi, m.matrix, f2) == matmul(m.matrix, phi, f2):
            count += 1
    assert count == 16


def test_hom_into_zero_module(f2):
    m = module_from_ints(f2, [[1]])
    z = SemilinearModule(f2, [])
    assert m.hom_space(z).dim == 0


def test_hom_gf4_sigma_inverse(gf4):
    m = SemilinearModule(gf4, [[gf4.one]])
    hom = m.hom_space(m)
    assert hom.q == 2 and hom.dim == 1
    # exhaustively: scalars a with a = a^(1/2), i.e. a in F_2
    sols = [a for a in gf4.elements() if a == a.inv_frobenius(1)]
    assert len(sols) == 2


def test_hom_mismatched_fields(gf4, gf8):
    with pytest.raises(UsageError):
        SemilinearModule(gf4, [[gf4.one]]).hom_space(
            SemilinearModule(gf8, [[gf8.one]])
        )


def test_hom_target_must_be_a_cartier_module(gf4):
    m = SemilinearModule(gf4, [[gf4.gen]])
    for target in (m.dual(), FrobeniusModule(gf4, [[gf4.gen]]), [[gf4.gen]]):
        with pytest.raises(UsageError, match="is not a Cartier module"):
            m.hom_space(target)


def test_end_basis_closed_under_composition():
    rng = random.Random(13)
    for _ in range(20):
        spec = rng.choice([FieldSpec(2, 1), FieldSpec(2, 2)])
        m = random_module(rng, spec, rng.randint(1, 3))
        hom = m.hom_space(m)
        for phi in hom.basis:
            for psi in hom.basis:
                comp = matmul(phi, psi, spec)
                lhs = matmul(comp, m.matrix, spec)
                twisted = [[x.inv_frobenius(spec.e) for x in row] for row in comp]
                rhs = matmul(m.matrix, twisted, spec)
                assert lhs == rhs  # composition is again an endomorphism


# -- submodule enumeration ----------------------------------------------------


def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 4) == 21
    assert gaussian_binomial(2, 3, 2) == gaussian_binomial(2, -1, 2) == 0
    assert count_subspaces(2, 2) == 5
    assert count_subspaces(4, 2) == 67


def test_subspace_count_matches_enumeration(f2, gf4):
    for spec, n in ((f2, 3), (gf4, 2)):
        assert sum(1 for _ in oracle_subspaces(spec, n)) == count_subspaces(n, spec.order)


def test_enumerate_identity_all_fixed(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    infos = m.enumerate_submodules()
    assert len(infos) == 5
    assert all(info.surjective for info in infos)


def test_enumerate_zero_matrix(f2):
    m = module_from_ints(f2, [[0, 0], [0, 0]])
    infos = m.enumerate_submodules()
    assert len(infos) == 5  # every subspace is stable under the zero map
    assert [i.subspace.dim for i in infos if i.surjective] == [0]


def test_enumerate_example_fixed_set(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    fixed = [i.subspace for i in m.enumerate_submodules() if i.surjective]
    assert fixed == [
        Subspace.zero(f2, 2),
        Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)]),
    ]


def test_enumerate_cap(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    with pytest.raises(ResourceError):
        m.enumerate_submodules(cap=3)


def test_fixed_lattice_closed_under_sum_and_intersection():
    for m in random_suite(count=40, max_dim=3, seed=123):
        fixed = [i.subspace for i in m.enumerate_submodules() if i.surjective]
        as_set = set(fixed)
        for a in fixed:
            for b in fixed:
                assert a.add(b) in as_set
                assert a.intersect(b) in as_set


# -- simplicity and endomorphism rings -----------------------------------------


def test_simple_gf4_sigma_inverse(gf4):
    m = SemilinearModule(gf4, [[gf4.one]])
    assert m.is_simple()
    order, is_field = m.end_ring()
    assert order == 2 and is_field


def test_simple_zero_structural_map(gf4):
    m = SemilinearModule(gf4, [[gf4.zero]])
    assert m.is_simple()
    order, is_field = m.end_ring()
    assert order == 4 and is_field  # all of GF(4) commutes with the zero map


def test_end_ring_cap_bounds_only_the_simplicity_scan(gf4):
    m = SemilinearModule(gf4, [[gf4.zero]])
    assert m.is_simple(cap=3)
    assert m.end_ring(cap=3) == (4, True)


def test_end_ring_matches_oracle_on_simple_modules():
    """End of a simple module is a field (Schur, then Wedderburn); the
    oracle lists End and checks commutativity and inverses."""
    rng = random.Random(641)
    specs = [FieldSpec(2, 2), FieldSpec(2, 3), FieldSpec(3, 2), FieldSpec(3, 2, None, 2)]
    for spec, n in product(specs, (1, 2, 3)):
        found = 0
        while found < 2:
            m = random_module(rng, spec, n)
            if m.is_simple():
                assert m.end_ring() == oracle_end_ring(m)
                found += 1
    f2 = FieldSpec(2, 1)  # the oracle sees a ring that is no field
    assert oracle_end_ring(module_from_ints(f2, [[1, 0], [0, 1]])) == (16, False)


def test_identity_not_simple(f2):
    m = module_from_ints(f2, [[1, 0], [0, 1]])
    assert not m.is_simple()
    assert SemilinearModule(f2, []).is_simple() is False
    with pytest.raises(UsageError):
        m.end_ring()


# -- duality ---------------------------------------------------------------------


def test_dual_zero(f2):
    m = module_from_ints(f2, [[0]])
    d = m.dual()
    assert all(x.is_zero for row in d.matrix for x in row)
    assert d.nilord() == m.nilord() == 1


def test_dual_gf4(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    d = m.dual()
    assert d.matrix == ((w * w,),)
    assert d.nilord() is None and m.nilord() is None


def test_dual_left_twist(gf4):
    w = gf4.gen
    m = SemilinearModule(gf4, [[w]])
    d = m.dual()
    for a in gf4.elements():
        for v in gf4.elements():
            lhs = d.apply((a * v,))
            rhs = tuple(a.frobenius(1) * x for x in d.apply((v,)))
            assert lhs == rhs


def test_double_dual_identical(f2, gf4):
    rng = random.Random(5)
    for spec in (f2, gf4):
        for _ in range(20):
            m = random_module(rng, spec, rng.randint(1, 3))
            dd = m.dual().dual()
            assert dd.matrix == m.matrix


def test_dual_preserves_nilord_on_suite():
    for m in random_suite(count=100, max_dim=4, seed=31):
        assert m.dual().nilord() == m.nilord()


# -- restriction and quotient ------------------------------------------------------


def test_restrict_to_stable_image(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    r = m.restrict_to(m.stable_image())
    assert r.dim == 1 and r.matrix == ((f2.one,),)


def test_restrict_requires_stability(f2):
    m = module_from_ints(f2, [[0, 1], [1, 0]])
    line = Subspace.from_vectors(f2, 2, [(f2.one, f2.zero)])
    with pytest.raises(UsageError):
        m.restrict_to(line)


def test_restrict_to_applies_c_once_per_basis_vector(monkeypatch):
    """The stability check reads the images the restriction is built from."""
    calls, real = [], SemilinearModule._apply
    monkeypatch.setattr(SemilinearModule, "_apply", lambda self, v: calls.append(1) or real(self, v))
    for m in random_suite(count=20, max_dim=4, seed=61):
        for sub in (m.stable_image(), m.nilpotent_part(), Subspace.full(m.spec, m.dim)):
            calls.clear()
            assert m.restrict_to(sub).dim == sub.dim
            assert len(calls) == sub.dim


def test_quotient_kills_stable_part(f2):
    m = module_from_ints(f2, [[1, 1], [0, 0]])
    q, qmap = m.quotient_by(m.stable_image())
    assert q.dim == 1
    assert q.nilord() == 1  # C(0,1) = (1,0) vanishes in the quotient


def test_quotient_projection_well_defined(gf4):
    rng = random.Random(17)
    for _ in range(10):
        m = random_module(rng, gf4, 3)
        sub = m.nilpotent_part()
        q, qmap = m.quotient_by(sub)
        for _ in range(10):
            v = tuple(random_element(rng, gf4) for _ in range(3))
            w_rows = list(sub.rows)
            shift = v
            if w_rows:
                shift = tuple(a + b for a, b in zip(v, w_rows[0]))
            assert qmap.project(v) == qmap.project(shift)
            # projection intertwines the actions
            assert qmap.project(m.apply(v)) == q.apply(qmap.project(v))


# -- serialization ------------------------------------------------------------------


def test_module_json_round_trip(gf4):
    m = SemilinearModule(gf4, [[gf4.gen, gf4.one], [gf4.zero, gf4.gen]])
    data = m.to_json()
    again = SemilinearModule.from_json(data)
    assert again == m


def test_module_json_twist_mismatch(gf4):
    m = SemilinearModule(gf4, [[gf4.one]])
    data = m.to_json()
    data["e"] = 2
    with pytest.raises(UsageError):
        SemilinearModule.from_json(data)


def test_subfield_elements(gf4):
    elems = subfield_elements(gf4)
    assert len(elems) == 2
    assert gf4.zero in elems and gf4.one in elems


# -- errors and edge values at the public boundary -----------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda spec: spec.one.inv_frobenius(-1),
         "frobenius iteration count must be >= 0"),
        (lambda spec: semilinear._subfield_fp_basis(FieldSpec(2, 3, None, 2)),
         "twist e=2 does not divide d=3"),
        (lambda spec: module_from_ints(spec, [[1]]).base_change(0),
         "base change degree must be >= 1"),
        # C moves e_0 to e_1
        (lambda spec: module_from_ints(spec, [[0, 0], [1, 0]])
         .quotient_by(Subspace(spec, 2, ((spec.one, spec.zero),), (0,))),
         "cannot quotient by a subspace that is not C-stable"),
        (lambda spec: SemilinearModule.from_json({"field": spec.to_json(), "dim": 2,
                                                  "matrix": [[[1]]]}),
         "matrix size disagrees with declared dimension"),
    ],
    ids=["sigma-count", "twist", "base-change-degree", "quotient-unstable", "json-dim"],
)
def test_user_errors_name_their_cause(gf4, call, message):
    with pytest.raises(UsageError) as info:
        call(gf4)
    assert str(info.value) == message


def test_linalg_edge_values(gf4):
    k = gf4.kernel
    assert linalg._null_space([[k.one, k.one]], 2, k) == [[k.one, k.one]]
    assert linalg._null_space([], 2, k) == [[k.one, 0], [0, k.one]]
