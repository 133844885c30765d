"""The F_p solve behind fixed points and Hom-spaces: `linalg._FpInts`
arithmetic on int-packed vectors and `linalg._fp_null_space`, against the
list-row solve of conftest (`oracle_fp_kernel`), vector for vector, the
work it does at large p, and the checks on the fixed points it finds."""

import random
from itertools import product

import pytest

from cartier import linalg, semilinear
from cartier._kernel import _PrimeKernel
from cartier.errors import InvariantViolation
from cartier.field import TABLE_MAX_ORDER, FieldSpec, _unpack
from cartier.semilinear import SemilinearModule, Subspace, _TwistedModule

from conftest import (
    oracle_fixed_basis,
    oracle_fp_kernel,
    oracle_hom_basis,
    random_element,
    random_module,
)

# (p, d, e): every field kind the solve meets, F_1000003 for a field width
# far above the table sizes.
FIELDS = [
    (2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1),
    (7, 1, 1), (5, 2, 1), (2, 2, 2), (3, 2, 2), (1000003, 1, 1),
]
IDS = ["F2", "GF4", "GF8", "F3", "GF9", "F5", "F7", "GF25", "GF4-e2", "GF9-e2", "F1000003"]
BIG = 1000003


def spread(fp, vec, stride: int = 1) -> int:
    """The int of a packed GF(p^d) vector as `_FpInts.spread` built it
    before the digit tables: entry j in the d fields from field
    j*stride*d, the bits of x for p = 2, else its base-p digits."""
    p, d, w = fp.p, fp.d, fp.w

    def digits(x):
        return x if p == 2 or d == 1 else sum(c << i * w for i, c in enumerate(_unpack(x, p, d)))

    return sum(digits(x) << j * stride * d * w for j, x in enumerate(vec))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, BIG])
def test_packed_arithmetic_is_entrywise_mod_p(p):
    """add and times against residues, at the edges of a field too; a
    wrong multiple would leave the elimination loop without progress."""
    rng = random.Random(p)
    fp = linalg._FpInts(p, 1, 40)
    edge = [0, 1, p - 1, p - 1, (p + 1) // 2]
    for _ in range(50):
        a = edge + [rng.randrange(p) for _ in range(35)]
        b = list(reversed(edge)) + [rng.randrange(p) for _ in range(35)]
        c = rng.randrange(1, p)
        pa, pb = spread(fp, a), spread(fp, b)
        assert fp.add(pa, pb) == spread(fp, [(x + y) % p for x, y in zip(a, b)])
        assert fp.times(c, {1: pa}) == spread(fp, [c * x % p for x in a])


def solver_kernel(spec: FieldSpec, images):
    """`linalg._fp_null_space` on packed images[i*d + l] (the image of
    t^l e_i), spread into ints wide enough for the system."""
    rows = max((len(v) for v in images), default=0) * spec.d
    fp = linalg._FpInts(spec.p, spec.d, rows + len(images))
    return linalg._fp_null_space([spread(fp, v) for v in images], fp)


def random_system(rng, spec: FieldSpec):
    """Images of t^l e_i for m unknowns in k^L: sparse random vectors, and
    now and then an F_p-combination of two earlier images, so that later
    columns depend on earlier ones."""
    k, m, length = spec.kernel, rng.randint(1, 5), rng.randint(0, 5)
    images = []
    for _ in range(m * spec.d):
        if len(images) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(images, 2)
            images.append(k.add_multiple(list(a), rng.randrange(1, spec.p) * k.one, b))
        else:
            images.append(
                [random_element(rng, spec).packed if rng.random() < 0.6 else 0 for _ in range(length)]
            )
    return images


def edge_systems(rng, spec: FieldSpec):
    """The empty system, all-zero images, no rows, duplicate columns, and one
    unknown (d columns)."""
    d, k = spec.d, spec.kernel
    one = [random_element(rng, spec).packed for _ in range(3)]
    return [
        [],
        [[0, 0, 0] for _ in range(2 * d)],
        [[] for _ in range(2 * d)],
        [list(one) for _ in range(2 * d)],
        [k.scale(one, w) for w in semilinear._fp_units(spec)],
        [[k.one] + [0] * 2 for _ in range(d)],
    ]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_fp_null_space_matches_the_list_oracle(field):
    """At least 300 systems in all (30 random and 6 edge systems a field),
    each kernel basis equal to the oracle's vector for vector."""
    spec = FieldSpec(field[0], field[1], None, field[2])
    rng = random.Random(f"fp-null-space:{field}")
    systems = [random_system(rng, spec) for _ in range(30)] + edge_systems(rng, spec)
    for images in systems:
        assert solver_kernel(spec, images) == oracle_fp_kernel(spec, images), images


def small_module(rng, spec: FieldSpec, n: int) -> SemilinearModule:
    """Random, random with a zero row, identity, or zero, by turns."""
    shape = rng.randrange(4)
    if shape == 2:
        return SemilinearModule(spec, [[spec.one if i == j else spec.zero for j in range(n)]
                                       for i in range(n)])
    if shape == 3:
        return SemilinearModule(spec, [[spec.zero] * n for _ in range(n)])
    rows = [list(r) for r in random_module(rng, spec, n).matrix]
    if shape == 1 and n:
        rows[rng.randrange(n)] = [spec.zero] * n
    return SemilinearModule(spec, rows)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_raw_hom_and_fixed_bases_match_the_list_oracle(field):
    """The packed bases hom_space and fixed_points build on the int solve
    equal the bases the list columns give, for n, m <= 4, 0 included."""
    spec = FieldSpec(field[0], field[1], None, field[2])
    rng = random.Random(f"fp-raw-bases:{field}")
    pairs = [(0, 0), (0, 2), (2, 0), (1, 1)] + [
        (rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)
    ]
    for nv, nw in pairs:
        v, w = small_module(rng, spec, nv), small_module(rng, spec, nw)
        assert v.hom_space(w)._basis == tuple(oracle_hom_basis(v, w))
        assert v.hom_space(v)._basis == tuple(oracle_hom_basis(v, v))
        assert v.fixed_points() == tuple(map(spec.wrap, oracle_fixed_basis(v)))


def scaled_spread_hom_basis(v: SemilinearModule, w: SemilinearModule) -> tuple:
    """Hom(v, w)'s packed basis built as before the digit tables: every
    row and column scaled by `k.scale`, then the strided `spread`, and
    u*x scaled the same way in the F_q-greedy step."""
    spec, k, e = v.spec, v.spec.kernel, v.spec.e
    av, aw, nv, nw = v._a, w._a, v.dim, w.dim
    units, fp = semilinear._fp_units(spec), linalg._FpInts(spec.p, spec.d, 2 * nv * nw * spec.d)
    step = spec.d * fp.w
    row_v = [[spread(fp, k.scale(row, u)) for u in units] for row in av]
    col_w = [[spread(fp, k.scale(c, k.neg(k.frob(u, -e))), nv) for u in units] for c in zip(*aw)]
    cols = [fp.add(row_v[s][ell] << r * nv * step, col_w[r][ell] << s * step)
            for r, s, ell in product(range(nw), range(nv), range(spec.d))]
    kern, pivots = linalg._fp_null_space(cols, fp), {}
    if e > 1:
        scalars = semilinear._subfield_fp_basis(spec)
        kern = [x for x in kern
                if any([fp.extend(pivots, spread(fp, k.scale(x, u))) is None for u in scalars])]
    return tuple(tuple(x[r * nv : (r + 1) * nv] for r in range(nw)) for x in kern)


# (p, d, e): the fields of the benchmark pools, a twisted one, an odd prime,
# and two fields above TABLE_MAX_ORDER, whose tables are not kept
TABLE_FIELDS = [
    (2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2), (5, 1, 1), (BIG, 1, 1), (3, 11, 1),
]
TABLE_IDS = ["GF2", "GF4", "GF8", "GF9", "GF9-e2", "F5", "F1000003", "GF3^11"]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=TABLE_IDS)
def test_table_built_hom_basis_matches_the_scaled_spread(field):
    """hom_space's basis, whose entries come from the digit tables, equals
    the one `k.scale` and the strided spread give, for every pair of sizes
    up to 3 with 0 on either side, the unit module (fixed points) included."""
    spec = FieldSpec(field[0], field[1], None, field[2])
    rng = random.Random(f"digit-tables:{field}")
    unit = SemilinearModule(spec, [[spec.one]])
    sizes = [0, 1, 2, 3] if spec.d < 11 else [0, 1, 2]
    modules = [unit] + [small_module(rng, spec, n) for n in sizes for _ in range(2)]
    for v, w in product(modules, repeat=2):
        assert v.hom_space(w)._basis == scaled_spread_hom_basis(v, w), (v, w)


def count_solver_work(monkeypatch, cap):
    """Counts `_FpInts.times` calls (pivot multiples formed) and
    `_FpInts.add` calls, and fails as soon as either passes its cap."""
    counts = {"times": 0, "add": 0}
    for name in counts:
        real = getattr(linalg._FpInts, name)

        def counting(self, *args, name=name, real=real):
            counts[name] += 1
            assert counts[name] <= cap[name], f"more than {cap[name]} {name} calls"
            return real(self, *args)

        monkeypatch.setattr(linalg._FpInts, name, counting)
    return counts


@pytest.mark.parametrize("d, n", [(1, 6), (2, 2)], ids=["F1000003-n6", "GF1000003^2-n2"])
def test_large_p_work_is_bounded_by_the_elimination_steps(monkeypatch, d, n):
    """hom_space(M, M) and fixed_points at p = 1000003.  A solve of N
    columns makes at most N * rank <= N^2 elimination steps and one scaling
    per pivot, so it forms at most N * (N + 1) multiples, each by at most
    2 * bit_length(p) additions; building the columns adds N more.  A table
    of p - 1 multiples per pivot passes this at its first pivot."""
    spec = FieldSpec(BIG, d)
    module = random_module(random.Random(f"big-p:{d}"), spec, n)
    sizes = [n * n * d, n * d]  # F_p-columns of the Hom and fixed-point solves
    times_cap = sum(c * (c + 1) for c in sizes)
    counts = count_solver_work(
        monkeypatch, {"times": times_cap, "add": 2 * BIG.bit_length() * times_cap + sum(sizes)}
    )
    hom, fixed = module.hom_space(module), module.fixed_points()
    assert counts["times"] > 0
    monkeypatch.undo()
    assert hom._basis == tuple(oracle_hom_basis(module, module))
    assert hom.dim >= 1  # the identity
    assert fixed == tuple(map(spec.wrap, oracle_fixed_basis(module)))


@pytest.mark.parametrize("e", [1, 2])
def test_gf9_solves_make_no_list_row_operation(monkeypatch, e):
    """While the F_p solve runs (`_fp_null_space`, and `_fq_basis` for the
    F_q-greedy step), hom_space and fixed_points over GF(9) extend no list
    echelon and make no row operation in a prime-field kernel."""
    spec = FieldSpec(3, 2, None, e)
    depth, solves, calls = [0], [], []

    def during(real):
        def wrapped(*args):
            depth[0] += 1
            solves.append(real.__name__)
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(real):
        def wrapped(*args):
            if depth[0]:
                calls.append(real.__name__)
            return real(*args)
        return wrapped

    monkeypatch.setattr(linalg, "_fp_null_space", during(linalg._fp_null_space))
    monkeypatch.setattr(semilinear, "_fq_basis", during(semilinear._fq_basis))
    monkeypatch.setattr(linalg, "_extend", counted(linalg._extend))
    monkeypatch.setattr(_PrimeKernel, "add_multiple", counted(_PrimeKernel.add_multiple))
    rng = random.Random(f"gf9-work:{e}")
    for n in (2, 3, 4):
        v, w = random_module(rng, spec, n), random_module(rng, spec, n)
        v.hom_space(w), v.hom_space(v), v.fixed_points()
    assert solves.count("_fp_null_space") >= 9 and solves.count("_fq_basis") >= 9
    assert calls == []


def count_kernel_work(monkeypatch, kernel_class):
    """Counts the `scale` and `mul` calls of a kernel class made outside
    hom_space's and fixed_points' checks (`_maps_to` and `linalg._rank`)."""
    calls, checking = [], [0]

    def check(real):
        def wrapped(*args):
            checking[0] += 1
            try:
                return real(*args)
            finally:
                checking[0] -= 1
        return wrapped

    for name in ("scale", "mul"):
        real = getattr(kernel_class, name)

        def counted(self, *args, name=name, real=real):
            if not checking[0]:
                calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(kernel_class, name, counted)
    monkeypatch.setattr(SemilinearModule, "_maps_to", check(SemilinearModule._maps_to))
    monkeypatch.setattr(linalg, "_rank", check(linalg._rank))
    return calls


@pytest.mark.parametrize("field", [(2, 2, 1), (3, 2, 1), (3, 2, 2), (5, 1, 1)],
                         ids=["GF4", "GF9", "GF9-e2", "F5"])
def test_a_second_solve_on_a_field_reads_its_entries_from_the_tables(field, monkeypatch):
    """The first hom_space and fixed_points on a field fill its digit tables
    with one `mul` per new (scalar, entry); the same calls again scale and
    multiply nothing outside the checks, and give the same bases."""
    spec = FieldSpec(field[0], field[1], None, field[2])
    semilinear._kept_tables.cache_clear()
    rng = random.Random(f"table-work:{field}")
    v, w = random_module(rng, spec, 3), random_module(rng, spec, 4)
    calls = count_kernel_work(monkeypatch, type(spec.kernel))
    first = v.hom_space(w)._basis, w.hom_space(v)._basis, v.fixed_points(), w.fixed_points()
    assert "mul" in calls and "scale" not in calls
    calls.clear()
    again = v.hom_space(w)._basis, w.hom_space(v)._basis, v.fixed_points(), w.fixed_points()
    assert calls == []
    assert again == first


def test_fields_above_the_table_size_keep_no_digit_table():
    """F_1000003 and GF(3^11) build their tables for each solve; GF(9)
    keeps one per field spec."""
    semilinear._kept_tables.cache_clear()
    for spec in (FieldSpec(BIG, 1), FieldSpec(3, 11)):
        assert spec.order > TABLE_MAX_ORDER
        m = random_module(random.Random(f"no-table:{spec.p}"), spec, 2)
        m.hom_space(m), m.fixed_points()
    assert semilinear._kept_tables.cache_info().currsize == 0
    random_module(random.Random("no-table:9"), FieldSpec(3, 2), 2).fixed_points()
    assert semilinear._kept_tables.cache_info().currsize == 1


# -- the checks on fixed points ----------------------------------------------


def not_fixed(module: SemilinearModule):
    """The packed first unit vector, checked not to be a fixed point."""
    v = [module.spec.one.packed] + [0] * (module.dim - 1)
    assert module._apply(v) != v
    return tuple(v)


def test_a_non_fixed_vector_in_the_kernel_fails_the_identity(gf4, monkeypatch):
    m = random_module(random.Random("fixed-identity"), gf4, 3)
    m.fixed_points()
    extra, real = not_fixed(m), linalg._fp_null_space
    monkeypatch.setattr(linalg, "_fp_null_space", lambda cols, fp: real(cols, fp) + [extra])
    with pytest.raises(InvariantViolation, match="fails the commuting identity"):
        m.fixed_points()


@pytest.mark.parametrize("field", [(2, 2, 1), (2, 4, 2), (3, 2, 1)], ids=["GF4", "GF16-e2", "GF9"])
def test_a_repeated_fixed_vector_fails_the_independence_check(field, monkeypatch):
    # every vector of F_q^3 is fixed by the identity; a basis vector given
    # twice keeps the F_q count and the identity, but not the rank
    spec = FieldSpec(field[0], field[1], None, field[2])
    m = SemilinearModule(spec, Subspace.full(spec, 3).rows)
    assert len(m.fixed_points()) == 3
    real = semilinear._fq_basis

    def first_in_place_of_last(*args):
        basis = real(*args)
        return basis[:-1] + basis[:1]

    monkeypatch.setattr(semilinear, "_fq_basis", first_in_place_of_last)
    with pytest.raises(InvariantViolation, match="not k-linearly independent"):
        m.fixed_points()


@pytest.mark.parametrize("field", [(2, 4, 2), (3, 4, 2)], ids=["GF16-e2", "GF81-e2"])
def test_an_extra_kernel_vector_fails_the_fq_count_first(field, monkeypatch):
    # the extra vector is not fixed either, so the count runs first
    spec = FieldSpec(field[0], field[1], None, field[2])
    m = random_module(random.Random(f"fixed-count:{field}"), spec, 3)
    m.fixed_points()  # caches the F_p-basis of F_q before the solve is patched
    extra, real = not_fixed(m), linalg._fp_null_space
    monkeypatch.setattr(linalg, "_fp_null_space", lambda cols, fp: real(cols, fp) + [extra])
    with pytest.raises(InvariantViolation, match="not an F_q-subspace"):
        m.fixed_points()


def test_fixed_points_solve_once_and_walk_no_powers(gf9, monkeypatch):
    m = random_module(random.Random("fixed-work"), gf9, 5)
    walks, solves = [], []
    walk, solve = _TwistedModule._fitting, linalg._fp_null_space
    monkeypatch.setattr(_TwistedModule, "_fitting", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(linalg, "_fp_null_space", lambda *args: solves.append(1) or solve(*args))
    m.fixed_points()
    assert (len(walks), len(solves)) == (0, 1)
