"""Shared fixtures, module generators, and exhaustive vector-level oracles.

The oracles here deliberately avoid the library's power-matrix and kernel
paths: they iterate the structural map over every vector of the space, so
they stay independent of the code they check.  Usable whenever |k|^n is a
few thousand at most.  The submodule oracles scan every subspace of k^n
and find Hasse covers by a cubic search, so they suit lattices of a few
hundred subspaces.  `oracle_lattice_nil_series` is the older lattice walk
behind `crystal.nil_series`: down the last lower covers of the lattice
that `jordan_holder` grows.  `oracle_isomorphic` searches every intertwiner for an
invertible one, and `oracle_end_ring` lists End(M) in full to test it
for a field; both build matrices by FieldElement arithmetic
(`fq_combinations`, `matmul`) and invert them by cofactors
(`oracle_determinant`, `oracle_inverse`).  `oracle_rref` is textbook
Gauss-Jordan elimination on packed rows.  `oracle_parse` evaluates a polynomial string with the
polynomial operators, one product per `*` and one power per `^`.
`oracle_compatible_monomial` runs the operator's `is_compatible` test on
every squarefree monomial ideal of the ring, one for each antichain that
`antichains_of_subsets` lists.  `oracle_stabilise` is the
older image-chain loop, which steps from every generator built up so far
instead of from each ideal's reduced basis.  `oracle_fp_kernel` is the
older F_p solve: F_p coordinate rows through `linalg._null_space`.
`oracle_hom_basis` and `oracle_fixed_basis` build the Hom-space and
fixed-point systems on it as lists, one column per F_p-basis vector.
`subfield_elements` lists F_q inside GF(p^d).
"""

import random
from itertools import combinations, permutations, product

import pytest

from cartier import crystal, linalg, semilinear
from cartier.errors import ResourceError
from cartier.field import FieldElement, FieldSpec, _pack, _unpack
from cartier.poly import MAX_NESTING, Ideal, _Tokenizer
from cartier.semilinear import SemilinearModule, Subspace


@pytest.fixture(scope="session")
def f2():
    return FieldSpec(2, 1)


@pytest.fixture(scope="session")
def f3():
    return FieldSpec(3, 1)


@pytest.fixture(scope="session")
def gf4():
    return FieldSpec(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return FieldSpec(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return FieldSpec(3, 2)


@pytest.fixture
def element_op_calls(monkeypatch):
    """Counts calls of FieldElement.__mul__, __add__, __sub__ and inverse."""
    calls = []
    for name in ("__mul__", "__add__", "__sub__", "inverse"):
        real = getattr(FieldElement, name)

        def counting(self, *args, real=real):
            calls.append(1)
            return real(self, *args)

        monkeypatch.setattr(FieldElement, name, counting)
    return calls


def fp_poly_remainder(a, b, p):
    """Remainder of a modulo monic b over F_p, coefficient lists low-degree first."""
    a = [x % p for x in a]
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top]
        if c:
            for i in range(db + 1):
                a[top - db + i] = (a[top - db + i] - c * b[i]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def irreducible_by_trial_division(mod, p, d):
    """Oracle: no monic polynomial of degree 1 .. d // 2 divides mod."""
    for k in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=k):
            if not fp_poly_remainder(mod, list(tail) + [1], p):
                return False
    return True


def lex_least_irreducible_by_trial_division(p, d):
    """Oracle: the first monic irreducible (c0, ..., c_{d-1}, 1) with c0 != 0
    in lexicographic order."""
    for low in product(range(p), repeat=d):
        if low[0] and irreducible_by_trial_division(list(low) + [1], p, d):
            return tuple(low) + (1,)
    return None


def poly_basis_product(a, b, p, modulus):
    """Oracle: schoolbook product of two coefficient tuples, reduced by
    substituting t^d = -(m_0 + ... + m_(d-1) t^(d-1)) from the top down."""
    d = len(modulus) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k] % p
        for i in range(d):
            conv[k - d + i] -= c * modulus[i]
    return tuple(x % p for x in conv[:d])


def module_from_ints(spec: FieldSpec, rows) -> SemilinearModule:
    """Build a module from integer matrix entries (prime-subfield values)."""
    return SemilinearModule(
        spec, [[spec.from_int(x) for x in row] for row in rows]
    )


def random_element(rng: random.Random, spec: FieldSpec):
    return spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.d)))


def random_module(rng: random.Random, spec: FieldSpec, n: int) -> SemilinearModule:
    return SemilinearModule(
        spec, [[random_element(rng, spec) for _ in range(n)] for _ in range(n)]
    )


def module_with_nilpotent_part(rng: random.Random, spec: FieldSpec, n: int):
    """A random module, half the time with a zero row, so that C is
    singular and the module usually has a nilpotent part."""
    rows = [list(r) for r in random_module(rng, spec, n).matrix]
    if n and rng.random() < 0.5:
        rows[rng.randrange(n)] = [spec.zero] * n
    return SemilinearModule(spec, rows)


def random_suite(count: int = 200, max_dim: int = 4, seed: int = 20240211):
    """The randomized module suite: GF(2), GF(4), GF(8), dimensions <= 4."""
    rng = random.Random(seed)
    specs = [FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(2, 3)]
    suite = []
    for i in range(count):
        spec = specs[i % len(specs)]
        n = rng.randint(1, max_dim)
        suite.append(random_module(rng, spec, n))
    return suite


def all_vectors(spec: FieldSpec, n: int):
    return product(list(spec.elements()), repeat=n)


def span_set(sub: Subspace):
    """Every vector of the subspace, as a set of coefficient tuples."""
    spec = sub.spec
    vectors = set()
    for coeffs in product(list(spec.elements()), repeat=sub.dim):
        acc = [spec.zero] * sub.ambient
        for c, row in zip(coeffs, sub.rows):
            acc = [a + c * b for a, b in zip(acc, row)]
        vectors.add(tuple(x.coeffs for x in acc))
    return vectors


def oracle_stable_image(module: SemilinearModule):
    """Set of vectors in the stable image, via set-level iteration of C."""
    current = {v for v in all_vectors(module.spec, module.dim)}
    while True:
        image = {tuple(module.apply(v)) for v in current}
        if image == current:
            return {tuple(x.coeffs for x in v) for v in current}
        current = image


def oracle_nilpotent_part(module: SemilinearModule):
    """Set of vectors killed by C^n, via n-fold application."""
    n = module.dim
    out = set()
    for v in all_vectors(module.spec, n):
        w = v
        for _ in range(n):
            w = module.apply(w)
        if all(x.is_zero for x in w):
            out.add(tuple(x.coeffs for x in v))
    return out


def oracle_fixed_points(module: SemilinearModule):
    """Set of vectors with C(v) = v, by exhaustive evaluation."""
    return {
        tuple(x.coeffs for x in v)
        for v in all_vectors(module.spec, module.dim)
        if tuple(module.apply(v)) == tuple(v)
    }


def matmul(a, b, spec: FieldSpec):
    """Schoolbook product of two matrices given as lists of rows."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = spec.zero
            for x, brow in zip(row, b):
                acc = acc + x * brow[j]
            out_row.append(acc)
        out.append(out_row)
    return out


def oracle_rref(mat, k):
    """Gauss-Jordan RREF of packed rows under kernel k, column by column:
    (rows_without_zeros, pivot_columns)."""
    mat = list(mat)
    if not mat:
        return [], ()
    pivots, r = [], 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r] = k.scale(mat[r], k.inv(mat[r][c]))
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = k.add_multiple(mat[i], k.neg(mat[i][c]), row)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], tuple(pivots)


def subfield_elements(spec: FieldSpec) -> tuple:
    """The q elements of F_q inside GF(p^d), in canonical order."""
    k, basis = spec.kernel, [[b] for b in semilinear._subfield_fp_basis(spec)]
    fp = [c * k.one for c in range(spec.p)]
    combos = product(fp, repeat=len(basis))
    return spec.wrap(sorted({linalg._combine(cs, basis, 1, k)[0] for cs in combos}))


def _fp_coords(v, spec: FieldSpec):
    """F_p coordinates of a packed vector: d per entry, c0 first."""
    return [c for x in v for c in _unpack(x, spec.p, spec.d)]


def oracle_fp_kernel(spec: FieldSpec, images):
    """Canonical F_p-basis of the kernel of an additive map on k^m, as
    packed vectors, for images[i*d + l] the packed image of t^l e_i: the
    F_p coordinate rows through `linalg._null_space` under F_p's own
    kernel."""
    p, d, n = spec.p, spec.d, len(images)
    rows = list(zip(*[_fp_coords(col, spec) for col in images]))
    kern = linalg._null_space(rows, n, FieldSpec(p, 1).kernel)
    return [tuple(_pack(v[i : i + d], p) for i in range(0, n, d)) for v in kern]


def _oracle_fq_basis(vectors, spec: FieldSpec):
    """The greedy F_q-independent subset, on F_p coordinate lists."""
    if spec.e == 1:
        return list(vectors)
    k, fp, rows, pivots = spec.kernel, FieldSpec(spec.p, 1).kernel, [], []
    scalars = semilinear._subfield_fp_basis(spec)

    def grows(v):
        return [linalg._extend(rows, pivots, _fp_coords(k.scale(v, u), spec), fp) for u in scalars]

    return [v for v in vectors if any(grows(v))]


def oracle_fixed_basis(module: SemilinearModule):
    """The packed F_q-basis that `fixed_points` returns, from list columns
    and `oracle_fp_kernel`: the unit w e_i gives sigma^(-e)(w) A e_i - w e_i."""
    spec, k, cols = module.spec, module.spec.kernel, []
    for i in range(module.dim):
        for w in semilinear._fp_units(spec):
            col = k.scale([row[i] for row in module._a], k.frob(w, -spec.e))
            col[i] = k.sub(col[i], w)
            cols.append(col)
    return _oracle_fq_basis(oracle_fp_kernel(spec, cols), spec)


def oracle_hom_basis(source: SemilinearModule, target: SemilinearModule):
    """The packed basis that `hom_space` returns, from list columns and
    `oracle_fp_kernel`: the unit w E_rs gives w (row s of A_V) in row r
    minus sigma^(-e)(w) (column r of A_W) in column s."""
    spec, k, e = source.spec, source.spec.kernel, source.spec.e
    av, aw, nv, nw = source._a, target._a, source.dim, target.dim
    cols = []
    for r in range(nw):
        for s in range(nv):
            for w in semilinear._fp_units(spec):
                col = [0] * (r * nv) + k.scale(av[s], w) + [0] * ((nw - r - 1) * nv)
                for i, x in enumerate(k.scale([row[r] for row in aw], k.frob(w, -e))):
                    col[i * nv + s] = k.sub(col[i * nv + s], x)
                cols.append(col)
    return [
        tuple(v[r * nv : (r + 1) * nv] for r in range(nw))
        for v in _oracle_fq_basis(oracle_fp_kernel(spec, cols), spec)
    ]


def oracle_determinant(m, spec: FieldSpec):
    """Leibniz expansion over all permutations; for tiny matrices only."""
    n = len(m)
    total = spec.zero
    for perm in permutations(range(n)):
        term = spec.one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def oracle_intertwiners(source: SemilinearModule, target: SemilinearModule):
    """Every matrix phi with phi . A = B . sigma^(-e)(phi), by trying all
    |k|^(dim V * dim W) matrices; A, B are the structural matrices."""
    spec = source.spec
    nv, nw = source.dim, target.dim
    a, b = source.matrix, target.matrix
    found = []
    for entries in product(list(spec.elements()), repeat=nv * nw):
        phi = [list(entries[r * nv : (r + 1) * nv]) for r in range(nw)]
        twisted = [[x.inv_frobenius(spec.e) for x in row] for row in phi]
        if matmul(phi, a, spec) == matmul(b, twisted, spec):
            found.append(phi)
    return found


def oracle_inverse(m, spec: FieldSpec):
    """The inverse of a square matrix as its adjugate over its determinant,
    every cofactor by `oracle_determinant`; None when singular."""
    det = oracle_determinant(m, spec)
    if det.is_zero:
        return None

    def cofactor(i, j):
        minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i]
        value = oracle_determinant(minor, spec)
        return -value if (i + j) % 2 else value

    return tuple(tuple(cofactor(j, i) / det for j in range(len(m))) for i in range(len(m)))


def fq_combinations(mats, rows: int, cols: int, spec: FieldSpec):
    """Yield sum_i c_i mats[i] for every tuple (c_i) of elements of F_q, in
    itertools.product order, by FieldElement arithmetic; each sum is a
    rows x cols tuple of rows."""
    for coeffs in product(subfield_elements(spec), repeat=len(mats)):
        acc = [[spec.zero] * cols for _ in range(rows)]
        for c, m in zip(coeffs, mats):
            acc = [[a + c * b for a, b in zip(ra, rm)] for ra, rm in zip(acc, m)]
        yield tuple(map(tuple, acc))


def oracle_isomorphic(
    source: SemilinearModule, target: SemilinearModule, cap: int = 100_000
) -> bool:
    """Search all intertwiners for an invertible one (small modules only)."""
    if source.spec != target.spec or source.dim != target.dim:
        return False
    if source.dim == 0:
        return True
    hom = source.hom_space(target)
    count = hom.q**hom.dim
    if count > cap:
        raise ResourceError(f"{count} intertwiners exceed the cap {cap}")
    spec, n = source.spec, source.dim
    return any(
        not oracle_determinant(phi, spec).is_zero
        for phi in fq_combinations(hom.basis, n, n, spec)
    )


def oracle_end_ring(module: SemilinearModule):
    """(order, is_field) of End(M), with End listed as every F_q-combination
    of the Hom basis: a field when the basis products lie in End and
    commute, and every nonzero element has an inverse in End."""
    spec, n = module.spec, module.dim
    hom = module.hom_space(module)
    ring = set(fq_combinations(hom.basis, n, n, spec))
    for phi, psi in product(hom.basis, repeat=2):
        prod = matmul(phi, psi, spec)
        if tuple(map(tuple, prod)) not in ring or prod != matmul(psi, phi, spec):
            return len(ring), False
    for phi in ring:
        if any(not x.is_zero for row in phi for x in row):
            inv = oracle_inverse(phi, spec)
            if inv is None or inv not in ring:
                return len(ring), False
    return len(ring), True


def block_extension(rng: random.Random, spec: FieldSpec, n1: int, n2: int):
    """A module with the span of the first n1 coordinates as a submodule.

    Returns (whole, submodule_block, quotient_block)."""
    a1 = [[random_element(rng, spec) for _ in range(n1)] for _ in range(n1)]
    a2 = [[random_element(rng, spec) for _ in range(n2)] for _ in range(n2)]
    x = [[random_element(rng, spec) for _ in range(n2)] for _ in range(n1)]
    n = n1 + n2
    big = [[spec.zero] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            big[i][j] = a1[i][j]
        for j in range(n2):
            big[i][n1 + j] = x[i][j]
    for i in range(n2):
        for j in range(n2):
            big[n1 + i][n1 + j] = a2[i][j]
    return (
        SemilinearModule(spec, big),
        SemilinearModule(spec, a1),
        SemilinearModule(spec, a2),
    )


def strictly_upper(rng: random.Random, spec: FieldSpec, n: int) -> SemilinearModule:
    """A nilpotent module: strictly upper triangular structural matrix."""
    rows = [
        [
            random_element(rng, spec) if j > i else spec.zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SemilinearModule(spec, rows)


def nilpotent_block_extension(rng: random.Random, spec: FieldSpec, n1: int, n2: int):
    """Extension of two nilpotent modules, for nilpotence-order bounds."""
    sub = strictly_upper(rng, spec, n1)
    quot = strictly_upper(rng, spec, n2)
    n = n1 + n2
    big = [[spec.zero] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            big[i][j] = sub.matrix[i][j]
        for j in range(n2):
            big[i][n1 + j] = random_element(rng, spec)
    for i in range(n2):
        for j in range(n2):
            big[n1 + i][n1 + j] = quot.matrix[i][j]
    return SemilinearModule(spec, big), sub, quot


def oracle_subspaces(spec: FieldSpec, n: int, dims=None):
    """Every subspace of k^n in canonical RREF enumeration order: each
    pivot set, then every value of the free entries."""
    elements = tuple(spec.elements())
    dims = range(n + 1) if dims is None else dims
    for r in dims:
        if r == 0:
            yield Subspace.zero(spec, n)
            continue
        for pivots in combinations(range(n), r):
            free_pos = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for values in product(elements, repeat=len(free_pos)):
                rows = [[spec.zero] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = spec.one
                for (i, j), val in zip(free_pos, values):
                    rows[i][j] = val
                yield Subspace(
                    spec, n, tuple(tuple(row) for row in rows), tuple(pivots)
                )


def oracle_submodules(module: SemilinearModule):
    """(N, C(N) == N) for every C-stable subspace N, by testing every
    subspace of k^n; sorted by (dimension, canonical basis)."""
    found = [
        (sub, module.image_of(sub) == sub)
        for sub in oracle_subspaces(module.spec, module.dim)
        if module.is_stable(sub)
    ]
    return sorted(found, key=lambda pair: pair[0].key())


def oracle_fixed_lattice(module: SemilinearModule, cap=None):
    """Every subspace with C(N) = N, by the exhaustive scan."""
    return [sub for sub, onto in oracle_submodules(module) if onto]


def oracle_is_simple(module: SemilinearModule, cap=None):
    """No C-stable subspace strictly between 0 and V, by the exhaustive scan."""
    return module.dim > 0 and not any(
        module.is_stable(sub)
        for sub in oracle_subspaces(module.spec, module.dim, range(1, module.dim))
    )


def oracle_cover_edges(lattice):
    """Hasse diagram cover pairs (i, j) meaning lattice[i] < lattice[j],
    from the full order relation: cubic in the lattice size."""
    n = len(lattice)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and lattice[i].dim < lattice[j].dim:
                less[i][j] = lattice[j].contains(lattice[i])
    edges = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(
                less[i][k] and less[k][j] for k in range(n)
            ):
                edges.append((i, j))
    return edges


def oracle_nil_series(module: SemilinearModule):
    """The alternating series of `crystal.nil_series`, one step at a time:
    restrict to U_i, take the largest proper fixed submodule by the
    exhaustive scan, quotient by it and by the quotient's nilpotent part,
    test the factor with the exhaustive simplicity scan, and lift the
    nilpotent part and the submodule back to the ambient space."""
    spec = module.spec
    current = module.stable_image()
    series = [Subspace.full(spec, module.dim), current]
    while current.dim > 0:
        restricted = module.restrict_to(current)
        best = oracle_fixed_lattice(restricted)[-2]
        quotient, qmap = restricted.quotient_by(best)
        nil = quotient.nilpotent_part()
        simple_part, _ = quotient.quotient_by(nil)
        assert not simple_part.is_nilpotent and oracle_is_simple(simple_part)
        lifts = []  # the preimage of nil: its rows on the quotient's coordinates
        for row in nil.rows:
            lift = [spec.zero] * current.dim
            for x, j in zip(row, qmap.coords_cols):
                lift[j] = x
            lifts.append(lift)
        preimage = Subspace.from_vectors(spec, current.dim, lifts + list(best.rows))
        series += [_in_ambient(preimage, current), _in_ambient(best, current)]
        current = series[-1]
    return series


def _in_ambient(sub: Subspace, inside: Subspace) -> Subspace:
    """A subspace given in the coordinates of inside's basis, in k^n."""
    spec, vectors = inside.spec, []
    for coords in sub.rows:
        acc = [spec.zero] * inside.ambient
        for c, row in zip(coords, inside.rows):
            acc = [a + c * b for a, b in zip(acc, row)]
        vectors.append(acc)
    return Subspace.from_vectors(spec, inside.ambient, vectors)


def oracle_lattice_nil_series(module: SemilinearModule, cap: int = 100_000):
    """The series of `crystal.nil_series` by the lattice walk: grow the
    lattice of the minimal representative with `crystal.jordan_holder`,
    then step from the top to the last lower cover of each member, which
    is the largest proper submodule by (dimension, RREF rows)."""
    top = module.stable_image()
    report = crystal.jordan_holder(module, cap)
    lattice, last = report.lattice, [0] * len(report.lattice)
    for i, j in report.edges:  # sorted, so the last i for j is the largest
        last[j] = i
    series, cur = [Subspace.full(module.spec, module.dim), top], len(lattice) - 1
    while lattice[cur].dim > 0:
        cur = last[cur]
        series += [_in_ambient(lattice[cur], top)] * 2
    return series


def oracle_chain(lattice, edges):
    """(longest chain length, sorted factor dimensions along the chain that
    always steps to the cover with least key), from bottom to top."""
    succ = {i: [j for a, j in edges if a == i] for i in range(len(lattice))}
    longest = {}
    for i in sorted(range(len(lattice)), key=lambda i: -lattice[i].dim):
        longest[i] = max((longest[j] + 1 for j in succ[i]), default=0)
    cur, dims = 0, []
    while succ[cur]:
        nxt = min(succ[cur], key=lambda j: lattice[j].key())
        dims.append(lattice[nxt].dim - lattice[cur].dim)
        cur = nxt
    return longest[0], tuple(sorted(dims))


def oracle_parse(ring, text: str):
    """Recursive descent evaluated with `Polynomial` operators: every atom
    is a polynomial, `*` a polynomial product and `^` a polynomial power."""
    tk = _Tokenizer(text)
    depth = 0

    def parse_expr():
        ch = tk.peek()
        neg = False
        if ch in ("+", "-"):
            tk.pos += 1
            neg = ch == "-"
        acc = parse_term()
        if neg:
            acc = -acc
        while True:
            ch = tk.peek()
            if ch not in ("+", "-"):
                return acc
            tk.pos += 1
            rhs = parse_term()
            acc = acc + (-rhs if ch == "-" else rhs)

    def parse_term():
        acc = parse_factor()
        while tk.peek() == "*":
            tk.pos += 1
            acc = acc * parse_factor()
        return acc

    def parse_factor():
        base = parse_atom()
        while tk.peek() == "^":
            tk.pos += 1
            ch = tk.peek()
            if ch is None or not ch.isdigit():
                tk.error("expected a nonnegative integer exponent")
            n = tk.take_int()
            if n > ring.max_degree:
                tk.error(f"exponent {n} overflows the degree bound {ring.max_degree}")
            base = base**n
        return base

    def parse_atom():
        nonlocal depth
        ch = tk.peek()
        if ch is None:
            tk.error("unexpected end of input")
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                tk.error(f"parentheses nested deeper than {MAX_NESTING}")
            tk.pos += 1
            inner = parse_expr()
            if tk.peek() != ")":
                tk.error("expected ')'")
            tk.pos += 1
            depth -= 1
            return inner
        if ch == "-":
            negate = False
            while tk.peek() == "-":
                tk.pos += 1
                negate = not negate
            atom = parse_atom()
            return -atom if negate else atom
        if ch == "[":
            tk.pos += 1
            coeffs = []
            while True:
                c = tk.peek()
                if c is None:
                    tk.error("unterminated coefficient literal")
                if c == "]":
                    tk.pos += 1
                    break
                if c == ",":
                    tk.pos += 1
                    continue
                if not c.isdigit():
                    tk.error("expected a digit in coefficient literal")
                coeffs.append(tk.take_int())
            if len(coeffs) > ring.field.d:
                tk.error("coefficient literal longer than the field degree")
            return ring.constant(ring.field.element(coeffs))
        if ch.isdigit():
            return ring.constant(tk.take_int())
        if ch.isalpha() or ch == "_":
            start = tk.pos
            name = tk.take_name()
            if name not in ring.vars:
                tk.pos = start
                tk.error(f"unknown variable {name!r}")
            return ring.var(name)
        tk.error(f"unexpected character {ch!r}")

    result = parse_expr()
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return result


def antichains_of_subsets(n):
    """Every antichain of subsets of range(n), as a tuple of frozensets."""
    subsets = []
    for r in range(n + 1):
        subsets.extend(frozenset(c) for c in combinations(range(n), r))
    antichains = []

    def extend(start, chosen):
        antichains.append(tuple(chosen))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(not (s <= t or t <= s) for t in chosen):
                chosen.append(s)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return antichains


def oracle_compatible_monomial(op):
    """The squarefree monomial ideals that `op.is_compatible` accepts,
    sorted canonically: one Gröbner check for each antichain of subsets of
    the variables, each antichain giving the monomials it supports as
    generators (the empty antichain the zero ideal)."""
    n = op.ring.nvars
    out = []
    for chain in antichains_of_subsets(n):
        gens = tuple(
            op.ring.monomial(tuple(1 if i in s else 0 for i in range(n)))
            for s in sorted(chain, key=sorted)
        )
        ideal = Ideal(op.ring, gens)
        if op.is_compatible(ideal):
            out.append(ideal)
    out.sort(key=lambda i: i.key())
    return out


def oracle_stabilise(step, start, cap, what):
    """(ideal, steps): the first of start, step(start), ... that step gives
    back, and the number of steps that changed the ideal; ResourceError,
    naming the last two ideals, when more than `cap` of them do.  Each step
    runs on the generators the previous one built."""
    cur, nxt, steps = start, step(start), 0
    while not nxt.equals(cur):
        if steps >= cap:
            last = f"last two ideals {cur.canonical_strings()} and {nxt.canonical_strings()}"
            raise ResourceError(f"{what} did not stabilise within {cap} steps; {last}")
        cur, nxt, steps = nxt, step(nxt), steps + 1
    return cur, steps
