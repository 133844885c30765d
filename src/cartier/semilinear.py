"""Finite-dimensional modules with a q^(-1)-linear structural map.

A module is a matrix A over GF(p^d) acting by C(v) = A . sigma^(-e)(v),
where sigma^(-e) takes coordinatewise p^e-th roots (q = p^e, e | d).  The
module-level structure theory lives here: nilpotent part, stable image,
direct-sum decomposition, fixed points, base change, Hom-spaces, duality,
and the submodule lattice, grown from cyclic submodules.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, product

from .errors import InvariantViolation, ResourceError, UsageError
from .field import FieldElement, FieldSpec, _Immutable, embed
from . import linalg


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element field."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _sigma(rows, j: int, sign: int):
    """sigma^(sign * j) on every entry of a matrix; sign -1 takes roots."""
    if j < 0:
        raise UsageError("frobenius iteration count must be >= 0")
    spec = linalg.spec_of(rows)
    if spec is None:
        return tuple(tuple(row) for row in rows)
    k = spec.kernel
    return tuple(spec.wrap(k.frob_row(spec.unwrap(row), sign * j)) for row in rows)


def sigma_vec(v, j: int):
    return _sigma((v,), j, 1)[0]


def sigma_inv_vec(v, j: int):
    return _sigma((v,), j, -1)[0]


def sigma_mat(rows, j: int):
    return _sigma(rows, j, 1)


def sigma_inv_mat(rows, j: int):
    return _sigma(rows, j, -1)


def _twisted_powers(matrix, spec: FieldSpec, twist):
    """Yield B_0 = I, B_{i+1} = A . twist(B_i, e), without end.

    The i-th power of v -> A . twist(v, e) is v -> B_i . twist(v, ie).
    B_{i+1} costs one mat_mul and is computed only when asked for, so a
    walk that stops at B_i has made i of them.
    """
    b = linalg.identity(len(matrix), spec)
    while True:
        yield b
        b = linalg.mat_mul(matrix, twist(b, spec.e))


class Subspace(_Immutable):
    """A subspace of k^n in reduced row echelon form.

    The representation is canonical, so equality of subspaces is equality
    of basis matrices and sorting is stable across runs.  Immutable; the
    basis is also kept as packed rows for reduction.
    """

    __slots__ = ("spec", "ambient", "rows", "pivots", "_packed")

    def __init__(self, spec: FieldSpec, ambient: int, rows, pivots):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_packed", tuple(spec.unwrap(r) for r in rows))

    @classmethod
    def from_vectors(cls, spec: FieldSpec, ambient: int, vectors) -> "Subspace":
        rows, pivots = linalg.rref(list(vectors), spec)
        return cls(spec, ambient, rows, pivots)

    @classmethod
    def zero(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls(spec, ambient, (), ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls(spec, ambient, linalg.identity(ambient, spec), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def _residue(self, v):
        """Packed canonical representative of v modulo this subspace."""
        k = self.spec.kernel
        v = self.spec.unwrap(v)
        for row, pc in zip(self._packed, self.pivots):
            c = v[pc]
            if c:
                v = k.add_multiple(v, k.neg(c), row)
        return v

    def reduce(self, v):
        """Canonical representative of v modulo this subspace."""
        return self.spec.wrap(self._residue(v))

    def contains_vector(self, v) -> bool:
        return not any(self._residue(v))

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if any(self._residue(v)):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            self.spec, self.ambient, list(self.rows) + list(other.rows)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        # v = sum a_i u_i lies in W iff the residues of the u_i mod W
        # combine to zero; solve for the coefficient vectors a.
        if self.is_zero or other.is_zero:
            return Subspace.zero(self.spec, self.ambient)
        residues = [other.reduce(r) for r in self.rows]
        cols = linalg.transpose(residues)
        coeffs = linalg.kernel_basis(cols, len(self.rows), self.spec)
        vectors = [
            linalg.linear_combination(a, self.rows, self.ambient, self.spec)
            for a in coeffs
        ]
        return Subspace.from_vectors(self.spec, self.ambient, vectors)

    def key(self):
        flat = tuple(c.coeffs for row in self.rows for c in row)
        return (self.dim, flat)

    def to_json(self):
        return {
            "dim": self.dim,
            "basis": [[list(c.coeffs) for c in row] for row in self.rows],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.spec == other.spec
            and self.ambient == other.ambient
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class NilDecomposition(_Immutable):
    """V = v_nil + v_underline, and the order of nilpotence of the whole
    module (None when it is not nilpotent)."""

    __slots__ = ("v_nil", "v_underline", "nilord")

    def __init__(self, v_nil: Subspace, v_underline: Subspace, nilord: int | None):
        object.__setattr__(self, "v_nil", v_nil)
        object.__setattr__(self, "v_underline", v_underline)
        object.__setattr__(self, "nilord", nilord)


class HomSpace(_Immutable):
    """F_q-basis of the space of structure-compatible linear maps V -> W;
    each basis matrix has shape dim(W) x dim(V)."""

    __slots__ = ("basis", "q")

    def __init__(self, basis: tuple, q: int):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.q**len(self.basis)


class SubmoduleInfo(_Immutable):
    """A stable subspace N, and whether the structural map carries N onto N."""

    __slots__ = ("subspace", "surjective")

    def __init__(self, subspace: Subspace, surjective: bool):
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "surjective", surjective)


@lru_cache(maxsize=None)
def _prime_spec(p: int) -> FieldSpec:
    return FieldSpec(p, 1)


class _FpFlattener:
    """View k^n as an F_p-space of dimension n*d, with canonical bases."""

    def __init__(self, spec: FieldSpec, n: int):
        self.spec = spec
        self.n = n
        self.fp = _prime_spec(spec.p)

    def flatten(self, v):
        return self.fp.wrap(self.spec.flatten_fp(v))

    def unflatten(self, flat):
        return self.spec.unflatten_fp(self.fp.unwrap(flat))

    def unit(self, i: int, ell: int):
        coeffs = tuple(1 if k == ell else 0 for k in range(self.spec.d))
        x = self.spec.element(coeffs)
        return tuple(
            x if j == i else self.spec.zero for j in range(self.n)
        )

    def kernel_of(self, additive_map):
        """F_p-kernel of an additive F_p-linear map on k^n, as k^n vectors."""
        nd = self.n * self.spec.d
        cols = []
        for i in range(self.n):
            for ell in range(self.spec.d):
                cols.append(self.flatten(additive_map(self.unit(i, ell))))
        rows = tuple(tuple(cols[j][i] for j in range(nd)) for i in range(nd))
        kern = linalg.kernel_basis(rows, nd, self.fp)
        return [self.unflatten(vec) for vec in kern]


@lru_cache(maxsize=None)
def subfield_fp_basis(spec: FieldSpec) -> tuple:
    """F_p-basis of the subfield F_q = Fix(sigma^e) inside GF(p^d)."""
    if spec.d % spec.e != 0:
        raise UsageError(f"twist e={spec.e} does not divide d={spec.d}")
    kern = _FpFlattener(spec, 1).kernel_of(
        lambda v: linalg.vec_sub(sigma_vec(v, spec.e), v, spec)
    )
    out = tuple(x for (x,) in kern)
    if len(out) != spec.e:
        raise InvariantViolation("fixed field of sigma^e has wrong dimension")
    return out


def subfield_elements(spec: FieldSpec) -> tuple:
    """The q elements of F_q inside GF(p^d), in canonical order."""
    basis = [(b,) for b in subfield_fp_basis(spec)]
    fp = [spec.from_int(c) for c in range(spec.p)]
    elems = {x for (x,) in linalg.every_combination(fp, basis, 1, spec)}
    return tuple(sorted(elems, key=lambda x: x.key()))


class _FqSpan:
    """A growing F_q-span inside k^n, kept as an RREF matrix over F_p.

    The number of rows is the F_p-rank of the span, so v lies in the span
    exactly when appending its flattening leaves the rank unchanged.
    """

    def __init__(self, spec: FieldSpec, n: int):
        self.flat = _FpFlattener(spec, n)
        self.scalars = subfield_fp_basis(spec)
        self.rows = ()

    def contains(self, v) -> bool:
        test, _ = linalg.rref(list(self.rows) + [self.flat.flatten(v)], self.flat.fp)
        return len(test) == len(self.rows)

    def extend(self, vectors):
        """Add the F_q-multiples of each vector: u*v for u in an F_p-basis of F_q."""
        spec, n = self.flat.spec, self.flat.n
        rows = list(self.rows) + [
            self.flat.flatten(linalg.linear_combination((u,), (v,), n, spec))
            for v in vectors
            for u in self.scalars
        ]
        self.rows, _ = linalg.rref(rows, self.flat.fp)


def _fq_greedy_basis(vectors, spec: FieldSpec, n: int):
    """Maximal F_q-independent subset, greedy in the order given."""
    span = _FqSpan(spec, n)
    chosen = []
    for v in vectors:
        if not span.contains(v):
            chosen.append(tuple(v))
            span.extend([v])
    return chosen


class _TwistedModule(_Immutable):
    """A square matrix A over GF(p^d) acting through a power of Frobenius.

    Subclasses fix the twist: sigma^(-e) for a Cartier module, sigma^e for
    a Frobenius module.  Validation, the twisted power sequence and the
    nilpotence order are the same for both.
    """

    __slots__ = ("spec", "dim", "matrix")
    _twist = None  # sigma_inv_mat or sigma_mat, as a staticmethod

    def __init__(self, spec: FieldSpec, matrix):
        if spec.d % spec.e != 0:
            raise UsageError(
                f"twist e={spec.e} does not divide d={spec.d}; "
                "no F_q inside the coefficient field"
            )
        matrix = tuple(tuple(row) for row in matrix)
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise UsageError("structural matrix must be square")
            for x in row:
                if not isinstance(x, FieldElement) or x.spec != spec:
                    raise UsageError("matrix entry outside the coefficient field")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "matrix", matrix)

    def _powers(self):
        return _twisted_powers(self.matrix, self.spec, self._twist)

    def power_matrix(self, i: int):
        """Matrix B_i with (i-th power of the map)(v) = B_i . twist^i(v)."""
        if i < 0:
            raise UsageError("power index must be >= 0")
        return next(islice(self._powers(), i, None))

    def _nil_walk(self):
        """(nilord, B_n) with n = dim, from one walk of the twisted powers.

        nilord is the least i <= n with B_i = 0, or None.  Every power
        after a zero one is zero, so the walk stops at the first zero B_i
        and returns it as B_n.  It makes at most n mat_mul calls.
        """
        for i, b in zip(range(self.dim + 1), self._powers()):
            if linalg.is_zero_matrix(b):
                return i, b
        return None, b

    def nilord(self) -> int | None:
        """Least i with the i-th power zero, or None when not nilpotent."""
        return self._nil_walk()[0]


class SemilinearModule(_TwistedModule):
    """A pair (k^n, C) with C(v) = A . sigma^(-e)(v); C^i(v) = B_i . sigma^(-ie)(v)."""

    __slots__ = ()
    _twist = staticmethod(sigma_inv_mat)

    # -- basic action -------------------------------------------------

    def apply(self, v):
        if len(v) != self.dim:
            raise UsageError(f"vector length {len(v)} != module dimension {self.dim}")
        return linalg.mat_vec(self.matrix, sigma_inv_vec(v, self.spec.e))

    def apply_power(self, v, i: int):
        return linalg.mat_vec(self.power_matrix(i), sigma_inv_vec(v, i * self.spec.e))

    # -- structure ----------------------------------------------------

    def image_of(self, sub: Subspace) -> Subspace:
        """C(N): the span of the images of a basis (q-th roots are onto)."""
        return Subspace.from_vectors(
            self.spec, self.dim, [self.apply(r) for r in sub.rows]
        )

    def is_stable(self, sub: Subspace) -> bool:
        return all(sub.contains_vector(self.apply(r)) for r in sub.rows)

    def stable_image(self) -> Subspace:
        cur = Subspace.full(self.spec, self.dim)
        for _ in range(self.dim + 1):
            nxt = self.image_of(cur)
            if nxt == cur:
                return cur
            cur = nxt
        raise InvariantViolation("image chain failed to stabilise within dim steps")

    def nilpotent_part(self) -> Subspace:
        """Largest submodule killed by a power of C: sigma^(ne)(ker B_n)."""
        return self._kernel_part(self._nil_walk()[1])

    def _kernel_part(self, b_n) -> Subspace:
        """sigma^(ne)(ker b_n), for b_n = B_n with n = dim."""
        n = self.dim
        kern = linalg.kernel_basis(b_n, n, self.spec)
        vecs = [sigma_vec(v, n * self.spec.e) for v in kern]
        return Subspace.from_vectors(self.spec, n, vecs)

    @property
    def is_nilpotent(self) -> bool:
        return self.nilord() is not None

    def decompose(self) -> NilDecomposition:
        nilord, b_n = self._nil_walk()
        nil = self._kernel_part(b_n)
        under = self.stable_image()
        if nil.intersect(under).dim != 0 or nil.dim + under.dim != self.dim:
            raise InvariantViolation("nilpotent part and stable image are not complementary")
        if not self.is_stable(nil) or not self.is_stable(under):
            raise InvariantViolation("decomposition parts are not stable under C")
        return NilDecomposition(v_nil=nil, v_underline=under, nilord=nilord)

    # -- fixed points and base change ----------------------------------

    def fixed_points(self):
        """F_q-basis of {v : C(v) = v}, via one F_p-linear solve."""
        flat = _FpFlattener(self.spec, self.dim)
        kern = flat.kernel_of(lambda v: linalg.vec_sub(self.apply(v), v, self.spec))
        basis = _fq_greedy_basis(kern, self.spec, self.dim)
        if len(basis) * self.spec.e != len(kern):
            raise InvariantViolation("fixed set is not an F_q-subspace")
        if len(basis) > self.stable_image().dim:
            raise InvariantViolation("more fixed points than the stable image allows")
        return tuple(basis)

    def base_change(self, m: int) -> "SemilinearModule":
        """The same matrix over GF(p^(dm)), coefficients embedded."""
        if m < 1:
            raise UsageError("base change degree must be >= 1")
        spec = self.spec
        big = FieldSpec(spec.p, spec.d * m, None, spec.e)
        phi = embed(spec, big)
        return SemilinearModule(
            big, tuple(tuple(phi(x) for x in row) for row in self.matrix)
        )

    def _base_change_fixed_dims(self):
        """Yield len(self.base_change(m).fixed_points()) for m = 1, 2, ...
        as n - rank(B^m - I), B = B_(d/e), without building GF(p^(dm)).

        B = C^(d/e) is k-linear.  A fixed point v over the algebraic closure
        has v^(p^d) = B v, so it lies in GF(p^(dm))^n exactly when B^m v = v.
        The fixed points span the unit part over the closure (Katz, LNM 350,
        4.1), and B is nilpotent on the nilpotent part."""
        spec, n = self.spec, self.dim
        b = bm = self.power_matrix(spec.d // spec.e)
        ident = linalg.identity(n, spec)
        while True:
            shifted = [linalg.vec_sub(r, i, spec) for r, i in zip(bm, ident)]
            yield n - linalg.matrix_rank(shifted, spec)
            bm = linalg.mat_mul(bm, b)

    def saturation_degree(self, max_m: int = 6) -> int | None:
        """Least m <= max_m where the fixed-point F_q-dimension reaches
        the stable-image dimension; None when the cap is hit first."""
        target = self.stable_image().dim
        dims = zip(range(1, max_m + 1), self._base_change_fixed_dims())
        return next((m for m, fixed in dims if fixed == target), None)

    # -- Hom, End, enumeration -----------------------------------------

    def hom_space(self, other: "SemilinearModule") -> HomSpace:
        """F_q-basis of maps phi with phi . C_V = C_W . phi."""
        if other.spec != self.spec:
            raise UsageError("modules live over different field specs")
        spec = self.spec
        nv, nw = self.dim, other.dim

        def sides(phi):
            """(phi . A_V, A_W . sigma^(-e)(phi)), equal for a module map."""
            return (
                linalg.mat_mul(phi, self.matrix),
                linalg.mat_mul(other.matrix, sigma_inv_mat(phi, spec.e)),
            )

        def defect(v):
            lhs, rhs = sides(linalg.reshape(v, nw, nv))
            return linalg.vec_sub(linalg.flatten(lhs), linalg.flatten(rhs), spec)

        kern = _FpFlattener(spec, nw * nv).kernel_of(defect)
        basis = tuple(
            linalg.reshape(v, nw, nv) for v in _fq_greedy_basis(kern, spec, nw * nv)
        )
        if any(lhs != rhs for lhs, rhs in map(sides, basis)):
            raise InvariantViolation("hom basis element fails the commuting identity")
        return HomSpace(basis=basis, q=spec.q)

    def _cyclic(self, v):
        """Packed RREF rows and pivots of <v, Cv, C^2 v, ...> for a packed
        vector v; the span is C-stable once C^i v adds nothing."""
        k, a = self.spec.kernel, [self.spec.unwrap(c) for c in zip(*self.matrix)]
        rows, pivots = [], ()
        while True:
            grown, more = linalg._rref_packed(rows + [v], k)
            if len(grown) == len(rows):
                return rows, pivots
            rows, pivots = grown, more
            v = linalg._combine(k.frob_row(v, -self.spec.e), a, self.dim, k)

    def _lattice(self, cap: int):
        """Every C-stable subspace, sorted by (dimension, canonical basis),
        and the point bitset of each.

        A stable subspace is the sum of the cyclic submodules of its
        points, so the lattice is the closure of 0 under N -> N + <v>.
        When N + <v> has dimension dim N + 1 it is a cover of N, the sum
        for every point in it, so those points are skipped for N.
        """
        spec, n = self.spec, self.dim
        points = linalg._Points(spec, n, cap)
        elems, masks, where, cyclic = [Subspace.zero(spec, n)], [0], {(): 0}, {}

        def member(rows, pivots):
            key = tuple(map(tuple, rows))
            if key not in where:
                if len(elems) == cap:
                    raise ResourceError(
                        f"submodule lattice has more than {cap} members, above "
                        f"the cap (the next one found has dimension {len(key)})"
                    )
                where[key] = len(elems)
                elems.append(Subspace(spec, n, tuple(map(spec.wrap, key)), pivots))
                masks.append(points.mask(key))
            return where[key]

        for sub, mask in zip(elems, masks):  # both grow as members are found
            todo, sums = ~mask & ((1 << len(points.vectors)) - 1), {}
            while todo:
                low = todo & -todo
                j = low.bit_length() - 1
                if j not in cyclic:
                    cyclic[j] = member(*self._cyclic(points.vectors[j]))
                c = cyclic[j]
                if c not in sums:  # N + <v> is <v> when N lies inside it
                    sums[c] = member(*linalg._rref_packed(
                        list(sub._packed + elems[c]._packed), spec.kernel
                    )) if mask & ~masks[c] else c
                m = sums[c]
                todo &= ~(masks[m] if elems[m].dim == sub.dim + 1 else low)
        order = sorted(range(len(elems)), key=lambda i: elems[i].key())
        return [elems[i] for i in order], [masks[i] for i in order]

    def enumerate_submodules(self, cap: int = 100_000):
        """All C-stable subspaces, flagged with whether C maps them onto
        themselves (exactly when they lie in the stable image, where C is
        bijective); sorted by (dimension, canonical basis).  `cap` bounds
        the points of k^n scanned and the submodules found."""
        lattice, masks = self._lattice(cap)
        under = masks[lattice.index(self.stable_image())]
        return [
            SubmoduleInfo(subspace=sub, surjective=not mask & ~under)
            for sub, mask in zip(lattice, masks)
        ]

    def is_simple(self, cap: int = 100_000) -> bool:
        """Whether 0 and V are the only C-stable subspaces: every cyclic
        submodule is V."""
        points = linalg._Points(self.spec, self.dim, cap)
        return self.dim > 0 and all(
            len(self._cyclic(v)[0]) == self.dim for v in points.vectors
        )

    def end_ring(self, cap: int = 100_000):
        """(order, is_field) for the endomorphism ring of a simple module."""
        if not self.is_simple(cap=cap):
            raise UsageError("end_ring requires a simple module")
        hom = self.hom_space(self)
        order = hom.q**hom.dim
        if order > cap:
            raise ResourceError(f"endomorphism ring has {order} elements, above {cap}")
        spec = self.spec
        n = self.dim
        flat_basis = [linalg.flatten(phi) for phi in hom.basis]
        span = _FqSpan(spec, n * n)
        span.extend(flat_basis)

        def in_end(mat):
            return span.contains(linalg.flatten(mat))

        is_field = True
        for phi, psi in product(hom.basis, repeat=2):
            if not in_end(linalg.mat_mul(phi, psi)):
                is_field = False
            if linalg.mat_mul(phi, psi) != linalg.mat_mul(psi, phi):
                is_field = False
        fq = subfield_elements(spec)
        for v in linalg.every_combination(fq, flat_basis, n * n, spec):
            if all(x.is_zero for x in v):
                continue
            inv = linalg.invert(linalg.reshape(v, n, n), spec)
            if inv is None or not in_end(inv):
                is_field = False
                break
        return order, is_field

    # -- duality and subquotients ---------------------------------------

    def dual(self) -> "FrobeniusModule":
        """Left-Frobenius module on the dual space; nilpotence orders agree."""
        b = sigma_mat(linalg.transpose(self.matrix), self.spec.e)
        return FrobeniusModule(self.spec, b)

    def restrict_to(self, sub: Subspace) -> "SemilinearModule":
        if not self.is_stable(sub):
            raise UsageError("cannot restrict to a subspace that is not C-stable")
        rows = [sub.coords(self.apply(r)) for r in sub.rows]
        # C(w_i) = sum_j rows[i][j] w_j, so the coordinate action is the transpose
        return SemilinearModule(self.spec, linalg.transpose(rows))

    def quotient_by(self, sub: Subspace):
        """Module induced on the non-pivot coordinates, plus the projection."""
        if not self.is_stable(sub):
            raise UsageError("cannot quotient by a subspace that is not C-stable")
        qmap = QuotientMap(sub)
        columns = linalg.transpose(self.matrix)
        cols = [qmap.project(columns[j]) for j in qmap.coords_cols]
        return SemilinearModule(self.spec, linalg.transpose(cols)), qmap

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "e": self.spec.e,
            "dim": self.dim,
            "matrix": [[list(x.coeffs) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SemilinearModule":
        spec = FieldSpec.from_json(data["field"])
        if "e" in data and int(data["e"]) != spec.e:
            raise UsageError("module-level twist disagrees with the field spec")
        matrix = [[spec.element(c) for c in row] for row in data["matrix"]]
        if len(matrix) != int(data.get("dim", len(matrix))):
            raise UsageError("matrix size disagrees with declared dimension")
        return cls(spec, matrix)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearModule)
            and self.spec == other.spec
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.spec, self.matrix))

    def __repr__(self):
        return f"SemilinearModule(dim={self.dim}, field=GF({self.spec.p}^{self.spec.d}), e={self.spec.e})"


class QuotientMap(_Immutable):
    """Projection of k^n onto the complement of a subspace's pivot columns."""

    __slots__ = ("sub", "coords_cols")

    def __init__(self, sub: Subspace):
        object.__setattr__(self, "sub", sub)
        cols = tuple(j for j in range(sub.ambient) if j not in set(sub.pivots))
        object.__setattr__(self, "coords_cols", cols)

    def project(self, v):
        r = self.sub.reduce(v)
        return tuple(r[j] for j in self.coords_cols)

    def lift(self, coords):
        spec = self.sub.spec
        v = [spec.zero] * self.sub.ambient
        for x, j in zip(coords, self.coords_cols):
            v[j] = x
        return tuple(v)

    def preimage(self, quotient_sub: Subspace) -> Subspace:
        vectors = [self.lift(r) for r in quotient_sub.rows] + list(self.sub.rows)
        return Subspace.from_vectors(self.sub.spec, self.sub.ambient, vectors)


class FrobeniusModule(_TwistedModule):
    """A left twist: F(w) = B . sigma^e(w), so F(a w) = a^q F(w);
    F^i(w) = B_i . sigma^(ie)(w)."""

    __slots__ = ()
    _twist = staticmethod(sigma_mat)

    def apply(self, w):
        return linalg.mat_vec(self.matrix, sigma_vec(w, self.spec.e))

    def dual(self) -> SemilinearModule:
        a = sigma_inv_mat(linalg.transpose(self.matrix), self.spec.e)
        return SemilinearModule(self.spec, a)

    def __repr__(self):
        return f"FrobeniusModule(dim={self.dim}, field=GF({self.spec.p}^{self.spec.d}), e={self.spec.e})"
