"""Finite-dimensional modules with a q^(-1)-linear structural map.

A module is a matrix A over GF(p^d) acting by C(v) = A . sigma^(-e)(v),
where sigma^(-e) takes coordinatewise p^e-th roots (q = p^e, e | d).  The
module-level structure theory lives here: nilpotent part, stable image,
direct-sum decomposition, fixed points, base change, Hom-spaces, duality,
and the submodule lattice with its Hasse covers, grown from cyclic
submodules.  The first three, and the nilpotence order, come from one
walk of the twisted powers to the Fitting index.

Modules, subspaces and Hom-spaces store packed rows and compute on them
with `linalg`'s packed functions; `matrix`, `rows` and `basis` wrap them
into FieldElements on each access, like `Polynomial.terms`.  Hom-spaces
come from one F_p system, an int column per F_p-basis vector made of shifted
spreads of rows and columns, whose scaled entries are read from per-field
digit tables (`_digit_tables`); fixed points are Hom from the unit module.
Over GF(2) the lattice walks run on ints, one bit per entry (`_points`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice, product, tee
from operator import lshift

from .errors import InvariantViolation, ResourceError, UsageError
from .field import TABLE_MAX_ORDER, FieldElement, FieldSpec, _Immutable, embed
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


def _unwrap(spec: FieldSpec, n: int, v) -> list:
    """The packed entries of a vector of k^n; UsageError on another length."""
    if len(v) != n:
        raise UsageError(f"vector length {len(v)} != dimension {n}")
    return spec.unwrap(v)


class Subspace(_Immutable):
    """A subspace of k^n in reduced row echelon form.

    The representation is canonical, so equality of subspaces is equality
    of basis matrices and sorting is stable across runs.  Immutable; the
    basis is stored as packed rows, and `rows` wraps them on each access.
    """

    __slots__ = ("spec", "ambient", "_rows", "pivots")

    def __init__(self, spec: FieldSpec, ambient: int, rows, pivots):
        """From FieldElement rows in reduced row echelon form, with their
        pivot columns; UsageError when they are not."""
        rows, pivots = tuple(tuple(spec.unwrap(r)) for r in rows), tuple(pivots)
        span = all(len(r) == ambient for r in rows) and Subspace._span(spec, ambient, rows)
        if not span or (span._rows, span.pivots) != (rows, pivots):
            raise UsageError("rows and pivots are not the reduced row echelon form of their span")
        self._set(spec=spec, ambient=ambient, _rows=rows, pivots=pivots)

    @classmethod
    def _of(cls, spec: FieldSpec, ambient: int, rows, pivots) -> "Subspace":
        """From packed rows in reduced row echelon form."""
        rows, sub = tuple(map(tuple, rows)), object.__new__(cls)
        return sub._set(spec=spec, ambient=ambient, _rows=rows, pivots=tuple(pivots))

    @classmethod
    def _span(cls, spec: FieldSpec, ambient: int, vectors) -> "Subspace":
        """The span of packed vectors."""
        return cls._of(spec, ambient, *linalg._rref(vectors, spec.kernel))

    @classmethod
    def from_vectors(cls, spec: FieldSpec, ambient: int, vectors) -> "Subspace":
        return cls._span(spec, ambient, [_unwrap(spec, ambient, v) for v in vectors])

    @classmethod
    def zero(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls._of(spec, ambient, (), ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls._of(spec, ambient, linalg._identity(ambient, spec.kernel), range(ambient))

    @property
    def rows(self):
        return tuple(map(self.spec.wrap, self._rows))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def _residue(self, v):
        """Packed canonical representative of packed v modulo this subspace."""
        return linalg._reduce(self._rows, self.pivots, v, self.spec.kernel)

    def _require(self, spec: FieldSpec, ambient: int):
        """UsageError unless this is a subspace of spec's k^ambient."""
        if self.ambient != ambient or self.spec != spec:
            raise UsageError(f"subspace of {self.spec!r}^{self.ambient}, not of {spec!r}^{ambient}")

    def reduce(self, v):
        """Canonical representative of v modulo this subspace."""
        return self.spec.wrap(self._residue(_unwrap(self.spec, self.ambient, v)))

    def contains_vector(self, v) -> bool:
        return not any(self._residue(_unwrap(self.spec, self.ambient, v)))

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if not self.contains_vector(v):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def contains(self, other: "Subspace") -> bool:
        other._require(self.spec, self.ambient)
        return not any(any(self._residue(r)) for r in other._rows)

    def add(self, other: "Subspace") -> "Subspace":
        other._require(self.spec, self.ambient)
        rows, pivots, k = list(self._rows), list(self.pivots), self.spec.kernel
        for r in other._rows:
            linalg._extend(rows, pivots, r, k)
        return Subspace._of(self.spec, self.ambient, rows, pivots)

    def intersect(self, other: "Subspace") -> "Subspace":
        # v = sum a_i u_i lies in W iff the residues of the u_i mod W
        # combine to zero; solve for the coefficient vectors a.
        other._require(self.spec, self.ambient)
        if self.is_zero or other.is_zero:
            return Subspace.zero(self.spec, self.ambient)
        k, n = self.spec.kernel, self.ambient
        cols = list(zip(*[other._residue(r) for r in self._rows]))
        coeffs = linalg._null_space(cols, self.dim, k)
        return Subspace._span(
            self.spec, n, [linalg._combine(a, self._rows, n, k) for a in coeffs]
        )

    def key(self):
        return (self.dim, tuple(c.coeffs for row in self.rows for c in row))

    def to_json(self):
        return {"dim": self.dim, "basis": [[list(c.coeffs) for c in row] for row in self.rows]}

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class NilDecomposition(_Immutable):
    """V = v_nil + v_underline, and the order of nilpotence of the whole
    module (None when it is not nilpotent)."""

    __slots__ = ("v_nil", "v_underline", "nilord")


class HomSpace(_Immutable):
    """F_q-basis of the space of structure-compatible linear maps V -> W;
    each basis matrix has shape dim(W) x dim(V).  Built by `hom_space`
    from packed matrices; `basis` wraps them on each access."""

    __slots__ = ("spec", "q", "_basis")
    _fields = ("spec", "_basis")

    def __init__(self, spec: FieldSpec, basis):
        self._set(spec=spec, q=spec.q, _basis=tuple(basis))

    @property
    def basis(self) -> tuple:
        return tuple(tuple(map(self.spec.wrap, phi)) for phi in self._basis)

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def size(self) -> int:
        return self.q**len(self._basis)


class SubmoduleInfo(_Immutable):
    """A stable subspace N, and whether the structural map carries N onto N."""

    __slots__ = ("subspace", "surjective")


# -- F_p-linear algebra on k^n ------------------------------------------------


def _fp_units(spec: FieldSpec):
    """The packed F_p-basis 1, t, ..., t^(d-1) of the field."""
    return [spec.p ** (spec.d - 1 - ell) for ell in range(spec.d)]


@lru_cache(maxsize=None)
def _subfield_fp_basis(spec: FieldSpec) -> tuple:
    """Packed F_p-basis of the subfield F_q = Fix(sigma^e) inside GF(p^d)."""
    if spec.d % spec.e != 0:
        raise UsageError(f"twist e={spec.e} does not divide d={spec.d}")
    k, e, fp = spec.kernel, spec.e, linalg._FpInts(spec.p, spec.d, 2 * spec.d)
    kern = linalg._fp_null_space([fp.digits(k.sub(k.frob(w, e), w)) for w in _fp_units(spec)], fp)
    if len(kern) != spec.e:
        raise InvariantViolation("fixed field of sigma^e has wrong dimension")
    return tuple(x for (x,) in kern)


class _Digits(dict):
    """Packed x -> the `_FpInts` digits of x * c, filled on first use."""

    def __init__(self, spec: FieldSpec, c: int):
        self.spec, self.c, self.fp = spec, c, linalg._FpInts(spec.p, spec.d, 0)

    def __missing__(self, x):
        self[x] = y = self.fp.digits(self.spec.kernel.mul(x, self.c))
        return y


def _digit_tables(spec: FieldSpec) -> tuple:
    """`_Digits` of each F_p-unit w and of -sigma^(-e)(w), and of F_q's F_p-basis;
    kept for fields up to TABLE_MAX_ORDER (`_kept_tables`), like `field._Elements`."""
    k, e, units = spec.kernel, spec.e, _fp_units(spec)
    return ([_Digits(spec, w) for w in units],
            [_Digits(spec, k.neg(k.frob(w, -e))) for w in units],
            [_Digits(spec, u) for u in (_subfield_fp_basis(spec) if e > 1 else ())])


_kept_tables = lru_cache(maxsize=None)(_digit_tables)


def _fq_basis(vectors, spec: FieldSpec, fp, tables):
    """Maximal F_q-independent subset of F_p-independent packed vectors,
    greedy in the order given: all of them when q = p.  v is kept when
    u*v, for u in an F_p-basis of F_q, extends the F_p echelon (`fp`
    pivots) of the F_q-span so far; `tables` are the `_Digits` of the u."""
    if spec.e == 1:
        return list(vectors)
    pivots, step = {}, spec.d * fp.w

    def grows(v):  # extends by every u*v, not just up to the first
        return [fp.extend(pivots, sum(map(lshift, map(t.__getitem__, v), count(0, step)))) is None
                for t in tables]

    return [v for v in vectors if any(grows(v))]


class _TwistedModule(_Immutable):
    """A square matrix A over GF(p^d), stored as packed rows, acting
    through a power of Frobenius.  Subclasses fix the twist: sigma^(-e)
    for a Cartier module, v -> A . sigma^(-e)(v), and sigma^e for a
    Frobenius module.  Validation, the action, the twisted powers, the
    Fitting walk with the nilpotence order, and duality are shared."""

    __slots__ = ("spec", "dim", "_a")
    _sign = 0  # the twist is sigma^(_sign * e)

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
        self._set(spec=spec, dim=n, _a=tuple(tuple(x.packed for x in row) for row in matrix))

    @classmethod
    def _of(cls, spec: FieldSpec, rows):
        """A module from the packed rows of a square matrix."""
        rows = tuple(map(tuple, rows))
        return object.__new__(cls)._set(spec=spec, dim=len(rows), _a=rows)

    @property
    def matrix(self):
        return tuple(map(self.spec.wrap, self._a))

    def _apply(self, v):
        """The structural map on a packed vector."""
        k = self.spec.kernel
        w = k.frob_row(v, self._sign * self.spec.e)
        return [k.dot(row, w) for row in self._a]

    def apply(self, v):
        return self.spec.wrap(self._apply(_unwrap(self.spec, self.dim, v)))

    def _powers(self):
        """Yield packed B_0 = I, B_1 = A, B_{i+1} = A . twist(B_i), without end.

        The i-th power of v -> A . twist(v) is v -> B_i . twist^i(v).
        B_{i+1} costs one matrix product from B_2 on and is computed only
        when asked for, so a walk that stops at B_i, i >= 1, has made i - 1.
        """
        k, a, shift = self.spec.kernel, self._a, self._sign * self.spec.e
        yield linalg._identity(self.dim, k)
        b = a
        while True:
            yield b
            b = linalg._mul(a, [k.frob_row(row, shift) for row in b], k)

    def _power(self, i: int):
        if i < 0:
            raise UsageError("power index must be >= 0")
        return next(islice(self._powers(), i, None))

    def power_matrix(self, i: int):
        """Matrix B_i with (i-th power of the map)(v) = B_i . twist^i(v)."""
        return tuple(map(self.spec.wrap, self._power(i)))

    def _fitting(self, powers=None):
        """(ranks, B_m, image): rank B_0, ..., rank B_m, and the RREF rows
        and pivots of B_m's column span, the image of the m-th power.  The
        images fall until the Fitting index m, the least i with rank
        B_(i+1) = rank B_i, and stay from then on (Hartshorne-Speiser);
        V = ker + image of the m-th power.  The walk stops at B_m when it
        is zero and at B_(m+1) otherwise, so it makes m - 1 matrix products
        when B_m = 0 and m otherwise, none for n = 0.  B_0 = I is its own
        RREF, of rank n.  It walks `powers` when given, an iterator over
        `_powers()`, from B_0."""
        k, n = self.spec.kernel, self.dim
        powers = self._powers() if powers is None else powers
        ranks, b_m = [n], next(powers)
        image = (b_m, range(n))
        while ranks[-1]:
            b = next(powers)
            rows, pivots = linalg._rref(zip(*b), k)
            if len(rows) >= ranks[-1]:
                if len(rows) > ranks[-1]:
                    raise InvariantViolation("the rank of a twisted power rose")
                break
            ranks.append(len(rows))
            b_m, image = b, (rows, pivots)
        return ranks, b_m, image

    def nilord(self) -> int | None:
        """Least i with the i-th power zero, or None when not nilpotent."""
        ranks = self._fitting()[0]
        return None if ranks[-1] else len(ranks) - 1

    def _points(self, cap: int):
        """The points of k^n under the structural map (`linalg._points`)."""
        return linalg._points(self.spec, self.dim, cap, self._a, self._apply)

    def _cyclic_spans(self, points, cap=None):
        """Z(v) = <v, Cv, C^2 v, ...> for every point v of `points`, by one
        walk of the point map [v] -> [Cv] (C(cv) is a multiple of C(v)).  As
        Z(v) = <v> + Z(Cv), a walk stops at a known Z, at zero, or at a
        repeat, which closes a cycle whose points all have its span; unwound,
        a point keeps Z(Cv) when it lies in it and extends its rows otherwise.
        Returns the distinct spans as RREF (rows, pivots) of `points`' kind,
        zero first, their point bitsets, of[j], the index of the span of
        point j, and `span`, which interns RREF rows on those lists and
        returns their index: ResourceError past `cap` spans, when given."""
        n, vectors, extend = self.dim, points.vectors, points.extend
        spans, masks, where, of = [((), ())], [0], {(): 0}, [None] * len(vectors)

        def span(rows, pivots):
            key = points.key(rows)
            if key not in where:
                if len(spans) == cap:
                    raise ResourceError(
                        f"submodule lattice has more than {cap} members, above "
                        f"the cap (the next one found has dimension {len(key)})"
                    )
                where[key] = len(spans)
                spans.append((key, tuple(pivots)))
                masks.append(points.mask(key) if len(key) < n else (1 << len(vectors)) - 1)
            return where[key]

        for j in range(len(vectors)):
            path = []
            while j is not None and of[j] is None:
                of[j] = -1  # on this walk
                path.append(j)
                j = points.point(points.apply(vectors[j]))
            if j is None:
                z = 0
            elif of[j] < 0:  # a repeat
                rows, pivots = [], []
                for i in path[path.index(j):]:  # <u, Cu, ...> is stable once one adds nothing
                    if not extend(rows, pivots, vectors[i]):
                        break
                z = span(rows, pivots)
            else:
                z = of[j]
            for i in reversed(path):
                if not masks[z] >> i & 1:
                    rows, pivots = map(list, spans[z])
                    extend(rows, pivots, vectors[i])
                    z = span(rows, pivots)
                of[i] = z
        return spans, masks, of, span

    def dual(self):
        """The module of the other twist on the dual space, with matrix
        sigma^(-+e)(A^T): a Cartier module's dual is a left-Frobenius
        module and back.  Nilpotence orders agree."""
        k, shift = self.spec.kernel, -self._sign * self.spec.e
        cls = FrobeniusModule if self._sign < 0 else SemilinearModule
        return cls._of(self.spec, [k.frob_row(col, shift) for col in zip(*self._a)])

    def __repr__(self):
        spec = self.spec
        return f"{type(self).__name__}(dim={self.dim}, field=GF({spec.p}^{spec.d}), e={spec.e})"


class SemilinearModule(_TwistedModule):
    """A pair (k^n, C) with C(v) = A . sigma^(-e)(v); C^i(v) = B_i . sigma^(-ie)(v)."""

    __slots__ = ()
    _sign = -1

    def apply_power(self, v, i: int):
        k, b = self.spec.kernel, self._power(i)
        w = k.frob_row(_unwrap(self.spec, self.dim, v), -i * self.spec.e)
        return self.spec.wrap([k.dot(row, w) for row in b])

    # -- structure ----------------------------------------------------

    def image_of(self, sub: Subspace) -> Subspace:
        """C(N): the span of the images of a basis (q-th roots are onto)."""
        return Subspace._span(self.spec, self.dim, map(self._apply, sub._rows))

    def is_stable(self, sub: Subspace) -> bool:
        sub._require(self.spec, self.dim)
        if sub.dim == self.dim:  # C maps V into V
            return True
        return not any(any(sub._residue(self._apply(r))) for r in sub._rows)

    def stable_image(self) -> Subspace:
        """C^m(V), m the Fitting index: the column span of B_m."""
        return Subspace._of(self.spec, self.dim, *self._fitting()[2])

    def nilpotent_part(self) -> Subspace:
        """Largest submodule killed by a power of C: sigma^(me)(ker B_m)."""
        return self._kernel_part(*self._fitting()[:2])

    def _kernel_part(self, ranks, b_m) -> Subspace:
        """ker C^m = sigma^(me)(ker B_m), from the ranks and B_m of a walk
        to the Fitting index m."""
        if ranks[-1] == self.dim:  # rank-nullity: B_m has no kernel
            return Subspace.zero(self.spec, self.dim)
        n, k, shift = self.dim, self.spec.kernel, (len(ranks) - 1) * self.spec.e
        kern = linalg._null_space(b_m, n, k)
        return Subspace._span(self.spec, n, [k.frob_row(v, shift) for v in kern])

    @property
    def is_nilpotent(self) -> bool:
        return self.nilord() is not None

    def decompose(self) -> NilDecomposition:
        ranks, b_m, image = self._fitting()
        m, under = len(ranks) - 1, Subspace._of(self.spec, self.dim, *image)
        nil = self._kernel_part(ranks, b_m)
        # complementary: the dimensions add up to n, and so does the sum's
        if nil.dim + under.dim != self.dim or nil.add(under).dim != self.dim:
            raise InvariantViolation("nilpotent part and stable image are not complementary")
        if not self.is_stable(nil) or not self.is_stable(under):
            raise InvariantViolation("decomposition parts are not stable under C")
        return NilDecomposition(v_nil=nil, v_underline=under, nilord=None if ranks[-1] else m)

    # -- fixed points and base change ----------------------------------

    def fixed_points(self):
        """F_q-basis of {v : C(v) = v}, read off Hom from the unit module
        (k, sigma^(-e)) with matrix [1].  `hom_space` checks C(v) = v and
        the F_q count; the basis is also k-independent, so its k-span W has
        C(W) = W (sigma^(-e) is onto k) and len(basis) = dim W is at most
        the dimension of the stable image, which contains W."""
        spec = self.spec
        unit = SemilinearModule._of(spec, [[spec.kernel.one]])
        basis = [tuple(x for (x,) in phi) for phi in unit.hom_space(self)._basis]
        if linalg._rank(basis, spec.kernel) != len(basis):
            raise InvariantViolation("fixed points are not k-linearly independent")
        return tuple(map(spec.wrap, basis))

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

    def _base_change_fixed_dims(self, powers):
        """Yield len(self.base_change(m).fixed_points()) for m = 1, 2, ...
        as n - rank(B^m - I), B = B_(d/e), without building GF(p^(dm)).
        B is taken from `powers`, an iterator over `_powers()`.

        B = C^(d/e) is k-linear.  A fixed point v over the algebraic closure
        has v^(p^d) = B v, so it lies in GF(p^(dm))^n exactly when B^m v = v.
        The fixed points span the unit part over the closure (Katz, LNM 350,
        4.1), and B is nilpotent on the nilpotent part."""
        spec, n, k = self.spec, self.dim, self.spec.kernel
        b = bm = next(islice(powers, spec.d // spec.e, None))
        while True:
            shifted = [
                [k.sub(x, k.one) if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(bm)
            ]
            yield n - linalg._rank(shifted, k)
            bm = linalg._mul(bm, b, k)

    def saturation_degree(self, max_m: int = 6) -> int | None:
        """Least m <= max_m where the fixed-point F_q-dimension reaches
        the stable-image dimension; None when the cap is hit first."""
        walk, again = tee(self._powers())
        target = self._fitting(walk)[0][-1]  # rank B_m, the stable image's dimension
        dims = zip(range(1, max_m + 1), self._base_change_fixed_dims(again))
        return next((m for m, fixed in dims if fixed == target), None)

    # -- Hom, End, enumeration -----------------------------------------

    def hom_space(self, other: "SemilinearModule") -> HomSpace:
        """F_q-basis of maps phi with phi . A_V = A_W . sigma^(-e)(phi), via
        one F_p-linear solve.  The unit X = w E_rs contributes the column
        X A_V - A_W sigma^(-e)(X): w times row s of A_V placed in row r,
        minus sigma^(-e)(w) times column r of A_W placed in column s.  Checked:
        len(F_p-kernel) = e len(basis), and each element is a map of modules."""
        if not isinstance(other, SemilinearModule):
            raise UsageError(f"Hom-space target {other!r} is not a Cartier module")
        if other.spec != self.spec:
            raise UsageError("modules live over different field specs")
        spec, e = self.spec, self.spec.e
        av, aw, nv, nw = self._a, other._a, self.dim, other.dim
        fp = linalg._FpInts(spec.p, spec.d, 2 * nv * nw * spec.d)
        tables = _kept_tables if spec.order <= TABLE_MAX_ORDER else _digit_tables
        (rows, twists, scalars), step = tables(spec), spec.d * fp.w
        row_v = [[sum(map(lshift, map(t.__getitem__, row), count(0, step))) for t in rows]
                 for row in av]
        col_w = [[sum(map(lshift, map(t.__getitem__, c), count(0, nv * step))) for t in twists]
                 for c in zip(*aw)]
        cols = [fp.add(row_v[s][ell] << r * nv * step, col_w[r][ell] << s * step)
                for r, s, ell in product(range(nw), range(nv), range(spec.d))]
        kern = linalg._fp_null_space(cols, fp)
        basis = [tuple(v[r * nv : (r + 1) * nv] for r in range(nw))
                 for v in _fq_basis(kern, spec, fp, scalars)]
        if len(basis) * e != len(kern):
            raise InvariantViolation("Hom-space is not an F_q-subspace")
        if not all(self._maps_to(other, phi) for phi in basis):
            raise InvariantViolation("hom basis element fails the commuting identity")
        return HomSpace(spec, basis)

    def _maps_to(self, other: "SemilinearModule", phi) -> bool:
        """Whether packed phi, dim(other) x dim(self), is a map of modules:
        phi . A_V = A_W . sigma^(-e)(phi)."""
        k, e = self.spec.kernel, self.spec.e
        twisted = [k.frob_row(r, -e) for r in phi]
        return linalg._mul(phi, self._a, k) == linalg._mul(other._a, twisted, k)

    def _lattice(self, cap: int):
        """Every C-stable subspace, sorted by (dimension, canonical basis);
        the point bitset of each; and the Hasse cover pairs (i, j), meaning
        member i < member j, sorted.

        A stable subspace is the sum of the cyclic submodules of its
        points, so the lattice is the closure of 0 under N -> N + <v>.
        Every member above N contains such a sum, so the covers of N are
        the minimal sums.  A sum of dimension dim N + 1 is a cover, and the
        sum for every point in it, so those points are skipped for N, and so
        are the other points of a summed cyclic span: the loop runs once per
        cyclic span outside N.  Members stay RREF rows of `points` until sorted.
        """
        spec, n, points = self.spec, self.dim, self._points(cap)
        # the cyclic spans are the first members, distinct, so member i is span i
        elems, masks, cyclic, member = self._cyclic_spans(points, cap)
        gen, covers = [0] * len(elems), []  # gen[c]: the points whose span is c
        for j, c in enumerate(cyclic):
            gen[c] |= 1 << j

        def add(sub, cyc):  # the member N + <v>
            rows, pivots = map(list, sub)
            for r in cyc[0]:
                points.extend(rows, pivots, r)
            return member(rows, pivots)

        for sub, mask in zip(elems, masks):  # both grow as members are found
            todo, up, up_dim = ~mask & ((1 << len(points.vectors)) - 1), set(), len(sub[0]) + 1
            while todo:
                c = cyclic[(todo & -todo).bit_length() - 1]
                m = add(sub, elems[c]) if mask & ~masks[c] else c  # N + <v> is <v> when N <= <v>
                up.add(m)
                todo &= ~(masks[m] if len(elems[m][0]) == up_dim else gen[c])
            covers.append([
                m for m in up
                if len(elems[m][0]) == up_dim
                or not any(o != m and not masks[o] & ~masks[m] for o in up)
            ])
        # int and packed row order are the canonical element order, so this is key() order
        order = sorted(range(len(elems)), key=lambda i: (len(elems[i][0]), elems[i][0]))
        rank = {i: r for r, i in enumerate(order)}
        edges = sorted((rank[i], rank[j]) for i, up in enumerate(covers) for j in up)
        lattice = [Subspace._of(spec, n, points.unpack(elems[i][0]), elems[i][1]) for i in order]
        return lattice, [masks[i] for i in order], edges

    def enumerate_submodules(self, cap: int = 100_000):
        """All C-stable subspaces, flagged with whether C maps them onto
        themselves (exactly when they lie in the stable image, where C is
        bijective); sorted by (dimension, canonical basis).  `cap` bounds
        the points of k^n scanned and the submodules found."""
        lattice, masks, _ = self._lattice(cap)
        under = masks[lattice.index(self.stable_image())]
        return [
            SubmoduleInfo(subspace=sub, surjective=not mask & ~under)
            for sub, mask in zip(lattice, masks)
        ]

    def is_simple(self, cap: int = 100_000) -> bool:
        """Whether V is nonzero with 0 and V its only cyclic submodules, the
        sums of which are the C-stable subspaces: `_cyclic_spans` finds a
        third member otherwise.  `cap` bounds only the points scanned."""
        points = self._points(cap)
        try:
            self._cyclic_spans(points, 2)
        except ResourceError:
            return False
        return self.dim > 0

    def end_ring(self, cap: int = 100_000):
        """(order, is_field) for the endomorphism ring of a simple module.
        By Schur's lemma it is a finite division ring, so a field by
        Wedderburn's little theorem: is_field is always True."""
        if not self.is_simple(cap=cap):
            raise UsageError("end_ring requires a simple module")
        return self.hom_space(self).size, True

    # -- subquotients ---------------------------------------------------

    def restrict_to(self, sub: Subspace) -> "SemilinearModule":
        sub._require(self.spec, self.dim)
        images = [self._apply(r) for r in sub._rows]
        if any(any(sub._residue(v)) for v in images):  # is_stable on these images
            raise UsageError("cannot restrict to a subspace that is not C-stable")
        # C(w_i) = sum_j images[i][pivot j] w_j: the coordinate action is
        # the transpose
        return SemilinearModule._of(self.spec, [[v[pc] for v in images] for pc in sub.pivots])

    def quotient_by(self, sub: Subspace):
        """Module induced on the non-pivot coordinates, plus the projection."""
        if not self.is_stable(sub):
            raise UsageError("cannot quotient by a subspace that is not C-stable")
        qmap = QuotientMap(sub)
        columns = list(zip(*self._a))
        cols = [qmap._project(columns[j]) for j in qmap.coords_cols]
        return SemilinearModule._of(self.spec, list(zip(*cols))), qmap

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



class QuotientMap(_Immutable):
    """Projection of k^n onto the complement of a subspace's pivot columns."""

    __slots__ = ("sub", "coords_cols")

    def __init__(self, sub: Subspace):
        cols = tuple(j for j in range(sub.ambient) if j not in set(sub.pivots))
        self._set(sub=sub, coords_cols=cols)

    def _project(self, v):
        r = self.sub._residue(v)
        return tuple(r[j] for j in self.coords_cols)

    def project(self, v):
        spec = self.sub.spec
        return spec.wrap(self._project(_unwrap(spec, self.sub.ambient, v)))


class FrobeniusModule(_TwistedModule):
    """A left twist: F(w) = B . sigma^e(w), so F(a w) = a^q F(w);
    F^i(w) = B_i . sigma^(ie)(w)."""

    __slots__ = ()
    _sign = 1
