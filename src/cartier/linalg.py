"""Exact row reduction and kernels over a finite field.

Matrices are tuples/lists of rows of FieldElement.  Everything returns
canonical output: reduced row echelon form with pivot 1, so two equal row
spaces produce identical matrices.

Each function unwraps its rows to packed ints once (`FieldSpec.unwrap`),
works on them through the row operations of the field's kernel, and wraps
the result once.  The packed zero is 0.
"""

from __future__ import annotations

from itertools import product

from .errors import ResourceError
from .field import FieldSpec


def spec_of(*matrices):
    """The field of the first entry of the given matrices, or None."""
    for rows in matrices:
        for row in rows:
            for x in row:
                return x.spec
    return None


def rref(rows, spec: FieldSpec):
    """Reduced row echelon form.  Returns (rows_without_zeros, pivot_columns)."""
    red, pivots = _rref_packed([spec.unwrap(r) for r in rows], spec.kernel)
    return tuple(spec.wrap(row) for row in red), pivots


def _rref_packed(mat, k):
    """`rref` on a list of packed rows, reduced in place with kernel k;
    returns (rows_without_zeros, pivot_columns)."""
    if not mat:
        return [], ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        if row[c] != k.one:
            row = mat[r] = k.scale(row, k.inv(row[c]))
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = k.add_multiple(mat[i], k.neg(f), row)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], tuple(pivots)


def kernel_basis(rows, ncols, spec: FieldSpec):
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, spec)
    red = [spec.unwrap(row) for row in red]
    k = spec.kernel
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = k.one
        for row, pc in zip(red, pivots):
            vec[pc] = k.neg(row[fc])
        basis.append(spec.wrap(vec))
    return basis


class _Points:
    """The points of k^n, packed vectors whose first nonzero entry is 1,
    numbered in canonical order.  A subspace is known by the int bitset
    of its points, so containment is a bitset test.  Raises
    ResourceError when there are more than `cap` points."""

    def __init__(self, spec: FieldSpec, n: int, cap: int):
        count = (spec.order**n - 1) // (spec.order - 1)
        if count > cap:
            raise ResourceError(f"k^{n} has {count} points to scan, above the cap {cap}")
        self.kernel = k = spec.kernel
        self.vectors = [
            (0,) * i + (k.one,) + tail
            for i in range(n)
            for tail in product(range(spec.order), repeat=n - i - 1)
        ]
        self.index = {v: i for i, v in enumerate(self.vectors)}

    def of(self, rows):
        """Indices of the points in the span of packed RREF rows: each row
        plus every combination of the rows after it."""
        k, found, tails = self.kernel, [], [[0] * len(rows[0])] if rows else []
        for i in range(len(rows) - 1, -1, -1):
            found += [self.index[tuple(k.add_multiple(t, k.one, rows[i]))] for t in tails]
            if i:
                tails = [k.add_multiple(t, c, rows[i]) for c in range(k.order) for t in tails]
        return found

    def mask(self, rows) -> int:
        return sum(1 << i for i in self.of(rows))


def _combine(coeffs, packed_vectors, n: int, k):
    """sum_i c_i * v_i on packed ints."""
    acc = [0] * n
    for c, v in zip(coeffs, packed_vectors):
        if c:
            acc = k.add_multiple(acc, c, v)
    return acc


def linear_combination(coeffs, vectors, n: int, spec: FieldSpec):
    """sum_i c_i * v_i for vectors of length n; zero coefficients add nothing."""
    vectors = [spec.unwrap(v) for v in vectors]
    return spec.wrap(_combine(spec.unwrap(coeffs), vectors, n, spec.kernel))


def every_combination(scalars, vectors, n: int, spec: FieldSpec):
    """Yield sum_i c_i * v_i for every tuple (c_i) of scalars, in
    itertools.product order."""
    k = spec.kernel
    vectors = [spec.unwrap(v) for v in vectors]
    for coeffs in product(spec.unwrap(scalars), repeat=len(vectors)):
        yield spec.wrap(_combine(coeffs, vectors, n, k))


def vec_sub(u, v, spec: FieldSpec):
    """The entrywise difference u - v."""
    k = spec.kernel
    return spec.wrap(k.add_multiple(spec.unwrap(u), k.neg(k.one), spec.unwrap(v)))


def mat_vec(rows, v):
    spec = spec_of(rows)
    if spec is None:
        return ()
    k = spec.kernel
    v = spec.unwrap(v)
    return spec.wrap([k.dot(spec.unwrap(row), v) for row in rows])


def mat_mul(a, b):
    if not a or not b:
        return ()
    spec = spec_of(a, b)
    k = spec.kernel
    bt = list(zip(*[spec.unwrap(row) for row in b]))
    return tuple(
        spec.wrap([k.dot(row, col) for col in bt])
        for row in (spec.unwrap(row) for row in a)
    )


def identity(n, spec: FieldSpec):
    return tuple(
        tuple(spec.one if i == j else spec.zero for j in range(n)) for i in range(n)
    )


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def flatten(rows):
    """Row-major entries of a matrix, as one vector."""
    return tuple(x for row in rows for x in row)


def reshape(v, nrows: int, ncols: int):
    """The nrows x ncols matrix with row-major entries v."""
    return tuple(tuple(v[r * ncols : (r + 1) * ncols]) for r in range(nrows))


def is_zero_matrix(rows) -> bool:
    return all(x.is_zero for row in rows for x in row)


def matrix_rank(rows, spec: FieldSpec) -> int:
    red, _ = rref(rows, spec)
    return len(red)


def is_invertible(rows, spec: FieldSpec) -> bool:
    n = len(rows)
    return n == 0 or matrix_rank(rows, spec) == n


def invert(rows, spec: FieldSpec):
    """Inverse matrix, or None when singular."""
    n = len(rows)
    if n == 0:
        return ()
    aug = [list(rows[i]) + list(identity(n, spec)[i]) for i in range(n)]
    red, pivots = rref(aug, spec)
    if list(pivots[:n]) != list(range(n)) or len(red) != n:
        return None
    return tuple(tuple(row[n:]) for row in red)
