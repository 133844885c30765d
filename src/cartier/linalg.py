"""Exact row reduction and kernels over a finite field.

Matrices are tuples/lists of rows of FieldElement.  Everything returns
canonical output: reduced row echelon form with pivot 1, so two equal row
spaces produce identical matrices.
"""

from __future__ import annotations

from itertools import product

from .field import FieldSpec


def rref(rows, spec: FieldSpec):
    """Reduced row echelon form.  Returns (rows_without_zeros, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def kernel_basis(rows, ncols, spec: FieldSpec):
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, spec)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [spec.zero] * ncols
        vec[fc] = spec.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def linear_combination(coeffs, vectors, n: int, spec: FieldSpec):
    """sum_i c_i * v_i for vectors of length n; zero coefficients add nothing."""
    acc = [spec.zero] * n
    for c, v in zip(coeffs, vectors):
        if not c.is_zero:
            acc = [a + c * x for a, x in zip(acc, v)]
    return tuple(acc)


def every_combination(scalars, vectors, n: int, spec: FieldSpec):
    """Yield sum_i c_i * v_i for every tuple (c_i) of scalars, in
    itertools.product order."""
    for coeffs in product(scalars, repeat=len(vectors)):
        yield linear_combination(coeffs, vectors, n, spec)


def mat_vec(rows, v):
    return tuple(_dot(row, v) for row in rows)


def mat_mul(a, b):
    if not a or not b:
        return ()
    bt = list(zip(*b))
    return tuple(
        tuple(_dot(row, col) for col in bt)
        for row in a
    )


def _dot(row, col):
    acc = None
    for x, y in zip(row, col):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


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
