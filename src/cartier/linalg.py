"""Exact row reduction and kernels over a finite field, on packed rows.

A row is a sequence of packed ints of one field (see `cartier.field`; the
packed zero is 0).  The private functions take packed rows and the field's
kernel k, and `semilinear` and `crystal` compute with them directly.  The
public ones take and return FieldElement rows: each unwraps once, calls its
packed counterpart and wraps once.  Everything is canonical: reduced row
echelon form with pivot 1, so equal row spaces give identical matrices.

Every echelon form is built one vector at a time.  `_reduce` takes a
vector's residue modulo RREF rows, and `_extend` adds the vector to the
rows when that residue is not zero, clearing its pivot column in the rows
above.  `_rref` is `_extend` folded over a matrix's rows, and subspace
sums, cyclic submodules and F_q-bases extend the rows they already have.
"""

from __future__ import annotations

from bisect import bisect
from itertools import product

from .errors import ResourceError
from .field import FieldSpec


def _reduce(rows, pivots, v, k):
    """The residue of packed v modulo packed RREF rows with these pivot
    columns: v minus the combination of the rows that clears its pivot
    entries.  v itself when those entries are zero already."""
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            v = k.add_multiple(v, k.neg(c), row)
    return v


def _extend(rows, pivots, v, k) -> bool:
    """Add packed v to RREF rows and their pivot columns, two lists
    changed in place, keeping the rows reduced and sorted by pivot.
    False, with nothing changed, when v lies in their span."""
    r = _reduce(rows, pivots, v, k)
    for pc, c in enumerate(r):
        if c:
            break
    else:
        return False
    if c != k.one:
        r = k.scale(r, k.inv(c))
    for i, row in enumerate(rows):
        if row[pc]:
            rows[i] = k.add_multiple(row, k.neg(row[pc]), r)
    at = bisect(pivots, pc)
    rows.insert(at, r)
    pivots.insert(at, pc)
    return True


def _rref(mat, k):
    """RREF of packed rows, extended by one row at a time; returns
    (rows_without_zeros, pivot_columns) and leaves `mat` as it is."""
    rows, pivots = [], []
    for v in mat:
        _extend(rows, pivots, v, k)
    return rows, tuple(pivots)


def _null_space(rows, ncols, k):
    """Canonical basis of {x : M x = 0}, packed, for the packed rows of M."""
    red, pivots = _rref(rows, k)
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        vec = [0] * ncols
        vec[fc] = k.one
        for row, pc in zip(red, pivots):
            vec[pc] = k.neg(row[fc])
        basis.append(vec)
    return basis


def _f2_null_space(cols):
    """`_null_space` over F_2, from the columns of M as int bitsets: each
    column that depends on the columns before it, written over them (by
    XOR elimination) as the bitset of the combination, in order."""
    pivots, basis = {}, []  # top bit -> (reduced column, its combination)
    for i, col in enumerate(cols):
        combo = 1 << i
        while col and col.bit_length() in pivots:
            c, m = pivots[col.bit_length()]
            col, combo = col ^ c, combo ^ m
        if col:
            pivots[col.bit_length()] = col, combo
        else:
            basis.append(combo)
    return basis


def _rank(rows, k) -> int:
    return len(_rref(rows, k)[0])


def _mul(a, b, k):
    """The product of two packed matrices."""
    bt = list(zip(*b))
    return [[k.dot(row, col) for col in bt] for row in a]


def _identity(n, k):
    return [[k.one if i == j else 0 for j in range(n)] for i in range(n)]


def _invert(rows, k):
    """Inverse of a packed square matrix, or None when singular."""
    n = len(rows)
    aug = [list(row) + unit for row, unit in zip(rows, _identity(n, k))]
    red, pivots = _rref(aug, k)
    if pivots[:n] != tuple(range(n)):
        return None
    return [row[n:] for row in red]


def _combine(coeffs, packed_vectors, n: int, k):
    """sum_i c_i * v_i on packed ints; zero coefficients add nothing."""
    acc = [0] * n
    for c, v in zip(coeffs, packed_vectors):
        if c:
            acc = k.add_multiple(acc, c, v)
    return acc


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


# -- the FieldElement interface ---------------------------------------------


def _unwrap(rows, spec: FieldSpec):
    return [spec.unwrap(row) for row in rows]


def rref(rows, spec: FieldSpec):
    """Reduced row echelon form.  Returns (rows_without_zeros, pivot_columns)."""
    red, pivots = _rref(_unwrap(rows, spec), spec.kernel)
    return tuple(map(spec.wrap, red)), pivots


def kernel_basis(rows, ncols, spec: FieldSpec):
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    return [spec.wrap(v) for v in _null_space(_unwrap(rows, spec), ncols, spec.kernel)]


def every_combination(scalars, vectors, n: int, spec: FieldSpec):
    """Yield sum_i c_i * v_i for every tuple (c_i) of scalars, in
    itertools.product order."""
    k = spec.kernel
    vectors = _unwrap(vectors, spec)
    for coeffs in product(spec.unwrap(scalars), repeat=len(vectors)):
        yield spec.wrap(_combine(coeffs, vectors, n, k))


def mat_mul(a, b):
    if not a or not b:
        return ()
    spec = a[0][0].spec
    return tuple(map(spec.wrap, _mul(_unwrap(a, spec), _unwrap(b, spec), spec.kernel)))


def identity(n, spec: FieldSpec):
    return tuple(map(spec.wrap, _identity(n, spec.kernel)))


def flatten(rows):
    """Row-major entries of a matrix, as one vector."""
    return tuple(x for row in rows for x in row)


def reshape(v, nrows: int, ncols: int):
    """The nrows x ncols matrix with row-major entries v."""
    return tuple(tuple(v[r * ncols : (r + 1) * ncols]) for r in range(nrows))


def is_zero_matrix(rows) -> bool:
    return all(x.is_zero for row in rows for x in row)


def matrix_rank(rows, spec: FieldSpec) -> int:
    return _rank(_unwrap(rows, spec), spec.kernel)


def is_invertible(rows, spec: FieldSpec) -> bool:
    return matrix_rank(rows, spec) == len(rows)


def invert(rows, spec: FieldSpec):
    """Inverse matrix, or None when singular."""
    inv = _invert(_unwrap(rows, spec), spec.kernel)
    return None if inv is None else tuple(map(spec.wrap, inv))
