"""Exact row reduction and kernels over a finite field, on packed rows.

A row is a sequence of packed ints of one field (see `cartier.field`; the
packed zero is 0).  Its callers are `semilinear` and `crystal`, which
wrap its packed results into FieldElements at their own boundary.
Everything is canonical: reduced row echelon form with pivot 1, so equal
row spaces give identical matrices.

Every echelon form over k is built one vector at a time.  `_reduce` takes
a vector's residue modulo RREF rows, and `_extend` adds the vector to the
rows when that residue is not zero, clearing its pivot column in the rows
above; `_rref` folds it over a matrix's rows.  F_p-linear solves, for every
p, run on int-packed vectors instead: `_FpInts` and `_fp_null_space`; so do
the lattice walks over GF(2), one bit per entry, through `_points`.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from itertools import count, product
from operator import lshift

from .errors import ResourceError
from .field import FieldSpec, _pack, _unpack


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


class _FpInts:
    """F_p-vectors as ints: entry i is the W-bit field at bit W*i.  For
    p = 2, W = 1 and addition is XOR.  For odd p, W = bit_length(2p - 2)
    + 1: a sum of two residues stays below its field's top (guard) bit,
    and adding 2^(W-1) - p sets the guard where the sum reaches p, so a
    row operation is a few big-int operations on up to `fields` fields.
    A packed GF(p^d) element spreads its d base-p digits into d fields."""

    def __init__(self, p: int, d: int, fields: int):
        self.p, self.d, self.w, self._seen = p, d, 1 if p == 2 else (2 * p - 2).bit_length() + 1, {}
        ones = ((1 << self.w * fields) - 1) // ((1 << self.w) - 1)
        self.bias, self.guard = ((1 << self.w - 1) - p) * ones, ones << self.w - 1

    def add(self, a, b):
        s = a + b
        return a ^ b if self.p == 2 else s - self.p * ((s + self.bias & self.guard) >> self.w - 1)

    def times(self, c, multiples):
        """c * v (0 < c < p) by double-and-add from multiples = {k: k * v},
        which gains the 2^j * v it lacked."""
        r, j = 0, 1
        while c:
            if j not in multiples:
                multiples[j] = self.add(multiples[j >> 1], multiples[j >> 1])
            r, c, j = self.add(r, multiples[j]) if c & 1 else r, c >> 1, j << 1
        return r

    def spread(self, vec, stride: int = 1) -> int:
        """The int of a packed GF(p^d) vector: entry j in the d fields from
        field j*stride*d, its digits in an order of their own."""
        p, d, w = self.p, self.d, self.w
        if p != 2 and d > 1:
            for x in set(vec).difference(self._seen):
                self._seen[x] = sum(c << i * w for i, c in enumerate(_unpack(x, p, d)))
            vec = map(self._seen.__getitem__, vec)
        return sum(map(lshift, vec, count(0, stride * d * w)))

    def extend(self, pivots: dict, v: int, low: int = 0):
        """Reduce v by `pivots` (top field -> {c: c * pivot}, top field of
        pivot 1, multiples formed when first needed; for p = 2 the pivot)
        while its top field is at index `low` or above.  None when v, scaled
        to top field 1, becomes the pivot of a new top field; else the rest."""
        p, w, floor = self.p, self.w, low * self.w
        if p == 2:  # W = 1, and a pivot is its only multiple
            while (bl := v.bit_length()) > floor:
                if (pivot := pivots.get(bl - 1)) is None:
                    pivots[bl - 1] = v
                    return None
                v ^= pivot
            return v
        bias, guard, top = self.bias, self.guard, w - 1
        while (bl := v.bit_length()) > floor:
            t = (bl - 1) // w
            c, multiples = v >> t * w, pivots.get(t)
            if multiples is None:
                pivots[t] = {1: v if c == 1 else self.times(pow(c, -1, p), {1: v})}
                return None
            m = multiples.get(p - c) or multiples.setdefault(p - c, self.times(p - c, multiples))
            v = (s := v + m) - p * ((s + bias & guard) >> top)
        return v


def _fp_null_space(cols, fp: _FpInts):
    """Canonical F_p-basis of the kernel of an additive map on GF(p^d)^m,
    as packed vectors, from cols[i*d + l], the `fp` int of the image of
    t^l e_i.  Column elimination on col_i * X^n + e_i leaves each column
    that depends on earlier ones as e_i minus its combination of the earlier
    independent columns: RREF's basis vector for free column i, in order."""
    w, n, pivots = fp.w, len(cols), {}
    kern = [fp.extend(pivots, col << n * w | 1 << i * w, n) for i, col in enumerate(cols)]
    digits = [[v >> f * w & (1 << w) - 1 for f in range(n)] for v in kern if v is not None]
    return [tuple(_pack(c[f : f + fp.d], fp.p) for f in range(0, n, fp.d)) for c in digits]


def _rank(rows, k) -> int:
    return len(_rref(rows, k)[0])


def _mul(a, b, k):
    """The product of two packed matrices."""
    bt = list(zip(*b))
    return [[k.dot(row, col) for col in bt] for row in a]


def _identity(n, k):
    return [[k.one if i == j else 0 for j in range(n)] for i in range(n)]


def _combine(coeffs, packed_vectors, n: int, k):
    """sum_i c_i * v_i on packed ints; zero coefficients add nothing."""
    acc = [0] * n
    for c, v in zip(coeffs, packed_vectors):
        if c:
            acc = k.add_multiple(acc, c, v)
    return acc


def _points(spec: FieldSpec, n: int, cap: int, a, apply):
    """The points of k^n under C for the lattice walks: ints over GF(2),
    with C from the packed rows `a` of its matrix, and packed rows with
    C = `apply` otherwise.  ResourceError above `cap` points."""
    count = (spec.order**n - 1) // (spec.order - 1)
    if count > cap:
        raise ResourceError(f"k^{n} has {count} points to scan, above the cap {cap}")
    return (_F2Points if spec.order == 2 else _Points)(spec, n, a, apply)


class _Points:
    """The points of k^n, vectors whose first nonzero entry is 1, numbered
    in canonical order, and what the lattice walks do with vectors: `apply`
    C, find the `point` of a vector, `extend` RREF rows by it, `key` rows,
    and `unpack` them into packed rows.  A subspace is known by the int
    bitset of its points, so containment is a bitset test.  Here vectors
    are packed rows, and `extend` is `_extend`."""

    def __init__(self, spec: FieldSpec, n: int, a, apply):
        self.kernel = k = spec.kernel
        self.vectors = [
            (0,) * i + (k.one,) + tail
            for i in range(n)
            for tail in product(range(spec.order), repeat=n - i - 1)
        ]
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.apply, self.bits = apply, tuple

    def point(self, w):
        """The index of the point of packed w; None when w is zero."""
        k = self.kernel
        c = next((c for c in w if c), 0)
        return self.index[tuple(w if c == k.one else k.scale(w, k.inv(c)))] if c else None

    def extend(self, rows, pivots, v) -> bool:
        return _extend(rows, pivots, v, self.kernel)

    def key(self, rows):
        """Rows as a tuple of tuples of packed entries: a key, and a Subspace's rows."""
        return tuple(map(self.bits, rows))

    unpack = key

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


class _F2Points(_Points):
    """The points of F_2^n as ints, entry 0 the top bit, so that int order
    is row order: a point is its int, numbered as in `_Points`, and RREF
    rows are ints whose top bits are their pivots.  As sigma is trivial on
    F_2, C(v) is the XOR of the columns of A that v selects; an echelon
    step is an XOR, as in `_FpInts` at p = 2."""

    def __init__(self, spec: FieldSpec, n: int, a, apply):
        self.n, self.vectors = n, [v for b in range(n, 0, -1) for v in range(1 << b - 1, 1 << b)]
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.point = self.index.get  # None for the zero vector
        self.bits = cache(lambda r: tuple(r >> b & 1 for b in range(n - 1, -1, -1)))
        self.columns = [sum(row[j] << n - 1 - i for i, row in enumerate(a)) for j in range(n)]

    def apply(self, v: int) -> int:
        r = 0
        while v:  # the top bit of v is entry n - bit_length(v)
            r, v = r ^ self.columns[self.n - v.bit_length()], v ^ 1 << v.bit_length() - 1
        return r

    def extend(self, rows, pivots, v: int) -> bool:
        for row in rows:  # x ^ r < x exactly when x has r's top bit
            if v ^ row < v:
                v ^= row
        if not v:
            return False
        for i, row in enumerate(rows):
            if row ^ v < row:
                rows[i] = row ^ v
        at = bisect(pivots, pc := self.n - v.bit_length())
        rows.insert(at, v)
        pivots.insert(at, pc)
        return True

    key = staticmethod(tuple)  # and `unpack` maps `bits` over the rows

    def of(self, rows):
        span = [0]
        for r in rows:
            span += [x ^ r for x in span]
        return [self.index[x] for x in span[1:]]
