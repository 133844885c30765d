"""Arithmetic kernels of `cartier.field`: operations on packed ints.

The encoding is the one `field` defines: the base-p number c0 c1 ...
c_{d-1}, so the packed zero is 0 and the packed one is p^(d-1).  One
kernel serves each (p, d, modulus).  Prime fields of odd
characteristic compute on residues mod p, at every size.  Fields of
characteristic 2 and odd extension fields of order up to TABLE_MAX_ORDER
get log/antilog tables of a primitive element g (a few MB at most):
multiplication and inversion add or negate logs, sigma^j multiplies a log
by p^j mod (p^d - 1), and addition is XOR in characteristic 2 and a
Zech-log lookup otherwise (Huber, "Some comments on Zech's logarithms",
IEEE Trans. IT 1990).  Larger extension fields use polynomial-basis
arithmetic behind the same interface.

Besides scalar operations, a kernel works on whole rows (lists of packed
ints): `scale`, `add_multiple` (row + c * other), `dot` and `frob_row`;
and on the sparse polynomials of `cartier.poly`: `add_terms` adds
c * x^u * f to a dict of terms, and `lazy_terms`, division's term loop, is
`add_terms` unless a kernel defers its reduction.  The base class
`_Kernel` writes these loops once on the scalar operations.  A kernel
inlines its arithmetic into a loop only where a benchmark workload runs
that loop and measures the gain:
  - the `modules` workload, on the row loops of GF(2^d) and of odd
    extension fields: `_XorKernel` and `_ZechKernel` inline `add_multiple`
    and `dot`, and `_LogKernel` inlines `scale` and `frob_row`;
  - the `ideals` workload, on the term loops: `_PrimeKernel` and
    `_XorKernel` inline `add_terms`, and `_PrimeKernel`'s `lazy_terms`
    leaves its sums unreduced mod p until division pops them.
`_PrimeKernel` runs the base class's row loops, and `_PolyKernel` every
base loop.

`field` imports this module on the first arithmetic in any field, so a
program that only describes fields does not load it.
"""

from __future__ import annotations

from array import array
from itertools import product

from .errors import DomainError, InvariantViolation
from .field import (
    TABLE_MAX_ORDER,
    _fp_poly_mulmod,
    _fp_poly_powmod,
    _pack,
    _prime_factors,
    _unpack,
)


class _Kernel:
    """What every kernel shares.  A subclass supplies `add`, `neg`, `mul`,
    `_pow` (for n >= 0), `inv` and `frob`."""

    def __init__(self, p: int, d: int):
        self.p, self.d = p, d
        self.order = p**d
        self.one = p ** (d - 1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return self._pow(a, n)

    def scale(self, row, c):
        return [self.mul(x, c) for x in row]

    def add_multiple(self, row, c, other):
        """row + c * other."""
        return [self.add(x, self.mul(c, y)) if y else x for x, y in zip(row, other)]

    def dot(self, a, b):
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc = self.add(acc, self.mul(x, y))
        return acc

    def add_terms(self, acc, exps, coeffs, u, c):
        """acc += c * x^u * (sum of coeffs[i] x^exps[i]), in place, for a
        dict acc of nonzero terms, nonzero coeffs and c.  Returns the
        monomials that were not in acc before."""
        mul, add, get = self.mul, self.add, acc.get
        fresh = []
        for e, y in zip(exps, coeffs):
            e += u
            s = get(e)
            if s is None:
                acc[e] = mul(c, y)
                fresh.append(e)
            else:
                s = add(s, mul(c, y))
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return fresh

    @property
    def lazy_terms(self):
        """Division's term loop: `add_terms`, unless a kernel defers it."""
        return self.add_terms

    def frob_row(self, row, j):
        return [self.frob(x, j) for x in row]


class _PolyKernel(_Kernel):
    """Polynomial-basis arithmetic on packed ints, for extension fields
    above TABLE_MAX_ORDER.  Every operation unpacks its operands into
    coefficient lists."""

    def __init__(self, p: int, d: int, modulus: tuple):
        super().__init__(p, d)
        self.modulus = list(modulus)

    def _poly(self, v):
        return _unpack(v, self.p, self.d)

    def _packed(self, poly):
        return _pack(poly + [0] * (self.d - len(poly)), self.p)

    def add(self, a, b):
        p = self.p
        return _pack([(x + y) % p for x, y in zip(self._poly(a), self._poly(b))], p)

    def neg(self, a):
        p = self.p
        return _pack([(-x) % p for x in self._poly(a)], p)

    def mul(self, a, b):
        return self._packed(
            _fp_poly_mulmod(self._poly(a), self._poly(b), self.modulus, self.p)
        )

    def _pow(self, a, n):
        return self._packed(_fp_poly_powmod(self._poly(a), n, self.modulus, self.p))

    def inv(self, a):
        if not a:
            raise DomainError("cannot invert zero")
        return self._pow(a, self.order - 2)

    def frob(self, a, j):
        return self._pow(a, self.p ** (j % self.d))


class _PrimeKernel(_Kernel):
    """F_p for an odd prime p: a packed element is its residue, so every
    operation is integer arithmetic mod p and sigma is the identity."""

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def inv(self, a):
        if not a:
            raise DomainError("cannot invert zero")
        return pow(a, -1, self.p)

    def frob(self, a, j):
        return a

    def add_terms(self, acc, exps, coeffs, u, c):
        """acc += c * x^u * (sum of coeffs[i] x^exps[i]); see
        `_Kernel.add_terms`."""
        p, get = self.p, acc.get
        fresh = []
        for e, y in zip(exps, coeffs):
            e += u
            s = get(e)
            if s is None:
                acc[e] = c * y % p
                fresh.append(e)
            else:
                s = (s + c * y) % p
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return fresh

    def lazy_terms(self, acc, exps, coeffs, u, c):
        """`add_terms` with no reduction mod p: a term that cancels stays in
        acc, so it is never fresh twice."""
        get, fresh = acc.get, []
        for e, y in zip(exps, coeffs):
            e += u
            s = get(e)
            if s is None:
                acc[e] = c * y
                fresh.append(e)
            else:
                acc[e] = s + c * y
        return fresh


def _antilog_table(p: int, d: int, modulus: tuple, g: list, n: int) -> array:
    """Packed g^i for i in [0, 2n), n = p^d - 1 (two periods, so a sum of
    two logs needs no reduction).  Each step multiplies by g in Horner
    form, g*x = t*(...(t*(g_k*x) + g_(k-1)*x)...) + g_0*x."""
    red = [(-c) % p for c in modulus[:d]]  # t^d
    k = max(i for i, c in enumerate(g) if c)
    gk, low = g[k], g[k - 1 :: -1] if k else []
    out = array("i")
    if p == 2:
        # big-endian bits: t*x shifts right, the spilled t^d folds back in
        red_bits = _pack(red, 2)
        cur = 1 << (d - 1)
        for _ in range(n):
            out.append(cur)
            y = cur
            for gj in low:
                y = (y >> 1) ^ (red_bits if y & 1 else 0) ^ (cur if gj else 0)
            cur = y
    else:
        cur = [1] + [0] * (d - 1)
        for _ in range(n):
            out.append(_pack(cur, p))
            y = cur if gk == 1 else [gk * c % p for c in cur]
            for gj in low:
                top = y[-1]
                y = [
                    (s + top * r + gj * c) % p
                    for s, r, c in zip([0] + y[:-1], red, cur)
                ]
            cur = y
    out.extend(out)
    return out


def _primitive_element(p: int, d: int, modulus: tuple) -> list:
    """Coefficients of a generator of GF(p^d)*: the first one by degree,
    then coefficient order (usually t itself or t + c)."""
    n = p**d - 1
    exps = [n // r for r in _prime_factors(n)]
    for deg in range(d):
        for low in product(range(p), repeat=deg):
            for top in range(1, p):
                g = list(low) + [top]
                if all(_fp_poly_powmod(g, k, modulus, p) != [1] for k in exps):
                    return g + [0] * (d - deg - 1)
    raise InvariantViolation(  # pragma: no cover - a cyclic group has generators
        "multiplicative group has no generator"
    )


class _LogKernel(_Kernel):
    """Log/antilog tables of a primitive element g, for fields up to
    TABLE_MAX_ORDER.  `exp` holds two periods of g^i, `log` maps each
    nonzero packed int to its log in [0, n) with n = p^d - 1."""

    def __init__(self, p: int, d: int, modulus: tuple):
        super().__init__(p, d)
        n = self.n = self.order - 1
        g = _primitive_element(p, d, modulus)
        self.exp = ex = _antilog_table(p, d, modulus, g, n)
        self.log = lg = array("i", bytes(4 * self.order))
        for i in range(n):
            lg[ex[i]] = i
        self._pj = tuple(p**j for j in range(d))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def _pow(self, a, n):
        if not a:
            return 0 if n else self.one
        return self.exp[self.log[a] * n % self.n]

    def inv(self, a):
        if not a:
            raise DomainError("cannot invert zero")
        return self.exp[self.n - self.log[a]]

    def frob(self, a, j):
        if not a:
            return 0
        return self.exp[self.log[a] * self._pj[j % self.d] % self.n]

    def scale(self, row, c):
        if not c:
            return [0] * len(row)
        ex, lg = self.exp, self.log
        lc = lg[c]
        return [ex[lc + lg[x]] if x else 0 for x in row]

    def frob_row(self, row, j):
        m = self._pj[j % self.d]
        if m == 1:
            return list(row)
        ex, lg, n = self.exp, self.log, self.n
        return [ex[lg[x] * m % n] if x else 0 for x in row]


class _XorKernel(_LogKernel):
    """Characteristic 2: addition is XOR of the packed bits."""

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def add_multiple(self, row, c, other):
        """row + c * other."""
        if not c:
            return list(row)
        ex, lg = self.exp, self.log
        lc = lg[c]
        return [x ^ ex[lc + lg[y]] if y else x for x, y in zip(row, other)]

    def dot(self, a, b):
        ex, lg = self.exp, self.log
        acc = 0
        for x, y in zip(a, b):
            if x and y:
                acc ^= ex[lg[x] + lg[y]]
        return acc

    def add_terms(self, acc, exps, coeffs, u, c):
        """acc += c * x^u * (sum of coeffs[i] x^exps[i]); see
        `_Kernel.add_terms`."""
        ex, lg, get = self.exp, self.log, acc.get
        lc = lg[c]
        fresh = []
        for e, y in zip(exps, coeffs):
            e += u
            v = ex[lc + lg[y]]
            s = get(e)
            if s is None:
                acc[e] = v
                fresh.append(e)
            elif s != v:
                acc[e] = s ^ v
            else:
                del acc[e]
        return fresh


class _ZechKernel(_LogKernel):
    """Odd characteristic: g^a + g^b = g^(a + Z(b - a)) with the Zech log
    Z(k) = log(1 + g^k), or zero where 1 + g^k = 0 (Z(k) = -1)."""

    def __init__(self, p: int, d: int, modulus: tuple):
        super().__init__(p, d, modulus)
        n, ex, lg = self.n, self.exp, self.log
        self.half = n // 2  # log of -1
        # adding 1 raises the leading digit c0
        one, top = self.one, (p - 1) * self.one
        zech = array("i", bytes(4 * n))
        for k in range(n):
            v = ex[k]
            v = v - top if v >= top else v + one
            zech[k] = lg[v] if v else -1
        zech.extend(zech)  # two periods: indices in (-n, 2n) need no reduction
        self.zech = zech

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[self.log[b] - la]
        return self.exp[la + z] if z >= 0 else 0

    def neg(self, a):
        return self.exp[self.log[a] + self.half] if a else 0

    def add_multiple(self, row, c, other):
        """row + c * other."""
        if not c:
            return list(row)
        ex, lg, zech = self.exp, self.log, self.zech
        lc = lg[c]
        out = []
        for x, y in zip(row, other):
            if y:
                t = lc + lg[y]
                if x:
                    lx = lg[x]
                    z = zech[t - lx]
                    x = ex[lx + z] if z >= 0 else 0
                else:
                    x = ex[t]
            out.append(x)
        return out

    def dot(self, a, b):
        ex, lg, zech, n = self.exp, self.log, self.zech, self.n
        acc = -1  # log of the running sum in [0, n), -1 while it is zero
        for x, y in zip(a, b):
            if x and y:
                t = lg[x] + lg[y]
                if acc < 0:
                    acc = t - n if t >= n else t
                else:
                    z = zech[t - acc]
                    if z < 0:
                        acc = -1
                    else:
                        acc += z
                        if acc >= n:
                            acc -= n
        return ex[acc] if acc >= 0 else 0


_KERNELS: dict = {}


def kernel(p: int, d: int, modulus: tuple):
    """The shared kernel of GF(p^d) with this modulus, built on first use
    and published with setdefault, so concurrent first uses agree."""
    key = (p, d, modulus)
    k = _KERNELS.get(key)
    if k is None:
        if d == 1 and p > 2:
            k = _PrimeKernel(p, d)
        elif p**d > TABLE_MAX_ORDER:
            k = _PolyKernel(p, d, modulus)
        elif p == 2:
            k = _XorKernel(p, d, modulus)
        else:
            k = _ZechKernel(p, d, modulus)
        k = _KERNELS.setdefault(key, k)
    return k
