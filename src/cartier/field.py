"""Exact arithmetic in GF(p^d) with forward and inverse Frobenius.

Elements are stored in the polynomial basis 1, t, ..., t^(d-1) modulo a
monic irreducible polynomial, as fully reduced coefficient tuples.  A
FieldSpec also carries a twist exponent e, fixing q = p^e for every
q^(-1)-linear structure built on top of the field.

The canonical order on elements is lexicographic on the coefficient tuple
(c0, ..., c_{d-1}); `FieldSpec.elements()` iterates in that order and all
deterministic tie-breaks in the library rely on it.
"""

from __future__ import annotations

from itertools import product

from .errors import DomainError, InvariantViolation, UsageError

# Lexicographically least monic irreducible polynomial of degree d over F_p,
# as the tuple (c0, ..., c_{d-1}, 1).  Verified again at construction time.
DEFAULT_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (3, 1): (1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 1): (1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 1): (1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (7, 6): (1, 0, 0, 0, 1, 0, 1),
}

# Degrees beyond the bundled table are found by the same lex-least search;
# bounded so a typo cannot trigger an open-ended hunt.
MAX_SEARCH_DEGREE = 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _fp_poly_mod(a, b, p):
    """Remainder of a modulo monic b, coefficient lists low-degree first."""
    a = [x % p for x in a]
    db = len(b) - 1
    da = len(a) - 1
    while da >= 0 and a[da] == 0:
        da -= 1
    while da >= db:
        c = a[da]
        if c:
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        da -= 1
        while da >= 0 and a[da] == 0:
            da -= 1
    return a[: da + 1]


def _is_irreducible(mod, p, d):
    """Trial division by every monic polynomial of degree <= d // 2."""
    if d == 1:
        return True
    for k in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=k):
            g = list(tail) + [1]
            if not _fp_poly_mod(mod, g, p):
                return False
    return True


def default_modulus(p: int, d: int) -> tuple:
    """Bundled (or deterministically searched) monic irreducible of degree d."""
    if (p, d) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, d)]
    if not is_prime(p):
        raise UsageError(f"characteristic {p} is not prime")
    if d < 1 or d > MAX_SEARCH_DEGREE:
        raise UsageError(f"no modulus available for degree {d} over F_{p}")
    for low in product(range(p), repeat=d):
        if low[0] == 0:
            continue
        mod = tuple(low) + (1,)
        if _is_irreducible(mod, p, d):
            return mod
    raise UsageError(f"no modulus available for degree {d} over F_{p}")


class FieldSpec:
    """Immutable description of GF(p^d) together with the twist exponent e.

    q = p^e is the power of Frobenius all semilinear structures twist by.
    e does not have to divide d at this level; constructions that need
    F_q inside the field (semilinear modules, Cartier operators) reject
    specs with e not dividing d.
    """

    __slots__ = ("p", "d", "modulus", "e", "_red", "_hash")

    def __init__(self, p: int, d: int, modulus=None, e: int = 1):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if d < 1:
            raise UsageError("extension degree must be >= 1")
        if e < 1:
            raise UsageError("twist exponent must be >= 1")
        if modulus is None:
            modulus = default_modulus(p, d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != d + 1 or modulus[d] != 1:
            raise UsageError("modulus must be monic of degree d")
        if not _is_irreducible(list(modulus), p, d):
            raise UsageError(f"modulus {list(modulus)} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "e", e)
        # reductions of t^k for k = d .. 2d-2, used by multiplication
        red = []
        cur = [(-modulus[i]) % p for i in range(d)]  # t^d
        red.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [0] * d
            carry = cur[d - 1]
            for i in range(d - 1):
                nxt[i + 1] = cur[i]
            if carry:
                for i in range(d):
                    nxt[i] = (nxt[i] + carry * red[0][i]) % p
            red.append(tuple(nxt))
            cur = nxt
        object.__setattr__(self, "_red", tuple(red))
        object.__setattr__(self, "_hash", hash((p, d, modulus, e)))

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.d == other.d
            and self.modulus == other.modulus
            and self.e == other.e
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(p={self.p}, d={self.d}, e={self.e})"

    @property
    def order(self) -> int:
        return self.p**self.d

    @property
    def q(self) -> int:
        return self.p**self.e

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.d:
            raise UsageError("coefficient list longer than extension degree")
        coeffs = coeffs + (0,) * (self.d - len(coeffs))
        return FieldElement(self, coeffs)

    def from_int(self, k: int) -> "FieldElement":
        """Image of the integer k under Z -> F_p -> GF(p^d)."""
        return self.element((k % self.p,))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.d)

    @property
    def one(self) -> "FieldElement":
        return self.element((1,))

    @property
    def gen(self) -> "FieldElement":
        """The class of t, a root of the modulus (equals 1 when d = 1)."""
        if self.d == 1:
            return self.one
        return self.element((0, 1))

    def elements(self):
        """All p^d elements in canonical (coefficient-lexicographic) order."""
        for coeffs in product(range(self.p), repeat=self.d):
            yield FieldElement(self, coeffs)

    def to_json(self) -> dict:
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus), "e": self.e}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(
            int(data["p"]),
            int(data.get("d", 1)),
            data.get("modulus"),
            int(data.get("e", 1)),
        )


class FieldElement:
    """An element of GF(p^d), canonical coefficient tuple, immutable."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise UsageError(f"cannot combine field element with {type(other).__name__}")
        if other.spec != self.spec:
            raise UsageError("operands belong to different fields")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.spec._hash))

    def __bool__(self):
        return any(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        p, d = spec.p, spec.d
        a, b = self.coeffs, other.coeffs
        if d == 1:
            return FieldElement(spec, ((a[0] * b[0]) % p,))
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = [c % p for c in conv[:d]]
        red = spec._red
        for k in range(d, 2 * d - 1):
            c = conv[k] % p
            if c:
                rk = red[k - d]
                for i in range(d):
                    out[i] = (out[i] + c * rk[i]) % p
        return FieldElement(spec, tuple(out))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DomainError("cannot invert zero")
        return self ** (self.spec.order - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self, j: int = 1) -> "FieldElement":
        """a^(p^j), by successive p-th powerings (j reduced mod d: a^(p^d) = a)."""
        if j < 0:
            raise UsageError("frobenius iteration count must be >= 0")
        out = self
        p = self.spec.p
        for _ in range(j % self.spec.d):
            out = out**p
        return out

    def inv_frobenius(self, j: int = 1) -> "FieldElement":
        """The unique b with b^(p^j) = a; exists since the field is perfect."""
        if j < 0:
            raise UsageError("frobenius iteration count must be >= 0")
        d = self.spec.d
        return self.frobenius((d - (j % d)) % d)

    def key(self) -> tuple:
        """Sort key realising the canonical element order."""
        return self.coeffs

    def __repr__(self):
        return f"gf({list(self.coeffs)})"

    def __str__(self):
        if self.spec.d == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def find_embedding_root(small: FieldSpec, big: FieldSpec) -> FieldElement:
    """Least root of small's modulus in big, in canonical element order."""
    if small.p != big.p:
        raise UsageError("fields have different characteristic")
    if big.d % small.d != 0:
        raise UsageError(f"GF({small.p}^{small.d}) does not embed in GF({big.p}^{big.d})")
    mod = small.modulus
    for x in big.elements():
        acc = big.zero
        for c in reversed(mod):
            acc = acc * x + big.from_int(c)
        if acc.is_zero:
            return x
    raise InvariantViolation(  # pragma: no cover - modulus always splits there
        "irreducible modulus has no root in the extension field"
    )


def embed(small: FieldSpec, big: FieldSpec):
    """Field homomorphism GF(p^d) -> GF(p^(dm)) as a callable on elements."""
    root = find_embedding_root(small, big)
    powers = [big.one]
    for _ in range(small.d - 1):
        powers.append(powers[-1] * root)

    def phi(a: FieldElement) -> FieldElement:
        acc = big.zero
        for c, rk in zip(a.coeffs, powers):
            if c:
                acc = acc + big.from_int(c) * rk
        return acc

    return phi
