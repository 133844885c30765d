"""Exact arithmetic in GF(p^d) with forward and inverse Frobenius.

An element is a coefficient vector (c0, ..., c_{d-1}) in the polynomial
basis 1, t, ..., t^(d-1) modulo a monic irreducible polynomial.  Inside
the library it travels as a packed int, the base-p number with digits
c0 c1 ... c_{d-1} (c0 most significant).  So the packed zero is 0, and
the order of packed ints is the canonical element order: lexicographic on
the coefficient tuple.  `FieldSpec.elements()` iterates in that order and
all deterministic tie-breaks in the library rely on it.  A FieldSpec also
carries a twist exponent e, fixing q = p^e for every q^(-1)-linear
structure built on top of the field.

Arithmetic on packed ints runs in one kernel per (p, d, modulus), shared
by every spec of that field and built on the first arithmetic in it:
residues mod p for every prime field of odd characteristic, log/antilog
(XOR or Zech) tables for the other fields up to TABLE_MAX_ORDER elements,
and polynomial-basis arithmetic for larger extension fields (see
`cartier._kernel`).  A kernel also works on whole rows of packed ints
(scale, add a multiple of another row, dot product, Frobenius) and on the
term dicts of sparse polynomials (`add_terms`: add c * x^u * f).  One
base class writes these loops on the scalar operations; a kernel inlines
its arithmetic into a loop only where a benchmark workload runs it.

FieldElement is the public wrapper of a packed int.  `FieldSpec.unwrap`
and `FieldSpec.wrap` convert whole vectors at the boundary of the
row-level code; on tabled fields wrapping looks up an interned element.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from .errors import InvariantViolation, ResourceError, UsageError

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

# Extension fields and F_2 up to this order get log/antilog tables (a few
# MB at most); larger ones compute in the polynomial basis.  Odd prime
# fields compute on residues at every order.
TABLE_MAX_ORDER = 7**6

# q = p^e is computed as an int, so e is bounded by the size of q: 2^e with
# e = 99999 still fits, while e = 10^20 would compute until memory runs out.
MAX_Q_BITS = 1 << 20


# Miller-Rabin with the first 13 primes as bases decides every n below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2017);
# trial division up to sqrt(n) would take hours already at 19 digits.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DECIDED_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n >= _DECIDED_BELOW:
        raise ResourceError(
            f"primality of a {n.bit_length()}-bit integer is decided below 2^81 only"
        )
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# polynomials over F_p as coefficient lists, low degree first


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


def _fp_poly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _fp_poly_mod(conv, f, p)


def _fp_poly_powmod(a, n, f, p):
    result, base = [1], a
    while n:
        if n & 1:
            result = _fp_poly_mulmod(result, base, f, p)
        base = _fp_poly_mulmod(base, base, f, p)
        n >>= 1
    return result


def _fp_poly_gcd(a, b, p):
    """Monic gcd of two coefficient lists."""
    a, b = [x % p for x in a], [x % p for x in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        a, b = b, _fp_poly_mod(a, b, p)
    return a


@lru_cache(maxsize=1024)
def _is_irreducible(mod: tuple, p: int, d: int) -> bool:
    """Rabin's test: a monic f of degree d is irreducible over F_p iff
    f divides x^(p^d) - x and gcd(x^(p^(d/r)) - x, f) = 1 for every prime
    r dividing d.  Polynomial time in d and log p; cached, since every
    FieldSpec verifies its modulus."""
    if d == 1:
        return True
    mod = list(mod)
    x = [0, 1]
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(d):
        frob.append(_fp_poly_powmod(frob[-1], p, mod, p))
    if frob[d] != x:
        return False
    for r in _prime_factors(d):
        h = frob[d // r] + [0] * (2 - len(frob[d // r]))
        h[1] -= 1
        if len(_fp_poly_gcd(mod, h, p)) > 1:
            return False
    return True


def _search_modulus(p: int, d: int) -> tuple:
    """Lexicographically least monic irreducible of degree d over F_p."""
    for c0 in range(1, p):
        # the middle coefficients in lex order, without a tuple of range(p)
        for packed in range(p ** (d - 1)):
            mod = (c0, *_unpack(packed, p, d - 1), 1)
            if _is_irreducible(mod, p, d):
                return mod
    raise UsageError(f"no modulus available for degree {d} over F_{p}")


def default_modulus(p: int, d: int) -> tuple:
    """Bundled (or deterministically searched) monic irreducible of degree d."""
    if (p, d) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, d)]
    if not is_prime(p):
        raise UsageError(f"characteristic {p} is not prime")
    if d < 1 or d > MAX_SEARCH_DEGREE:
        raise UsageError(f"no modulus available for degree {d} over F_{p}")
    return _search_modulus(p, d)


# ----------------------------------------------------------------------
# the packed encoding


def _pack(coeffs, p: int) -> int:
    v = 0
    for c in coeffs:
        v = v * p + c
    return v


def _unpack(v: int, p: int, d: int) -> list:
    out = [0] * d
    for i in range(d - 1, -1, -1):
        v, out[i] = divmod(v, p)
    return out


class _Elements(dict):
    """Packed int -> FieldElement, made on first use.  Fields up to
    TABLE_MAX_ORDER keep (intern) them; larger ones make a new one each
    time."""

    __slots__ = ("spec",)

    def __missing__(self, v):
        spec = self.spec
        x = FieldElement(spec, tuple(_unpack(v, spec.p, spec.d)))
        return self.setdefault(v, x) if spec.order <= TABLE_MAX_ORDER else x


class _Immutable:
    """Base of the library's value classes.

    `_fields` names the slots that make up a value.  It defaults to the
    class's own `__slots__`; a subclass with no slots of its own inherits
    its parent's.  A class declares it to leave out caches and slots that
    follow from the others or are not part of the value.  From it come
    `==` (same type, equal fields), `hash`, a `Name(field=...)` repr, and
    an `__init__` taking the fields by position or name for plain records;
    a class that validates its input defines its own.

    `__init__` (or a constructor that skips it, or a lazy slot's first
    read) sets the attributes once, through `_set`, the one place that
    writes a slot; assigning or deleting one raises.  `copy`, `deepcopy`
    and pickle carry every slot but the `_lazy` ones, which are rebuilt on
    first use, and restore them through `_set` too.
    """

    __slots__ = ()
    _fields = ()
    _lazy = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = tuple(vars(cls).get("__slots__", ())) or cls._fields
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        given = dict(zip(fields, values), **named)
        if len(values) + len(named) != len(fields) or given.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self._set(**given)

    def _set(self, **slots):
        for name, value in slots.items():
            object.__setattr__(self, name, value)
        return self

    def __getstate__(self):
        slots = (name for cls in type(self).__mro__ for name in vars(cls).get("__slots__", ()))
        return {name: getattr(self, name) for name in slots if name not in self._lazy}

    def __setstate__(self, state):
        self._set(**state)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self._values(self) == self._values(other)
        )

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FieldSpec(_Immutable):
    """Immutable description of GF(p^d) together with the twist exponent e.

    q = p^e is the power of Frobenius all semilinear structures twist by.
    e does not have to divide d at this level; constructions that need
    F_q inside the field (semilinear modules, Cartier operators) reject
    specs with e not dividing d.

    `kernel` (the arithmetic kernel) and `_elements` (packed int ->
    FieldElement) are filled in on first use, never at construction.
    """

    __slots__ = ("p", "d", "modulus", "e", "_one", "kernel", "_elements")
    _fields = ("p", "d", "modulus", "e")
    _lazy = ("kernel", "_elements")

    def __init__(self, p: int, d: int, modulus=None, e: int = 1):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if d < 1:
            raise UsageError("extension degree must be >= 1")
        if e < 1:
            raise UsageError("twist exponent must be >= 1")
        if e > MAX_Q_BITS // p.bit_length():
            raise ResourceError(
                f"twist exponent too large: q = {p}^e would exceed about {MAX_Q_BITS} bits"
            )
        if modulus is None:
            modulus = default_modulus(p, d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != d + 1 or modulus[d] != 1:
            raise UsageError("modulus must be monic of degree d")
        if not _is_irreducible(modulus, p, d):
            raise UsageError(f"modulus {list(modulus)} is reducible over F_{p}")
        self._set(p=p, d=d, modulus=modulus, e=e, _one=p ** (d - 1))

    def __getattr__(self, name):
        # Reached only while a lazy slot is still empty.
        if name == "kernel":
            from ._kernel import kernel

            value = kernel(self.p, self.d, self.modulus)
        elif name == "_elements":
            value = _Elements()
            value.spec = self
        else:
            raise AttributeError(name)
        self._set(**{name: value})
        return value

    def __repr__(self):
        return f"FieldSpec(p={self.p}, d={self.d}, e={self.e})"

    @property
    def order(self) -> int:
        return self.p**self.d

    @property
    def q(self) -> int:
        return self.p**self.e

    def element(self, coeffs) -> "FieldElement":
        p = self.p
        coeffs = [int(c) % p for c in coeffs]
        if len(coeffs) > self.d:
            raise UsageError("coefficient list longer than extension degree")
        # missing trailing coefficients are zero: the low digits
        return self._elements[_pack(coeffs, p) * p ** (self.d - len(coeffs))]

    def from_int(self, k: int) -> "FieldElement":
        """Image of the integer k under Z -> F_p -> GF(p^d)."""
        return self._elements[(k % self.p) * self._one]

    @property
    def zero(self) -> "FieldElement":
        return self._elements[0]

    @property
    def one(self) -> "FieldElement":
        return self._elements[self._one]

    @property
    def gen(self) -> "FieldElement":
        """The class of t, a root of the modulus (equals 1 when d = 1)."""
        if self.d == 1:
            return self.one
        return self.element((0, 1))

    def elements(self):
        """All p^d elements in canonical (coefficient-lexicographic) order."""
        elements = self._elements
        for v in range(self.order):
            yield elements[v]

    # -- the boundary of the packed row-level code ------------------------

    def unwrap(self, vector) -> list:
        """Packed ints of a vector of this field's elements."""
        try:
            return [x.packed if x.spec is self else self._foreign(x) for x in vector]
        except AttributeError:
            raise UsageError("vector entry is not a field element") from None

    def _foreign(self, x) -> int:
        if isinstance(x, FieldElement) and x.spec == self:
            return x.packed
        raise UsageError("operands belong to different fields")

    def wrap(self, row) -> tuple:
        """The FieldElements of a row of packed ints."""
        return tuple(map(self._elements.__getitem__, row))

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


class FieldElement(_Immutable):
    """An element of GF(p^d): canonical coefficient tuple and packed int,
    immutable."""

    __slots__ = ("spec", "coeffs", "packed")
    _fields = ("spec", "packed")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        self._set(spec=spec, coeffs=coeffs, packed=_pack(coeffs, spec.p))

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise UsageError(f"cannot combine field element with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise UsageError("operands belong to different fields")

    def __bool__(self):
        return self.packed != 0

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __add__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.kernel.add(self.packed, other.packed)]

    def __sub__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.kernel.sub(self.packed, other.packed)]

    def __neg__(self):
        spec = self.spec
        return spec._elements[spec.kernel.neg(self.packed)]

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return spec._elements[spec.kernel.mul(self.packed, other.packed)]

    def inverse(self) -> "FieldElement":
        spec = self.spec
        return spec._elements[spec.kernel.inv(self.packed)]

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        spec = self.spec
        return spec._elements[spec.kernel.pow(self.packed, n)]

    def frobenius(self, j: int = 1) -> "FieldElement":
        """a^(p^j) (j reduced mod d: a^(p^d) = a)."""
        if j < 0:
            raise UsageError("frobenius iteration count must be >= 0")
        spec = self.spec
        return spec._elements[spec.kernel.frob(self.packed, j)]

    def inv_frobenius(self, j: int = 1) -> "FieldElement":
        """The unique b with b^(p^j) = a; exists since the field is perfect."""
        if j < 0:
            raise UsageError("frobenius iteration count must be >= 0")
        spec = self.spec
        return spec._elements[spec.kernel.frob(self.packed, -j)]

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
    k = big.kernel
    coeffs = [c * big._one for c in reversed(small.modulus)]
    for x in range(big.order):
        acc = 0
        for c in coeffs:
            acc = k.add(k.mul(acc, x), c)
        if not acc:
            return big._elements[x]
    raise InvariantViolation(  # pragma: no cover - modulus always splits there
        "irreducible modulus has no root in the extension field"
    )


def embed(small: FieldSpec, big: FieldSpec):
    """Field homomorphism GF(p^d) -> GF(p^(dm)) as a callable on elements."""
    root = find_embedding_root(small, big).packed
    k = big.kernel
    powers = [k.one]
    for _ in range(small.d - 1):
        powers.append(k.mul(powers[-1], root))

    def phi(a: FieldElement) -> FieldElement:
        return big._elements[k.dot([c * big._one for c in a.coeffs], powers)]

    return phi
