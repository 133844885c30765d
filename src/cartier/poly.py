"""Sparse multivariate polynomials over GF(p^d).

A polynomial stores its terms once, as a dict {packed monomial: packed
coefficient} with no zero coefficient, the way a `FieldElement` wraps one
packed int (see `cartier.field`).  The `PolyRing` packs a monomial into one
int (Monagan and Pearce, CASC 2007): x_i in field i from the bottom, each
`max_degree.bit_length()` bits (at least 1) and a guard bit wide, and minus
the total degree above them.  So a product is `a + b`, b divides a when
`(a - b) & guards` is 0, 1 is 0, and the ints ascend in grevlex order from
the leading monomial; lex and block orders rank them with shifts and
masks.  Constructors refuse exponents above the bound, products keep to
it, and division, which has no degree guard, raises when an exponent would
leave its field; the public API speaks exponent tuples.

All arithmetic runs on packed terms through the field's kernel, with one
set of helpers shared by the polynomial operators, the parser, division
and Buchberger: the kernel's `add_terms` (acc += c * x^u * f, the term
loop, with the arithmetic of residue and XOR fields inlined),
`_add_product` (acc += m * f) and `_power`, under the one degree guard
`_check_bound`.
Printing sorts terms descending in grevlex, so it is canonical and
parse/print round-trips.  Polynomials and monomial orders are immutable.

Gröbner bases come from one Buchberger loop, reduced to the unique reduced
basis for the order.  It takes pairs in one of two orders: under grevlex
in signature order, dropping them by the signature criteria (F5); or,
under lex and block orders or when it tracks cofactors for an explicit
1 = sum h_i g_i, by sugar with the Gebauer–Möller criteria.  Division
pops the leading pending monomial from a heap, and each divisor's leading
term, inverse leading coefficient and tail are prepared once: per
Buchberger run as the basis grows, and per `Ideal` next to its cached
basis.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from operator import neg
from types import MappingProxyType

from .errors import DomainError, InvariantViolation, ResourceError, UsageError
from .field import FieldElement, FieldSpec, _Immutable


class MonomialOrder(_Immutable):
    """grevlex, lex, or a block-elimination order with k leading variables.

    `rank(exps)` is a flat tuple whose ascending order is the descending
    monomial order, so the leading monomial has the least rank; `key` sorts
    the other way round.  Immutable.
    """

    __slots__ = ("kind", "block", "rank")
    _fields = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind == "lex":
            rank = _lex_rank
        elif kind == "grevlex":
            rank = _grevlex_rank
        elif kind == "block":
            rank = partial(_block_rank, block)
        else:
            raise UsageError(f"unknown monomial order {kind!r}")
        self._set(kind=kind, block=block, rank=rank)

    def key(self, exps):
        """Sort key: ascending in the monomial order."""
        return tuple(map(neg, self.rank(exps)))

    def _packed_rank(self, ring: "PolyRing"):
        """`rank` on the packed monomials of `ring`, as an int; None under
        grevlex, where a packed monomial is its own rank."""
        w, mask, offsets, shift = ring._width, ring._mask, ring._offsets, ring._shift
        if self.kind == "lex":  # minus the fields laid out with x_1 highest
            return lambda m: -sum((m >> s & mask) << shift - w - s for s in offsets)
        k = min(self.block, ring.nvars) * w  # the head's bits
        if not k:
            return None
        # the head's grevlex rank, shifted above m >> k: once the heads
        # agree, m >> k ranks the tail like grevlex, and it stays below
        # 2^(z-1) in size
        z, head, hoffsets = shift - k + w + ring.nvars.bit_length(), (1 << k) - 1, offsets[: k // w]
        if k == w:  # block 1, as in `Ideal.intersect`: x_1 is the head's degree
            degree = lambda m: m & head
        else:
            degree = lambda m: sum(m >> s & mask for s in hoffsets)
        return lambda m: ((m & head) - (degree(m) << k) << z) + (m >> k)

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', {self.block})"
        return f"MonomialOrder({self.kind!r})"


def _lex_rank(exps):
    return tuple(map(neg, exps))


def _grevlex_rank(exps):
    return (-sum(exps),) + exps[::-1]


def _block_rank(k, exps):
    head, tail = exps[:k], exps[k:]
    return (-sum(head),) + head[::-1] + (-sum(tail),) + tail[::-1]


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(k: int) -> MonomialOrder:
    return MonomialOrder("block", k)


class PolyRing(_Immutable):
    """GF(p^d)[x_1, ..., x_n] with a total-degree guard on products, which
    sets the layout but is not part of the ring's value.  Immutable.

    `_aux`, the ring t, x_1, ..., x_n of `Ideal.intersect`, is built on
    first use and kept per instance: rings that differ only in the bound
    are equal but lay their monomials out differently."""

    __slots__ = ("field", "vars", "max_degree", "_width", "_shift", "_offsets", "_mask", "_guards", "_aux")
    _fields = ("field", "vars")
    _lazy = ("_aux",)

    def __init__(self, field: FieldSpec, variables, max_degree: int = 200):
        variables = tuple(variables)
        for name in variables:
            if not (isinstance(name, str) and name and _Tokenizer(name).take_name() == name):
                raise UsageError(f"variable name {name!r} is not a name the parser reads")
        if len(set(variables)) != len(variables):
            raise UsageError("duplicate variable names")
        if not isinstance(max_degree, int) or max_degree < 0:
            raise UsageError(f"degree bound {max_degree!r} is not a nonnegative integer")
        # the top bit of a field is its guard; a variable fits even in bound 0
        w = max(max_degree, 1).bit_length() + 1
        offsets = tuple(range(0, w * len(variables), w))
        guards = sum(1 << s + w - 1 for s in offsets)
        self._set(field=field, vars=variables, max_degree=max_degree, _width=w, _offsets=offsets)
        self._set(_shift=w * len(variables), _mask=(1 << w - 1) - 1, _guards=guards)

    def __getattr__(self, name):
        # Reached only while the lazy slot is still empty.  The bound is one
        # higher, so the lift t * f of a generator of top degree fits.
        if name != "_aux":
            raise AttributeError(name)
        aux = "t"
        while aux in self.vars:
            aux += "_"
        value = PolyRing(self.field, (aux,) + self.vars, self.max_degree + 1)
        self._set(_aux=value)
        return value

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __repr__(self):
        return f"PolyRing(GF({self.field.p}^{self.field.d})[{', '.join(self.vars)}])"

    def _pack(self, exps) -> int:  # exponents within the bound
        m = 0
        for x, s in zip(exps, self._offsets):
            m |= x << s
        return m - (sum(exps) << self._shift)

    def _unpack(self, m: int) -> tuple:
        mask = self._mask
        return tuple(m >> s & mask for s in self._offsets)

    def _monomial(self, exps) -> int:
        """`_pack` for exponents from outside, which may not fit."""
        exps = tuple(map(int, exps))
        if len(exps) != self.nvars or min(exps, default=0) < 0:
            raise UsageError("bad exponent vector")
        _check_bound(max(exps, default=0), self.max_degree, "exponent")
        return self._pack(exps)

    @property
    def zero(self) -> "Polynomial":
        return _new(self, {})

    @property
    def one(self) -> "Polynomial":
        return _new(self, {0: self.field.kernel.one})

    def var(self, name: str) -> "Polynomial":
        if name not in self.vars:
            raise UsageError(f"unknown variable {name!r}")
        m = (1 << self._offsets[self.vars.index(name)]) - (1 << self._shift)
        return _new(self, {m: self.field.kernel.one})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        m = self._monomial(exps)
        c = self.field.unwrap((self.field.one if coeff is None else coeff,))[0]
        return _new(self, {m: c} if c else {})

    def constant(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.field.from_int(c)
        return self.monomial((0,) * self.nvars, c)

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "vars": list(self.vars)}

    @classmethod
    def from_json(cls, data: dict) -> "PolyRing":
        return cls(FieldSpec.from_json(data["field"]), data["vars"])


class Polynomial(_Immutable):
    """Immutable sparse polynomial; no zero coefficients stored.  The
    terms are kept packed; `terms` is a read-only {exps: FieldElement}
    view of them."""

    __slots__ = ("ring", "_packed")

    def __init__(self, ring: PolyRing, terms):
        terms = dict(terms)
        packed = zip(map(ring._monomial, terms), ring.field.unwrap(terms.values()))
        self._set(ring=ring, _packed={a: c for a, c in packed if c})

    @property
    def terms(self):
        t = self._unpacked()
        return MappingProxyType(dict(zip(t, self.ring.field.wrap(t.values()))))

    def _unpacked(self) -> dict:
        """{exponent tuple: packed coefficient}, the same in every layout."""
        t = self._packed
        return dict(zip(map(self.ring._unpack, t), t.values()))

    def _terms_for(self, ring: PolyRing) -> dict:
        """The packed terms in the layout of `ring`, equal to this one's."""
        if ring._width == self.ring._width:
            return self._packed
        return {ring._monomial(e): c for e, c in self._unpacked().items()}

    def _check(self, other) -> dict:
        """`other`'s packed terms, laid out like this polynomial's."""
        if not isinstance(other, Polynomial):
            raise UsageError(f"cannot combine polynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError("polynomials belong to different rings")
        return other._terms_for(self.ring)

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def __eq__(self, other):
        if type(other) is not Polynomial or other.ring != self.ring:
            return False
        if other.ring._width == self.ring._width:
            return other._packed == self._packed
        return other._unpacked() == self._unpacked()

    def __hash__(self):  # _packed is a dict, laid out by the degree bound
        return hash((self.ring, frozenset(self._unpacked().items())))

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return _degree(self._packed, self.ring._shift) if self._packed else -1

    def _scaled(self, c):
        """self * c for a nonzero packed c."""
        t = self._packed
        return _new(self.ring, dict(zip(t, self.ring.field.kernel.scale(t.values(), c))))

    def __add__(self, other):
        o = self._check(other)
        k, acc = self.ring.field.kernel, dict(self._packed)
        k.add_terms(acc, o, o.values(), 0, k.one)
        return _new(self.ring, acc)

    def __neg__(self):
        k = self.ring.field.kernel
        return self._scaled(k.neg(k.one))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.field.from_int(other)
        if isinstance(other, FieldElement):
            if other.is_zero or self.is_zero:
                return self.ring.zero
            return self._scaled(self.ring.field.unwrap((other,))[0])
        return _new(self.ring, _mul(self._packed, self._check(other), self.ring))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative polynomial power")
        return _new(self.ring, _power(self._packed, n, self.ring))

    def frobenius_power(self, j: int) -> "Polynomial":
        """f^(p^j), computed termwise (additive Frobenius in char p)."""
        if j < 0:
            raise UsageError("frobenius iteration count must be >= 0")
        ring, t = self.ring, self._packed
        pj = ring.field.p**j
        _check_bound(self.total_degree() * pj, ring.max_degree, "Frobenius power degree")
        exps = [m * pj for m in t]  # the bound keeps every field in place
        return _new(ring, dict(zip(exps, ring.field.kernel.frob_row(t.values(), j))))

    def _lead(self, order: MonomialOrder) -> int:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        return min(self._packed, key=order._packed_rank(self.ring))

    def leading(self, order: MonomialOrder):
        """(exponents, coefficient) of the leading term under the order."""
        m = self._lead(order)
        return self.ring._unpack(m), self.ring.field.wrap((self._packed[m],))[0]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        return self._scaled(self.ring.field.kernel.inv(self._packed[self._lead(order)]))

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        ring, t = self.ring, self._packed
        ms = sorted(t, key=order._packed_rank(ring))
        return list(zip(map(ring._unpack, ms), ring.field.wrap([t[m] for m in ms])))

    def __str__(self):
        if self.is_zero:
            return "0"
        ring = self.ring
        one = ring.field.one.packed
        parts = []
        for m, c in sorted(self._packed.items()):  # ascending = grevlex from the top
            factors = [] if c == one and m else [str(ring.field.wrap((c,))[0])]
            for name, k in zip(ring.vars, ring._unpack(m)):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _new(ring: PolyRing, packed: dict) -> Polynomial:
    """The polynomial with these packed terms, which it takes over."""
    return object.__new__(Polynomial)._set(ring=ring, _packed=packed)


def _degree(terms, shift: int) -> int:  # the least monomial has the top degree
    return -(min(terms) >> shift)


# ----------------------------------------------------------------------
# parsing

# Digits an integer literal may have: below the smallest limit Python can
# be set to for converting a string to an int, so a longer literal is a
# usage error instead of a ValueError.
MAX_INT_DIGITS = 600


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.end = len(text)

    def error(self, msg):
        raise UsageError(f"syntax error at position {self.pos}: {msg}")

    def peek(self):
        """The next character that is not whitespace, or None at the end;
        skips the whitespace before it."""
        pos = self.pos
        if pos < self.end:
            ch = self.text[pos]
            if not ch.isspace():
                return ch
        text, end = self.text, self.end
        while pos < end and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < end else None

    def take_int(self) -> int:
        """The integer literal at the cursor, whose first digit the caller
        has seen."""
        start = self.pos
        while self.pos < self.end and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos - start > MAX_INT_DIGITS:
            self.pos = start
            self.error(f"integer literal longer than {MAX_INT_DIGITS} digits")
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        """The variable name at the cursor, or "" if none starts there: an
        alphabetic character or "_", then alphanumerics and "_".  The one
        rule for names, which `PolyRing` holds its variables to."""
        text, start, pos = self.text, self.pos, self.pos
        if pos < self.end and (text[pos].isalpha() or text[pos] == "_"):
            pos += 1
            while pos < self.end and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
        self.pos = pos
        return text[start:pos]


# Parenthesis depth the recursive-descent parser accepts; deeper input is
# a usage error instead of a RecursionError.
MAX_NESTING = 100


def _parse(ring: PolyRing, text: str) -> Polynomial:
    """Recursive descent on packed terms.  A variable or a constant is a
    one-term dict; products and powers run through `_add_product`, so the
    degree guard fires on the same product, with the same degrees, as it
    would for the polynomial operators."""
    tk = _Tokenizer(text)
    field = ring.field
    k = field.kernel
    one, minus = k.one, k.neg(k.one)
    depth = 0

    def parse_expr():
        acc, sign = {}, one
        ch = tk.peek()
        if ch in ("+", "-"):
            tk.pos += 1
            sign = minus if ch == "-" else one
        while True:
            term = parse_term()
            k.add_terms(acc, term, term.values(), 0, sign)
            ch = tk.peek()
            if ch not in ("+", "-"):
                return acc
            tk.pos += 1
            sign = minus if ch == "-" else one

    def parse_term():
        acc = parse_factor()
        while tk.peek() == "*":
            tk.pos += 1
            acc = _mul(acc, parse_factor(), ring)
        return acc

    def parse_factor():
        base = parse_atom()
        while tk.peek() == "^":
            tk.pos += 1
            ch = tk.peek()
            if ch is None or not ch.isdecimal():
                tk.error("expected a nonnegative integer exponent")
            n = tk.take_int()
            if n > ring.max_degree:
                tk.error(f"exponent {n} overflows the degree bound {ring.max_degree}")
            base = _power(base, n, ring)
        return base

    def constant(c):
        return {0: c.packed} if c else {}

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
            return dict(zip(atom, k.scale(atom.values(), minus))) if negate else atom
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
                if not c.isdecimal():
                    tk.error("expected a digit in coefficient literal")
                coeffs.append(tk.take_int())
            if len(coeffs) > field.d:
                tk.error("coefficient literal longer than the field degree")
            return constant(field.element(coeffs))
        if ch.isdecimal():
            return constant(field.from_int(tk.take_int()))
        start = tk.pos
        name = tk.take_name()
        if name:
            if name not in ring.vars:
                tk.pos = start
                tk.error(f"unknown variable {name!r}")
            i = ring.vars.index(name)
            return {ring._pack([0] * i + [1]): one}
        tk.error(f"unexpected character {ch!r}")

    result = parse_expr()
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return _new(ring, result)


# ----------------------------------------------------------------------
# packed arithmetic, division and Buchberger
#
# A divisor is prepared once as the tuple (leading monomial, inverse
# leading coefficient, tail monomials, tail coefficients, total degree),
# the tail in term order without the leading term.  `rank` is the order's
# `_packed_rank` on the ring: None under grevlex.
#
# Buchberger is one loop with two pair queues.  It reduces each generator by
# the ones before it, smallest leading term first, then takes pairs from
# `_SignaturePairs` under grevlex, or from `_SugarPairs` under lex and block
# orders and when `track` carries cofactors through the reductions (a
# generator starts from its unit cofactor), so witnesses keep their pairs.
# When a signature pair's sugar passes the degree bound, the loop starts
# over from the reduced generators on the sugar queue.  A run raises
# ResourceError once it has reduced MAX_SPAIRS S-pairs, naming the basis
# size and the largest sugar.


def _prepare(terms: dict, rank, ring: PolyRing):
    if not terms:
        raise DomainError("zero polynomial has no leading term")
    lead = min(terms, key=rank)
    tail = [e for e in terms if e != lead]
    inv = ring.field.kernel.inv(terms[lead])
    return lead, inv, tail, [terms[e] for e in tail], _degree(terms, ring._shift)


def _check_bound(value: int, bound: int, what: str = "product degree"):
    """The degree guard of every product, and the constructors' exponent
    bound.  A value too long to print (a lift to x^(q-2) at a huge level q)
    is named by its bit length."""
    if value > bound:
        bits = value.bit_length()
        shown = value if bits <= 1000 else f"of 2^{bits - 1} or more"
        raise ResourceError(f"{what} {shown} exceeds the configured bound {bound}")


def _add_product(acc: dict, m: dict, f: dict, ring: PolyRing):
    """acc += m * f, in place, under the degree guard (checked only when
    both factors are nonzero)."""
    if m and f:
        add_terms, shift = ring.field.kernel.add_terms, ring._shift
        _check_bound(_degree(m, shift) + _degree(f, shift), ring.max_degree)
        for u, c in m.items():
            add_terms(acc, f, f.values(), u, c)


def _mul(a: dict, b: dict, ring: PolyRing) -> dict:
    acc = {}
    _add_product(acc, a, b, ring)
    return acc


def _power(f: dict, n: int, ring: PolyRing) -> dict:
    """f^n by square and multiply, starting from 1."""
    result = {0: ring.field.kernel.one}
    while n:
        if n & 1:
            result = _mul(result, f, ring)
        if n > 1:
            f = _mul(f, f, ring)
        n >>= 1
    return result


def _lcm(a: int, b: int, ring: PolyRing) -> int:
    mask, m, degree = ring._mask, 0, 0
    for s in ring._offsets:
        x, y = a >> s & mask, b >> s & mask
        x = y if y > x else x
        m |= x << s
        degree += x
    return m - (degree << ring._shift)


def _divide(work: dict, divisors, ring: PolyRing, rank, quots=None, limits=None) -> dict:
    """Remainder of the packed polynomial `work` (consumed) by prepared
    divisors: at each step the leading pending term is reduced by the
    first divisor, in list order, whose leading term divides it, and with
    `limits` only by a divisor i with limits[i] below its packed monomial.
    With `quots` (one dict per divisor) the quotient terms are recorded.

    Pending monomials wait in a heap, keyed by rank (themselves under
    grevlex).  The kernel's `lazy_terms` updates their coefficients, which
    are normalised only as their monomial leaves the heap, mod the field
    order: every packed element lies below it, and over F_p, where
    `lazy_terms` leaves unreduced ints (and cancelled terms, so none is
    pushed twice), it is p; a term that cancelled is dropped there.  Every
    monomial a step adds is below the one it reduces, so a monomial that was
    reduced or moved to the remainder never comes back (and each quotient
    term is written once)."""
    heap = list(work) if rank is None else [(rank(e), e) for e in work]
    heapify(heap)
    leads = [d[0] for d in divisors]
    k, guards = ring.field.kernel, ring._guards
    kmul, kneg, add_terms, order = k.mul, k.neg, k.lazy_terms, k.order
    rem = {}
    while heap:
        e = heappop(heap)
        if rank is not None:
            e = e[1]
        c = work.pop(e, 0) % order
        if not c:
            continue
        for i, de in enumerate(leads):
            u = e - de
            if not u & guards and (limits is None or limits[i] < e):
                _, inv, texps, tcoeffs, _ = divisors[i]
                c = kmul(c, inv)
                if quots is not None:
                    quots[i][u] = c
                for ne in add_terms(work, texps, tcoeffs, u, kneg(c)):
                    if ne & guards:  # only a new monomial can leave its fields
                        raise ResourceError(
                            f"division reached an exponent above {ring._mask}, "
                            f"past the configured bound {ring.max_degree}"
                        )
                    heappush(heap, ne if rank is None else (rank(ne), ne))
                break
        else:
            rem[e] = c
    return rem


def divide(f: Polynomial, divisors, order: MonomialOrder, track: bool = False):
    """Multivariate division: f = sum q_i d_i + r, no term of r divisible
    by any leading term.  Returns r, or (r, quotients) when tracking."""
    ring = f.ring
    rank = order._packed_rank(ring)
    prepared = [_prepare(f._check(d), rank, ring) for d in divisors]
    quots = [{} for _ in prepared] if track else None
    r = _new(ring, _divide(dict(f._packed), prepared, ring, rank, quots))
    return (r, [_new(ring, q) for q in quots]) if track else r


def _s_polynomial(f, g, lcm: int, ring: PolyRing):
    """S-polynomial of two prepared divisors whose leading monomials have
    this lcm, with the exponents u_f, u_g of its monomial multipliers:
    S = x^u_f * f / lc(f) - x^u_g * g / lc(g)."""
    lf, finv, fexps, fcoeffs, fdeg = f
    lg, ginv, gexps, gcoeffs, gdeg = g
    k, shift, bound = ring.field.kernel, ring._shift, ring.max_degree
    uf, ug = lcm - lf, lcm - lg
    _check_bound(fdeg - (uf >> shift), bound)
    _check_bound(gdeg - (ug >> shift), bound)
    s = {}
    k.add_terms(s, fexps, fcoeffs, uf, finv)
    k.add_terms(s, gexps, gcoeffs, ug, k.neg(ginv))
    return s, uf, ug


def groebner_basis(gens, order: MonomialOrder = GREVLEX, track: bool = False):
    """The reduced Gröbner basis, sorted by leading monomial ascending.

    With track=True, returns (basis, cofactors) where
    basis[i] = sum_j cofactors[i][j] * gens[j].  Raises ResourceError
    after MAX_SPAIRS reduced S-pairs.
    """
    gens = tuple(gens)
    basis, cofs = _buchberger(gens, order, track)
    if not basis:
        return ((), ()) if track else ()
    ring = gens[0].ring
    basis = tuple(_new(ring, g) for g in basis)
    if not track:
        return basis
    return basis, tuple(tuple(_new(ring, c) for c in cof) for cof in cofs)


# S-pairs one Buchberger run may reduce before it raises ResourceError.
# Over F_7, cyclic-6 reduces 143 of them and cyclic-5 35, or 350 and 108
# with cofactors; no run in the tests, the corpus or the benchmark reduces
# more than 143.
MAX_SPAIRS = 5_000


class _SugarPairs:
    """The Gebauer–Möller update (JSC 1988) and the sugar strategy.

    Adding an element h pairs it with every earlier element g.  A new
    pair goes when the lcm of another new pair divides its lcm (chain
    criterion; of pairs with equal lcms the last stays, so a pair with an
    element whose leading term a later one divides always goes), and then
    when its lcm is the product of the two leading terms (product
    criterion).  An old pair (i, j) goes when lt(h) divides its lcm and
    that lcm is neither lcm(i, h) nor lcm(j, h) (triangle criterion).
    Pairs leave a heap keyed by (sugar, order key of the lcm, i, j); sugar
    is the degree the pair would have if the input were homogenised
    (Giovini et al., ISSAC 1991)."""

    def __init__(self, prepared, sugars, rank, ring: PolyRing):
        self.prepared, self.sugars, self.rank, self.ring = prepared, sugars, rank, ring
        self.leads, self.heap = [], []  # heap: (sugar, key of lcm, i, j, lcm)
        for h in range(len(prepared)):
            self.add(h)

    def add(self, h):
        leads, sugars, rank, ring = self.leads, self.sugars, self.rank, self.ring
        shift, guards = ring._shift, ring._guards
        lh = self.prepared[h][0]
        excess = sugars[h] + (lh >> shift)  # sugar minus degree
        new = [(g, _lcm(leads[g], lh, ring)) for g in range(h)]
        leads.append(lh)
        kept = []
        for n, (g, lcm) in enumerate(new):
            if lcm == leads[g] + lh or all(
                (lcm - other) & guards for _, other in new[n + 1 :] + kept
            ):
                kept.append((g, lcm))
        heap = [
            pair
            for pair in self.heap
            if (pair[4] - lh) & guards
            or _lcm(leads[pair[2]], lh, ring) == pair[4]
            or _lcm(leads[pair[3]], lh, ring) == pair[4]
        ]
        for g, lcm in kept:
            if lcm != leads[g] + lh:
                sugar = max(sugars[g] + (leads[g] >> shift), excess) - (lcm >> shift)
                heap.append((sugar, -(lcm if rank is None else rank(lcm)), g, h, lcm))
        heapify(heap)
        self.heap = heap

    def pop(self):
        """(i, j, lcm) of the next pair, or None."""
        return heappop(self.heap)[2:] if self.heap else None

    limits = zero = lambda self: None  # reductions are not restricted


class _SignaturePairs:
    """Signatures (Faugère, F5, ISSAC 2002): the RB algorithm of Eder and
    Faugère's survey (JSC 2017) with Roune and Stillman's ratio rewrite
    order (ISSAC 2012), for grevlex.

    Element n has a signature, the leading term t·e_p of its cofactor
    vector; prepared input n starts at 1·e_n.  Signatures compare by sugar
    (deg t + deg(input p)), then by t in grevlex, then by p: a module order
    that is degree first and extends grevlex, which lex and block orders
    it does not extend leave to the sugar queue.  The key
    ((deg(input p) << shift) + fields - t) << b | p ascends with it, and
    x^u times a signature has a key u << b less.  As a monomial a
    signature is (p << shift) + the fields of t; `divides` tests division.

    Pair (i, j) has the larger signature of its halves, that of i, and is
    not formed when they tie.  A pair goes when a syzygy's signature divides
    its own: a reduction to zero's, or the Koszul syzygy's of two
    elements.  It also goes unless i is its rewriter: of the elements
    whose signatures divide it, the one whose multiple has the least
    leading monomial, the newest on a tie.  `limits` keeps reductions
    below the current signature.  Signatures up to the degree bound fit
    the ring's fields (a guard bit shows one that does not): a Koszul
    syzygy past it is passed over, and `pop` reports a pair past it, on
    which the run starts over from its inputs on `_SugarPairs`."""

    def __init__(self, prepared, sugars, ring: PolyRing):
        shift = ring._shift
        self.prepared, self.ring, self.b = prepared, ring, len(prepared).bit_length()
        self.fields, self.divides = (1 << shift) - 1, ring._guards | -(1 << shift)
        # elements: (lead, key, signature); heap: (key, i, j, lcm, signature)
        self.elements, self.heap = [], []
        self.syz = [[] for _ in prepared]  # per position, minimal syzygy signatures
        for h in range(len(prepared)):
            self.sig = ((((sugars[h] << shift) + self.fields) << self.b) + h, h << shift)
            self.add(h)

    def add(self, h):
        """Element h, made under the signature of the pair popped last."""
        lh = self.prepared[h][0]
        (kh, sh), b, fields = self.sig, self.b, self.fields
        for g, (lg, kg, sg) in enumerate(self.elements):
            x, y = kh - (lg << b), kg - (lh << b)
            if x != y:  # the Koszul syzygy lm(g)·F_h - lm(h)·F_g
                self._syzygy(sh + (lg & fields) if x > y else sg + (lh & fields))
            lcm = _lcm(lg, lh, self.ring)
            uh, ug = lcm - lh, lcm - lg
            x, y = kh - (uh << b), kg - (ug << b)  # the halves' signatures
            if x > y:
                heappush(self.heap, (x, h, g, lcm, sh + (uh & fields)))
            elif x < y:
                heappush(self.heap, (y, g, h, lcm, sg + (ug & fields)))
        self.elements.append((lh, kh, sh))

    def _syzygy(self, s):
        divides, syz = self.divides, self.syz[s >> self.ring._shift]
        if s & self.ring._guards:
            return
        for z in syz:
            if not (s - z) & divides:
                return
        syz[:] = [z for z in syz if (z - s) & divides]
        syz.append(s)

    def pop(self):
        """(i, j, lcm) of the next pair, None when there is none, and ()
        when its sugar passes the degree bound."""
        ring, divides, b = self.ring, self.divides, self.b
        while self.heap:
            key, i, j, lcm, s = heappop(self.heap)
            for z in self.syz[s >> ring._shift]:
                if not (s - z) & divides:
                    break
            else:
                if key >> b >> ring._shift > ring.max_degree:  # the sugar
                    return ()
                # the rewriter: the least leading monomial is the largest packed int
                best = None
                for n, (lead, kn, sn) in enumerate(self.elements):
                    if not (s - sn) & divides:
                        m = lead + (kn - key >> b)
                        if best is None or m >= best[0]:
                            best = m, n
                if best[1] == i:
                    self.sig = key, s
                    return i, j, lcm
        return None

    def limits(self):
        """limits[n] is the packed monomial that x^e must lie above for
        x^e / lm(n) times element n to keep below the current signature."""
        key, b = self.sig[0], self.b
        return [(k + (l << b) - key) >> b for l, k, _ in self.elements]

    def zero(self):
        self._syzygy(self.sig[1])


def _buchberger(gens, order: MonomialOrder, track: bool):
    """Packed reduced basis and packed cofactors (None when untracked)."""
    if not gens:
        return [], None
    ring = gens[0].ring
    k, shift = ring.field.kernel, ring._shift
    rank = order._packed_rank(ring)
    prepared = []
    cofs = [] if track else None
    inputs = [(j, t) for j, t in enumerate(map(gens[0]._check, gens)) if t]
    # the generator with the smallest leading term first
    for j, t in sorted(
        inputs, key=lambda jt: min(jt[1] if rank is None else map(rank, jt[1])), reverse=True
    ):
        unit = None
        if track:
            unit = [{} for _ in gens]
            unit[j] = {0: k.one}
        r, rcof = _reduce(dict(t), unit, prepared, cofs, ring, rank)
        if r:
            prepared.append(_prepare(r, rank, ring))
            if track:
                cofs.append(rcof)
    if not prepared:
        return [], cofs
    if not any(d[2] for d in prepared):  # monomials: every S-polynomial is 0
        return _reduce_basis(prepared, cofs, ring, rank)
    sugars, count = [d[4] for d in prepared], len(prepared)
    if track or rank is not None:  # signatures need a degree-first order: grevlex
        pairs = _SugarPairs(prepared, sugars, rank, ring)
    else:
        pairs = _SignaturePairs(prepared, sugars, ring)
    reduced = 0
    while (pair := pairs.pop()) is not None:
        if not pair:  # a signature past the degree bound: start over on sugar
            del prepared[count:], sugars[count:]
            pairs = _SugarPairs(prepared, sugars, rank, ring)
            continue
        if reduced == MAX_SPAIRS:
            raise ResourceError(
                f"Gröbner basis unfinished after {reduced} S-pairs reduced: "
                f"{len(prepared)} basis elements, largest sugar {max(sugars)}"
            )
        reduced += 1
        i, j, lcm = pair
        fi, fj = prepared[i], prepared[j]
        s, uf, ug = _s_polynomial(fi, fj, lcm, ring)
        scof = None
        if track:
            mf, mg = {uf: fi[1]}, {ug: k.neg(fj[1])}
            scof = []
            for a, b in zip(cofs[i], cofs[j]):
                c = {}
                _add_product(c, mf, a, ring)
                _add_product(c, mg, b, ring)
                scof.append(c)
        r, rcof = _reduce(s, scof, prepared, cofs, ring, rank, pairs.limits())
        if not r:
            pairs.zero()
        else:
            d = _prepare(r, rank, ring)
            prepared.append(d)
            sugars.append(max(sugars[i] - (uf >> shift), sugars[j] - (ug >> shift), d[4]))
            if track:
                cofs.append(rcof)
            if not d[0]:  # a constant: the basis is (1), and every S-polynomial reduces to 0
                break
            pairs.add(len(prepared) - 1)
    return _reduce_basis(prepared, cofs, ring, rank)


def _reduce(f: dict, fcof, divisors, dcofs, ring: PolyRing, rank, limits=None):
    """Remainder of f (consumed) by the prepared divisors, and, when f
    carries cofactors, the remainder's cofactors
    fcof - sum_i quotient_i * dcofs[i]."""
    if fcof is None:
        return _divide(f, divisors, ring, rank, None, limits), None
    k = ring.field.kernel
    quots = [{} for _ in divisors]
    r = _divide(f, divisors, ring, rank, quots)
    out = [dict(c) for c in fcof]
    for q, dc in zip(quots, dcofs):
        if q:
            negq = {u: k.neg(c) for u, c in q.items()}
            for acc, c in zip(out, dc):
                _add_product(acc, negq, c, ring)
    return r, out


def _reduce_basis(prepared, cofs, ring: PolyRing, rank):
    """Monic, minimal, then fully reduced; cofactors (None when untracked)
    are scaled and reduced in step with their basis elements.  The basis
    comes out sorted by leading monomial ascending."""
    k, guards = ring.field.kernel, ring._guards
    one = k.one
    items = []
    for n, (lead, inv, texps, tcoeffs, deg) in enumerate(prepared):
        cof = None
        if cofs is not None:
            cof = [dict(zip(c, k.scale(c.values(), inv))) for c in cofs[n]]
        items.append(((lead, one, texps, k.scale(tcoeffs, inv), deg), cof))
    items.sort(key=lambda t: t[0][0] if rank is None else rank(t[0][0]), reverse=True)
    # minimal: drop any element whose leading term another one divides
    minimal = []
    for item in items:
        lead = item[0][0]
        if any(not (lead - h[0][0]) & guards for h in minimal):
            continue
        minimal.append(item)
    # fully reduce each element by the ones before it, as a larger leading
    # term divides no term at or below its own; no other leading term
    # divides its own, so the remainder stays monic and keeps the order
    divisors = [d for d, _ in minimal]
    dcofs = [c for _, c in minimal]
    basis, rcofs = [], [] if cofs is not None else None
    for i, ((lead, _, texps, tail, _), cof) in enumerate(minimal):
        g = dict(zip(texps, tail))
        g[lead] = one
        if i:
            g, cof = _reduce(g, cof, divisors[:i], dcofs[:i], ring, rank)
        basis.append(g)
        if rcofs is not None:
            rcofs.append(cof)
    return basis, rcofs


# ----------------------------------------------------------------------
# ideals


class Ideal(_Immutable):
    """A finitely generated ideal with a cached reduced Gröbner basis per
    order, kept next to its basis prepared as divisors.  Immutable: the
    caches stay valid because the generators cannot change.

    `==` and `hash` are identity: different generator lists can give the
    same ideal, so comparing them would disagree with `equals`, which
    compares reduced Gröbner bases."""

    __slots__ = ("ring", "gens", "_gb")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens)
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise UsageError("generator outside the ring")
        if any(g.ring._width != ring._width for g in gens):
            gens = tuple(_new(ring, g._terms_for(ring)) for g in gens)
        self._set(ring=ring, gens=gens, _gb={})

    @classmethod
    def _with_basis(cls, ring: PolyRing, gens, basis, prepared=None) -> "Ideal":
        """The ideal of `gens`, carrying `basis` as its known reduced grevlex
        basis (sorted as `groebner` sorts it), so no Buchberger run repeats it."""
        ideal = cls(ring, gens)
        if prepared is None:
            prepared = [_prepare(g._packed, None, ring) for g in basis]
        ideal._gb[GREVLEX] = (tuple(basis), prepared)
        return ideal

    def _reduced(self) -> "Ideal":
        """The same ideal, generated by its reduced grevlex basis."""
        basis, prepared = self._basis(GREVLEX)
        return Ideal._with_basis(self.ring, basis, basis, prepared)

    def _basis(self, order: MonomialOrder):
        """(reduced basis, its prepared divisors), computed once per order."""
        if order not in self._gb:
            basis = groebner_basis(self.gens, order)
            rank = order._packed_rank(self.ring)
            prepared = [_prepare(g._packed, rank, self.ring) for g in basis]
            self._gb[order] = (basis, prepared)
        return self._gb[order]

    def groebner(self, order: MonomialOrder = GREVLEX):
        return self._basis(order)[0]

    def _remainder(self, f: Polynomial, order: MonomialOrder) -> dict:
        if f.ring != self.ring:
            raise UsageError("polynomial outside the ring")
        prepared = self._basis(order)[1]
        rank = order._packed_rank(self.ring)
        return _divide(dict(f._terms_for(self.ring)), prepared, self.ring, rank)

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        return _new(self.ring, self._remainder(f, order))

    def member(self, f: Polynomial) -> bool:
        return not self._remainder(f, GREVLEX)

    def contains(self, other: "Ideal") -> bool:
        return all(self.member(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise UsageError("ideals in different rings")
        return self.groebner() == other.groebner()

    @property
    def is_zero(self) -> bool:
        return not self.groebner()

    @property
    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0] == self.ring.one

    def sum(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise UsageError("ideals in different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def product(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise UsageError("ideals in different rings")
        return Ideal(
            self.ring, tuple(f * g for f in self.gens for g in other.gens)
        )

    def intersect(self, other: "Ideal") -> "Ideal":
        """Auxiliary-variable elimination: eliminate t from t*I + (1-t)*J.  The
        t-free part of the reduced elimination basis is, in its order, the
        intersection's reduced grevlex basis, so the answer carries it."""
        if self.ring != other.ring:
            raise UsageError("ideals in different rings")
        ring = self.ring
        big = ring._aux
        # t sits in big's lowest field, so a factor t^s adds
        # s - (s << big._shift); where big keeps the ring's field width a
        # monomial just moves up one field
        w, tdeg = ring._width, 1 - (1 << big._shift)
        if big._width == w:
            lift, drop = (lambda m: m << w), (lambda m: m >> w)
        else:  # the higher bound widened the fields
            lift = lambda m: big._pack((0,) + ring._unpack(m))
            drop = lambda m: ring._pack(big._unpack(m)[1:])

        def up(f, shift_t):
            terms = f._terms_for(ring).items()
            return _new(big, {lift(m) + shift_t * tdeg: c for m, c in terms})

        t = big.var(big.vars[0])
        gens = [up(f, 1) for f in self.gens if not f.is_zero]
        gens += [(big.one - t) * up(g, 0) for g in other.gens if not g.is_zero]
        try:
            gb = groebner_basis(gens, elimination_order(1))
        except ResourceError as e:
            # a degree guard of the auxiliary ring names its bound, one above
            # the ring's own
            if not str(e).endswith(f"configured bound {big.max_degree}"):
                raise
            raise ResourceError(
                f"intersection degree exceeds the configured bound {ring.max_degree}"
            ) from e
        down_gens = []
        for g in gb:
            if not any(m & big._mask for m in g._packed):  # free of t
                _check_bound(_degree(g._packed, big._shift), ring.max_degree, "intersection degree")
                down_gens.append(_new(ring, {drop(m): c for m, c in g._packed.items()}))
        return Ideal._with_basis(ring, down_gens, down_gens)

    def colon_element(self, g: Polynomial) -> "Ideal":
        """(I : g) = (1/g) (I intersect (g))."""
        if g.ring != self.ring:
            raise UsageError("polynomial outside the ring")
        if g.is_zero:
            raise DomainError("colon by the zero polynomial")
        inter = self.intersect(Ideal(self.ring, (g,)))
        quotients = []
        for h in inter.groebner():
            r, quots = divide(h, [g], GREVLEX, track=True)
            if not r.is_zero:
                raise InvariantViolation("intersection member not divisible in colon")
            quotients.append(quots[0])
        return Ideal(self.ring, tuple(quotients))

    def colon(self, other: "Ideal") -> "Ideal":
        """(I : J), the intersection of the element colons I : g.  Generators
        g of J already in I are dropped first: I : g is the whole ring."""
        gens = [g for g in other.gens if not g.is_zero and not self.member(g)]
        if not gens:
            return Ideal(self.ring, (self.ring.one,))
        result = self.colon_element(gens[0])
        for g in gens[1:]:
            result = result.intersect(self.colon_element(g))
        return result

    # -- monomial ideal helpers --------------------------------------

    def _monomial_gens(self):
        """The minimal monomial generators, sorted."""
        gens = set()
        for g in self.gens:
            if g.is_zero:
                continue
            if len(g._packed) != 1:
                raise UsageError("ideal is not given by monomial generators")
            gens.add(next(iter(g._packed)))
        return _minimal_monomials(gens, self.ring)

    def is_squarefree_monomial(self) -> bool:
        return all(x <= 1 for m in self._monomial_gens() for x in self.ring._unpack(m))

    def monomial_radical(self) -> "Ideal":
        """Exponent truncation to <= 1 on the minimal monomial generators."""
        ring, one = self.ring, self.ring.field.kernel.one
        squarefree = lambda m: ring._pack([min(x, 1) for x in ring._unpack(m)])
        truncated = set(map(squarefree, self._monomial_gens()))
        return Ideal(ring, tuple(_new(ring, {m: one}) for m in _minimal_monomials(truncated, ring)))

    # -- serialization -------------------------------------------------

    def canonical_strings(self):
        return [str(g) for g in self.groebner()]

    def key(self):
        return tuple(self.canonical_strings())

    def to_json(self):
        return self.canonical_strings()

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({gens})"


def _minimal_monomials(monomials, ring: PolyRing):
    """The packed monomials no other one divides, sorted as exponents."""
    guards = ring._guards
    minimal = [m for m in monomials if all(f == m or (m - f) & guards for f in monomials)]
    return sorted(minimal, key=ring._unpack)

