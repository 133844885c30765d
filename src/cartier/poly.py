"""Sparse multivariate polynomials over GF(p^d).

A polynomial stores its terms once, as a dict {exponent tuple: packed
int} holding no zero coefficient, the way a `FieldElement` wraps one
packed int (see `cartier.field`).  All arithmetic runs on these packed
terms through the field's kernel, with one set of helpers shared by the
polynomial operators, the parser, division and Buchberger: `_add_multiple`
(acc += c * x^u * f), `_add_product` (acc += m * f) and `_power`, under the
one degree guard `_check_product`.  The public `terms` is a read-only
mapping {exponent tuple: FieldElement}, built on each access.

The serialized form sorts terms descending under the ring's default order
(grevlex), so printing is canonical and parse/print round-trips.
Polynomials and monomial orders are immutable.

Gröbner bases come from one Buchberger loop with one pair queue, the
Gebauer–Möller criteria and the sugar strategy, reduced to the unique
reduced basis for the order.  On request the loop also tracks cofactors,
used where an explicit representation 1 = sum h_i g_i is required; it
forms the same S-polynomials either way.  Division pops the
leading pending monomial from a heap keyed by `MonomialOrder.rank`, and
each divisor's leading term, inverse leading coefficient and tail are
prepared once: per Buchberger run as the basis grows, and per `Ideal`
next to its cached basis.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from operator import add, le, mul, neg, sub
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


def mono_divides(a, b) -> bool:
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_coprime(a, b) -> bool:
    return not any(map(mul, a, b))


class PolyRing(_Immutable):
    """GF(p^d)[x_1, ..., x_n] with a total-degree guard on products.
    Immutable."""

    __slots__ = ("field", "vars", "max_degree")
    _fields = ("field", "vars")

    def __init__(self, field: FieldSpec, variables, max_degree: int = 200):
        variables = tuple(variables)
        for name in variables:
            if not (isinstance(name, str) and name and _Tokenizer(name).take_name() == name):
                raise UsageError(f"variable name {name!r} is not a name the parser reads")
        if len(set(variables)) != len(variables):
            raise UsageError("duplicate variable names")
        self._set(field=field, vars=variables, max_degree=max_degree)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __repr__(self):
        return f"PolyRing(GF({self.field.p}^{self.field.d})[{', '.join(self.vars)}])"

    @property
    def zero(self) -> "Polynomial":
        return _new(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.monomial((0,) * self.nvars)

    def var(self, name: str) -> "Polynomial":
        if name not in self.vars:
            raise UsageError(f"unknown variable {name!r}")
        i = self.vars.index(name)
        return self.monomial(1 if j == i else 0 for j in range(self.nvars))

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(int(x) for x in exps)
        if len(exps) != self.nvars or any(x < 0 for x in exps):
            raise UsageError("bad exponent vector")
        c = self.field.one if coeff is None else coeff
        if c.is_zero:
            return self.zero
        return _new(self, {exps: self.field.unwrap((c,))[0]})

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
        packed = zip(terms, ring.field.unwrap(terms.values()))
        self._set(ring=ring, _packed={a: c for a, c in packed if c})

    @property
    def terms(self):
        t = self._packed
        return MappingProxyType(dict(zip(t, self.ring.field.wrap(t.values()))))

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise UsageError(f"cannot combine polynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError("polynomials belong to different rings")

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self):
        return bool(self._packed)

    def __hash__(self):  # _packed is a dict
        return hash((self.ring, frozenset(self._packed.items())))

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(map(sum, self._packed), default=-1)

    def _scaled(self, c):
        """self * c for a nonzero packed c."""
        t = self._packed
        return _new(self.ring, dict(zip(t, self.ring.field.kernel.scale(t.values(), c))))

    def __add__(self, other):
        self._check(other)
        k, acc, o = self.ring.field.kernel, dict(self._packed), other._packed
        _add_multiple(acc, o, o.values(), (0,) * self.ring.nvars, k.one, k)
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
        self._check(other)
        return _new(self.ring, _mul(self._packed, other._packed, self.ring))

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
        if self.total_degree() * pj > ring.max_degree:
            raise ResourceError("Frobenius power exceeds the degree bound")
        exps = [tuple(x * pj for x in e) for e in t]
        return _new(ring, dict(zip(exps, ring.field.kernel.frob_row(t.values(), j))))

    def leading(self, order: MonomialOrder):
        """(exponents, coefficient) of the leading term under the order."""
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        e = min(self._packed, key=order.rank)
        return e, self.ring.field.wrap((self._packed[e],))[0]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        e, _ = self.leading(order)
        return self._scaled(self.ring.field.kernel.inv(self._packed[e]))

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        rank = order.rank
        return sorted(self.terms.items(), key=lambda t: rank(t[0]))

    def __str__(self):
        if self.is_zero:
            return "0"
        ring = self.ring
        one = ring.field.one.packed
        parts = []
        for exps, c in sorted(self._packed.items(), key=lambda t: GREVLEX.rank(t[0])):
            factors = [] if c == one and any(exps) else [str(ring.field.wrap((c,))[0])]
            for name, k in zip(ring.vars, exps):
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
        start = self.pos
        while self.pos < self.end and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
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
    origin, one, minus = (0,) * ring.nvars, k.one, k.neg(k.one)
    depth = 0

    def parse_expr():
        acc, sign = {}, one
        ch = tk.peek()
        if ch in ("+", "-"):
            tk.pos += 1
            sign = minus if ch == "-" else one
        while True:
            term = parse_term()
            _add_multiple(acc, term, term.values(), origin, sign, k)
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
        return {origin: c.packed} if c else {}

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
            return {origin[:i] + (1,) + origin[i + 1 :]: one}
        tk.error(f"unexpected character {ch!r}")

    result = parse_expr()
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return _new(ring, result)


# ----------------------------------------------------------------------
# packed arithmetic, division and Buchberger
#
# A divisor is prepared once as the tuple (leading exponents, inverse
# leading coefficient, tail exponents, tail coefficients, total degree),
# the tail in term order without the leading term.
#
# Buchberger is one loop over one pair queue.  It reduces each generator by
# the ones before it, smallest leading term first, then takes pairs from
# `_SugarPairs`: sugar order and the Gebauer–Möller chain, product and
# triangle criteria.  `track` only decides whether cofactors are carried
# through the same reductions; a generator starts from its unit cofactor.
# A run raises ResourceError once it has reduced MAX_SPAIRS S-pairs,
# naming the basis size and the largest sugar.


def _prepare(terms: dict, rank, k):
    if not terms:
        raise DomainError("zero polynomial has no leading term")
    lead = min(terms, key=rank)
    tail = [e for e in terms if e != lead]
    return (
        lead,
        k.inv(terms[lead]),
        tail,
        [terms[e] for e in tail],
        max(map(sum, terms)),
    )


def _check_product(deg_a: int, deg_b: int, bound: int):
    """The degree guard of every polynomial product.  A degree too long to
    print (a lift to x^(q-2) at a huge level q) is named by its bit length."""
    degree = deg_a + deg_b
    if degree > bound:
        bits = degree.bit_length()
        shown = degree if bits <= 1000 else f"of 2^{bits - 1} or more"
        raise ResourceError(f"product degree {shown} exceeds the configured bound {bound}")


def _add_multiple(acc: dict, exps, coeffs, u, c, k) -> list:
    """acc += c * x^u * (sum of coeffs[i] x^exps[i]), in place.  Returns
    the monomials that were not in acc before."""
    kadd = k.add
    fresh = []
    for e, v in zip(exps, k.scale(coeffs, c)):
        e = tuple(map(add, e, u))
        s = acc.get(e)
        if s is None:
            acc[e] = v
            fresh.append(e)
        else:
            s = kadd(s, v)
            if s:
                acc[e] = s
            else:
                del acc[e]
    return fresh


def _add_product(acc: dict, m: dict, f: dict, k, bound: int):
    """acc += m * f, in place, under the degree guard (checked only when
    both factors are nonzero)."""
    if m and f:
        _check_product(max(map(sum, m)), max(map(sum, f)), bound)
        for u, c in m.items():
            _add_multiple(acc, f, f.values(), u, c, k)


def _mul(a: dict, b: dict, ring: PolyRing) -> dict:
    acc = {}
    _add_product(acc, a, b, ring.field.kernel, ring.max_degree)
    return acc


def _power(f: dict, n: int, ring: PolyRing) -> dict:
    """f^n by square and multiply, starting from 1."""
    result = {(0,) * ring.nvars: ring.field.kernel.one}
    while n:
        if n & 1:
            result = _mul(result, f, ring)
        if n > 1:
            f = _mul(f, f, ring)
        n >>= 1
    return result


def _divide(work: dict, divisors, rank, k, quots=None) -> dict:
    """Remainder of the packed polynomial `work` (consumed) by prepared
    divisors: at each step the leading pending term is reduced by the
    first divisor, in list order, whose leading term divides it.  With
    `quots` (one dict per divisor) the quotient terms are recorded there.

    Pending monomials wait in a heap keyed by rank; an entry whose term
    has cancelled since it was pushed is dropped when popped.  Every
    monomial a step adds is below the one it reduces, so a monomial that
    was reduced or moved to the remainder never comes back (and each
    quotient term is written once)."""
    heap = [(rank(e), e) for e in work]
    heapify(heap)
    leads = [d[0] for d in divisors]
    kmul, kneg = k.mul, k.neg
    rem = {}
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, 0)
        if not c:
            continue
        for i, de in enumerate(leads):
            if all(map(le, de, e)):
                _, inv, texps, tcoeffs, _ = divisors[i]
                u = tuple(map(sub, e, de))
                c = kmul(c, inv)
                if quots is not None:
                    quots[i][u] = c
                for ne in _add_multiple(work, texps, tcoeffs, u, kneg(c), k):
                    heappush(heap, (rank(ne), ne))
                break
        else:
            rem[e] = c
    return rem


def divide(f: Polynomial, divisors, order: MonomialOrder, track: bool = False):
    """Multivariate division: f = sum q_i d_i + r, no term of r divisible
    by any leading term.  Returns r, or (r, quotients) when tracking."""
    ring = f.ring
    k = ring.field.kernel
    prepared = []
    for d in divisors:
        f._check(d)
        prepared.append(_prepare(d._packed, order.rank, k))
    quots = [{} for _ in prepared] if track else None
    r = _new(ring, _divide(dict(f._packed), prepared, order.rank, k, quots))
    return (r, [_new(ring, q) for q in quots]) if track else r


def _s_polynomial(f, g, k, bound):
    """S-polynomial of two prepared divisors, with the exponents u_f, u_g
    of its monomial multipliers: S = x^u_f * f / lc(f) - x^u_g * g / lc(g)."""
    lf, finv, fexps, fcoeffs, fdeg = f
    lg, ginv, gexps, gcoeffs, gdeg = g
    lcm = mono_lcm(lf, lg)
    uf, ug = mono_div(lcm, lf), mono_div(lcm, lg)
    _check_product(sum(uf), fdeg, bound)
    _check_product(sum(ug), gdeg, bound)
    s = {}
    _add_multiple(s, fexps, fcoeffs, uf, finv, k)
    _add_multiple(s, gexps, gcoeffs, ug, k.neg(ginv), k)
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
# Over F_7, cyclic-6 reduces 350 of them and cyclic-5 108, with or without
# cofactors; no run in the tests, the corpus or the benchmark reduces more
# than 108.
MAX_SPAIRS = 5_000


class _SugarPairs:
    """The Gebauer–Möller update (JSC 1988) and the sugar strategy.

    Adding an element h pairs it with every earlier element g.  A new
    pair goes when the lcm of another new pair divides its lcm (chain
    criterion; of pairs with equal lcms the last stays, so a pair with an
    element whose leading term a later one divides always goes), and then
    when the two leading terms are coprime (product criterion).  An old
    pair (i, j) goes when lt(h) divides its lcm and that lcm is neither
    lcm(i, h) nor lcm(j, h) (triangle criterion).  Pairs leave a heap
    keyed by (sugar, order key of the lcm, i, j); sugar is the degree the
    pair would have if the input were homogenised (Giovini et al., ISSAC
    1991)."""

    def __init__(self, leads, sugars, key):
        self.leads, self.sugars, self.key = leads, sugars, key
        self.heap = []  # (sugar, key of lcm, i, j, lcm)
        for h in range(len(leads)):
            self.add(h)

    def add(self, h):
        leads, sugars = self.leads, self.sugars
        lh, excess = leads[h], sugars[h] - sum(leads[h])
        new = [(g, mono_lcm(leads[g], lh)) for g in range(h)]
        kept = []
        for n, (g, lcm) in enumerate(new):
            if mono_coprime(leads[g], lh) or not any(
                mono_divides(other, lcm) for _, other in new[n + 1 :] + kept
            ):
                kept.append((g, lcm))
        heap = [
            pair
            for pair in self.heap
            if not mono_divides(lh, pair[4])
            or mono_lcm(leads[pair[2]], lh) == pair[4]
            or mono_lcm(leads[pair[3]], lh) == pair[4]
        ]
        for g, lcm in kept:
            if not mono_coprime(leads[g], lh):
                sugar = max(sugars[g] - sum(leads[g]), excess) + sum(lcm)
                heap.append((sugar, self.key(lcm), g, h, lcm))
        heapify(heap)
        self.heap = heap

    def pop(self):
        return heappop(self.heap)[2:4] if self.heap else None


def _buchberger(gens, order: MonomialOrder, track: bool):
    """Packed reduced basis and packed cofactors (None when untracked)."""
    if not gens:
        return [], None
    ring = gens[0].ring
    k, rank, bound = ring.field.kernel, order.rank, ring.max_degree
    for g in gens:
        gens[0]._check(g)
    prepared = []
    cofs = [] if track else None
    inputs = [(j, g._packed) for j, g in enumerate(gens) if g]
    for j, t in sorted(inputs, key=lambda jt: min(map(rank, jt[1])), reverse=True):
        unit = None
        if track:
            unit = [{} for _ in gens]
            unit[j] = {(0,) * ring.nvars: k.one}
        r, rcof = _reduce(dict(t), unit, prepared, cofs, rank, k, bound)
        if r:
            prepared.append(_prepare(r, rank, k))
            if track:
                cofs.append(rcof)
    if not prepared:
        return [], cofs
    leads = [d[0] for d in prepared]
    sugars = [d[4] for d in prepared]
    pairs = _SugarPairs(leads, sugars, order.key)
    reduced = 0
    while (pair := pairs.pop()) is not None:
        if reduced == MAX_SPAIRS:
            raise ResourceError(
                f"Gröbner basis unfinished after {reduced} S-pairs reduced: "
                f"{len(prepared)} basis elements, largest sugar {max(sugars)}"
            )
        reduced += 1
        i, j = pair
        fi, fj = prepared[i], prepared[j]
        s, uf, ug = _s_polynomial(fi, fj, k, bound)
        scof = None
        if track:
            mf, mg = {uf: fi[1]}, {ug: k.neg(fj[1])}
            scof = []
            for a, b in zip(cofs[i], cofs[j]):
                c = {}
                _add_product(c, mf, a, k, bound)
                _add_product(c, mg, b, k, bound)
                scof.append(c)
        r, rcof = _reduce(s, scof, prepared, cofs, rank, k, bound)
        if r:
            d = _prepare(r, rank, k)
            prepared.append(d)
            leads.append(d[0])
            sugars.append(max(sugars[i] + sum(uf), sugars[j] + sum(ug), d[4]))
            if track:
                cofs.append(rcof)
            pairs.add(len(prepared) - 1)
    return _reduce_basis(prepared, cofs, rank, k, bound)


def _reduce(f: dict, fcof, divisors, dcofs, rank, k, bound):
    """Remainder of f (consumed) by the prepared divisors, and, when f
    carries cofactors, the remainder's cofactors
    fcof - sum_i quotient_i * dcofs[i]."""
    if fcof is None:
        return _divide(f, divisors, rank, k), None
    quots = [{} for _ in divisors]
    r = _divide(f, divisors, rank, k, quots)
    out = [dict(c) for c in fcof]
    for q, dc in zip(quots, dcofs):
        if q:
            negq = {u: k.neg(c) for u, c in q.items()}
            for acc, c in zip(out, dc):
                _add_product(acc, negq, c, k, bound)
    return r, out


def _reduce_basis(prepared, cofs, rank, k, bound):
    """Monic, minimal, then fully reduced; cofactors (None when untracked)
    are scaled and reduced in step with their basis elements.  The basis
    comes out sorted by leading monomial ascending."""
    one = k.one
    items = []
    for n, (lead, inv, texps, tcoeffs, deg) in enumerate(prepared):
        cof = None
        if cofs is not None:
            cof = [dict(zip(c, k.scale(c.values(), inv))) for c in cofs[n]]
        items.append(((lead, one, texps, k.scale(tcoeffs, inv), deg), cof))
    items.sort(key=lambda t: rank(t[0][0]), reverse=True)
    # minimal: drop any element whose leading term another one divides
    minimal = []
    for item in items:
        lead = item[0][0]
        if any(mono_divides(h[0][0], lead) for h in minimal):
            continue
        minimal.append(item)
    # fully reduce each element against the others; no other leading term
    # divides its own, so the remainder stays monic and the order of the
    # leading terms is kept
    divisors = [d for d, _ in minimal]
    dcofs = [c for _, c in minimal]
    basis, rcofs = [], [] if cofs is not None else None
    for i, ((lead, _, texps, tail, _), cof) in enumerate(minimal):
        g = dict(zip(texps, tail))
        g[lead] = one
        others = divisors[:i] + divisors[i + 1 :]
        if others:
            g, cof = _reduce(g, cof, others, dcofs[:i] + dcofs[i + 1 :], rank, k, bound)
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
        self._set(ring=ring, gens=gens, _gb={})

    def _basis(self, order: MonomialOrder):
        """(reduced basis, its prepared divisors), computed once per order."""
        if order not in self._gb:
            basis = groebner_basis(self.gens, order)
            k = self.ring.field.kernel
            prepared = [_prepare(g._packed, order.rank, k) for g in basis]
            self._gb[order] = (basis, prepared)
        return self._gb[order]

    def groebner(self, order: MonomialOrder = GREVLEX):
        return self._basis(order)[0]

    def _remainder(self, f: Polynomial, order: MonomialOrder) -> dict:
        if f.ring != self.ring:
            raise UsageError("polynomial outside the ring")
        prepared = self._basis(order)[1]
        return _divide(dict(f._packed), prepared, order.rank, self.ring.field.kernel)

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
        """Auxiliary-variable elimination: eliminate t from t*I + (1-t)*J."""
        if self.ring != other.ring:
            raise UsageError("ideals in different rings")
        ring = self.ring
        aux = "t"
        existing = set(ring.vars)
        while aux in existing:
            aux += "_"
        big = PolyRing(ring.field, (aux,) + ring.vars, ring.max_degree)

        def up(f, shift_t):
            return _new(big, {(shift_t,) + e: c for e, c in f._packed.items()})

        t = big.var(aux)
        one = big.one
        gens = [up(f, 1) for f in self.gens if not f.is_zero]
        gens += [(one - t) * up(g, 0) for g in other.gens if not g.is_zero]
        gb = groebner_basis(gens, elimination_order(1))
        down_gens = []
        for g in gb:
            if all(e[0] == 0 for e in g._packed):
                down_gens.append(_new(ring, {e[1:]: c for e, c in g._packed.items()}))
        return Ideal(ring, tuple(down_gens))

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
        """(I : J) as the intersection of the element colons."""
        gens = [g for g in other.gens if not g.is_zero]
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
        return _minimal_monomials(gens)

    def is_squarefree_monomial(self) -> bool:
        return all(all(x <= 1 for x in e) for e in self._monomial_gens())

    def monomial_radical(self) -> "Ideal":
        """Exponent truncation to <= 1 on the minimal monomial generators."""
        truncated = {tuple(min(x, 1) for x in e) for e in self._monomial_gens()}
        minimal = _minimal_monomials(truncated)
        return Ideal(self.ring, tuple(self.ring.monomial(e) for e in minimal))

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


def _minimal_monomials(exps):
    """The exponent tuples of `exps` that no other one divides, sorted."""
    return [e for e in sorted(exps) if not any(f != e and mono_divides(f, e) for f in exps)]
