"""Sparse multivariate polynomials over GF(p^d).

Terms live in a dict from exponent tuple to nonzero coefficient.  The
serialized form sorts terms descending under the ring's default order
(grevlex), so printing is canonical and parse/print round-trips.

Gröbner bases are plain Buchberger with the coprime-leading-term
criterion, reduced to the unique reduced basis for the order.  On request
the same run also tracks cofactors, used where an explicit representation
1 = sum h_i g_i is required.
"""

from __future__ import annotations

from .errors import DomainError, InvariantViolation, ResourceError, UsageError
from .field import FieldElement, FieldSpec


class MonomialOrder:
    """grevlex, lex, or a block-elimination order with k leading variables."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("grevlex", "lex", "block"):
            raise UsageError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.block = block

    def key(self, exps):
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return (sum(exps), tuple(-e for e in reversed(exps)))
        head, tail = exps[: self.block], exps[self.block :]
        return (
            (sum(head), tuple(-e for e in reversed(head))),
            (sum(tail), tuple(-e for e in reversed(tail))),
        )

    def signature(self):
        return (self.kind, self.block)

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', {self.block})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(k: int) -> MonomialOrder:
    return MonomialOrder("block", k)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class PolyRing:
    """GF(p^d)[x_1, ..., x_n] with a total-degree guard on products."""

    __slots__ = ("field", "vars", "max_degree", "_hash")

    def __init__(self, field: FieldSpec, variables, max_degree: int = 200):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise UsageError("duplicate variable names")
        self.field = field
        self.vars = variables
        self.max_degree = max_degree
        self._hash = hash((field, variables))

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PolyRing(GF({self.field.p}^{self.field.d})[{', '.join(self.vars)}])"

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def var(self, name: str) -> "Polynomial":
        if name not in self.vars:
            raise UsageError(f"unknown variable {name!r}")
        i = self.vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(int(x) for x in exps)
        if len(exps) != self.nvars or any(x < 0 for x in exps):
            raise UsageError("bad exponent vector")
        c = self.field.one if coeff is None else coeff
        if c.is_zero:
            return self.zero
        return Polynomial(self, {exps: c})

    def constant(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.field.from_int(c)
        if c.is_zero:
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "vars": list(self.vars)}

    @classmethod
    def from_json(cls, data: dict) -> "PolyRing":
        return cls(FieldSpec.from_json(data["field"]), data["vars"])


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise UsageError(f"cannot combine polynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise UsageError("polynomials belong to different rings")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(self.ring, terms)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.is_zero:
                return self.ring.zero
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        if isinstance(other, int):
            return self * self.ring.field.from_int(other)
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ring.zero
        bound = self.ring.max_degree
        if self.total_degree() + other.total_degree() > bound:
            raise ResourceError(
                f"product degree {self.total_degree() + other.total_degree()} "
                f"exceeds the configured bound {bound}"
            )
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s.is_zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def frobenius_power(self, j: int) -> "Polynomial":
        """f^(p^j), computed termwise (additive Frobenius in char p)."""
        pj = self.ring.field.p**j
        if self.total_degree() * pj > self.ring.max_degree:
            raise ResourceError("Frobenius power exceeds the degree bound")
        return Polynomial(
            self.ring,
            {
                tuple(x * pj for x in e): c.frobenius(j)
                for e, c in self.terms.items()
            },
        )

    def leading(self, order: MonomialOrder):
        """(exponents, coefficient) of the leading term under the order."""
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, c = self.leading(order)
        return self * c.inverse()

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def __str__(self):
        if self.is_zero:
            return "0"
        ring = self.ring
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            if not (coeff == ring.field.one) or all(x == 0 for x in exps):
                factors.append(str(coeff))
            for name, k in zip(ring.vars, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ----------------------------------------------------------------------
# parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise UsageError(f"syntax error at position {self.pos}: {msg}")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


# Parenthesis depth the recursive-descent parser accepts; deeper input is
# a usage error instead of a RecursionError.
MAX_NESTING = 100


def _parse(ring: PolyRing, text: str) -> Polynomial:
    tk = _Tokenizer(text)
    depth = 0

    def parse_expr():
        ch = tk.peek()
        neg = False
        if ch in ("+", "-"):
            tk.pos += 1
            neg = ch == "-"
        acc = parse_term()
        if neg:
            acc = -acc
        while True:
            ch = tk.peek()
            if ch not in ("+", "-"):
                return acc
            tk.pos += 1
            rhs = parse_term()
            acc = acc + (-rhs if ch == "-" else rhs)

    def parse_term():
        acc = parse_factor()
        while tk.peek() == "*":
            tk.pos += 1
            acc = acc * parse_factor()
        return acc

    def parse_factor():
        base = parse_atom()
        while tk.peek() == "^":
            tk.pos += 1
            ch = tk.peek()
            if ch is None or not ch.isdigit():
                tk.error("expected a nonnegative integer exponent")
            n = tk.take_int()
            if n > ring.max_degree:
                tk.error(f"exponent {n} overflows the degree bound {ring.max_degree}")
            base = base**n
        return base

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
            return -atom if negate else atom
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
                if not c.isdigit():
                    tk.error("expected a digit in coefficient literal")
                coeffs.append(tk.take_int())
            if len(coeffs) > ring.field.d:
                tk.error("coefficient literal longer than the field degree")
            return ring.constant(ring.field.element(coeffs))
        if ch.isdigit():
            return ring.constant(tk.take_int())
        if ch.isalpha() or ch == "_":
            start = tk.pos
            name = tk.take_name()
            if name not in ring.vars:
                tk.pos = start
                tk.error(f"unknown variable {name!r}")
            return ring.var(name)
        tk.error(f"unexpected character {ch!r}")

    result = parse_expr()
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return result


# ----------------------------------------------------------------------
# division and Buchberger


def divide(f: Polynomial, divisors, order: MonomialOrder, track: bool = False):
    """Multivariate division: f = sum q_i d_i + r, no term of r divisible
    by any leading term.  Returns r, or (r, quotients) when tracking."""
    ring = f.ring
    quots = [ring.zero for _ in divisors] if track else None
    lead = [d.leading(order) for d in divisors]
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for i, (de, dc) in enumerate(lead):
            if mono_divides(de, e):
                factor_e = mono_div(e, de)
                factor_c = c / dc
                for te, tc in divisors[i].terms.items():
                    ne = mono_mul(te, factor_e)
                    s = work.get(ne, None)
                    delta = tc * factor_c
                    if ne == e:
                        continue
                    s = -delta if s is None else s - delta
                    if s.is_zero:
                        work.pop(ne, None)
                    else:
                        work[ne] = s
                if track:
                    quots[i] = quots[i] + ring.monomial(factor_e, factor_c)
                break
        else:
            rem[e] = c
    r = Polynomial(ring, rem)
    return (r, quots) if track else r


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder):
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm = mono_lcm(fe, ge)
    mf = f.ring.monomial(mono_div(lcm, fe), fc.inverse())
    mg = f.ring.monomial(mono_div(lcm, ge), gc.inverse())
    return mf * f - mg * g, mf, mg


def groebner_basis(gens, order: MonomialOrder = GREVLEX, track: bool = False):
    """The reduced Gröbner basis, sorted by leading monomial ascending.

    With track=True, returns (basis, cofactors) where
    basis[i] = sum_j cofactors[i][j] * gens[j].
    """
    gens = tuple(gens)
    basis = []
    cofs = [] if track else None
    for j, g in enumerate(gens):
        if g.is_zero:
            continue
        basis.append(g)
        if track:
            cof = [g.ring.zero] * len(gens)
            cof[j] = g.ring.one
            cofs.append(cof)
    if not basis:
        return ((), ()) if track else ()
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        if mono_coprime(fi.leading(order)[0], fj.leading(order)[0]):
            continue
        s, mf, mg = s_polynomial(fi, fj, order)
        scof = [mf * a - mg * b for a, b in zip(cofs[i], cofs[j])] if track else None
        r, rcof = _reduce(s, scof, basis, cofs, order)
        if not r.is_zero:
            basis.append(r)
            if track:
                cofs.append(rcof)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reduce_basis(basis, cofs, order)


def _reduce(f: Polynomial, fcof, divisors, dcofs, order: MonomialOrder):
    """Remainder of f by the divisors, and, when f carries cofactors, the
    remainder's cofactors fcof - sum_k quotient_k * dcofs[k]."""
    if fcof is None:
        return divide(f, divisors, order), None
    r, quots = divide(f, divisors, order, track=True)
    out = list(fcof)
    for q, dc in zip(quots, dcofs):
        if q.is_zero:
            continue
        for j in range(len(out)):
            out[j] = out[j] - q * dc[j]
    return r, out


def _reduce_basis(basis, cofs, order: MonomialOrder):
    """Monic, minimal, then fully reduced; cofactors (None when untracked)
    are scaled and reduced in step with their basis elements."""
    items = []
    for k, g in enumerate(basis):
        inv = g.leading(order)[1].inverse()
        items.append((g * inv, None if cofs is None else [c * inv for c in cofs[k]]))
    # minimal: drop any element whose leading term another one divides
    items.sort(key=lambda t: order.key(t[0].leading(order)[0]))
    minimal = []
    for g, cof in items:
        ge = g.leading(order)[0]
        if any(mono_divides(h.leading(order)[0], ge) for h, _ in minimal):
            continue
        minimal.append((g, cof))
    # fully reduce each element against the others; no other leading term
    # divides its own, so the remainder stays monic
    reduced = []
    for i, (g, cof) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            g, cof = _reduce(
                g, cof, [h for h, _ in others], [c for _, c in others], order
            )
        reduced.append((g, cof))
    reduced.sort(key=lambda t: order.key(t[0].leading(order)[0]))
    polys = tuple(g for g, _ in reduced)
    if cofs is None:
        return polys
    return polys, tuple(tuple(c) for _, c in reduced)


# ----------------------------------------------------------------------
# ideals


class Ideal:
    """A finitely generated ideal with a cached reduced Gröbner basis."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens)
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise UsageError("generator outside the ring")
        self.ring = ring
        self.gens = gens
        self._gb = {}

    def groebner(self, order: MonomialOrder = GREVLEX):
        sig = order.signature()
        if sig not in self._gb:
            self._gb[sig] = groebner_basis(self.gens, order)
        return self._gb[sig]

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        if f.ring != self.ring:
            raise UsageError("polynomial outside the ring")
        gb = self.groebner(order)
        if not gb:
            return f
        return divide(f, list(gb), order)

    def member(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

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
            terms = {}
            for e, c in f.terms.items():
                terms[(shift_t,) + e] = c
            return Polynomial(big, terms)

        t = big.var(aux)
        one = big.one
        gens = [up(f, 1) for f in self.gens if not f.is_zero]
        gens += [(one - t) * up(g, 0) for g in other.gens if not g.is_zero]
        gb = groebner_basis(gens, elimination_order(1))
        down_gens = []
        for g in gb:
            if all(e[0] == 0 for e in g.terms):
                down_gens.append(
                    Polynomial(ring, {e[1:]: c for e, c in g.terms.items()})
                )
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
        gens = set()
        for g in self.gens:
            if g.is_zero:
                continue
            if len(g.terms) != 1:
                raise UsageError("ideal is not given by monomial generators")
            gens.add(next(iter(g.terms)))
        return [
            e for e in sorted(gens)
            if not any(f != e and mono_divides(f, e) for f in gens)
        ]

    def is_squarefree_monomial(self) -> bool:
        return all(all(x <= 1 for x in e) for e in self._monomial_gens())

    def monomial_radical(self) -> "Ideal":
        """Exponent truncation to <= 1 on the minimal monomial generators."""
        truncated = {
            tuple(min(x, 1) for x in e) for e in self._monomial_gens()
        }
        minimal = [
            e for e in sorted(truncated)
            if not any(mono_divides(f, e) and f != e for f in truncated)
        ]
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
