"""Cartier operators on R = GF(p^d)[x_1..x_n].

The classical operator (with the volume form trivialized away) acts on a
term c*x^a by sending it to c^(1/q) * x^((a+1)/q - 1) when q divides every
a_j + 1, and to zero otherwise; q = p^e.  A multiplier operator is the
composite g -> cartier_std(f*g, e).

Everything above it is ideal-level: image ideals, descending image chains
and their stable values, the smallest stable ideal over a seed, splitting
detection with an explicit witness, compatibility tests, enumeration of
compatible squarefree monomial ideals for split monomial multipliers, and
nilpotence/support analysis of cyclic quotients.
"""

from __future__ import annotations

from .errors import DomainError, InvariantViolation, ResourceError, UsageError
from .field import _Immutable
from .poly import (
    GREVLEX,
    Ideal,
    Polynomial,
    PolyRing,
    _add_product,
    _buchberger,
    _check_bound,
    _degree,
    _new,
    _prepare,
)

DEFAULT_CHAIN_CAP = 64

# Number of antichains in the subset lattice of an n-set (Dedekind numbers);
# this is exactly the number of squarefree monomial ideals in n variables.
_ANTICHAIN_COUNTS = {
    0: 2,
    1: 3,
    2: 6,
    3: 20,
    4: 168,
    5: 7581,
    6: 7828354,
    7: 2414682040998,
    8: 56130437228687557907788,
}


def frobenius_descent(g: Polynomial, e: int):
    """The unique expansion g = sum_b g_b^q * x^b with b in [0, q)^n.

    Returns a dict from the exponent tuple b to the component g_b.  Each
    term c*x^a lands in exactly one component, as the term c^(1/q) *
    x^(a // q) of g_(a % q), so no two terms meet.
    """
    ring = g.ring
    _require_twist(e)
    q = ring.field.p**e
    t, offsets, mask = g._packed, ring._offsets, ring._mask
    parts: dict = {}
    for a, root in zip(t, ring.field.kernel.frob_row(t.values(), -e)):
        b = tuple([(a >> s & mask) % q for s in offsets])
        # a - x^b is q times the packed x^(a // q)
        parts.setdefault(b, {})[(a - ring._pack(b)) // q] = root
    return {b: _new(ring, part) for b, part in parts.items()}


def cartier_std(g: Polynomial, e: int) -> Polynomial:
    """Classical Cartier operator at level q = p^e, extended additively:
    the descent component g_(q-1, ..., q-1)."""
    ring = g.ring
    _require_twist(e)
    q = ring.field.p**e
    t, offsets, mask = g._packed, ring._offsets, ring._mask
    kept = [a for a in t if all((a >> s & mask) % q == q - 1 for s in offsets)]
    roots = ring.field.kernel.frob_row([t[a] for a in kept], -e)
    top = ring._pack([q - 1] * ring.nvars)  # a - top is q times the packed answer
    return _new(ring, {(a - top) // q: r for a, r in zip(kept, roots)})


def _require_twist(e: int):
    # q-th roots always exist in GF(p^d) (the field is perfect), so any
    # level is meaningful here; composites live at level 2e even when the
    # base level divides d.
    if e < 1:
        raise UsageError("operator level must be >= 1")


def _antichains(width: int):
    """Every antichain of subsets of range(width), subsets as bitmasks."""
    out = []

    def extend(start, chosen):
        out.append(tuple(chosen))
        for s in range(start, 1 << width):
            if all(s & t not in (s, t) for t in chosen):
                chosen.append(s)
                extend(s + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def _stabilise(step, start: Ideal, cap: int, what: str):
    """(ideal, steps): the first of start, step(start), ... that step gives
    back, and the number of steps that changed the ideal; ResourceError,
    naming the last two ideals, when more than `cap` of them do.

    Each step starts from, and the answer is, its ideal generated by its
    reduced basis.  That gives the same chain: C(f * r^q * x^b * g) =
    r * C(f * x^b * g), so an image depends only on the ideal."""
    cur, steps = start._reduced(), 0
    while not (nxt := step(cur)).equals(cur):
        if steps >= cap:
            last = f"last two ideals {cur.canonical_strings()} and {nxt.canonical_strings()}"
            raise ResourceError(f"{what} did not stabilise within {cap} steps; {last}")
        cur, steps = nxt._reduced(), steps + 1
    return cur, steps


class CartierOperator(_Immutable):
    """The operator g -> cartier_std(f * g, e) on a polynomial ring."""

    __slots__ = ("ring", "multiplier", "e")

    def __init__(self, ring: PolyRing, multiplier: Polynomial, e: int = 1):
        if multiplier.ring != ring:
            raise UsageError("multiplier outside the ring")
        _require_twist(e)
        self._set(ring=ring, multiplier=multiplier, e=e)

    @property
    def q(self) -> int:
        return self.ring.field.p**self.e

    def apply(self, g: Polynomial) -> Polynomial:
        if g.ring != self.ring:
            raise UsageError("argument outside the ring")
        return cartier_std(self.multiplier * g, self.e)

    def compose(self, other: "CartierOperator") -> "CartierOperator":
        """Operator equal to g -> self(other(g)), one level up:
        C_{f,e} after C_{g,e} is C_{f^q * g, 2e}."""
        if other.ring != self.ring or other.e != self.e:
            raise UsageError("can only compose operators of the same ring and level")
        f = self.multiplier.frobenius_power(self.e) * other.multiplier
        return CartierOperator(self.ring, f, 2 * self.e)

    # -- ideal-level operations --------------------------------------

    def _shifted_values(self, g: Polynomial):
        """Pairs (b, C(f * g * x^b)) for b in [0, q)^n with a nonzero value,
        b ascending lexicographically.

        C(h * x^b) is the Frobenius-descent component h_{q-1-b}, so one
        product f * g and one descent give every value.
        """
        top = self.q - 1
        parts = frobenius_descent(self.multiplier * g, self.e)
        return sorted(
            ((tuple(top - r for r in res), h) for res, h in parts.items()),
            key=lambda t: t[0],
        )

    def _own(self, ideal: Ideal) -> Ideal:
        if ideal.ring != self.ring:
            raise UsageError("ideal outside the ring")
        return ideal

    def image_ideal(self, ideal: Ideal) -> Ideal:
        """The ideal generated by the operator values on the ideal.

        Generators C(f * x^b * g_i) for b in [0, q)^n span the image as an
        R-module because of q^(-1)-linearity.  By the identity
        C(h * x^b) = h_{q-1-b} they are the nonzero Frobenius-descent
        components of f * g_i, listed with b ascending.
        """
        self._own(ideal)
        gens = tuple(
            value for g in ideal.gens for _, value in self._shifted_values(g)
        )
        return Ideal(self.ring, gens)

    def image_of_ring(self) -> Ideal:
        return self.image_ideal(Ideal(self.ring, (self.ring.one,)))

    def stable_image(self, ideal: Ideal | None = None, cap: int = DEFAULT_CHAIN_CAP):
        """Stable value of the descending image chain, plus the number of
        steps that changed it.  Starts from the whole ring by default."""
        start = self._own(ideal) if ideal is not None else Ideal(self.ring, (self.ring.one,))
        return _stabilise(self.image_ideal, start, cap, "image chain")

    def smallest_stable_containing(
        self, seed: Ideal, cap: int = DEFAULT_CHAIN_CAP
    ) -> Ideal:
        """Least ideal containing the seed that the operator maps into itself,
        computed as the union of the seed with all iterated images."""
        step = lambda cur: cur.sum(self.image_ideal(cur))
        return _stabilise(step, self._own(seed), cap, "ascending chain")[0]

    def is_compatible(self, ideal: Ideal) -> bool:
        """Whether the operator maps the ideal into itself."""
        return ideal.contains(self.image_ideal(ideal))

    def is_fixed(self, ideal: Ideal) -> bool:
        return self.image_ideal(ideal).equals(ideal)

    def is_split(self) -> bool:
        """Whether some input maps to 1, i.e. the operator splits Frobenius."""
        return self.image_of_ring().member(self.ring.one)

    def find_splitting(self) -> Polynomial | None:
        """A witness h with cartier_std(f * h, e) = 1, or None if not split.

        The values C(f * x^b) are the descent components f_{q-1-b}
        (C(h * x^b) = h_{q-1-b}).  Cofactor-tracked Gröbner reduction
        expresses 1 = sum_b h_b * f_{q-1-b}, and lifting along descent,
        h = sum_b h_b^q * x^b, turns the combination into a single
        operator value.
        """
        ring = self.ring
        shifted = self._shifted_values(ring.one)
        if not shifted:
            return None
        k, one = ring.field.kernel, ring.one._packed
        basis, cofs = _buchberger([g for _, g in shifted], GREVLEX, True)
        if basis != [one]:  # the reduced basis of the unit ideal is (1)
            return None
        coeffs = cofs[0]  # 1 = sum_b coeffs[b] * f_{q-1-b}
        check = {}
        for c, (_, g) in zip(coeffs, shifted):
            _add_product(check, c, g._packed, ring)
        if check != one:
            raise InvariantViolation("cofactor bookkeeping lost the unit")
        h, shift = {}, ring._shift
        for c, (b, _) in zip(coeffs, shifted):
            c = _new(ring, c).frobenius_power(self.e)._packed
            if c:  # the degree guard first: b < q may not fit a field
                _check_bound(_degree(c, shift) + sum(b), ring.max_degree)
                k.add_terms(h, c, c.values(), ring._pack(b), k.one)
        h = _new(ring, h)
        # The ring's degree bound guards user input.  f * h is one product
        # of two known polynomials, so check it in a copy of the ring whose
        # bound fits it.
        degree = self.multiplier.total_degree() + h.total_degree()
        wide = PolyRing(ring.field, ring.vars, max(degree, ring.max_degree))
        fh = _new(wide, self.multiplier._terms_for(wide)) * _new(wide, h._terms_for(wide))
        if cartier_std(fh, self.e) != wide.one:
            raise InvariantViolation("splitting witness failed verification")
        return h

    def enumerate_compatible_monomial(self, cap: int = 100_000):
        """All compatible squarefree monomial ideals of a split operator
        with a monomial multiplier f = c*x^a, sorted canonically; complete
        because compatible ideals of such operators are fixed, radical and
        monomial.

        Built directly, without a compatibility test: a squarefree monomial
        ideal is compatible exactly when each of its minimal primes
        (x_i : i in S) has S inside T = {i : a_i = q-1}.  For i outside T
        and a generator x^H whose support meets S in i alone (one exists
        because S is minimal), some C(f * x^H * x^b) is a monomial outside
        the prime; primes on T are compatible, and so are intersections.
        So the answers are the intersections over the antichains of subsets
        of T.  Minimal transversals biject those antichains, so the x^S of
        each antichain generate one answer (the empty one the zero ideal, {∅}
        the unit ideal); `cap` bounds their number, the Dedekind number of |T|.
        """
        if len(self.multiplier._packed) != 1:
            raise UsageError("enumeration requires a monomial multiplier")
        if not self.is_split():
            raise UsageError("enumeration requires a split operator")
        a = self.ring._unpack(next(iter(self.multiplier._packed)))
        support = [i for i, x in enumerate(a) if x == self.q - 1]
        total = _ANTICHAIN_COUNTS.get(len(support))
        if total is None or total > cap:
            raise ResourceError(
                f"antichain count {total if total is not None else '>10^20'} "
                f"exceeds the cap {cap}"
            )
        ring, width = self.ring, len(support)
        # x^S for each subset S of T (a bitmask), listed in an answer by S's variables;
        # its monomial, its string and its prepared divisor are made once per call
        variables = {h: [v for n, v in enumerate(support) if h >> n & 1] for h in range(1 << width)}
        xs = {h: ring.monomial(int(i in s) for i in range(ring.nvars)) for h, s in variables.items()}
        lead = {h: min(x._packed) for h, x in xs.items()}
        text = {h: str(x) for h, x in xs.items()}
        prepared = {h: _prepare(x._packed, None, ring) for h, x in xs.items()}
        keyed = []
        for chain in _antichains(width):
            gens = [xs[h] for h in sorted(chain, key=variables.get)]
            # monic monomials, none dividing another: their own reduced basis
            basis = sorted(chain, key=lead.get, reverse=True)
            ideal = Ideal._with_basis(ring, gens, [xs[h] for h in basis], [prepared[h] for h in basis])
            keyed.append((tuple(text[h] for h in basis), ideal))  # its `key()`
        keyed.sort(key=lambda t: t[0])
        return [ideal for _, ideal in keyed]

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "f": str(self.multiplier),
            "e": self.e,
            "ring": self.ring.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CartierOperator":
        ring = PolyRing.from_json(data["ring"])
        return cls(ring, ring.parse(data["f"]), int(data.get("e", 1)))

    def __repr__(self):
        return f"CartierOperator(f={self.multiplier}, e={self.e})"


class SupportReport(_Immutable):
    """Annihilator of the stable image of a cyclic quotient module, and the
    number of steps the image chain took to stabilise."""

    __slots__ = ("ann", "iterations")


class IdealModule(_Immutable):
    """The cyclic quotient R/J with the operator descending to it.

    Construction requires the operator to map J into J, so the action on
    the quotient is well defined.
    """

    __slots__ = ("op", "ideal")

    def __init__(self, op: CartierOperator, ideal: Ideal):
        if ideal.ring != op.ring:
            raise UsageError("ideal outside the operator's ring")
        if not op.is_compatible(ideal):
            raise UsageError("operator does not preserve the ideal; no quotient action")
        self._set(op=op, ideal=ideal)

    def _image_chain(self, cap: int):
        """Stable value of K_0 = R, K_{i+1} = op(K_i) + J, with step count."""
        ring, step = self.op.ring, lambda cur: self.op.image_ideal(cur).sum(self.ideal)
        return _stabilise(step, Ideal(ring, (ring.one,)), cap, "quotient image chain")

    def nilpotence(self, cap: int = DEFAULT_CHAIN_CAP):
        """(is_nilpotent, order-or-None) for the quotient module.

        The chain descends, and K_i = J makes every later K_j = J.  So the
        quotient is nilpotent exactly when J contains the stable value, and
        its order is then the step count."""
        stable, steps = self._image_chain(cap)
        return (True, steps) if self.ideal.contains(stable) else (False, None)

    def supp_crys(self, cap: int = DEFAULT_CHAIN_CAP) -> SupportReport:
        """Annihilator of the stable image: the reduced locus where the
        quotient stays non-nilpotent after localization."""
        stable, iterations = self._image_chain(cap)
        ann = self.ideal.colon(stable)
        return SupportReport(ann=ann, iterations=iterations)

    def annihilator_submodule(self, ideal: Ideal):
        """((J : I), I <= J): the preimage of the I-torsion of R/J, and
        whether that torsion is everything."""
        result = self.ideal.colon(self.op._own(ideal))
        stable = result.sum(self.ideal)
        if not stable.contains(self.op.image_ideal(result)):
            raise InvariantViolation("torsion preimage is not operator-stable")
        flag = self.ideal.contains(ideal)
        return result, flag
