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

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, InvariantViolation, ResourceError, UsageError
from .field import FieldSpec, _Immutable
from .poly import (
    GREVLEX,
    Ideal,
    Polynomial,
    PolyRing,
    _add_product,
    _buchberger,
    _new,
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
    _require_twist(ring.field, e)
    q = ring.field.p**e
    t = g._packed
    parts: dict = {}
    for a, root in zip(t, ring.field.kernel.frob_row(t.values(), -e)):
        parts.setdefault(tuple(x % q for x in a), {})[tuple(x // q for x in a)] = root
    return {b: _new(ring, part) for b, part in parts.items()}


def cartier_std(g: Polynomial, e: int) -> Polynomial:
    """Classical Cartier operator at level q = p^e, extended additively:
    the descent component g_(q-1, ..., q-1)."""
    ring = g.ring
    _require_twist(ring.field, e)
    q = ring.field.p**e
    t = g._packed
    kept = [a for a in t if not any((x + 1) % q for x in a)]
    roots = ring.field.kernel.frob_row([t[a] for a in kept], -e)
    return _new(ring, {tuple((x + 1) // q - 1 for x in a): r for a, r in zip(kept, roots)})


def _require_twist(field: FieldSpec, e: int):
    # q-th roots always exist in GF(p^d) (the field is perfect), so any
    # level is meaningful here; composites live at level 2e even when the
    # base level divides d.
    if e < 1:
        raise UsageError("operator level must be >= 1")


class CartierOperator(_Immutable):
    """The operator g -> cartier_std(f * g, e) on a polynomial ring."""

    __slots__ = ("ring", "multiplier", "e")

    def __init__(self, ring: PolyRing, multiplier: Polynomial, e: int = 1):
        if multiplier.ring != ring:
            raise UsageError("multiplier outside the ring")
        _require_twist(ring.field, e)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "e", e)

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

    def image_ideal(self, ideal: Ideal) -> Ideal:
        """The ideal generated by the operator values on the ideal.

        Generators C(f * x^b * g_i) for b in [0, q)^n span the image as an
        R-module because of q^(-1)-linearity.  By the identity
        C(h * x^b) = h_{q-1-b} they are the nonzero Frobenius-descent
        components of f * g_i, listed with b ascending.
        """
        if ideal.ring != self.ring:
            raise UsageError("ideal outside the ring")
        gens = tuple(
            value for g in ideal.gens for _, value in self._shifted_values(g)
        )
        return Ideal(self.ring, gens)

    def image_of_ring(self) -> Ideal:
        return self.image_ideal(Ideal(self.ring, (self.ring.one,)))

    def stable_image(self, ideal: Ideal | None = None, cap: int = DEFAULT_CHAIN_CAP):
        """Stable value of the descending image chain, plus the number of
        applications it took.  Starts from the whole ring by default."""
        cur = ideal if ideal is not None else Ideal(self.ring, (self.ring.one,))
        for i in range(cap):
            nxt = self.image_ideal(cur)
            if nxt.equals(cur):
                return cur, i
            cur = nxt
        raise ResourceError(
            "image chain did not stabilise within "
            f"{cap} steps; last two ideals {cur.canonical_strings()} and "
            f"{self.image_ideal(cur).canonical_strings()}"
        )

    def smallest_stable_containing(
        self, seed: Ideal, cap: int = DEFAULT_CHAIN_CAP
    ) -> Ideal:
        """Least ideal containing the seed that the operator maps into itself,
        computed as the union of the seed with all iterated images."""
        cur = seed
        for _ in range(cap):
            nxt = cur.sum(self.image_ideal(cur))
            if nxt.equals(cur):
                return cur
            cur = nxt
        raise ResourceError(f"ascending chain did not stabilise within {cap} steps")

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
        k, bound, one = ring.field.kernel, ring.max_degree, ring.one._packed
        basis, cofs = _buchberger([g for _, g in shifted], GREVLEX, True)
        if basis != [one]:  # the reduced basis of the unit ideal is (1)
            return None
        coeffs = cofs[0]  # 1 = sum_b coeffs[b] * f_{q-1-b}
        check = {}
        for c, (_, g) in zip(coeffs, shifted):
            _add_product(check, c, g._packed, k, bound)
        if check != one:
            raise InvariantViolation("cofactor bookkeeping lost the unit")
        h = {}
        for c, (b, _) in zip(coeffs, shifted):
            c = _new(ring, c).frobenius_power(self.e)._packed
            _add_product(h, c, {b: k.one}, k, bound)
        h = _new(ring, h)
        # The ring's degree bound guards user input.  f * h is one product
        # of two known polynomials, so check it in a copy of the ring whose
        # bound fits it.
        degree = self.multiplier.total_degree() + h.total_degree()
        wide = PolyRing(ring.field, ring.vars, max(degree, ring.max_degree))
        fh = _new(wide, self.multiplier._packed) * _new(wide, h._packed)
        if cartier_std(fh, self.e) != wide.one:
            raise InvariantViolation("splitting witness failed verification")
        return h

    def enumerate_compatible_monomial(self, cap: int = 100_000):
        """All compatible squarefree monomial ideals of a split operator
        with a monomial multiplier, sorted canonically; complete because
        compatible ideals of such operators are fixed, radical and monomial.
        """
        if len(self.multiplier._packed) != 1:
            raise UsageError("enumeration requires a monomial multiplier")
        if not self.is_split():
            raise UsageError("enumeration requires a split operator")
        n = self.ring.nvars
        total = _ANTICHAIN_COUNTS.get(n)
        if total is None or total > cap:
            raise ResourceError(
                f"antichain count {total if total is not None else '>10^20'} "
                f"exceeds the cap {cap}"
            )
        subsets = []
        for r in range(n + 1):
            subsets.extend(frozenset(c) for c in combinations(range(n), r))
        antichains = []

        def extend(start, chosen):
            antichains.append(tuple(chosen))
            for i in range(start, len(subsets)):
                s = subsets[i]
                if all(not (s <= t or t <= s) for t in chosen):
                    chosen.append(s)
                    extend(i + 1, chosen)
                    chosen.pop()

        extend(0, [])
        out = []
        for chain in antichains:
            gens = tuple(
                self.ring.monomial(tuple(1 if i in s else 0 for i in range(n)))
                for s in sorted(chain, key=sorted)
            )
            ideal = Ideal(self.ring, gens)
            if self.is_compatible(ideal):
                out.append(ideal)
        out.sort(key=lambda i: i.key())
        return out

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


@dataclass(frozen=True)
class SupportReport:
    """Annihilator of the stable image of a cyclic quotient module."""

    ann: Ideal
    iterations: int


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
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "ideal", ideal)

    def _image_chain(self, cap: int):
        """Stable value of K_0 = R, K_{i+1} = op(K_i) + J, with step count."""
        ring = self.op.ring
        cur = Ideal(ring, (ring.one,))
        for i in range(cap):
            nxt = self.op.image_ideal(cur).sum(self.ideal)
            if nxt.equals(cur):
                return cur, i
            cur = nxt
        raise ResourceError(f"quotient image chain did not stabilise within {cap} steps")

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
        if ideal.ring != self.op.ring:
            raise UsageError("ideal outside the ring")
        result = self.ideal.colon(ideal)
        stable = result.sum(self.ideal)
        if not stable.contains(self.op.image_ideal(result)):
            raise InvariantViolation("torsion preimage is not operator-stable")
        flag = self.ideal.contains(ideal)
        return result, flag
