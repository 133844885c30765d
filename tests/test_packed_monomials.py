"""The packed monomial layout of `PolyRing`, against exponent-tuple oracles.

A monomial is one int: x_i in field i (x_1 lowest), each field
`max_degree.bit_length()` bits plus a guard bit, and minus the total degree
above the fields.  These tests check the layout's arithmetic and orders
against plain tuple arithmetic, the exponent bound that keeps every field
in place, and that every public path hands out polynomials whose terms are
keyed by packed ints and nothing else.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cartier.errors import ResourceError, UsageError
from cartier.field import FieldSpec
from cartier.operators import CartierOperator, cartier_std, frobenius_descent
from cartier.poly import (
    GREVLEX,
    LEX,
    Ideal,
    Polynomial,
    PolyRing,
    _lcm,
    divide,
    elimination_order,
    groebner_basis,
)

# bounds whose bit length changes just above them catch off-by-one widths
BOUNDS = [1, 2, 7, 8, 200, 255, 256]


@st.composite
def ring_and_exponents(draw):
    """A ring of 1-6 variables, two exponent vectors within its bound and
    one that fits on top of the first without passing the bound."""
    n = draw(st.integers(1, 6))
    bound = draw(st.sampled_from(BOUNDS))
    ring = PolyRing(FieldSpec(2, 1), [f"x{i}" for i in range(n)], bound)
    exps = st.lists(st.integers(0, bound), min_size=n, max_size=n).map(tuple)
    a, b = draw(exps), draw(exps)
    c = tuple(draw(st.integers(0, bound - x)) for x in a)
    return ring, a, b, c


@settings(max_examples=400, deadline=None)
@given(ring_and_exponents())
def test_layout_arithmetic_matches_the_tuple_oracle(case):
    ring, a, b, c = case
    pa, pb, pc = ring._pack(a), ring._pack(b), ring._pack(c)
    assert ring._unpack(pa) == a and ring._pack(list(a)) == pa
    assert ring._pack((0,) * len(a)) == 0
    # product and quotient
    product = tuple(x + y for x, y in zip(a, c))
    assert pa + pc == ring._pack(product)
    assert ring._pack(product) - pc == pa
    # divisibility by the guard bits
    assert (not (pa - pb) & ring._guards) == all(y <= x for x, y in zip(a, b))
    assert not (pa + pc - pa) & ring._guards
    # degree, lcm and coprimality
    assert -(pa >> ring._shift) == sum(a)
    assert _lcm(pa, pb, ring) == ring._pack(tuple(map(max, a, b)))
    assert (_lcm(pa, pb, ring) == pa + pb) == (not any(x * y for x, y in zip(a, b)))


@settings(max_examples=400, deadline=None)
@given(ring_and_exponents(), st.integers(0, 7))
def test_packed_ranks_order_like_the_tuple_ranks(case, block):
    ring, a, b, _ = case
    pa, pb = ring._pack(a), ring._pack(b)
    orders = [GREVLEX, LEX, elimination_order(block)]
    for order in orders:
        rank = order._packed_rank(ring)
        ra, rb = (pa, pb) if rank is None else (rank(pa), rank(pb))
        assert (ra < rb) == (order.rank(a) < order.rank(b)), order
        assert (ra == rb) == (a == b), order


# -- the exponent bound ---------------------------------------------------------


@pytest.mark.parametrize("bound", [7, 8, 200])
def test_constructors_refuse_an_exponent_above_the_bound(bound):
    ring = PolyRing(FieldSpec(7, 1), ("x", "y"), bound)
    one = ring.field.one
    assert ring.monomial((bound, 0)).leading(GREVLEX) == ((bound, 0), one)
    assert Polynomial(ring, {(0, bound): one}).terms == {(0, bound): one}
    # bound + 1 fits the field for 8 and 200, and 2^bit_length reaches the
    # guard bit
    for x in (bound + 1, 1 << bound.bit_length(), 2**2000):
        shown = x if x < 2**1000 else "of 2^2000 or more"
        message = re.escape(f"exponent {shown} exceeds the configured bound {bound}")
        with pytest.raises(ResourceError, match=message):
            ring.monomial((0, x))
        with pytest.raises(ResourceError, match=message):
            Polynomial(ring, {(x, 0): one, (0, 0): one})
    # the zero coefficient does not excuse the exponent
    with pytest.raises(ResourceError):
        ring.monomial((bound + 1, 0), ring.field.zero)
    # a bound that gives no layout
    for bad in (-1, 2.5, "8"):
        with pytest.raises(UsageError, match="degree bound"):
            PolyRing(FieldSpec(7, 1), ("x",), bad)


def test_a_variable_fits_its_field_in_bound_zero():
    # products are guarded by the bound, but x itself is not
    ring = PolyRing(FieldSpec(3, 1), ("x", "y"), 0)
    x = ring.var("x")
    assert str(x) == str(ring.parse("x")) == "x" and x.leading(GREVLEX)[0] == (1, 0)
    assert str(x + ring.parse("y + 1")) == "x + y + 1"
    with pytest.raises(ResourceError, match="product degree 2 exceeds the configured bound 0"):
        x * x
    with pytest.raises(ResourceError, match="exponent 1 exceeds the configured bound 0"):
        ring.monomial((1, 0))


@pytest.mark.parametrize("p, f, degree", [(1000003, "x^3", 2000001), (601, "x^3*y", 1196)])
def test_a_splitting_lift_past_the_fields_meets_the_degree_guard(p, f, degree):
    # the lift x^b has b < q, and q - 1 is wider than a field here
    ring = PolyRing(FieldSpec(p, 1), ("x", "y"))
    message = f"product degree {degree} exceeds the configured bound 200"
    with pytest.raises(ResourceError, match=message):
        CartierOperator(ring, ring.parse(f)).find_splitting()


def test_division_past_the_fields_raises():
    # division has no degree guard: under lex, x -> y^5 takes x^n to y^(5n),
    # and x*y -> z^2 takes x^200*y^200 to z^400 under grevlex; the fields
    # of bound 200 hold exponents up to 255
    ring = PolyRing(FieldSpec(7, 1), ("x", "y", "z"))
    x, y, z = (ring.var(v) for v in "xyz")
    assert str(divide(x**51, [x - y**5], LEX)) == "y^255"
    message = "division reached an exponent above 255, past the configured bound 200"
    with pytest.raises(ResourceError, match=message):
        divide(x**52, [x - y**5], LEX)
    with pytest.raises(ResourceError, match=message):
        groebner_basis([x**60, x - y**5], LEX)
    big = Polynomial(ring, {(200, 200, 0): ring.field.one})
    with pytest.raises(ResourceError, match=message):
        Ideal(ring, (x * y - z**2,)).normal_form(big)


def test_intersect_lifts_a_generator_of_the_top_degree():
    # t * x^8 has degree 9 in the auxiliary ring, each exponent in bound
    ring = PolyRing(FieldSpec(7, 1), ("x", "y"), 8)
    x, y = ring.var("x"), ring.var("y")
    meet = Ideal(ring, (x**8, x)).intersect(Ideal(ring, (x,)))
    assert meet.canonical_strings() == ["x"]
    meet = Ideal(ring, (x * y**7, x)).intersect(Ideal(ring, (x**2,)))
    assert meet.canonical_strings() == ["x^2"]
    assert Ideal(ring, (x**8,)).intersect(Ideal(ring, ())).canonical_strings() == []


@pytest.mark.parametrize("bound", [8, 255])
def test_intersect_of_generators_of_the_top_degree(bound):
    # the auxiliary ring's bound is one higher, so t * x^bound fits; at 255
    # that widens its fields, and the lift repacks instead of shifting
    ring = PolyRing(FieldSpec(7, 1), ("x", "y"), bound)
    x, y = ring.var("x"), ring.var("y")
    top = Ideal(ring, (x**bound,))
    assert top.intersect(Ideal(ring, (x**bound,))).canonical_strings() == [f"x^{bound}"]
    meet = Ideal(ring, (x ** (bound - 1) * y,)).intersect(Ideal(ring, (x * y, y**2)))
    assert meet.canonical_strings() == [f"x^{bound - 1}*y"]
    assert top.intersect(Ideal(ring, (x,))).canonical_strings() == [f"x^{bound}"]
    # the answer x^bound * y lies above the bound, and the error names the
    # ring's bound, not the auxiliary ring's
    for other in (y, x * y):
        message = f"^intersection degree exceeds the configured bound {bound}$"
        with pytest.raises(ResourceError, match=message):
            top.intersect(Ideal(ring, (other,)))
    assert (ring._aux._width == ring._width) == (bound == 8)


def test_intersect_builds_its_auxiliary_ring_once_per_ring(monkeypatch):
    field = FieldSpec(5, 1)
    small, large = PolyRing(field, ("x", "t"), 10), PolyRing(field, ("x", "t"), 300)
    aux = small._aux
    assert aux.vars == ("t_", "x", "t") and aux.max_degree == 11
    x, t = small.var("x"), small.var("t")
    built, init = [], PolyRing.__init__
    monkeypatch.setattr(PolyRing, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    for _ in range(2):
        meet = Ideal(small, (x**2,)).intersect(Ideal(small, (x * t,)))
        assert meet.canonical_strings() == ["x^2*t"] and small._aux is aux
    assert built == []
    # equal rings, but each lays out its own auxiliary ring
    assert large == small and large._aux == aux and large._aux._width != aux._width
    assert "_aux" not in small.__getstate__()


def test_rings_that_differ_in_the_bound_share_their_polynomials():
    # the bound sets the field width (5 bits and 10 bits here) but is not
    # part of the ring's value
    field = FieldSpec(5, 1)
    small, large = PolyRing(field, ("x", "y"), 10), PolyRing(field, ("x", "y"), 300)
    assert small == large and small._width != large._width
    f, g = small.parse("x^3*y + 2*y^10"), large.parse("x^3*y + 2*y^10")
    assert f == g and g == f and hash(f) == hash(g) and f != large.parse("x^3*y")
    assert f + g == small.parse("2*x^3*y + 4*y^10") and str(g - f) == "0"
    assert Ideal(small, (g,)).member(f) and Ideal(large, (f,)).member(g * large.var("x"))
    assert groebner_basis([f, large.parse("x")]) == groebner_basis([g, small.parse("x")])
    ideal = Ideal(small, (small.parse("x^2*y + y^3"),))
    other = Ideal(large, (large.parse("x*y^2"),))
    meet = Ideal(small, (small.parse("x^3*y^2 + x*y^4"),))
    assert ideal.intersect(other).equals(meet) and other.intersect(ideal).equals(meet)
    with pytest.raises(ResourceError, match="exponent 11 exceeds the configured bound 10"):
        f + large.parse("x^11")


# -- every public path hands out packed monomials ---------------------------------


def assert_packed(*polys):
    """Every term key is an int in its ring's layout: a stray tuple would
    make one monomial two dict keys."""
    for f in polys:
        assert isinstance(f, Polynomial)
        for m in f._packed:
            assert type(m) is int and f.ring._pack(f.ring._unpack(m)) == m, (f, m)


def test_every_public_path_keeps_monomials_packed():
    field = FieldSpec(7, 1)
    ring = PolyRing(field, ("x", "y", "z"))
    x, y, z = (ring.var(v) for v in "xyz")
    f, g = ring.parse("x^2*y + 3*y*z - 1"), ring.parse("x*z^2 - y")
    assert_packed(f, g, x, ring.one, ring.zero, ring.constant(3), ring.constant(0))
    assert_packed(ring.monomial((1, 2, 3)), Polynomial(ring, {(0, 1, 0): field.one}))
    assert_packed(f + g, f - g, -f, f * g, f * 3, 2 * g, f**3, f**0)
    assert_packed(f.frobenius_power(1), f.monic(LEX), *frobenius_descent(f**7, 1).values())
    assert_packed(cartier_std(f**6 * g, 1))
    for order in (GREVLEX, LEX, elimination_order(1)):
        basis, cofs = groebner_basis([f, g], order, track=True)
        assert_packed(*groebner_basis([f, g], order), *basis, *(c for cof in cofs for c in cof))
        r, quots = divide(f * x + z, [f, g], order, track=True)
        assert_packed(r, *quots, Ideal(ring, (f, g)).normal_form(z**3, order))
    ideal = Ideal(ring, (f, g))
    assert_packed(*ideal.intersect(Ideal(ring, (x * y,))).groebner())
    assert_packed(*ideal.colon(Ideal(ring, (y, z))).groebner())
    assert_packed(*Ideal(ring, (x**2 * y, z**3)).monomial_radical().gens)
    rxy = PolyRing(FieldSpec(7, 1), ("x", "y"))
    witness = CartierOperator(rxy, rxy.parse("x^96*y^96+x*y"), 2).find_splitting()
    assert str(witness) == "x^47*y^47"
    assert_packed(witness)
    rng = random.Random(3)
    op = CartierOperator(ring, ring.parse("x^6*y^6*z^6 + x*y^3"), 1)
    assert_packed(op.find_splitting(), *op.image_ideal(ideal).gens)
    assert_packed(*op.stable_image(ideal)[0].groebner())
    h = ring.zero
    for _ in range(20):
        c = field.from_int(rng.randrange(7))
        h = h + ring.monomial([rng.randrange(4) for _ in range(3)], c)
    assert_packed(h, Ideal(ring, (h,)).normal_form(f))
