"""Cartier operators on polynomial rings: descent, images, splittings,
compatibility, and quotient-module analysis."""

import random
from functools import partial
from itertools import product

import pytest

from cartier import operators, poly
from cartier.errors import ResourceError, UsageError
from cartier.field import FieldSpec
from cartier.poly import Ideal, PolyRing, groebner_basis
from cartier.operators import (
    CartierOperator,
    IdealModule,
    cartier_std,
    frobenius_descent,
)

from conftest import antichains_of_subsets, oracle_compatible_monomial, oracle_stabilise
from test_poly import outside_x, random_poly


@pytest.fixture
def Rx(f2):
    return PolyRing(f2, ("x",))


@pytest.fixture
def Rxy(f2):
    return PolyRing(f2, ("x", "y"))


def operator_corpus():
    """Small operators over F_2 and F_3 in one and two variables."""
    ops = []
    for p in (2, 3):
        spec = FieldSpec(p, 1)
        rx = PolyRing(spec, ("x",))
        x = rx.var("x")
        for f in (rx.one, x, x**2, x**3, x**4, x**5, x + rx.one):
            ops.append(CartierOperator(rx, f, 1))
        rxy = PolyRing(spec, ("x", "y"))
        xx, yy = rxy.var("x"), rxy.var("y")
        for f in (xx * yy, xx**2 * yy, xx * yy**2, xx + yy, xx**3 * yy**3):
            ops.append(CartierOperator(rxy, f, 1))
    return ops


def test_polynomial_code_stays_on_packed_terms(gf4, element_op_calls):
    ring = PolyRing(gf4, ("x", "y"))
    f = ring.parse("[0,1]*x^3*y + (x + [1,1]*y)^2 - x*y + -[1,1]")
    g = ring.parse("x*y + 1")
    h = (f + g) * g**3 - f * gf4.gen + 3 * f
    assert not h.frobenius_power(1).is_zero
    assert cartier_std(h, 2) == cartier_std(cartier_std(h, 1), 1)
    assert frobenius_descent(h, 2)
    op = CartierOperator(ring, ring.parse("x*y + [0,1]*x^3*y^2 + x^2*y^5"), 1)
    assert op.find_splitting() is not None
    ideal = Ideal(ring, (f, g))
    assert op.stable_image(op.image_ideal(ideal))[0].gens
    assert ideal.intersect(Ideal(ring, (h,))).gens
    assert ideal.colon(Ideal(ring, (ring.var("x"),))).gens
    assert element_op_calls == []
    gf4.one * gf4.one
    assert len(element_op_calls) == 1  # the counter sees element arithmetic


# -- descent ---------------------------------------------------------------


def test_descent_of_one(Rx):
    parts = frobenius_descent(Rx.one, 1)
    assert set(parts) == {(0,)}
    assert parts[(0,)] == Rx.one


def test_descent_of_cube(Rx):
    x = Rx.var("x")
    parts = frobenius_descent(x**3, 1)
    assert parts[(1,)] == x
    assert set(parts) == {(1,)}


def test_descent_reconstruction_random():
    rng = random.Random(101)
    rings = [
        PolyRing(FieldSpec(2, 1), ("x", "y")),
        PolyRing(FieldSpec(3, 1), ("x",)),
        PolyRing(FieldSpec(2, 2), ("x", "y")),
    ]
    for i in range(300):
        ring = rings[i % len(rings)]
        g = random_poly(rng, ring, max_terms=5, max_exp=6)
        parts = frobenius_descent(g, ring.field.e)
        acc = ring.zero
        for b, gb in parts.items():
            acc = acc + gb.frobenius_power(ring.field.e) * ring.monomial(b)
        assert acc == g


# -- the classical operator ---------------------------------------------------


def test_classical_values_f2(Rx):
    x = Rx.var("x")
    assert cartier_std(x, 1) == Rx.one
    assert cartier_std(Rx.one, 1).is_zero
    assert cartier_std(x**3, 1) == x


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_top_monomial_maps_to_one(p, n):
    ring = PolyRing(FieldSpec(p, 1), tuple(f"x{i}" for i in range(n)))
    top = ring.monomial((p - 1,) * n)
    assert cartier_std(top, 1) == ring.one


def test_monomial_formula_all_small_exponents(Rx):
    x = Rx.var("x")
    for a in range(25):
        image = cartier_std(x**a, 1)
        if (a + 1) % 2 == 0:
            assert image == x ** ((a + 1) // 2 - 1)
        else:
            assert image.is_zero


def test_twisted_linearity_of_classical_operator():
    rng = random.Random(303)
    ring = PolyRing(FieldSpec(2, 2), ("x", "y"))
    for _ in range(100):
        g = random_poly(rng, ring, 3, 3)
        h = random_poly(rng, ring, 3, 3)
        lhs = cartier_std(g.frobenius_power(1) * h, 1)
        rhs = g * cartier_std(h, 1)
        assert lhs == rhs


def test_coefficient_roots_over_gf4():
    gf4 = FieldSpec(2, 2)
    ring = PolyRing(gf4, ("x",))
    w = gf4.gen
    g = ring.monomial((1,), w)
    assert cartier_std(g, 1) == ring.constant(w * w)  # w^(1/2) = w^2


# -- multiplier operators -------------------------------------------------------


def test_op_with_unit_multiplier_is_classical(Rx):
    op = CartierOperator(Rx, Rx.one, 1)
    x = Rx.var("x")
    for g in (Rx.one, x, x**3, x**5 + x**2):
        assert op.apply(g) == cartier_std(g, 1)


def test_op_apply_example(Rx):
    x = Rx.var("x")
    op = CartierOperator(Rx, x**2, 1)
    assert op.apply(x) == x


def test_op_apply_zero(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    assert op.apply(Rx.zero).is_zero


def test_op_semilinearity_random():
    rng = random.Random(11)
    rings = [
        PolyRing(FieldSpec(2, 1), ("x",)),
        PolyRing(FieldSpec(3, 1), ("x", "y")),
        PolyRing(FieldSpec(2, 2), ("x", "y")),
    ]
    for ring in rings:
        op = CartierOperator(ring, random_poly(rng, ring, 3, 2) + ring.one, 1)
        q = ring.field.q
        for _ in range(100):
            r = random_poly(rng, ring, 2, 2)
            g = random_poly(rng, ring, 3, 3)
            lhs = op.apply(r.frobenius_power(ring.field.e) * g)
            rhs = r * op.apply(g)
            assert lhs == rhs


def test_composition_identity(Rx):
    x = Rx.var("x")
    op_a = CartierOperator(Rx, x**2, 1)
    op_b = CartierOperator(Rx, x, 1)
    comp = op_a.compose(op_b)
    assert comp.e == 2
    rng = random.Random(9)
    for _ in range(30):
        g = random_poly(rng, Rx, 4, 8)
        assert comp.apply(g) == op_a.apply(op_b.apply(g))


# -- image ideals ------------------------------------------------------------------


def test_image_of_ring_f2x(Rx):
    x = Rx.var("x")
    op = CartierOperator(Rx, x**2, 1)
    assert op.image_of_ring().canonical_strings() == ["x"]


def test_image_zero_multiplier(Rx):
    op = CartierOperator(Rx, Rx.zero, 1)
    assert op.image_of_ring().is_zero


def test_image_contains_one_for_split(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    assert op.image_of_ring().is_unit


def test_image_equals_span_of_values(Rx):
    # the generator recipe really spans all operator values on the ideal
    rng = random.Random(21)
    x = Rx.var("x")
    op = CartierOperator(Rx, x**3 + x, 1)
    ideal = Ideal(Rx, (x**2,))
    image = op.image_ideal(ideal)
    for _ in range(100):
        h = random_poly(rng, Rx, 3, 5)
        value = op.apply(h * x**2)
        assert image.member(value)


def shifted_product_generators(op, ideal):
    """Reference recipe for the image generators: C(f * g * x^b) for every
    generator g and every b in [0, q)^n in product order, zeros dropped."""
    gens = []
    for g in ideal.gens:
        if g.is_zero:
            continue
        fg = op.multiplier * g
        for b in product(range(op.q), repeat=op.ring.nvars):
            value = cartier_std(fg * op.ring.monomial(b), op.e)
            if not value.is_zero:
                gens.append(value)
    return gens


# (p, d, e) with q = p^e in {2, 3, 4, 5, 7, 9}; GF(4) for nontrivial roots
@pytest.mark.parametrize(
    "p,d,e", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 2), (5, 1, 1), (7, 1, 1), (3, 1, 2)]
)
def test_image_generators_match_shifted_products(p, d, e):
    rng = random.Random(100 * p + 10 * d + e)
    spec = FieldSpec(p, d)
    q = p**e
    for names in (("x",), ("x", "y")):
        ring = PolyRing(spec, names)
        for _ in range(15):
            op = CartierOperator(ring, random_poly(rng, ring, 4, 2 * q), e)
            ideal = Ideal(ring, tuple(random_poly(rng, ring, 3, q) for _ in range(2)))
            assert list(op.image_ideal(ideal).gens) == shifted_product_generators(op, ideal)


# -- stable images -------------------------------------------------------------------


def test_stable_image_x2(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    stable, iters = op.stable_image()
    assert stable.canonical_strings() == ["x"]
    assert op.image_ideal(stable).equals(stable)


def test_stable_image_x4(Rx):
    op = CartierOperator(Rx, Rx.parse("x^4"), 1)
    stable, iters = op.stable_image()
    assert stable.canonical_strings() == ["x^3"]
    assert op.image_ideal(stable).equals(stable)


def test_stable_image_unit(Rx):
    op = CartierOperator(Rx, Rx.one, 1)
    stable, _ = op.stable_image()
    assert stable.is_unit


def test_stable_image_cap(Rx):
    op = CartierOperator(Rx, Rx.parse("x^4"), 1)
    with pytest.raises(ResourceError):
        op.stable_image(cap=1)


def oracle_chain(step, start):
    """(last ideal, steps that changed the ideal) of start, step(start), ...
    up to the first ideal that step gives back."""
    cur, steps = start, 0
    while not step(cur).equals(cur):
        cur, steps = step(cur), steps + 1
    return cur, steps


def counted_chains(chain):
    """(run(cap), step, start) of one counted chain, on every corpus
    operator and a few starting ideals; run gives (ideal, steps) with
    None for what the method does not return."""
    for op in operator_corpus():
        ring = op.ring
        x = ring.var(ring.vars[0])
        for gens in [(ring.one,), (x**4,), (x**5 + ring.one,)]:
            seed = Ideal(ring, gens)
            if chain == "stable_image":
                yield partial(op.stable_image, seed), op.image_ideal, seed
            elif chain == "smallest_stable_containing":
                run = lambda cap, op=op, seed=seed: (op.smallest_stable_containing(seed, cap), None)
                yield run, lambda cur, op=op: cur.sum(op.image_ideal(cur)), seed
            else:
                module = IdealModule(op, op.smallest_stable_containing(seed))
                run = lambda cap, m=module: (None, m.supp_crys(cap).iterations)
                if chain == "nilpotence":  # the order, None when not nilpotent
                    run = lambda cap, m=module: (None, m.nilpotence(cap)[1])
                step = lambda cur, op=op, m=module: op.image_ideal(cur).sum(m.ideal)
                yield run, step, Ideal(ring, (ring.one,))


@pytest.mark.parametrize("chain", ["stable_image", "smallest_stable_containing", "supp_crys"])
def test_a_cap_equal_to_the_step_count_answers(chain):
    longest = 0
    for run, step, start in counted_chains(chain):
        stable, steps = oracle_chain(step, start)
        ideal, count = run(steps)
        assert ideal is None or ideal.equals(stable)
        assert count is None or count == steps
        if steps:
            with pytest.raises(ResourceError, match=f"within {steps - 1} steps; last two"):
                run(steps - 1)
        longest = max(longest, steps)
    assert longest >= 2


def test_corpus_chains_stabilize_and_are_fixed():
    for op in operator_corpus():
        stable, iters = op.stable_image(cap=64)
        assert iters <= 64
        # one extra application leaves the stable ideal unchanged
        assert op.image_ideal(stable).equals(stable)


# -- smallest stable ideal over a seed --------------------------------------------------


def test_smallest_stable_seed_already_stable(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    seed = Ideal(Rx, (Rx.var("x"),))
    assert op.smallest_stable_containing(seed).equals(seed)


def test_smallest_stable_unit_seed(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    assert op.smallest_stable_containing(Ideal(Rx, (Rx.one,))).is_unit


def test_smallest_stable_one_round(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    result = op.smallest_stable_containing(Ideal(Rx, (Rx.parse("x^3"),)))
    assert result.canonical_strings() == ["x^2"]


def test_smallest_stable_split_operator_reaches_unit(Rx):
    # C(x) = 1 for the unit multiplier, so any nonzero seed grows to (1)
    op = CartierOperator(Rx, Rx.one, 1)
    result = op.smallest_stable_containing(Ideal(Rx, (Rx.parse("x^2"),)))
    assert result.is_unit


def test_smallest_stable_minimality_on_corpus():
    # the result is stable, contains the seed, and each step was forced
    rng = random.Random(6)
    for op in operator_corpus()[:10]:
        ring = op.ring
        seed_poly = random_poly(rng, ring, 2, 3)
        if seed_poly.is_zero:
            continue
        seed = Ideal(ring, (seed_poly,))
        result = op.smallest_stable_containing(seed)
        assert result.contains(seed)
        assert result.contains(op.image_ideal(result))


def test_smallest_stable_generators_are_all_needed():
    # dropping any reduced generator outside the seed loses either the
    # seed containment or the stability of the ideal
    f2 = FieldSpec(2, 1)
    ring = PolyRing(f2, ("x",))
    x = ring.var("x")
    cases = [
        (CartierOperator(ring, x**2, 1), Ideal(ring, (x**3,))),
        (CartierOperator(ring, x**4, 1), Ideal(ring, (x**5,))),
        (CartierOperator(ring, ring.one, 1), Ideal(ring, (x**2,))),
    ]
    for op, seed in cases:
        result = op.smallest_stable_containing(seed)
        gens = result.groebner()
        for i in range(len(gens)):
            if seed.member(gens[i]):
                continue
            smaller = Ideal(ring, gens[:i] + gens[i + 1 :])
            if smaller.equals(result):
                continue  # redundant generator, nothing to conclude
            broke_containment = not smaller.contains(seed)
            broke_stability = not smaller.contains(op.image_ideal(smaller))
            assert broke_containment or broke_stability


# -- compatibility ------------------------------------------------------------------------


def test_compatible_examples(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    assert op.is_compatible(Ideal(Rxy, (Rxy.var("x"),)))
    assert op.is_fixed(Ideal(Rxy, (Rxy.var("x"),)))
    assert not op.is_compatible(Ideal(Rxy, (Rxy.parse("x^2"),)))


def test_zero_and_unit_always_compatible_for_split(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    assert op.is_compatible(Ideal(Rxy, ()))
    assert op.is_compatible(Ideal(Rxy, (Rxy.one,)))


# -- splittings ------------------------------------------------------------------------------


def test_split_xy(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    assert op.is_split()
    h = op.find_splitting()
    assert h is not None
    assert op.apply(h) == Rxy.one


def test_not_split_x2(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    assert not op.is_split()
    assert op.find_splitting() is None


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_standard_trace_splitting(p, n):
    ring = PolyRing(FieldSpec(p, 1), tuple(f"x{i}" for i in range(n)))
    f = ring.monomial((p - 1,) * n)
    op = CartierOperator(ring, f, 1)
    assert op.apply(ring.one) == ring.one  # h = 1 already works
    assert op.is_split()
    h = op.find_splitting()
    assert h is not None and op.apply(h) == ring.one


def test_split_witness_nontrivial(Rx):
    # C_1 over F_2[x]: C(x) = 1, so the witness must involve x
    op = CartierOperator(Rx, Rx.one, 1)
    h = op.find_splitting()
    assert h is not None and op.apply(h) == Rx.one
    assert not h.is_zero


@pytest.fixture
def op_q49():
    # shifted products f * x^b for b in [0, 49)^4 exceed the degree bound
    ring = PolyRing(FieldSpec(7, 1), ("x", "y", "z", "w"))
    return CartierOperator(ring, ring.parse("x^6*y^6*z^6*w^6+x*y*z*w"), 2)


def test_stable_image_q49_four_variables(op_q49):
    stable, iterations = op_q49.stable_image()
    assert stable.canonical_strings() == ["1"]
    assert iterations == 0


def test_find_splitting_q49_four_variables(op_q49):
    h = op_q49.find_splitting()
    assert h is not None and op_q49.apply(h) == op_q49.ring.one


def test_find_splitting_witness_past_degree_bound():
    # deg f + deg h = 192 + 94 exceeds the ring's bound of 200
    ring = PolyRing(FieldSpec(7, 1), ("x", "y"))
    op = CartierOperator(ring, ring.parse("x^96*y^96+x*y"), 2)
    h = op.find_splitting()
    assert str(h) == "x^47*y^47"
    wide = PolyRing(ring.field, ring.vars, 400)
    f, h = wide.parse("x^96*y^96+x*y"), wide.parse(str(h))
    assert cartier_std(f * h, 2) == wide.one


# -- compatible-ideal enumeration ------------------------------------------------------------


def test_enumerate_xy(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    ideals = op.enumerate_compatible_monomial()
    keys = [tuple(i.canonical_strings()) for i in ideals]
    assert len(ideals) == 6
    assert ((), ("1",), ("x",), ("x*y",), ("y",)) == tuple(keys[:5])
    assert set(keys) == {(), ("1",), ("x",), ("y",), ("x*y",), ("y", "x")}


def test_enumerate_single_variable(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    ideals = op.enumerate_compatible_monomial()
    assert [tuple(i.canonical_strings()) for i in ideals] == [(), ("1",), ("x",)]


def test_enumerate_closure_under_sum_and_intersection(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    ideals = op.enumerate_compatible_monomial()
    keys = {tuple(i.canonical_strings()) for i in ideals}
    for a in ideals:
        for b in ideals:
            assert tuple(a.sum(b).canonical_strings()) in keys
            assert tuple(a.intersect(b).canonical_strings()) in keys


def test_enumerate_members_squarefree(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    for ideal in op.enumerate_compatible_monomial():
        assert ideal.is_squarefree_monomial()
        assert op.is_fixed(ideal)  # split operators fix their compatible ideals


def test_enumerate_rejects_non_split(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    with pytest.raises(UsageError):
        op.enumerate_compatible_monomial()


def test_enumerate_rejects_non_monomial(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x+y"), 1)
    with pytest.raises(UsageError):
        op.enumerate_compatible_monomial()


def test_enumerate_three_variables():
    ring = PolyRing(FieldSpec(2, 1), ("x", "y", "z"))
    op = CartierOperator(ring, ring.parse("x*y*z"), 1)
    ideals = op.enumerate_compatible_monomial()
    assert len(ideals) == 20  # every squarefree monomial ideal is compatible
    keys = {tuple(i.canonical_strings()) for i in ideals}
    for a in ideals:
        for b in ideals:
            assert tuple(a.sum(b).canonical_strings()) in keys
            assert tuple(a.intersect(b).canonical_strings()) in keys


# (p, d, e, variables): q = p^e in {2, 3, 4, 5} in up to 3 variables, then
# 4 variables at q = 2, and level e = 2 at q = 4 and q = 9.
ENUM_CASES = [
    (2, 1, 1, 3), (3, 1, 1, 3), (2, 2, 1, 3), (5, 1, 1, 3),
    (2, 1, 1, 4), (2, 1, 2, 3), (3, 1, 2, 2),
]


@pytest.mark.parametrize(
    "p,d,e,n", ENUM_CASES, ids=[f"{p}^{d}-e{e}-n{n}" for p, d, e, n in ENUM_CASES]
)
def test_enumerate_matches_compatibility_oracle(p, d, e, n):
    """Every multiplier c*x^a with a_i <= q-1, the coefficients c running
    through the nonzero field elements: the generators and the order of
    the answer are the scan's."""
    field = FieldSpec(p, d)
    units = [c for c in field.elements() if not c.is_zero]
    q = p**e
    count = 0
    for m in range(1, n + 1) if n < 4 else (n,):
        ring = PolyRing(field, ("x", "y", "z", "w")[:m])
        for a in product(range(q), repeat=m):
            op = CartierOperator(ring, ring.monomial(a, units[count % len(units)]), e)
            got = op.enumerate_compatible_monomial()
            assert [i.gens for i in got] == [i.gens for i in oracle_compatible_monomial(op)]
            count += 1
    assert count >= q**n


def test_enumerate_five_variables_with_small_support():
    # T = {x, y, z}: 20 answers, those of x*y*z in three variables; the
    # cap follows |T|, not the 7581 antichains on five variables
    five = PolyRing(FieldSpec(2, 1), ("x", "y", "z", "u", "v"))
    three = PolyRing(FieldSpec(2, 1), ("x", "y", "z"))
    got = CartierOperator(five, five.parse("x*y*z"), 1).enumerate_compatible_monomial(cap=20)
    want = CartierOperator(three, three.parse("x*y*z"), 1).enumerate_compatible_monomial()
    assert len(got) == 20
    assert [i.canonical_strings() for i in got] == [i.canonical_strings() for i in want]
    with pytest.raises(ResourceError, match="antichain count 20 exceeds the cap 19"):
        CartierOperator(five, five.parse("x*y*z"), 1).enumerate_compatible_monomial(cap=19)


def test_enumerate_cap_follows_the_support():
    ring = PolyRing(FieldSpec(3, 1), tuple("abcdef"))
    op = CartierOperator(ring, ring.parse("2*a^2*b^2*c*d"), 1)  # T = {a, b}
    assert [i.canonical_strings() for i in op.enumerate_compatible_monomial()] == [
        [], ["1"], ["a"], ["a*b"], ["b"], ["b", "a"]
    ]
    full = CartierOperator(ring, ring.parse("a^2*b^2*c^2*d^2*e^2*f^2"), 1)
    with pytest.raises(ResourceError, match="antichain count 7828354 exceeds the cap"):
        full.enumerate_compatible_monomial()


# (p, d, e, variables, f): T is every variable
MONOMIAL_BUILD_CASES = [
    (2, 1, 1, "x0,x1,x2,x3", "x0*x1*x2*x3"),
    (2, 1, 1, "x0,x1,x2,x3,x4", "x0*x1*x2*x3*x4"),
    (3, 2, 2, "a,b,c", "a^8*b^8*c^8"),
]


@pytest.mark.parametrize(
    "p,d,e,names,f", MONOMIAL_BUILD_CASES, ids=[c[4] for c in MONOMIAL_BUILD_CASES]
)
def test_enumeration_builds_each_squarefree_monomial_once(p, d, e, names, f, monkeypatch):
    ring = PolyRing(FieldSpec(p, d), names.split(","))
    op = CartierOperator(ring, ring.parse(f), e)
    calls = []
    build = PolyRing.monomial

    def counting(self, *args, **kwargs):
        calls.append(args)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(PolyRing, "monomial", counting)
    got = op.enumerate_compatible_monomial()
    assert len(got) == {3: 20, 4: 168, 5: 7581}[ring.nvars]
    assert len(calls) <= 2**ring.nvars


def test_enumeration_prints_and_prepares_each_squarefree_monomial_once(monkeypatch):
    """Over x0...x4 and F_2, the 7,581 answers have 35,512 generators in
    all, but only 32 distinct monomials x^S: each is stringified for the
    sort and prepared as a divisor once.  The split test before the
    enumeration prepares divisors of its own, which are not counted."""
    ring = PolyRing(FieldSpec(2, 1), ("x0", "x1", "x2", "x3", "x4"))
    op = CartierOperator(ring, ring.parse("x0*x1*x2*x3*x4"), 1)
    calls = {"str": 0, "prepare": 0}
    show, prepare = poly.Polynomial.__str__, poly._prepare

    def counting_str(self):
        calls["str"] += 1
        return show(self)

    def counting_prepare(*args):
        calls["prepare"] += 1
        return prepare(*args)

    monkeypatch.setattr(poly.Polynomial, "__str__", counting_str)
    for module in (poly, operators):  # wherever it is imported
        monkeypatch.setattr(module, "_prepare", counting_prepare, raising=False)
    assert op.is_split()
    split = dict(calls)  # what the enumeration's split test costs
    calls.update(str=0, prepare=0)
    got = op.enumerate_compatible_monomial()
    assert len(got) == 7581
    assert calls["str"] - split["str"] <= 2**5
    assert calls["prepare"] - split["prepare"] <= 2**5


def test_enumerate_five_variables_gives_every_antichain_as_generator_supports():
    ring = PolyRing(FieldSpec(2, 1), ("x", "y", "z", "u", "v"))
    op = CartierOperator(ring, ring.parse("x*y*z*u*v"), 1)
    got = op.enumerate_compatible_monomial()
    supports = []
    for ideal in got:
        terms = [next(iter(g.terms.items())) for g in ideal.gens]
        assert all(len(g.terms) == 1 for g in ideal.gens)
        assert all(c == ring.field.one and set(exps) <= {0, 1} for exps, c in terms)
        supports.append(frozenset(frozenset(i for i, x in enumerate(exps) if x) for exps, _ in terms))
    want = set(map(frozenset, antichains_of_subsets(5)))
    assert len(got) == len(set(supports)) == len(want) == 7581
    assert set(supports) == want
    for ideal in random.Random(5).sample(got, 50):
        assert op.is_compatible(ideal)


# -- quotient modules ---------------------------------------------------------------------------


def test_quotient_requires_compatibility(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    with pytest.raises(UsageError):
        IdealModule(op, Ideal(Rx, (Rx.parse("x^2"),)))


def test_quotient_nilpotent_example(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    assert m.nilpotence() == (True, 1)


def test_quotient_not_nilpotent(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    assert m.nilpotence() == (False, None)


def test_zero_module_nilpotent_of_order_zero(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.one,)))
    assert m.nilpotence() == (True, 0)


def oracle_nilpotence(module, cap=64):
    """(is_nilpotent, order) by testing K_i <= J at each step of the chain
    K_0 = R, K_(i+1) = C(K_i) + J, until it repeats."""
    ring = module.op.ring
    cur = Ideal(ring, (ring.one,))
    for i in range(cap):
        if module.ideal.contains(cur):
            return True, i
        nxt = module.op.image_ideal(cur).sum(module.ideal)
        if nxt.equals(cur):
            return False, None
        cur = nxt
    raise AssertionError("chain did not stabilise")


def test_nilpotence_matches_chain_oracle_and_support():
    checked = nilpotent = 0
    for op in operator_corpus():
        ring = op.ring
        x = [ring.var(v) for v in ring.vars]
        seeds = [(x[0],), (x[0] ** 2,), (x[-1] ** 3, x[0] * x[-1]), (x[0] + ring.one,), ()]
        for gens in seeds:
            ideal = op.smallest_stable_containing(Ideal(ring, gens))
            module = IdealModule(op, ideal)
            got = module.nilpotence()
            assert got == oracle_nilpotence(module)
            report = module.supp_crys()
            # the CLI reads nilpotence off the support report
            assert got == (report.ann.is_unit, report.iterations if got[0] else None)
            checked += 1
            nilpotent += got[0]
    assert checked > 60 and 0 < nilpotent < checked


def test_operator_and_quotient_module_are_immutable(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    for obj, name, value in [
        (op, "multiplier", Rx.one),
        (op, "e", 2),
        (op, "ring", None),
        (m, "ideal", Ideal(Rx, ())),
        (m, "op", None),
    ]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == before
    assert m.nilpotence() == (False, None)


def test_supp_crys_line(Rx):
    op = CartierOperator(Rx, Rx.var("x"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    report = m.supp_crys()
    assert report.ann.canonical_strings() == ["x"]


def test_supp_crys_empty_for_nilpotent(Rx):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    assert m.supp_crys().ann.is_unit


def test_supp_crys_faithful(Rx):
    op = CartierOperator(Rx, Rx.one, 1)
    m = IdealModule(op, Ideal(Rx, ()))
    assert m.supp_crys().ann.is_zero


def test_supp_crys_ann_contains_defining_ideal_and_is_radical():
    for op in operator_corpus():
        ring = op.ring
        if len(op.multiplier.terms) != 1:
            continue
        x0 = ring.var(ring.vars[0])
        candidate = Ideal(ring, (x0,))
        if not op.is_compatible(candidate):
            continue
        m = IdealModule(op, candidate)
        report = m.supp_crys()
        assert report.ann.contains(candidate)
        if not report.ann.is_unit and not report.ann.is_zero:
            assert report.ann.is_squarefree_monomial()


# -- chains from reduced bases ----------------------------------------------------------------

# (p, d, e): F_2, F_3, F_5, F_7, GF(4) at levels 1 and 2, and GF(9)
SWEEP_LEVELS = [(2, 1, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def sweep_operators(count, seed=23):
    """(op, seed ideal) pairs in 1-3 variables, cycling through SWEEP_LEVELS."""
    rng = random.Random(seed)
    for n in range(count):
        p, d, e = SWEEP_LEVELS[n % len(SWEEP_LEVELS)]
        ring = PolyRing(FieldSpec(p, d), ("x", "y", "z")[: 1 + n // len(SWEEP_LEVELS) % 3])
        f = random_poly(rng, ring, 3, 2 * p**e - 1)
        gens = tuple(random_poly(rng, ring, 2, 3) for _ in range(rng.randint(1, 2)))
        yield CartierOperator(ring, f, e), Ideal(ring, gens)


def outcome(call):
    """call()'s value, or the message of the ResourceError it raises."""
    try:
        return call()
    except ResourceError as exc:
        return str(exc)


def assert_chain_matches_oracle(run, oracle, cap=64):
    """run(cap) and oracle(cap) give the same (ideal, steps), or raise the
    same ResourceError, at `cap` and at cap = steps - 1; the steps of run
    may be None when the method does not return them.  Returns the steps."""
    want = outcome(lambda: oracle(cap))
    if isinstance(want, str):
        assert outcome(lambda: run(cap)) == want
        return None
    stable, steps = want
    ideal, count = run(steps)
    assert ideal.groebner() == stable.groebner()
    assert count in (None, steps)
    if steps:
        short = outcome(lambda: oracle(steps - 1))
        assert isinstance(short, str) and outcome(lambda: run(steps - 1)) == short
    return steps


def test_chains_match_the_generator_oracle():
    """stable_image with and without a start ideal, smallest_stable_containing,
    and the quotient chain behind nilpotence and supp_crys, against the
    loop that steps from every generator built up so far."""
    steps_seen = []
    for op, seed in sweep_operators(320):
        ring = op.ring
        unit = Ideal(ring, (ring.one,))
        image = lambda cur, op=op: op.image_ideal(cur)
        grow = lambda cur, op=op: cur.sum(op.image_ideal(cur))
        steps_seen.append(assert_chain_matches_oracle(
            lambda cap: op.stable_image(cap=cap),
            lambda cap: oracle_stabilise(image, unit, cap, "image chain")))
        steps_seen.append(assert_chain_matches_oracle(
            lambda cap: op.stable_image(seed, cap),
            lambda cap: oracle_stabilise(image, seed, cap, "image chain")))
        steps_seen.append(assert_chain_matches_oracle(
            lambda cap: (op.smallest_stable_containing(seed, cap), None),
            lambda cap: oracle_stabilise(grow, seed, cap, "ascending chain")))
        module = IdealModule(op, op.smallest_stable_containing(seed))
        J = module.ideal
        quotient = lambda cap: oracle_stabilise(
            lambda cur: op.image_ideal(cur).sum(J), unit, cap, "quotient image chain")

        def nilpotence(cap):
            flag, order = module.nilpotence(cap)
            stable, steps = quotient(cap)
            assert (flag, order) == ((True, steps) if J.contains(stable) else (False, None))
            return stable, steps

        def supp_crys(cap):
            report = module.supp_crys(cap)
            stable, steps = quotient(cap)
            assert report.ann.groebner() == J.colon(stable).groebner()
            return stable, report.iterations

        steps_seen.append(assert_chain_matches_oracle(nilpotence, quotient))
        steps_seen.append(assert_chain_matches_oracle(supp_crys, quotient))
    assert len(steps_seen) >= 5 * 300
    assert max(s for s in steps_seen if s is not None) >= 3
    assert sum(1 for s in steps_seen if s) >= 300


@pytest.fixture
def buchberger_inputs(monkeypatch):
    """The generators of every Buchberger run, in call order."""
    runs, inner = [], poly._buchberger

    def counted(gens, order, track):
        runs.append(tuple(gens))
        return inner(gens, order, track)

    monkeypatch.setattr(poly, "_buchberger", counted)
    return runs


CHAINS = ["stable_image", "smallest_stable_containing", "nilpotence"]


@pytest.mark.parametrize("chain", CHAINS)
def test_a_chain_runs_buchberger_once_per_ideal(chain, buchberger_inputs, monkeypatch):
    """s changing steps: one run for the start and one for each of the s + 1
    images; without the carried basis, `equals` reruns each step's input."""
    changing = 0
    for run, step, start in counted_chains(chain):
        steps = oracle_stabilise(step, Ideal(start.ring, start.gens), 64, chain)[1]
        buchberger_inputs.clear()
        run(64)
        assert len(buchberger_inputs) == steps + 2
        changing += steps > 0
    assert changing >= 10
    monkeypatch.setattr(Ideal, "_reduced", lambda self: Ideal(self.ring, self.groebner()))
    for run, step, start in counted_chains(chain):
        steps = oracle_stabilise(step, Ideal(start.ring, start.gens), 64, chain)[1]
        buchberger_inputs.clear()
        run(64)
        assert len(buchberger_inputs) == 2 * steps + 3


@pytest.mark.parametrize("chain", CHAINS)
def test_each_step_starts_from_the_previous_reduced_basis(chain, buchberger_inputs):
    """Each run after the first is on step(the ideal of the previous run's
    reduced basis): its image, after that basis for the ascending chain and
    before J's generators for the quotient chain."""
    for run, step, start in counted_chains(chain):
        buchberger_inputs.clear()
        run(64)
        runs = list(buchberger_inputs)
        assert runs[0] == start.gens
        for before, after in zip(runs, runs[1:]):
            assert after == step(Ideal(start.ring, groebner_basis(before))).gens


def test_enumeration_runs_buchberger_once(Rxy, buchberger_inputs):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    got = op.enumerate_compatible_monomial()
    assert len(got) == 6
    assert len(buchberger_inputs) == 1  # is_split's image of the ring


@pytest.mark.parametrize(
    "p,d,e,n", ENUM_CASES, ids=[f"{p}^{d}-e{e}-n{n}" for p, d, e, n in ENUM_CASES]
)
def test_enumerated_ideals_carry_their_reduced_basis(p, d, e, n, buchberger_inputs):
    field = FieldSpec(p, d)
    q = p**e
    for m in range(1, n + 1) if n < 4 else (n,):
        ring = PolyRing(field, ("x", "y", "z", "w")[:m])
        for a in product(range(q), repeat=m):
            op = CartierOperator(ring, ring.monomial(a), e)
            if not op.is_split():
                continue
            got = op.enumerate_compatible_monomial()
            buchberger_inputs.clear()
            carried = [i.groebner() for i in got]
            assert buchberger_inputs == []
            assert carried == [groebner_basis(i.gens) for i in got]


@pytest.mark.parametrize("chain", ["stable_image", "smallest_stable_containing"])
def test_chains_check_the_ring_before_any_buchberger_run(Rxy, chain, buchberger_inputs):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    foreign = Ideal(outside_x(Rxy).ring, (outside_x(Rxy),))
    with pytest.raises(UsageError) as info:
        getattr(op, chain)(foreign)
    assert str(info.value) == "ideal outside the ring"
    assert buchberger_inputs == []


def test_annihilator_submodule_examples(Rx, Rxy):
    op = CartierOperator(Rx, Rx.parse("x^2"), 1)
    m = IdealModule(op, Ideal(Rx, (Rx.var("x"),)))
    res, flag = m.annihilator_submodule(Ideal(Rx, (Rx.var("x"),)))
    assert res.is_unit and flag

    op2 = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    m2 = IdealModule(op2, Ideal(Rxy, (Rxy.parse("x*y"),)))
    res2, flag2 = m2.annihilator_submodule(Ideal(Rxy, (Rxy.var("x"),)))
    assert res2.canonical_strings() == ["y"] and not flag2

    res3, flag3 = m2.annihilator_submodule(Ideal(Rxy, (Rxy.one,)))
    assert res3.equals(m2.ideal) and not flag3


def test_torsion_saturation_for_contained_ideals():
    # when I is inside J, the quotient is entirely I-torsion
    spec = FieldSpec(2, 1)
    ring = PolyRing(spec, ("x", "y"))
    op = CartierOperator(ring, ring.parse("x*y"), 1)
    J = Ideal(ring, (ring.var("x"),))
    m = IdealModule(op, J)
    for gens in ((ring.var("x"),), (ring.parse("x^2"),), (ring.parse("x*y"),)):
        I = Ideal(ring, gens)
        res, flag = m.annihilator_submodule(I)
        assert flag
        assert res.is_unit


def test_operator_json_round_trip(Rxy):
    op = CartierOperator(Rxy, Rxy.parse("x*y"), 1)
    data = op.to_json()
    again = CartierOperator.from_json(data)
    assert again.ring == op.ring
    assert again.multiplier == op.multiplier
    assert again.e == op.e


# -- level-2 operators --------------------------------------------------------------------------


def test_level_two_classical_values(Rx):
    x = Rx.var("x")
    # q = 4: x^a survives exactly when 4 divides a + 1
    assert cartier_std(x**3, 2) == Rx.one
    assert cartier_std(x**7, 2) == x
    assert cartier_std(x**5, 2).is_zero
    assert cartier_std(x, 2).is_zero


def test_level_two_descent_round_trip(Rx):
    rng = random.Random(222)
    for _ in range(50):
        g = random_poly(rng, Rx, 4, 9)
        parts = frobenius_descent(g, 2)
        acc = Rx.zero
        for b, gb in parts.items():
            acc = acc + gb.frobenius_power(2) * Rx.monomial(b)
        assert acc == g
        assert all(0 <= b[0] < 4 for b in parts)


def test_level_two_split_operator(Rx):
    x = Rx.var("x")
    op = CartierOperator(Rx, x**3, 2)
    assert op.apply(Rx.one) == Rx.one
    assert op.is_split()
    ideals = op.enumerate_compatible_monomial()
    assert [tuple(i.canonical_strings()) for i in ideals] == [(), ("1",), ("x",)]
    stable, _ = op.stable_image()
    assert stable.is_unit


# -- errors at the public boundary ---------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda R: cartier_std(R.var("x"), 0), "operator level must be >= 1"),
        (lambda R: CartierOperator(R, outside_x(R)), "multiplier outside the ring"),
        (lambda R: CartierOperator(R, R.one).apply(outside_x(R)), "argument outside the ring"),
        (lambda R: CartierOperator(R, R.one).compose(CartierOperator(R, R.one, 2)),
         "can only compose operators of the same ring and level"),
        (lambda R: CartierOperator(R, R.one).image_ideal(Ideal(outside_x(R).ring, ())),
         "ideal outside the ring"),
        (lambda R: IdealModule(CartierOperator(R, R.one), Ideal(outside_x(R).ring, ())),
         "ideal outside the operator's ring"),
        (lambda R: IdealModule(CartierOperator(R, R.var("x")), Ideal(R, (R.var("x"),)))
         .annihilator_submodule(Ideal(outside_x(R).ring, ())), "ideal outside the ring"),
    ],
    ids=["level", "multiplier-ring", "apply-ring", "compose-level", "image-ring",
         "quotient-ring", "annihilator-ring"],
)
def test_user_errors_name_their_cause(Rxy, call, message):
    with pytest.raises(UsageError) as info:
        call(Rxy)
    assert str(info.value) == message
