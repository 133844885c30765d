"""Polynomial arithmetic, parsing, Gröbner bases, and ideal operations."""

import hashlib
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cartier import poly
from cartier.errors import CartierError, DomainError, ResourceError, UsageError
from cartier.field import FieldSpec
from cartier.poly import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    PolyRing,
    elimination_order,
    groebner_basis,
    divide,
)

from conftest import oracle_parse


@pytest.fixture
def R2(f2):
    return PolyRing(f2, ("x", "y"))


@pytest.fixture
def R3(f3):
    return PolyRing(f3, ("x", "y", "z"))


def random_poly(rng, ring, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        c = ring.field.element(
            tuple(rng.randrange(ring.field.p) for _ in range(ring.field.d))
        )
        if not c.is_zero:
            terms[e] = c
    out = ring.zero
    for e, c in terms.items():
        out = out + ring.monomial(e, c)
    return out


# -- parsing -------------------------------------------------------------


def test_parse_two_terms(R2):
    p = R2.parse("x^2*y + y")
    assert len(p.terms) == 2


def test_parse_cancellation(R2):
    assert R2.parse("x - x").is_zero


def test_parse_square_expands_by_frobenius(R2):
    x, y = R2.var("x"), R2.var("y")
    assert R2.parse("(x+y)^2") == x**2 + y**2


def test_parse_print_round_trip_seeded(R2, R3, gf4):
    R4 = PolyRing(gf4, ("x", "y"))
    rng = random.Random(2024)
    for ring in (R2, R3, R4):
        for _ in range(60):
            p = random_poly(rng, ring)
            assert ring.parse(str(p)) == p


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4))
def test_parse_print_round_trip_hypothesis(exps):
    ring = PolyRing(FieldSpec(2, 1), ("x", "y"))
    p = ring.zero
    for e in exps:
        p = p + ring.monomial(e)
    assert ring.parse(str(p)) == p


@pytest.mark.parametrize("name", ["1x", "x y", "x-1", "", " x", "x.y", "²", "x\u0301", 3])
def test_ring_refuses_names_the_parser_cannot_read(name):
    with pytest.raises(UsageError, match="not a name the parser reads"):
        PolyRing(FieldSpec(2, 1), ("y", name))


@pytest.mark.parametrize("name", ["_", "x_1", "é", "x²", "ǅ9"])
def test_ring_accepts_names_the_parser_reads(name):
    ring = PolyRing(FieldSpec(3, 1), (name, "y"))
    f = ring.var(name) ** 2 * ring.var("y") + ring.var(name)
    assert ring.parse(str(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(st.sampled_from("xy_1²é -^*") | st.characters(), max_size=3),
                max_size=3))
def test_ring_names_are_refused_or_round_trip(names):
    try:
        ring = PolyRing(FieldSpec(3, 1), names)
    except UsageError:
        return
    f = ring.one
    for name in names:
        f = f * ring.var(name)
    assert ring.parse(str(f)) == f


def test_parse_syntax_error_has_position(R2):
    with pytest.raises(UsageError, match="position"):
        R2.parse("x + + ^")


@pytest.mark.parametrize(
    "text,message",
    [
        ("  x +\t ", "position 7: unexpected end of input"),
        ("   )", "position 3: unexpected character ')'"),
        (" x \n y", "position 5: trailing input 'y'"),
        ("x\u3000^ \u2003w", "position 5: expected a nonnegative integer exponent"),
        ("x *\r\n  q", "position 7: unknown variable 'q'"),
        ("x + ²", "position 4: unexpected character '²'"),
        ("x^²", "position 2: expected a nonnegative integer exponent"),
        pytest.param(
            "x^" + "9" * 5000,
            "position 2: integer literal longer than 600 digits",
            id="long-exponent",
        ),
        pytest.param(
            "x + " + "9" * 601,
            "position 4: integer literal longer than 600 digits",
            id="long-coefficient",
        ),
    ],
)
def test_parse_error_positions_count_whitespace(R2, text, message):
    with pytest.raises(UsageError, match=f"^syntax error at {re.escape(message)}$"):
        R2.parse(text)


def test_parse_skips_every_kind_of_whitespace(R2):
    x, y = R2.var("x"), R2.var("y")
    assert R2.parse("\t x\u3000*\n y ^ 2\x0b+\u2003 1 \f") == x * y**2 + R2.one


def test_parse_unknown_variable(R2):
    with pytest.raises(UsageError, match="unknown variable"):
        R2.parse("x + z")


def test_parse_exponent_overflow(R2):
    with pytest.raises(UsageError, match="overflow"):
        R2.parse("x^100000")


def test_parse_field_literal(gf4):
    ring = PolyRing(gf4, ("x",))
    p = ring.parse("[0,1]*x^2 + [1,1]")
    w = gf4.gen
    assert p == ring.monomial((2,), w) + ring.constant(w * w)


def test_parse_unary_minus(R3):
    x = R3.var("x")
    assert R3.parse("-x") == -x
    assert R3.parse("2 - -x") == R3.constant(2) + x


def test_parse_long_unary_minus_chain(R3):
    x = R3.var("x")
    assert R3.parse("-" * 3000 + "x") == x
    assert R3.parse("-" * 3001 + "x^2") == -(x**2)
    assert R3.parse("-(-(x))^2") == -(x**2)


def test_parse_nesting_limit(R3):
    assert R3.parse("(" * 100 + "x" + ")" * 100) == R3.var("x")
    with pytest.raises(UsageError, match="nested deeper"):
        R3.parse("(" * 3000 + "x" + ")" * 3000)


# The parser against `conftest.oracle_parse` (one polynomial product per
# `*`, one polynomial power per `^`): printed results, or the error kind
# and message.  Small degree bounds make the guard fire inside products
# and powers; mutated strings give syntax errors.
PARSE_FIELDS = [(2, 1), (7, 1), (2, 2), (3, 2), (1000003, 1)]


def random_expression(rng, ring, depth=0):
    """Coefficient literals, unary minus runs, nesting and powers of sums."""
    field = ring.field
    pick = rng.random()
    if depth >= 3 or pick < 0.45:
        atoms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.5:
                atom = rng.choice(ring.vars)
            elif kind < 0.75:
                atom = str(rng.randrange(min(3 * field.p, 10**7)))
            else:
                digits = (rng.randrange(field.p) for _ in range(rng.randint(1, field.d)))
                atom = "[" + ",".join(map(str, digits)) + "]"
            if rng.random() < 0.3:
                atom += f"^{rng.randint(0, 7)}"
            if rng.random() < 0.2:
                atom = "-" * rng.randint(1, 4) + atom
            atoms.append(atom)
        return "*".join(atoms)
    if pick < 0.8:
        text = random_expression(rng, ring, depth + 1)
        for _ in range(rng.randint(1, 2)):
            text += rng.choice([" + ", " - ", "-"]) + random_expression(rng, ring, depth + 1)
        return rng.choice(["", "", "-", "+"]) + text
    text = f"({random_expression(rng, ring, depth + 1)})"
    if rng.random() < 0.6:
        text += f"^{rng.randint(0, 4)}"
    if rng.random() < 0.5:
        text = random_expression(rng, ring, depth + 1) + "*" + text
    return text


def _mutated(rng, text):
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.5:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice("()^*+-[],9x@") + text[i:]


def _parse_outcome(parse, ring, text):
    try:
        return str(parse(ring, text))
    except CartierError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("p, d", PARSE_FIELDS, ids=[f"GF{p}^{d}" for p, d in PARSE_FIELDS])
def test_parser_matches_product_based_oracle(p, d):
    rng = random.Random(p * 10 + d)
    field = FieldSpec(p, d)
    for bound in (200, 10):
        ring = PolyRing(field, ("x", "y", "z")[: rng.randint(1, 3)], bound)
        for _ in range(60):
            text = random_expression(rng, ring)
            if rng.random() < 0.2:
                text = _mutated(rng, text)
            expected = _parse_outcome(oracle_parse, ring, text)
            assert _parse_outcome(PolyRing.parse, ring, text) == expected, text


def test_parser_degree_guard_matches_oracle(R2):
    for text, expected in [
        ("x^150*y^150", "ResourceError: product degree 300 exceeds the configured bound 200"),
        ("0*x^150*y^150", "0"),
        ("x^150*y^150*0", "ResourceError: product degree 300 exceeds the configured bound 200"),
        ("(x + y)^150 * (x^2)^26", "ResourceError: product degree 202 exceeds the configured bound 200"),
        ("(x^150)^2", "ResourceError: product degree 300 exceeds the configured bound 200"),
        # the guard fires on the square inside the power, not on x^303
        ("x^101^3", "ResourceError: product degree 202 exceeds the configured bound 200"),
    ]:
        assert _parse_outcome(oracle_parse, R2, text) == expected
        assert _parse_outcome(PolyRing.parse, R2, text) == expected


# -- orders ---------------------------------------------------------------


def test_grevlex_basics(R2):
    x, y = (1, 0), (0, 1)
    assert GREVLEX.key(x) > GREVLEX.key(y)
    assert GREVLEX.key((2, 0)) > GREVLEX.key((1, 1)) > GREVLEX.key((0, 2))


def test_lex_vs_grevlex():
    # x beats y^3 in lex, loses in grevlex
    assert LEX.key((1, 0)) > LEX.key((0, 3))
    assert GREVLEX.key((1, 0)) < GREVLEX.key((0, 3))


def test_block_order_eliminates():
    order = elimination_order(1)
    # anything containing the first variable beats anything without it
    assert order.key((1, 0, 0)) > order.key((0, 9, 9))


def test_rank_sorts_the_leading_monomial_first():
    exps = list(product(range(3), repeat=3))
    for order in (GREVLEX, LEX, elimination_order(1), elimination_order(2)):
        by_rank = sorted(exps, key=order.rank)
        assert by_rank == sorted(exps, key=order.key, reverse=True)


def test_polynomial_drops_zero_coefficients():
    f3 = FieldSpec(3, 1)
    R = PolyRing(f3, ("x",))
    f = Polynomial(R, {(1,): f3.zero})
    assert f.is_zero and f == R.zero and str(f) == str(R.zero)
    assert f.total_degree() == -1 and hash(f) == hash(R.zero)
    g = Polynomial(R, {(2,): f3.one, (1,): f3.zero, (0,): f3.from_int(2)})
    assert dict(g.terms) == {(2,): f3.one, (0,): f3.from_int(2)}
    assert g == R.parse("x^2 + 2")


def test_leading_monic_and_sorted_terms_follow_the_order(f3):
    R = PolyRing(f3, ("x", "y"))
    f = R.parse("2*x*y^3 + x^3 + y")
    one, two = f3.one, f3.from_int(2)
    assert f.leading(GREVLEX) == ((1, 3), two)
    assert f.leading(LEX) == ((3, 0), one)
    assert f.leading(elimination_order(1)) == ((3, 0), one)
    assert f.sorted_terms() == [((1, 3), two), ((3, 0), one), ((0, 1), one)]
    assert f.sorted_terms(LEX) == [((3, 0), one), ((1, 3), two), ((0, 1), one)]
    assert f.monic(GREVLEX) == R.parse("x*y^3 + 2*x^3 + 2*y")
    assert f.monic(LEX) == f
    with pytest.raises(DomainError):
        R.zero.leading(GREVLEX)
    with pytest.raises(DomainError):
        R.zero.monic(GREVLEX)
    assert R.zero.sorted_terms() == []


def test_leading_and_monic_agree_with_sorted_terms(R3):
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(rng, R3)
        if f.is_zero:
            continue
        for order in (GREVLEX, LEX, elimination_order(2)):
            terms = f.sorted_terms(order)
            assert sorted(terms, key=lambda t: order.key(t[0]), reverse=True) == terms
            lead, c = f.leading(order)
            assert terms[0] == (lead, c)
            assert f.monic(order).leading(order) == (lead, R3.field.one)
            assert f.monic(order) * c == f


def test_polynomial_values_are_immutable(R2):
    one = R2.field.one
    terms = {(1, 0): one}
    f = Polynomial(R2, terms)
    terms[(0, 1)] = one  # the polynomial keeps its own copy
    assert f == R2.var("x")
    with pytest.raises(AttributeError):
        f.terms = {}
    with pytest.raises(AttributeError):
        f.ring = None
    with pytest.raises(TypeError):
        f.terms[(0, 1)] = one
    assert f == R2.var("x")
    with pytest.raises(AttributeError):
        GREVLEX.kind = "lex"
    with pytest.raises(AttributeError):
        MonomialOrder("block", 1).block = 2
    with pytest.raises(AttributeError):
        R2.vars = ("a", "b")
    ideal = Ideal(R2, (f,))
    assert ideal.groebner() == (f,)
    with pytest.raises(AttributeError):
        ideal.gens = (R2.one,)
    assert ideal.groebner() == (f,) and not ideal.member(R2.one)


# -- groebner ---------------------------------------------------------------


def test_gb_containment(f2):
    R = PolyRing(f2, ("x",))
    x = R.var("x")
    assert Ideal(R, (x**2, x)).canonical_strings() == ["x"]


def test_gb_one_reduction(R2):
    x, y = R2.var("x"), R2.var("y")
    gb = Ideal(R2, (x + y, x)).canonical_strings()
    assert sorted(gb) == ["x", "y"]


def test_gb_unit_ideal(R2):
    assert Ideal(R2, (R2.one,)).canonical_strings() == ["1"]


def test_gb_unique_under_generator_shuffle(R3):
    rng = random.Random(8)
    for _ in range(10):
        gens = [random_poly(rng, R3, max_terms=3, max_exp=2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        reference = groebner_basis(tuple(gens), GREVLEX)
        for _ in range(3):
            rng.shuffle(gens)
            assert groebner_basis(tuple(gens), GREVLEX) == reference


def test_gb_zero_ideal(R2):
    assert Ideal(R2, ()).groebner() == ()
    assert Ideal(R2, (R2.zero,)).groebner() == ()


def _sympy_groebner(gens, ring):
    """Reduced grevlex basis from sympy over F_p, as sorted term dicts."""
    sympy = pytest.importorskip("sympy")
    p = ring.field.p
    xs = sympy.symbols(ring.vars)
    exprs = [
        sympy.Add(*(c.coeffs[0] * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                    for e, c in g.terms.items()))
        for g in gens
    ]
    basis = sympy.groebner(exprs, *xs, modulus=p, order="grevlex")
    out = []
    for g in basis.exprs:
        terms = sympy.Poly(g, *xs, modulus=p).terms()
        out.append({e: int(c) % p for e, c in terms if int(c) % p})
    return sorted(out, key=lambda t: sorted(t.items()))


def _as_term_dicts(basis):
    out = [{e: c.coeffs[0] for e, c in g.terms.items()} for g in basis]
    return sorted(out, key=lambda t: sorted(t.items()))


@pytest.mark.parametrize("p", [2, 3, 7])
def test_gb_matches_sympy_on_random_ideals(p):
    ring = PolyRing(FieldSpec(p, 1), ("x", "y", "z"))
    rng = random.Random(40 + p)
    for _ in range(12):
        gens = [random_poly(rng, ring, max_terms=3, max_exp=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        assert _as_term_dicts(groebner_basis(gens, GREVLEX)) == _sympy_groebner(gens, ring)


def test_gb_matches_sympy_on_katsura3():
    ring = PolyRing(FieldSpec(7, 1), ("a", "b", "c"))
    gens = [ring.parse(t) for t in
            ("a+2*b+2*c-1", "a^2+2*b^2+2*c^2-a", "2*a*b+2*b*c-b")]
    basis = groebner_basis(gens, GREVLEX)
    assert len(basis) > 1
    assert _as_term_dicts(basis) == _sympy_groebner(gens, ring)


def cyclic(n):
    """The cyclic-n system in the variables a, b, ...: the elementary
    symmetric sums of consecutive runs, and the product minus 1."""
    v = "abcdefgh"[:n]
    sums = ["+".join("*".join(v[(i + j) % n] for j in range(k)) for i in range(n))
            for k in range(1, n)]
    return (*sums, "*".join(v) + "-1")


def katsura(n):
    """The Katsura-n system in the n + 1 variables a, b, ...:
    sum_{|i| <= n} u_i = 1 and sum_i u_i u_{m-i} = u_m for m < n, where
    u_{-i} = u_i and u_i = 0 for i > n."""
    v = "abcdefgh"[: n + 1]
    u = lambda i: v[abs(i)] if abs(i) <= n else None
    first = "+".join([v[0]] + [f"2*{x}" for x in v[1:]]) + "-1"
    rest = ["+".join(f"{u(i)}*{u(m - i)}" for i in range(-n, n + 1) if u(i) and u(m - i))
            + f"-{v[m]}" for m in range(n)]
    return (first, *rest)


CLASSIC_SYSTEMS = {
    "cyclic4": ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"),
    "katsura4": ("a+2*b+2*c+2*d-1", "a^2+2*b^2+2*c^2+2*d^2-a",
                 "2*a*b+2*b*c+2*c*d-b", "b^2+2*a*c+2*b*d-c"),
    "katsura5": ("a+2*b+2*c+2*d+2*e-1", "a^2+2*b^2+2*c^2+2*d^2+2*e^2-a",
                 "2*a*b+2*b*c+2*c*d+2*d*e-b", "b^2+2*a*c+2*b*d+2*c*e-c",
                 "2*b*c+2*a*d+2*b*e-d"),
    "cyclic5": cyclic(5),
}
# sympy takes 11 s on Katsura-6 and 34 s on cyclic-6, so these two are held
# to digests of its bases (`_digest(_sympy_groebner(gens, ring))` with
# sympy 1.14) instead of a run of it
LARGE_SYSTEMS = {
    "katsura6": (katsura(6), "ab0bb8f11b209bc3bcc741a089f33bc7251ef0d9371ee39e39fc6a83cd17daff"),
    "cyclic6": (cyclic(6), "b0ce94240635fb94417f8919ae36ac9b4d0277b17d9526002d2aeca61412156d"),
}


def classic_system(name, p=7):
    texts = CLASSIC_SYSTEMS[name] if name in CLASSIC_SYSTEMS else LARGE_SYSTEMS[name][0]
    names = tuple(sorted({ch for t in texts for ch in t if ch.isalpha()}))
    ring = PolyRing(FieldSpec(p, 1), names)
    return ring, [ring.parse(t) for t in texts]


@pytest.mark.parametrize("name", sorted(CLASSIC_SYSTEMS))
def test_gb_matches_sympy_on_classic_systems(name):
    ring, gens = classic_system(name)
    basis = groebner_basis(gens, GREVLEX)
    assert len(basis) > len(gens)
    assert _as_term_dicts(basis) == _sympy_groebner(gens, ring)


def _digest(term_dicts):
    """SHA-256 of sorted term dicts, each written with its terms sorted."""
    text = repr([sorted(t.items()) for t in term_dicts])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(LARGE_SYSTEMS))
def test_gb_matches_recorded_sympy_bases(name):
    ring, gens = classic_system(name)
    basis = groebner_basis(gens, GREVLEX)
    assert len(basis) > len(gens)
    assert _digest(_as_term_dicts(basis)) == LARGE_SYSTEMS[name][1]


def test_buchberger_stays_on_packed_terms(element_op_calls):
    ring, gens = classic_system("cyclic4")
    x = ring.var("a")
    one = ring.field.one
    one * one
    assert len(element_op_calls) == 1  # the counter sees element arithmetic
    basis = groebner_basis(gens, GREVLEX)
    ideal = Ideal(ring, basis)
    assert all(ideal.member(g) for g in gens)
    assert not ideal.member(x)
    assert Ideal(ring, gens).member(gens[0])
    assert len(element_op_calls) == 1


# -- normal forms and membership -----------------------------------------------


def test_member_and_normal_form(f2):
    R = PolyRing(f2, ("x",))
    x = R.var("x")
    I = Ideal(R, (x,))
    assert I.member(x**2)
    assert str(I.normal_form(R.parse("x^3 + 1"))) == "1"


def test_ideal_equal(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x, y)).equals(Ideal(R2, (y, x + y)))


def test_normal_form_of_outside_element(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x,)).normal_form(y) == y


def test_normal_form_invariant_under_ideal_shifts(R3):
    rng = random.Random(55)
    x, y, z = (R3.var(v) for v in "xyz")
    I = Ideal(R3, (x * y + z, y**2 + y))
    for _ in range(500):
        g = random_poly(rng, R3, max_terms=3, max_exp=2)
        h = random_poly(rng, R3, max_terms=2, max_exp=1)
        f = I.gens[rng.randrange(len(I.gens))]
        assert I.normal_form(g + h * f) == I.normal_form(g)


def test_ring_frobenius_additivity(R3):
    rng = random.Random(4)
    for _ in range(40):
        f = random_poly(rng, R3)
        g = random_poly(rng, R3)
        assert (f + g).frobenius_power(1) == f.frobenius_power(1) + g.frobenius_power(1)
        assert (f + g) ** R3.field.p == f**R3.field.p + g**R3.field.p


# -- sums, products, intersections, colons ----------------------------------------


def test_ideal_sum_product(R2):
    x, y = R2.var("x"), R2.var("y")
    s = Ideal(R2, (x,)).sum(Ideal(R2, (y,)))
    assert s.equals(Ideal(R2, (x, y)))
    p = Ideal(R2, (x,)).product(Ideal(R2, (y,)))
    assert p.canonical_strings() == ["x*y"]


def test_intersect_principal(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x,)).intersect(Ideal(R2, (y,))).canonical_strings() == ["x*y"]


def test_colon_examples(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x * y,)).colon_element(x).canonical_strings() == ["y"]
    I = Ideal(R2, (x**2, x * y))
    assert I.colon(Ideal(R2, (R2.one,))).equals(I)


def test_colon_by_zero_raises(R2):
    with pytest.raises(DomainError):
        Ideal(R2, (R2.var("x"),)).colon_element(R2.zero)


def intersect_every_element_colon(I, J):
    """I : J as the intersection of I : g over every nonzero generator g of
    J, none dropped; the unit ideal when there is none."""
    gens = [g for g in J.gens if not g.is_zero]
    result = Ideal(I.ring, (I.ring.one,))
    for g in gens:
        result = result.intersect(I.colon_element(g))
    return result


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)], ids=["F2", "F3", "GF4"])
def test_colon_matches_the_intersection_of_every_element_colon(p, d):
    """Dropping the generators of J that lie in I changes no colon, and
    I : J is the unit ideal exactly when none is left."""
    rng = random.Random(100 * p + d)
    seen = {"all inside": 0, "all outside": 0, "mixed": 0}
    for names in (("x", "y"), ("x", "y", "z")):
        ring = PolyRing(FieldSpec(p, d), names)
        for _ in range(20 if len(names) == 2 else 8):
            I = Ideal(ring, [random_poly(rng, ring, 3, 2) for _ in range(rng.randint(1, 2))])
            inside = [g * random_poly(rng, ring, 2, 1) for g in I.gens] + [ring.zero]
            outside = [f for f in (random_poly(rng, ring, 3, 2) for _ in range(2)) if not I.member(f)]
            for J in (inside, outside, inside + outside, outside[:1] + inside):
                n_in = sum(not g.is_zero and I.member(g) for g in J)
                n_out = sum(not I.member(g) for g in J)
                if n_in or n_out:
                    seen["mixed" if n_in and n_out else "all outside" if n_out else "all inside"] += 1
                got = I.colon(Ideal(ring, J))
                assert got.equals(intersect_every_element_colon(I, Ideal(ring, J))), (I, J)
                assert got.is_unit == (n_out == 0)
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("p,d", [(2, 1), (7, 1), (2, 2)], ids=["F2", "F7", "GF4"])
def test_intersection_carries_its_reduced_basis(monkeypatch, p, d):
    """The t-free part of the elimination basis is the intersection's
    reduced grevlex basis: the answer's `groebner` runs no Buchberger and
    equals a basis computed afresh from its generators."""
    rng = random.Random(10 * p + d)
    ring = PolyRing(FieldSpec(p, d), ("x", "y", "z"))
    cases = []
    for _ in range(15):
        I, J = (Ideal(ring, [random_poly(rng, ring, 3, 2) for _ in range(2)]) for _ in "IJ")
        cases.append((I.intersect(J), I, J))
    runs = []
    buchberger = poly._buchberger
    monkeypatch.setattr(poly, "_buchberger", lambda *args: runs.append(1) or buchberger(*args))
    for meet, I, J in cases:
        runs.clear()
        carried = meet.groebner()
        assert not runs
        assert carried == groebner_basis(meet.gens)
        assert I.contains(meet) and J.contains(meet) and meet.contains(I.product(J))
    assert any(len(meet.gens) > 1 for meet, _, _ in cases)


def test_colon_by_an_ideal_inside_intersects_nothing(monkeypatch):
    """When J lies in I, I : J is the unit ideal without an elimination; a
    generator outside I costs one element colon and no intersection of
    colons."""
    ring = PolyRing(FieldSpec(3, 1), ("x", "y", "z"))
    I = Ideal(ring, [ring.parse("x^2*y + z"), ring.parse("y*z^2 + 2*x")])
    f, g = I.gens
    calls = []
    intersect = Ideal.intersect

    def counting(self, other):
        calls.append(other)
        return intersect(self, other)

    monkeypatch.setattr(Ideal, "intersect", counting)
    inside = [f * ring.parse("x + y"), g, ring.zero, f * ring.parse("z^2") + g * ring.parse("2*y")]
    assert I.colon(Ideal(ring, inside)).is_unit
    assert calls == []
    outside = ring.parse("x")
    assert not I.member(outside)
    meet = I.colon(Ideal(ring, inside + [outside]))
    assert len(calls) == 1  # the one inside `colon_element(x)`
    assert meet.equals(I.colon_element(outside))



def long_intersection():
    """(g1, g2) and (h) over F_7 in x, y, z, with deg g1 = 14 and deg h = 11.
    The elimination basis behind their intersection reduces 96 S-pairs."""
    ring = PolyRing(FieldSpec(7, 1), ("x", "y", "z"))
    gens = ("x^2*y^9*z^3 + x^6*z + 4*y^6*z + 4*y^3*z", "6*x^4*z + 5*x^2*z + 1")
    return (
        Ideal(ring, tuple(ring.parse(g) for g in gens)),
        Ideal(ring, (ring.parse("5*y^10*z + 2*y^8*z^3 + 4"),)),
    )


def test_long_intersection_answers_within_the_budget():
    I, J = long_intersection()
    meet = I.intersect(J)
    assert I.contains(meet) and J.contains(meet)
    assert meet.contains(I.product(J))


def test_buchberger_budget_raises_with_progress(monkeypatch):
    monkeypatch.setattr(poly, "MAX_SPAIRS", 10)
    I, J = long_intersection()
    progress = r"unfinished after 10 S-pairs reduced: \d+ basis elements, largest sugar \d+"
    with pytest.raises(ResourceError, match=progress):
        I.intersect(J)
    # cyclic-4 reduces 8 S-pairs on the sugar queue, with cofactors, and 4
    # with signatures, without
    ring, gens = classic_system("cyclic4")
    monkeypatch.setattr(poly, "MAX_SPAIRS", 7)
    progress = "after 7 S-pairs reduced: 7 basis elements, largest sugar 6$"
    with pytest.raises(ResourceError, match=progress):
        groebner_basis(gens, GREVLEX, track=True)
    monkeypatch.setattr(poly, "MAX_SPAIRS", 8)
    groebner_basis(gens, GREVLEX, track=True)
    monkeypatch.setattr(poly, "MAX_SPAIRS", 3)
    progress = "after 3 S-pairs reduced: 6 basis elements, largest sugar 5$"
    with pytest.raises(ResourceError, match=progress):
        groebner_basis(gens, GREVLEX)
    monkeypatch.setattr(poly, "MAX_SPAIRS", 4)
    groebner_basis(gens, GREVLEX)


def monomial_ideal(ring, exps_list):
    return Ideal(ring, tuple(ring.monomial(e) for e in exps_list))


def oracle_monomial_intersect(ring, gens_a, gens_b):
    """Combinatorial formula: pairwise lcms generate the intersection."""
    return monomial_ideal(
        ring, [tuple(map(max, a, b)) for a in gens_a for b in gens_b]
    )


def oracle_monomial_colon(ring, gens_a, m):
    """Combinatorial formula: (I : x^m) = (a / gcd(a, m))."""
    return monomial_ideal(
        ring,
        [tuple(x - min(x, y) for x, y in zip(a, m)) for a in gens_a],
    )


def test_monomial_intersect_against_combinatorial_oracle(R2):
    exps = [(i, j) for i in range(3) for j in range(3)]
    singles = [[e] for e in exps if e != (0, 0)]
    pairs = [[a, b] for a in exps for b in exps if a < b and a != (0, 0)]
    cases = singles + pairs[:30]
    for ga in cases[:12]:
        for gb in cases[:12]:
            lhs = monomial_ideal(R2, ga).intersect(monomial_ideal(R2, gb))
            rhs = oracle_monomial_intersect(R2, ga, gb)
            assert lhs.equals(rhs), (ga, gb)


def test_monomial_colon_against_combinatorial_oracle(R3):
    rng = random.Random(77)
    exps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    for _ in range(40):
        gens = [rng.choice(exps), rng.choice(exps)]
        m = rng.choice(exps)
        if all(x == 0 for x in m):
            continue
        lhs = monomial_ideal(R3, gens).colon_element(R3.monomial(m))
        rhs = oracle_monomial_colon(R3, gens, m)
        assert lhs.equals(rhs), (gens, m)


@pytest.mark.parametrize("track", [False, True])
def test_monomial_ideals_build_no_pair_queue(monkeypatch, track):
    """Every S-polynomial of monomials is 0, so Buchberger goes straight to
    the reduced basis: the minimal monomials, monic, with cofactors that
    still give basis[i] = sum_j cofs[i][j] * gens[j]."""

    class NoPairs:
        def __init__(self, *args):
            raise AssertionError("a pair queue was built")

    monkeypatch.setattr(poly, "_SugarPairs", NoPairs)
    monkeypatch.setattr(poly, "_SignaturePairs", NoPairs)
    field, rng = FieldSpec(7, 1), random.Random(31 + track)
    for n in (1, 2, 3, 4):
        ring = PolyRing(field, ("x", "y", "z", "w")[:n])
        for _ in range(12):
            gens = [
                ring.monomial([rng.randrange(4) for _ in range(n)], field.from_int(rng.randrange(1, 7)))
                for _ in range(rng.randrange(1, 6))
            ]
            gens += [ring.zero] * rng.randrange(2) + gens[: rng.randrange(2)]
            rng.shuffle(gens)
            expected = poly._minimal_monomials({next(iter(g._packed)) for g in gens if g}, ring)
            for order in (GREVLEX, LEX, elimination_order(1)):
                out = groebner_basis(gens, order, track)
                basis, cofs = out if track else (out, None)
                assert sorted(m for g in basis for m in g._packed) == sorted(expected)
                assert all(len(g._packed) == 1 and g.monic(order) == g for g in basis)
                for g, cof in zip(basis, cofs or ()):
                    assert sum((c * f for c, f in zip(cof, gens)), ring.zero) == g
    # monomials meet no S-pair degree guard: the lcm x^8*y lies above bound 8
    ring = PolyRing(field, ("x", "y"), 8)
    gens = [ring.parse("x^8"), ring.parse("x^7*y")]
    out = groebner_basis(gens, GREVLEX, track)
    assert sorted(str(g) for g in (out[0] if track else out)) == ["x^7*y", "x^8"]
    with pytest.raises(AssertionError, match="pair queue"):
        groebner_basis([ring.parse("x + y"), ring.parse("x*y")], GREVLEX, track)


# -- monomial radical ---------------------------------------------------------------


def test_monomial_radical_examples(R2):
    x, y = R2.var("x"), R2.var("y")
    assert Ideal(R2, (x**2 * y,)).monomial_radical().canonical_strings() == ["x*y"]
    assert sorted(
        Ideal(R2, (x**2, y**3)).monomial_radical().canonical_strings()
    ) == ["x", "y"]


def test_squarefree_checks(R3):
    x, y, z = (R3.var(v) for v in "xyz")
    assert Ideal(R3, (x * y, z)).is_squarefree_monomial()
    assert not Ideal(R3, (x**2 * y,)).is_squarefree_monomial()


def test_monomial_ops_reject_non_monomial(R2):
    x, y = R2.var("x"), R2.var("y")
    with pytest.raises(UsageError):
        Ideal(R2, (x + y,)).is_squarefree_monomial()


# -- errors and edge values at the public boundary -----------------------------


def outside_x(ring):
    """x in a ring with one more variable than `ring`, so outside it."""
    return PolyRing(ring.field, ring.vars + ("z",)).var("x")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda R: MonomialOrder("revlex"), UsageError, "unknown monomial order 'revlex'"),
        (lambda R: R.monomial((1,)), UsageError, "bad exponent vector"),
        (lambda R: R.var("z"), UsageError, "unknown variable 'z'"),
        (lambda R: R.var("x") + "x", UsageError, "cannot combine polynomial with str"),
        (lambda R: R.var("x") + outside_x(R), UsageError, "polynomials belong to different rings"),
        (lambda R: R.var("x") ** -1, UsageError, "negative polynomial power"),
        (lambda R: R.var("x").frobenius_power(-1), UsageError,
         "frobenius iteration count must be >= 0"),
        (lambda R: R.parse("x^101").frobenius_power(1), ResourceError,
         "Frobenius power degree 202 exceeds the configured bound 200"),
        (lambda R: PolyRing(FieldSpec(2, 2), ("x",)).parse("x + [1,"), UsageError,
         "syntax error at position 7: unterminated coefficient literal"),
        (lambda R: divide(R.var("x"), [R.zero], GREVLEX), DomainError,
         "zero polynomial has no leading term"),
        (lambda R: Ideal(R, (outside_x(R),)), UsageError, "generator outside the ring"),
        (lambda R: Ideal(R, ()).normal_form(outside_x(R)), UsageError,
         "polynomial outside the ring"),
        (lambda R: Ideal(R, ()).colon_element(outside_x(R)), UsageError,
         "polynomial outside the ring"),
        *[
            (lambda R, method=method: getattr(Ideal(R, ()), method)(Ideal(outside_x(R).ring, ())),
             UsageError, "ideals in different rings")
            for method in ("equals", "sum", "product", "intersect")
        ],
    ],
    ids=["order", "exponents", "variable", "combine-type", "combine-ring", "negative-power",
         "frobenius-count", "frobenius-degree", "unterminated-literal", "divide-by-zero",
         "generator-ring", "normal-form-ring", "colon-element-ring", "equals-ring", "sum-ring",
         "product-ring", "intersect-ring"],
)
def test_user_errors_name_their_cause(R2, call, error, message):
    with pytest.raises(error) as info:
        call(R2)
    assert str(info.value) == message


def test_edge_values_of_polynomials_and_ideals(R2):
    x, y = R2.var("x"), R2.var("y")
    assert x != "x" and x != outside_x(R2)
    assert (x * 0).is_zero and (0 * x).is_zero
    # (I : 0) is the whole ring
    assert Ideal(R2, (x,)).colon(Ideal(R2, (R2.zero,))).canonical_strings() == ["1"]
    with_zero = Ideal(R2, (x**2 * y, R2.zero))
    assert with_zero.monomial_radical().canonical_strings() == ["x*y"]
    assert not with_zero.is_squarefree_monomial()
    assert Ideal(R2, (x * y, y)).to_json() == ["y"]


# -- guards ---------------------------------------------------------------------------


def test_degree_guard(f2):
    ring = PolyRing(f2, ("x",), max_degree=10)
    x = ring.var("x")
    with pytest.raises(ResourceError):
        (x**6) * (x**6)


def test_extended_groebner_cofactors(R2):
    rng = random.Random(31)
    for _ in range(15):
        gens = tuple(
            g for g in (random_poly(rng, R2, 3, 2) for _ in range(3)) if not g.is_zero
        )
        if not gens:
            continue
        gb, cofs = groebner_basis(gens, GREVLEX, track=True)
        assert gb == groebner_basis(gens, GREVLEX)
        for g, cof in zip(gb, cofs):
            acc = R2.zero
            for c, gen in zip(cof, gens):
                acc = acc + c * gen
            assert acc == g


def test_tracked_division_identity(R2):
    rng = random.Random(14)
    for _ in range(20):
        f = random_poly(rng, R2)
        divisors = [g for g in (random_poly(rng, R2, 2, 2) for _ in range(2)) if g]
        if not divisors:
            continue
        r, quots = divide(f, divisors, GREVLEX, track=True)
        acc = r
        for q, d in zip(quots, divisors):
            acc = acc + q * d
        assert acc == f
