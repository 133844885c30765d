"""Field arithmetic, Frobenius, and inverse Frobenius."""

import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cartier import _kernel, field
from cartier.cli import run
from cartier.errors import DomainError, ResourceError, UsageError
from cartier.field import (
    DEFAULT_MODULI,
    TABLE_MAX_ORDER,
    FieldSpec,
    default_modulus,
    embed,
    find_embedding_root,
)
from conftest import (
    irreducible_by_trial_division,
    lex_least_irreducible_by_trial_division,
    poly_basis_product,
)


def brute_gf9_product(a, b):
    """Multiplication table oracle for GF(9) = F_3[t]/(t^2+1): plain
    convolution followed by the substitution t^2 = -1."""
    c0 = (a[0] * b[0] - a[1] * b[1]) % 3
    c1 = (a[0] * b[1] + a[1] * b[0]) % 3
    return (c0, c1)


def test_gf4_defining_relation(gf4):
    w = gf4.gen
    assert w * w == w + gf4.one


def test_multiplicative_identity_exhaustive(gf4, gf8):
    for spec in (gf4, gf8):
        for a in spec.elements():
            assert a * spec.one == a


def test_gf9_against_brute_force_table(gf9):
    t = gf9.gen
    assert (t * t).coeffs == brute_gf9_product((0, 1), (0, 1)) == (2, 0)
    for a in gf9.elements():
        for b in gf9.elements():
            assert (a * b).coeffs == brute_gf9_product(a.coeffs, b.coeffs)


def test_inverses_exhaustive(gf8, gf9):
    for spec in (gf8, gf9):
        for a in spec.elements():
            if a.is_zero:
                continue
            assert a * a.inverse() == spec.one
            assert a / a == spec.one


def test_invert_zero_raises(gf4):
    with pytest.raises(DomainError):
        gf4.zero.inverse()


def test_mixed_field_operands_raise(gf4, gf8):
    with pytest.raises(UsageError):
        gf4.one + gf8.one
    with pytest.raises(UsageError):
        gf4.one * gf8.one


def test_frobenius_fixes_prime_field(gf8):
    for k in range(2):
        a = gf8.from_int(k)
        for j in range(5):
            assert a.frobenius(j) == a


def test_frobenius_on_gf4(gf4):
    w = gf4.gen
    assert w.frobenius(1) == w * w


def test_frobenius_d_is_identity(gf8, gf9):
    for spec in (gf8, gf9):
        for a in spec.elements():
            assert a.frobenius(spec.d) == a


def test_inv_frobenius_fixes_zero_one(gf8):
    for j in range(4):
        assert gf8.zero.inv_frobenius(j) == gf8.zero
        assert gf8.one.inv_frobenius(j) == gf8.one


def test_inv_frobenius_gf4(gf4):
    w = gf4.gen
    r = w.inv_frobenius(1)
    assert r == w * w
    assert r * r == w


def test_frobenius_round_trips_exhaustive(gf8):
    for a in gf8.elements():
        for j in range(4):
            assert a.inv_frobenius(j).frobenius(j) == a
            assert a.frobenius(j).inv_frobenius(j) == a


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_frobenius_additivity_exhaustive(p, d):
    spec = FieldSpec(p, d)
    for a in spec.elements():
        for b in spec.elements():
            assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 6))
def test_frobenius_additivity_gf27(i, j, k):
    spec = FieldSpec(3, 3)
    elems = list(spec.elements())
    a, b = elems[i], elems[j]
    assert (a + b).frobenius(k) == a.frobenius(k) + b.frobenius(k)


@pytest.mark.parametrize("d,e", [(4, 1), (4, 2), (4, 4), (6, 2), (6, 3)])
def test_frobenius_fixed_set_is_subfield(d, e):
    spec = FieldSpec(2, d, None, e)
    fixed = [a for a in spec.elements() if a.frobenius(e) == a]
    assert len(fixed) == 2**e
    # the fixed set is closed under the field operations
    fixed_set = {a.coeffs for a in fixed}
    for a in fixed:
        for b in fixed:
            assert (a + b).coeffs in fixed_set
            assert (a * b).coeffs in fixed_set


def test_default_moduli_are_verified():
    for (p, d) in DEFAULT_MODULI:
        spec = FieldSpec(p, d)
        assert spec.modulus == DEFAULT_MODULI[(p, d)]


def test_searched_modulus_beyond_table():
    mod = default_modulus(2, 8)
    spec = FieldSpec(2, 8, mod)
    assert spec.order == 256


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(UsageError):
        FieldSpec(2, 2, [1, 0, 1])


def test_nonprime_characteristic_rejected():
    with pytest.raises(UsageError):
        FieldSpec(4, 1)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % i for i in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(20_000) if field.is_prime(n) != _prime_by_trial_division(n)] == []


@pytest.mark.parametrize(
    "n, prime",
    [
        (2047, False),  # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
        (3215031751, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (1111111111111111111, True),  # 19 ones
        (2**61 - 1, True),
        (2**64 - 59, True),
        (2**64 - 57, False),
    ],
)
def test_primality_of_large_characteristics(n, prime):
    assert field.is_prime(n) is prime


def test_large_prime_characteristic_is_fast():
    start = time.perf_counter()
    spec = FieldSpec(1111111111111111111, 2)
    assert spec.order == 1111111111111111111**2
    assert time.perf_counter() - start < 5.0  # trial division took hours


def test_undecidable_characteristic_and_huge_twist_are_resource_errors():
    with pytest.raises(ResourceError):
        FieldSpec(2**89 - 1, 1)
    assert FieldSpec(2, 1, None, 99999).q == 2**99999
    with pytest.raises(ResourceError):
        FieldSpec(2, 1, None, 10**20)  # q would have 10^20 bits


def test_modulus_must_be_monic():
    with pytest.raises(UsageError):
        FieldSpec(3, 2, [1, 0, 2])


def test_json_round_trip(gf4):
    data = gf4.to_json()
    assert data == {"p": 2, "d": 2, "modulus": [1, 1, 1], "e": 1}
    assert FieldSpec.from_json(data) == gf4


def test_element_text_form(gf4, f2):
    assert str(gf4.element((1, 1))) == "[1,1]"
    assert str(f2.one) == "1"


def test_embedding_is_a_field_hom(gf4):
    big = FieldSpec(2, 4)
    phi = embed(gf4, big)
    for a in gf4.elements():
        for b in gf4.elements():
            assert phi(a * b) == phi(a) * phi(b)
            assert phi(a + b) == phi(a) + phi(b)
    assert phi(gf4.one) == big.one


def test_embedding_root_is_canonical_least(gf4):
    big = FieldSpec(2, 4)
    root = find_embedding_root(gf4, big)
    # every root of the small modulus in the big field, canonical order
    roots = []
    for x in big.elements():
        acc = big.zero
        for c in reversed(gf4.modulus):
            acc = acc * x + big.from_int(c)
        if acc.is_zero:
            roots.append(x)
    assert roots and root == roots[0]
    assert root.key() == min(r.key() for r in roots)


def test_embedding_rejects_non_divisible_degree(gf4, gf8):
    with pytest.raises(UsageError):
        embed(gf4, gf8)


# ----------------------------------------------------------------------
# the packed kernel against polynomial-basis arithmetic


def _oracle_power(coeffs, n, spec):
    result = (1,) + (0,) * (spec.d - 1)
    base = coeffs
    while n:
        if n & 1:
            result = poly_basis_product(result, base, spec.p, spec.modulus)
        base = poly_basis_product(base, base, spec.p, spec.modulus)
        n >>= 1
    return result


def _check_pair(a, b):
    spec = a.spec
    p = spec.p
    assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
    assert (a * b).coeffs == poly_basis_product(a.coeffs, b.coeffs, p, spec.modulus)


def _check_single(a):
    spec = a.spec
    p, d = spec.p, spec.d
    assert (-a).coeffs == tuple((-x) % p for x in a.coeffs)
    if not a.is_zero:
        assert a.inverse().coeffs == _oracle_power(a.coeffs, spec.order - 2, spec)
    for j in (1, d - 1, d + 1):
        image = _oracle_power(a.coeffs, p ** (j % d), spec)
        assert a.frobenius(j).coeffs == image
        assert spec.element(image).inv_frobenius(j) == a


@pytest.mark.parametrize(
    "p,d,kind",
    [(2, 3, "_XorKernel"), (3, 2, "_ZechKernel"), (1_000_003, 1, "_PrimeKernel"), (3, 11, "_PolyKernel")],
)
def test_pow_matches_repeated_products_and_inverses(p, d, kind):
    spec = FieldSpec(p, d)
    assert type(spec.kernel).__name__ == kind
    rng = random.Random(p + d)
    samples = [spec.one, spec.gen, spec.from_int(-1)]
    samples += [spec.element([rng.randrange(p) for _ in range(d)]) for _ in range(5)]
    for a in samples:
        if a.is_zero:
            continue
        acc = spec.one
        for n in range(8):
            assert a**n == acc
            assert a ** -n == acc.inverse()
            acc = acc * a
        assert a ** (spec.order - 1) == spec.one
        assert a ** (spec.order + 2) == a * a * a
    zero = spec.zero
    assert zero**0 == spec.one and zero**1 == zero and zero**5 == zero
    with pytest.raises(DomainError):
        zero**-1


SMALL_BUNDLED = sorted(
    (p, d) for (p, d) in DEFAULT_MODULI if p**d <= 81
)


@pytest.mark.parametrize("p,d", SMALL_BUNDLED)
def test_kernel_matches_polynomial_basis_exhaustive(p, d):
    spec = FieldSpec(p, d)
    elems = list(spec.elements())
    assert [x.coeffs for x in elems] == list(product(range(p), repeat=d))
    for a in elems:
        _check_single(a)
        for b in elems:
            _check_pair(a, b)


@pytest.mark.parametrize("p,d", [(7, 6), (2, 16), (3, 11), (1_000_003, 1)])
def test_kernel_matches_polynomial_basis_sampled(p, d):
    spec = FieldSpec(p, d)
    rng = random.Random(p * 100 + d)
    sample = [spec.element([rng.randrange(p) for _ in range(d)]) for _ in range(40)]
    sample += [spec.zero, spec.one, spec.from_int(-1)]
    for a in sample:
        _check_single(a)
        for b in sample[:12]:
            _check_pair(a, b)


def test_fields_above_the_cap_use_polynomial_arithmetic():
    """Above TABLE_MAX_ORDER, extension fields use the polynomial basis and
    prime fields their residues."""
    kinds = {(3, 11): _kernel._PolyKernel, (1_000_003, 1): _kernel._PrimeKernel}
    for (p, d), kind in kinds.items():
        spec = FieldSpec(p, d)
        assert spec.order > TABLE_MAX_ORDER
        assert type(spec.kernel) is kind
        assert spec.gen * spec.gen.inverse() == spec.one
    assert not isinstance(FieldSpec(7, 6).kernel, (_kernel._PolyKernel, _kernel._PrimeKernel))
    assert type(FieldSpec(7, 1).kernel) is _kernel._PrimeKernel


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (1_000_003, 1), (3, 11)])
def test_row_operations_match_scalar_operations(p, d):
    """scale, add_multiple, dot and frob_row of each kernel kind (XOR, Zech,
    residue, polynomial basis) agree with its scalar operations."""
    k = FieldSpec(p, d).kernel
    rng = random.Random(p + d)
    u, v = ([rng.randrange(p**d) if rng.random() < 0.8 else 0 for _ in range(6)]
            for _ in range(2))
    for c in (0, k.one, rng.randrange(1, p**d)):
        assert k.scale(u, c) == [k.mul(x, c) for x in u]
        assert k.add_multiple(u, c, v) == [k.add(x, k.mul(c, y)) for x, y in zip(u, v)]
    dot = 0
    for x, y in zip(u, v):
        dot = k.add(dot, k.mul(x, y))
    assert k.dot(u, v) == dot
    for j in (1, -1, d + 1):
        assert k.frob_row(u, j) == [k.frob(x, j) for x in u]


KERNEL_KINDS = [
    (2, 1, "_XorKernel"), (2, 3, "_XorKernel"), (3, 2, "_ZechKernel"), (7, 1, "_PrimeKernel"),
    (1_000_003, 1, "_PrimeKernel"), (3, 11, "_PolyKernel"),
]


@pytest.mark.parametrize("p,d,kind", KERNEL_KINDS)
def test_add_terms_matches_scalar_operations(p, d, kind):
    """add_terms (acc += c * x^u * f on a dict of nonzero terms) of each
    kernel kind agrees with its scalar mul and add: a sum that cancels
    deletes its key, and the monomials new to acc come back in order."""
    k = FieldSpec(p, d).kernel
    assert type(k).__name__ == kind
    rng = random.Random(p * 10 + d)
    nonzero = lambda: rng.randrange(1, p**d)
    cancelled = 0
    for _ in range(40):
        acc = {rng.randrange(16): nonzero() for _ in range(rng.randrange(8))}
        exps = rng.sample(range(12), rng.randrange(9))
        coeffs = [nonzero() for _ in exps]
        u, c = rng.randrange(5), nonzero()
        if exps and rng.random() < 0.5:  # one exact cancellation
            acc[exps[0] + u] = k.neg(k.mul(c, coeffs[0]))
        expected = dict(acc)
        for e, y in zip(exps, coeffs):
            s = k.add(expected.get(e + u, 0), k.mul(c, y))
            if s:
                expected[e + u] = s
            else:
                del expected[e + u]
                cancelled += 1
        new = [e + u for e in exps if e + u not in acc]
        assert k.add_terms(acc, exps, coeffs, u, c) == new
        assert acc == expected and all(acc.values())
    assert cancelled


@pytest.mark.parametrize("p,d,kind", KERNEL_KINDS)
def test_sub_and_pow_of_every_kernel_kind(p, d, kind):
    """sub is add of the negative, and pow takes 0 and negative exponents,
    on every kernel kind, zero included."""
    k = FieldSpec(p, d).kernel
    assert type(k).__name__ == kind
    rng = random.Random(p * 10 + d)
    values = [0, k.one] + [rng.randrange(p**d) for _ in range(10)]
    for a in values:
        for b in values:
            assert k.sub(a, b) == k.add(a, k.neg(b))
    assert k.pow(0, 0) == k.one
    assert all(k.pow(0, n) == 0 for n in (1, 2, p**d))
    with pytest.raises(DomainError) as info:
        k.pow(0, -1)
    assert str(info.value) == "cannot invert zero"
    for a in filter(None, values):
        for n in (1, 2, 5, p**d):
            assert k.pow(a, -n) == k.inv(k.pow(a, n))


def test_every_odd_prime_field_computes_on_residues():
    """Prime fields of odd characteristic use residues mod p at every size,
    tabled or not; F_2 keeps its XOR tables."""
    largest = max(p for p in range(TABLE_MAX_ORDER - 100, TABLE_MAX_ORDER + 1) if field.is_prime(p))
    for p in (3, 5, 7, 11, 101, largest, 1_000_003):
        spec = FieldSpec(p, 1)
        k = spec.kernel
        assert type(k) is _kernel._PrimeKernel and k.one == 1
        for a in (1, 2, p - 1, p // 2 + 1):
            assert k.inv(a) == pow(a, p - 2, p) and k.mul(a, k.inv(a)) == 1
        with pytest.raises(DomainError):
            k.inv(0)
    assert type(FieldSpec(2, 1).kernel) is _kernel._XorKernel


def test_spec_and_field_info_build_no_tables(monkeypatch, capsys):
    monkeypatch.setattr(_kernel, "_KERNELS", {})
    spec = FieldSpec(7, 6)
    assert spec.order == TABLE_MAX_ORDER
    assert run(["field-info", "--p", "7", "--d", "6", "--json"]) == 0
    assert capsys.readouterr().out
    assert _kernel._KERNELS == {}
    spec.one * spec.gen  # the first arithmetic builds the kernel
    assert list(_kernel._KERNELS) == [(7, 6, spec.modulus)]


def test_kernel_is_shared_across_twists():
    assert FieldSpec(2, 4, None, 1).kernel is FieldSpec(2, 4, None, 2).kernel


def test_rabin_agrees_with_trial_division_exhaustive():
    for p, d in [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (3, 3), (3, 4),
                 (5, 2), (5, 3), (7, 2), (7, 3)]:
        for low in product(range(p), repeat=d):
            mod = low + (1,)
            assert field._is_irreducible(mod, p, d) == irreducible_by_trial_division(
                list(mod), p, d
            ), (p, d, mod)


def test_modulus_search_agrees_with_trial_division():
    for p in (2, 3, 5, 7):
        d = 1
        while p**d <= 10**5:
            expected = lex_least_irreducible_by_trial_division(p, d)
            assert field._search_modulus(p, d) == expected, (p, d)
            assert default_modulus(p, d) == expected, (p, d)
            d += 1


def test_degree_twelve_modulus_search_is_fast():
    start = time.perf_counter()
    spec = FieldSpec(7, 12)
    assert time.perf_counter() - start < 10
    assert spec.order == 7**12
    assert spec.modulus == field._search_modulus(7, 12)


# -- errors and edge values at the public boundary -----------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: default_modulus(4, 3), "characteristic 4 is not prime"),
        (lambda: FieldSpec(2, 17), "no modulus available for degree 17 over F_2"),
        (lambda: FieldSpec(2, 0), "extension degree must be >= 1"),
        (lambda: FieldSpec(2, 1, None, 0), "twist exponent must be >= 1"),
        (lambda: FieldSpec(2, 2).element([1, 0, 1]),
         "coefficient list longer than extension degree"),
        (lambda: FieldSpec(2, 2).unwrap([1]), "vector entry is not a field element"),
        (lambda: FieldSpec(2, 2).unwrap([FieldSpec(2, 1).one]),
         "operands belong to different fields"),
        (lambda: FieldSpec(2, 2).one + 1.5, "cannot combine field element with float"),
        (lambda: FieldSpec(2, 2).gen.frobenius(-1), "frobenius iteration count must be >= 0"),
        (lambda: FieldSpec(2, 2).gen.inv_frobenius(-1), "frobenius iteration count must be >= 0"),
        (lambda: find_embedding_root(FieldSpec(2, 1), FieldSpec(3, 2)),
         "fields have different characteristic"),
    ],
    ids=["modulus-characteristic", "modulus-degree", "degree", "twist", "element-length", "unwrap-entry",
         "unwrap-field", "combine-type", "frobenius-count", "inv-frobenius-count",
         "embedding-characteristic"],
)
def test_user_errors_name_their_cause(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


def test_unwrap_takes_elements_of_an_equal_spec():
    spec, twin = FieldSpec(2, 2), FieldSpec(2, 2)
    assert spec is not twin and spec == twin
    assert spec.unwrap([twin.gen, spec.one]) == [spec.gen.packed, spec.one.packed]
