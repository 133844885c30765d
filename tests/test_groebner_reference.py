"""The packed, heap-ordered division and Buchberger against a reference.

The reference below is the straightforward textbook version, kept here for
testing only: it runs on `Polynomial`/`FieldElement` arithmetic, finds the
leading pending term with `max` over the whole work dict at every step,
and computes its own sort keys, so it shares none of the packed code paths.

The reference keeps the generators as given, takes pairs first in, first
out, and drops only those with coprime leading terms.  Division scans the
divisors in the same order and breaks every tie the same way, so tracked
remainders and quotients must agree exactly.  Buchberger reduces the
generators first.  Under grevlex without cofactors it then takes pairs in
signature order and drops them by the signature criteria; with cofactors,
or under lex and block orders, it takes them by sugar and drops them by
the Gebauer–Möller criteria.  The reduced basis is unique, so both must
equal the reference's all the same, with far fewer S-polynomials formed.
Cofactors are not unique: tracked ones are held to their defining
identity basis[i] = sum_j cofs[i][j] * gens[j].
"""

import random
from itertools import product

import pytest

from cartier import _kernel, poly
from cartier.field import TABLE_MAX_ORDER, FieldSpec
from cartier.poly import (
    GREVLEX,
    LEX,
    PolyRing,
    divide,
    elimination_order,
    groebner_basis,
)

from test_poly import classic_system, random_poly


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def reference_key(order):
    if order.kind == "lex":
        return lambda exps: exps
    if order.kind == "grevlex":
        return _grevlex_key
    k = order.block
    return lambda exps: (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))


def ref_leading(f, key):
    e = max(f.terms, key=key)
    return e, f.terms[e]


def ref_divide(f, divisors, key, track=False):
    ring = f.ring
    quots = [ring.zero for _ in divisors] if track else None
    lead = [ref_leading(d, key) for d in divisors]
    rem = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for i, (de, dc) in enumerate(lead):
            if all(x <= y for x, y in zip(de, e)):
                factor_e = tuple(x - y for x, y in zip(e, de))
                factor_c = c / dc
                for te, tc in divisors[i].terms.items():
                    ne = tuple(x + y for x, y in zip(te, factor_e))
                    if ne == e:
                        continue
                    s = work.get(ne)
                    delta = tc * factor_c
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
    r = ring.zero
    for e, c in rem.items():
        r = r + ring.monomial(e, c)
    return (r, quots) if track else r


def ref_groebner(gens, order, zero_flags=None):
    """The reduced basis.  With `zero_flags` (a list), appends for each
    S-polynomial formed whether it reduced to zero."""
    key = reference_key(order)
    basis = [g for g in gens if not g.is_zero]
    if not basis:
        return ()
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        (fe, fc), (ge, gc) = ref_leading(basis[i], key), ref_leading(basis[j], key)
        if all(x == 0 or y == 0 for x, y in zip(fe, ge)):
            continue
        lcm = tuple(max(x, y) for x, y in zip(fe, ge))
        ring = basis[i].ring
        mf = ring.monomial(tuple(x - y for x, y in zip(lcm, fe)), fc.inverse())
        mg = ring.monomial(tuple(x - y for x, y in zip(lcm, ge)), gc.inverse())
        r = ref_divide(mf * basis[i] - mg * basis[j], basis, key)
        if zero_flags is not None:
            zero_flags.append(r.is_zero)
        if not r.is_zero:
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # monic, minimal, fully reduced
    items = [g * ref_leading(g, key)[1].inverse() for g in basis]
    items.sort(key=lambda g: key(ref_leading(g, key)[0]))
    minimal = []
    for g in items:
        ge = ref_leading(g, key)[0]
        if any(all(x <= y for x, y in zip(ref_leading(h, key)[0], ge)) for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(ref_divide(g, others, key) if others else g)
    reduced.sort(key=lambda g: key(ref_leading(g, key)[0]))
    return tuple(reduced)


def assert_cofactors(basis, cofs, gens):
    """basis[i] = sum_j cofs[i][j] * gens[j], in `Polynomial` arithmetic."""
    assert len(cofs) == len(basis)
    for g, cof in zip(basis, cofs):
        assert len(cof) == len(gens)
        total = g.ring.zero
        for c, f in zip(cof, gens):
            total = total + c * f
        assert total == g


FIELDS = [(2, 1), (7, 1), (2, 2), (3, 2), (1000003, 1), (3, 11)]
ORDERS = [GREVLEX, LEX, elimination_order(1)]


def test_reference_fields_cover_both_kernels():
    assert any(p**d > TABLE_MAX_ORDER for p, d in FIELDS)
    assert any(p**d <= TABLE_MAX_ORDER for p, d in FIELDS)


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim1"])
@pytest.mark.parametrize("p,d", FIELDS, ids=[f"{p}^{d}" for p, d in FIELDS])
def test_packed_buchberger_matches_reference(monkeypatch, p, d, order):
    # Over a large field random ideals are rarely trivial, and its
    # polynomial-basis arithmetic is slow: those instances get two variables.
    big = p**d > TABLE_MAX_ORDER
    ring = PolyRing(FieldSpec(p, d), ("x", "y") if big else ("x", "y", "z"))
    key = reference_key(order)
    rng = random.Random(1000 * p + 10 * d + len(repr(order)))
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    nontrivial = formed = tracked_formed = 0
    for _ in range(6 if big else 12):
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(3)]
        basis, n, m = _both_paths(spolys, gens, order)
        assert basis == ref_groebner(gens, order)
        nontrivial += len(basis) > 1
        formed += n
        tracked_formed += m
        divisors = [g for g in gens if not g.is_zero]
        f = random_poly(rng, ring, max_terms=5, max_exp=4)
        r, quots = divide(f, divisors, order, track=True)
        assert (r, quots) == ref_divide(f, divisors, key, track=True)
        assert divide(f, divisors, order) == r
        assert divide(f, basis, order) == ref_divide(f, list(basis), key)
    assert nontrivial and formed and tracked_formed


def _watch_pending(monkeypatch):
    """Wrap F_p's term loop of division: count the pending terms that
    cancel and then come back, and keep the largest unreduced coefficient."""
    seen = {"back": 0, "top": 0}
    loop = _kernel._PrimeKernel.lazy_terms

    def watching(self, acc, exps, coeffs, u, c):
        before = [acc.get(e + u) for e in exps]
        fresh = loop(self, acc, exps, coeffs, u, c)
        for e, s in zip(exps, before):
            e += u
            seen["back"] += s is not None and s % self.p == 0 and acc[e] % self.p != 0
            seen["top"] = max(seen["top"], acc[e])
        return fresh

    monkeypatch.setattr(_kernel._PrimeKernel, "lazy_terms", watching)
    return seen


def _small_poly(rng, ring, terms, max_exp):
    """Coefficients 1, 2, -1 and -2, which cancel often in any F_p."""
    p, f = ring.field.p, ring.zero
    for _ in range(terms):
        e = tuple(rng.randint(0, max_exp) for _ in ring.vars)
        f = f + ring.monomial(e, ring.field.from_int(rng.choice([1, 2, p - 1, p - 2])))
    return f


@pytest.mark.parametrize("p", [3, 7, 1000003], ids=["F3", "F7", "F1000003"])
def test_prime_field_division_reduces_at_the_pop(monkeypatch, p):
    """Over F_p a pending coefficient is reduced mod p only when its
    monomial leaves the heap.  Here monomials cancel and come back while
    pending, and unreduced coefficients pass p^2, with the reference's
    remainders and quotients all the same."""
    ring = PolyRing(FieldSpec(p, 1), ("x", "y", "z"))
    seen = _watch_pending(monkeypatch)
    rng = random.Random(p)
    for _ in range(30):
        divisors = [_small_poly(rng, ring, rng.randint(2, 4), 2) for _ in range(rng.randint(1, 3))]
        divisors = [d for d in divisors if not d.is_zero]
        f = _small_poly(rng, ring, 8, 4)
        for order in ORDERS:
            key = reference_key(order)
            assert divide(f, divisors, order, track=True) == ref_divide(f, divisors, key, True)
            assert divide(f, divisors, order) == ref_divide(f, divisors, key)
    assert seen["back"] and seen["top"] > p * p
    # ten leads, none dividing another, whose tails all meet in the
    # constant: it takes ten updates of (p - 1)^2 before it is popped
    leads = [ring.monomial(e) for e in product(range(4), repeat=3) if sum(e) == 3]
    f = sum(leads[1:], leads[0])
    divisors = [m + ring.constant(p - 1) for m in leads]
    seen["top"] = 0
    r, quots = divide(f, divisors, GREVLEX, track=True)
    assert (r, quots) == ref_divide(f, divisors, reference_key(GREVLEX), True)
    assert r == ring.constant(len(leads)) and seen["top"] == len(leads) * (p - 1) ** 2


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim1"])
@pytest.mark.parametrize("p,d", FIELDS, ids=[f"{p}^{d}" for p, d in FIELDS])
def test_criteria_buchberger_matches_fifo_reference(p, d, order):
    # Up to five generators, some of them multiples of others, so that
    # generator reduction and all three criteria have work to do.
    big = p**d > TABLE_MAX_ORDER
    ring = PolyRing(FieldSpec(p, d), ("x", "y") if big else ("x", "y", "z"))
    rng = random.Random(7000 * p + 10 * d + len(repr(order)))
    nontrivial = 0
    for _ in range(6 if big else 12):
        gens = [
            random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(rng.randint(2, 4))
        ]
        gens.append(gens[0] * random_poly(rng, ring, max_terms=2, max_exp=1))
        basis = groebner_basis(gens, order)
        assert basis == ref_groebner(gens, order)
        nontrivial += len(basis) > 1
    assert nontrivial


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim1"])
@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 2)], ids=["F2", "GF4", "GF9"])
def test_untracked_runs_match_fifo_reference(monkeypatch, p, d, order):
    # Generators of up to four terms with exponents up to 2 mix degrees 0
    # to 6, so the sugar of a signature and the degree of its element part
    # ways.  Under grevlex every run keeps its signatures to the end; lex
    # and block orders take the sugar queue.
    ring = PolyRing(FieldSpec(p, d), ("x", "y", "z"))
    rng = random.Random(9000 * p + 10 * d + len(repr(order)))
    runs = _record_calls(monkeypatch, "_SignaturePairs")
    restarts = _record_calls(monkeypatch, "_SugarPairs")
    nontrivial = 0
    for _ in range(10):
        gens = [random_poly(rng, ring, max_terms=4, max_exp=2) for _ in range(rng.randint(3, 4))]
        basis = groebner_basis(gens, order)
        assert basis == ref_groebner(gens, order)
        nontrivial += len(basis) > 1
    assert nontrivial
    if order == GREVLEX:
        assert runs and not restarts
    else:
        assert not runs


# (p, variables, degree bound, generators, reduced basis under grevlex)
RESTARTS = [
    (3, ("x", "y", "z"), 4, ("2*z^2 + y + 2*x*z", "2*x + 2*x*z^2"),
     ["x*z + z^2 + 2*y", "x^3 + x*y^2 + 2*x*y + x", "y*z^2 + 2*x^2 + 2*y^2 + z^2 + 2*y",
      "z^3 + 2*y*z + 2*x"]),
    (7, ("x", "y", "z"), 5, ("3*x*y*z + 1 + 5*x^2*y^2", "4*y*z^2 + 3*x*z^2", "5*x*y^2*z + 6*x*y^2"),
     ["x + 6*y", "y^4 + 6*y^2 + 3", "z + 4"]),
]


@pytest.mark.parametrize("p,names,bound,texts,expected", RESTARTS, ids=["F3", "F7"])
def test_signature_runs_start_over_on_the_sugar_queue(
    monkeypatch, p, names, bound, texts, expected
):
    # A pair whose sugar passes the degree bound starts the run over from
    # its inputs on the sugar queue, whose criteria leave that pair out:
    # the basis is the one the same ideal has in a ring of bound 200, where
    # the signatures last.
    restarts = _record_calls(monkeypatch, "_SugarPairs")
    for bound, starts in ((bound, 1), (200, 0)):
        ring = PolyRing(FieldSpec(p, 1), names, bound)
        del restarts[:]
        basis = groebner_basis([ring.parse(t) for t in texts], GREVLEX)
        assert sorted(map(str, basis)) == sorted(expected)
        assert len(restarts) == starts


@pytest.mark.parametrize("p,names,bound,texts,expected", RESTARTS, ids=["F3", "F7"])
def test_signature_pop_leaves_the_lists_to_the_loop(
    monkeypatch, p, names, bound, texts, expected
):
    # `pop` only reports the pair past the degree bound: the loop alone
    # cuts its basis back to the inputs before it starts over.
    pops, real = [], poly._SignaturePairs.pop

    def pop(self):
        before = len(self.prepared)
        pair = real(self)
        pops.append((before, len(self.prepared), pair))
        return pair

    monkeypatch.setattr(poly._SignaturePairs, "pop", pop)
    ring = PolyRing(FieldSpec(p, 1), names, bound)
    basis = groebner_basis([ring.parse(t) for t in texts], GREVLEX)
    assert sorted(map(str, basis)) == sorted(expected)
    assert all(before == after for before, after, _ in pops)
    assert pops[-1][2] == ()


def test_a_constant_ends_the_run(monkeypatch):
    # Once an S-polynomial reduces to a constant the basis is (1), and
    # every pair left would reduce to 0: the run forms no more of them.
    # With cofactors the sugar queue formed 26 here, the last 5 after the
    # constant.
    ring = PolyRing(FieldSpec(7, 1), ("x", "y", "z"))
    texts = ("4*x*z^2 + 5*z^2", "5*x^2*y^2 + 4", "6*x*y*z + 5*x^2 + 2*x*y*z^2",
             "3*x^2*y^2*z + 5*x^2*y^2*z^2 + 6*y")
    gens = [ring.parse(t) for t in texts]
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    reductions = _record_calls(monkeypatch, "_reduce")
    for track, formed in ((False, 22), (True, 21)):
        del spolys[:], reductions[:]
        out = groebner_basis(gens, GREVLEX, track)
        assert len(spolys) == formed
        # each generator is reduced once before the first S-pair
        assert list(reductions[len(gens) + formed - 1][1][0]) == [0]
        basis = out[0] if track else out
        assert basis == (ring.one,)
    assert_cofactors(*out, gens)


def _record_calls(monkeypatch, name):
    """Patch poly.<name> to append (arguments, result) of each call to the
    list it returns."""
    calls = []
    real = getattr(poly, name)

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(poly, name, recording)
    return calls


# (system, S-polynomials the FIFO reference forms, most S-polynomials
# formed per S-polynomial of the reference).  Cyclic-4 forms 8 where the
# reference forms 35; Katsura-4 8 of 15 and Katsura-5 26 of 49, where each
# pair that the criteria keep but that reduces to zero shares its lcm with
# a pair they dropped.
WORK_BOUNDS = [("cyclic4", 35, 0.5), ("katsura4", 15, 0.6), ("katsura5", 49, 0.6)]


@pytest.mark.parametrize(
    "name,fifo_formed,bound", WORK_BOUNDS, ids=[n for n, _, _ in WORK_BOUNDS]
)
def test_criteria_form_fewer_s_polynomials(monkeypatch, name, fifo_formed, bound):
    ring, gens = classic_system(name)
    fifo_zero_flags = []
    fifo = ref_groebner(gens, GREVLEX, zero_flags=fifo_zero_flags)
    assert len(fifo_zero_flags) == fifo_formed
    fifo_zero = sum(fifo_zero_flags)
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    reductions = _record_calls(monkeypatch, "_reduce")
    assert groebner_basis(gens, GREVLEX) == fifo
    formed = len(spolys)
    # each nonzero generator is reduced once before the first S-pair
    n = sum(1 for g in gens if not g.is_zero)
    assert len(reductions) >= n + formed
    zero = sum(not r for _, (r, _) in reductions[n : n + formed])
    assert formed <= bound * fifo_formed
    # at most half as many reduce to zero, the work wasted outright
    assert 2 * zero <= fifo_zero


def test_homogeneous_pairs_leave_in_degree_order(monkeypatch):
    # On homogeneous input the sugar of a pair, and of its signature, is
    # the degree of its lcm, so both queues form S-polynomials in
    # nondecreasing lcm degree: the signature queue under grevlex, and the
    # sugar queue, with or without cofactors, under lex too, where the
    # order key alone would not.
    ring = PolyRing(FieldSpec(7, 1), ("a", "b", "c", "d", "h"))
    texts = ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-h^4")
    gens = [ring.parse(t) for t in texts]
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    reductions = _record_calls(monkeypatch, "_reduce")

    def pairs():
        """lcm degrees of the S-polynomials formed, and how many of them
        reduced to zero; each generator is reduced once before them."""
        unpack = ring._unpack  # prepared leading monomials are packed ints
        degrees = [sum(map(max, unpack(f[0]), unpack(g[0]))) for (f, g, _, _), _ in spolys]
        zero = sum(not r for _, (r, _) in reductions[len(gens) : len(gens) + len(spolys)])
        del spolys[:], reductions[:]
        return degrees, zero

    groebner_basis(gens, GREVLEX)
    assert pairs() == ([4, 5, 5, 6], 1)
    basis = groebner_basis(gens, LEX)
    untracked, zero = pairs()
    assert untracked == sorted(untracked) and len(set(untracked)) > 2
    assert (len(untracked), zero) == (11, 7)
    assert groebner_basis(gens, LEX, track=True)[0] == basis
    assert pairs() == (untracked, 7)


def _both_paths(spolys, gens, order):
    """Untracked and tracked runs, whose `_s_polynomial` calls spolys
    records, reach the same basis, and tracked cofactors satisfy their
    identity.  Returns the basis and the S-polynomials each run formed,
    untracked first."""
    del spolys[:]
    basis = groebner_basis(gens, order)
    untracked = len(spolys)
    del spolys[:]
    tracked, cofs = groebner_basis(gens, order, track=True)
    assert tracked == basis
    assert_cofactors(basis, cofs, gens)
    return basis, untracked, len(spolys)


# (system, S-polynomials formed and reductions to zero without cofactors)
UNTRACKED_PINS = [
    ("cyclic4", 4, 1), ("katsura4", 3, 0), ("katsura5", 9, 1), ("cyclic5", 35, 1),
    ("katsura6", 47, 8), ("cyclic6", 143, 18),
]


@pytest.mark.parametrize(
    "name,formed,zero", UNTRACKED_PINS, ids=[n for n, _, _ in UNTRACKED_PINS]
)
def test_untracked_runs_form_their_pinned_pairs(monkeypatch, name, formed, zero):
    # Signatures leave few reductions to zero: the sugar queue forms 8, 8,
    # 26, 108, 152 and 350 S-polynomials here, of which 5, 5, 18, 75, 120
    # and 257 reduce to zero.
    ring, gens = classic_system(name)
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    reductions = _record_calls(monkeypatch, "_reduce")
    groebner_basis(gens, GREVLEX)
    assert len(spolys) == formed
    # each generator is reduced once before the first S-pair
    assert sum(not r for _, (r, _) in reductions[len(gens) : len(gens) + formed]) == zero


# (system, S-polynomials formed with cofactors)
TRACKED_PINS = [("cyclic4", 8), ("katsura4", 8), ("katsura5", 26), ("cyclic5", 108)]


@pytest.mark.parametrize("name,formed", TRACKED_PINS, ids=[n for n, _ in TRACKED_PINS])
def test_tracked_runs_form_their_pinned_pairs(monkeypatch, name, formed):
    ring, gens = classic_system(name)
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    basis, untracked, tracked = _both_paths(spolys, gens, GREVLEX)
    assert tracked == formed
    assert untracked == dict((n, f) for n, f, _ in UNTRACKED_PINS)[name]
