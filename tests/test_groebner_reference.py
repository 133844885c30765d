"""The packed, heap-ordered division and Buchberger against a reference.

The reference below is the straightforward textbook version, kept here for
testing only: it runs on `Polynomial`/`FieldElement` arithmetic, finds the
leading pending term with `max` over the whole work dict at every step,
and computes its own sort keys, so it shares none of the packed code paths.

Cofactor-tracked runs share its pair order (FIFO) and its only criterion
(coprime leading terms), and the scan order of the divisors and every
tie-break are the same, so tracked reduced bases and cofactors, and
remainders and quotients, must agree exactly.  Untracked runs reduce the
generators first, take pairs by sugar and drop them by the Gebauer–Möller
criteria; the reduced basis is unique, so theirs must equal the
reference's all the same, with far fewer S-polynomials formed.
"""

import random

import pytest

from cartier import poly
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


def ref_reduce(f, fcof, divisors, dcofs, key):
    if fcof is None:
        return ref_divide(f, divisors, key), None
    r, quots = ref_divide(f, divisors, key, track=True)
    out = list(fcof)
    for q, dc in zip(quots, dcofs):
        if not q.is_zero:
            out = [o - q * d for o, d in zip(out, dc)]
    return r, out


def ref_groebner(gens, order, track=False):
    key = reference_key(order)
    basis, cofs = [], []
    for j, g in enumerate(gens):
        if g.is_zero:
            continue
        basis.append(g)
        cof = [g.ring.zero] * len(gens)
        cof[j] = g.ring.one
        cofs.append(cof)
    if not basis:
        return ((), ()) if track else ()
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
        s = mf * basis[i] - mg * basis[j]
        scof = [mf * a - mg * b for a, b in zip(cofs[i], cofs[j])]
        r, rcof = ref_reduce(s, scof, basis, cofs, key)
        if not r.is_zero:
            basis.append(r)
            cofs.append(rcof)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # monic, minimal, fully reduced
    items = []
    for g, cof in zip(basis, cofs):
        inv = ref_leading(g, key)[1].inverse()
        items.append((g * inv, [c * inv for c in cof]))
    items.sort(key=lambda t: key(ref_leading(t[0], key)[0]))
    minimal = []
    for g, cof in items:
        ge = ref_leading(g, key)[0]
        if any(
            all(x <= y for x, y in zip(ref_leading(h, key)[0], ge)) for h, _ in minimal
        ):
            continue
        minimal.append((g, cof))
    reduced = []
    for i, (g, cof) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            g, cof = ref_reduce(
                g, cof, [h for h, _ in others], [c for _, c in others], key
            )
        reduced.append((g, cof))
    reduced.sort(key=lambda t: key(ref_leading(t[0], key)[0]))
    polys = tuple(g for g, _ in reduced)
    if not track:
        return polys
    return polys, tuple(tuple(c) for _, c in reduced)


FIELDS = [(2, 1), (7, 1), (2, 2), (3, 2), (1000003, 1), (3, 11)]
ORDERS = [GREVLEX, LEX, elimination_order(1)]


def test_reference_fields_cover_both_kernels():
    assert any(p**d > TABLE_MAX_ORDER for p, d in FIELDS)
    assert any(p**d <= TABLE_MAX_ORDER for p, d in FIELDS)


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "elim1"])
@pytest.mark.parametrize("p,d", FIELDS, ids=[f"{p}^{d}" for p, d in FIELDS])
def test_packed_buchberger_matches_reference(p, d, order):
    # Over a large field random ideals are rarely trivial, and its
    # polynomial-basis arithmetic is slow: those instances get two variables.
    big = p**d > TABLE_MAX_ORDER
    ring = PolyRing(FieldSpec(p, d), ("x", "y") if big else ("x", "y", "z"))
    key = reference_key(order)
    rng = random.Random(1000 * p + 10 * d + len(repr(order)))
    nontrivial = 0
    for _ in range(6 if big else 12):
        gens = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(3)]
        basis, cofs = groebner_basis(gens, order, track=True)
        assert (basis, cofs) == ref_groebner(gens, order, track=True)
        assert groebner_basis(gens, order) == basis
        nontrivial += len(basis) > 1
        divisors = [g for g in gens if not g.is_zero]
        f = random_poly(rng, ring, max_terms=5, max_exp=4)
        r, quots = divide(f, divisors, order, track=True)
        assert (r, quots) == ref_divide(f, divisors, key, track=True)
        assert divide(f, divisors, order) == r
        assert divide(f, basis, order) == ref_divide(f, list(basis), key)
    assert nontrivial


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


# (system, most S-polynomials formed per S-polynomial of the FIFO path).
# Cyclic-4 forms 8 where the FIFO path forms 35; Katsura-4 8 of 15 and
# Katsura-5 26 of 49, where each pair that the criteria keep but that
# reduces to zero shares its lcm with a pair they dropped.
WORK_BOUNDS = [("cyclic4", 0.5), ("katsura4", 0.6), ("katsura5", 0.6)]


@pytest.mark.parametrize("name,bound", WORK_BOUNDS, ids=[n for n, _ in WORK_BOUNDS])
def test_criteria_form_fewer_s_polynomials(monkeypatch, name, bound):
    ring, gens = classic_system(name)
    spolys = _record_calls(monkeypatch, "_s_polynomial")
    reductions = _record_calls(monkeypatch, "_reduce")
    fifo = groebner_basis(gens, GREVLEX, track=True)[0]
    fifo_formed = len(spolys)
    fifo_zero = sum(not r for _, (r, _) in reductions[:fifo_formed])
    del spolys[:], reductions[:]
    assert groebner_basis(gens, GREVLEX) == fifo
    formed = len(spolys)
    zero = sum(not r for _, (r, _) in reductions[:formed])
    assert formed <= bound * fifo_formed
    # at most half as many reduce to zero, the work wasted outright
    assert 2 * zero <= fifo_zero


def test_homogeneous_pairs_leave_in_degree_order(monkeypatch):
    # On homogeneous input the sugar of a pair is the degree of its lcm, so
    # the sugar queue forms S-polynomials in nondecreasing lcm degree, under
    # lex too, where the order key alone would not; the FIFO queue of
    # tracked runs does not.
    ring = PolyRing(FieldSpec(7, 1), ("a", "b", "c", "d", "h"))
    texts = ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-h^4")
    gens = [ring.parse(t) for t in texts]
    spolys = _record_calls(monkeypatch, "_s_polynomial")

    def lcm_degrees():
        return [sum(poly.mono_lcm(f[0], g[0])) for (f, g, _, _), _ in spolys]

    basis = groebner_basis(gens, LEX)
    assert lcm_degrees() == sorted(lcm_degrees()) and len(set(lcm_degrees())) > 2
    del spolys[:]
    assert groebner_basis(gens, LEX, track=True)[0] == basis
    assert lcm_degrees() != sorted(lcm_degrees())
