"""Independent checks of answers, written without cartier's linalg,
semilinear, poly or operators code paths.

They use only FieldElement arithmetic and the raw data of the answers
(matrix entries, subspace rows in echelon form, polynomial term dicts), so
a defect on a timed path cannot hide itself from them.  They run outside
the timed region and with tracing off.
"""

from __future__ import annotations

import json


# -- vectors over GF(p^d) ---------------------------------------------------

def apply_map(matrix, v, e: int):
    """C(v) = A . sigma^(-e)(v), entry by entry."""
    roots = [x.inv_frobenius(e) for x in v]
    out = []
    for row in matrix:
        acc = None
        for a, x in zip(row, roots):
            acc = a * x if acc is None else acc + a * x
        out.append(acc)
    return out


def rank(vectors) -> int:
    """Rank by plain Gaussian elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def in_span(sub, v) -> bool:
    """Whether v lies in a subspace given by echelon rows with unit pivots."""
    v = list(v)
    for row, pc in zip(sub.rows, sub.pivots):
        c = v[pc]
        if not c.is_zero:
            v = [a - c * b for a, b in zip(v, row)]
    return all(x.is_zero for x in v)


def decomposition(module, dec):
    """Parts complementary and each one mapped into itself."""
    n = module.dim
    nil, under = dec.v_nil, dec.v_underline
    if nil.dim + under.dim != n or rank(list(nil.rows) + list(under.rows)) != n:
        return "decomposition parts are not complementary"
    for part in (nil, under):
        for r in part.rows:
            if not in_span(part, apply_map(module.matrix, r, module.spec.e)):
                return "a decomposition part is not C-stable"
    return None


def fixed_points(module, basis):
    for v in basis:
        if list(apply_map(module.matrix, v, module.spec.e)) != list(v):
            return "a returned fixed point has C(v) != v"
    if basis and rank(basis) != len(basis):
        return "fixed-point basis is linearly dependent"
    return None


def _mat_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                acc = x * y if acc is None else acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def hom_basis(source, target, hom):
    """Every basis map phi satisfies phi . A_V = A_W . sigma^(-e)(phi)."""
    e = source.spec.e
    for phi in hom.basis:
        lhs = _mat_mul(phi, source.matrix)
        rhs = _mat_mul(target.matrix, [[x.inv_frobenius(e) for x in row] for row in phi])
        if lhs != rhs:
            return "a Hom basis map does not commute with the structure"
    return None


def submodules(module, infos):
    for info in infos:
        sub = info.subspace
        for r in sub.rows:
            if not in_span(sub, apply_map(module.matrix, r, module.spec.e)):
                return "an enumerated submodule is not C-stable"
    return None


def profile(module, prof):
    """Properties an invariant profile must have, without a reference."""
    dim, nilord, ranks, fixed = prof
    n = module.dim
    if dim != n or len(ranks) != n + 1 or ranks[0] != n:
        return "profile dimension or rank list is wrong"
    if any(b > a for a, b in zip(ranks, ranks[1:])):
        return "power-matrix ranks increase"
    zero = next((i for i, r in enumerate(ranks) if r == 0), None)
    if nilord != zero:
        return "nilpotence order disagrees with the ranks"
    if len(fixed) != 3 or fixed[0] > min(fixed[1], fixed[2]) or max(fixed) > ranks[n]:
        return "fixed-point dimensions are inconsistent"
    return None


# -- canonical forms ----------------------------------------------------------
#
# Some answers are one correct choice among many: a basis of a space, the
# order of an enumeration.  Reference digests are taken of the canonical
# forms below, so that a program that makes another correct choice still
# matches.

def fp_rref(rows, p: int):
    """Reduced row echelon form over F_p of integer vectors, without zero rows."""
    rows = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def span_key(rows, q: int, p: int):
    """Canonical form of the F_q-span of vectors given as flat lists of
    F_p coefficients: their F_p-RREF.  Every module here has q = p, where
    the two spans are the same."""
    if q != p:
        raise ValueError(f"no canonical span form for q = {q} over F_{p}")
    return fp_rref(rows, p)


def sorted_by_json(items):
    return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))


# -- polynomials --------------------------------------------------------------

def _grevlex(exps):
    return (sum(exps), tuple(-x for x in reversed(exps)))


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def reduces_to_zero(f, basis) -> bool:
    """Division of f by a monic grevlex Gröbner basis leaves no remainder."""
    work = dict(f.terms)
    leads = []
    for g in basis:
        lead = max(g.terms, key=_grevlex)
        leads.append((lead, g.terms[lead], g.terms))
    while work:
        e = max(work, key=_grevlex)
        for lead, lc, terms in leads:
            if all(a >= b for a, b in zip(e, lead)):
                factor = work[e] / lc
                shift = tuple(a - b for a, b in zip(e, lead))
                for te, tc in terms.items():
                    ne = tuple(a + b for a, b in zip(te, shift))
                    s = work.get(ne)
                    s = -(tc * factor) if s is None else s - tc * factor
                    if s.is_zero:
                        work.pop(ne, None)
                    else:
                        work[ne] = s
                break
        else:
            return False
    return True


def groebner(gens, basis):
    if not basis and any(g.terms for g in gens):
        return "empty basis for a nonzero ideal"
    for g in gens:
        if not reduces_to_zero(g, basis):
            return "an input generator does not reduce to 0 modulo the basis"
    return None


def splitting(op, witness):
    """C(f * h) == 1, with the Cartier map written out on terms."""
    if witness is None:
        return None
    q = op.ring.field.p ** op.e
    image = {}
    for exps, c in _poly_mul(op.multiplier.terms, witness.terms).items():
        if any((a + 1) % q for a in exps):
            continue
        out = tuple((a + 1) // q - 1 for a in exps)
        root = c.inv_frobenius(op.e)
        s = image.get(out)
        s = root if s is None else s + root
        if s.is_zero:
            image.pop(out, None)
        else:
            image[out] = s
    one = {(0,) * op.ring.nvars: op.ring.field.one}
    return None if image == one else "splitting witness h has C(f h) != 1"


def squarefree_monomial(ideals):
    for ideal in ideals:
        for g in ideal.gens:
            if len(g.terms) != 1 or any(x > 1 for x in next(iter(g.terms))):
                return "an enumerated ideal is not squarefree monomial"
    return None
