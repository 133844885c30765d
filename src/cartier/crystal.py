"""Structure up to nilpotence: minimal representatives, quasi-length,
nil-decomposition series, and Hom-spaces modulo nilpotent kernels.

Two modules with a nil-isomorphism between them (nilpotent kernel and
cokernel) share a unique minimal representative: restrict to the stable
image, then quotient by the nilpotent part of the restriction.  The
lattice of submodules N with C(N) = N of the minimal representative is
finite, all its maximal chains have equal length, and that common length
is the quasi-length.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import and_

from .errors import InvariantViolation, UsageError
from .field import _Immutable
from . import linalg
from .semilinear import SemilinearModule, Subspace, HomSpace


def minimal_rep(module: SemilinearModule) -> SemilinearModule:
    """The unique (up to isomorphism) representative with surjective
    structural map and no nilpotent submodules."""
    under = module.stable_image()
    restricted = module.restrict_to(under)
    nil = restricted.nilpotent_part()
    quotient, _ = restricted.quotient_by(nil)
    if quotient.dim and quotient.nilpotent_part().dim:
        raise InvariantViolation("minimal representative kept a nilpotent part")
    if quotient.stable_image().dim != quotient.dim:
        raise InvariantViolation("minimal representative is not surjective")
    return quotient


def is_nil_isomorphism(
    phi, source: SemilinearModule, target: SemilinearModule
) -> bool:
    """Whether a module map has nilpotent kernel and cokernel."""
    if source.spec != target.spec:
        raise UsageError("modules live over different field specs")
    phi = tuple(tuple(row) for row in phi)
    if len(phi) != target.dim or any(len(r) != source.dim for r in phi):
        raise UsageError("matrix shape does not match the modules")
    spec, k = source.spec, source.spec.kernel
    phi = [spec.unwrap(row) for row in phi]
    if source.dim and target.dim:
        lhs = linalg._mul(phi, source._a, k)
        rhs = linalg._mul(target._a, [k.frob_row(row, -spec.e) for row in phi], k)
        if lhs != rhs:
            raise UsageError("matrix is not a map of modules")
    kernel = Subspace._span(spec, source.dim, linalg._null_space(phi, source.dim, k))
    if not source.restrict_to(kernel).is_nilpotent:
        return False
    image = Subspace._span(spec, target.dim, zip(*phi))
    cokernel, _ = target.quotient_by(image)
    return cokernel.is_nilpotent


def fixed_submodule_lattice(module: SemilinearModule, cap: int = 100_000):
    """All submodules with C(N) = N, sorted canonically."""
    return [
        info.subspace
        for info in module.enumerate_submodules(cap=cap)
        if info.surjective
    ]


def _cover_edges(masks):
    """Hasse diagram cover pairs (i, j) meaning member i < member j,
    sorted, for members sorted by dimension and given by the bitsets of
    their points.

    above[p] is the bitset of members containing the point p, so the
    members containing N are the AND over N's points.  The first of them
    after N is a cover; dropping everything above it leaves the next.
    """
    points = [[p for p, bit in enumerate(bin(m)[:1:-1]) if bit == "1"] for m in masks]
    above = [0] * masks[-1].bit_length()  # the last member is V
    for i, ps in enumerate(points):
        for p in ps:
            above[p] |= 1 << i
    full = (1 << len(masks)) - 1
    up = [reduce(and_, (above[p] for p in ps), full) for ps in points]
    edges = []
    for i, members in enumerate(up):
        rest = members & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            edges.append((i, j))
            rest &= ~up[j]
    return edges


def quasi_length(module: SemilinearModule, cap: int = 100_000) -> int:
    return jordan_holder(module, cap=cap).quasi_length


class CrystalReport(_Immutable):
    """The minimal representative, its quasi-length, its lattice of
    subspaces N with C(N) = N, the dimensions of the factors along a
    maximal chain, and the Hasse cover pairs as index pairs into
    `lattice`."""

    __slots__ = ("minimal_rep", "quasi_length", "lattice", "factor_dims", "edges")

    def __init__(
        self,
        minimal_rep: SemilinearModule,
        quasi_length: int,
        lattice: tuple,
        factor_dims: tuple,
        edges: tuple,
    ):
        object.__setattr__(self, "minimal_rep", minimal_rep)
        object.__setattr__(self, "quasi_length", quasi_length)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "factor_dims", factor_dims)
        object.__setattr__(self, "edges", edges)

    def to_json(self) -> dict:
        return {
            "minimal": self.minimal_rep.to_json(),
            "quasi_length": self.quasi_length,
            "lattice": [s.to_json() for s in self.lattice],
            "factor_dims": list(self.factor_dims),
            "edges": [list(e) for e in self.edges],
        }


def jordan_holder(module: SemilinearModule, cap: int = 100_000) -> CrystalReport:
    """Enumerate the crystal's submodule lattice and certify that every
    maximal chain has the same length: each cover raises the height
    above the bottom by exactly one."""
    rep = minimal_rep(module)
    # C is bijective on rep, so every C-stable subspace is fixed
    lattice, masks = rep._lattice(cap)
    edges = _cover_edges(masks)
    height = [0] + [None] * (len(lattice) - 1)
    succ = [[] for _ in lattice]
    for i, j in edges:  # a lower cover has a lower index
        succ[i].append(j)
        if height[j] is None:
            height[j] = height[i] + 1
        elif height[j] != height[i] + 1:
            raise InvariantViolation(
                f"maximal chains of different lengths reach member {j}"
            )
    # canonical maximal chain: always step to the cover with least key
    factor_dims, cur = [], 0
    while succ[cur]:
        nxt = min(succ[cur])
        factor_dims.append(lattice[nxt].dim - lattice[cur].dim)
        cur = nxt
    return CrystalReport(
        minimal_rep=rep,
        quasi_length=height[-1],
        lattice=tuple(lattice),
        factor_dims=tuple(sorted(factor_dims)),
        edges=tuple(edges),
    )


def nil_series(module: SemilinearModule, cap: int = 100_000):
    """Alternating series V = M_0 >= U_0 >= M_1 >= U_1 >= ... >= U_t = 0
    with each M_i/U_i nilpotent and each U_i/M_{i+1} simple non-nilpotent.

    Returns the subspaces of the ambient space in order.
    """
    current = module.stable_image()  # invariant: C(current) = current
    series = [Subspace.full(module.spec, module.dim), current]
    while current.dim > 0:
        restricted = module.restrict_to(current)
        # the largest proper fixed submodule: the lattice is sorted by
        # dimension and ends with the whole of `current`
        best = fixed_submodule_lattice(restricted, cap=cap)[-2]
        quotient, qmap = restricted.quotient_by(best)
        nil = quotient.nilpotent_part()
        simple_part, _ = quotient.quotient_by(nil)
        if simple_part.is_nilpotent or not simple_part.is_simple(cap=cap):
            raise InvariantViolation("series factor is not simple non-nilpotent")
        # back to ambient coordinates
        series += [_unrestrict(qmap.preimage(nil), current), _unrestrict(best, current)]
        current = series[-1]
    return series


def _unrestrict(sub: Subspace, inside: Subspace) -> Subspace:
    """Map a subspace given in coordinates of `inside` back to the ambient."""
    spec, n, k = inside.spec, inside.ambient, inside.spec.kernel
    vectors = [linalg._combine(c, inside._rows, n, k) for c in sub._rows]
    return Subspace._span(spec, n, vectors)


def hom_crys(source: SemilinearModule, target: SemilinearModule) -> HomSpace:
    """Hom between the crystals, computed on minimal representatives."""
    return minimal_rep(source).hom_space(minimal_rep(target))


def anti_nilpotent(module: SemilinearModule) -> bool:
    """True when every C-stable subspace satisfies C(N) = N.  V is one of
    them, and C(V) = V makes C bijective, so C(N) = N for every stable N:
    the test is C(V) = V."""
    return module.stable_image().dim == module.dim


def invariant_profile(module: SemilinearModule):
    """Cheap isomorphism invariants: dimension, nilpotence order, ranks of
    the power matrices, and fixed-point dimensions after base change to
    GF(p^(dm)) for m = 1, 2, 3."""
    k = module.spec.kernel
    ranks = tuple(linalg._rank(b, k) for b in islice(module._powers(), module.dim + 1))
    nilord = ranks.index(0) if 0 in ranks else None
    fixed = tuple(islice(module._base_change_fixed_dims(), 3))
    return (module.dim, nilord, ranks, fixed)


def isomorphism_verdict(source: SemilinearModule, target: SemilinearModule) -> str:
    """"isomorphic" or "distinct", exactly, in every dimension.

    A module is the direct sum of its nilpotent part and its unit part U
    (the stable image).  The ranks of the powers of C fix the Jordan type
    of the nilpotent part.  Unit modules are F_q[tau]-modules through their
    fixed points over the algebraic closure (Katz, LNM 350, 4.1), and two
    such modules U, W are isomorphic exactly when dim Hom(U, U) =
    dim Hom(U, W) = dim Hom(W, W) (Byrnes and Gauger, 1977).
    """
    if source.spec != target.spec or invariant_profile(source) != invariant_profile(target):
        return "distinct"
    u, w = (m.restrict_to(m.stable_image()) for m in (source, target))
    dims = {u.hom_space(u).dim, u.hom_space(w).dim, w.hom_space(w).dim}
    return "isomorphic" if len(dims) == 1 else "distinct"
