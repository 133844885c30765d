"""Structure up to nilpotence: minimal representatives, quasi-length,
nil-decomposition series, and Hom-spaces modulo nilpotent kernels.

Two modules with a nil-isomorphism between them (nilpotent kernel and
cokernel) share a unique minimal representative: the restriction to the
stable image, where C is bijective.  The lattice of submodules N with
C(N) = N of the minimal representative is finite, all its maximal chains
have equal length, and that common length is the quasi-length.

`jordan_holder` grows that lattice once, with `SemilinearModule._lattice`,
which also finds its Hasse covers.  `nil_series` steps down one largest
proper submodule at a time, read off the cyclic submodules of the dual.
"""

from __future__ import annotations

from itertools import islice, tee

from .errors import InvariantViolation, UsageError
from .field import _Immutable
from . import linalg
from .semilinear import SemilinearModule, Subspace, HomSpace


def minimal_rep(module: SemilinearModule) -> SemilinearModule:
    """The unique (up to isomorphism) representative with surjective
    structural map and no nilpotent submodules: the restriction to the
    stable image, on which C is bijective."""
    return _minimal_rep(module, module.stable_image())


def _minimal_rep(module: SemilinearModule, top: Subspace) -> SemilinearModule:
    """`minimal_rep` given the module's stable image."""
    rep = module.restrict_to(top)
    # full rank leaves B_m no kernel, so no nilpotent part either
    if rep._fitting()[0][-1] != rep.dim:
        raise InvariantViolation("minimal representative is not surjective")
    return rep


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
    if not source._maps_to(target, phi):
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


def quasi_length(module: SemilinearModule, cap: int = 100_000) -> int:
    return jordan_holder(module, cap=cap).quasi_length


class CrystalReport(_Immutable):
    """The minimal representative, its quasi-length, its lattice of
    subspaces N with C(N) = N, the dimensions of the factors along a
    maximal chain, and the Hasse cover pairs as index pairs into
    `lattice`."""

    __slots__ = ("minimal_rep", "quasi_length", "lattice", "factor_dims", "edges")

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
    lattice, _, edges = rep._lattice(cap)
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

    U_0 is the stable image.  C is bijective on it, so M_{i+1} = U_i, and
    U_{i+1} is the largest proper submodule of U_i by (dimension, RREF
    rows in the coordinates of U_i's basis).  `cap` bounds the points of
    the dual of each U_i.

    Duality: N -> N^perp reverses inclusion between C-stable subspaces and
    those of the dual, as F(w)^T u = sigma^e(w^T C(u)); so U_{i+1} is the
    annihilator of a least nonzero stable subspace of the dual, a cyclic one.

    Returns the subspaces of the ambient space in order.
    """
    top, spec, k = module.stable_image(), module.spec, module.spec.kernel
    inside = _minimal_rep(module, top)  # C on U_0, with its checks
    series, cur = [Subspace.full(spec, module.dim), top], top
    while cur.dim > 0:
        dual, n = inside.dual(), cur.dim
        points = dual._points(cap)
        spans = [points.unpack(rows) for rows, _ in dual._cyclic_spans(points)[0][1:]]
        low = min(map(len, spans))  # the least spans have the largest annihilators
        sub = max(
            (Subspace._span(spec, n, linalg._null_space(s, n, k)) for s in spans if len(s) == low),
            key=lambda s: s._rows,
        )
        quotient, _ = inside.quotient_by(sub)
        if quotient.is_nilpotent or not quotient.is_simple(cap=cap):
            raise InvariantViolation("series factor is not simple non-nilpotent")
        cur = _unrestrict(sub, cur)
        series += [cur] * 2
        inside = module.restrict_to(cur)
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
    B_0, ..., B_n (walked to the Fitting index m, then rank B_m), and
    fixed-point dimensions after base change to GF(p^(dm)), m = 1, 2, 3."""
    return _profile(module)[0]


def _profile(module: SemilinearModule):
    """(invariant profile, stable image) from one walk of the twisted
    powers, which the base change takes up where the walk stopped."""
    walk, again = tee(module._powers())
    ranks, _, image = module._fitting(walk)
    ranks = tuple(ranks) + (ranks[-1],) * (module.dim + 1 - len(ranks))
    nilord = ranks.index(0) if 0 in ranks else None
    fixed = tuple(islice(module._base_change_fixed_dims(again), 3))
    return (module.dim, nilord, ranks, fixed), Subspace._of(module.spec, module.dim, *image)


def isomorphism_verdict(source: SemilinearModule, target: SemilinearModule) -> str:
    """"isomorphic" or "distinct", exactly, in every dimension.

    A module is the direct sum of its nilpotent part and its unit part U
    (the stable image).  The ranks of the powers of C fix the Jordan type
    of the nilpotent part.  Unit modules are F_q[tau]-modules through their
    fixed points over the algebraic closure (Katz, LNM 350, 4.1), and two
    such modules U, W are isomorphic exactly when dim Hom(U, U) =
    dim Hom(U, W) = dim Hom(W, W) (Byrnes and Gauger, 1977).
    """
    if source.spec != target.spec:
        return "distinct"
    (profile, top), (other, other_top) = _profile(source), _profile(target)
    if profile != other:
        return "distinct"
    u, w = source.restrict_to(top), target.restrict_to(other_top)
    dims = {u.hom_space(u).dim, u.hom_space(w).dim, w.hom_space(w).dim}
    return "isomorphic" if len(dims) == 1 else "distinct"
