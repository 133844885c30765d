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

from dataclasses import dataclass
from itertools import islice

from .errors import InvariantViolation, ResourceError, UsageError
from . import linalg
from .semilinear import (
    SemilinearModule,
    Subspace,
    HomSpace,
    sigma_inv_mat,
    subfield_elements,
)


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
    if source.dim and target.dim:
        lhs = linalg.mat_mul(phi, source.matrix)
        rhs = linalg.mat_mul(target.matrix, sigma_inv_mat(phi, source.spec.e))
        if lhs != rhs:
            raise UsageError("matrix is not a map of modules")
    kernel = Subspace.from_vectors(
        source.spec, source.dim, linalg.kernel_basis(phi, source.dim, source.spec)
    )
    if not source.restrict_to(kernel).is_nilpotent:
        return False
    image = Subspace.from_vectors(
        target.spec, target.dim, linalg.transpose(phi)
    )
    cokernel, _ = target.quotient_by(image)
    return cokernel.is_nilpotent


def fixed_submodule_lattice(module: SemilinearModule, cap: int = 100_000):
    """All submodules with C(N) = N, sorted canonically."""
    return [
        info.subspace
        for info in module.enumerate_submodules(cap=cap)
        if info.surjective
    ]


def _cover_edges(lattice):
    """Hasse diagram cover pairs (i, j) meaning lattice[i] < lattice[j]."""
    n = len(lattice)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and lattice[i].dim < lattice[j].dim:
                less[i][j] = lattice[j].contains(lattice[i])
    edges = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(
                less[i][k] and less[k][j] for k in range(n)
            ):
                edges.append((i, j))
    return edges


def _chain_lengths(lattice, edges):
    """(shortest, longest) maximal-chain length from bottom to top."""
    n = len(lattice)
    if n == 1:
        return 0, 0
    bottom = next(i for i in range(n) if lattice[i].dim == 0)
    top = max(range(n), key=lambda i: lattice[i].dim)
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    order = sorted(range(n), key=lambda i: lattice[i].dim)
    longest = [None] * n
    shortest = [None] * n
    longest[bottom] = shortest[bottom] = 0
    for i in order:
        if longest[i] is None:
            continue
        for j in succ[i]:
            if longest[j] is None or longest[i] + 1 > longest[j]:
                longest[j] = longest[i] + 1
            if shortest[j] is None or shortest[i] + 1 < shortest[j]:
                shortest[j] = shortest[i] + 1
    return shortest[top], longest[top]


def quasi_length(module: SemilinearModule, cap: int = 100_000) -> int:
    return jordan_holder(module, cap=cap).quasi_length


@dataclass(frozen=True)
class CrystalReport:
    minimal_rep: SemilinearModule
    quasi_length: int
    lattice: tuple  # Subspaces of the minimal representative, C(N) = N
    factor_dims: tuple  # dimensions of the factors along a maximal chain
    edges: tuple  # Hasse cover pairs as index pairs into `lattice`

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
    maximal chain has the same length."""
    rep = minimal_rep(module)
    lattice = fixed_submodule_lattice(rep, cap=cap)
    edges = _cover_edges(lattice)
    shortest, longest = _chain_lengths(lattice, edges)
    if shortest != longest:
        raise InvariantViolation(
            f"maximal chains of different lengths: {shortest} and {longest}"
        )
    # canonical maximal chain: always step to the cover with least key
    factor_dims = []
    if lattice:
        succ = {i: [] for i in range(len(lattice))}
        for i, j in edges:
            succ[i].append(j)
        cur = next(i for i in range(len(lattice)) if lattice[i].dim == 0)
        while succ[cur]:
            nxt = min(succ[cur], key=lambda j: lattice[j].key())
            factor_dims.append(lattice[nxt].dim - lattice[cur].dim)
            cur = nxt
    return CrystalReport(
        minimal_rep=rep,
        quasi_length=longest,
        lattice=tuple(lattice),
        factor_dims=tuple(sorted(factor_dims)),
        edges=tuple(sorted(edges)),
    )


def nil_series(module: SemilinearModule, cap: int = 100_000):
    """Alternating series V = M_0 >= U_0 >= M_1 >= U_1 >= ... >= U_t = 0
    with each M_i/U_i nilpotent and each U_i/M_{i+1} simple non-nilpotent.

    Returns the subspaces of the ambient space in order.
    """
    spec = module.spec
    n = module.dim
    series = [Subspace.full(spec, n)]
    under = module.stable_image()
    series.append(under)
    current = under  # invariant: C(current) = current
    while current.dim > 0:
        restricted = module.restrict_to(current)
        lattice = fixed_submodule_lattice(restricted, cap=cap)
        proper = [s for s in lattice if s.dim < current.dim]
        best = max(proper, key=lambda s: (s.dim, s.key()))
        # back to ambient coordinates
        ambient_best = _unrestrict(best, current)
        quotient, qmap = restricted.quotient_by(best)
        nil = quotient.nilpotent_part()
        head = _unrestrict(qmap.preimage(nil), current)
        simple_part, _ = quotient.quotient_by(nil)
        if simple_part.is_nilpotent or not simple_part.is_simple(cap=cap):
            raise InvariantViolation("series factor is not simple non-nilpotent")
        series.append(head)
        series.append(ambient_best)
        current = ambient_best
    return series


def _unrestrict(sub: Subspace, inside: Subspace) -> Subspace:
    """Map a subspace given in coordinates of `inside` back to the ambient."""
    spec, n = inside.spec, inside.ambient
    vectors = [linalg.linear_combination(c, inside.rows, n, spec) for c in sub.rows]
    return Subspace.from_vectors(spec, n, vectors)


def hom_crys(source: SemilinearModule, target: SemilinearModule) -> HomSpace:
    """Hom between the crystals, computed on minimal representatives."""
    return minimal_rep(source).hom_space(minimal_rep(target))


def anti_nilpotent(module: SemilinearModule, cap: int = 100_000) -> bool:
    """True when every C-stable subspace satisfies C(N) = N."""
    return all(info.surjective for info in module.enumerate_submodules(cap=cap))


def invariant_profile(module: SemilinearModule, base_changes: int = 3):
    """Cheap isomorphism invariants: dimension, nilpotence order, ranks of
    the power matrices, and fixed-point dimensions over small base changes."""
    ranks = tuple(
        linalg.matrix_rank(b, module.spec)
        for b in islice(module._powers(), module.dim + 1)
    )
    nilord = ranks.index(0) if 0 in ranks else None
    fixed = tuple(
        len(module.base_change(m).fixed_points()) for m in range(1, base_changes + 1)
    )
    return (module.dim, nilord, ranks, fixed)


def isomorphic_exhaustive(
    source: SemilinearModule, target: SemilinearModule, cap: int = 100_000
) -> bool:
    """Search all intertwiners for an invertible one (small modules only)."""
    if source.spec != target.spec or source.dim != target.dim:
        return False
    if source.dim == 0:
        return True
    hom = source.hom_space(target)
    count = hom.q**hom.dim
    if count > cap:
        raise ResourceError(f"{count} intertwiners exceed the cap {cap}")
    spec, n = source.spec, source.dim
    flat_basis = [linalg.flatten(phi) for phi in hom.basis]
    return any(
        linalg.is_invertible(linalg.reshape(v, n, n), spec)
        for v in linalg.every_combination(subfield_elements(spec), flat_basis, n * n, spec)
    )


def isomorphism_verdict(source: SemilinearModule, target: SemilinearModule) -> str:
    """Exact answer for dimension <= 3, invariant profiles beyond."""
    if source.dim <= 3 and target.dim <= 3:
        return "isomorphic" if isomorphic_exhaustive(source, target) else "distinct"
    if invariant_profile(source) == invariant_profile(target):
        return "profile-isomorphic"
    return "profile-distinct"
