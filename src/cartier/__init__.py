"""Exact computations with operators C satisfying C(r^q m) = r C(m).

Covers finite fields GF(p^d) with forward and inverse Frobenius, modules
over them carrying such an operator (decomposition into a nilpotent part
and a part the operator maps onto itself, fixed points, Hom-spaces,
duality, submodule lattices), polynomial rings with Gröbner machinery,
multiplier operators g -> C(f g) together with their image chains,
splittings and compatible ideals, and the quotient structure obtained by
ignoring everything a power of C kills.  All arithmetic is exact and
small enough to cross-check against brute force."""

import importlib

# Each export, by the submodule that defines it.  Nothing below is imported
# until first asked for (PEP 562), so `import cartier` costs almost nothing
# and a CLI process loads only the layers its subcommand uses.
_EXPORTS = {
    "errors": (
        "CartierError", "DomainError", "InvariantViolation", "ResourceError",
        "UsageError",
    ),
    "field": ("DEFAULT_MODULI", "FieldElement", "FieldSpec", "default_modulus", "embed"),
    "poly": (
        "GREVLEX", "LEX", "Ideal", "MonomialOrder", "Polynomial", "PolyRing",
        "elimination_order", "groebner_basis",
    ),
    "semilinear": (
        "FrobeniusModule", "HomSpace", "NilDecomposition", "SemilinearModule",
        "SubmoduleInfo", "Subspace", "count_subspaces", "gaussian_binomial",
    ),
    "operators": (
        "CartierOperator", "IdealModule", "SupportReport", "cartier_std",
        "frobenius_descent",
    ),
    "crystal": (
        "CrystalReport", "anti_nilpotent", "hom_crys", "invariant_profile",
        "is_nil_isomorphism", "isomorphism_verdict", "jordan_holder",
        "minimal_rep", "nil_series", "quasi_length",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
