"""The submodule lattice, grown from cyclic submodules, against the
exhaustive subspace scan and the cubic cover search of conftest."""

import random
import time

import pytest

from cartier import crystal, linalg
from cartier.errors import ResourceError
from cartier.field import FieldSpec
from cartier.linalg import identity
from cartier.semilinear import SemilinearModule, Subspace, count_subspaces

from conftest import (
    block_extension,
    oracle_chain,
    oracle_cover_edges,
    oracle_fixed_lattice,
    oracle_is_simple,
    oracle_nil_series,
    oracle_submodules,
    random_element,
    random_module,
    strictly_upper,
)

# (p, d, e) -> largest dimension checked; k^n has at most a few hundred
# subspaces there.
FIELDS = {
    (2, 1, 1): 4,
    (3, 1, 1): 4,
    (2, 2, 1): 4,
    (2, 2, 2): 3,
    (2, 3, 1): 3,
    (3, 2, 1): 3,
}


def _diagonal(rng, spec, n):
    return SemilinearModule(
        spec,
        [[random_element(rng, spec) if i == j else spec.zero for j in range(n)]
         for i in range(n)],
    )


def oracle_suite(p, d, e):
    """Random, identity, zero, nilpotent, diagonal and block-extension
    modules of every dimension up to FIELDS[(p, d, e)]."""
    spec = FieldSpec(p, d, None, e)
    rng = random.Random(p * 100 + d * 10 + e)
    suite = []
    for n in range(1, FIELDS[(p, d, e)] + 1):
        suite += [random_module(rng, spec, n) for _ in range(3)]
        suite += [
            SemilinearModule(spec, identity(n, spec)),
            SemilinearModule(spec, [[spec.zero] * n for _ in range(n)]),
            strictly_upper(rng, spec, n),
            _diagonal(rng, spec, n),
        ]
        if n > 1:
            suite.append(block_extension(rng, spec, 1, n - 1)[0])
    return suite


FIELD_IDS = [f"GF{p}^{d}-e{e}" for p, d, e in FIELDS]


@pytest.mark.parametrize("field", list(FIELDS), ids=FIELD_IDS)
def test_enumeration_matches_exhaustive_scan(field):
    for m in oracle_suite(*field):
        expected = oracle_submodules(m)
        infos = m.enumerate_submodules()
        assert [(i.subspace, i.surjective) for i in infos] == expected
        assert crystal.fixed_submodule_lattice(m) == oracle_fixed_lattice(m)
        assert m.is_simple() == oracle_is_simple(m)
        assert crystal.anti_nilpotent(m) == all(onto for _, onto in expected)


@pytest.mark.parametrize("field", list(FIELDS), ids=FIELD_IDS)
def test_lattice_covers_match_oracle(field):
    """The covers `_lattice` finds among its sums are the Hasse diagram,
    on lattices of C-stable subspaces with nilpotent parts too (which
    `jordan_holder` never grows, since it works on the minimal
    representative)."""
    for m in oracle_suite(*field):
        lattice, _, edges = m._lattice(100_000)
        assert edges == sorted(oracle_cover_edges(lattice))


@pytest.mark.parametrize("field", list(FIELDS), ids=FIELD_IDS)
def test_jordan_holder_matches_oracle(field):
    for m in oracle_suite(*field):
        report = crystal.jordan_holder(m)
        lattice = oracle_fixed_lattice(report.minimal_rep)
        edges = oracle_cover_edges(lattice)
        assert report.lattice == tuple(lattice)
        assert report.edges == tuple(sorted(edges))
        assert (report.quasi_length, report.factor_dims) == oracle_chain(lattice, edges)


@pytest.mark.parametrize("field", list(FIELDS), ids=FIELD_IDS)
def test_nil_series_matches_oracle(field):
    for m in oracle_suite(*field):
        assert crystal.nil_series(m) == oracle_nil_series(m)


def test_nil_series_grows_one_lattice(monkeypatch):
    """The series walks down the covers of one lattice, the one grown for
    the stable image, rather than growing a lattice for each U_i."""
    f2, gf4, rng = FieldSpec(2, 1), FieldSpec(2, 2), random.Random(14)
    modules = [SemilinearModule(f2, identity(5, f2)), random_module(rng, f2, 6)]
    modules += [block_extension(rng, gf4, 1, 2)[0] for _ in range(5)]
    calls, real = [], SemilinearModule._lattice
    monkeypatch.setattr(
        SemilinearModule, "_lattice", lambda self, cap: calls.append(1) or real(self, cap)
    )
    for m in modules:
        calls.clear()
        crystal.nil_series(m)
        assert len(calls) == 1


# -- scale and caps --------------------------------------------------------------


def test_identity_on_f2_6_within_a_second_and_a_half():
    f2 = FieldSpec(2, 1)
    start = time.process_time()
    report = crystal.jordan_holder(SemilinearModule(f2, identity(6, f2)))
    elapsed = time.process_time() - start
    assert len(report.lattice) == count_subspaces(6, 2) == 2825
    assert len(report.edges) == 23562
    assert report.quasi_length == 6 and report.factor_dims == (1,) * 6
    assert elapsed < 1.5


def test_anti_nilpotent_identity_on_f2_8_at_once():
    """F_2^8 has 417,199 stable subspaces under the identity, all fixed;
    bijectivity answers without growing the lattice."""
    f2 = FieldSpec(2, 1)
    start = time.process_time()
    assert crystal.anti_nilpotent(SemilinearModule(f2, identity(8, f2)))
    assert time.process_time() - start < 0.5


def test_random_8_dim_module_over_f2_enumerates():
    """F_2^8 has 417,199 subspaces, above the default cap; its 255 points
    and the few submodules are below it."""
    f2 = FieldSpec(2, 1)
    assert count_subspaces(8, 2) > 100_000
    m = random_module(random.Random(8), f2, 8)
    infos = m.enumerate_submodules()
    subs = [i.subspace for i in infos]
    assert subs[0] == Subspace.zero(f2, 8) and subs[-1] == Subspace.full(f2, 8)
    assert subs == sorted(set(subs), key=Subspace.key)
    assert all(m.is_stable(s) for s in subs)
    for a in subs:
        for b in subs:
            assert a.add(b) in subs and a.intersect(b) in subs
    under = m.stable_image()
    assert [i.surjective for i in infos] == [under.contains(s) for s in subs]


def test_cap_error_says_what_hit_it():
    f2 = FieldSpec(2, 1)
    m = SemilinearModule(f2, identity(3, f2))  # 7 points, 16 submodules
    with pytest.raises(ResourceError, match="7 points"):
        m.enumerate_submodules(cap=6)
    with pytest.raises(ResourceError, match="7 points"):
        m.is_simple(cap=6)
    with pytest.raises(ResourceError, match="lattice has more than 7 members"):
        m.enumerate_submodules(cap=7)
    assert len(m.enumerate_submodules(cap=16)) == 16


def test_lattice_growth_does_no_full_elimination(monkeypatch):
    """Cyclic submodules and lattice sums extend RREF rows one vector at
    a time; none of them runs linalg._rref over all its rows."""
    f2, gf4, rng = FieldSpec(2, 1), FieldSpec(2, 2), random.Random(150)
    modules = [SemilinearModule(f2, identity(5, f2))]
    modules += [random_module(rng, gf4, n) for n in (2, 3, 3, 4)]
    calls = []
    real = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda mat, k: calls.append(1) or real(mat, k))
    for m in modules:
        lattice, _, _ = m._lattice(100_000)
        m.is_simple()
    assert calls == [] and len(lattice) > 2
    Subspace._span(gf4, 1, [[1]])
    assert calls == [1]  # the counter sees elimination
