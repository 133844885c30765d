"""The submodule lattice, grown from cyclic submodules, against the
exhaustive subspace scan and the cubic cover search of conftest."""

import json
import random
import time

import pytest

from cartier import crystal, linalg
from cartier.errors import ResourceError
from cartier.field import FieldSpec
from cartier.semilinear import SemilinearModule, Subspace, count_subspaces

from conftest import (
    block_extension,
    module_with_nilpotent_part,
    oracle_chain,
    oracle_cover_edges,
    oracle_fixed_lattice,
    oracle_is_simple,
    oracle_lattice_nil_series,
    oracle_nil_series,
    oracle_subspaces,
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
            SemilinearModule(spec, Subspace.full(spec, n).rows),
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


def test_is_simple_when_a_walk_leaves_its_first_span():
    """C the shift e_i -> e_(i+1): the walk of the point map from the
    first point e_1 spans V but runs through e_n to zero.  Unwound, it
    interns <e_n> and then <e_(n-1), e_n>, a second nonzero span and so
    the third member, past the two members `is_simple` walks with."""
    for p, d, e in FIELDS:
        spec = FieldSpec(p, d, None, e)
        for n in range(2, 5):
            m = SemilinearModule(spec, [
                [spec.one if i == j + 1 else spec.zero for j in range(n)] for i in range(n)
            ])
            assert not m.is_simple() and not oracle_is_simple(m)


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


def _count_lattices(monkeypatch):
    calls, real = [], SemilinearModule._lattice
    monkeypatch.setattr(
        SemilinearModule, "_lattice", lambda self, cap: calls.append(1) or real(self, cap)
    )
    return calls


def test_nil_series_grows_no_lattice(monkeypatch):
    """Each step reads the next submodule off the cyclic submodules of a
    dual, so no submodule lattice is grown."""
    f2, gf4, rng = FieldSpec(2, 1), FieldSpec(2, 2), random.Random(14)
    modules = [SemilinearModule(f2, Subspace.full(f2, 5).rows), random_module(rng, f2, 6)]
    modules += [block_extension(rng, gf4, 1, 2)[0] for _ in range(5)]
    calls = _count_lattices(monkeypatch)
    for m in modules:
        series = crystal.nil_series(m)
        assert calls == []
        assert series == oracle_lattice_nil_series(m)
        calls.clear()


# (p, d, e) -> largest dimension of the sweep against the lattice walk
SWEEP_FIELDS = {
    (2, 1, 1): 5,
    (3, 1, 1): 4,
    (5, 1, 1): 3,
    (2, 2, 1): 4,
    (2, 3, 1): 3,
    (3, 2, 1): 3,
    (2, 2, 2): 4,
}


@pytest.mark.parametrize(
    "field", list(SWEEP_FIELDS), ids=[f"GF{p}^{d}-e{e}" for p, d, e in SWEEP_FIELDS]
)
def test_nil_series_matches_lattice_walk(field):
    """45 modules per field, 315 in all: random ones, with and without a
    nilpotent part, identities, diagonals and block extensions."""
    p, d, e = field
    spec, rng = FieldSpec(p, d, None, e), random.Random(p * 100 + d * 10 + e)
    shapes = [
        lambda n: random_module(rng, spec, n),
        lambda n: module_with_nilpotent_part(rng, spec, n),
        lambda n: SemilinearModule(spec, Subspace.full(spec, n).rows),
        lambda n: _diagonal(rng, spec, n),
        lambda n: block_extension(rng, spec, 1, n - 1)[0] if n > 1 else _diagonal(rng, spec, 1),
    ]
    for i in range(45):
        m = shapes[i % len(shapes)](1 + i // len(shapes) % SWEEP_FIELDS[field])
        assert crystal.nil_series(m) == oracle_lattice_nil_series(m)


def _dual_stable(module):
    """Every subspace that the dual's structural map carries into itself,
    by the exhaustive scan, sorted by (dimension, canonical basis)."""
    dual = module.dual()
    return [
        sub
        for sub in oracle_subspaces(module.spec, module.dim)
        if all(sub.contains_vector(dual.apply(r)) for r in sub.rows)
    ]


@pytest.mark.parametrize("field", list(FIELDS), ids=FIELD_IDS)
def test_annihilators_of_dual_submodules_are_the_submodules(field):
    """N -> N^perp is a bijection from the stable subspaces of the dual
    onto `enumerate_submodules`.  It reverses dimension and inclusion, but
    not the order within a dimension: on the identity of F_2^2 the lines
    <01>, <10>, <11> go to <10>, <01>, <11>."""
    for m in oracle_suite(*field):
        spec, n = m.spec, m.dim
        duals = _dual_stable(m)
        perps = [
            Subspace.from_vectors(
                spec, n, [spec.wrap(v) for v in linalg._null_space(s._rows, n, spec.kernel)]
            )
            for s in duals
        ]
        subs = [info.subspace for info in m.enumerate_submodules()]
        assert sorted(perps, key=Subspace.key) == subs
        assert [p.dim for p in perps] == [s.dim for s in reversed(subs)]
        for a, pa in zip(duals, perps):
            for b, pb in zip(duals, perps):
                if a.dim == b.dim + 1:
                    assert a.contains(b) == pb.contains(pa)


# -- scale and caps --------------------------------------------------------------


def test_identity_on_f2_6_within_a_second_and_a_half():
    f2 = FieldSpec(2, 1)
    start = time.process_time()
    report = crystal.jordan_holder(SemilinearModule(f2, Subspace.full(f2, 6).rows))
    elapsed = time.process_time() - start
    assert len(report.lattice) == count_subspaces(6, 2) == 2825
    assert len(report.edges) == 23562
    assert report.quasi_length == 6 and report.factor_dims == (1,) * 6
    assert elapsed < 1.5


def _counter(calls):
    def counted(real):
        def wrapped(*args):
            calls[real.__name__] += 1
            return real(*args)
        return wrapped
    return counted


def test_identity_on_f2_6_within_a_work_budget(monkeypatch):
    """The clock test above as work counts of the F_2 path: C applied to
    an int, echelon steps on int rows and point bitsets formed, each at
    most what it was when the bounds were set, and each seen at least
    once."""
    f2, calls = FieldSpec(2, 1), {"apply": 0, "extend": 0, "mask": 0}
    counted = _counter(calls)
    for name in calls:
        monkeypatch.setattr(linalg._F2Points, name, counted(getattr(linalg._F2Points, name)))
    report = crystal.jordan_holder(SemilinearModule(f2, Subspace.full(f2, 6).rows))
    assert len(report.lattice) == 2825 and len(report.edges) == 23562
    assert 0 < calls["apply"] <= 63
    assert 0 < calls["extend"] <= 23_562
    assert 0 < calls["mask"] <= 2824


def test_identity_on_gf4_4_within_a_work_budget(monkeypatch):
    """The same counts on the list-row path of every other field: module
    maps applied, vectors added to an echelon form and point bitsets
    formed.  The stable subspaces are the 67 defined over F_2."""
    gf4, calls = FieldSpec(2, 2), {"_apply": 0, "_extend": 0, "mask": 0}
    counted = _counter(calls)
    monkeypatch.setattr(SemilinearModule, "_apply", counted(SemilinearModule._apply))
    monkeypatch.setattr(linalg, "_extend", counted(linalg._extend))
    monkeypatch.setattr(linalg._Points, "mask", counted(linalg._Points.mask))
    report = crystal.jordan_holder(SemilinearModule(gf4, Subspace.full(gf4, 4).rows))
    assert len(report.lattice) == 67 and len(report.edges) == 240
    assert 0 < calls["_apply"] <= 93
    assert 0 < calls["_extend"] <= 2303
    assert 0 < calls["mask"] <= 66


class _CountedReads(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_member_loop_steps_once_per_cyclic_span(monkeypatch):
    """An invertible F_2^15 module has 32,767 points but 8 members and 8
    cyclic spans: the member loop reads the span of at most one point per
    member and cyclic span, not one per point outside each member."""
    rng, found, real = random.Random(15), [], SemilinearModule._cyclic_spans
    m = random_module(rng, FieldSpec(2, 1), 15)
    while m.stable_image().dim < 15:  # the first invertible one
        m = random_module(rng, FieldSpec(2, 1), 15)

    def counted(self, points, cap=None):
        spans, masks, of, span = real(self, points, cap)
        found.append(_CountedReads(of))
        return spans, masks, found[-1], span

    monkeypatch.setattr(SemilinearModule, "_cyclic_spans", counted)
    lattice, _, _ = m._lattice(100_000)
    spans = len(set(found[0])) + 1  # with the zero span, which no point has
    assert (len(lattice), spans, crystal.quasi_length(m)) == (8, 8, 3)
    assert 0 < found[0].reads <= len(lattice) * spans


def test_is_simple_stops_at_a_second_nonzero_span(monkeypatch):
    """A module that is not simple is found out before the walk has
    applied C to half of its 16,383 points."""
    calls = {"apply": 0}
    monkeypatch.setattr(linalg._F2Points, "apply", _counter(calls)(linalg._F2Points.apply))
    assert not random_module(random.Random(5), FieldSpec(2, 1), 14).is_simple()
    assert 0 < calls["apply"] <= 8191


def _walks(m):
    """What the lattice walks give on m, with spans as packed rows."""
    points = m._points(100_000)
    spans, span_masks, of, _ = m._cyclic_spans(points)
    answers = {
        "spans": [(points.unpack(rows), pivots) for rows, pivots in spans],
        "span masks": span_masks,
        "of": of,
        "lattice": m._lattice(100_000),
        "submodules": [(info.subspace, info.surjective) for info in m.enumerate_submodules()],
        "jordan_holder": json.dumps(crystal.jordan_holder(m).to_json()),
        "nil_series": crystal.nil_series(m),
        "is_simple": m.is_simple(),
    }
    for cap in (len(answers["lattice"][0]) - 1, len(points.vectors) - 1):
        with pytest.raises(ResourceError) as error:
            m.enumerate_submodules(cap=cap)
        answers[f"cap {cap}"] = str(error.value)
    return type(points), answers


def test_f2_ints_match_list_rows(monkeypatch):
    """Over F_2 the lattice walks run on int-packed vectors.  The list
    rows of every other field, forced onto F_2, are their oracle: spans,
    point bitsets, members, covers, answers and cap messages agree on
    oracle_suite's shapes up to n = 6, the identities of F_2^5 and F_2^6
    among them."""
    spec, rng = FieldSpec(2, 1), random.Random(216)
    for n in range(1, 7):
        modules = [random_module(rng, spec, n) for _ in range(3)] + [
            SemilinearModule(spec, Subspace.full(spec, n).rows),
            SemilinearModule(spec, [[spec.zero] * n for _ in range(n)]),
            module_with_nilpotent_part(rng, spec, n),
            strictly_upper(rng, spec, n),
            _diagonal(rng, spec, n),
        ]
        if n > 1:
            modules.append(block_extension(rng, spec, 1, n - 1)[0])
        for m in modules:
            kind, ints = _walks(m)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_F2Points", linalg._Points)
                list_kind, rows = _walks(m)
            assert (kind, list_kind) == (linalg._F2Points, linalg._Points)
            assert ints == rows


def test_anti_nilpotent_identity_on_f2_8_at_once():
    """F_2^8 has 417,199 stable subspaces under the identity, all fixed;
    bijectivity answers without growing the lattice."""
    f2 = FieldSpec(2, 1)
    start = time.process_time()
    assert crystal.anti_nilpotent(SemilinearModule(f2, Subspace.full(f2, 8).rows))
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("n", [7, 8])
def test_nil_series_of_identity_on_f2_7_and_8(monkeypatch, n):
    """F_2^7 and F_2^8 have 29,212 and 417,199 stable subspaces under the
    identity, the second above the cap; the series steps through duals of
    at most 2^n - 1 points each and grows no lattice."""
    f2 = FieldSpec(2, 1)
    calls = _count_lattices(monkeypatch)
    series = crystal.nil_series(SemilinearModule(f2, Subspace.full(f2, n).rows))
    assert calls == []
    assert len(series) == 2 * n + 2
    assert [s.dim for s in series] == [n, n] + [i for i in range(n - 1, -1, -1) for _ in (0, 1)]


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
    m = SemilinearModule(f2, Subspace.full(f2, 3).rows)  # 7 points, 16 submodules
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
    modules = [SemilinearModule(f2, Subspace.full(f2, 5).rows)]
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
