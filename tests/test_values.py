"""Value semantics of the library's immutable classes: `==`, `hash` and
`repr` come from each class's `_fields`, and the plain records take their
fields as constructor arguments.  Every value class survives `copy`,
`deepcopy` and a pickle round trip."""

import copy
import pickle

import pytest

from cartier.crystal import CrystalReport, jordan_holder
from cartier.field import FieldSpec, _Immutable
from cartier.operators import CartierOperator, IdealModule, SupportReport
from cartier.poly import GREVLEX, Ideal, MonomialOrder, PolyRing, elimination_order
from cartier.semilinear import (
    FrobeniusModule,
    HomSpace,
    NilDecomposition,
    SemilinearModule,
    SubmoduleInfo,
    Subspace,
    _TwistedModule,
)

from conftest import module_from_ints


def _same_value(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


@pytest.fixture
def jordan(f2):
    return module_from_ints(f2, [[1, 1], [0, 1]])


@pytest.fixture
def nilpotent(f2):
    return module_from_ints(f2, [[0, 1], [0, 0]])


def test_nil_decomposition_is_a_value(jordan, nilpotent):
    _same_value(jordan.decompose(), jordan.decompose())
    assert jordan.decompose() != nilpotent.decompose()
    assert repr(jordan.decompose()) == (
        "NilDecomposition(v_nil=Subspace(dim=0, ambient=2), "
        "v_underline=Subspace(dim=2, ambient=2), nilord=None)"
    )


def test_hom_space_is_a_value(f2, jordan):
    _same_value(jordan.hom_space(jordan), jordan.hom_space(jordan))
    assert repr(jordan.hom_space(jordan)) == (
        "HomSpace(spec=FieldSpec(p=2, d=1, e=1), _basis=(((0, 1), (0, 0)), ((1, 0), (0, 1))))"
    )
    # q is read off the spec, so it is not a field of its own
    hom = jordan.hom_space(jordan)
    assert HomSpace(f2, hom._basis) == hom and hom.q == 2
    assert HomSpace(f2, hom._basis[:1]) != hom


def test_submodule_info_is_a_value(jordan):
    infos = jordan.enumerate_submodules()
    assert infos == jordan.enumerate_submodules()
    _same_value(infos[1], jordan.enumerate_submodules()[1])
    flipped = SubmoduleInfo(infos[1].subspace, not infos[1].surjective)
    assert flipped != infos[1]
    assert repr(infos[0]) == "SubmoduleInfo(subspace=Subspace(dim=0, ambient=2), surjective=True)"


def test_crystal_report_is_a_value(jordan, nilpotent):
    _same_value(jordan_holder(jordan), jordan_holder(jordan))
    assert jordan_holder(jordan) != jordan_holder(nilpotent)
    assert repr(jordan_holder(jordan)) == (
        "CrystalReport(minimal_rep=SemilinearModule(dim=2, field=GF(2^1), e=1), "
        "quasi_length=2, lattice=(Subspace(dim=0, ambient=2), Subspace(dim=1, ambient=2), "
        "Subspace(dim=2, ambient=2)), factor_dims=(1, 1), edges=((0, 1), (1, 2)))"
    )


def test_support_report_is_a_value():
    ring = PolyRing(FieldSpec(3, 1), ("x", "y"))
    op = CartierOperator(ring, ring.parse("x^2*y^2"))
    report = IdealModule(op, Ideal(ring, (ring.var("x"),))).supp_crys()
    _same_value(SupportReport(report.ann, report.iterations), report)
    assert SupportReport(report.ann, report.iterations + 1) != report
    assert repr(report) == "SupportReport(ann=Ideal(x), iterations=0)"


def test_records_take_their_fields_by_position_or_name(f2):
    sub = Subspace.zero(f2, 2)
    assert SubmoduleInfo(sub, True) == SubmoduleInfo(surjective=True, subspace=sub)
    assert NilDecomposition(sub, sub, None) == NilDecomposition(sub, sub, nilord=None)
    for args, named in [
        ((sub,), {}),  # a field missing
        ((sub, True, 1), {}),  # one too many
        ((sub,), {"subspace": sub}),  # a field given twice
        ((sub, True), {"other": 1}),  # not a field
    ]:
        with pytest.raises(TypeError, match="takes the fields subspace, surjective"):
            SubmoduleInfo(*args, **named)
    with pytest.raises(AttributeError):
        SubmoduleInfo(sub, True).surjective = False


def test_fields_default_to_the_own_slots_and_are_inherited():
    assert SubmoduleInfo._fields == ("subspace", "surjective")
    assert CrystalReport._fields == CrystalReport.__slots__
    assert SemilinearModule._fields == FrobeniusModule._fields == ("spec", "dim", "_a")
    assert FieldSpec._fields == ("p", "d", "modulus", "e")
    assert HomSpace._fields == ("spec", "_basis")


def test_modules_operators_orders_and_quotient_maps_compare_by_value(f2, jordan):
    _same_value(jordan.dual(), jordan.dual())
    # the same matrix under the other twist is another module
    assert SemilinearModule._of(f2, jordan._a) != FrobeniusModule._of(f2, jordan._a)
    _, qmap = jordan.quotient_by(jordan.stable_image())
    _same_value(qmap, jordan.quotient_by(jordan.stable_image())[1])
    _same_value(MonomialOrder("block", 2), elimination_order(2))
    assert MonomialOrder("block", 1) != elimination_order(2) and GREVLEX != MonomialOrder("lex")
    ring = PolyRing(FieldSpec(3, 1), ("x",))
    _same_value(CartierOperator(ring, ring.parse("x^2")), CartierOperator(ring, ring.parse("x^2")))
    assert CartierOperator(ring, ring.parse("x^2"), 2) != CartierOperator(ring, ring.parse("x^2"))
    # the degree guard is not part of the ring
    _same_value(PolyRing(f2, ("x",), 10), PolyRing(f2, ("x",)))
    _same_value(FieldSpec(2, 3), FieldSpec(2, 3, (1, 0, 1, 1)))
    assert FieldSpec(2, 3) != FieldSpec(2, 3, (1, 1, 0, 1)) and FieldSpec(2, 2) != FieldSpec(2, 2, e=2)
    _same_value(FieldSpec(2, 3).gen, FieldSpec(2, 3).gen * FieldSpec(2, 3).one)


def test_ideals_compare_by_identity():
    ring = PolyRing(FieldSpec(3, 1), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    a, b = Ideal(ring, (x, y)), Ideal(ring, (x, y))
    assert a == a and a != b and a.equals(b)
    # different generator lists can give the same ideal
    assert Ideal(ring, (x, x + y)).equals(a)
    assert len({a, b, a}) == 2


def test_groebner_cache_is_keyed_by_the_order_value():
    ring = PolyRing(FieldSpec(3, 1), ("x", "y"))
    ideal = Ideal(ring, (ring.parse("x^2 + y"), ring.parse("x*y - 1")))
    first = ideal.groebner(elimination_order(1))
    assert ideal.groebner(MonomialOrder("block", 1)) is first
    assert len(ideal._gb) == 1


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _one_of_each_value_class():
    """(values compared with ==, values holding ideals) covering every class."""
    gf4 = FieldSpec(2, 2)
    gf4.gen * gf4.gen  # the lazy kernel and element table are built
    jordan = SemilinearModule(gf4, [[gf4.gen, gf4.one], [gf4.zero, gf4.gen]])
    nilpotent = module_from_ints(gf4, [[0, 1], [0, 0]])
    ring = PolyRing(FieldSpec(3, 1), ("x", "y"))
    op = CartierOperator(ring, ring.parse("x^2*y^2"))
    ideal = Ideal(ring, (ring.parse("x^2 + y"), ring.parse("x*y - 1")))
    ideal.groebner(elimination_order(1))  # a block order in the basis cache
    module = IdealModule(op, Ideal(ring, (ring.var("x"),)))
    values = [
        gf4, gf4.gen, GREVLEX, MonomialOrder("lex"), elimination_order(1), ring,
        ring.parse("x^2*y + 2"), op, jordan, jordan.dual(), nilpotent.stable_image(),
        nilpotent.decompose(), jordan.hom_space(jordan), nilpotent.enumerate_submodules()[1],
        nilpotent.quotient_by(nilpotent.stable_image())[1], jordan_holder(nilpotent),
    ]
    return values, [ideal, module, module.supp_crys()]


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_every_value_class_can_be_copied_and_pickled(round_trip):
    values, with_ideals = _one_of_each_value_class()
    classes, todo = set(), [_Immutable]
    while todo:
        cls = todo.pop()
        classes.add(cls)
        todo += cls.__subclasses__()
    assert {type(v) for v in values + with_ideals} == classes - {_Immutable, _TwistedModule}
    for value in values:
        again = round_trip(value)
        assert type(again) is type(value) and again == value, value
        assert hash(again) == hash(value) and repr(again) == repr(value)
    ideal, module, report = map(round_trip, with_ideals)
    assert ideal.equals(with_ideals[0])
    assert ideal.groebner(elimination_order(1)) == with_ideals[0].groebner(elimination_order(1))
    assert module.op == with_ideals[1].op and module.ideal.equals(with_ideals[1].ideal)
    assert report.ann.equals(with_ideals[2].ann)
    assert report.iterations == with_ideals[2].iterations


def test_copies_leave_out_the_lazy_slots_and_still_compute():
    spec = FieldSpec(2, 3)
    assert spec.gen * spec.gen == spec.element((0, 0, 1))
    assert set(spec.__getstate__()) == {"p", "d", "modulus", "e", "_one"}
    for round_trip in ROUND_TRIPS.values():
        again = round_trip(spec)
        assert again.gen * again.gen == again.element((0, 0, 1))
        with pytest.raises(AttributeError, match="immutable"):
            again.p = 3
    order = pickle.loads(pickle.dumps(elimination_order(2)))
    assert order.rank((1, 2, 3)) == elimination_order(2).rank((1, 2, 3))
