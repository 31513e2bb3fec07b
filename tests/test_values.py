"""Value semantics of the package's eight record classes.

Each is an immutable value: equality, hashing and repr read its
declared fields only, in declaration order; equality holds only between
instances of the same class; no attribute can be assigned or deleted;
and pickling gives back an equal value.  Classes that hold a read-only
mapping (a Component's linking vectors) are unhashable, as is every
record that holds one.
"""

import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lescop.documents import PresentationDocument
from lescop.floer import BundleSpec, ChiReport
from lescop.invariants import SurgeryChain
from lescop.lens import LensBreakdown, rep_classes
from lescop.presentation import (
    TREFOIL,
    Component,
    RibbonPairSpec,
    SurgeryPresentation,
)


def component():
    return Component("l1", [[-1, 1], [0, -1]], {"l2": (Fraction(1, 2), 0)})


def presentation():
    return SurgeryPresentation(2, [component(), Component("l2", (), {"l1": []})])


COMPONENT_REPR = (
    "Component(name='l1', seifert=((-1, 1), (0, -1)), "
    "linking=mappingproxy({'l2': (Fraction(1, 2), 0)}))"
)
PRESENTATION_REPR = (
    f"SurgeryPresentation(base_order=2, components=({COMPONENT_REPR}, "
    "Component(name='l2', seifert=(), linking=mappingproxy({'l1': ()}))))"
)

# name -> (a factory of one value, its exact repr, whether it is hashable)
VALUES = {
    "Component": (component, COMPONENT_REPR, False),
    "SurgeryPresentation": (presentation, PRESENTATION_REPR, False),
    "RibbonPairSpec": (
        lambda: RibbonPairSpec(1, [Fraction(2, 2), 0], [[-1, 1], [0, -1]], -1, 3),
        "RibbonPairSpec(s=1, a=(1, 0), w=((-1, 1), (0, -1)), epsilon=-1, base_order=3)",
        True,
    ),
    "PresentationDocument": (
        lambda: PresentationDocument(presentation(), (1,), "derived"),
        f"PresentationDocument(presentation={PRESENTATION_REPR}, bundle_w2=(1,), "
        "normalization='derived')",
        False,
    ),
    "SurgeryChain": (
        lambda: SurgeryChain([(TREFOIL, -1), ([[Fraction(-2, 2), 1], [0, -1]], Fraction(1))]),
        "SurgeryChain(steps=((((-1, 1), (0, -1)), -1), (((-1, 1), (0, -1)), 1)))",
        True,
    ),
    "BundleSpec": (lambda: BundleSpec([1, 0]), "BundleSpec(w2=(1, 0))", True),
    "ChiReport": (
        lambda: ChiReport(-4, "triangle", BundleSpec((1,)), "unique"),
        "ChiReport(chi=-4, route='triangle', bundle=BundleSpec(w2=(1,)), ambiguity='unique')",
        True,
    ),
    "LensBreakdown": (
        lambda: rep_classes(6),
        "LensBreakdown(p=6, central_classes=2, sphere_classes=2, euler_factor=6)",
        True,
    ),
}

NAMES = list(VALUES)


def make(name):
    return VALUES[name][0]()


FIELDS = {
    "Component": ("name", "seifert", "linking"),
    "SurgeryPresentation": ("base_order", "components"),
    "RibbonPairSpec": ("s", "a", "w", "epsilon", "base_order"),
    "PresentationDocument": ("presentation", "bundle_w2", "normalization"),
    "SurgeryChain": ("steps",),
    "BundleSpec": ("w2",),
    "ChiReport": ("chi", "route", "bundle", "ambiguity"),
    "LensBreakdown": ("p", "central_classes", "sphere_classes", "euler_factor"),
}


def fields(value):
    """The declared fields of a value, in declaration order."""
    return FIELDS[type(value).__name__]


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    value = make(name)
    assert type(value).__name__ == name
    assert repr(value) == VALUES[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_equality_within_one_class(name):
    a, b = make(name), make(name)
    assert a == b and not a != b
    assert a is not b
    state = SimpleNamespace(**{f: getattr(a, f) for f in fields(a)})
    assert a != state and state != a
    assert a != tuple(vars(state).values())

    class Sub(type(a)):
        pass

    sub = Sub.__new__(Sub)
    vars(sub).update(vars(a))
    assert a != sub and sub != a


def test_equality_reads_declared_fields_only():
    checked, fresh = presentation(), presentation()
    assert checked.violations == ()
    assert "violations" in vars(checked) and "violations" not in vars(fresh)
    assert checked == fresh and fresh == checked

    formed = component()
    assert formed.integral_form[0] == 4
    assert formed.skew_form[1] is None
    assert formed == component() and component() == formed


def test_equality_compares_every_field():
    assert BundleSpec((1, 0)) != BundleSpec((0, 1))
    assert ChiReport(2, "triangle", BundleSpec((1,)), "unique") != ChiReport(
        2, "closed_form", BundleSpec((1,)), "unique"
    )
    assert rep_classes(5) != rep_classes(6)
    assert RibbonPairSpec(1) != RibbonPairSpec(1, base_order=2)
    assert presentation() != SurgeryPresentation(1, presentation().components)
    doc = PresentationDocument(presentation())
    assert doc != PresentationDocument(presentation(), normalization="derived")


@pytest.mark.parametrize("name", [n for n in NAMES if VALUES[n][2]])
def test_equal_values_hash_alike(name):
    a, b = make(name), make(name)
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields(a)))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", [n for n in NAMES if not VALUES[n][2]])
def test_values_holding_a_mapping_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(make(name))


@pytest.mark.parametrize("name", NAMES)
def test_no_attribute_can_be_assigned_or_deleted(name):
    value = make(name)
    before = repr(value)
    for attr in (*fields(value), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == before


def test_kept_results_cannot_be_assigned():
    c, p = component(), presentation()
    for value, attr in ((c, "integral_form"), (c, "skew_form"), (c, "jet_trace"),
                        (p, "violations")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    assert p.violations == () and c.skew_form[1] is None


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    value = make(name)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)
    with pytest.raises(AttributeError):
        setattr(back, fields(back)[0], None)


def test_pickled_presentation_keeps_read_only_linking():
    back = pickle.loads(pickle.dumps(presentation()))
    with pytest.raises(TypeError):
        back.components[0].linking["l3"] = (0, 0)
    assert back.violations == ()


class TestConstruction:
    def test_presentation_document_defaults(self):
        p = presentation()
        doc = PresentationDocument(p)
        assert doc == PresentationDocument(presentation=p, bundle_w2=None, normalization=None)
        assert doc.bundle_w2 is None and doc.normalization is None
        full = PresentationDocument(p, (1,), "derived")
        assert full == PresentationDocument(normalization="derived", bundle_w2=(1,), presentation=p)

    def test_ribbon_pair_spec_defaults(self):
        spec = RibbonPairSpec(2)
        assert spec == RibbonPairSpec(s=2, a=(), w=(), epsilon=1, base_order=1)
        assert (spec.a, spec.w, spec.epsilon, spec.base_order) == ((), (), 1, 1)
        assert RibbonPairSpec(2, (0, 1), TREFOIL, -1, 5) == RibbonPairSpec(
            base_order=5, epsilon=-1, w=TREFOIL, a=(0, 1), s=2
        )

    @pytest.mark.parametrize("build", [
        lambda: Component("l1", TREFOIL, {}, None),
        lambda: Component("l1", TREFOIL),
        lambda: SurgeryPresentation(1, (), ()),
        lambda: RibbonPairSpec(1, (), (), 1, 1, 1),
        lambda: RibbonPairSpec(a=()),
        lambda: PresentationDocument(),
        lambda: PresentationDocument(presentation(), colour="red"),
        lambda: SurgeryChain(steps=(), sign=1),
        lambda: BundleSpec(),
        lambda: ChiReport(1, "triangle", BundleSpec((1,))),
        lambda: LensBreakdown(1, 1, 0, 1, 1),
    ])
    def test_wrong_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_keyword_construction(self):
        assert Component(name="l1", seifert=TREFOIL, linking={}) == Component("l1", TREFOIL, {})
        assert SurgeryPresentation(base_order=1, components=[]) == SurgeryPresentation(1, ())
        assert SurgeryChain(steps=[]) == SurgeryChain(())
        assert BundleSpec(w2=[1]) == BundleSpec((1,))
        assert ChiReport(chi=0, route="r", bundle=None, ambiguity="a") == ChiReport(0, "r", None, "a")
        assert LensBreakdown(p=1, central_classes=1, sphere_classes=0, euler_factor=1) == rep_classes(1)


def test_positional_patterns_follow_the_declared_fields():
    match rep_classes(6), presentation():
        case LensBreakdown(6, 2, 2, 6), SurgeryPresentation(2, (Component("l1", seifert), _)):
            assert seifert == TREFOIL
        case _:
            pytest.fail("no pattern matched")
