import math
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lescop.documents import PresentationDocument, parse, serialize
from lescop.invariants import knot_alexander
from lescop.presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    Component,
    InvalidSpecError,
    RibbonPairSpec,
    SurgeryPresentation,
    UnknownComponentError,
    blow_down,
    build_ribbon_pair,
    build_triple,
    connected_sum_knot,
    drop_component,
    integral_form,
    validate,
)

from conftest import random_presentation, random_seifert, rational_presentation, seeded
from test_invariance import presentations


def trefoil_presentation():
    return SurgeryPresentation(
        base_order=1, components=(Component("l1", TREFOIL, {}),)
    )


class TestValidate:
    def test_trefoil_valid(self):
        assert validate(trefoil_presentation()) == []

    def test_odd_size_seifert(self):
        p = SurgeryPresentation(
            base_order=1,
            components=(Component("l1", [[0, 0, 0], [1, 0, 0], [0, 0, 0]], {}),),
        )
        msgs = validate(p)
        assert any("odd size" in m for m in msgs)

    def test_wrong_length_linking(self):
        c1 = Component("l1", TREFOIL, {"l2": (0,)})
        c2 = Component("l2", (), {"l1": ()})
        msgs = validate(SurgeryPresentation(1, (c1, c2)))
        assert any("length" in m and "'l1'" in m for m in msgs)

    def test_missing_pair_vector(self):
        c1 = Component("l1", TREFOIL, {})
        c2 = Component("l2", (), {"l1": ()})
        msgs = validate(SurgeryPresentation(1, (c1, c2)))
        assert any("missing linking vector" in m for m in msgs)

    def test_unknown_pair_vector(self):
        c1 = Component("l1", TREFOIL, {"ghost": (0, 0)})
        msgs = validate(SurgeryPresentation(1, (c1,)))
        assert any("unknown component" in m for m in msgs)

    def test_duplicate_names(self):
        c = Component("l1", TREFOIL, {})
        msgs = validate(SurgeryPresentation(1, (c, c)))
        assert any("duplicate" in m for m in msgs)

    def test_skew_determinant(self):
        for v, det in (([[0, 0], [0, 0]], 0), ([[0, 2], [0, 0]], 4)):
            msgs = validate(SurgeryPresentation(1, (Component("l1", v, {}),)))
            assert msgs == [f"component 'l1': det(V - V^T) = {det}, expected 1"]

    def test_non_integer_skew(self):
        v = [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
        msgs = validate(SurgeryPresentation(1, (Component("l1", v, {}),)))
        assert any("non-integer" in m for m in msgs)

    def test_rational_entries_need_torsion(self):
        v = [[Fraction(1, 3), 1], [0, Fraction(1, 3)]]
        p1 = SurgeryPresentation(1, (Component("l1", v, {}),))
        assert any("base_order" in m for m in validate(p1))
        p3 = SurgeryPresentation(3, (Component("l1", v, {}),))
        assert validate(p3) == []

    def test_bad_base_order(self):
        msgs = validate(SurgeryPresentation(0, (Component("l1", TREFOIL, {}),)))
        assert any("base_order" in m for m in msgs)

    def test_fractional_linking_alone_needs_torsion(self):
        """The common denominator counts the linking vectors too, even
        when the Seifert matrix is integral."""
        c1 = Component("l1", TREFOIL, {"l2": (Fraction(1, 2), 0)})
        c2 = Component("l2", (), {"l1": ()})
        assert validate(SurgeryPresentation(1, (c1, c2))) == [
            "component 'l1': non-integer entries require base_order > 1"
        ]
        assert validate(SurgeryPresentation(2, (c1, c2))) == []


def defined_form(c):
    """(d, dV, {name: cE}) from the definition, in Fraction arithmetic:
    c the lcm of every entry's denominator and d = c^2."""
    entries = [*(x for row in c.seifert for x in row),
               *(x for vec in c.linking.values() for x in vec)]
    lcm = math.lcm(*(Fraction(x).denominator for x in entries))
    d = lcm * lcm
    return (
        d,
        tuple(tuple(d * Fraction(x) for x in row) for row in c.seifert),
        {k: tuple(lcm * Fraction(x) for x in vec) for k, vec in c.linking.items()},
    )


class TestIntegralForm:
    def check(self, p):
        for c in p.components:
            d, dv, ce = c.integral_form
            assert (d, dv, dict(ce)) == defined_form(c), c.name
            assert type(ce) is MappingProxyType
            entries = [d, *(x for row in dv for x in row), *(x for vec in ce.values() for x in vec)]
            assert all(type(x) is int for x in entries), c.name

    def test_seeded_presentations(self):
        for p in presentations(seeded()):
            self.check(p)

    def test_rational_documents(self):
        rng = seeded(21)
        for k in range(40):
            p = parse(serialize(PresentationDocument(rational_presentation(rng, k % 4 + 1))))
            self.check(p.presentation)

    def test_integral_data_is_the_form(self):
        """For c = 1 the exact entries are returned as they are, with the
        linking vectors behind a read-only mapping."""
        linking = {"k": (2, 0)}
        d, dv, ce = integral_form(TREFOIL, linking)
        assert d == 1 and dv is TREFOIL and ce == linking
        with pytest.raises(TypeError):
            ce["k"] = (0, 0)


class TestImmutability:
    def test_linking_is_read_only(self):
        c = build_ribbon_pair(RibbonPairSpec(s=0)).components[0]
        with pytest.raises(TypeError):
            c.linking["l2"] = (0, 0)
        assert c.linking == {"l2": (1, 0)}

    def test_pickle_round_trip(self):
        p = build_triple(2, RibbonPairSpec(s=1))
        assert p.violations == ()
        assert pickle.loads(pickle.dumps(p)) == p

    def test_violations_are_kept(self):
        p = SurgeryPresentation(base_order=0, components=trefoil_presentation().components)
        assert p.violations == tuple(validate(p)) != ()
        assert p.violations is p.violations


class TestBlowDown:
    def test_ribbon_pair_block_update(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        assert p.components[0].seifert == ((0, 0), (1, 1))
        q = blow_down(p, "l2", -1)
        assert q.components[0].seifert == ((1, 0), (1, 1))

    def test_zero_linking_leaves_seifert(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        p = SurgeryPresentation(1, (c1, c2))
        q = blow_down(p, "l2", -1)
        assert q.components[0].seifert == TREFOIL

    def test_boundary_link_alexander_unchanged(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        p = SurgeryPresentation(1, (c1, c2))
        q = blow_down(p, "l2", -1)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(TREFOIL)

    def test_rank_one_update_is_outer_product(self):
        rng = seeded(21)
        for _ in range(20):
            p = random_presentation(rng, 2)
            e = p.components[0].linking["l2"]
            before = p.components[0].seifert
            after = blow_down(p, "l2", -1).components[0].seifert
            n = len(e)
            for i in range(n):
                for j in range(n):
                    assert after[i][j] - before[i][j] == e[i] * e[j]

    def test_positive_sign_subtracts(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        q = blow_down(p, "l2", 1)
        assert q.components[0].seifert == ((-1, 0), (1, 1))

    def test_order_independent(self):
        rng = seeded(22)
        for _ in range(15):
            p = random_presentation(rng, 3)
            ab = blow_down(blow_down(p, "l2", -1), "l3", -1)
            ba = blow_down(blow_down(p, "l3", -1), "l2", -1)
            assert ab == ba

    def test_unknown_target(self):
        with pytest.raises(UnknownComponentError):
            blow_down(trefoil_presentation(), "nope", -1)

    def test_bad_sign(self):
        p = build_ribbon_pair(RibbonPairSpec(s=0))
        with pytest.raises(InvalidSpecError):
            blow_down(p, "l2", 2)


class TestRibbonPair:
    def test_genus_zero_block(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, epsilon=1, base_order=1))
        c1, c2 = p.components
        assert c1.seifert == ((0, 0), (1, 1))
        assert c1.linking == {"l2": (1, 0)}
        assert c2.seifert == ()
        assert c2.linking == {"l1": ()}

    def test_negative_epsilon(self):
        p = build_ribbon_pair(RibbonPairSpec(s=-3, epsilon=-1))
        c1 = p.components[0]
        assert c1.seifert == ((0, 0), (-1, -3))
        assert c1.linking["l2"] == (-1, 0)

    def test_genus_one_block_layout(self):
        spec = RibbonPairSpec(s=2, a=(5, 7), w=TREFOIL, epsilon=1)
        c1 = build_ribbon_pair(spec).components[0]
        assert c1.seifert == (
            (0, 0, 0, 0),
            (1, 2, 5, 7),
            (0, 5, -1, 1),
            (0, 7, 0, -1),
        )
        assert c1.linking["l2"] == (1, 0, 0, 0)

    def test_genus_one_negative_spec_validates(self):
        spec = RibbonPairSpec(s=-3, a=(0, 0), w=TREFOIL, epsilon=-1, base_order=1)
        assert validate(build_ribbon_pair(spec)) == []

    def test_random_specs_validate(self):
        rng = seeded(23)
        for _ in range(50):
            g = rng.randint(0, 3)
            spec = RibbonPairSpec(
                s=rng.randint(-5, 5),
                a=tuple(rng.randint(-3, 3) for _ in range(2 * g)),
                w=random_seifert(rng, g),
                epsilon=rng.choice((1, -1)),
            )
            assert validate(build_ribbon_pair(spec)) == []

    @given(
        st.integers(-5, 5),
        st.integers(0, 2),
        st.integers(-3, 3),
        st.sampled_from((1, -1)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_validate_property(self, s, g, fill, eps, rng):
        spec = RibbonPairSpec(
            s=s,
            a=(fill,) * (2 * g),
            w=random_seifert(rng, g),
            epsilon=eps,
        )
        assert validate(build_ribbon_pair(spec)) == []

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, epsilon=2))

    def test_mismatched_a(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, a=(1,), w=()))

    def test_bad_w(self):
        with pytest.raises(InvalidSpecError):
            build_ribbon_pair(RibbonPairSpec(s=0, a=(0, 0), w=((0, 0), (0, 0))))


class TestTriple:
    def test_c_slot_carries_mu(self):
        p = build_triple(5, RibbonPairSpec(s=0))
        c1, c2, c3 = p.components
        assert c1.linking["l3"] == (0, 5)
        assert c1.linking["l2"] == (1, 0)
        assert c2.linking == {"l1": (), "l3": ()}
        assert c3.linking == {"l1": (), "l2": ()}
        assert validate(p) == []

    def test_non_integer_mu_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_triple("1", RibbonPairSpec(s=0))


class TestConnectedSum:
    def test_empty_summand_is_identity(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        assert connected_sum_knot(p, "l1", ()) == p

    def test_alexander_multiplies(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        q = connected_sum_knot(p, "l1", TREFOIL)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(
            TREFOIL
        ) * knot_alexander(p.components[0].seifert)

    def test_figure_eight_on_unknot(self):
        p = SurgeryPresentation(1, (Component("l1", (), {}),))
        q = connected_sum_knot(p, "l1", FIGURE_EIGHT)
        assert knot_alexander(q.components[0].seifert) == knot_alexander(FIGURE_EIGHT)

    def test_linking_padded_with_zeros(self):
        p = build_triple(1, RibbonPairSpec(s=0))
        q = connected_sum_knot(p, "l1", TREFOIL)
        assert q.components[0].linking["l2"] == (0, 0, 1, 0)
        assert q.components[0].linking["l3"] == (0, 0, 0, 1)
        assert validate(q) == []

    def test_bad_summand(self):
        p = trefoil_presentation()
        with pytest.raises(InvalidSpecError):
            connected_sum_knot(p, "l1", ((1,),))

    def test_unknown_component(self):
        with pytest.raises(UnknownComponentError):
            connected_sum_knot(trefoil_presentation(), "l9", TREFOIL)


class TestDrop:
    def test_drop_keeps_seifert(self):
        p = build_ribbon_pair(RibbonPairSpec(s=2))
        q = drop_component(p, "l2")
        assert q.names() == ["l1"]
        assert q.components[0].seifert == p.components[0].seifert
        assert q.components[0].linking == {}

    def test_drop_then_blow_down_commute_when_unlinked(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0), "l3": (1, 2)})
        c2 = Component("l2", (), {"l1": (), "l3": ()})
        c3 = Component("l3", (), {"l1": (), "l2": ()})
        p = SurgeryPresentation(1, (c1, c2, c3))
        assert blow_down(drop_component(p, "l3"), "l2", -1) == drop_component(
            blow_down(p, "l2", -1), "l3"
        )

    def test_drop_all(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        q = drop_component(drop_component(p, "l2"), "l1")
        assert q.components == ()
        assert q.base_order == 1

    def test_unknown(self):
        with pytest.raises(UnknownComponentError):
            drop_component(trefoil_presentation(), "zz")
