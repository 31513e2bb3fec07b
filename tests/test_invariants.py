from fractions import Fraction

import pytest

from lescop.invariants import (
    DERIVED,
    PAPER_LITERAL,
    InvalidPresentationError,
    SurgeryChain,
    WrongComponentCountError,
    alexander,
    casson,
    delta2,
    knot_alexander,
    lescop,
    milnor_mu_squared,
    sato_levine,
    sato_levine_modes,
)
from lescop.presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    Component,
    InvalidSpecError,
    RibbonPairSpec,
    SurgeryPresentation,
    UnknownComponentError,
    build_ribbon_pair,
    build_triple,
)
from lescop.ring import ONE, Z, HalfLaurent, divides_z_power

from conftest import random_presentation, random_ribbon_spec, seeded

TREFOIL_POLY = HalfLaurent({2: 1, 0: -1, -2: 1})
FIG8_POLY = HalfLaurent({2: -1, 0: 3, -2: -1})


def knot_surgery(v, h=1):
    return SurgeryPresentation(h, (Component("l1", v, {}),))


class TestAlexander:
    def test_trefoil(self):
        assert alexander(knot_surgery(TREFOIL), "l1") == TREFOIL_POLY

    def test_figure_eight(self):
        assert alexander(knot_surgery(FIGURE_EIGHT), "l1") == FIG8_POLY

    def test_unknot(self):
        assert alexander(knot_surgery(()), "l1") == ONE

    def test_unknot_with_torsion(self):
        assert alexander(knot_surgery((), h=5), "l1") == HalfLaurent({0: 5})

    def test_bare_matrix_gives_a_polynomial(self):
        for h in (1, 5):
            empty = knot_alexander((), h)
            assert isinstance(empty, HalfLaurent) and empty == h
        singular = knot_alexander([[0, 0], [0, 0]])
        assert isinstance(singular, HalfLaurent) and singular.is_zero()

    def test_unknown_component(self):
        with pytest.raises(UnknownComponentError):
            alexander(knot_surgery(TREFOIL), "l2")

    def test_invalid_presentation(self):
        p = knot_surgery([[0, 0], [0, 0]])
        with pytest.raises(InvalidPresentationError) as e:
            alexander(p, "l1")
        assert e.value.violations

    def test_symmetry_and_normalization_random(self):
        rng = seeded(31)
        for _ in range(50):
            h = rng.choice((1, 2, 3, 5))
            p = random_presentation(rng, rng.randint(1, 3), h=h, gmax=2)
            for c in p.components:
                poly = alexander(p, c.name)
                assert poly.involution() == poly
                assert poly.eval_at_one() == h


class TestDelta2:
    def test_trefoil(self):
        assert delta2(knot_surgery(TREFOIL), "l1") == 2

    def test_unknot(self):
        assert delta2(knot_surgery(()), "l1") == 0

    def test_figure_eight(self):
        assert delta2(knot_surgery(FIGURE_EIGHT), "l1") == -2


class TestCasson:
    def test_empty_chain(self):
        assert casson(SurgeryChain(())) == 0

    def test_trefoil_minus_one(self):
        assert casson(SurgeryChain(((TREFOIL, -1),))) == -1

    def test_figure_eight_plus_one(self):
        assert casson(SurgeryChain(((FIGURE_EIGHT, 1),))) == -1

    def test_plain_step_list_accepted(self):
        assert casson([(TREFOIL, -1), (FIGURE_EIGHT, -1)]) == 0

    def test_reversal_negates(self):
        rng = seeded(32)
        from conftest import random_seifert

        steps = tuple(
            (random_seifert(rng, rng.randint(0, 2)), rng.choice((1, -1)))
            for _ in range(5)
        )
        flipped = tuple((v, -s) for v, s in reversed(steps))
        assert casson(SurgeryChain(steps)) == -casson(SurgeryChain(flipped))

    def test_bad_matrix(self):
        with pytest.raises(InvalidSpecError):
            casson(SurgeryChain((([[0, 0], [0, 0]], -1),)))

    def test_bad_sign(self):
        with pytest.raises(InvalidSpecError):
            casson(SurgeryChain(((TREFOIL, 2),)))


class TestSatoLevine:
    def test_round_trip_genus_zero(self):
        assert sato_levine(build_ribbon_pair(RibbonPairSpec(s=1))) == 1

    def test_round_trip_random(self):
        rng = seeded(33)
        for _ in range(30):
            spec = random_ribbon_spec(rng, gmax=2)
            assert sato_levine(build_ribbon_pair(spec)) == spec.s

    def test_round_trip_with_torsion(self):
        # the derived normalization recovers s for every base order
        rng = seeded(34)
        for h in (2, 3, 5):
            spec = random_ribbon_spec(rng, s=-2, gmax=1, h=h)
            assert sato_levine(build_ribbon_pair(spec), DERIVED) == -2

    def test_boundary_link_is_zero(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        assert sato_levine(SurgeryPresentation(1, (c1, c2))) == 0

    def test_modes_coincide_without_torsion(self):
        p = build_ribbon_pair(RibbonPairSpec(s=3))
        assert sato_levine(p, DERIVED) == sato_levine(p, PAPER_LITERAL) == 3
        assert sato_levine_modes(p) == {DERIVED: 3, PAPER_LITERAL: 3}

    def test_modes_differ_with_torsion(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, base_order=3))
        assert sato_levine(p, DERIVED) == 1
        assert sato_levine(p, PAPER_LITERAL) == 3
        assert sato_levine_modes(p) == {DERIVED: 1, PAPER_LITERAL: 3}

    def test_wrong_component_count(self):
        with pytest.raises(WrongComponentCountError):
            sato_levine(knot_surgery(TREFOIL))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sato_levine(build_ribbon_pair(RibbonPairSpec(s=0)), "rounded")


class TestMilnor:
    def test_borromean_type(self):
        assert milnor_mu_squared(build_triple(1, RibbonPairSpec(s=0))) == 1

    def test_no_linking(self):
        assert milnor_mu_squared(build_triple(0, RibbonPairSpec(s=7))) == 0

    def test_square(self):
        assert milnor_mu_squared(build_triple(3, RibbonPairSpec(s=2))) == 9

    def test_wrong_component_count(self):
        with pytest.raises(WrongComponentCountError):
            milnor_mu_squared(build_ribbon_pair(RibbonPairSpec(s=0)))


class TestHosteStructure:
    def test_z3_divisibility_random_ribbon_pairs(self):
        rng = seeded(35)
        for _ in range(30):
            h = rng.choice((1, 1, 2, 3))
            spec = random_ribbon_spec(rng, gmax=2, h=h)
            p = build_ribbon_pair(spec)
            before = alexander(p, "l1")
            from lescop.presentation import blow_down

            after = knot_alexander(
                blow_down(p, "l2", -1).components[0].seifert, h
            )
            residue = after - (ONE + spec.s * Z * Z) * before
            assert divides_z_power(residue, 3)


class TestLescop:
    def test_s1_x_s2(self):
        assert lescop(knot_surgery(())) == Fraction(-1, 12)

    def test_trefoil_zero_surgery(self):
        assert lescop(knot_surgery(TREFOIL)) == Fraction(11, 12)

    def test_ribbon_pair(self):
        assert lescop(build_ribbon_pair(RibbonPairSpec(s=1))) == -1

    def test_ribbon_pair_with_torsion(self):
        assert lescop(build_ribbon_pair(RibbonPairSpec(s=1, base_order=3))) == -3

    def test_triple_with_torsion(self):
        assert lescop(build_triple(1, RibbonPairSpec(s=0, base_order=3))) == 3

    def test_vanishes_for_many_components(self):
        rng = seeded(36)
        for n in (4, 5, 6):
            p = random_presentation(rng, n, gmax=1)
            assert lescop(p) == 0

    def test_no_components_out_of_scope(self):
        with pytest.raises(WrongComponentCountError):
            lescop(SurgeryPresentation(1, ()))

