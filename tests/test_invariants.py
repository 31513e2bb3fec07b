from fractions import Fraction

import pytest

from lescop import invariants
from lescop.documents import parse
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
    normalized,
    sato_levine,
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
    rank_one_update,
)
from lescop.presentation import exact_matrix, integral_form
from lescop.ring import ONE, Z, HalfLaurent, determinant, divides_z_power

from conftest import (
    dense_knot_document,
    random_presentation,
    random_ribbon_spec,
    random_seifert,
    seeded,
    unimodular,
)

TREFOIL_POLY = HalfLaurent({2: 1, 0: -1, -2: 1})
FIG8_POLY = HalfLaurent({2: -1, 0: 3, -2: -1})


def knot_surgery(v, h=1):
    return SurgeryPresentation(h, (Component("l1", v, {}),))


def full_interpolation(v, h):
    """The oracle for knot_alexander: det(t dV - dV^T) at the n + 1
    consecutive integers around 0, interpolated in Newton form with no
    use of its symmetry."""
    d, dv, _ = integral_form(exact_matrix(v))
    n = len(dv)
    nodes = range(-(n // 2), n - n // 2 + 1)
    coeffs = [
        determinant([[t * dv[i][j] - dv[j][i] for j in range(n)] for i in range(n)])
        for t in nodes
    ]
    for k in range(1, n + 1):  # coeffs[i] becomes the divided difference on nodes i-k..i
        for i in range(n, k - 1, -1):
            assert (coeffs[i] - coeffs[i - 1]) % k == 0
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) // k
    poly = [coeffs[n]]  # Horner on c0 + (t - x0)(c1 + (t - x1)(c2 + ...))
    for c, x in zip(reversed(coeffs[:n]), reversed(nodes[:n])):
        poly = [a - x * b for a, b in zip([0, *poly], [*poly, 0])]
        poly[0] += c
    return HalfLaurent({2 * i - n: Fraction(c * h, d**n) for i, c in enumerate(poly)})


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
        assert isinstance(singular, HalfLaurent) and not singular

    def test_matches_sympy(self):
        """Up to genus 8 against det(x V - V^T) in a symbol x, expanded by sympy:
        its coefficient of x^i is that of t^((2i - n)/2)."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = seeded(33)
        for g in range(1, 9):
            h = (1, 3, 4)[g % 3]
            v = jet_test_seifert(rng, g, fractional=h > 1)
            n = 2 * g
            m = sympy.Matrix(n, n, lambda i, j: x * v[i][j] - v[j][i])
            coeffs = sympy.Poly(m.det(method="domain-ge"), x).all_coeffs()[::-1]
            expected = {2 * i - n: h * Fraction(int(c.p), int(c.q)) for i, c in enumerate(coeffs)}
            assert knot_alexander(v, h) == HalfLaurent(expected), (g, h, v)

    def test_matches_full_interpolation(self):
        """Bare matrices of sizes 0 to 12, odd, singular and fractional ones
        included, against n + 1 nodes interpolated without the symmetry."""
        rng = seeded(37)
        for n in range(13):
            for kind in ("integral", "fractional", "singular"):
                denominators = (1, 2, 3, 4) if kind == "fractional" else (1,)
                v = [[Fraction(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(n)]
                     for _ in range(n)]
                if kind == "singular" and n:
                    v[-1] = [3 * x for x in v[0]]
                for h in (1, 3, 4):
                    assert knot_alexander(v, h) == full_interpolation(v, h), (v, h)

    def test_half_the_determinants(self, monkeypatch):
        """floor(n/2) + 1 integer determinants per polynomial, for bare
        matrices and for components alike."""
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return determinant(rows)

        monkeypatch.setattr(invariants, "determinant", counted)
        rng = seeded(38)
        for n in range(11):
            calls.clear()
            knot_alexander([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert calls == [n] * (n // 2 + 1), n
        for g in range(5):
            calls.clear()
            alexander(knot_surgery(random_seifert(rng, g)), "l1")
            assert calls == [2 * g] * (g + 1), g

    def test_genus_24_knot(self):
        """The 48 x 48 form of the knot the CI smoke test runs: symmetric,
        sums to h, and its second derivative at 1 is the jet's."""
        p = parse(dense_knot_document(24)).presentation
        poly = alexander(p, "l1")
        assert max(poly.terms) == 48
        assert poly.involution() == poly
        assert poly.eval_at_one() == p.base_order == 1
        assert poly.second_derivative_at_one() == delta2(p, "l1")

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

    def test_fractional_matrix(self):
        """V - V^T is integral with determinant 1, but a chain starts from S^3."""
        half = Fraction(1, 2)
        with pytest.raises(InvalidSpecError, match="step 1: non-integer entries"):
            casson(SurgeryChain(((TREFOIL, -1), ([[half, 1], [0, half]], -1))))


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
            assert sato_levine(build_ribbon_pair(spec)) == -2

    def test_boundary_link_is_zero(self):
        c1 = Component("l1", TREFOIL, {"l2": (0, 0)})
        c2 = Component("l2", (), {"l1": ()})
        assert sato_levine(SurgeryPresentation(1, (c1, c2))) == 0

    def test_modes_coincide_without_torsion(self):
        p = build_ribbon_pair(RibbonPairSpec(s=3))
        assert normalized(sato_levine(p), p.base_order) == {DERIVED: 3, PAPER_LITERAL: 3}

    def test_modes_differ_with_torsion(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, base_order=3))
        assert sato_levine(p) == 1
        assert normalized(sato_levine(p), p.base_order) == {DERIVED: 1, PAPER_LITERAL: 3}

    def test_wrong_component_count(self):
        with pytest.raises(WrongComponentCountError):
            sato_levine(knot_surgery(TREFOIL))


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


def jet_test_seifert(rng, g, fractional):
    """A random valid Seifert matrix in a random basis, with fractional symmetric
    entries added if asked; V - V^T keeps determinant 1 and a zero diagonal."""
    v = random_seifert(rng, g, bound=2)
    n = 2 * g
    u = unimodular(rng, n, n)
    vu = [[sum(int(v[i][k]) * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    v = [[Fraction(sum(u[k][i] * vu[k][j] for k in range(n))) for j in range(n)] for i in range(n)]
    if fractional:
        for i in range(n):
            for j in range(i, n):
                x = Fraction(rng.randint(-3, 3), rng.choice((2, 3, 4)))
                v[i][j] += x
                if j != i:
                    v[j][i] += x
    return tuple(tuple(row) for row in v)


def alexander_delta2(v, h):
    return knot_alexander(v, h).second_derivative_at_one()


def random_dual_presentation(rng, n_components, h):
    """Component l1 of a random genus 1-2 knot, fractional when h > 1, linked to
    unknotted components l2 (and l3) by random vectors."""
    g = rng.randint(1, 2)
    v = jet_test_seifert(rng, g, h > 1)
    denominators = (1, 2, 3) if h > 1 else (1,)
    names = [f"l{i + 1}" for i in range(n_components)]
    linking = {
        other: tuple(Fraction(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(2 * g))
        for other in names[1:]
    }
    others = [Component(name, (), {o: () for o in names if o != name}) for name in names[1:]]
    return SurgeryPresentation(h, (Component("l1", v, linking), *others))


class TestJet:
    """The jet route against the second derivative of the Alexander polynomial,
    which knot_alexander interpolates from Bareiss determinants of int rows."""

    def test_delta2_matches_bareiss(self):
        rng = seeded(41)
        cases = [(g, (1, 3, 4)[g % 3]) for g in range(1, 11)] + [(12, 1)]
        cases += [(g, h) for g in (0, 1, 2, 3) for h in (1, 3, 4) for _ in range(4)]
        for g, h in cases:
            v = jet_test_seifert(rng, g, h > 1)
            assert delta2(knot_surgery(v, h), "l1") == alexander_delta2(v, h), (g, h, v)

    def test_sato_levine_matches_bareiss_jump(self):
        rng = seeded(42)
        cases = []
        for h in (1, 3, 4):
            cases += [build_ribbon_pair(random_ribbon_spec(rng, gmax=2, h=h)) for _ in range(20)]
            cases += [random_dual_presentation(rng, 2, h) for _ in range(30)]
        for p in cases:
            h = p.base_order
            c1 = p.components[0]
            v, e = c1.seifert, c1.linking["l2"]
            jump = alexander_delta2(rank_one_update(v, e, -1), h) - alexander_delta2(v, h)
            assert normalized(sato_levine(p), h) == {DERIVED: jump / (2 * h), PAPER_LITERAL: jump / 2}, p

    def test_mu_squared_matches_bareiss_jump(self):
        rng = seeded(43)
        cases = []
        for h in (1, 3, 4):
            cases += [build_triple(rng.randint(-3, 3), random_ribbon_spec(rng, gmax=2, h=h))
                      for _ in range(15)]
            cases += [random_dual_presentation(rng, 3, h) for _ in range(20)]
        for p in cases:
            h = p.base_order
            c1 = p.components[0]
            v, e2, e3 = c1.seifert, c1.linking["l2"], c1.linking["l3"]
            after = rank_one_update(v, e3, -1)
            jump = (alexander_delta2(rank_one_update(after, e2, -1), h) - alexander_delta2(after, h)
                    - alexander_delta2(rank_one_update(v, e2, -1), h) + alexander_delta2(v, h))
            expected = {DERIVED: jump / (2 * h), PAPER_LITERAL: jump / 2}
            assert normalized(milnor_mu_squared(p), h) == expected, p


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

