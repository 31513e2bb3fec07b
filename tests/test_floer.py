from fractions import Fraction
from itertools import product
import re
import sys
import tracemalloc

import pytest

from lescop import floer
from lescop.corpus import corpus
from lescop.documents import parse
from lescop.floer import (
    CLOSED_FORM,
    EXT_AMBIGUOUS,
    TRIANGLE,
    UNIQUE,
    BundleSpec,
    InadmissibleBundleError,
    NonIntegralChiError,
    bundle_ambiguity,
    chi_closed_form,
    chi_to_lescop,
    chi_via_triangle,
    lescop_to_chi,
    reduced_knot_chi,
    taubes_chi,
)
from lescop.invariants import (
    SurgeryChain,
    WrongComponentCountError,
    delta2,
    knot_alexander,
    lescop,
    milnor_mu_squared,
    sato_levine,
)
from lescop.presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    Component,
    RibbonPairSpec,
    SurgeryPresentation,
    _jet_trace,
    build_ribbon_pair,
    build_triple,
    rank_one_update,
)

from conftest import (
    fractional_presentation,
    hostile_rational_document,
    knot_surgery,
    linked_link_document,
    random_presentation,
    rational_presentation,
    random_ribbon_spec,
    random_seifert,
    seeded,
    with_extra_unknots,
)


class TestBundles:
    def test_admissibility(self):
        assert BundleSpec((1, 0)).is_admissible()
        assert not BundleSpec((0, 0)).is_admissible()
        assert not BundleSpec((2,)).is_admissible()

    def test_zero_bundle_rejected(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        with pytest.raises(InadmissibleBundleError):
            chi_closed_form(p, BundleSpec((0, 0)))

    def test_non_bit_rejected_by_name(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        for chi in (chi_closed_form, chi_via_triangle):
            with pytest.raises(InadmissibleBundleError, match=re.escape("only 0/1 bits, got (2, 1)")):
                chi(p, BundleSpec((2, 1)))
            with pytest.raises(InadmissibleBundleError, match="at least one 1"):
                chi(p, BundleSpec((0, 0)))

    def test_wrong_length_rejected(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1))
        with pytest.raises(InadmissibleBundleError):
            chi_via_triangle(p, BundleSpec((1,)))

    def test_ambiguity(self):
        assert bundle_ambiguity(1) == UNIQUE
        assert bundle_ambiguity(5) == UNIQUE
        assert bundle_ambiguity(4) == EXT_AMBIGUOUS
        with pytest.raises(ValueError):
            bundle_ambiguity(0)

    def test_report_carries_ambiguity(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, base_order=4))
        assert chi_closed_form(p).ambiguity == EXT_AMBIGUOUS
        p = build_ribbon_pair(RibbonPairSpec(s=1, base_order=3))
        assert chi_via_triangle(p).ambiguity == UNIQUE

    def test_chi_ignores_which_admissible_bundle(self):
        for name, doc in corpus().items():
            p = doc.presentation
            n = len(p.components)
            if n > 3:
                continue
            chis = {
                chi_closed_form(
                    p, BundleSpec(tuple((mask >> i) & 1 for i in range(n)))
                ).chi
                for mask in range(1, 2**n)
            }
            assert len(chis) == 1, name


class TestClosedForm:
    def test_trefoil(self):
        r = chi_closed_form(knot_surgery(TREFOIL), BundleSpec((1,)))
        assert r.chi == -2
        assert r.route == CLOSED_FORM
        assert isinstance(r.chi, int)

    def test_ribbon_pair(self):
        assert chi_closed_form(build_ribbon_pair(RibbonPairSpec(s=1)), BundleSpec((1, 1))).chi == -2

    def test_triple(self):
        assert chi_closed_form(build_triple(1, RibbonPairSpec(s=0)), BundleSpec((1, 1, 1))).chi == -2

    def test_four_components_vanish(self):
        rng = seeded(41)
        p = with_extra_unknots(build_triple(2, RibbonPairSpec(s=1)), 1)
        assert chi_closed_form(p).chi == 0

    def test_no_components(self):
        with pytest.raises(WrongComponentCountError):
            chi_closed_form(SurgeryPresentation(1, ()))

    def test_non_integral_chi_is_an_error(self):
        v = ((Fraction(1, 3), Fraction(1)), (Fraction(0), Fraction(1, 3)))
        p = knot_surgery(v, h=3)
        with pytest.raises(NonIntegralChiError):
            chi_closed_form(p)


class TestTriangle:
    def test_one_component_matches_closed_form(self):
        rng = seeded(42)
        for _ in range(10):
            p = knot_surgery(random_seifert(rng, rng.randint(0, 3)))
            assert chi_via_triangle(p).chi == chi_closed_form(p).chi

    def test_ribbon_pair_difference(self):
        # -Delta''_after + Delta''_before = -2 - 0
        assert chi_via_triangle(build_ribbon_pair(RibbonPairSpec(s=1))).chi == -2

    def test_four_components_vanish(self):
        p = with_extra_unknots(build_triple(1, RibbonPairSpec(s=0)), 1)
        assert chi_via_triangle(p).chi == 0

    def test_route_agreement_random(self):
        rng = seeded(43)
        for _ in range(40):
            n = rng.randint(1, 4)
            p = random_presentation(rng, n, h=rng.choice((1, 1, 2, 3)), gmax=1)
            assert chi_via_triangle(p).chi == chi_closed_form(p).chi

    def test_route_agreement_with_torsion(self):
        p = build_ribbon_pair(RibbonPairSpec(s=1, base_order=3))
        assert chi_closed_form(p).chi == chi_via_triangle(p).chi == -6

    def test_route_agreement_with_one_zero_vector(self):
        """b1 = 2 to 6, one of the first component's vectors zero among
        nonzero ones: the triangle, which then walks no leaf, agrees with
        the closed form and with the polynomial leaves, which walk them all."""
        rng = seeded(48)
        for b1 in range(2, 7):
            for _ in range(6):
                p = with_one_zero_vector(rng, b1)
                expected = polynomial_triangle(p)
                assert chi_via_triangle(p).chi == chi_closed_form(p).chi == expected, p

    @pytest.mark.parametrize("low", [1, 2, 3])
    def test_sum_across_blocks(self, monkeypatch, low):
        """With blocks of 2^low leaves, walks over k = 1 to 6 vectors cross
        up to 32 blocks, and their sum must be the closed form, or both
        routes must find the same non-integral value.  At the real _LOW,
        every block of b >= 3 vectors sums to 0 by itself, so only small
        blocks test how the blocks are summed."""
        monkeypatch.setattr(floer, "_LOW", low)
        rng = seeded(51)
        walked = 0
        for k in range(1, 7):
            for _ in range(10):
                p = rational_presentation(rng, k + 1)
                assert p.violations == (), p
                try:
                    expected = chi_closed_form(p).chi
                except NonIntegralChiError as e:
                    value = str(e).rpartition(" = ")[2]
                    with pytest.raises(NonIntegralChiError, match=f" = {re.escape(value)}$"):
                        chi_via_triangle(p)
                else:
                    assert chi_via_triangle(p).chi == expected, p
                first, *others = p.components
                walked += k > low and all(any(first.linking[c.name]) for c in others)
        assert walked >= 20

    def test_linked_link_walks_every_leaf(self):
        """The generator of the CI's walk bound gives l1 no zero vector."""
        p = parse(linked_link_document(8, 1)).presentation
        first, *others = p.components
        assert all(any(first.linking[c.name]) for c in others)
        assert chi_via_triangle(p).chi == chi_closed_form(p).chi


def with_one_zero_vector(rng, b1):
    """A random presentation of b1 components whose first has genus 1 or 2
    and exactly one zero linking vector, the one against a random other."""
    while True:
        p = random_presentation(rng, b1, h=rng.choice((1, 2, 3)), gmax=2)
        first, *others = p.components
        if first.size and all(any(first.linking[c.name]) for c in others):
            break
    linking = {**first.linking, rng.choice(others).name: (0,) * first.size}
    return SurgeryPresentation(p.base_order, (Component(first.name, first.seifert, linking), *others))


def polynomial_triangle(p):
    """chi as the signed sum over the blown-down subsets J of the other
    components of -Delta''_J(1), each read off the interpolated Alexander
    polynomial of V + sum_J E E^T: no S^-1, no jet."""
    first, *others = p.components
    total = Fraction(0)
    for mask in product((0, 1), repeat=len(others)):
        w = first.seifert
        for blown, c in zip(mask, others):
            if blown:
                w = rank_one_update(w, first.linking[c.name], -1)
        dropped = len(others) - sum(mask)
        total += (-1) ** dropped * -knot_alexander(w, p.base_order).second_derivative_at_one()
    return total


class TestTriangleOracle:
    def test_matches_polynomial_leaves_on_fractional_data(self):
        rng = seeded(46)
        for _ in range(300):
            p = fractional_presentation(rng)
            expected = polynomial_triangle(p)
            if expected.denominator == 1:
                assert chi_via_triangle(p).chi == expected, p
            else:
                with pytest.raises(NonIntegralChiError, match=re.escape(f"= {expected}") + "$"):
                    chi_via_triangle(p)

    def test_invariants_are_exact(self):
        rng = seeded(47)
        for _ in range(60):
            p = fractional_presentation(rng)
            n = len(p.components)
            values = [lescop(p)]
            if n == 1:
                values.append(delta2(p, "l1"))
            elif n == 2:
                values.append(sato_levine(p))
            elif n == 3:
                values.append(milnor_mu_squared(p))
            assert all(type(x) is Fraction for x in values), (p, values)


def direct_trace(dv, s_inv, vectors, subset):
    """tr((S^-1 dB)^2) for dB the symmetrized dV + sum over the subset of (cE)(cE)^T, by O(g^3) products."""
    n = len(dv)
    w = [list(row) for row in dv]
    for i in subset:
        e = vectors[i]
        w = [[w[r][c] + e[r] * e[c] for c in range(n)] for r in range(n)]
    db = [[w[r][c] + w[c][r] for c in range(n)] for r in range(n)]
    a = [[sum(s_inv[r][k] * db[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return sum(a[r][k] * a[k][r] for r in range(n) for k in range(n))


def leaf_traces(dv, s_inv, trace, vectors):
    """The traces of floer._leaf_blocks, its blocks concatenated, after
    checking that each block holds 2^min(k, _LOW) of them."""
    blocks = list(floer._leaf_blocks(dv, s_inv, trace, vectors))
    size = 1 << min(len(vectors), floer._LOW)
    assert [len(block) for block in blocks] == [size] * (2 ** len(vectors) // size)
    return [t for block in blocks for t in block]


def check_direct_traces():
    """The Gray-code walk yields 2^k traces, the m-th for the subset given
    by the bits of m ^ (m >> 1), each equal to its O(g^3) trace."""
    rng = seeded(48)
    nontrivial = 0
    for _ in range(300):
        p = fractional_presentation(rng)
        first, *others = p.components
        _, dv, ce = first.integral_form
        vectors = [ce[c.name] for c in others]
        s_inv = first.skew_form[0]
        traces = leaf_traces(dv, s_inv, first.jet_trace, vectors)
        assert len(traces) == 2 ** len(vectors), p
        for m, trace in enumerate(traces):
            gray = m ^ (m >> 1)
            subset = [i for i in range(len(vectors)) if gray >> i & 1]
            assert trace == direct_trace(dv, s_inv, vectors, subset), (p, subset)
        nontrivial += len(vectors) >= 2 and len(dv) > 0 and len(set(traces)) > 1
    assert nontrivial >= 50


def check_jet_traces():
    """The m-th trace equals _jet_trace of dV_J built afresh for the J given
    by the bits of m ^ (m >> 1), on rational presentations of genus 0 to 3
    with k = 0 to 6 vectors."""
    rng = seeded(49)
    genera, scaled = set(), 0
    for k in range(7):
        for _ in range(10):
            p = rational_presentation(rng, k + 1)
            assert p.violations == (), p
            first, *others = p.components
            d, dv, ce = first.integral_form
            vectors = [ce[c.name] for c in others]
            s_inv = first.skew_form[0]
            n = len(dv)
            traces = leaf_traces(dv, s_inv, first.jet_trace, vectors)
            assert len(traces) == 2 ** k, p
            for m, trace in enumerate(traces):
                blown = [e for i, e in enumerate(vectors) if (m ^ (m >> 1)) >> i & 1]
                dv_j = [[dv[r][c] + sum(e[r] * e[c] for e in blown)
                         for c in range(n)] for r in range(n)]
                assert trace == _jet_trace(s_inv, dv_j), (p, m)
            genera.add(n // 2)
            scaled += d > 1 and k >= 2 and len(set(traces)) > 2
    assert genera == {0, 1, 2, 3}
    assert scaled >= 25


class TestLeafWalk:
    def test_every_leaf_trace_is_the_direct_trace(self):
        check_direct_traces()

    def test_each_leaf_trace_is_the_jet_trace_of_its_rebuilt_form(self):
        """The block walk against the definition of its leaves."""
        check_jet_traces()

    @pytest.mark.parametrize("low", [1, 2, 3])
    def test_walks_across_reflected_blocks(self, monkeypatch, low):
        """Both checks above with blocks of 2^low leaves, so that walks over
        up to 6 vectors step between blocks and reverse the odd ones."""
        monkeypatch.setattr(floer, "_LOW", low)
        check_direct_traces()
        check_jet_traces()

    def test_twelve_vectors_at_the_real_block_size(self):
        """A walk over k = 12 vectors crosses 2^(12 - _LOW) blocks; every
        one of its 4096 traces is the direct trace of its subset."""
        rng = seeded(50)
        while True:
            p = rational_presentation(rng, 13, gmax=2)
            first, *others = p.components
            if first.size and p.violations == ():
                break
        _, dv, ce = first.integral_form
        vectors = [ce[c.name] for c in others]
        s_inv = first.skew_form[0]
        traces = leaf_traces(dv, s_inv, first.jet_trace, vectors)
        assert len(traces) == 2 ** 12 and len(set(traces)) > 2 ** floer._LOW
        for m, trace in enumerate(traces):
            gray = m ^ (m >> 1)
            subset = [i for i in range(12) if gray >> i & 1]
            assert trace == direct_trace(dv, s_inv, vectors, subset), subset

    def test_peak_memory_on_hostile_rationals(self):
        """On the 12-component hostile document, whose traces have about
        146,000 bits, a walk of 2 blocks, chi_via_triangle allocates at its
        peak less than 2 blocks of 2^_LOW ints the size of the walk's
        first trace: the cross lists, which a walk of several blocks
        keeps, about one block in all, and the block being built.  The
        caller sums each block and drops it before the next is built."""
        peak = peak_blocks(hostile_rational_document(12))
        assert peak < 2.0, peak

    def test_peak_memory_on_a_long_walk(self):
        """On the 16-component hostile document, a walk of 32 blocks, the
        peak stays below 2.1 blocks: as on 12 components, no block is
        held while the next is built."""
        peak = peak_blocks(hostile_rational_document(16))
        assert peak < 2.1, peak

    def test_peak_memory_on_a_one_block_walk(self):
        """On the 11-component hostile document, k = _LOW vectors make one
        block, and chi_via_triangle allocates at its peak less than 1.6
        blocks: the block being doubled and the one cross list being built
        for that doubling, half a block at the last, each dropped after it;
        the caller sums the traces themselves and forms no other list."""
        assert floer._LOW == 10
        peak = peak_blocks(hostile_rational_document(11))
        assert peak < 1.6, peak


def peak_blocks(document):
    """The tracemalloc peak of chi_via_triangle on a valid document, in
    blocks of 2^_LOW ints the size of the walk's first trace."""
    p = parse(document).presentation
    assert p.violations == ()
    block = 2 ** floer._LOW * sys.getsizeof(p.components[0].jet_trace)
    tracemalloc.start()
    try:
        chi_via_triangle(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / block


class TestTaubes:
    def test_empty_chain(self):
        assert taubes_chi(SurgeryChain(())) == 0

    def test_trefoil(self):
        assert taubes_chi(SurgeryChain(((TREFOIL, -1),))) == -2

    def test_figure_eight(self):
        assert taubes_chi(SurgeryChain(((FIGURE_EIGHT, 1),))) == -2


class TestConversions:
    def test_s1_x_s2(self):
        assert lescop_to_chi(Fraction(-1, 12), 1, 1) == 0

    def test_b1_two(self):
        assert lescop_to_chi(Fraction(-1), 2, 1) == -2

    def test_b1_three_with_torsion(self):
        assert lescop_to_chi(Fraction(3), 3, 3) == -2

    def test_inverse_examples(self):
        assert chi_to_lescop(0, 1, 1) == Fraction(-1, 12)
        assert chi_to_lescop(-2, 2, 1) == -1
        assert chi_to_lescop(0, 5, 7) == 0

    def test_round_trip(self):
        rng = seeded(44)
        for _ in range(100):
            b1 = rng.randint(1, 6)
            h = rng.randint(1, 10)
            chi = rng.randint(-40, 40)
            lam = chi_to_lescop(chi, b1, h)
            assert lescop_to_chi(lam, b1, h) == chi
            assert chi_to_lescop(lescop_to_chi(lam, b1, h), b1, h) == lam

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralChiError):
            lescop_to_chi(Fraction(1, 3), 2, 2)
        with pytest.raises(NonIntegralChiError):
            lescop_to_chi(Fraction(0), 1, 1)  # -h/6 is not integral for h = 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            lescop_to_chi(Fraction(0), 0, 1)
        with pytest.raises(ValueError):
            chi_to_lescop(0, 1, 0)

    def test_consistency_with_closed_form_on_builders(self):
        rng = seeded(45)
        cases = [knot_surgery(random_seifert(rng, 2))]
        cases += [build_ribbon_pair(random_ribbon_spec(rng, gmax=1)) for _ in range(5)]
        cases += [build_triple(m, RibbonPairSpec(s=1)) for m in range(3)]
        cases += [with_extra_unknots(build_triple(1, RibbonPairSpec(s=0)), k) for k in (1, 2)]
        for p in cases:
            n = len(p.components)
            assert lescop_to_chi(lescop(p), n, 1) == chi_closed_form(p).chi


class TestReducedKnotChi:
    def test_half(self):
        assert reduced_knot_chi(-2) == -1

    def test_odd_total_rejected(self):
        with pytest.raises(NonIntegralChiError):
            reduced_knot_chi(-3)
