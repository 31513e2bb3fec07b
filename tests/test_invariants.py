from fractions import Fraction
from math import isqrt

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
    validate,
)
from lescop.presentation import exact_matrix, integral_form
from lescop.ring import ONE, Z, HalfLaurent, determinant, divides_z_power

from conftest import (
    bareiss_calls,
    dense_knot_document,
    knot_surgery,
    random_presentation,
    random_ribbon_spec,
    random_seifert,
    seeded,
    unimodular,
    with_fractional_symmetric_part,
)

# (_PACKED_BITS, _MODULAR_BITS_PER_ROW) that force each path of
# _coefficients; "modular" runs only on a form that _skew_permutation
# accepts, and every other matrix takes the nodes then
PATHS = {"packed": (10**9, 0), "modular": (-1, 10**9), "nodes": (-1, -1)}


def force(monkeypatch, path):
    packed, modular = PATHS[path]
    monkeypatch.setattr(invariants, "_PACKED_BITS", packed)
    monkeypatch.setattr(invariants, "_MODULAR_BITS_PER_ROW", modular)


def path_of(v):
    """The path _coefficients takes for the Seifert matrix v."""
    return invariants._coefficients(integral_form(exact_matrix(v))[1])[1]


def skew_permuted(rng, n, scale, bound=4):
    """A random n x n integer matrix V, n even, with V - V^T = scale Pi for
    a random skew signed permutation Pi: for scale 1, a Seifert matrix in
    a symplectic basis up to the order and signs of that basis."""
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v[i][j] = v[j][i] = rng.randint(-bound, bound)
    order = rng.sample(range(n), n)
    for i, j in zip(order[::2], order[1::2]):
        v[i][j] += rng.choice((-1, 1)) * scale
    return v


TREFOIL_POLY = HalfLaurent({2: 1, 0: -1, -2: 1})
FIG8_POLY = HalfLaurent({2: -1, 0: 3, -2: -1})


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


def eliminations(calls):
    """(number of rows, n, jordan) of each call that bareiss_calls recorded."""
    return [(len(rows), n, jordan) for rows, n, jordan in calls]


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

    def test_matches_sympy(self, monkeypatch):
        """Up to genus 8 against det(x V - V^T) in a symbol x, expanded by sympy:
        its coefficient of x^i is that of t^((2i - n)/2).  On each path, for
        a form in a random basis and one in a symplectic basis, each with a
        fractional symmetric part (d > 1) when h > 1; the modular path runs
        on the second."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = seeded(33)
        for g in range(1, 9):
            h = (1, 3, 4)[g % 3]
            symplectic = random_seifert(rng, g)
            if h > 1:
                symplectic = with_fractional_symmetric_part(rng, symplectic)
            for v in (jet_test_seifert(rng, g, fractional=h > 1), symplectic):
                n = 2 * g
                m = sympy.Matrix(n, n, lambda i, j: x * v[i][j] - v[j][i])
                coeffs = sympy.Poly(m.det(method="domain-ge"), x).all_coeffs()[::-1]
                expected = {2 * i - n: h * Fraction(int(c.p), int(c.q))
                            for i, c in enumerate(coeffs)}
                for path in PATHS:
                    force(monkeypatch, path)
                    assert knot_alexander(v, h) == HalfLaurent(expected), (path, g, h, v)
            force(monkeypatch, "modular")
            assert path_of(symplectic) == "modular"

    def test_matches_full_interpolation(self, monkeypatch):
        """Bare matrices of sizes 0 to 24, odd, singular and fractional ones
        included, against n + 1 nodes interpolated without the symmetry;
        h = 1 and 4 as well up to size 12.  On each path.  Of even size,
        also V with V - V^T = a Pi for a skew signed permutation Pi and
        a = 1 to 3, with a fractional symmetric part at times, which the
        modular path takes when forced."""
        rng = seeded(37)
        for n in range(25):
            for kind in ("integral", "fractional", "singular", "skew-permuted"):
                denominators = (1, 2, 3, 4) if kind == "fractional" else (1,)
                v = [[Fraction(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(n)]
                     for _ in range(n)]
                if kind == "singular" and n:
                    v[-1] = [3 * x for x in v[0]]
                if kind == "skew-permuted":
                    if n % 2 or not n:
                        continue
                    v = skew_permuted(rng, n, rng.randint(1, 3))
                    if rng.random() < 0.5:
                        v = with_fractional_symmetric_part(rng, v)
                    force(monkeypatch, "modular")
                    assert path_of(v) == "modular"
                for h in (1, 3, 4) if n <= 12 else (3,):
                    expected = full_interpolation(v, h)
                    for path in PATHS:
                        force(monkeypatch, path)
                        assert knot_alexander(v, h) == expected, (path, v, h)

    def test_digits_fit_the_bound(self):
        """Every coefficient c_i of det(t dV - dV^T) is a balanced digit
        below 2^(K - 1), for the K of _digit_bits: on random matrices of
        sizes 0 to 16 with entries up to 10^12, fractional and singular
        ones included, and on +-7^n (t - 1)^n from a diagonal dV of +-7,
        whose middle coefficient comes within a factor of about
        (15/14)^n sqrt(n) of the bound 15^n."""
        rng = seeded(39)
        cases = []
        for n in range(17):
            for bound in (1, 4, 10**3, 10**12):
                v = [[Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
                      for _ in range(n)] for _ in range(n)]
                cases.append(v)
            if n > 1:
                cases.append([*v[:-1], [3 * x for x in v[0]]])  # singular
            cases.append([[rng.choice((-1, 1)) * 7 * (i == j) for j in range(n)] for i in range(n)])
        for v in cases:
            d, dv, _ = integral_form(exact_matrix(v))
            k = invariants._digit_bits(dv, tuple(zip(*dv)))
            coeffs = [c * d ** len(dv) for c in full_interpolation(v, 1).terms.values()]
            assert max(map(abs, coeffs), default=0) < 2 ** (k - 1), v

    def test_half_the_determinants(self, monkeypatch):
        """On the packed path, one elimination of n x n int rows per
        polynomial and no solve, for bare matrices and for components
        alike; the node path takes floor(n/2) + 1 of them, then one
        Gauss-Jordan solve of floor(n/2) + 1 rows; the modular path, on
        a symplectic-basis form, none."""
        calls = bareiss_calls(monkeypatch)

        def nodes(n):
            m = n // 2 + 1
            return [(n, n, False)] * m + [(m, m, True)]

        rng = seeded(38)
        for n in range(11):
            v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for path, expected in (("packed", [(n, n, False)]), ("nodes", nodes(n))):
                force(monkeypatch, path)
                calls.clear()
                knot_alexander(v)
                assert eliminations(calls) == expected, (n, path)
        for g in range(5):
            v = random_seifert(rng, g)
            n = 2 * g
            for path, expected in (("packed", [(n, n, False)]), ("nodes", nodes(n)),
                                   ("modular", [] if g else nodes(0))):
                force(monkeypatch, path)
                calls.clear()
                p = knot_surgery(v)  # a fresh component: each keeps its coefficients
                alexander(p, "l1")
                alexander(p, "l1")
                assert eliminations(calls) == expected, (g, path)

    def test_long_entries_take_the_nodes(self, monkeypatch):
        """A 16 x 16 matrix of 100-digit entries, where one packed
        determinant is about 17x slower than the nodes, and a genus-6
        symplectic-basis form of entries up to 10^12, whose K of about 42
        bits per row is past _MODULAR_BITS_PER_ROW, take the nodes; the
        CI's genus-24 and genus-40 knots, above the packed cutoff, take
        the modular path."""
        calls = bareiss_calls(monkeypatch)
        rng = seeded(40)
        v = [[rng.randint(10**99, 10**100) * rng.choice((-1, 1)) for _ in range(16)]
             for _ in range(16)]
        assert knot_alexander(v) == full_interpolation(v, 1)
        assert eliminations(calls) == [(16, 16, False)] * 9 + [(9, 9, True)]
        calls.clear()
        v = random_seifert(rng, 6, bound=10**12)
        assert knot_alexander(v) == full_interpolation(v, 1)
        assert eliminations(calls) == [(12, 12, False)] * 7 + [(7, 7, True)]
        for g in (24, 40):
            _, dv, _ = parse(dense_knot_document(g)).presentation.components[0].integral_form
            dvt = tuple(zip(*dv))
            k = invariants._digit_bits(dv, dvt)
            assert 2 * g * k > invariants._PACKED_BITS
            assert k <= invariants._MODULAR_BITS_PER_ROW * 2 * g
            assert invariants._skew_permutation(dv, dvt)[0] == 1

    def test_the_moduli_are_prime(self):
        """Each entry of _PRIMES, in increasing order, is prime: a Mersenne
        number 2^q - 1 with q an odd prime by Lucas-Lehmer (prime exactly
        when s_(q-2) = 0 for s_0 = 4, s_(i+1) = s_i^2 - 2 mod 2^q - 1); a
        Proth number p = k 2^s + 1, k odd and k < 2^s, by Proth's theorem
        (prime when a^((p-1)/2) = -1 mod p for some a); and each of the
        FIPS 186-4 primes by sympy.isprime."""
        primes = invariants._PRIMES
        assert list(primes) == sorted(set(primes))
        mersenne = [p for p in primes if not (p + 1) & p]
        assert [p.bit_length() for p in mersenne] == [31, 61, 89, 107, 127, 521, 607, 1279, 2203]
        for p in mersenne:
            q = p.bit_length()
            assert all(q % f for f in range(2, isqrt(q) + 1)), q
            s = 4
            for _ in range(q - 2):
                s = (s * s - 2) % p
            assert s == 0, q
        # p - 1 = k 2^s with k odd; Proth's form needs k < 2^s
        proth = [p for p in primes if ((p - 1) & (1 - p)) ** 2 > p - 1]
        assert [p.bit_length() for p in proth] == [672, 768, 896, 1024, 1152]
        for p in proth:
            assert any(pow(a, p >> 1, p) == p - 1 for a in range(2, 100)), p
        sympy = pytest.importorskip("sympy")
        fips = [p for p in primes if p not in mersenne + proth]
        assert [p.bit_length() for p in fips] == [192, 224, 256, 384]
        assert all(sympy.isprime(p) for p in fips)

    def test_a_smaller_modulus_is_caught(self, monkeypatch):
        """The default path of a seeded genus-4 form, random_seifert plus
        2^18 I, is the modular one, with K = 153 and so p = P-192; its
        largest coefficient has 151 bits, so the next smaller entry of
        _PRIMES, 2^127 - 1, is too small to lift it, and a mutant of
        _modulus that takes that entry gives a wrong polynomial."""
        rng = seeded(41)
        v = [[x + 2**18 * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(random_seifert(rng, 4))]
        expected = full_interpolation(v, 1)
        assert path_of(v) == "modular" and knot_alexander(v) == expected
        dv = integral_form(exact_matrix(v))[1]
        assert invariants._digit_bits(dv, tuple(zip(*dv))) == 153
        primes, modulus = invariants._PRIMES, invariants._modulus
        smaller = primes[primes.index(modulus(153)) - 1]
        assert 2 * max(map(abs, expected.terms.values())) > smaller == 2**127 - 1
        monkeypatch.setattr(invariants, "_modulus",
                            lambda k: primes[primes.index(modulus(k)) - 1])
        assert knot_alexander(v) != expected

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


class TestZ3Structure:
    """invariants._z3_structure, the (t - 1)^3 test on int coefficients
    that z3-structure runs, against the HalfLaurent residue
    after - (1 + s z^2) before that it formed before, with after
    interpolated from the blown-down rational Seifert matrix V + E E^T."""

    @staticmethod
    def presentations(count=320):
        """Two-component presentations, h in 1..4, the first component of
        genus 0 to 6: integral, or, when h > 1, with a fractional symmetric
        part and fractional linking vectors, so that d > 1."""
        rng = seeded(3030)
        for k in range(count):
            h = rng.choice((1, 2, 3, 4))
            g = k % 7
            v = random_seifert(rng, g)
            denominators = (1,)
            if h > 1 and k % 2:
                v = with_fractional_symmetric_part(rng, v)
                denominators = (1, 2, 3, 7)
            e = tuple(Fraction(rng.randint(-3, 3), rng.choice(denominators)) for _ in range(2 * g))
            g2 = rng.randint(0, 2)
            yield SurgeryPresentation(h, (
                Component("l1", v, {"l2": e}),
                Component("l2", random_seifert(rng, g2),
                          {"l1": tuple(Fraction(rng.randint(-3, 3)) for _ in range(2 * g2))}),
            ))

    def test_matches_the_half_laurent_residue(self):
        fractional = 0
        for p in self.presentations():
            assert validate(p) == [], p
            h, first = p.base_order, p.components[0]
            d = first.integral_form[0]
            fractional += d > 1
            v, e = first.seifert, first.linking["l2"]
            before = knot_alexander(v, h)
            after = knot_alexander(rank_one_update(v, e, -1), h)
            s = sato_levine(p)

            def former(after=after, s=s):
                return divides_z_power(after - (ONE + s * Z * Z) * before, 3)

            p0 = invariants._kept_coefficients(first)[0]
            p1 = invariants._blown_down_coefficients(first, "l2")
            assert len(p0) == len(p1) == len(v) + 1
            assert invariants._z3_structure(p0, p1, s) is former() is True, p
            # a polynomial B added to P', over two more (zero) coefficients
            # of each polynomial, and h t^(-n/2) B / d^n added to after:
            # (t - 1)^2 = t z^2, and two that fail exactly one of
            # Q(1) = 0, Q'(1) = 0 and Q''(1) = 0 (the other two hold)
            n = len(v)
            for bump in ((1, -2, 1), (-2, 3, -1), (3, -3, 1)):
                bumped = [*p1, 0, 0]
                for i, x in enumerate(bump):
                    bumped[i] += x
                assert not invariants._z3_structure([*p0, 0, 0], bumped, s), (p, bump)
                extra = HalfLaurent({2 * i - n: Fraction(h * x, d**n)
                                     for i, x in enumerate(bump)})
                assert not former(after=after + extra), (p, bump)
            for wrong in (s + 1, s + Fraction(1, d * d)):
                assert not invariants._z3_structure(p0, p1, wrong), (p, wrong)
                assert not former(s=wrong), (p, wrong)
        assert fractional >= 100


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

