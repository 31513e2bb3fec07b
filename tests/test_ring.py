from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lescop.invariants import knot_alexander
from lescop.presentation import skew_form
from lescop.ring import (
    ONE,
    T,
    Z,
    ZERO,
    HalfLaurent,
    NonSquareError,
    determinant,
    divides_z_power,
    exact,
    _scaled_inverse,
    z_power_quotient,
)

from conftest import random_seifert, seeded, unimodular

TREFOIL_POLY = HalfLaurent({2: 1, 0: -1, -2: 1})  # t - 1 + t^-1


coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
polys = st.dictionaries(st.integers(-6, 6), coefficients, max_size=6).map(HalfLaurent)


def cofactor_det(rows):
    """Naive first-row cofactor expansion; the independent determinant oracle.
    Zero entries add no term, which keeps sparse matrices of size 8 cheap."""
    if not rows:
        return 1
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + (term if j % 2 == 0 else -term)
    return total


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def symmetrized(v):
    """The HalfLaurent rows of t^(1/2) V - t^(-1/2) V^T."""
    n = len(v)
    return [[HalfLaurent({1: v[i][j], -1: -v[j][i]}) for j in range(n)] for i in range(n)]


class TestArithmetic:
    def test_z_squared(self):
        assert Z * Z == HalfLaurent({2: 1, 0: -2, -2: 1})

    def test_additive_identity(self):
        assert TREFOIL_POLY + ZERO == TREFOIL_POLY
        assert ZERO + Z == Z

    def test_multiplicative_identity(self):
        assert TREFOIL_POLY * ONE == TREFOIL_POLY

    def test_scalar_scale(self):
        assert TREFOIL_POLY * Fraction(1, 2) == HalfLaurent(
            {2: Fraction(1, 2), 0: Fraction(-1, 2), -2: Fraction(1, 2)}
        )
        assert 3 * Z == HalfLaurent({1: 3, -1: -3})
        assert TREFOIL_POLY * 0 == ZERO

    def test_half_exponents_add(self):
        assert HalfLaurent({1: 1}) * HalfLaurent({1: 1}) == T
        assert HalfLaurent({1: 1}) * HalfLaurent({-1: 1}) == ONE

    def test_floats_rejected(self):
        for inexact in (0.5, "1/2", Decimal("0.5"), 1.0):
            with pytest.raises(TypeError):
                exact(inexact)
            with pytest.raises(TypeError):
                HalfLaurent({0: inexact})
        assert [type(exact(x)) for x in (3, True, Fraction(4, 2), Fraction(1, 2))] == [
            int, int, int, Fraction]
        with pytest.raises(TypeError):
            determinant([[0.5]])
        with pytest.raises(TypeError):
            determinant([[Fraction(1, 2)]])
        with pytest.raises(TypeError):
            determinant([[Z, T], [ONE, Z]])

    def test_canonical_form_drops_zeros(self):
        assert HalfLaurent({3: 0, 0: 2}) == HalfLaurent({0: 2})
        assert (Z - Z) == ZERO
        assert not (Z - Z)

    def test_constant_hashes_as_its_number(self):
        for c in (0, 1, -3, Fraction(1, 2)):
            p = HalfLaurent({0: c})
            assert p == c and hash(p) == hash(c), c
            assert {p: "value"}.get(c) == "value", c
        assert len({ONE, 1}) == len({ZERO, 0}) == 1
        assert hash(HalfLaurent({0: 3})) == hash(3) and HalfLaurent({2: 3}) != 3

    def test_str(self):
        assert str(TREFOIL_POLY) == "t - 1 + t^-1"
        assert str(Z) == "t^1/2 - t^-1/2"
        assert str(ZERO) == "0"
        assert str(HalfLaurent({0: Fraction(-5, 3)})) == "-5/3"


class TestCalculus:
    def test_eval_at_one(self):
        assert TREFOIL_POLY.eval_at_one() == 1
        assert Z.eval_at_one() == 0
        assert ZERO.eval_at_one() == 0

    def test_derivative_of_z_at_one(self):
        assert Z.derivative().eval_at_one() == 1

    def test_derivative_of_constant(self):
        assert HalfLaurent({0: 7}).derivative() == ZERO

    def test_derivative_termwise(self):
        # d/dt (t - 1 + t^-1) = 1 - t^-2
        assert TREFOIL_POLY.derivative() == HalfLaurent({0: 1, -4: -1})

    def test_second_derivative_examples(self):
        assert TREFOIL_POLY.second_derivative_at_one() == 2
        assert (Z * Z).second_derivative_at_one() == 2
        assert HalfLaurent({0: 12}).second_derivative_at_one() == 0

    def test_second_derivative_matches_per_term_formula(self):
        """One sum of c k (k - 2) over 4 equals the per-term c (k/2) (k/2 - 1)."""
        rng = seeded(17)
        for _ in range(300):
            terms = {rng.randint(-12, 12): rng.choice((rng.randint(-9, 9), Fraction(
                rng.randint(-9, 9), rng.randint(1, 12)))) for _ in range(rng.randint(0, 8))}
            p = HalfLaurent(terms)
            expected = sum((c * Fraction(k, 2) * Fraction(k - 2, 2)
                            for k, c in p.terms.items()), Fraction(0))
            got = p.second_derivative_at_one()
            assert type(got) is Fraction and got == expected, terms

    @given(polys)
    def test_second_derivative_matches_double_derivative(self, p):
        assert p.second_derivative_at_one() == p.derivative().derivative().eval_at_one()


class TestInvolution:
    def test_symmetric_fixed(self):
        assert TREFOIL_POLY.involution() == TREFOIL_POLY

    def test_monomial(self):
        assert HalfLaurent({1: 1}).involution() == HalfLaurent({-1: 1})

    def test_zero(self):
        assert ZERO.involution() == ZERO

    @given(polys)
    def test_involutive(self, p):
        assert p.involution().involution() == p

    @given(polys, polys)
    def test_multiplicative(self, p, q):
        assert (p * q).involution() == p.involution() * q.involution()


class TestZDivision:
    def test_constructed_multiple(self):
        assert divides_z_power(Z**3 * (T + 3), 3)

    def test_trefoil_not_divisible(self):
        # eval at 1 is nonzero while z(1) = 0, so z cannot divide
        assert not divides_z_power(TREFOIL_POLY, 1)

    def test_zero_always_divisible(self):
        for k in range(5):
            assert divides_z_power(ZERO, k)
            assert z_power_quotient(ZERO, k) == ZERO

    def test_k_zero(self):
        assert z_power_quotient(TREFOIL_POLY, 0) == TREFOIL_POLY

    def test_quotient_is_exact_or_none(self):
        """z_power_quotient is the ring's only division; HalfLaurent has no //."""
        assert z_power_quotient(Z * T, 1) == T
        assert z_power_quotient(T, 1) is None
        with pytest.raises(TypeError):
            Z // Z

    @given(polys, st.integers(0, 4))
    @settings(max_examples=60)
    def test_quotient_reconstructs(self, q, k):
        p = Z**k * q
        got = z_power_quotient(p, k)
        assert got is not None
        assert Z**k * got == p

    @given(polys, st.integers(1, 3))
    @settings(max_examples=60)
    def test_divides_implies_exact_quotient(self, p, k):
        quotient = z_power_quotient(p, k)
        if quotient is not None:
            assert Z**k * quotient == p

    @given(polys, polys, st.integers(0, 4), st.integers(-8, 8), coefficients)
    @settings(max_examples=100)
    def test_moment_oracle(self, p, q, k, e, c):
        """z = (u - 1)(u + 1)/u for u = t^(1/2), so z^k divides p exactly when p
        vanishes to order k at u = 1 and at u = -1: for each exponent parity
        r, the sum of p_e * e^j over e = r mod 2 is 0 for every j < k."""
        near_miss = Z**k * q + HalfLaurent({e: c})
        for x in (p, near_miss):
            moments = [
                sum(a * n**j for n, a in x.terms.items() if n % 2 == r)
                for r in (0, 1)
                for j in range(k)
            ]
            assert divides_z_power(x, k) == (not any(moments))


def sparse_cases(rng, count):
    """Seeded sparse int matrices of sizes 1 to 8, mostly 0 with the other
    entries in +-1, +-2 and 3.  Their eliminations meet many rows with
    multiplier 0."""
    entries = (0,) * 7 + (1, -1, 2, -2, 3)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield [[rng.choice(entries) for _ in range(n)] for _ in range(n)]


class TestDeterminant:
    """ring.determinant on int rows, and the polynomial determinant
    det(t^(1/2) V - t^(-1/2) V^T) that knot_alexander interpolates from int
    determinants, against the cofactor expansion over HalfLaurent rows."""

    def test_empty_matrix(self):
        assert determinant([]) == 1

    def test_identity(self):
        for n in range(1, 5):
            assert determinant([[int(i == j) for j in range(n)] for i in range(n)]) == 1

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            determinant([[1, 0]])
        with pytest.raises(NonSquareError):
            determinant([[1, 2], [3]])

    def test_int_entries_only(self):
        for entry in (Fraction(1), ONE, 1.0, True):
            with pytest.raises(TypeError):
                determinant([[entry]])

    def test_two_by_two_oracle(self):
        assert determinant([[2, 3], [5, 7]]) == 2 * 7 - 3 * 5
        # hand expansion: det = z*(-z) - t^(1/2)*(-t^(-1/2)) = 1 - z^2
        v = [[1, 1], [0, -1]]
        m = [[Z, HalfLaurent({1: 1})], [HalfLaurent({-1: -1}), -Z]]
        assert symmetrized(v) == m
        assert knot_alexander(v) == ONE - Z * Z == cofactor_det(m)
        assert knot_alexander(v) == HalfLaurent({2: -1, 0: 3, -2: -1})

    def test_trefoil_symmetrized(self):
        v = [[-1, 1], [0, -1]]
        assert knot_alexander(v) == TREFOIL_POLY == cofactor_det(symmetrized(v))

    def test_zero_column(self):
        assert determinant([[0, 1], [0, 7]]) == 0
        assert type(determinant([[0, 1], [0, 7]])) is int
        # a zero row and column of V give a zero row and column of the ring matrix
        singular = knot_alexander([[0, 0], [0, 5]])
        assert isinstance(singular, HalfLaurent) and singular == ZERO

    def test_needs_pivoting(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        # every value det(t V - V^T) = det([[0, t], [-1, 0]]) has a zero leading entry
        assert knot_alexander([[0, 1], [0, 0]]) == ONE == cofactor_det(symmetrized([[0, 1], [0, 0]]))

    def test_matches_cofactor_oracle(self):
        """Bare matrices of sizes 0 to 6, odd ones included: integral, fractional,
        singular and zero, each with h in (1, 3, 4)."""
        rng = seeded(11)
        kinds = ("integral", "fractional", "singular", "zero")
        for n in range(7):
            for kind in kinds:
                for h in (1, 3, 4):
                    denominators = (1, 2, 3, 4) if kind == "fractional" else (1,)
                    v = [[Fraction(rng.randint(-4, 4), rng.choice(denominators))
                          for _ in range(n)] for _ in range(n)]
                    if kind == "singular" and n:
                        v[-1] = [2 * x for x in v[0]]
                    if kind == "zero":
                        v = [[0] * n for _ in range(n)]
                    got = knot_alexander(v, h)
                    assert isinstance(got, HalfLaurent)
                    assert got == h * cofactor_det(symmetrized(v)), (v, h)
                    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())

    def test_integer_matrices_match_cofactor_oracle(self):
        """Every matrix is also checked with a zero leading pivot and made singular."""
        rng = seeded(13)
        cases = []
        for _ in range(200):
            n = rng.randint(1, 5)
            cases.append([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                          for _ in range(n)])
        sparse = list(sparse_cases(seeded(17), 300))
        swaps = singular = 0
        for m in cases + sparse:
            variants = [m, [[0] + m[0][1:]] + m[1:]]
            if len(m) > 1:
                variants.append(m[:-1] + [list(m[0])])
            for rows in variants:
                expected = cofactor_det(rows)
                got = determinant(rows)
                assert type(got) is int and got == expected, rows
                swaps += rows[0][0] == 0 and expected != 0
                singular += expected == 0
        assert swaps > 20 and singular > 100

    def test_multiplicative(self):
        rng = seeded(12)
        for _ in range(40):
            n = rng.randint(1, 5)
            a, b = ([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)] for _ in range(2))
            assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular_cases(rng):
    """Random matrices of determinant +-1, with the skew forms V - V^T among them."""
    cases = []
    for _ in range(150):
        n = rng.randint(1, 10)
        cases.append(unimodular(rng, n, rng.randint(0, 3 * n)))
    for g in range(1, 6):
        v = random_seifert(rng, g)
        s = [[int(v[i][j] - v[j][i]) for j in range(2 * g)] for i in range(2 * g)]
        u = unimodular(rng, 2 * g, 4 * g)
        cases.append(mat_mul(mat_mul([list(r) for r in zip(*u)], s), u))
    return cases


def unit_inverse(m):
    """M^-1 for a matrix of determinant +-1: d M^-1 from _scaled_inverse, times d = +-1."""
    d, r = _scaled_inverse([list(row) for row in m])
    assert d in (1, -1), m
    return [[d * x for x in row] for row in r]


class TestInverse:
    def test_products_are_the_identity(self):
        """Every skew form, and many others, has a zero leading entry, so the
        elimination must swap rows."""
        swaps = 0
        for m in unimodular_cases(seeded(14)):
            inv = unit_inverse(m)
            assert all(type(x) is int for r in inv for x in r)
            assert mat_mul(m, inv) == identity(len(m)) == mat_mul(inv, m), m
            swaps += m[0][0] == 0
        assert swaps > 20

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in unimodular_cases(seeded(15)):
            assert unit_inverse(m) == sympy.Matrix(m).inv().tolist(), m

    def test_empty_matrix(self):
        assert _scaled_inverse([]) == (1, [])

    def test_scaled_inverse_of_any_nonsingular_matrix(self):
        """d M^-1 in ints with d = +-det M; d = 0 for a singular matrix.
        The sparse matrices of TestDeterminant are among them."""
        rng = seeded(16)
        cases = []
        for _ in range(200):
            n = rng.randint(1, 6)
            cases.append([[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
                          for _ in range(n)])
        singular = nonsingular = 0
        for m in cases + list(sparse_cases(seeded(17), 300)):
            det = determinant(m)
            d, r = _scaled_inverse([list(row) for row in m])
            assert d in (det, -det), m
            if not det:
                singular += 1
                continue
            nonsingular += 1
            scaled_identity = [[d * x for x in row] for row in identity(len(m))]
            assert mat_mul(m, r) == scaled_identity == mat_mul(r, m), m
        assert singular > 50 and nonsingular > 50

    def test_only_unimodular_int_matrices(self):
        """The scale d is a unit, so the inverse is integral, only for a
        unimodular matrix."""
        for m, det in (([[2, 1], [1, 2]], 3), ([[3]], 3), ([[4, 2], [1, 2]], 6)):
            assert _scaled_inverse([list(row) for row in m])[0] in (det, -det)
        for m in ([[0, 0], [0, 1]], [[1, 2], [2, 4]], [[0]]):
            assert _scaled_inverse([list(row) for row in m])[0] == 0


def symplectic(n):
    """The standard symplectic form J of even size n, one nonzero per row."""
    j = [[0] * n for _ in range(n)]
    for m in range(0, n, 2):
        j[m][m + 1], j[m + 1][m] = 1, -1
    return j


class TestSparseKernel:
    """The symplectic form J, one nonzero per row, by transposition and by ring._bareiss."""

    def test_skew_form_of_the_symplectic_form(self):
        """skew_form reads J^-1 = J^T off J; the kernel gives the same."""
        for n in range(2, 41, 2):
            j = symplectic(n)
            v = [[max(x, 0) for x in row] for row in j]  # V - V^T = J
            assert skew_form(1, v) == (tuple(tuple(-x for x in row) for row in j), None)
            assert unit_inverse(j) == [[-x for x in row] for row in j]
