from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lescop.ring import (
    ONE,
    T,
    Z,
    ZERO,
    HalfLaurent,
    NonSquareError,
    determinant,
    divides_z_power,
    inverse,
    z_power,
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
    """Naive first-row cofactor expansion; the independent determinant oracle."""
    if not rows:
        return 1
    total = 0
    for j, x in enumerate(rows[0]):
        term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


def mat_mul(a, b, zero=ZERO):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_ring_matrix(rng, n, max_terms=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {
                rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, max_terms))
            }
            row.append(HalfLaurent(terms))
        rows.append(row)
    return rows


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
        with pytest.raises(TypeError):
            HalfLaurent({0: 0.5})
        with pytest.raises(TypeError):
            determinant([[0.5]])
        with pytest.raises(TypeError):
            determinant([[Fraction(1, 2)]])

    def test_canonical_form_drops_zeros(self):
        assert HalfLaurent({3: 0, 0: 2}) == HalfLaurent({0: 2})
        assert (Z - Z) == ZERO
        assert not (Z - Z)

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
        assert divides_z_power(z_power(3) * (T + 3), 3)

    def test_trefoil_not_divisible(self):
        # eval at 1 is nonzero while z(1) = 0, so z cannot divide
        assert not divides_z_power(TREFOIL_POLY, 1)

    def test_zero_always_divisible(self):
        for k in range(5):
            assert divides_z_power(ZERO, k)
            assert z_power_quotient(ZERO, k) == ZERO

    def test_k_zero(self):
        assert z_power_quotient(TREFOIL_POLY, 0) == TREFOIL_POLY

    def test_floordiv_is_exact_or_raises(self):
        assert (Z * T) // Z == T
        assert Z // 1 == Z
        with pytest.raises(ArithmeticError):
            T // Z

    @given(polys, st.integers(0, 4))
    @settings(max_examples=60)
    def test_quotient_reconstructs(self, q, k):
        p = z_power(k) * q
        got = z_power_quotient(p, k)
        assert got is not None
        assert z_power(k) * got == p

    @given(polys, st.integers(1, 3))
    @settings(max_examples=60)
    def test_divides_implies_exact_quotient(self, p, k):
        quotient = z_power_quotient(p, k)
        if quotient is not None:
            assert z_power(k) * quotient == p


class TestDeterminant:
    def test_empty_matrix(self):
        assert determinant([]) == 1

    def test_identity(self):
        for n in range(1, 5):
            assert determinant([[int(i == j) for j in range(n)] for i in range(n)]) == 1
            identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            assert determinant(identity) == ONE

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            determinant([[ONE, ZERO]])
        with pytest.raises(NonSquareError):
            determinant([[1, 2], [3]])

    def test_two_by_two_oracle(self):
        # hand expansion: det = z*(-z) - t^(1/2)*(-t^(-1/2)) = 1 - z^2
        m = [[Z, HalfLaurent({1: 1})], [HalfLaurent({-1: -1}), -Z]]
        assert determinant(m) == ONE - Z * Z
        assert determinant(m) == HalfLaurent({2: -1, 0: 3, -2: -1})
        assert determinant(m) == cofactor_det(m)

    def test_trefoil_symmetrized(self):
        # t^(1/2) V - t^(-1/2) V^T for V = [[-1, 1], [0, -1]]
        m = [[-Z, HalfLaurent({1: 1})], [HalfLaurent({-1: -1}), -Z]]
        assert determinant(m) == TREFOIL_POLY

    def test_zero_column(self):
        assert determinant([[ZERO, ONE], [ZERO, T]]) == ZERO
        assert isinstance(determinant([[ZERO, ONE], [ZERO, T]]), HalfLaurent)

    def test_needs_pivoting(self):
        assert determinant([[ZERO, ONE], [ONE, ZERO]]) == -ONE
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_matches_cofactor_oracle(self):
        rng = seeded(11)
        for _ in range(60):
            n = rng.randint(0, 4)
            m = random_ring_matrix(rng, n)
            assert determinant(m) == cofactor_det(m)

    def test_integer_matrices_match_cofactor_oracle(self):
        """Every matrix is also checked with a zero leading pivot and made singular."""
        rng = seeded(13)
        swaps = singular = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
            variants = [m, [[0] + m[0][1:]] + m[1:]]
            if n > 1:
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
            n = rng.randint(1, 3)
            a = random_ring_matrix(rng, n)
            b = random_ring_matrix(rng, n)
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
        cases.append(mat_mul(mat_mul([list(r) for r in zip(*u)], s, 0), u, 0))
    return cases


class TestInverse:
    def test_products_are_the_identity(self):
        """Every skew form, and many others, has a zero leading entry, so the
        elimination must swap rows."""
        swaps = 0
        for m in unimodular_cases(seeded(14)):
            inv = inverse(m)
            assert all(type(x) is int for r in inv for x in r)
            assert mat_mul(m, inv, 0) == identity(len(m)) == mat_mul(inv, m, 0), m
            swaps += m[0][0] == 0
        assert swaps > 20

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m in unimodular_cases(seeded(15)):
            assert inverse(m) == sympy.Matrix(m).inv().tolist(), m

    def test_empty_matrix(self):
        assert inverse([]) == []

    def test_only_unimodular_int_matrices(self):
        for m in ([[2, 1], [1, 2]], [[0, 0], [0, 1]], [[1, 2], [2, 4]], [[0]], [[3]]):
            with pytest.raises(ArithmeticError):
                inverse(m)
        with pytest.raises(NonSquareError):
            inverse([[1, 0]])
        for entry in (Fraction(1), ONE, 1.0, True):
            with pytest.raises(TypeError):
                inverse([[entry]])
