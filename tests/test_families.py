"""Knot families whose invariants are known in closed form.

Every expected value here is a formula in the family's parameter, not a
number the package computed:

- torus knots T(2, 2k + 1), Seifert matrix V = -I with 1 on the
  superdiagonal (size 2k; TREFOIL at k = 1): the Alexander polynomial is
  the sum of (-1)^i t^(i - k) for i = 0 .. 2k and Delta''(1) = k(k + 1);
- twist knots, V_n = [[n, 1], [0, -1]] (TREFOIL at n = -1, FIGURE_EIGHT
  at n = 1): Delta = -n t + (2n + 1) - n t^-1 and Delta''(1) = -2n;
- connected sums of twist knots, block sums of their V: Delta multiplies
  and every Delta(1) = 1, so Delta''(1) adds.

For 0-surgery on a knot K (b1 = 1, h = 1) the Lescop invariant is
Delta''(1)/2 - 1/12 and chi is -Delta''(1); the Casson invariant of
(-1)-surgery on K is -Delta''(1)/2 (Rolfsen, Knots and Links, ch. 8;
Lickorish, An Introduction to Knot Theory, ch. 6 and 8; Akbulut and
McCarthy, Casson's Invariant for Oriented Homology 3-Spheres).

S^-1 of a torus knot has 26-50% of its entries nonzero, so its jet trace
sums many terms per row of S^-1; a sum of g twist knots has one nonzero
per row of S^-1.
"""

from fractions import Fraction

from lescop.floer import chi_closed_form, chi_via_triangle
from lescop.invariants import SurgeryChain, alexander, casson, delta2, lescop
from lescop.presentation import FIGURE_EIGHT, TREFOIL, Component, SurgeryPresentation
from lescop.ring import HalfLaurent

# T(2, 2k + 1) up to genus 40; alexander up to k = 13, where the packed
# determinant runs and the module stays within its time
TORUS_K = range(1, 41)
TORUS_ALEXANDER_K = range(1, 14)
TWIST_N = range(-3, 6)


def torus(k):
    """The Seifert matrix of T(2, 2k + 1)."""
    n = 2 * k
    return [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def twist(n):
    """The Seifert matrix of the n-twist knot."""
    return [[n, 1], [0, -1]]


def block_sum(matrices):
    """The block sum of square matrices: the Seifert matrix of the connected sum."""
    size = sum(map(len, matrices))
    rows = []
    offset = 0
    for m in matrices:
        for row in m:
            rows.append([0] * offset + list(row) + [0] * (size - offset - len(row)))
        offset += len(m)
    return rows


def check_knot(v, second):
    """delta2, lescop, both chi routes and casson of the knot v, whose
    Delta''(1) is second."""
    p = SurgeryPresentation(1, (Component("k", v, {}),))
    assert delta2(p, "k") == second
    assert lescop(p) == Fraction(second, 2) - Fraction(1, 12)
    assert chi_closed_form(p).chi == chi_via_triangle(p).chi == -second
    assert casson(SurgeryChain([(v, -1)])) == Fraction(-second, 2)
    return p


def test_the_small_knots_are_family_members():
    assert [list(r) for r in TREFOIL] == torus(1) == twist(-1)
    assert [list(r) for r in FIGURE_EIGHT] == twist(1)


def test_torus_knots():
    for k in TORUS_K:
        p = check_knot(torus(k), k * (k + 1))
        if k in TORUS_ALEXANDER_K:
            assert alexander(p, "k") == HalfLaurent({2 * (i - k): (-1) ** i for i in range(2 * k + 1)})


def test_twist_knots():
    for n in TWIST_N:
        p = check_knot(twist(n), -2 * n)
        assert alexander(p, "k") == HalfLaurent({2: -n, 0: 2 * n + 1, -2: -n})


def test_connected_sums_of_twist_knots():
    """The sums of twist knots n = -3 .. m for each m: Delta''(1) adds."""
    for m in TWIST_N:
        check_knot(block_sum([twist(n) for n in range(-3, m + 1)]),
                   sum(-2 * n for n in range(-3, m + 1)))
