"""Classical invariants computed from surgery-presentation data.

The Alexander polynomial of a null-homologous knot in a rational homology
sphere of order h is

    h * det(t^(1/2) V - t^(-1/2) V^T)

for a Seifert matrix V; it is symmetric under t -> t^(-1) and evaluates to
h at t = 1.  For a Seifert matrix of size n, knot_alexander and
alexander compute it from floor(n/2) + 1 integer determinants by exact
interpolation: transposing shows that the other half of its coefficients
repeat the first, up to the sign (-1)^n.  No elimination runs over the
half-Laurent ring.  The other invariants need only its second derivative
at 1 and how that jumps under blow-down, and read them off the jet of the
determinant at t = 1 instead.  With S = V - V^T (integral, det S = 1, so
S^-1 is an integer matrix) and B = V + V^T, expanding log det to second
order in u = log t^(1/2) gives

    Delta''(1) = h * (2g - tr((S^-1 B)^2)) / 4,

which drives the Casson surgery ledger and the b1 = 1 Lescop invariant.
Blowing down a curve linked by E adds E E^T to V and leaves S alone, so
with x = S^-1 E the jump of Delta''(1) is 2 h x^T V x: the Sato-Levine
number is s = x^T V x, and a third component linked by E3 gives
mu = E3^T x.

All of this runs on ints.  Each Component keeps its integral form from
presentation.integral_form, the one place that scales rational data: V
and the linking vectors become dV = c^2 V and cE for their common
denominator c, so d (V + E E^T) = dV + (cE)(cE)^T stays integral under
blow-down.  S^-1 comes from presentation.skew_form on that form, one
integer Gauss-Jordan per component that validation already ran and the
Component keeps.  The jet, s and mu are int products and bilinear forms,
divided by a power of d once at the end; alexander interpolates from
the kept form, casson scales each chain step once, and knot_alexander
each bare matrix it is given.

The first Betti number b1 of the presented manifold is the number of
components, and the case formulas of lescop and of floer.chi_closed_form
read one quantity per b1: Delta''(1) of the first component for b1 = 1,
s for b1 = 2, mu^2 for b1 = 3 and 0 for b1 >= 4.  _case picks it
once for both; each caller applies its own formula.  sato_levine and
milnor_mu_squared return the derived s and mu^2; normalized(x, h) gives
a value in both normalization modes, since the paper-literal reading is
h times the derived one.

Every public function checks its presentation by reading
p.violations, which validate fills on first use and the presentation
keeps; so one function can call another and the presentation is still
validated once.  Surgery keeps the data valid, since adding the symmetric
E E^T to a Seifert matrix V leaves V - V^T unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .presentation import InvalidSpecError, _valid_form, exact_matrix, integral_form
from .ring import HalfLaurent, determinant, exact, scaled_inverse


class InvalidPresentationError(Exception):
    """The presentation fails validation; .violations lists the reasons."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class WrongComponentCountError(Exception):
    pass


DERIVED = "derived"
PAPER_LITERAL = "paper-literal"
NORMALIZATION_MODES = (DERIVED, PAPER_LITERAL)


@dataclass(frozen=True)
class SurgeryChain:
    """A sequence of +-1 surgeries on knots, starting from S^3.

    Each step records the Seifert matrix of the surgery curve as a knot in
    the manifold reached so far; when the knots interact, the caller is
    responsible for supplying post-surgery matrices (compose with
    blow_down).
    """

    steps: tuple  # of (seifert matrix, sign), their numbers checked by ring.exact

    def __post_init__(self):
        steps = tuple((exact_matrix(v), exact(sign)) for v, sign in self.steps)
        object.__setattr__(self, "steps", steps)


def _require_valid(p):
    if p.violations:
        raise InvalidPresentationError(p.violations)


def _require_exactly(p, count, name):
    _require_valid(p)
    if len(p.components) != count:
        raise WrongComponentCountError(
            f"{name} needs exactly {count} components, got {len(p.components)}"
        )


def knot_alexander(seifert, base_order=1):
    """h * det(t^(1/2) V - t^(-1/2) V^T) for a bare Seifert matrix.

    Any square matrix is accepted, of odd size, singular or fractional.
    With (d, dV) the int form of V from presentation.integral_form and n
    the size of V,
    P(t) = det(t dV - dV^T) = d^n t^(n/2) det(t^(1/2) V - t^(-1/2) V^T)
    is an integer polynomial of degree <= n, and
    t^n P(1/t) = det(dV - t dV^T) = det((dV - t dV^T)^T) = (-1)^n P(t),
    so its coefficients satisfy c_(n-i) = (-1)^n c_i.  The floor(n/2) + 1
    free ones are solved exactly from integer determinants at as many
    integer nodes, and the coefficient of t^i becomes the term
    t^((2i - n)/2).  alexander runs the same interpolation on a
    component's kept int form.

    >>> print(knot_alexander([[-1, 1], [0, -1]]))
    t - 1 + t^-1
    """
    d, dv, _ = integral_form(exact_matrix(seifert))
    return _alexander(d, dv, base_order)


@lru_cache(maxsize=64)
def _symmetric_solve(n):
    """(nodes, D, R) that recover c_0 .. c_m, m = n // 2, of a degree-n
    polynomial with c_(n-i) = (-1)^n c_i from its values at the nodes.

    Such a polynomial is sum c_i b_i with b_i = t^i + (-1)^n t^(n-i) for
    i < n/2 and b_(n/2) = t^(n/2).  R = D A^-1 for A[j][i] = b_i(x_j) and
    D = +-det A, from ring.scaled_inverse; so c = R v / D for the values
    v, exactly, since c is integral.  The nodes 0, -1, 2, -2, 3, ... make
    A invertible: x = 0 gives c_0, and x + 1/x is distinct on the others.
    t = 1 is avoided, where every b_i vanishes when n is odd.
    """
    m = n // 2
    nodes = (0, -1, *(s * k for k in range(2, m + 2) for s in (1, -1)))[: m + 1]
    sign = (-1) ** n
    a = [[x**i + sign * x**(n - i) if 2 * i < n else x**i for i in range(m + 1)]
         for x in nodes]
    d, r = scaled_inverse(a)
    return nodes, d, tuple(map(tuple, r))


def _alexander(d, dv, h):
    """h * det(t^(1/2) V - t^(-1/2) V^T) from the int form (d, dV) of V,
    by the interpolation knot_alexander describes."""
    n = len(dv)
    nodes, det_a, solve = _symmetric_solve(n)
    dvt = tuple(zip(*dv))
    values = [
        determinant([[x * a - b for a, b in zip(row, col)] for row, col in zip(dv, dvt)])
        for x in nodes
    ]
    half = [sum(map(mul, row, values)) // det_a for row in solve]  # exact: the c_i are ints
    sign = (-1) ** n
    coeffs = half + [sign * c for c in reversed(half[: n - n // 2])]  # c_(n-i) = (-1)^n c_i
    scale = d**n
    return HalfLaurent({2 * i - n: Fraction(c * h, scale) for i, c in enumerate(coeffs)})


def _delta2_jet(d, dv, s_inv, h):
    """Delta''(1) = h (2g - tr((S^-1 B)^2)) / 4 for the int matrices dV and S^-1.

    The O(g^3) product runs on ints, with dB = dV + dV^T in place of B;
    d^2 is divided out once at the end.
    """
    n = len(dv)
    db = [[dv[i][j] + dv[j][i] for j in range(n)] for i in range(n)]
    return Fraction(h * (n * d * d - _jet_trace(s_inv, db)), 4 * d * d)


def _jet_trace(s_inv, db):
    """The int tr((S^-1 dB)^2), O(g^3), for a symmetric int matrix dB."""
    # db is symmetric, so its rows are its columns
    a = [[sum(map(mul, row, col)) for col in db] for row in s_inv]
    return sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*a)))


def _form(u, m, v):
    """The int bilinear form u^T M v."""
    return sum(map(mul, u, (sum(map(mul, row, v)) for row in m)))


def alexander(p, comp):
    """Alexander polynomial of the named component inside the base manifold.

    Only the component's own Seifert matrix and the homology order enter;
    the other components are 0-framed and do not affect it.
    """
    _require_valid(p)
    d, dv, _ = p.component(comp).integral_form
    return _alexander(d, dv, p.base_order)


def delta2(p, comp):
    """Second derivative of the Alexander polynomial at t = 1, by the jet formula.

    Half of this value is the knot's surgery weight in the Casson ledger
    (the framing-change term of the Lescop surgery formula).
    """
    _require_valid(p)
    c = p.component(comp)
    d, dv, _ = c.integral_form
    return _delta2_jet(d, dv, c.skew_form[0], p.base_order)


def casson(chain):
    """Casson invariant of the integral homology sphere a chain presents.

    lambda(S^3) = 0, and surgery with sign sigma on a knot with Seifert
    matrix V adds sigma * Delta''(1) / 2, so (-1)-surgery subtracts half
    the second derivative.  Every manifold of the chain is an integral
    homology sphere, so each V must be an integer matrix with
    det(V - V^T) = 1; any other step raises InvalidSpecError.

    Matrices are taken at face value; no attempt is made to re-derive them
    after earlier steps.  When a later surgery curve links an earlier one,
    compute its post-surgery matrix first, e.g. for a curve k with linking
    vector E against an earlier (-1)-framed component, feed this chain the
    updated matrix from blow_down (V_k + E E^T) rather than V_k:

    >>> from lescop.presentation import TREFOIL
    >>> casson(SurgeryChain(((TREFOIL, -1), (TREFOIL, -1))))
    Fraction(-2, 1)
    """
    if not isinstance(chain, SurgeryChain):
        chain = SurgeryChain(tuple(chain))
    total = Fraction(0)
    for i, (v, sign) in enumerate(chain.steps):
        if sign not in (-1, 1):
            raise InvalidSpecError(f"step {i}: surgery sign must be +1 or -1, got {sign}")
        d, dv, s_inv = _valid_form(v, f"step {i}")
        if d != 1:
            raise InvalidSpecError(
                f"step {i}: non-integer entries require base_order > 1, "
                "and a chain starts from S^3"
            )
        total += sign * _delta2_jet(d, dv, s_inv, 1) / 2
    return total


def normalized(x, h):
    """A derived Sato-Levine-type number x read in each normalization mode.

    The jump of Delta''(1) under blow-down is 2 x Delta(1) = 2 x h.
    Dividing it by 2h (DERIVED, what sato_levine and milnor_mu_squared
    return) gives x; dividing it by 2 (PAPER_LITERAL) gives h x, which
    reads the case formulas with the Alexander normalization dropped.
    The modes coincide when h = 1.

    >>> normalized(Fraction(1, 2), 3)
    {'derived': Fraction(1, 2), 'paper-literal': Fraction(3, 2)}
    """
    return {DERIVED: x, PAPER_LITERAL: h * x}


def _case(p):
    """(b1, x) for the quantity the b1 case formulas read: Delta''(1) of
    the first component for b1 = 1, s for b1 = 2, mu^2 for b1 = 3 and 0
    for b1 >= 4.  p is valid and has at least one component."""
    b1 = len(p.components)
    first = p.components[0]
    d, dv, ce = first.integral_form
    s_inv = first.skew_form[0]
    if b1 == 1:
        return b1, _delta2_jet(d, dv, s_inv, p.base_order)
    if b1 == 2:
        x = [sum(map(mul, row, ce[p.components[1].name])) for row in s_inv]  # c S^-1 E
        return b1, Fraction(_form(x, dv, x), d * d)
    if b1 == 3:
        mu = Fraction(_form(ce[p.components[2].name], s_inv, ce[p.components[1].name]), d)
        return b1, mu * mu
    return b1, Fraction(0)


def sato_levine(p):
    """Sato-Levine invariant s of a two-component presentation.

    Computed as s = x^T V x with x = S^-1 E (see the module docstring).
    The jump of Delta''(1) of the first component under (-1)-surgery on
    the second is 2 s Delta(1) = 2 s h, so s is that jump divided by 2h;
    normalized(s, h) also gives the paper-literal reading h s.
    """
    _require_exactly(p, 2, "sato_levine")
    return _case(p)[1]


def milnor_mu_squared(p):
    """Square of the triple linking number of a three-component presentation.

    Equal to the jump of the Sato-Levine invariant of the first two
    components under (-1)-surgery on the third, which is mu^2 for
    mu = E3^T S^-1 E2 (see the module docstring).  That bilinear form
    carries the sign of mu, but only mu^2 is reported until the
    orientation convention that fixes the sign is pinned down.  mu is an
    integer when the linking vectors are.  normalized(mu^2, h) also
    gives h mu^2, as for sato_levine.
    """
    _require_exactly(p, 3, "milnor_mu_squared")
    return _case(p)[1]


def lescop(p):
    """Lescop invariant of the presented manifold, by first Betti number.

    With x from _case: b1 = 1: x/2 - h/12 for x = Delta''(1);
    b1 >= 2: (-1)^(b1+1) h x, that is -h s for b1 = 2, h mu^2 for
    b1 = 3 and 0 for b1 >= 4.  Here h = base_order is the torsion order
    of the presented manifold.  b1 = 0 (no components) is out of scope;
    use casson() for integral homology spheres.
    """
    _require_valid(p)
    if not p.components:
        raise WrongComponentCountError(
            "lescop needs at least one component; for integral homology "
            "spheres use casson()"
        )
    b1, x = _case(p)
    h = p.base_order
    if b1 == 1:
        return x / 2 - Fraction(h, 12)
    return (-1) ** (b1 + 1) * h * x
