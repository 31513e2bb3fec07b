"""Classical invariants computed from surgery-presentation data.

The Alexander polynomial of a null-homologous knot in a rational homology
sphere of order h is

    h * det(t^(1/2) V - t^(-1/2) V^T)

for a Seifert matrix V; it is symmetric under t -> t^(-1) and evaluates to
h at t = 1.  Everything else here is built from it: the second derivative
at 1 drives the Casson surgery ledger, and blow-down differences of it
give the Sato-Levine and Milnor-type invariants and the Lescop invariant.

Each public function validates its presentation once, then calls private
helpers that check nothing: surgery keeps the data valid, since adding the
symmetric E E^T to a Seifert matrix V leaves V - V^T unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .presentation import (
    InvalidSpecError,
    fraction_matrix,
    rank_one_update,
    skew_form_violation,
    validate,
)
from .ring import HalfLaurent, determinant


class InvariantError(Exception):
    pass


class InvalidPresentationError(InvariantError):
    """The presentation fails validation; .violations lists the reasons."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class WrongComponentCountError(InvariantError):
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

    steps: tuple  # of (seifert matrix, sign)

    def __post_init__(self):
        steps = []
        for entry in self.steps:
            v, sign = entry
            steps.append((fraction_matrix(v), sign))
        object.__setattr__(self, "steps", tuple(steps))


def _check_mode(mode):
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")


def _require_valid(p):
    violations = validate(p)
    if violations:
        raise InvalidPresentationError(violations)


def _require_exactly(p, count, name):
    _require_valid(p)
    if len(p.components) != count:
        raise WrongComponentCountError(
            f"{name} needs exactly {count} components, got {len(p.components)}"
        )


def knot_alexander(seifert, base_order=1):
    """h * det(t^(1/2) V - t^(-1/2) V^T) for a bare Seifert matrix."""
    seifert = fraction_matrix(seifert)
    n = len(seifert)
    det = determinant(
        [[HalfLaurent({1: seifert[i][j], -1: -seifert[j][i]}) for j in range(n)] for i in range(n)]
    )
    if type(det) is int:  # the 0x0 matrix has no entries to take the type of
        det = HalfLaurent({0: det})
    return det * base_order


def _delta2(seifert, h):
    return knot_alexander(seifert, h).second_derivative_at_one()


def alexander(p, comp):
    """Alexander polynomial of the named component inside the base manifold.

    Only the component's own Seifert matrix and the homology order enter;
    the other components are 0-framed and do not affect it.
    """
    _require_valid(p)
    return knot_alexander(p.component(comp).seifert, p.base_order)


def delta2(p, comp):
    """Second derivative of the Alexander polynomial at t = 1.

    Half of this value is the knot's surgery weight in the Casson ledger
    (the framing-change term of the Lescop surgery formula).
    """
    _require_valid(p)
    return _delta2(p.component(comp).seifert, p.base_order)


def casson(chain):
    """Casson invariant of the integral homology sphere a chain presents.

    lambda(S^3) = 0, and surgery with sign sigma on a knot with Seifert
    matrix V adds sigma * Delta''(1) / 2, so (-1)-surgery subtracts half
    the second derivative.

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
        msg = skew_form_violation(v)
        if msg is not None:
            raise InvalidSpecError(f"step {i}: {msg}")
        total += sign * _delta2(v, 1) / 2
    return total


def _jump(seifert, e, h):
    """Jump of Delta''(1) under (-1)-surgery on a curve linked by e: 2 s Delta(1)."""
    return _delta2(rank_one_update(seifert, e, -1), h) - _delta2(seifert, h)


def _normalized(jump, h):
    """A Delta''(1) jump read in each normalization mode (see sato_levine)."""
    return {DERIVED: jump / (2 * h), PAPER_LITERAL: jump / 2}


def _sato_levine(p):
    c1, c2 = p.components
    return _normalized(_jump(c1.seifert, c1.linking[c2.name], p.base_order), p.base_order)


def _mu_squared(p):
    c1, c2, c3 = p.components
    v, e2, e3 = c1.seifert, c1.linking[c2.name], c1.linking[c3.name]
    h = p.base_order
    return _normalized(_jump(rank_one_update(v, e3, -1), e2, h) - _jump(v, e2, h), h)


def sato_levine(p, mode=DERIVED):
    """Sato-Levine invariant of a two-component presentation.

    Computed from the jump of Delta''(1) of the first component under
    (-1)-surgery on the second: the jump equals 2 s Delta(1).  In the
    default 'derived' mode the jump is divided by 2 Delta(1) = 2h; in
    'paper-literal' mode by 2, which reads the case formulas with the
    Alexander normalization dropped.  The modes coincide when h = 1;
    sato_levine_modes() gives both values.
    """
    _check_mode(mode)
    _require_exactly(p, 2, "sato_levine")
    return _sato_levine(p)[mode]


def sato_levine_modes(p):
    """mode -> sato_levine(p, mode) for every mode, from one Delta''(1) jump."""
    _require_exactly(p, 2, "sato_levine")
    return _sato_levine(p)


def milnor_mu_squared(p, mode=DERIVED):
    """Square of the triple linking number of a three-component presentation.

    Equal to the jump of the Sato-Levine invariant of the first two
    components under (-1)-surgery on the third.  Only the square is
    recoverable from this data; the sign of mu is not.  For geometric data
    the result is a perfect square, which is reported, not enforced.
    """
    _check_mode(mode)
    _require_exactly(p, 3, "milnor_mu_squared")
    return _mu_squared(p)[mode]


def lescop(p):
    """Lescop invariant of the presented manifold, by first Betti number.

    b1 = 1: Delta''(1)/2 - h/12;  b1 = 2: -h * s;  b1 = 3: h * mu^2;
    b1 >= 4: 0.  Here h = base_order is the torsion order of the presented
    manifold.  b1 = 0 (no components) is out of scope; use casson() for
    integral homology spheres.
    """
    _require_valid(p)
    if not p.components:
        raise WrongComponentCountError(
            "lescop needs at least one component; for integral homology "
            "spheres use casson()"
        )
    return _lescop(p)


def _lescop(p):
    n = len(p.components)
    h = p.base_order
    if n == 1:
        return _delta2(p.components[0].seifert, h) / 2 - Fraction(h, 12)
    if n == 2:
        return -h * _sato_levine(p)[DERIVED]
    if n == 3:
        return h * _mu_squared(p)[DERIVED]
    return Fraction(0)
