"""Euler characteristic of instanton Floer homology, two ways.

The closed-form route applies the case formulas by first Betti number:

    b1 = 1:  chi = -Delta''(1)
    b1 = 2:  chi = -2 h s        (h = torsion order, s = Sato-Levine)
    b1 = 3:  chi = -2 h mu^2
    b1 >= 4: chi = 0

that is -x for b1 = 1 and -2 h x otherwise, where x is the quantity
invariants._case picks for lescop too: Delta''(1) from the jet formula,
s = x^T V x or mu^2 for mu = E3^T x and x = S^-1 E2, the int bilinear
forms of invariants, or 0.

The triangle route never looks at those formulas.  Applying the surgery
exact triangle

    chi(p) = chi(blow_down(p, last, -1)) - chi(drop_component(p, last))

until one component is left gives 2^k leaves, one for each subset J of
the k other components, with

    chi = sum over J of (-1)^(k - |J|) * -Delta''_J(1),

where Delta''_J(1) is the jet of the first component after blowing down
the components in J.  The route carries only what the leaves read, the
first component's Seifert matrix and its linking vectors E, as the ints
dV and cE of the integral form that the component keeps (see
presentation.integral_form, the one place that scales rational data):
blowing down adds (cE)(cE)^T to dV, dropping changes nothing, and
neither changes S = V - V^T, so every leaf reads the one S^-1 that
validation computed.  The leaves are visited in Gray-code
order: consecutive leaves differ by one vector, blown down (sigma = +1)
or restored (sigma = -1), and the sign alternates.  That step adds
2 sigma (cE)(cE)^T to dB = dV + dV^T, and since S^-1 is skew,
(cE)^T S^-1 (cE) = 0, so the trace in the jet changes by

    tr((S^-1 dB')^2) = tr((S^-1 dB)^2) - 4 sigma y^T dB y,   y = S^-1 (cE),

so the first leaf costs one O(g^3) trace and every other one O(g^2).
Each leaf's Delta''(1) is still formed on its own.  It is quadratic in
the indicator vector of J, which is why chi = 0 for b1 >= 4: the sum
over k >= 3 vectors is a k-th difference, and it kills every quadratic.
The route deliberately does not sum that quadratic in closed form, which
would make it the closed form again.  The two routes agreeing on every
input is the principal cross-check of this package.

Each route is one public function that checks its presentation and
bundle itself.  The presentation keeps its violations once validated, so
computing chi both ways validates it once.

chi does not depend on which admissible bundle is chosen; neither route
reads w2 beyond the admissibility check, and the bundle is echoed into
the report with an ambiguity flag.  The choice of bundle is pinned down
exactly when the torsion order is odd (no 2-torsion in homology); with
even torsion the choice is genuinely ambiguous, the value computed here
is the one conjectured to be shared by all admissible bundles, and the
report says so via ambiguity = "ext_ambiguous".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .invariants import (
    WrongComponentCountError,
    _case,
    _form,
    _jet_trace,
    _require_valid,
    casson,
)
from .ring import exact


class InadmissibleBundleError(Exception):
    """The w2 vector is zero, ill-typed, or has the wrong length."""


class NonIntegralChiError(Exception):
    """An Euler characteristic came out non-integral.

    chi is asserted integral on output; a fractional value signals
    corrupted input data and is never rounded.
    """


CLOSED_FORM = "closed_form"
TRIANGLE = "triangle"

UNIQUE = "unique"
EXT_AMBIGUOUS = "ext_ambiguous"


@dataclass(frozen=True)
class BundleSpec:
    """Evaluation of w2 of the adjoint bundle on the capped-surface classes,
    one bit per component.  Admissible means at least one bit is 1."""

    w2: tuple

    def __post_init__(self):
        object.__setattr__(self, "w2", tuple(self.w2))

    def is_admissible(self):
        return all(b in (0, 1) for b in self.w2) and any(self.w2)


@dataclass(frozen=True)
class ChiReport:
    chi: int
    route: str
    bundle: BundleSpec
    ambiguity: str


def _require_positive(name, value):
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def bundle_ambiguity(h):
    """Whether the admissible bundle over the presented manifold is unique.

    The ambiguity lives in Ext(H1(M), Z/2), which vanishes exactly when
    the torsion order h is odd.
    """
    _require_positive("h", h)
    return UNIQUE if h % 2 == 1 else EXT_AMBIGUOUS


def _check(p, bundle):
    """Check p and the bundle for either route; returns the checked bundle."""
    _require_valid(p)
    n = len(p.components)
    if n == 0:
        raise WrongComponentCountError(
            "chi needs at least one component; use taubes_chi for chains"
        )
    if bundle is None:
        bundle = BundleSpec(w2=(1,) * n)
    if len(bundle.w2) != n:
        raise InadmissibleBundleError(
            f"w2 has length {len(bundle.w2)}, expected {n}"
        )
    if not bundle.is_admissible():
        raise InadmissibleBundleError("w2 must contain at least one 1")
    return bundle


def _as_integer(x, route):
    x = Fraction(x)
    if x.denominator != 1:
        raise NonIntegralChiError(f"{route} produced non-integral chi = {x}")
    return int(x)


def _report(p, value, route, bundle):
    return ChiReport(
        chi=_as_integer(value, route),
        route=route,
        bundle=bundle,
        ambiguity=bundle_ambiguity(p.base_order),
    )


def chi_closed_form(p, bundle=None):
    """Euler characteristic via the case formulas: -x for b1 = 1 and
    -2 h x otherwise, for the quantity x that invariants._case picks.

    The b1 = 2 and b1 = 3 formulas are applied with the torsion factor h
    that the Delta''-difference computation actually produces (-2 h s and
    -2 h mu^2), so the value matches the triangle route for every torsion
    order, and the familiar -2 s / -2 mu^2 when h = 1.  The w2 vector is
    not read beyond the admissibility check: chi is bundle independent.
    """
    bundle = _check(p, bundle)
    b1, x = _case(p)
    value = -x if b1 == 1 else -2 * p.base_order * x
    return _report(p, value, CLOSED_FORM, bundle)


def _leaf_traces(dv, s_inv, vectors):
    """tr((S^-1 dB_J)^2) for every leaf J, dB_J = dB + 2 sum_J (cE)(cE)^T.

    Yields the 2^k ints in Gray-code order: the m-th is for the J whose
    indicator bits are those of m ^ (m >> 1).  Step m flips vector
    i = ctz(m), blowing it down (sigma = +1) or restoring it (sigma = -1).
    """
    n = len(dv)
    db = [[dv[i][j] + dv[j][i] for j in range(n)] for i in range(n)]
    trace = _jet_trace(s_inv, db)
    yield trace
    ys = [[sum(map(mul, row, e)) for row in s_inv] for e in vectors]
    outers = [[[2 * a * b for b in e] for a in e] for e in vectors]
    for m in range(1, 1 << len(vectors)):
        i = (m & -m).bit_length() - 1
        y = ys[i]
        op, sigma = (add, 1) if (m ^ (m >> 1)) >> i & 1 else (sub, -1)
        trace -= 4 * sigma * _form(y, db, y)
        db = [list(map(op, row, o)) for row, o in zip(db, outers[i])]
        yield trace


def chi_via_triangle(p, bundle=None):
    """Euler characteristic via the exact triangle, summed over its leaves.

    Leaf J, a subset of the k = n - 1 other components, contributes
    (-1)^(k - |J|) * -Delta''_J(1), with
    Delta''_J(1) = h (2g d^2 - t_J) / (4 d^2) for t_J from _leaf_traces;
    the signs alternate along the Gray-code walk, the int numerators are
    summed and divided once.  The result does not depend on the order of
    the components, which the test suite checks rather than assumes.
    """
    bundle = _check(p, bundle)
    first, *others = p.components
    d, dv, ce = first.integral_form
    vectors = [ce[c.name] for c in others]
    scaled_2g = len(dv) * d * d
    sign = (-1) ** len(vectors)
    total = 0
    for trace in _leaf_traces(dv, first.skew_form[0], vectors):
        total += sign * (scaled_2g - trace)
        sign = -sign
    return _report(p, Fraction(-p.base_order * total, 4 * d * d), TRIANGLE, bundle)


def taubes_chi(chain):
    """chi of an integral homology sphere: twice its Casson invariant."""
    return 2 * casson(chain)


def lescop_to_chi(lambda_l, b1, h):
    """Invert the Lescop invariant to an Euler characteristic.

    b1 = 1: chi = -2 lambda - h/6;  b1 >= 2: chi = 2 (-1)^b1 lambda / h.
    The result must be an integer; anything else means the inputs are
    inconsistent.
    """
    _require_positive("b1", b1)
    _require_positive("h", h)
    lambda_l = exact(lambda_l)
    if b1 == 1:
        value = -2 * lambda_l - Fraction(h, 6)
    else:
        value = Fraction(2 * (-1) ** b1) * lambda_l / h
    return _as_integer(value, "lescop_to_chi")


def chi_to_lescop(chi, b1, h):
    """Exact inverse of lescop_to_chi."""
    _require_positive("b1", b1)
    _require_positive("h", h)
    chi = exact(chi)
    if b1 == 1:
        return Fraction(-chi, 2) - Fraction(h, 12)
    return Fraction((-1) ** b1, 2) * h * chi


def reduced_knot_chi(chi):
    """Euler characteristic of the reduced singular instanton knot homology.

    For the closed manifold built from a knot complement and a punctured
    torus times a sphere, the Floer homology splits as two copies of the
    reduced knot homology, so its chi is half the total.
    """
    return _as_integer(Fraction(chi, 2), "reduced_knot_chi")
