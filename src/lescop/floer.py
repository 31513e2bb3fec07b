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

and flipping cE_i adds 2 sigma (cE_i . y_j)^2 to y_j^T dB y_j,
y_j = S^-1 (cE_j), for each j.  So the trace of leaf J is quadratic in
the indicator vector of J, which is why chi = 0 for b1 >= 4: the sum
over k >= 3 vectors is a k-th difference, and it kills every quadratic.
The walk starts from the first leaf's trace, tr((S^-1 dB)^2) with every
vector dropped, which is the component's kept jet trace (see
presentation.Component, which takes that trace once for
invariants.delta2, the closed form and this route alike).  It takes k
O(g^2) forms, carrying the factors once as 4 y^T dB y = 8 y^T dV y and
8 (cE_i . y_j)^2, then yields the leaves in Gray-ordered blocks of 2^b,
b = min(k, 10).  Each of the first b vectors has one list of its cross
terms with the vectors j before it, built by reflected doubling, and
only those cross terms are formed for it; each of the other k - b has
its cross terms with all k.  Each block is one reflected doubling from
the current trace, subtracting a vector's form and adding its cross
term; and between blocks the walk steps one of the other k - b vectors
in k int additions.  A leaf thus costs about three int additions (its
form and its cross term in the doubling, and the signed sum in the
caller), a block k more, and no list the route holds has more than 2^10
ints, whatever k is (each of them has about twice the digits of d).
The caller sums each block's traces themselves, not their numerators
2g d^2 - t_J, whose constant cancels in a block of even length, and it
drops each block before the next is built.  A walk of one block
builds each cross list for its doubling alone, so at its peak the route
holds about one and a half blocks' worth of ints: the block being
doubled and the cross list of that doubling.  A longer walk keeps the
cross lists for every block, about one block in all, so at its peak it
holds about two: the cross lists and the block being built.  Each
leaf's trace is still formed on its own: the route deliberately does
not sum the quadratic in closed form, which would make it the closed
form again.
It does use the triangle's own cancellation: when some vector cE is
zero, blowing its component down changes nothing, the two terms of its
triangle are equal, and the route returns 0 without a walk, so a split
link costs nothing however many components it has.
The two routes agreeing on every input is the principal cross-check of
this package.  cross_checks runs it, with the checks of the Alexander
polynomials, the z^3 structure and the Lescop invariant that the verify
command reports.

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

from fractions import Fraction
from operator import add, mul, sub

from . import invariants
from .invariants import (
    WrongComponentCountError,
    _case,
    _form,
    _require_valid,
    casson,
)
from .ring import _Record, exact

# The triangle walk's leaves come in blocks of at most 2^_LOW, the bound on
# the length of every list it holds, whatever the number of components.
_LOW = 10


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


class BundleSpec(_Record):
    """Evaluation of w2 of the adjoint bundle on the capped-surface classes,
    one bit per component.  Admissible means at least one bit is 1."""

    __match_args__ = ("w2",)

    def __init__(self, w2):
        vars(self)["w2"] = tuple(w2)

    def is_admissible(self):
        return all(b in (0, 1) for b in self.w2) and any(self.w2)


class ChiReport(_Record):
    __match_args__ = ("chi", "route", "bundle", "ambiguity")

    def __init__(self, chi, route, bundle, ambiguity):
        vars(self).update(chi=chi, route=route, bundle=bundle, ambiguity=ambiguity)


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
    if any(b not in (0, 1) for b in bundle.w2):
        raise InadmissibleBundleError(f"w2 must hold only 0/1 bits, got {bundle.w2}")
    if not any(bundle.w2):
        raise InadmissibleBundleError("w2 must contain at least one 1")
    return bundle


def _as_integer(x, route):
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


def _gray_sums(start, deltas):
    """start + sum of deltas[i] over i in L, for the 2^len(deltas) subsets L
    in Gray-code order: the m-th is for the L whose indicator bits are
    those of m ^ (m >> 1), built by reflected doubling."""
    t = [start]
    for s in deltas:
        t += [x + s for x in reversed(t)]
    return t


def _leaf_blocks(dv, s_inv, trace, vectors):
    """tr((S^-1 dB_J)^2) for every leaf J, dB_J = dB + 2 sum_J (cE)(cE)^T,
    in blocks of 2^b for the k vectors cE and b = min(k, _LOW), starting
    from trace = tr((S^-1 dB)^2), the leaf with every vector dropped.

    The blocks, concatenated, are the 2^k ints in Gray-code order: the
    m-th is for the J whose indicator bits are those of m ^ (m >> 1).
    Block h holds the leaves whose J has high part H (the vectors from b
    on) given by the bits of h ^ (h >> 1), and over the low part L

        t_J = t_H - sum_{i in L} forms[i] - sum_{j<i in L} steps[i][j],

    for forms[i] = 4 y_i^T dB_H y_i, y_i = S^-1 (cE_i), taken at the
    first leaf as 8 y_i^T dV y_i since dB = dV + dV^T, and
    steps[i][j] = 8 (cE_i . y_j)^2, the factors carried once.  The cross
    terms do not depend on H: cross[i] holds minus the sum of steps[i][j]
    over each subset of the vectors j < i, in Gray order, one list per
    low vector, and a low vector's steps[i][j] are formed for j < i
    alone, the k(k - 1)/2 of a one-block walk that its doublings read;
    the list steps holds the full rows of the high vectors.  Each block
    starts as [t_H] and doubles once per low vector i, and odd blocks
    are then reversed, where the reflected Gray code runs its low bits
    backwards (see _block).  A walk of one block (k <= _LOW) builds each
    cross list when its doubling needs it and drops it after; a longer
    walk keeps all b of them for every block.  Between blocks the walk steps one high vector i, blowing it
    down (sigma = +1) or restoring it (sigma = -1), which moves t_H by
    -sigma forms[i] and each forms[j] by sigma steps[i][j].
    """
    ys = [[sum(map(mul, row, e)) for row in s_inv] for e in vectors]
    forms = [8 * _form(y, dv, y) for y in ys]
    b = min(len(vectors), _LOW)
    steps = [[8 * sum(map(mul, e, y)) ** 2 for y in ys] for e in vectors[b:]]
    cross = (_gray_sums(0, [-8 * sum(map(mul, vectors[i], y)) ** 2 for y in ys[:i]])
             for i in range(b))
    if steps:
        cross = list(cross)
    for h in range(1 << (len(vectors) - b)):
        if h:
            j = (h & -h).bit_length() - 1
            op, sigma = (add, 1) if (h ^ (h >> 1)) >> j & 1 else (sub, -1)
            trace -= sigma * forms[b + j]
            forms = list(map(op, forms, steps[j]))
        yield _block(trace, forms, cross, h & 1)


def _block(trace, forms, cross, backwards):
    """The block [trace] doubled once per cross list c, appending its own
    reversal with the form f of c's vector subtracted and the reversed c
    added, then reversed if backwards.  Every list the call makes but the
    block dies with it: when cross is a generator, each cross list it
    builds is dropped by the next doubling or the return, and the walk
    holds no block while it builds the next."""
    block = [trace]
    for f, c in zip(forms, cross):
        block += [t - f + x for t, x in zip(reversed(block), reversed(c))]
    if backwards:
        block.reverse()
    return block


def _alternating_sum(block):
    return sum(block[::2]) - sum(block[1::2])


def chi_via_triangle(p, bundle=None):
    """Euler characteristic via the exact triangle, summed over its leaves.

    Leaf J, a subset of the k = n - 1 other components, contributes
    (-1)^(k - |J|) * -Delta''_J(1), with
    Delta''_J(1) = h (2g d^2 - t_J) / (4 d^2) for t_J from _leaf_blocks.
    The signs alternate along the Gray-code walk and every block has
    even length (or is the one leaf of k = 0), so each block starts on
    the sign (-1)^k and the constant 2g d^2 cancels within it: the
    traces t_J themselves are summed with alternating signs, in two
    slices of the block, and only the one leaf of k = 0 adds 2g d^2.
    map hands each block to that sum and drops it, so no block is held
    while the next is built, and the total is divided once.
    When some other component's vector cE is zero, the route walks no
    leaf: blowing that component down adds (cE)(cE)^T = 0 to dV, so the
    leaves J and J + {c} have one trace and opposite signs, and the sum
    is 0.  That is the triangle's own relation, chi(blow_down) =
    chi(drop), and reads no S^-1, form or trace.
    The result does not depend on the order of the components, which the
    test suite checks rather than assumes.
    """
    bundle = _check(p, bundle)
    first, *others = p.components
    d, dv, ce = first.integral_form
    vectors = [ce[c.name] for c in others]
    total = 0 if vectors else len(dv) * d * d  # only k = 0 keeps the 2g d^2 of its leaf
    if all(map(any, vectors)):  # a zero cE cancels leaves J and J + {c}
        blocks = _leaf_blocks(dv, first.skew_form[0], first.jet_trace, vectors)
        # map drops each block once its sum is taken, before the next is built
        total -= (-1) ** len(vectors) * sum(map(_alternating_sum, blocks))
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


def cross_checks(p, bundle=None):
    """Run every applicable cross-check on p; yields (name, status, detail).

    Validation comes first, and the presentation keeps its result, so the
    public functions the checks after it call do not validate again.  A
    non-integral chi fails route-agreement and ends the checks.

    Each component's Alexander checks read the int coefficients that it
    keeps, and alexander-symmetry compares them with their mirror.  On
    the packed and modular paths of invariants._coefficients, which
    compute the symmetry, every Alexander check can fail by itself: a
    wrong digit or residue breaks the mirror, the value at 1 or
    Delta''(1).  On the node path, which imposes the symmetry,
    alexander-symmetry also compares them with one more determinant
    (invariants._spare_node_agrees), and so fails only by that node;
    alexander-at-one, delta2-agreement and z3-structure can fail on
    every path.  z3-structure
    tests (t - 1)^3 | Q on ints (see invariants._z3_structure), with s
    from the case quantity that the presentation keeps for the closed
    form and lescop too.  The helpers are read as invariants attributes,
    so that rebinding one there reaches these checks.
    """
    n = len(p.components)
    h = p.base_order

    if p.violations:
        yield "validate", "fail", "; ".join(p.violations)
        return
    yield "validate", "pass", f"{n} components, base order {h}"

    for c in p.components:
        poly = invariants.alexander(p, c.name)
        coeffs = invariants._kept_coefficients(c)[0]
        sym = coeffs == coeffs[::-1] and invariants._spare_node_agrees(c)
        yield (
            f"alexander-symmetry[{c.name}]",
            "pass" if sym else "fail",
            str(poly),
        )
        at_one = poly.eval_at_one()
        yield (
            f"alexander-at-one[{c.name}]",
            "pass" if at_one == h else "fail",
            f"{at_one} (expected {h})",
        )
        jet, d2 = invariants.delta2(p, c.name), poly.second_derivative_at_one()
        detail = f"polynomial = {d2}, jet = {jet}"
        yield f"delta2-agreement[{c.name}]", "pass" if d2 == jet else "fail", detail

    if n == 2:
        c1, c2 = p.components
        s = invariants.sato_levine(p)
        before = invariants._kept_coefficients(c1)[0]
        ok = invariants._z3_structure(before, invariants._blown_down_coefficients(c1, c2.name), s)
        yield "z3-structure", "pass" if ok else "fail", f"s = {s}"

    if n >= 1:
        try:
            closed = chi_closed_form(p, bundle)
            triangle = chi_via_triangle(p, bundle)
        except NonIntegralChiError as e:
            yield "route-agreement", "fail", str(e)
            return
        agree = closed.chi == triangle.chi
        yield (
            "route-agreement",
            "pass" if agree else "fail",
            f"closed_form = {closed.chi}, triangle = {triangle.chi}",
        )

        if h == 1 or n not in (2, 3):
            lam = invariants.lescop(p)
            predicted = lescop_to_chi(lam, n, h)
            ok = predicted == closed.chi
            yield (
                "theorem1-consistency",
                "pass" if ok else "fail",
                f"lescop = {lam} predicts chi = {predicted}, closed form = {closed.chi}",
            )
        else:
            yield (
                "theorem1-consistency",
                "skip",
                "normalization of the case formulas is ambiguous for "
                f"b1 = {n} with torsion order {h} > 1",
            )

        if n <= 6:
            # chi never reads w2, so the closed-form value above holds for
            # every admissible bundle, each a nonzero 0/1 vector of length n.
            yield (
                "bundle-independence",
                "pass",
                f"{2**n - 1} admissible bundles, chi values {[closed.chi]}",
            )


def reduced_knot_chi(chi):
    """Euler characteristic of the reduced singular instanton knot homology.

    For the closed manifold built from a knot complement and a punctured
    torus times a sphere, the Floer homology splits as two copies of the
    reduced knot homology, so its chi is half the total.
    """
    return _as_integer(Fraction(chi, 2), "reduced_knot_chi")
