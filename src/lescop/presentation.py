"""Surgery presentations of 3-manifolds as Seifert-matrix data.

A presented manifold is a rational homology sphere of known first-homology
order together with an ordered list of 0-framed, null-homologous link
components.  Pairwise linking numbers of components are fixed at zero by
the data model itself (algebraically split links); presentations with
nonzero pairwise linking are unrepresentable rather than validated away,
since every formula downstream assumes the splitting.

All types are immutable values and all operations are pure functions;
a Component's linking vectors sit behind a read-only mapping, so nothing
can change a value after it is built.  Seifert and linking entries are
exact rationals, checked once when a value is built by ring.exact
(through exact_vector and exact_matrix): an integral entry is stored as
an int, any other as a Fraction, and a float, string or Decimal raises
TypeError.  integral_form is the one function that turns the entries
into ints: it scales V and the linking vectors E by their common
denominator c to dV = c^2 V and cE, and every formula of the package
runs on those.
skew_form checks the Seifert-form invariant on (d, dV) and yields S^-1
for S = V - V^T from the same integer elimination.  A Component computes
its integral form and its skew form on first use and keeps both.
Likewise a SurgeryPresentation runs validate on first reading its
violations and keeps the result, so every invariant downstream can check
its input at no further cost and shares one scaling and one elimination
per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .ring import exact, scaled_inverse


class UnknownComponentError(KeyError):
    """A named component does not exist in the presentation."""

    def __str__(self):
        # KeyError's own str() is the repr of its argument
        return f"unknown component {self.args[0]!r}"


class InvalidSpecError(ValueError):
    """A builder specification violates its invariants."""


def exact_vector(values):
    """The values as a tuple of exact numbers (see ring.exact)."""
    return tuple(map(exact, values))


def exact_matrix(rows):
    """The rows of a square matrix as tuples of exact numbers (see ring.exact)."""
    rows = tuple(map(exact_vector, rows))
    if rows and any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def integral_form(seifert, linking=MappingProxyType({})):
    """(d, dV, {name: cE}) in ints, for c the common denominator of the
    entries of V and of the linking vectors E, and d = c^2.

    This is the one place where rational Seifert and linking data become
    ints; every formula downstream runs on its result.  d = c^2 so that
    d (V + E E^T) = dV + (cE)(cE)^T: blowing down stays integral.

    >>> from fractions import Fraction
    >>> half, third = Fraction(1, 2), Fraction(1, 3)
    >>> integral_form(exact_matrix([[half, 1], [0, half]]), {"k": (third, 0)})
    (36, ((18, 36), (0, 18)), mappingproxy({'k': (2, 0)}))
    """
    c = math.lcm(*(x.denominator for row in seifert for x in row),
                 *(x.denominator for e in linking.values() for x in e))
    d = c * c
    return (
        d,
        tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in seifert),
        MappingProxyType(
            {k: tuple(x.numerator * (c // x.denominator) for x in e) for k, e in linking.items()}
        ),
    )


def skew_form(d, dv):
    """S^-1 for S = V - V^T, or why the Seifert form is invalid, from the
    int form (d, dV) of V that integral_form gives.

    Returns (S^-1, None) or (None, message).  V must be of even size, S
    must be integer valued (d divides dV - dV^T), and det S must equal 1
    (it is the intersection form of the surface in a symplectic basis).
    One integer Gauss-Jordan (ring.scaled_inverse) gives d S^-1 with
    d = +-det S, and S is skew, so det S = Pf(S)^2 = |d|: S^-1 is d
    times the scaled inverse when |d| = 1, and otherwise |d| goes into
    the message, 0 when S is singular.  S^-1 is returned as int rows.
    """
    n = len(dv)
    if n % 2 != 0:
        return None, f"seifert matrix has odd size {n}"
    skew = [[dv[i][j] - dv[j][i] for j in range(n)] for i in range(n)]
    if any(x % d for r in skew for x in r):
        return None, "V - V^T has non-integer entries"
    skew = [[x // d for x in r] for r in skew]
    try:
        det, scaled = scaled_inverse(skew)
    except ArithmeticError:
        det = 0
    if det not in (1, -1):
        return None, f"det(V - V^T) = {abs(det)}, expected 1"
    return tuple(tuple(det * x for x in r) for r in scaled), None


def _valid_form(v, what):
    """(d, dV, S^-1) for an exact square matrix v, by integral_form and
    skew_form; an invalid Seifert form raises InvalidSpecError("what: why")."""
    d, dv, _ = integral_form(v)
    s_inv, msg = skew_form(d, dv)
    if msg is not None:
        raise InvalidSpecError(f"{what}: {msg}")
    return d, dv, s_inv


@dataclass(frozen=True)
class Component:
    """One 0-framed link component: its Seifert matrix and how the basis
    curves of its Seifert surface link the other components."""

    name: str
    seifert: tuple  # 2g x 2g matrix of exact numbers (see ring.exact)
    linking: MappingProxyType  # other component name -> length-2g vector of exact numbers

    def __post_init__(self):
        object.__setattr__(self, "seifert", exact_matrix(self.seifert))
        linking = {str(k): exact_vector(v) for k, v in dict(self.linking).items()}
        object.__setattr__(self, "linking", MappingProxyType(linking))

    def __reduce__(self):
        # a mappingproxy cannot be pickled, so rebuild from a plain dict
        return Component, (self.name, self.seifert, dict(self.linking))

    @property
    def size(self):
        return len(self.seifert)

    @cached_property
    def integral_form(self):
        """integral_form(self.seifert, self.linking), computed on first use and then kept."""
        return integral_form(self.seifert, self.linking)

    @cached_property
    def skew_form(self):
        """skew_form of the component's integral form, computed on first use and then kept."""
        d, dv, _ = self.integral_form
        return skew_form(d, dv)


@dataclass(frozen=True)
class SurgeryPresentation:
    """A rational homology sphere of order base_order plus an ordered,
    algebraically split, 0-framed link.  b1 of the presented manifold
    equals the number of components."""

    base_order: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def component(self, name):
        for c in self.components:
            if c.name == name:
                return c
        raise UnknownComponentError(name)

    def names(self):
        return [c.name for c in self.components]

    @cached_property
    def violations(self):
        """tuple(validate(self)), computed on first use and then kept."""
        return tuple(validate(self))


@dataclass(frozen=True)
class RibbonPairSpec:
    """Parameters of a two-component link whose Seifert surfaces meet in a
    single ribbon intersection circle.

    s is the self-linking of the intersection circle (the Sato-Levine
    number the built pair realizes), w is the Seifert matrix of the first
    component's own surface, a lists how the intersection circle links the
    basis curves of that surface, and epsilon is the sign of the linking
    of the surface's meridional curve with the second component.
    """

    s: int
    a: tuple = ()
    w: tuple = ()
    epsilon: int = 1
    base_order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", exact_vector(self.a))
        object.__setattr__(self, "w", exact_matrix(self.w))

    def check(self):
        if self.epsilon not in (1, -1):
            raise InvalidSpecError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if type(self.s) is not int:
            raise InvalidSpecError("s must be an integer")
        if type(self.base_order) is not int or self.base_order < 1:
            raise InvalidSpecError("base_order must be a positive integer")
        if len(self.a) != len(self.w):
            raise InvalidSpecError(
                f"a has length {len(self.a)}, expected {len(self.w)}"
            )
        _valid_form(self.w, "w")


def validate(p):
    """All invariant violations of a presentation, as human-readable strings.

    An empty list means the presentation is valid.  Violations are data,
    not exceptions, so callers can report all of them at once.
    """
    out = []
    if type(p.base_order) is not int or p.base_order < 1:
        out.append(f"base_order must be a positive integer, got {p.base_order!r}")
    names = p.names()
    seen = set()
    for n in names:
        if n in seen:
            out.append(f"duplicate component name {n!r}")
        seen.add(n)
    for c in p.components:
        msg = c.skew_form[1]
        if msg is not None:
            out.append(f"component {c.name!r}: {msg}")
        expected = set(names) - {c.name}
        missing = expected - set(c.linking)
        unknown = set(c.linking) - expected
        for other in sorted(missing):
            out.append(f"component {c.name!r}: missing linking vector against {other!r}")
        for other in sorted(unknown):
            out.append(f"component {c.name!r}: linking vector against unknown component {other!r}")
        for other, vec in c.linking.items():
            if other in expected and len(vec) != c.size:
                out.append(
                    f"component {c.name!r}: linking vector against {other!r} "
                    f"has length {len(vec)}, expected {c.size}"
                )
        if p.base_order == 1 and c.integral_form[0] != 1:
            out.append(f"component {c.name!r}: non-integer entries require base_order > 1")
    return out


def rank_one_update(seifert, e, sign=-1):
    """V - sign * E E^T: the Seifert matrix after (sign)-surgery on a curve linked by e."""
    v = [list(row) for row in seifert]
    for i in range(len(e)):
        if e[i]:
            for j in range(len(e)):
                v[i][j] -= sign * e[i] * e[j]
    return tuple(tuple(r) for r in v)


def blow_down(p, target, sign=-1):
    """Remove a component by (sign)-framed surgery on it.

    Every remaining Seifert matrix changes by the rank-one update
    V -> V - sign * E E^T, where E is that component's linking vector
    against the target; so (-1)-surgery adds E E^T.  Linking vectors
    between the remaining components pick up the correction
    lk(e_m, target) * lk(other, target), which vanishes here because the
    components are algebraically split.  The homology order is unchanged
    by +-1 surgery on a null-homologous knot.
    """
    if sign not in (-1, 1):
        raise InvalidSpecError(f"surgery sign must be +1 or -1, got {sign}")
    return _remove(p, target, sign)


def drop_component(p, target):
    """Forget a 0-framed component without performing surgery on it."""
    return _remove(p, target, 0)


def _remove(p, target, sign):
    """p without the target, each remaining V updated by (sign)-surgery on
    it, or left unchanged when sign is 0."""
    p.component(target)  # raises UnknownComponentError
    new = []
    for c in p.components:
        if c.name == target:
            continue
        seifert = c.seifert
        if sign:
            seifert = rank_one_update(seifert, c.linking.get(target, ()), sign)
        linking = {k: vec for k, vec in c.linking.items() if k != target}
        new.append(Component(name=c.name, seifert=seifert, linking=linking))
    return SurgeryPresentation(base_order=p.base_order, components=tuple(new))


def build_ribbon_pair(spec):
    """Two-component presentation realizing Sato-Levine number spec.s.

    Component 1 carries the (2g+2)-sized block Seifert matrix of the
    stabilized surface: first row zero, second row (epsilon, s, a_1..a_2g),
    then rows (0, a_m, W...).  Basis slot 1 is the meridional curve of the
    second component, slot 2 is the intersection circle.  Component 2 is
    an unknotted component with trivial (0x0) Seifert data; its surface
    basis is never needed.
    """
    spec.check()
    g2 = len(spec.w)
    n = g2 + 2
    rows = [[0] * n]
    rows.append([spec.epsilon, spec.s, *spec.a])
    for m in range(g2):
        rows.append([0, spec.a[m], *spec.w[m]])
    e = [0] * n
    e[0] = spec.epsilon
    comp1 = Component(name="l1", seifert=tuple(tuple(r) for r in rows), linking={"l2": tuple(e)})
    comp2 = Component(name="l2", seifert=(), linking={"l1": ()})
    return SurgeryPresentation(base_order=spec.base_order, components=(comp1, comp2))


def build_triple(mu, spec):
    """Three-component presentation with triple linking number mu.

    Components 1 and 2 are the ribbon pair; component 3 is an unknotted
    component whose only interaction is that the intersection circle of
    the first two surfaces links it mu times (the c-slot, basis position
    2 of the stabilized surface, carries mu).
    """
    if type(mu) is not int:
        raise InvalidSpecError("mu must be an integer")
    pair = build_ribbon_pair(spec)
    comp1, comp2 = pair.components
    e3 = [0] * comp1.size
    e3[1] = mu
    comp1 = Component(
        name=comp1.name,
        seifert=comp1.seifert,
        linking={**comp1.linking, "l3": tuple(e3)},
    )
    comp2 = Component(
        name=comp2.name,
        seifert=comp2.seifert,
        linking={**comp2.linking, "l3": ()},
    )
    comp3 = Component(name="l3", seifert=(), linking={"l1": (), "l2": ()})
    return SurgeryPresentation(base_order=pair.base_order, components=(comp1, comp2, comp3))


def connected_sum_knot(p, comp, v):
    """Connected-sum a knot with the named component.

    The component's Seifert matrix becomes the block sum v (+) old, and its
    linking vectors are padded with zeros on the new rows: the summand's
    surface is disjoint from everything else.  All other data is unchanged.
    """
    v = exact_matrix(v)
    _valid_form(v, "summand matrix")
    c = p.component(comp)
    k = len(v)
    n = c.size
    rows = [row + (0,) * n for row in v] + [(0,) * k + row for row in c.seifert]
    new_comp = Component(
        name=c.name,
        seifert=rows,
        linking={other: (0,) * k + vec for other, vec in c.linking.items()},
    )
    return SurgeryPresentation(
        base_order=p.base_order,
        components=tuple(new_comp if x.name == comp else x for x in p.components),
    )


# Seifert matrices of the standard small knots, for builders and tests.
TREFOIL = exact_matrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = exact_matrix([[1, 1], [0, -1]])
UNKNOT = exact_matrix([])
