"""Surgery presentations of 3-manifolds as Seifert-matrix data.

A presented manifold is a rational homology sphere of known first-homology
order together with an ordered list of 0-framed, null-homologous link
components.  Pairwise linking numbers of components are fixed at zero by
the data model itself (algebraically split links); presentations with
nonzero pairwise linking are unrepresentable rather than validated away,
since every formula downstream assumes the splitting.

All types are immutable values and all operations are pure functions.
Component, SurgeryPresentation and RibbonPairSpec are plain classes on
ring._Record, whose __setattr__ and __delattr__ raise AttributeError,
and a Component's linking vectors sit behind a read-only mapping, so
nothing can change a value after it is built.  Seifert and linking entries are
exact rationals, checked once when a value is built by ring.exact
(through exact_vector and exact_matrix): an integral entry is stored as
an int, any other as a Fraction, and a float, string or Decimal raises
TypeError.  The one exception is the private constructor
ring._Record._trusted, by which documents.parse builds a Component: the
parser has applied that rule to every entry already, so the values are
stored unchecked.
integral_form is the one function that turns the entries into ints: it
scales V and the linking vectors E by their common denominator c to
dV = c^2 V and cE, and every formula of the package runs on those; for
c = 1, the case of integral data, V and E are that form as they are.
skew_form checks the Seifert-form invariant on (d, dV) and yields S^-1
for S = V - V^T.  On a symplectic basis, where each row of S holds one
+-1, S^-1 is S^T and nothing is eliminated; any other S takes one
integer elimination, ring._scaled_inverse, which also gives det S.
_jet_trace gives the int tr((S^-1 dB)^2), dB = dV + dV^T, from which
the jet of the Alexander polynomial at t = 1 reads Delta''(1).  It forms
S^-1 dB by the nonzeros of each row of S^-1: O(g^2) on a symplectic
basis, where every row has one, and O(g^3) for a dense S^-1.
A Component computes its integral form, its skew form and, once it is
valid, its jet trace on first use and keeps all three (ring._kept).
Likewise a SurgeryPresentation runs validate on first reading its
violations and keeps the result, so every invariant downstream can check
its input at no further cost and shares one scaling, one S^-1 and one
trace per component.  invariants keeps two values of its own on these
records the same way: a component's Alexander coefficients
(invariants._kept_coefficients) and a presentation's case quantity
(invariants._case).
"""

from __future__ import annotations

import math
from itertools import chain, compress
from operator import add, mul, neg, sub
from types import MappingProxyType

from .ring import _Record, _kept, _scaled_inverse, exact


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
    d (V + E E^T) = dV + (cE)(cE)^T: blowing down stays integral.  The
    entries are exact (see ring.exact), so c = 1 when one scan of their
    types finds only ints, and only a Fraction makes it take the lcm; then
    they are the form as they are: V and E are returned, not rebuilt,
    with E behind a read-only mapping as always.

    >>> from fractions import Fraction
    >>> half, third = Fraction(1, 2), Fraction(1, 3)
    >>> integral_form(exact_matrix([[half, 1], [0, half]]), {"k": (third, 0)})
    (36, ((18, 36), (0, 18)), mappingproxy({'k': (2, 0)}))
    >>> integral_form(exact_matrix([[-1, 1], [0, -1]]), {"k": (2, 0)})
    (1, ((-1, 1), (0, -1)), mappingproxy({'k': (2, 0)}))
    """
    c = 1
    if not set(map(type, chain(*seifert, *linking.values()))) <= {int}:
        c = math.lcm(*(x.denominator for row in seifert for x in row),
                     *(x.denominator for e in linking.values() for x in e))
    if c == 1:
        if not isinstance(linking, MappingProxyType):
            linking = MappingProxyType(dict(linking))
        return 1, seifert, linking
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
    S^-1 is returned as int rows.

    When every row of S holds exactly one nonzero and it is +-1 (each row
    has a nonzero and the |entries| sum to n), S^-1 is S^T, with no
    elimination.  S is skew, so S_ij != 0 exactly when S_ji != 0, and
    S_ii = 0: the nonzero positions form a fixed-point-free involution.
    S is then a signed permutation matrix, S^-1 = S^T, and det S =
    Pf(S)^2 = +1.  A symplectic basis gives this form, and every corpus
    component has it.

    Any other S takes one fraction-free Gauss-Jordan of [S | I],
    ring._scaled_inverse on the int rows built here, which gives D S^-1
    with D = +-det S its last pivot.  S is skew, so det S = Pf(S)^2 = |D|:
    S^-1 is D times D S^-1 when |D| = 1, and otherwise |D| goes into the
    message, 0 when S is singular.
    """
    n = len(dv)
    if n % 2 != 0:
        return None, f"seifert matrix has odd size {n}"
    rows = [list(map(sub, row, col)) for row, col in zip(dv, zip(*dv))]
    if d != 1:
        if any(x % d for r in rows for x in r):
            return None, "V - V^T has non-integer entries"
        rows = [[x // d for x in r] for r in rows]
    if all(map(any, rows)) and sum(map(abs, chain.from_iterable(rows))) == n:
        return tuple(zip(*rows)), None
    det, inverse = _scaled_inverse(rows)
    if det not in (1, -1):
        return None, f"det(V - V^T) = {abs(det)}, expected 1"
    if det == 1:
        return tuple(map(tuple, inverse)), None
    return tuple(tuple(map(neg, r)) for r in inverse), None


def _row_product(s_inv, db):
    """S^-1 dB with row i the sum of s dB[j] over the nonzeros s = S^-1[i][j]
    (S^-1 is invertible, so every row has one).  A term s = 1 is dB[j]
    itself and a row of one term is that term, so X shares those rows
    with dB; _jet_trace only reads them."""
    cols = range(len(db))
    x = []
    for row in s_inv:
        terms = [db[j] if s == 1 else list(map(s.__mul__, db[j]))
                 for j, s in zip(compress(cols, row), filter(None, row))]
        x.append(terms[0] if len(terms) == 1 else list(map(sum, zip(*terms))))
    return x


def _jet_trace(s_inv, dv):
    """The int tr((S^-1 dB)^2) for dB = dV + dV^T.

    X = S^-1 dB is formed by the rows of S^-1 (_row_product), and tr(X^2)
    is the sum of X_ij X_ji, O(n^2).  On a symplectic basis S^-1 has one
    nonzero per row, so the trace is O(n^2); a dense S^-1 takes O(n^3).
    Against the n^2 dot products of length n it replaced (medians of 15
    interleaved timeit rounds, on a shared 2-core x86_64 host with CPython
    3.11): symplectic S^-1, 1.02 times their speed at g = 1, 377 -> 85 us
    at g = 10 and 19.4 -> 1.23 ms at g = 40; S^-1 made dense by a random
    unimodular change of basis, 0.74 and 0.87 times their speed at g = 2
    and 5 and 1.04-1.43 times at g = 10-40.  The two shortcuts of
    _row_product are measured: without the reuse of dB[j] for s = 1 the
    symplectic trace at g = 10 took 1.22 times as long, and without the
    row of one term 1.55 times.
    """
    db = [list(map(add, row, col)) for row, col in zip(dv, zip(*dv))]
    x = _row_product(s_inv, db)
    return sum(map(mul, chain.from_iterable(x), chain.from_iterable(zip(*x))))


def _name_defect(name):
    """Why name cannot name a component, or None when it can: a name is a
    non-empty str that encodes as UTF-8, so that serialize writes it and
    documents.parse reads it back."""
    if not isinstance(name, str) or not name:
        return "expected a non-empty string"
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate such as "\ud800"
        return "not valid text"
    return None


def _valid_form(v, what):
    """(d, dV, S^-1) for an exact square matrix v, by integral_form and
    skew_form; an invalid Seifert form raises InvalidSpecError("what: why")."""
    d, dv, _ = integral_form(v)
    s_inv, msg = skew_form(d, dv)
    if msg is not None:
        raise InvalidSpecError(f"{what}: {msg}")
    return d, dv, s_inv


class Component(_Record):
    """One 0-framed link component: its Seifert matrix and how the basis
    curves of its Seifert surface link the other components."""

    __match_args__ = ("name", "seifert", "linking")

    def __init__(self, name, seifert, linking):
        vars(self).update(
            name=name,
            # a 2g x 2g matrix of exact numbers (see ring.exact)
            seifert=exact_matrix(seifert),
            # other component name -> length-2g vector of exact numbers
            linking=MappingProxyType({str(k): exact_vector(v) for k, v in dict(linking).items()}),
        )

    def __reduce__(self):
        # a mappingproxy cannot be pickled, so rebuild from a plain dict
        return Component, (self.name, self.seifert, dict(self.linking))

    @property
    def size(self):
        return len(self.seifert)

    @_kept
    def integral_form(self):
        """integral_form(self.seifert, self.linking), computed on first use and then kept."""
        return integral_form(self.seifert, self.linking)

    @_kept
    def skew_form(self):
        """skew_form of the component's integral form, computed on first use and then kept."""
        d, dv, _ = self.integral_form
        return skew_form(d, dv)

    @_kept
    def jet_trace(self):
        """The int tr((S^-1 dB)^2) for dB = dV + dV^T, of a component whose
        skew form is valid, computed on first use and then kept."""
        return _jet_trace(self.skew_form[0], self.integral_form[1])


class SurgeryPresentation(_Record):
    """A rational homology sphere of order base_order plus an ordered,
    algebraically split, 0-framed link.  b1 of the presented manifold
    equals the number of components."""

    __match_args__ = ("base_order", "components")

    def __init__(self, base_order, components):
        vars(self).update(base_order=base_order, components=tuple(components))

    def component(self, name):
        for c in self.components:
            if c.name == name:
                return c
        raise UnknownComponentError(name)

    def names(self):
        return [c.name for c in self.components]

    @_kept
    def violations(self):
        """tuple(validate(self)), computed on first use and then kept."""
        return tuple(validate(self))


class RibbonPairSpec(_Record):
    """Parameters of a two-component link whose Seifert surfaces meet in a
    single ribbon intersection circle.

    s is the self-linking of the intersection circle (the Sato-Levine
    number the built pair realizes), w is the Seifert matrix of the first
    component's own surface, a lists how the intersection circle links the
    basis curves of that surface, and epsilon is the sign of the linking
    of the surface's meridional curve with the second component.
    """

    __match_args__ = ("s", "a", "w", "epsilon", "base_order")

    def __init__(self, s, a=(), w=(), epsilon=1, base_order=1):
        vars(self).update(
            s=s, a=exact_vector(a), w=exact_matrix(w), epsilon=epsilon, base_order=base_order
        )

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
    not exceptions, so callers can report all of them at once.  Each
    component name must pass _name_defect.  Linking names are compared
    with the other names as sets, and lengths in one any(); the loops
    that name each defect run only when one fails.
    """
    out = []
    if type(p.base_order) is not int or p.base_order < 1:
        out.append(f"base_order must be a positive integer, got {p.base_order!r}")
    names = p.names()
    seen = set()
    for n in names:
        defect = _name_defect(n)
        if defect is not None:
            out.append(f"component name {n!r}: {defect}")
        if n in seen:
            out.append(f"duplicate component name {n!r}")
        seen.add(n)
    for c in p.components:
        msg = c.skew_form[1]
        if msg is not None:
            out.append(f"component {c.name!r}: {msg}")
        expected = seen - {c.name}
        keys, size = c.linking.keys(), len(c.seifert)
        if keys != expected:
            for other in sorted(expected - keys):
                out.append(f"component {c.name!r}: missing linking vector against {other!r}")
            for other in sorted(keys - expected):
                out.append(f"component {c.name!r}: linking vector against unknown component "
                           f"{other!r}")
        if any(map(size.__ne__, map(len, c.linking.values()))):
            for other, vec in c.linking.items():
                if other in expected and len(vec) != size:
                    out.append(f"component {c.name!r}: linking vector against {other!r} "
                               f"has length {len(vec)}, expected {size}")
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
