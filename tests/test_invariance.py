"""Invariance relations as an oracle.

The invariants belong to the presented manifold, not to the presentation,
so a change of presentation that keeps the manifold must keep every value:
the Alexander polynomial and Delta''(1) of the first component, the
Sato-Levine number (two components) or mu^2 (three), the Lescop invariant
and chi by both routes (or the same non-integral-chi message).  The
relations, on seeded presentations:

- a change of basis of each component's surface, V -> P^T V P and
  E -> P^T E for unimodular P;
- an elementary enlargement of each component's Seifert matrix, the
  S-equivalence V -> [[V, xi, 0], [0, 0, 1], [0, 0, 0]] for an integer
  column xi, with every linking vector padded by two zeros;
- a permutation of the components 2..n.

No relation moves the first component: every formula reads the first
component's surface and its linking vectors, and the data of the other
components only through validation, so swapping the first component with
another one changes the numbers (on ribbon-s1, chi goes from -2 to 0).

Reversing the orientation of the manifold, V -> -V^T on every component
with the linking vectors kept, keeps each Alexander polynomial and
multiplies the Lescop invariant by (-1)^(b1 + 1) (Lescop, Global surgery
formula for the Casson-Walker invariant, 1996), and with it chi by both
routes, or both sides have a non-integral chi.
"""

import pytest

from lescop import floer, invariants
from lescop.presentation import Component, SurgeryPresentation

from conftest import fractional_presentation, random_presentation, seeded, unimodular

COUNT = 300


def presentations(rng, count=COUNT):
    """Seeded presentations: random ones with 1-4 components and h in
    {1, 3, 4}, alternating with fractional ones."""
    for k in range(count):
        if k % 2:
            yield fractional_presentation(rng)
        else:
            yield random_presentation(rng, rng.randint(1, 4), h=rng.choice((1, 3, 4)), gmax=2)


def values(p):
    """Every invariant of p that the relations must keep."""
    first = p.components[0].name
    out = {
        "alexander": invariants.alexander(p, first),
        "delta2": invariants.delta2(p, first),
        "lescop": invariants.lescop(p),
    }
    n = len(p.components)
    if n == 2:
        out["sato_levine"] = invariants.sato_levine(p)
    if n == 3:
        out["mu_squared"] = invariants.milnor_mu_squared(p)
    for route in (floer.chi_closed_form, floer.chi_via_triangle):
        try:
            out[route.__name__] = route(p).chi
        except floer.NonIntegralChiError as e:
            out[route.__name__] = str(e)
    return out


def change_of_basis(rng, p):
    comps = []
    for c in p.components:
        n = c.size
        u = unimodular(rng, n, 2 * n)
        v = [[sum(u[k][i] * c.seifert[k][m] * u[m][j] for k in range(n) for m in range(n))
              for j in range(n)] for i in range(n)]
        linking = {other: tuple(sum(u[k][i] * e[k] for k in range(n)) for i in range(n))
                   for other, e in c.linking.items()}
        comps.append(Component(c.name, v, linking))
    return SurgeryPresentation(p.base_order, tuple(comps))


def enlargement(rng, p):
    comps = []
    for c in p.components:
        n = c.size
        xi = [rng.randint(-3, 3) for _ in range(n)]
        v = [[*row, x, 0] for row, x in zip(c.seifert, xi)]
        v += [[0] * n + [0, 1], [0] * (n + 2)]
        linking = {other: (*e, 0, 0) for other, e in c.linking.items()}
        comps.append(Component(c.name, v, linking))
    return SurgeryPresentation(p.base_order, tuple(comps))


def permutation(rng, p):
    first, *others = p.components
    moved = rng.sample(others, len(others))
    if moved == others:
        moved.reverse()
    return SurgeryPresentation(p.base_order, (first, *moved))


@pytest.mark.parametrize("relation", [change_of_basis, enlargement, permutation],
                         ids=lambda f: f.__name__)
def test_invariants_survive(relation):
    rng = seeded()
    checked = 0
    mismatches = []
    for k, p in enumerate(presentations(rng)):
        assert not p.violations
        if relation is permutation and len(p.components) < 3:
            continue
        q = relation(rng, p)
        assert not q.violations, (k, q.violations)
        before, after = values(p), values(q)
        if before != after:
            mismatches.append((k, before, after))
        checked += 1
    assert mismatches == []
    assert checked >= COUNT // 3


def reversal(p):
    """-M: every Seifert matrix V -> -V^T, the linking vectors kept."""
    return SurgeryPresentation(p.base_order, tuple(
        Component(c.name, [[-x for x in column] for column in zip(*c.seifert)], c.linking)
        for c in p.components
    ))


def signed_values(p):
    """The Lescop invariant and chi by both routes, a non-integral chi as None."""
    out = {"lescop": invariants.lescop(p)}
    for route in (floer.chi_closed_form, floer.chi_via_triangle):
        try:
            out[route.__name__] = route(p).chi
        except floer.NonIntegralChiError:
            out[route.__name__] = None
    return out


def test_orientation_reversal():
    mismatches = []
    for k, p in enumerate(presentations(seeded())):
        q = reversal(p)
        assert not q.violations, (k, q.violations)
        sign = (-1) ** (len(p.components) + 1)
        expected = {name: x if x is None else sign * x for name, x in signed_values(p).items()}
        polys = [(invariants.alexander(p, c.name), invariants.alexander(q, c.name))
                 for c in p.components]
        if signed_values(q) != expected or any(a != b for a, b in polys):
            mismatches.append(k)
    assert mismatches == []
