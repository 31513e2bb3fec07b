"""One number rule at every public entry point.

Each public function that takes numbers from its caller passes them
through ring.exact: an int or a Fraction is accepted, an integral value
is stored as an int, and a float, a string or a Decimal raises
TypeError instead of being coerced.  No result is a float.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from lescop.floer import chi_to_lescop, lescop_to_chi
from lescop.invariants import SurgeryChain, casson, knot_alexander
from lescop.lens import connect_sum_chi, lescop_connect_sum
from lescop.presentation import (
    TREFOIL,
    Component,
    RibbonPairSpec,
    SurgeryPresentation,
    build_ribbon_pair,
    connected_sum_knot,
)
from lescop.ring import HalfLaurent

INEXACT = (0.5, "1/2", Decimal("0.5"))
ACCEPTED = (3, Fraction(1, 2))


def diagonal(x):
    """[[x, 1], [0, x]], a valid Seifert form for every x: V - V^T is standard."""
    return ((x, 1), (0, x))


KNOT = SurgeryPresentation(2, (Component("l1", TREFOIL, {}),))

ENTRY_POINTS = {
    "Component.seifert": lambda x: Component("l1", diagonal(x), {}),
    "Component.linking": lambda x: Component("l1", TREFOIL, {"l2": (x, 0)}),
    "knot_alexander": lambda x: knot_alexander(diagonal(x)),
    "SurgeryChain": lambda x: SurgeryChain(((diagonal(x), -1),)),
    # a chain presents integral homology spheres: twice x keeps V integral
    # for both accepted values
    "casson": lambda x: casson([(diagonal(2 * x), -1)]),
    "RibbonPairSpec.a": lambda x: build_ribbon_pair(RibbonPairSpec(s=1, a=(x, 0), w=TREFOIL)),
    "RibbonPairSpec.w": lambda x: build_ribbon_pair(RibbonPairSpec(s=1, a=(0, 0), w=diagonal(x))),
    "connected_sum_knot": lambda x: connected_sum_knot(KNOT, "l1", diagonal(x)),
    "lescop_to_chi": lambda x: lescop_to_chi(x, 2, 1),
    "chi_to_lescop(b1=1)": lambda x: chi_to_lescop(x, 1, 1),
    "chi_to_lescop(b1=2)": lambda x: chi_to_lescop(x, 2, 1),
    "lescop_connect_sum": lambda x: lescop_connect_sum(x, 5),
    "connect_sum_chi": lambda x: connect_sum_chi(x, 3),
}


def numbers(value):
    """Every number inside a result, with whether it is a stored entry."""
    if isinstance(value, SurgeryPresentation):
        for c in value.components:
            yield from numbers(c)
    elif isinstance(value, Component):
        for row in value.seifert:
            yield from ((x, True) for x in row)
        for vec in value.linking.values():
            yield from ((x, True) for x in vec)
    elif isinstance(value, SurgeryChain):
        for v, sign in value.steps:
            yield sign, True
            yield from ((x, True) for row in v for x in row)
    elif isinstance(value, HalfLaurent):
        yield from ((x, True) for x in value.terms.values())
    else:
        yield value, False


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_take_exact_numbers(name):
    fn = ENTRY_POINTS[name]
    for x in INEXACT:
        with pytest.raises(TypeError):
            fn(x)
    for x in ACCEPTED:
        found = list(numbers(fn(x)))
        assert found, (name, x)
        for y, stored in found:
            assert type(y) in (int, Fraction), (name, x, y)
            if stored:  # integral entries are stored as ints
                assert type(y) is int or y.denominator != 1, (name, x, y)
