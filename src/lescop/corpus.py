"""Built-in example presentations.

Every entry is a complete, valid document; `lescop examples --write DIR`
materializes them as files.  The two-component "hs-*" entries realize the
furled two-component-link configuration: a band sum of the components with
a small 0-framed circle around the band, whose Sato-Levine number equals
the linking number of the original components up to an overall sign.  We
build them with s = +lk, giving chi = -2 lk; the opposite sign convention
flips chi.  The "km-*" entries are (0,0,0)-surgery on a knot summed with
the Borromean rings; their total chi is -2 and the reduced knot homology
gets half of it.
"""

from .documents import PresentationDocument
from .presentation import (
    FIGURE_EIGHT,
    TREFOIL,
    Component,
    RibbonPairSpec,
    SurgeryPresentation,
    build_ribbon_pair,
    build_triple,
    connected_sum_knot,
)


def _knot_surgery(seifert):
    comp = Component(name="l1", seifert=seifert, linking={})
    return SurgeryPresentation(base_order=1, components=(comp,))


def _boundary_link():
    c1 = Component(name="l1", seifert=TREFOIL, linking={"l2": (0, 0)})
    c2 = Component(name="l2", seifert=(), linking={"l1": ()})
    return SurgeryPresentation(base_order=1, components=(c1, c2))


def _km(seifert):
    return connected_sum_knot(build_triple(1, RibbonPairSpec(s=0)), "l1", seifert)


def _entries():
    yield "unknot-0", "0-surgery on the unknot (S^1 x S^2)", _knot_surgery(()), None
    yield "s1xs2", "S^1 x S^2, alias of unknot-0", _knot_surgery(()), None
    yield "trefoil-0", "0-surgery on the trefoil", _knot_surgery(TREFOIL), None
    yield "figure8-0", "0-surgery on the figure-eight knot", _knot_surgery(FIGURE_EIGHT), None
    for s in range(-2, 3):
        yield (
            f"ribbon-s{s}",
            f"ribbon pair with Sato-Levine number {s}",
            build_ribbon_pair(RibbonPairSpec(s=s)),
            (1, 1),
        )
    yield "boundary-link", "boundary link (disjoint Seifert surfaces)", _boundary_link(), (1, 1)
    for mu in range(3):
        yield (
            f"triple-mu{mu}",
            f"three-component link with triple linking number {mu}",
            build_triple(mu, RibbonPairSpec(s=0)),
            (1, 1, 1),
        )
    yield "km-unknot", "(0,0,0)-surgery on unknot # Borromean rings", _km(()), (1, 1, 1)
    yield "km-trefoil", "(0,0,0)-surgery on trefoil # Borromean rings", _km(TREFOIL), (1, 1, 1)
    yield (
        "km-figure8",
        "(0,0,0)-surgery on figure-eight # Borromean rings",
        _km(FIGURE_EIGHT),
        (1, 1, 1),
    )
    yield (
        "hs-lk2",
        "furled two-component link with linking number 2 (s = +lk)",
        build_ribbon_pair(RibbonPairSpec(s=2)),
        (1, 1),
    )
    yield (
        "ribbon-s1-h3",
        "ribbon pair with s = 1 over a base of homology order 3",
        build_ribbon_pair(RibbonPairSpec(s=1, base_order=3)),
        (1, 1),
    )
    yield (
        "ribbon-s1-h4",
        "ribbon pair with s = 1 over a base of homology order 4 (2-torsion)",
        build_ribbon_pair(RibbonPairSpec(s=1, base_order=4)),
        (1, 1),
    )


def corpus():
    """All built-in presentations, as an ordered name -> document map."""
    return {
        name: PresentationDocument(presentation=p, bundle_w2=w2)
        for name, _, p, w2 in _entries()
    }


def descriptions():
    return {name: desc for name, desc, _, _ in _entries()}
