"""SU(2)-representation counting for cyclic groups and connected sums.

A representation of Z/p into SU(2) is conjugate to a diagonal one sending
the generator to exp(2 pi i n / p).  Central representations (image in
{+-1}) contribute a point to the character variety; the others have
stabilizer U(1) and contribute a 2-sphere, hence +-chi(S^2) = +-2 to the
Euler characteristic.  The signed total per irreducible factor works out
to p for every p, which is the source of the torsion factor in the
connected-sum formulas below.  The signs of the individual sphere
contributions are not computed here.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import _Record, exact


class InvalidPError(ValueError):
    """p must be a positive integer."""


class LensBreakdown(_Record):
    __match_args__ = ("p", "central_classes", "sphere_classes", "euler_factor")

    def __init__(self, p, central_classes, sphere_classes, euler_factor):
        vars(self).update(
            p=p,
            central_classes=central_classes,
            sphere_classes=sphere_classes,
            euler_factor=euler_factor,
        )


def rep_classes(p):
    """Conjugacy classes of representations Z/p -> SU(2), by type.

    The classes are the roots of unity exp(2 pi i n / p), 0 <= n <= p-1,
    up to the trace identification n ~ p - n.  A class is central exactly
    when its image is +-1, i.e. when 2n = 0 mod p: n = 0, and n = p/2 when
    p is even.  Every other n pairs with a distinct partner, so the sphere
    classes are the remaining (p - central) / 2 pairs.  The counts are
    read off p directly, so the work does not grow with p.

    >>> rep_classes(5)
    LensBreakdown(p=5, central_classes=1, sphere_classes=2, euler_factor=5)
    >>> rep_classes(4)
    LensBreakdown(p=4, central_classes=2, sphere_classes=1, euler_factor=4)
    """
    if type(p) is not int or p < 1:
        raise InvalidPError(f"p must be a positive integer, got {p!r}")
    central = 2 if p % 2 == 0 else 1
    spheres = (p - central) // 2
    return LensBreakdown(
        p=p,
        central_classes=central,
        sphere_classes=spheres,
        euler_factor=central + 2 * spheres,
    )


def connect_sum_chi(chi_y, p):
    """chi of a connected sum with a lens space of order p.

    Each irreducible class of the other summand is multiplied by the
    representation count of Z/p, so chi picks up the factor p.  Computed
    through the class breakdown, one point per central class and chi(S^2)
    = 2 per sphere class, so the counting argument is what actually runs;
    connect_sum_chi(c, p) == p * c.
    """
    return rep_classes(p).euler_factor * exact(chi_y)


def lescop_connect_sum(lambda_y, p):
    """Lescop invariant of the same connected sum: p times the summand's.

    Stated for summands with torsion-free first homology of rank at least
    one; that hypothesis is the caller's responsibility.  The factor is
    rep_classes(p).euler_factor, which is p, so p is checked there.
    """
    return Fraction(rep_classes(p).euler_factor * exact(lambda_y))
