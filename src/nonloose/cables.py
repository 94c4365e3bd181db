"""Classical invariants of standard cables of Legendrian knots.

Slope convention: a (p, q)-cable wraps p times around the longitude and q
times around the meridian, so its slope is q/p.  A cable sitting as a
Legendrian divide on a convex torus of the same slope has tb = pq; a
ruling curve on a torus of a different dividing slope loses the
intersection count with that slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .farey import Slope, cross, farey_diff


class CableError(ValueError):
    """A cable operation was applied outside its stated slope range."""


@dataclass(frozen=True)
class LegendrianInvariants:
    tb: int
    rot: int


@dataclass(frozen=True)
class CableSpec:
    """A (p, q)-cable; p longitudes, q meridians, slope q/p."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise CableError("cables need p >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise CableError("cable coefficients must be coprime")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.q, self.p)


def divide_cable_tb(c: CableSpec) -> int:
    """tb of a cable realized as a Legendrian divide: pq."""
    return c.p * c.q


def ruling_cable_tb(c: CableSpec, dividing: Slope) -> int:
    """tb of a cable realized as a ruling curve on a torus of the given
    dividing slope: pq - |p q' - p' q| for dividing slope q'/p'."""
    q1, p1 = dividing.num, dividing.den
    if c.q * p1 == c.p * q1:
        raise CableError("ruling slope equals the dividing slope; that is a divide")
    return c.p * c.q - abs(c.p * q1 - p1 * c.q)


def cable_rot(c: CableSpec, r_disk: int, r_seifert: int) -> int:
    """Rotation number of a cable from the rotations of the meridian disk
    boundary and the Seifert surface boundary: q r(dD) + p r(dSigma)."""
    return c.q * r_disk + c.p * r_seifert


def positive_cable(inv: LegendrianInvariants, c: CableSpec) -> LegendrianInvariants:
    """Invariants of the standard positive cable, a ruling curve on the
    boundary of a standard neighborhood.

    Requires q/p > tb.  The meridian disk boundary of a standard
    neighborhood has rotation 0, so rot scales by p.
    """
    if c.slope <= inv.tb:
        raise CableError("a standard positive cable needs q/p > tb")
    tb = ruling_cable_tb(c, Slope(inv.tb, 1))
    return LegendrianInvariants(tb, c.p * inv.rot)


def negative_cable_tb(inv: LegendrianInvariants, c: CableSpec) -> int:
    """tb of a standard negative cable, a Legendrian divide on a torus
    inside the standard neighborhood; defined for q/p in (tb - 1, tb).

    Only tb is exposed: the rotation number depends on which of the two
    tori of that dividing slope is used and on the ambient structure.
    """
    if not inv.tb - 1 < c.slope < inv.tb:
        raise CableError("a standard negative cable needs q/p in (tb - 1, tb)")
    return c.p * c.q


def stab_count_relation(inv: LegendrianInvariants, c: CableSpec) -> int:
    """Number of stabilizations relating the negative cable of a knot to
    the positive cable of its stabilization: |(tb - 1) p - q|.

    The bookkeeping identity negative_cable_tb - n =
    positive_cable(stabilized).tb is verified before returning.
    """
    if not inv.tb - 1 < c.slope < inv.tb:
        raise CableError("the relation needs q/p in (tb - 1, tb)")
    n = abs((inv.tb - 1) * c.p - c.q)
    stabilized = LegendrianInvariants(inv.tb - 1, inv.rot)
    assert negative_cable_tb(inv, c) - n == positive_cable(stabilized, c).tb
    return n


def seestab_count(s0: Slope, s1: Slope, s: Slope) -> int:
    """Stabilization count |(s1 (-) s0) . s| between the two ruling curves
    of slope s on the faces of a basic slice with dividing slopes s0, s1."""
    return abs(cross(farey_diff(s1, s0), s))


def self_linking(inv: LegendrianInvariants) -> int:
    """Self-linking number of the transverse push-off: tb - rot."""
    return inv.tb - inv.rot


@dataclass(frozen=True)
class FamilyInvariants:
    tb: int
    rot: int
    sl: int
    count: int


# rotations of the meridian-disk and Seifert-surface boundaries for the
# (2n+1, 2)-cables of the left-handed trefoil realized as Legendrian
# divides; recorded inputs, cross-checked by the self-linking value
_TREFOIL_CABLE_R_DISK = -1
_TREFOIL_CABLE_R_SEIFERT = 1


def transnonsimple_family(n: int) -> FamilyInvariants:
    """Invariants of the transversely non-simple cable family.

    The (2n+1, 2)-cables of the left-handed trefoil give n distinct
    non-loose representatives sharing tb = 4n + 2, rot = 2n - 1 and
    transverse self-linking 2n + 3; tb and sl are derived from the divide
    and push-off formulas rather than hard-coded.
    """
    if n < 1:
        raise CableError("the family is indexed by n >= 1")
    spec = CableSpec(2 * n + 1, 2)
    tb = divide_cable_tb(spec)
    rot = cable_rot(spec, _TREFOIL_CABLE_R_DISK, _TREFOIL_CABLE_R_SEIFERT)
    sl = self_linking(LegendrianInvariants(tb, rot))
    return FamilyInvariants(tb, rot, sl, n)
