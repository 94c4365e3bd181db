"""Exact arithmetic on the Farey circle of slopes.

A slope is a point of Q u {infinity} stored as a coprime integer pair
(num, den) with den >= 0; infinity is canonically 1/0.  So equal slopes
are exactly the pairs whose pairing dot is 0: farey_sum and the block
walk detect equality that way.  Clockwise order runs from 0 up through
the positive rationals to infinity, then up through the negative ones
back to 0; every comparison is an exact integer cross-multiplication.
Values are slotted frozen dataclasses; a slope's hash is computed from
its pair when asked, never stored.  A path vertex, primitive by its
Farey edges, is built in canonical form with no gcd (_primitive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class FareyError(ValueError):
    """A slope operation was applied outside its domain."""


@dataclass(frozen=True, slots=True)
class Slope:
    """A point of the Farey circle, reduced to canonical form on creation.

    Canonical form: gcd(|num|, |den|) = 1 and den >= 0, with infinity
    stored as (1, 0) regardless of the sign it was given.  Slotted; the
    hash is hash((num, den)), computed on each call.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        g = math.gcd(num, den)
        if g == 1 and den > 0:
            return
        if den == 0:
            if num == 0:
                raise FareyError("0/0 is not a slope")
            num = 1
        else:
            num //= g
            den //= g
            if den < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "num/den" (with "1/0" for infinity) or a bare integer."""
        text = text.strip()
        if text in ("inf", "oo"):
            return INFINITY
        if "/" in text:
            a, b = text.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(text), 1)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Slope({self.num}, {self.den})"


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)
_new, _set_num, _set_den = object.__new__, Slope.num.__set__, Slope.den.__set__


def _primitive(num: int, den: int) -> Slope:
    # Slope(num, den) for a pair the caller proves primitive, with no gcd
    if den <= 0:
        if den == 0:
            return INFINITY
        num, den = -num, -den
    s = _new(Slope)
    _set_num(s, num)
    _set_den(s, den)
    return s


@dataclass(frozen=True, slots=True)
class SignedVector:
    """An unreduced integer pair recording a curve class on the torus.

    Unlike Slope this is never reduced: Euler-class sums weight curve
    classes with multiplicity, and reduction would corrupt the totals.
    (0, 0) is allowed as the zero class.
    """

    a: int
    b: int

    def __add__(self, other: "SignedVector") -> "SignedVector":
        return SignedVector(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "SignedVector":
        return SignedVector(-self.a, -self.b)

    def scaled(self, k: int) -> "SignedVector":
        return SignedVector(k * self.a, k * self.b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


def dot(x: Slope, y: Slope) -> int:
    """Determinant pairing ad - bc of x = a/b and y = c/d (canonical reps).

    Antisymmetric; its absolute value is the minimal geometric
    intersection number of the corresponding curves on the torus.
    """
    return x.num * y.den - x.den * y.num


def cross(u: SignedVector, v) -> int:
    """Determinant pairing of an unreduced curve class with a Slope or
    another SignedVector."""
    if isinstance(v, Slope):
        return u.a * v.den - u.b * v.num
    return u.a * v.b - u.b * v.a


def has_edge(x: Slope, y: Slope) -> bool:
    """True iff x and y span an edge of the Farey graph (|dot| = 1)."""
    return abs(dot(x, y)) == 1


def farey_sum(x: Slope, y: Slope) -> Slope:
    """Mediant of two Farey-adjacent slopes.

    The representative of infinity is chosen so the mediant lands on the
    same side of the circle as the finite operand: (1, 0) against
    non-negative slopes and (-1, 0) against negative ones.  In particular
    farey_sum(ZERO, INFINITY) is 1 and farey_sum(Slope(-p), INFINITY)
    is -(p + 1).
    """
    if not (d := dot(x, y)):  # canonical slopes pair to 0 exactly when equal
        raise FareyError("mediant of equal slopes is undefined")
    if d not in (1, -1):
        raise FareyError(f"{x} and {y} are not adjacent in the Farey graph")
    if not (x.den and y.den):
        f = x if x.den else y
        inf_num = 1 if f.num >= 0 else -1
        # a mediant of Farey neighbours pairs to +-1 with each of them
        return _primitive(f.num + inf_num, f.den)
    return _primitive(x.num + y.num, x.den + y.den)


def iterated_sum(x: Slope, k: int, y: Slope) -> Slope:
    """k-fold mediant x (+) k*y; k = 0 returns x unchanged.

    The first mediant checks adjacency and fixes infinity's representative;
    every later one adds that same integer vector for y.
    """
    if k < 0:
        raise FareyError("iterated mediant needs k >= 0")
    if k == 0:
        return x
    first = farey_sum(x, y)
    a, b = ((1 if first.num >= 0 else -1), 0) if y.is_infinite else (y.num, y.den)
    # x (+) k*y pairs to +-1 with y, as first does
    return _primitive(first.num + (k - 1) * a, first.den + (k - 1) * b)


def farey_diff(x: Slope, y: Slope) -> SignedVector:
    """Componentwise difference x (-) y of the canonical representatives.

    The result is deliberately left unreduced.  On paths that cross
    infinity the canonical (1, 0) representative is used; callers needing
    a different lift must supply it themselves.
    """
    return SignedVector(x.num - y.num, x.den - y.den)


def cw_between(a: Slope, x: Slope, b: Slope) -> bool:
    """True iff x lies on the closed clockwise arc from a to b.

    Clockwise traversal runs 0, positive rationals increasing, infinity,
    negative rationals increasing to 0: the order of finite slopes by
    value with infinity maximal, wrapping around.  In that order x <= y
    exactly when dot(x, y) <= 0.
    """
    ab = dot(a, b)
    if ab == 0:
        raise FareyError("clockwise arc needs distinct endpoints")
    after_a, before_b = dot(a, x) <= 0, dot(x, b) <= 0
    return (after_a and before_b) if ab < 0 else (after_a or before_b)
