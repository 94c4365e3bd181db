"""Negative continued fractions and minimal clockwise Farey paths.

Slopes below -1 expand uniquely as a_0 - 1/(a_1 - 1/(... - 1/a_n)) with
every coefficient a_i <= -2.  Truncating or bumping that expansion walks
the Farey graph: dropping the last coefficient gives the farthest
anticlockwise neighbor (the "ancestor"), bumping it by one gives the
farthest clockwise neighbor that is larger (the "successor").  Minimal
clockwise paths between arbitrary slopes are computed by a greedy
farthest-neighbor descent, which is the same subdivision the expansion
performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .farey import (
    INFINITY,
    FareyError,
    Slope,
    cw_between,
    dot,
    has_edge,
)


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients [a_0, ..., a_n] of a negative continued fraction."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise FareyError("continued fraction needs at least one coefficient")
        if any(a > -2 for a in self.coeffs):
            raise FareyError("negative continued fraction coefficients must be <= -2")

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.coeffs) + "]"


@dataclass(frozen=True)
class FareyPath:
    """A strictly clockwise edge-path in the Farey graph.

    Consecutive vertices are Farey-adjacent, all vertices are distinct,
    and every vertex lies on the closed clockwise arc from the first
    vertex to the last, so the path winds less than once around.
    """

    vertices: tuple[Slope, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 2:
            raise FareyError("a path needs at least one edge")
        if len(set(v)) != len(v):
            raise FareyError("path vertices must be distinct")
        last = v[-1]
        for i in range(1, len(v)):
            if not has_edge(v[i - 1], v[i]):
                raise FareyError(f"{v[i - 1]} and {v[i]} are not adjacent")
            if not cw_between(v[i - 1], v[i], last):
                raise FareyError("path is not traversed clockwise")

    def __len__(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.vertices)


def expand(s: Slope) -> ContinuedFraction:
    """Negative continued fraction of a rational slope s < -1."""
    if s.is_infinite or s.num >= -s.den:
        raise FareyError(f"negative continued fractions require s < -1, got {s}")
    num, den = s.num, s.den
    coeffs = []
    while True:
        if den == 1:
            coeffs.append(num)
            break
        a = num // den
        coeffs.append(a)
        # remaining value t satisfies num/den = a - 1/t, so t < -1 again
        num, den = -den, num - a * den
    return ContinuedFraction(tuple(coeffs))


def value(cf: ContinuedFraction) -> Slope:
    """Evaluate a negative continued fraction back to its slope."""
    num, den = cf.coeffs[-1], 1
    for a in reversed(cf.coeffs[:-1]):
        num, den = a * num - den, num
    return Slope(num, den)


def successor(s: Slope) -> Slope:
    """Farthest clockwise Farey neighbor of s < -1 that is larger than s.

    Computed as [a_0, ..., a_n + 1], cascading the collapse rule: any
    trailing -1 created by the bump is dropped and the previous
    coefficient bumped, until all coefficients are <= -2 again.
    """
    coeffs = list(expand(s).coeffs)
    coeffs[-1] += 1
    while len(coeffs) > 1 and coeffs[-1] == -1:
        coeffs.pop()
        coeffs[-1] += 1
    if coeffs == [-1]:
        return Slope(-1, 1)
    return value(ContinuedFraction(tuple(coeffs)))


def ancestor(s: Slope) -> Slope:
    """Farthest anticlockwise Farey neighbor of s < -1 that is smaller.

    Drops the last coefficient of the expansion; for negative integers
    the result is infinity.
    """
    coeffs = expand(s).coeffs
    if len(coeffs) == 1:
        return INFINITY
    return value(ContinuedFraction(coeffs[:-1]))


def _bezout(a: int, b: int) -> tuple[int, int]:
    # (x, y) with x*a + y*b == 1, for coprime a, b.
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r == -1:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def _next_toward(v: Slope, target: Slope) -> Slope:
    """Farthest clockwise neighbor of v inside the clockwise arc (v, target]."""
    if has_edge(v, target):
        return target
    # Send v to infinity by a determinant-one change of basis; neighbors of
    # infinity are the integers and the farthest one inside the arc is the
    # floor of the transformed target.
    x, y = _bezout(v.num, v.den)
    tn = x * target.num + y * target.den
    td = -v.den * target.num + v.num * target.den
    if td < 0:
        tn, td = -tn, -td
    n = tn // td
    return Slope(v.num * n - y, v.den * n + x)


def _minimal_vertices(r: Slope, s: Slope) -> tuple[Slope, ...]:
    if r == s:
        raise FareyError("minimal path needs distinct endpoints")
    # |dot(v, s)| strictly decreases along a minimal path and is 0 at s
    limit = abs(dot(r, s)) + 1
    out = [r]
    cur = r
    while cur != s:
        cur = _next_toward(cur, s)
        out.append(cur)
        if len(out) > limit:
            raise FareyError("runaway minimal path")
    return tuple(out)


def minimal_path(r: Slope, s: Slope) -> FareyPath:
    """The unique shortest clockwise edge-path from r to s."""
    return FareyPath(_minimal_vertices(r, s))


def _block_ranges(vertices: tuple[Slope, ...]) -> tuple[tuple[int, ...], ...]:
    edges = len(vertices) - 1
    blocks: list[list[int]] = [[0]]
    for e in range(1, edges):
        # consecutive edges share a continued fraction block exactly when
        # the outer vertices of the triple pair to determinant +-2
        if abs(dot(vertices[e - 1], vertices[e + 1])) == 2:
            blocks[-1].append(e)
        else:
            blocks.append([e])
    return tuple(tuple(b) for b in blocks)


def block_structure(path: FareyPath) -> tuple[tuple[int, ...], ...]:
    """Partition of a path's edge indices into maximal continued
    fraction blocks."""
    return _block_ranges(path.vertices)
