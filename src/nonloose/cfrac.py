"""Negative continued fractions and minimal clockwise Farey paths.

Slopes below -1 expand uniquely as a_0 - 1/(a_1 - 1/(... - 1/a_n)) with
every coefficient a_i <= -2, in one floor division per coefficient or per
run of -2s.  The two Farey parents of such a slope n/d, its neighbors of
smaller denominator, come in closed form from one modular inverse, of -n
mod d: the larger is the "successor", the farthest clockwise neighbor
above it, and the smaller the "ancestor", whose expansion drops a_n.
Minimal clockwise paths step from each vertex to its farthest clockwise
neighbor inside the remaining arc, read off after a determinant-one change
of basis sends the vertex to infinity; only the first vertex needs an
inverse, as each later basis comes from the vertex before it, and equal
endpoints are refused by their pairing, 0.  The walk goes one continued
fraction block at a time: inside a block consecutive vertices differ by
one fixed vector, so each block takes one floor division however long it
is.  Vertices are built only when a path is expanded from its blocks,
each primitive because Farey neighbors pair to determinant one, so with
no gcd.  Paths and expansions built valid by the engine skip their check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate, pairwise, repeat
from typing import Iterator

from .farey import INFINITY, FareyError, Slope, _primitive, cw_between, dot, has_edge


@dataclass(frozen=True, slots=True)
class ContinuedFraction:
    """Coefficients [a_0, ..., a_n] of a negative continued fraction."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise FareyError("continued fraction needs at least one coefficient")
        if max(self.coeffs) > -2:
            raise FareyError("negative continued fraction coefficients must be <= -2")

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.coeffs) + "]"


@dataclass(frozen=True, slots=True)
class FareyPath:
    """A strictly clockwise edge-path in the Farey graph.

    Consecutive vertices are Farey-adjacent, all vertices are distinct,
    and every vertex lies on the closed clockwise arc from the first
    vertex to the last, so the path winds less than once around.  Checked
    with has_edge and cw_between, skipped for engine paths (_trusted_path).
    """

    vertices: tuple[Slope, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 2:
            raise FareyError("a path needs at least one edge")
        if len(set(v)) != len(v):
            raise FareyError("path vertices must be distinct")
        for a, x in pairwise(v):
            if not has_edge(a, x):
                raise FareyError(f"{a} and {x} are not adjacent")
            if not cw_between(a, x, v[-1]):  # a != v[-1], as the vertices are distinct
                raise FareyError("path is not traversed clockwise")

    def __len__(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.vertices)


_new, _set_vertices, _set_coeffs = object.__new__, FareyPath.vertices.__set__, ContinuedFraction.coeffs.__set__


def _trusted_path(vertices: tuple[Slope, ...]) -> FareyPath:
    # FareyPath(vertices) for a path its caller proves valid, with no check
    path = _new(FareyPath)
    _set_vertices(path, vertices)
    return path


def _below_minus_one(s: Slope) -> tuple[int, int]:
    # the domain of expand and of the Farey parents: (num, den) of s < -1
    if s.num >= -s.den:  # infinity, stored as 1/0, is caught too
        raise FareyError(f"negative continued fractions require s < -1, got {s}")
    return s.num, s.den


def expand(s: Slope) -> ContinuedFraction:
    """Negative continued fraction of a rational slope s < -1, in one floor
    division per coefficient or per run of -2s, however long."""
    num, den = _below_minus_one(s)
    coeffs = []
    while den > 1:
        a = num // den
        if a == -2:
            # -2 <= num/den < -1, so e >= 1; each -2 keeps num + den = -e and
            # lowers den by e while den > e, leaving den % e, or 1 if e is 1
            e = -num - den
            m = (den - 1) // e
            if m > 1:  # a lone -2 is cheaper as an ordinary step
                if len(coeffs) + m >= sys.maxsize:  # one more coefficient follows
                    raise FareyError(f"continued fraction of {s} has too many coefficients for a tuple")
                coeffs += (-2,) * m
                den -= m * e
                num = -e - den
                continue
        coeffs.append(a)
        # remaining value t satisfies num/den = a - 1/t, so t < -1 again
        num, den = -den, num - a * den
    coeffs.append(num)
    cf = _new(ContinuedFraction)
    _set_coeffs(cf, tuple(coeffs))  # floors of values below -1, so each <= -2
    return cf


def value(cf: ContinuedFraction) -> Slope:
    """Evaluate a negative continued fraction back to its slope."""
    num, den = cf.coeffs[-1], 1
    for a in reversed(cf.coeffs[:-1]):
        num, den = a * num - den, num
    # consecutive convergents pair to +-1
    return _primitive(num, den)


def _larger_parent(s: Slope) -> tuple[int, int]:
    # the larger Farey parent u/v of s = n/d < -1 has n*v - d*u = -1 and
    # 0 <= v < d, so v = (-n)^-1 mod d, one inverse, 0 exactly when d = 1
    n, d = _below_minus_one(s)
    v = pow(-n, -1, d)
    return (1 + v * n) // d, v


def successor(s: Slope) -> Slope:
    """Farthest clockwise Farey neighbor of s < -1 that is larger than s.

    For s = n/d this is the larger Farey parent u/v; a negative integer
    n gives n + 1.
    """
    u, v = _larger_parent(s)
    # a Farey parent pairs to -1 with s
    return _primitive(s.num + 1, 1) if v == 0 else _primitive(u, v)


def ancestor(s: Slope) -> Slope:
    """Farthest anticlockwise Farey neighbor of s < -1 that is smaller.

    For s = n/d this is the smaller Farey parent (n - u)/(d - v), whose
    expansion drops the last coefficient of s; negative integers give
    infinity.
    """
    u, v = _larger_parent(s)
    if v == 0:
        return INFINITY
    # a Farey parent pairs to +1 with s
    return _primitive(s.num - u, s.den - v)


def _minimal_blocks(r: Slope, s: Slope) -> Iterator[tuple[int, int, int, int, int]]:
    # (vn, vd, wn, wd, k) per continued fraction block of the minimal path r
    # -> s, in order: the block's k edges join the vertices +-(v - i*w), i =
    # k..0, so v is its last vertex.  The walk keeps a vertex v, the one
    # before it, u (dot(u, v) = 1), d = dot(v, s) and e = dot(u, s).  M =
    # [[x, y], [-vd, vn]] with x*vn + y*vd = 1 sends v to infinity, whose
    # neighbors are the integers, and s to e/d, so the next vertex is n*v - u
    # with n = e // d, where u = (y, -x) at the start.  Each step leaves d and
    # e of opposite signs with |d| < |e|, so every later step has n <= -2,
    # and two edges share a block exactly across an n = -2 step, as their
    # outer vertices pair to -2.  Such a step goes v -> -(v + w), w = v + u,
    # and |d| falls by |d + e| at each, so a run takes |d| // |d + e| steps,
    # the last of them onto s when that divides
    sn, sd = s.num, s.den
    vn, vd = r.num, r.den
    d = vn * sd - vd * sn
    if not d:  # canonical slopes pair to 0 exactly when equal
        raise FareyError("minimal path needs distinct endpoints")
    x = pow(vn, -1, vd) if vd else 1
    un, ud = (1 - x * vn) // vd if vd else 0, -x
    e = un * sd - ud * sn
    while d:
        # a step of any n opens the block, then a run of n = -2 steps
        n = e // d
        vn, vd, un, ud, d, e = n * vn - un, n * vd - ud, vn, vd, n * d - e, d
        wn, wd, dw = vn + un, vd + ud, d + e
        m = -d // dw
        if m:
            vn, vd, d = vn + m * wn, vd + m * wd, d + m * dw
            un, ud, e = wn - vn, wd - vd, dw - d
        yield vn, vd, wn, wd, m + 1


def _minimal_vertices(r: Slope, s: Slope) -> tuple[Slope, ...]:
    # the block walk's vertices; the walk never builds a vertex itself
    out = [r]
    # |dot(v, s)| strictly decreases along a minimal path and is 0 at s
    limit = abs(dot(r, s)) + 1
    for vn, vd, wn, wd, k in _minimal_blocks(r, s):
        if k == 1:
            out.append(_primitive(vn, vd))  # Farey neighbors pair to +-1
        else:
            if len(out) + k > sys.maxsize:
                raise FareyError(f"minimal path from {r} to {s} has too many vertices for a tuple")
            # a block's vertices +-(v - i*w), i = k - 1..0, pair to +-1 in turn
            nums = range(vn - (k - 1) * wn, vn + wn, wn) if wn else repeat(vn, k)
            dens = range(vd - (k - 1) * wd, vd + wd, wd) if wd else repeat(vd, k)
            out.extend(map(_primitive, nums, dens))
        if len(out) > limit:
            raise FareyError("runaway minimal path")
    return tuple(out)


def minimal_path(r: Slope, s: Slope) -> FareyPath:
    """The unique shortest clockwise edge-path from r to s."""
    return _trusted_path(_minimal_vertices(r, s))  # the block walk steps clockwise along Farey edges


def _block_lengths(vertices: tuple[Slope, ...]) -> list[int]:
    # edges per maximal continued fraction block, in order: two edges share
    # a block exactly when the outer vertices of their triple pair to +-2
    lengths, n = [], 1
    for a, c in zip(vertices, vertices[2:]):
        if a.num * c.den - a.den * c.num in (2, -2):
            n += 1
        else:
            lengths.append(n)
            n = 1
    lengths.append(n)
    return lengths


def block_structure(path: FareyPath) -> tuple[tuple[int, ...], ...]:
    """Partition of a path's edge indices into maximal continued
    fraction blocks."""
    bounds = accumulate(_block_lengths(path.vertices), initial=0)
    return tuple(tuple(range(a, b)) for a, b in pairwise(bounds))
