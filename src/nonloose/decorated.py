"""Decorated Farey paths and the tightness calculus built on them.

A decorated path encodes a contact structure on a thickened torus, a
solid torus, or a lens space as a clockwise Farey path whose edges carry
basic-slice signs.  Tightness is decided by one walk of consistent
shortenings (sign-matched vertex removals): each step merges the two
edges at the first removable vertex, and the walk ends at the minimal
path, or at a vertex whose edges carry opposite signs, where the
structure is overtwisted.  Structures are counted and enumerated up to
shuffle equivalence, as per-block minus counts.  The walk keeps only
its current path; nothing is memoized across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import product
from typing import Collection, Optional, Union

from .cfrac import FareyPath, _block_lengths, _edge_ranges, _minimal_vertices
from .farey import (
    ZERO,
    SignedVector,
    Slope,
    cross,
    farey_diff,
    has_edge,
)


class Sign(IntEnum):
    MINUS = -1
    UNSIGNED = 0
    PLUS = 1

    def __str__(self) -> str:
        return {Sign.MINUS: "-", Sign.UNSIGNED: "", Sign.PLUS: "+"}[self]


class DecorationError(ValueError):
    """A decorated path or context violated its construction rules."""


class ClassificationError(ValueError):
    """Raised when inputs are invalid or an arm pattern cannot be certified;
    problems holds one message per problem, and the text joins them."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class DecoratedPath:
    """A clockwise Farey path with one basic-slice sign per edge.

    At most one edge may be unsigned, and only the first or last edge;
    fully signed paths are allowed.
    """

    path: FareyPath
    signs: tuple[Sign, ...]

    def __post_init__(self) -> None:
        edges = len(self.path)
        if len(self.signs) != edges:
            raise DecorationError("need exactly one sign per edge")
        if not all(isinstance(s, Sign) for s in self.signs):
            raise DecorationError("every sign must be a Sign member")
        unsigned = [i for i, s in enumerate(self.signs) if s is Sign.UNSIGNED]
        if len(unsigned) > 1:
            raise DecorationError("at most one edge may be unsigned")
        if unsigned and unsigned[0] not in (0, edges - 1):
            raise DecorationError("an unsigned edge must be first or last")

    @property
    def vertices(self) -> tuple[Slope, ...]:
        return self.path.vertices


@dataclass(frozen=True)
class ThickenedTorus:
    """T^2 x I with dividing slopes s0 (back face) and s1, s1 clockwise of s0."""

    s0: Slope
    s1: Slope


@dataclass(frozen=True)
class LowerSolidTorus:
    """Solid torus whose meridian is collapsed on the anticlockwise side.

    Structures correspond to minimal paths from the meridian clockwise to
    the boundary slope, signed on every edge except the first.
    """

    meridian: Slope
    boundary: Slope


@dataclass(frozen=True)
class UpperSolidTorus:
    """Solid torus whose meridian is collapsed on the clockwise side.

    Structures correspond to minimal paths from the boundary slope
    clockwise to the meridian, signed on every edge except the last.
    """

    meridian: Slope
    boundary: Slope


@dataclass(frozen=True)
class LensSpace:
    """L(p, q), the result of -p/q surgery on the unknot; (1, 1) is S^3."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 1 and self.q == 1:
            return
        if not (0 < self.q < self.p) or math.gcd(self.p, self.q) != 1:
            raise ClassificationError(
                f"lens space needs 0 < q < p coprime, or (1, 1); got ({self.p}, {self.q})"
            )

    @property
    def qbar(self) -> int:
        """The inverse of q mod p, normalized to 1 <= qbar <= p."""
        return pow(self.q, -1, self.p) if self.p > 1 else 1

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


Lens = LensSpace

Context = Union[ThickenedTorus, LowerSolidTorus, UpperSolidTorus, LensSpace]


@dataclass(frozen=True)
class ShuffleClass:
    """A decorated path up to shuffling: per-block minus counts.

    minus_counts is aligned with the continued fraction blocks of the
    path and counts minus signs among the signed edges of each block;
    unsigned_positions lists the terminal edges carrying no sign (two of
    them for lens spaces, at most one otherwise).
    """

    path: tuple[Slope, ...]
    minus_counts: tuple[int, ...]
    unsigned_positions: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "path": [str(s) for s in self.path],
            "minus": list(self.minus_counts),
        }


def _context_data(c: Context) -> tuple[tuple[Slope, ...], frozenset]:
    """Minimal path and unsigned edge set realizing a context."""
    if isinstance(c, ThickenedTorus):
        return _minimal_vertices(c.s0, c.s1), frozenset()
    if isinstance(c, LowerSolidTorus):
        return _minimal_vertices(c.meridian, c.boundary), frozenset({0})
    if isinstance(c, UpperSolidTorus):
        verts = _minimal_vertices(c.boundary, c.meridian)
        return verts, frozenset({len(verts) - 2})
    if isinstance(c, LensSpace):
        verts = _minimal_vertices(Slope(-c.p, c.q), ZERO)
        return verts, frozenset({0, len(verts) - 2})
    raise DecorationError(f"unknown context {c!r}")


def _signed_sizes(vertices: tuple[Slope, ...], unsigned: Collection[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # edges and signed edges per continued fraction block; unsigned edges are
    # terminal, so an unsigned edge 0 leaves the first block, any other the last
    lengths = _block_lengths(vertices)
    sizes = lengths[:]
    if 0 in unsigned:
        sizes[0] -= 1
    if max(unsigned, default=0) > 0:
        sizes[-1] -= 1
    return tuple(lengths), tuple(sizes)


def _minus_counts(d: DecoratedPath) -> tuple[int, ...]:
    lengths, _ = _signed_sizes(d.vertices, ())
    return tuple(sum(d.signs[e] is Sign.MINUS for e in r) for r in _edge_ranges(lengths))


def canonicalize(d: DecoratedPath) -> ShuffleClass:
    """Shuffle class of a decorated minimal path.

    Two decorations of the same minimal path are shuffle equivalent
    exactly when they canonicalize to the same value.  Non-minimal paths
    are rejected; their canonical form is not defined.
    """
    vertices = d.vertices
    if vertices != _minimal_vertices(vertices[0], vertices[-1]):
        raise DecorationError("canonical form is defined on minimal paths only")
    unsigned = tuple(i for i, s in enumerate(d.signs) if s is Sign.UNSIGNED)
    return ShuffleClass(vertices, _minus_counts(d), unsigned)


@dataclass(frozen=True)
class ShorteningResult:
    path: DecoratedPath
    consistent: bool


def shorten_once(d: DecoratedPath, i: int) -> ShorteningResult:
    """Remove interior vertex i, merging its two edges.

    The merge is consistent when the removed edges carry a common sign,
    which the new edge inherits, or when one of them is unsigned, in
    which case it absorbs the other and the new edge is unsigned.  An
    inconsistent merge (opposite signs) is reported through the flag; the
    returned path then carries the earlier edge's sign, a choice with no
    meaning since the structure is overtwisted.
    """
    vertices = d.vertices
    if not 1 <= i <= len(vertices) - 2:
        raise DecorationError("only interior vertices can be removed")
    if not has_edge(vertices[i - 1], vertices[i + 1]):
        raise DecorationError("the neighbors of the removed vertex must be adjacent")
    s_l, s_r = d.signs[i - 1], d.signs[i]
    if Sign.UNSIGNED in (s_l, s_r):
        merged, consistent = Sign.UNSIGNED, True
    elif s_l == s_r:
        merged, consistent = s_l, True
    else:
        merged, consistent = s_l, False
    new_path = FareyPath(vertices[:i] + vertices[i + 1 :])
    new_signs = d.signs[: i - 1] + (merged,) + d.signs[i + 1 :]
    return ShorteningResult(DecoratedPath(new_path, new_signs), consistent)


def shorten_to_minimal(d: DecoratedPath) -> Optional[DecoratedPath]:
    """The minimal decorated path that consistent shortenings reach from d,
    or None if they reach none.

    Each step merges, with shorten_once, the two edges at the first vertex
    whose neighbors share a Farey edge; a path with no such vertex is
    minimal.  The walk stops at the first inconsistent merge: two signed
    edges there with opposite signs make the structure overtwisted (see
    is_tight), so no shuffle or other order of merges can get past it.
    """
    while True:
        v = d.vertices
        j = next((i for i in range(1, len(v) - 1) if has_edge(v[i - 1], v[i + 1])), None)
        if j is None:
            return d
        step = shorten_once(d, j)
        if not step.consistent:
            return None
        d = step.path


def _check_against_context(d: DecoratedPath, c: Context) -> None:
    vertices = d.vertices
    unsigned = [i for i, s in enumerate(d.signs) if s is Sign.UNSIGNED]
    if isinstance(c, ThickenedTorus):
        if unsigned:
            raise DecorationError("thickened torus paths carry a sign on every edge")
        if vertices[0] != c.s0 or vertices[-1] != c.s1:
            raise DecorationError("path endpoints do not match the boundary slopes")
    elif isinstance(c, LowerSolidTorus):
        if unsigned != [0]:
            raise DecorationError("a lower solid torus leaves exactly the first edge unsigned")
        if vertices[0] != c.meridian or vertices[-1] != c.boundary:
            raise DecorationError("path endpoints do not match the torus data")
    elif isinstance(c, UpperSolidTorus):
        if unsigned != [len(vertices) - 2]:
            raise DecorationError("an upper solid torus leaves exactly the last edge unsigned")
        if vertices[0] != c.boundary or vertices[-1] != c.meridian:
            raise DecorationError("path endpoints do not match the torus data")
    else:
        # a lens-space structure needs both terminal edges unsigned, which
        # a DecoratedPath cannot carry; tightness there is a counting
        # question answered by count_tight/enumerate_tight
        raise DecorationError("tightness of decorated paths is not defined on lens contexts")


def is_tight(d: DecoratedPath, c: Context) -> bool:
    """Decide tightness of the structure a decorated path describes.

    True exactly when shorten_to_minimal reaches the minimal path for the
    given boundary data.  Any consistent shortening the walk takes gives
    the same verdict: a consistent shortening glues two basic slices of
    one sign into a basic slice of that sign, and a shuffle inside a
    continued fraction block is an isotopy (K. Honda, On the
    classification of tight contact structures I, Geom. Topol. 4 (2000)
    309-368).  So neither move changes the contact structure, and neither
    changes the verdict.  Where two signed edges meet at a removable
    vertex, their basic slices make up a thickened torus whose boundary
    slopes share a Farey edge, which is tight only as one basic slice:
    opposite signs there make the structure overtwisted, in every
    decoration of it.
    """
    _check_against_context(d, c)
    return shorten_to_minimal(d) is not None


def count_tight(c: Context) -> int:
    """Number of tight structures on a context, up to isotopy.

    Product over the continued fraction blocks of the context's minimal
    path of (number of signed edges in the block + 1).
    """
    vertices, unsigned = _context_data(c)
    _, sizes = _signed_sizes(vertices, unsigned)
    return math.prod(s + 1 for s in sizes)


def _shuffle_counts(sizes: tuple[int, ...]):
    # minus counts of every tight structure, given the signed block sizes
    return product(*(range(s + 1) for s in sizes))


def enumerate_tight(c: Context) -> list[ShuffleClass]:
    """All tight structures on a context as shuffle classes."""
    vertices, unsigned = _context_data(c)
    _, sizes = _signed_sizes(vertices, unsigned)
    pos = tuple(sorted(unsigned))
    return [ShuffleClass(vertices, counts, pos) for counts in _shuffle_counts(sizes)]


def relative_euler(d: DecoratedPath) -> SignedVector:
    """Curve class Poincare dual to the relative Euler class.

    Sum over the signed edges of sign times the unreduced difference of
    the edge's endpoints; unsigned edges contribute nothing.
    """
    total = SignedVector(0, 0)
    vertices = d.vertices
    for e, sg in enumerate(d.signs):
        if sg is Sign.UNSIGNED:
            continue
        total = total + farey_diff(vertices[e + 1], vertices[e]).scaled(int(sg))
    return total


def euler_on_disk(d: DecoratedPath, meridian: Slope) -> int:
    """Relative Euler class evaluated on the meridian disk.

    Pairing of the relative Euler curve with the meridian class,
    normalized so that a single positive edge from -2 to -1 evaluated on
    the 0-meridian gives +1.
    """
    return cross(relative_euler(d), meridian)


def _block_pairings(
    vertices: tuple[Slope, ...], lengths: tuple[int, ...], sizes: tuple[int, ...], meridian: Slope
) -> tuple[tuple[int, int], ...]:
    # (pairing of the block's edge class with the meridian, signed size)
    # per block, from the lengths and sizes _signed_sizes gives
    out = []
    for edges, size in zip(_edge_ranges(lengths), sizes):
        diffs = {farey_diff(vertices[e + 1], vertices[e]) for e in edges}
        if len(diffs) != 1:
            raise DecorationError("block crosses an infinity representative change")
        out.append((cross(diffs.pop(), meridian), size))
    return tuple(out)


def _paired_euler(pairings: tuple[tuple[int, int], ...], minus_counts: tuple[int, ...]) -> int:
    return sum(pairing * (size - 2 * minus) for (pairing, size), minus in zip(pairings, minus_counts))


def shuffle_euler_on_disk(sc: ShuffleClass, meridian: Slope) -> int:
    """euler_on_disk computed from a shuffle class.

    Well defined because all edges of one continued fraction block share
    the same endpoint difference, so only the per-block sign totals
    matter.
    """
    lengths, sizes = _signed_sizes(sc.path, sc.unsigned_positions)
    return _paired_euler(_block_pairings(sc.path, lengths, sizes, meridian), sc.minus_counts)
