"""Decorated Farey paths and the tightness calculus built on them.

A decorated path encodes a contact structure on a thickened torus, a
solid torus, or a lens space as a clockwise Farey path whose edges carry
basic-slice signs.  Tightness is decided by searching for a sequence of
consistent shortenings (sign-matched vertex removals, with shuffling of
signs inside continued fraction blocks allowed between steps) that
reaches the minimal path; structures are counted and enumerated up to
shuffle equivalence.

The search works on shuffle classes directly - a path together with the
number of minus signs carried by each continued fraction block - rather
than on concrete sign tuples, so paths with long blocks stay tractable.
Its visited set and its move table, a ShorteningGeometry, live for one
is_tight call; nothing is memoized across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import product
from operator import itemgetter
from typing import Collection, Optional, Union

from .cfrac import FareyPath, _block_lengths, _edge_ranges, _minimal_vertices
from .farey import (
    ZERO,
    SignedVector,
    Slope,
    cross,
    dot,
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


class ShorteningGeometry(dict):
    """Moves of a shortening search from one base path, by removal mask.

    Every path the search meets is the base path less some vertices (a
    bitmask of removed positions), and its unsigned edges stay terminal.
    A mask's moves are read off the block lengths and signed sizes of its
    path on first lookup and kept until the object is dropped.
    """

    def __init__(self, vertices: tuple[Slope, ...], first_unsigned: bool, last_unsigned: bool):
        self.vertices = vertices
        self.target = _minimal_vertices(vertices[0], vertices[-1])
        self._unsigned = first_unsigned, last_unsigned

    def __missing__(self, mask: int) -> Optional[tuple]:
        # None once the path is minimal, else one move per removable vertex:
        # (child mask, left block bl, signed sizes of blocks bl and bl + 1,
        # each merged edge signed?, its block keeps other edges?, the merged
        # edge joins each neighbor block?)
        kept = [i for i in range(len(self.vertices)) if not mask >> i & 1]
        path = itemgetter(*kept)(self.vertices)  # the endpoints always stay
        edges = len(path) - 1
        if edges == len(self.target) - 1:
            assert path == self.target
            self[mask] = None
            return None
        first_u, last_u = self._unsigned
        lengths, sizes = _signed_sizes(path, (0,) * first_u + (edges - 1,) * last_u)
        moves = []
        j = 0
        for bl in range(len(lengths) - 1):
            # vertex j ends block bl (inside a block the outer |dot| is 2); if its
            # neighbors pair to 1 it goes, merging bl's last edge with bl + 1's first
            j += lengths[bl]
            if abs(dot(path[j - 1], path[j + 1])) == 1:
                moves.append((
                    mask | 1 << kept[j], bl, sizes[bl], sizes[bl + 1],
                    int(not (j == 1 and first_u)), int(not (j == edges - 1 and last_u)),
                    lengths[bl] > 1, lengths[bl + 1] > 1,
                    j >= 2 and abs(dot(path[j - 2], path[j + 1])) == 2,
                    j + 2 <= edges and abs(dot(path[j - 1], path[j + 2])) == 2,
                ))
        self[mask] = moves = tuple(moves)
        return moves


def _regroup(counts, bl, left_n, right_n, merged, keep_l, keep_r, join_l, join_r):
    # minus counts of the shortened path, from the surviving counts of the
    # two merged blocks and the merged edge's own count
    left = counts[:bl] + (left_n,) if keep_l else counts[:bl]
    right = (right_n,) + counts[bl + 2 :] if keep_r else counts[bl + 2 :]
    assert keep_l or left_n == 0
    assert keep_r or right_n == 0
    if join_l:
        merged, left = merged + left[-1], left[:-1]
    if join_r:
        merged, right = merged + right[0], right[1:]
    return left + (merged,) + right


def shorten_to_minimal(geometry: ShorteningGeometry, counts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Minus counts of every minimal-path shuffle class that consistent
    shortenings reach from the geometry's base path with these counts.

    Each step removes a vertex whose neighbors are adjacent, with the two
    merged edges presenting a common sign (or one of them unsigned, which
    absorbs the other).  Iterative depth-first search; the visited set
    lives for this call only.
    """
    stack = [(0, counts)]
    seen = set(stack)
    finals: set[tuple[int, ...]] = set()
    while stack:
        mask, c = stack.pop()
        moves = geometry[mask]
        if moves is None:
            finals.add(c)
            continue
        for child, bl, size_l, size_r, take_l, take_r, keep_l, keep_r, join_l, join_r in moves:
            n_l, n_r = c[bl], c[bl + 1]
            options = []
            if size_l - n_l >= take_l and size_r - n_r >= take_r:
                options.append((n_l, n_r, 0))
            if (take_l or take_r) and n_l >= take_l and n_r >= take_r:
                options.append((n_l - take_l, n_r - take_r, take_l & take_r))
            for left_n, right_n, merged in options:
                state = child, _regroup(c, bl, left_n, right_n, merged, keep_l, keep_r, join_l, join_r)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return finals


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

    True exactly when some sequence of consistent shortenings, shuffling
    within continued fraction blocks between steps, reaches the minimal
    path for the given boundary data.
    """
    _check_against_context(d, c)
    unsigned = d.signs[0] is Sign.UNSIGNED, d.signs[-1] is Sign.UNSIGNED
    return bool(shorten_to_minimal(ShorteningGeometry(d.vertices, *unsigned), _minus_counts(d)))


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
