"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from first principles (lattice
counting, breadth-first search, explicit state enumeration) so the
package's closed-form or search-based answers can be checked against an
implementation that shares no code path with them.  The `*_by_*`
functions and `check_path_by_arcs` keep the package's earlier step-by-step
versions of primitives it now computes in closed form, as references.
`mediant_by_equality` keeps farey_sum's earlier operand checks, slope
equality and then has_edge, where the package now reads both from one
pairing, and `larger_parent_by_negation` its earlier Farey parent, the
negated inverse of n reduced mod d, where the package now inverts -n.
`check_path_by_dots` keeps FareyPath's earlier check, one loop over
determinant signs, where the package now calls has_edge and cw_between.
`expand_by_steps` keeps the package's earlier expansion, one floor
division per coefficient, where the package now takes a run of -2s in one.
`ShorteningGeometry`, `_regroup` and `shorten_to_minimal(geometry, counts)`
keep the package's earlier tightness decision: a search over removal masks
and per-block minus counts that returns every minimal-path class it
reaches, where the package now takes one walk of consistent shortenings.
`classification_json_by_dumps` keeps the package's earlier JSON renderer,
the general-purpose `json.dumps` encoder, and `classification_svg_by_floats`
its earlier SVG renderer, which formats a member's position at each of its
uses, where the package now formats each position once.  `_block_pairings` and
`shuffle_euler_on_disk` keep the package's earlier Euler evaluation: each
block's edge class, read as the set of its edges' endpoint differences,
paired with the meridian, where the package now reads one pairing per
block from its first edge.  `check_canonical_slopes` checks slopes the
package builds without Slope(...) against the ones Slope(...) builds.
`classify_by_graph` keeps the package's earlier classifier pass: class
records built by their dataclass constructors, the stabilization graph
keyed by (minus counts, sign) tuples with a list of sources each, and a
set of claimed (level, index) pairs, where the package now uses record
builders, per-sign dicts of plain indices and one claim mark per class.
`_signed_sizes` keeps the package's earlier block reader for the paths it
builds, a rescan of the path's vertex triples, and counts each block's
unsigned edges by position, where the package now takes each context's
blocks from the block walk and takes its terminal unsigned edges off the
end blocks by the context's rule.  `check_against_context_by_types`
keeps the package's earlier context check, one isinstance branch per
context with its endpoints and unsigned edges stated again, where the
package now reads both from the context's one rule.
"""

from __future__ import annotations

import copy
import json
import pickle
from collections import Counter, deque
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice
from math import gcd
from operator import getitem, itemgetter
from typing import Collection, NoReturn, Optional

from nonloose.cfrac import ContinuedFraction, _below_minus_one, _block_lengths, _minimal_vertices, expand, value
from nonloose.decorated import (
    ClassificationError,
    DecorationError,
    LowerSolidTorus,
    ShuffleClass,
    Sign,
    ThickenedTorus,
    UpperSolidTorus,
    _shuffle_counts,
)
from nonloose.farey import (
    INFINITY,
    FareyError,
    Slope,
    cross,
    dot,
    farey_diff,
    farey_sum,
    has_edge,
    _primitive,
)
from nonloose import unknots
from nonloose.unknots import MountainRange, NonLooseClass, RangeKind, RangeMember, slope_k


def intersection_count(x: Slope, y: Slope) -> int:
    """Minimal intersection number of two curve classes on the torus.

    The y-family lifts to the parallel lines {d*u - c*v = k + 1/2}
    (offset to miss the base point); walk the lift of x from (0, 0) to
    (a, b) and count how many of those lines it crosses.
    """
    a, b = x.num, x.den
    c, d = y.num, y.den
    end = d * a - c * b
    crossings = 0
    for k in range(-abs(end) - 1, abs(end) + 1):
        level = 2 * k + 1  # the line at height (2k+1)/2
        if 0 < level < 2 * end or 2 * end < level < 0:
            crossings += 1
    return crossings


def iterated_sum_by_steps(x: Slope, k: int, y: Slope) -> Slope:
    """k-fold mediant x (+) k*y taken one farey_sum at a time."""
    out = x
    for _ in range(k):
        out = farey_sum(out, y)
    return out


def mediant_by_equality(x: Slope, y: Slope) -> Slope:
    """farey_sum with its equal-slope check by Slope equality and its
    adjacency check by has_edge."""
    if x == y:
        raise FareyError("mediant of equal slopes is undefined")
    if not has_edge(x, y):
        raise FareyError(f"{x} and {y} are not adjacent in the Farey graph")
    if x.is_infinite or y.is_infinite:
        f = y if x.is_infinite else x
        inf_num = 1 if f.num >= 0 else -1
        # a mediant of Farey neighbours pairs to +-1 with each of them
        return _primitive(f.num + inf_num, f.den)
    return _primitive(x.num + y.num, x.den + y.den)


def euler_rep_by_subtraction(x: int, p: int) -> int:
    """Representative of x mod p in (-p, p], reached by adding or
    subtracting p one step at a time when x starts outside that window."""
    while x > p:
        x -= p
    while x <= -p:
        x += p
    return x


def _lt(x: Slope, y: Slope) -> bool:
    # total order underlying the cyclic one: finite slopes by value,
    # infinity maximal
    if x.is_infinite:
        return False
    if y.is_infinite:
        return True
    return x.num * y.den < y.num * x.den


def _le(x: Slope, y: Slope) -> bool:
    return x == y or _lt(x, y)


def cw_between_by_order(a: Slope, x: Slope, b: Slope) -> bool:
    """cw_between through the total order with infinity maximal, wrapping
    around from infinity to the most negative slopes when a > b."""
    if a == b:
        raise FareyError("clockwise arc needs distinct endpoints")
    if _lt(a, b):
        return _le(a, x) and _le(x, b)
    return _le(a, x) or _le(x, b)


def check_path_by_arcs(vertices: tuple[Slope, ...]) -> None:
    """FareyPath's validation, one has_edge and one cw_between_by_order
    call per edge; raises FareyError with FareyPath's message on a bad
    path."""
    v = vertices
    if len(v) < 2:
        raise FareyError("a path needs at least one edge")
    if len(set(v)) != len(v):
        raise FareyError("path vertices must be distinct")
    last = v[-1]
    for i in range(1, len(v)):
        if not has_edge(v[i - 1], v[i]):
            raise FareyError(f"{v[i - 1]} and {v[i]} are not adjacent")
        if not cw_between_by_order(v[i - 1], v[i], last):
            raise FareyError("path is not traversed clockwise")


def check_path_by_dots(vertices: tuple[Slope, ...]) -> None:
    """FareyPath's earlier validation, one loop over determinant signs that
    restates has_edge and cw_between and checks distinctness only after a
    failure; raises FareyError with FareyPath's message on a bad path."""
    v = vertices
    if len(v) < 2:
        raise FareyError("a path needs at least one edge")

    def fail(message: str) -> NoReturn:
        if len(set(v)) != len(v):
            raise FareyError("path vertices must be distinct")
        raise FareyError(message)

    # dot(x, y) <= 0 iff x <= y in the order with infinity maximal, so
    # cw_between(a, x, last) is read off the signs of dot(a, x), dot(a,
    # last) and dot(x, last).  A vertex passing both checks lies strictly
    # clockwise of a inside the arc a -> last, so vertices repeat only
    # through an early copy of last (a_last == 0).  That fails too, and
    # a failure checks distinctness first, as the messages are ordered
    ln, ld = v[-1].num, v[-1].den
    a = v[0]
    an, ad = a.num, a.den
    a_last = an * ld - ad * ln
    for x in v[1:]:
        xn, xd = x.num, x.den
        ax = an * xd - ad * xn
        if a_last == 0 or (ax != 1 and ax != -1):
            fail(f"{a} and {x} are not adjacent")
        x_last = xn * ld - xd * ln
        if (ax > 0 or x_last > 0) if a_last < 0 else (ax > 0 and x_last > 0):
            fail("path is not traversed clockwise")
        a, an, ad, a_last = x, xn, xd, x_last


def check_canonical_slopes(slopes) -> None:
    """Assert that each slope is a Slope with int fields, equal field for
    field to Slope(v.num, v.den) and with its hash, and that it behaves as
    that value does: copy, deepcopy and pickle round-trips, and
    FrozenInstanceError on assignment.  A Slope is its class and its two
    slots, so the checks run once per distinct pair, and the round-trips
    and assignment once per sign of num, finite or infinite."""
    seen, shapes = set(), set()
    for v in slopes:
        assert type(v) is Slope and type(v.num) is int and type(v.den) is int, repr(v)
        pair = (v.num, v.den)
        if pair in seen:
            continue
        seen.add(pair)
        c = Slope(*pair)
        assert pair == (c.num, c.den) and v == c and hash(v) == hash(c), repr(v)
        shape = ((v.num > 0) - (v.num < 0), v.den == 0)
        if shape in shapes:
            continue
        shapes.add(shape)
        for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(clone) is Slope and (clone.num, clone.den) == pair and clone == v, repr(v)
        try:
            v.num = c.num
        except FrozenInstanceError:
            continue
        raise AssertionError(f"{v!r} accepted an assignment")


def _bezout(a: int, b: int) -> tuple[int, int]:
    # (x, y) with x*a + y*b == 1, for coprime a, b, by extended Euclid
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
    # farthest clockwise neighbor of v inside the clockwise arc (v, target]:
    # a determinant-one change of basis sends v to infinity, whose
    # neighbors are the integers; take the floor of the moved target
    if has_edge(v, target):
        return target
    x, y = _bezout(v.num, v.den)
    tn = x * target.num + y * target.den
    td = -v.den * target.num + v.num * target.den
    if td < 0:
        tn, td = -tn, -td
    n = tn // td
    return Slope(v.num * n - y, v.den * n + x)


def minimal_vertices_by_bezout(r: Slope, s: Slope) -> tuple[Slope, ...]:
    """Minimal clockwise path from r to s, one extended Euclid per vertex."""
    if r == s:
        raise FareyError("minimal path needs distinct endpoints")
    limit = abs(dot(r, s)) + 1
    out = [r]
    cur = r
    while cur != s:
        cur = _next_toward(cur, s)
        out.append(cur)
        if len(out) > limit:
            raise FareyError("runaway minimal path")
    return tuple(out)


def minimal_vertices_by_steps(r: Slope, s: Slope) -> tuple[Slope, ...]:
    """Minimal clockwise path from r to s, one floor division and one
    determinant per vertex: the package's earlier walk, before it jumped
    whole continued fraction blocks."""
    if r == s:
        raise FareyError("minimal path needs distinct endpoints")
    sn, sd = s.num, s.den
    vn, vd = r.num, r.den
    # M = [[x, y], [-vd, vn]] with x*vn + y*vd = 1 sends v to infinity,
    # whose neighbors are the integers, and s to (x*sn + y*sd)/dot(v, s);
    # the next vertex is w = M^-1 (floor(M s), 1).  As dot(v, w) = 1, the
    # unreduced pair (-vd, vn) is the next (x, y): no Euclid per vertex, and
    # no gcd either, as w is built in canonical form
    x = pow(vn, -1, vd) if vd else 1
    y = (1 - x * vn) // vd if vd else 0
    d = vn * sd - vd * sn
    # |dot(v, s)| strictly decreases along a minimal path and is 0 at s
    limit = abs(d) + 1
    out = [r]
    while d != 1 and d != -1:
        n = (x * sn + y * sd) // d
        vn, vd, x, y = vn * n - y, vd * n + x, -vd, vn
        out.append(_primitive(vn, vd))  # consecutive walk vertices pair to +-1
        if len(out) >= limit:
            raise FareyError("runaway minimal path")
        d = vn * sd - vd * sn
    out.append(s)
    return tuple(out)


def minimal_path_length_bound(r: Slope, s: Slope) -> int:
    """Two plus the regular continued fraction quotients, after the
    integer part, of s moved by a determinant-one basis change that sends
    r to infinity; an upper bound on the vertices of the minimal path
    from r to s, cheap even when that path is long."""
    x, y = _bezout(r.num, r.den)
    a, b = x * s.num + y * s.den, dot(r, s)
    a %= b
    total = 2
    while a:
        q, a, b = b // a, b % a, a
        total += q
    return total


def expand_by_steps(s: Slope) -> ContinuedFraction:
    """Negative continued fraction of s < -1, one floor division per
    coefficient, run of -2s or not."""
    num, den = _below_minus_one(s)
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


def successor_by_expansion(s: Slope) -> Slope:
    """Successor as [a_0, ..., a_n + 1], dropping every trailing -1 the
    bump creates and bumping the coefficient before it."""
    coeffs = list(expand(s).coeffs)
    coeffs[-1] += 1
    while len(coeffs) > 1 and coeffs[-1] == -1:
        coeffs.pop()
        coeffs[-1] += 1
    if coeffs == [-1]:
        return Slope(-1, 1)
    return value(ContinuedFraction(tuple(coeffs)))


def ancestor_by_expansion(s: Slope) -> Slope:
    """Ancestor as the expansion with its last coefficient dropped;
    infinity for negative integers."""
    coeffs = expand(s).coeffs
    if len(coeffs) == 1:
        return INFINITY
    return value(ContinuedFraction(coeffs[:-1]))


def larger_parent_by_negation(s: Slope) -> tuple[int, int]:
    """(u, v) of the larger Farey parent u/v of s = n/d < -1, with
    v = -(n^-1 mod d) mod d."""
    n, d = _below_minus_one(s)
    v = -pow(n, -1, d) % d
    return (1 + v * n) // d, v


def bounded_slopes(height: int) -> list[Slope]:
    out = {INFINITY}
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            if gcd(abs(num), den) == 1:
                out.add(Slope(num, den))
    return sorted(out, key=lambda s: (s.den == 0, s.num, s.den))


def shortest_clockwise_paths(
    r: Slope, s: Slope, height: int
) -> list[tuple[Slope, ...]]:
    """All shortest clockwise edge-paths from r to s through slopes of
    bounded height, by breadth-first search."""
    pool = bounded_slopes(height)
    dist = {r: 0}
    parents: dict[Slope, list[Slope]] = {r: []}
    queue = deque([r])
    while queue:
        v = queue.popleft()
        if v == s:
            continue
        for w in pool:
            if w == v or not has_edge(v, w):
                continue
            if not cw_between_by_order(v, w, s):
                continue
            d = dist[v] + 1
            if w not in dist:
                dist[w] = d
                parents[w] = [v]
                queue.append(w)
            elif dist[w] == d:
                parents[w].append(v)
    if s not in dist:
        return []
    paths: list[tuple[Slope, ...]] = []

    def unwind(v: Slope, acc: list[Slope]) -> None:
        if v == r:
            paths.append(tuple(reversed(acc + [r])))
            return
        for p in parents[v]:
            unwind(p, acc + [v])

    unwind(s, [])
    return paths


@cache
def _slope_pool(height: int) -> tuple[Slope, ...]:
    # bounded_slopes built once per height for the neighbor searches below
    return tuple(bounded_slopes(height))


def farthest_larger_neighbor(s: Slope, height: int) -> Slope:
    """Brute-force successor: the largest-value bounded-height neighbor of
    s that is larger than s."""
    best = None
    for w in _slope_pool(height):
        if w.is_infinite or not has_edge(s, w):
            continue
        if w.num * s.den <= s.num * w.den:
            continue
        if best is None or w.num * best.den > best.num * w.den:
            best = w
    assert best is not None
    return best


def farthest_smaller_neighbor(s: Slope, height: int) -> Slope:
    """Brute-force ancestor; infinity for negative integers."""
    if s.den == 1:
        return INFINITY
    best = None
    for w in _slope_pool(height):
        if w.is_infinite or not has_edge(s, w):
            continue
        if w.num * s.den >= s.num * w.den:
            continue
        if best is None or w.num * best.den < best.num * w.den:
            best = w
    assert best is not None
    return best


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


def stabilized_counts_by_search(c: NonLooseClass, sign: Sign) -> set[tuple[int, ...]]:
    """Minus counts of every minimal-path class that the shortening search
    reaches from c's complement path with the edge s_{k-1} -> s_k, carrying
    the stabilization sign, put in front; empty when the result is loose.
    c must lie above level 0."""
    counts = ((1 if sign is Sign.MINUS else 0),) + c.complement.minus_counts
    return shorten_to_minimal(_stabilization_geometry(c), counts)


# (complement path, geometry) of the level searched last
_last_geometry: list[tuple] = []


def _stabilization_geometry(c: NonLooseClass) -> ShorteningGeometry:
    # the classes at one level share one complement path object, so one
    # move table serves all their stabilizations while a test walks them
    path = c.complement.path
    if _last_geometry and _last_geometry[0][0] is path:
        return _last_geometry[0][1]
    v = (slope_k(c.lens, c.knot, c.k - 1),) + path
    assert has_edge(v[0], v[1])
    # the new edge never joins the leading block of the old path: s_{k-1}
    # is adjacent to the old second vertex, so the triple has determinant 1
    assert abs(dot(v[0], v[2])) != 2
    geometry = ShorteningGeometry(v, False, True)
    _last_geometry[:] = [(path, geometry)]
    return geometry


def shortening_moves_by_outer_dots(
    vertices: tuple[Slope, ...], first_unsigned: bool, last_unsigned: bool, mask: int
):
    """ShorteningGeometry's moves for one removal mask, from one pass over
    the outer determinants of every vertex triple of the surviving path,
    read off a bit string of the mask: None once that path is minimal."""
    bits = format(mask, f"0{len(vertices)}b")[::-1]
    surv = [i for i, bit in enumerate(bits) if bit == "0"]
    edges = len(surv) - 1
    target = minimal_vertices_by_bezout(vertices[0], vertices[-1])
    if edges == len(target) - 1:
        assert tuple(vertices[i] for i in surv) == target
        return None
    num, den = [v.num for v in vertices], [v.den for v in vertices]

    def pair(a: int, b: int) -> int:
        return abs(num[surv[a]] * den[surv[b]] - den[surv[a]] * num[surv[b]])

    # |dot| of the neighbors of each interior vertex: 2 keeps its edges
    # in one continued fraction block, 1 makes the vertex removable
    outer = [0] + [pair(j - 1, j + 1) for j in range(1, edges)]
    block_of = list(accumulate((d != 2 for d in outer[1:]), initial=0))
    lengths = list(Counter(block_of).values())  # block_of never decreases
    sizes = lengths[:]
    sizes[0] -= first_unsigned
    sizes[-1] -= last_unsigned
    moves = []
    for j in range(1, edges):
        if outer[j] == 1:
            bl = block_of[j - 1]
            moves.append((
                mask | 1 << surv[j], bl, sizes[bl], sizes[bl + 1],
                int(not (j == 1 and first_unsigned)), int(not (j == edges - 1 and last_unsigned)),
                lengths[bl] > 1, lengths[bl + 1] > 1,
                j >= 2 and pair(j - 2, j + 1) == 2,
                j + 2 <= edges and pair(j - 1, j + 2) == 2,
            ))
    return tuple(moves)


def assemble_range_by_fractions(
    base: NonLooseClass,
    arms: dict[Sign, list[NonLooseClass]],
    k_max: int,
    problems: list[str],
    positive: bool = True,
):
    """Mountain range of a base and its arms of positively oriented
    classes, checked on Fraction invariants, with every stabilization edge
    built member by member and, for a negative knot, rebuilt with flipped
    signs.  Returns (kind, (base rot, base tb), euler, members, edges), the
    edges as (source id, sign, target id or None) triples, or None after
    appending a problem."""
    plus_arm, minus_arm = arms[Sign.PLUS], arms[Sign.MINUS]
    expected = k_max - base.k
    for sign, arm in ((Sign.PLUS, plus_arm), (Sign.MINUS, minus_arm)):
        if arm and len(arm) != expected:
            problems.append(f"{base.class_id}: {sign!s} arm stops at depth {len(arm)} < {expected}")
            return None
    if plus_arm and minus_arm:
        kind = RangeKind.V
    elif plus_arm:
        kind = RangeKind.FORWARD_SLASH
    elif minus_arm:
        kind = RangeKind.BACK_SLASH
    else:
        problems.append(f"{base.class_id}: base with no arms at k_max={k_max}")
        return None
    members = [RangeMember(base, "base", 0)]
    edges = [(base.class_id, Sign.PLUS, None), (base.class_id, Sign.MINUS, None)]
    for sign, arm, label in ((Sign.PLUS, plus_arm, "+"), (Sign.MINUS, minus_arm, "-")):
        below = base
        for i, member in enumerate(arm, start=1):
            want_rot = base.rot_q + (i if sign is Sign.PLUS else -i)
            if member.tb_q != base.tb_q + i or member.rot_q != want_rot:
                problems.append(f"{member.class_id}: invariants off the {label} arm pattern")
                return None
            if member.euler % base.lens.p != base.euler % base.lens.p:
                problems.append(f"{member.class_id}: Euler class leaves the structure")
                return None
            members.append(RangeMember(member, label, i))
            edges.append((member.class_id, sign, below.class_id))
            other = Sign.MINUS if sign is Sign.PLUS else Sign.PLUS
            edges.append((member.class_id, other, None))
            below = member
    if positive:
        return kind, (base.rot_q, base.tb_q), base.euler, tuple(members), tuple(edges)
    flip = {Sign.PLUS: Sign.MINUS, Sign.MINUS: Sign.PLUS}
    members = [
        RangeMember(
            replace(m.cls, rot_q=-m.cls.rot_q, knot=replace(m.cls.knot, positive=False)),
            {"+": "-", "-": "+", "base": "base"}[m.arm],
            m.index,
        )
        for m in members
    ]
    kind = {RangeKind.BACK_SLASH: RangeKind.FORWARD_SLASH, RangeKind.FORWARD_SLASH: RangeKind.BACK_SLASH}.get(kind, kind)
    edges = [(source, flip[sign], target) for source, sign, target in edges]
    return kind, (-base.rot_q, base.tb_q), base.euler, tuple(members), tuple(edges)



def _level_classes_by_init(lens, knot, k: int, level) -> tuple:
    # the level's classes, built by the dataclass constructors, with their
    # rots times p and the level's signed block sizes
    path, _, sizes, pairings = level
    p, orient = lens.p, 1 if knot.positive else -1
    tb_q = Fraction(abs(path[0].num), p)
    unsigned = (len(path) - 2,)
    tables = [[w * (size - 2 * m) for m in range(size + 1)] for w, size in pairings]
    classes, rots = [], []
    for counts in _shuffle_counts(sizes):
        e_disk = sum(map(getitem, tables, counts))
        rot = orient * e_disk
        sc = ShuffleClass(path, counts, unsigned)
        classes.append(NonLooseClass(lens, knot, path[0], sc, tb_q, Fraction(rot, p), unknots._euler_rep(-e_disk, p), k))
        rots.append(rot)
    return classes, rots, sizes


def _assemble_range_by_init(classes, rots, k: int, i: int, arms: dict, k_max: int, problems: list[str]):
    # the base is classes[k][i], arms[sign] the indices of its arm's members
    # on levels k + 1, k + 2, ...; invariants compare as integers times p
    base, rot = classes[k][i], rots[k][i]
    p, tb = base.lens.p, abs(base.dividing_slope.num)
    expected = k_max - k
    for sign, arm in arms.items():
        if arm and len(arm) != expected:
            problems.append(f"{base.class_id}: {sign!s} arm stops at depth {len(arm)} < {expected}")
            return None
    if not any(arms.values()):
        problems.append(f"{base.class_id}: base with no arms at k_max={k_max}")
        return None
    kind = RangeKind.V if all(arms.values()) else RangeKind.FORWARD_SLASH if arms[Sign.PLUS] else RangeKind.BACK_SLASH
    euler = base.euler % p
    members = [RangeMember(base, "base", 0)]
    for sign, arm in arms.items():
        step, label = sign * p, str(sign)
        for n, j in enumerate(arm, start=1):
            member = classes[k + n][j]
            if abs(member.dividing_slope.num) != tb + n * p or rots[k + n][j] != rot + n * step:
                problems.append(f"{member.class_id}: invariants off the {label} arm pattern")
                return None
            if member.euler % p != euler:
                problems.append(f"{member.class_id}: Euler class leaves the structure")
                return None
            members.append(RangeMember(member, label, n))
    return MountainRange(kind, base.rot_q, base.tb_q, base.euler, tuple(members))


def classify_by_graph(lens, knot, k_max: int) -> list[MountainRange]:
    """unknots.classify with tuple-keyed predecessor lists and a set of
    claimed (level, index) pairs; stabilizes through the module's
    unknots._stabilized_counts, so a test's replacement reaches it too."""
    if k_max < 3:
        raise ClassificationError("k_max must be at least 3 to certify arm patterns")
    meridian = unknots._work_meridian(lens, knot)
    levels = [unknots._level(slope_k(lens, knot, k_max))]
    for _ in range(k_max):
        above = levels[-1]
        levels.append(unknots._level_below(above.path, above.lengths, above.sizes, meridian))
    classes, rots, sizes = zip(*(_level_classes_by_init(lens, knot, k, lv) for k, lv in enumerate(reversed(levels))))
    signs = unknots._COMPLEMENT_SIGN[knot.positive].items()
    # preds[k][(minus counts on level k, sign)]: indices of the level k + 1 classes stabilizing there
    preds: list[dict[tuple, list[int]]] = [{} for _ in range(k_max)]
    bases = [(0, i) for i in range(len(classes[0]))]
    problems: list[str] = []
    for k in range(1, k_max + 1):
        up = preds[k - 1]
        for i, c in enumerate(classes[k]):
            tight = 0
            for sign, on_complement in signs:
                counts = unknots._stabilized_counts(c.complement.minus_counts, on_complement, sizes[k], sizes[k - 1])
                if counts is not None:
                    up.setdefault((counts, sign), []).append(i)
                    tight += 1
            if tight == 2:
                problems.append(f"{c.class_id}: two tight stabilizations")
            elif tight == 0:
                bases.append((k, i))
    ranges = []
    claimed: set[tuple[int, int]] = set()
    for k, i in bases:
        base = classes[k][i]
        if k > 1:
            problems.append(f"{base.class_id}: unexpected base above the first two slopes")
            continue
        arms: dict[Sign, list[int]] = {sign: [] for sign, _ in signs}
        for sign, arm in arms.items():
            counts = base.complement.minus_counts
            for j in range(k, k_max):
                sources = preds[j].get((counts, sign), [])
                if not sources:
                    break
                if len(sources) > 1:
                    problems.append(f"{base.class_id}: branching {sign!s} arm")
                    break
                arm.append(sources[0])
                counts = classes[j + 1][sources[0]].complement.minus_counts
        mr = _assemble_range_by_init(classes, rots, k, i, arms, k_max, problems)
        if mr is not None:
            ranges.append((abs(base.dividing_slope.num), rots[k][i], mr))
            claimed.add((k, i))
            for arm in arms.values():
                claimed.update(enumerate(arm, start=k + 1))
    unclaimed = sum(map(len, classes)) - len(claimed)
    if unclaimed:
        problems.append(f"{unclaimed} classes outside every certified range")
    if problems:
        raise ClassificationError(*sorted(problems))
    return [mr for _, _, mr in sorted(ranges, key=lambda r: (r[0], r[1], r[2].kind.value))]


_KIND_SWAP = {RangeKind.BACK_SLASH: RangeKind.FORWARD_SLASH, RangeKind.FORWARD_SLASH: RangeKind.BACK_SLASH}


def flip_orientation(mr: MountainRange) -> MountainRange:
    """Reverse the knot orientation: negate rotations and swap slash kinds.

    The recorded complement data stays that of the positively-oriented
    representative at the opposite rotation number.
    """
    knot, arm = replace(mr.members[0].cls.knot, positive=False), {"+": "-", "-": "+", "base": "base"}
    members = tuple(
        RangeMember(replace(m.cls, rot_q=-m.cls.rot_q, knot=knot), arm[m.arm], m.index) for m in mr.members
    )
    return MountainRange(_KIND_SWAP.get(mr.kind, mr.kind), -mr.base_rot, mr.base_tb, mr.euler, members)


def classification_json_by_dumps(payload: dict) -> str:
    """The JSON atlas as the general-purpose encoder lays it out."""
    return json.dumps(payload, indent=2) + "\n"


def classification_svg_by_floats(payload: dict) -> str:
    """The SVG atlas with each coordinate formatted from its float at each use."""
    ranges = payload["ranges"]
    values = [[(float(Fraction(m["rot"])), float(Fraction(m["tb"]))) for m in r["members"]] for r in ranges]
    rots = [rot for vs in values for rot, _ in vs]
    tbs = [tb for vs in values for _, tb in vs]
    lo_r, hi_r = min(rots, default=0.0) - 0.5, max(rots, default=0.0) + 0.5
    lo_t, hi_t = min(tbs, default=0.0) - 0.5, max(tbs, default=0.0) + 0.5
    width, height, margin = 640, 480, 48

    def x(rot: float) -> float:
        return margin + (rot - lo_r) / (hi_r - lo_r) * (width - 2 * margin)

    def y(tb: float) -> float:
        return height - margin - (tb - lo_t) / (hi_t - lo_t) * (height - 2 * margin)

    lens, knot = payload["lens"], payload["knot"]
    colors = ["#1f6feb", "#d2322d", "#2c8a3d", "#8250df", "#b08800", "#0b7285"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>L({lens['p']},{lens['q']}) {knot} non-loose mountain ranges</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if lo_r < 0 < hi_r:
        parts.append(
            f'<line x1="{x(0):.1f}" y1="{margin}" x2="{x(0):.1f}" '
            f'y2="{height - margin}" stroke="#cccccc"/>'
        )
    for ri, (r, vs) in enumerate(zip(ranges, values)):
        color = colors[ri % len(colors)]
        points = [(x(rot), y(tb)) for rot, tb in vs]
        for arm in ("+", "-"):
            chain = [points[0]] + [pt for m, pt in zip(r["members"], points) if m["arm"] == arm]
            for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
                parts.append(
                    f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        for m, (cx, cy) in zip(r["members"], points):
            parts.append(
                f'<circle class="member" cx="{cx:.1f}" cy="{cy:.1f}" r="4" '
                f'fill="{color}"><title>rot={m["rot"]} tb={m["tb"]}</title></circle>'
            )
        bx, by = points[0]
        parts.append(
            f'<text x="{bx:.1f}" y="{by + 16:.1f}" font-size="11" '
            f'text-anchor="middle" fill="{color}">({r["base"][0]}, {r["base"][1]})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _block_pairings(
    vertices: tuple[Slope, ...], lengths: tuple[int, ...], sizes: tuple[int, ...], meridian: Slope
) -> tuple[tuple[int, int], ...]:
    # (pairing of the block's edge class with the meridian, signed size)
    # per block, from the lengths and sizes _signed_sizes gives
    out = []
    edges = zip(vertices, vertices[1:])
    for n, size in zip(lengths, sizes):
        diffs = {farey_diff(b, a) for a, b in islice(edges, n)}
        if len(diffs) != 1:
            raise DecorationError("block crosses an infinity representative change")
        out.append((cross(diffs.pop(), meridian), size))
    return tuple(out)


def shuffle_euler_on_disk(sc: ShuffleClass, meridian: Slope) -> int:
    """euler_on_disk computed from a shuffle class.

    Well defined because all edges of one continued fraction block share
    the same endpoint difference, so only the per-block sign totals
    matter.
    """
    lengths, sizes = _signed_sizes(sc.path, sc.unsigned_positions)
    pairings = _block_pairings(sc.path, lengths, sizes, meridian)
    return sum(pairing * (size - 2 * minus) for (pairing, size), minus in zip(pairings, sc.minus_counts))


def _signed_sizes(vertices: tuple[Slope, ...], unsigned: Collection[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # edges and signed edges per continued fraction block, each block less
    # the unsigned edges it holds; an edge listed twice is one edge
    lengths, unsigned = tuple(_block_lengths(vertices)), set(unsigned)
    starts = accumulate(lengths, initial=0)
    return lengths, tuple(n - sum(a <= u < a + n for u in unsigned) for a, n in zip(starts, lengths))


def check_against_context_by_types(d, c) -> None:
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


# --- concrete decorated-path machinery, independent of the package's ---
# --- shuffle-class engine                                            ---

PLUS, MINUS, NONE = 1, -1, 0


def blocks_of(vertices: tuple[Slope, ...]) -> list[list[int]]:
    blocks = [[0]]
    for e in range(1, len(vertices) - 1):
        if abs(dot(vertices[e - 1], vertices[e + 1])) == 2:
            blocks[-1].append(e)
        else:
            blocks.append([e])
    return blocks


def _moves(vertices: tuple[Slope, ...], signs: tuple[int, ...]):
    # consistent shortenings
    for i in range(1, len(vertices) - 1):
        if not has_edge(vertices[i - 1], vertices[i + 1]):
            continue
        s_l, s_r = signs[i - 1], signs[i]
        if s_l == NONE or s_r == NONE:
            merged = NONE
        elif s_l == s_r:
            merged = s_l
        else:
            continue
        yield (
            vertices[:i] + vertices[i + 1 :],
            signs[: i - 1] + (merged,) + signs[i + 1 :],
        )
    # single sign swaps inside continued fraction blocks
    for blk in blocks_of(vertices):
        signed = [e for e in blk if signs[e] != NONE]
        for a in signed:
            for b in signed:
                if a < b and signs[a] != signs[b]:
                    swapped = list(signs)
                    swapped[a], swapped[b] = swapped[b], swapped[a]
                    yield vertices, tuple(swapped)


def tight_by_search(
    vertices: tuple[Slope, ...], signs: tuple[int, ...], minimal: tuple[Slope, ...]
) -> bool:
    """Exhaustive search over concrete decorations: the structure is tight
    iff some mix of consistent shortenings and in-block swaps reaches the
    minimal path."""
    start = (vertices, signs)
    seen = {start}
    stack = [start]
    while stack:
        v, sg = stack.pop()
        if len(v) == len(minimal):
            assert v == minimal
            return True
        for nxt in _moves(v, sg):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def count_by_orbits(vertices: tuple[Slope, ...], unsigned: frozenset) -> int:
    """Count sign assignments up to in-block swaps by exploring orbits."""
    from itertools import product

    signed_edges = [e for e in range(len(vertices) - 1) if e not in unsigned]
    all_assignments = set()
    for combo in product((PLUS, MINUS), repeat=len(signed_edges)):
        signs = [NONE] * (len(vertices) - 1)
        for e, sg in zip(signed_edges, combo):
            signs[e] = sg
        all_assignments.add(tuple(signs))
    orbits = 0
    seen: set[tuple[int, ...]] = set()
    for start in sorted(all_assignments):
        if start in seen:
            continue
        orbits += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            for v, nxt in _moves(vertices, cur):
                if v != vertices:
                    continue  # only swaps stay in the orbit
                if nxt not in seen and nxt in all_assignments:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits
