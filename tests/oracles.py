"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from first principles (lattice
counting, breadth-first search, explicit state enumeration) so the
package's closed-form or search-based answers can be checked against an
implementation that shares no code path with them.  The `*_by_*`
functions and `check_path_by_arcs` keep the package's earlier step-by-step
versions of primitives it now computes in closed form, as references.
`ShorteningGeometry`, `_regroup` and `shorten_to_minimal(geometry, counts)`
keep the package's earlier tightness decision: a search over removal masks
and per-block minus counts that returns every minimal-path class it
reaches, where the package now takes one walk of consistent shortenings.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import replace
from functools import cache
from itertools import accumulate
from math import gcd
from operator import itemgetter
from typing import Optional

from nonloose.cfrac import ContinuedFraction, _minimal_vertices, expand, value
from nonloose.decorated import Sign, _signed_sizes
from nonloose.farey import (
    INFINITY,
    FareyError,
    Slope,
    dot,
    farey_sum,
    has_edge,
)
from nonloose.unknots import NonLooseClass, RangeKind, RangeMember, slope_k


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
