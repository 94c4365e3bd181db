"""Classification of non-loose Legendrian rational unknots in lens spaces.

The core of one Heegaard solid torus of L(p, q) is a rational unknot; a
non-loose Legendrian representative is determined, for each admissible
dividing slope of its standard neighborhood, by a tight structure on the
complementary solid torus.  Those structures are shuffle classes of
decorated Farey paths, which this module enumerates, equips with exact
classical invariants, links by stabilization, and assembles into
mountain ranges.

Conventions.  Positive stabilization lowers both tb and rot by one;
negative stabilization lowers tb and raises rot.  A mountain range based
at (a, b) is a V when both arms (a + i, b + i) and (a - i, b + i) are
present, a forward slash when only the ascending arm is, and a back
slash when only the descending arm is.  The second core K1 is classified
through the lens space L(p, qbar) whose Heegaard tori are swapped.
A class of a negative knot keeps the positive representative's complement
and Euler class with rot negated, and each stabilization sign acts on that
complement as the opposite sign (_COMPLEMENT_SIGN).

Stabilization is a closed-form rule on the first two continued fraction
blocks.  It puts the basic slice s_{k-1} -> s_k, with the stabilization
sign, in front of the minimal complement path s_k -> 0.  Only the vertex
right after s_{k-1} can ever be removed, as the others keep their old
neighbors, so shortening merges the first block edge by edge into the
signed new edge and leaves s_{k-1} followed by the old path from that
block's end: the level k-1 path.  Let a be the minus counts, n and t the
signed block sizes at levels k and k-1, and e = 1 for a negative
stabilization, 0 for a positive one.  Each merge needs a common sign (or
an unsigned edge), so the class is tight exactly when a_0 = e*n_0.  The
merged edge then starts the new first block: alone (minus count e*t_0)
when both paths have as many blocks, else joined to the old second block
(e*(t_0 - n_1) + a_1).  Later blocks keep their counts.  This is the
block and shuffle structure of Honda's classification of tight solid
tori (Geom. Topol. 4 (2000) 309-368).  classify runs three phases on
their arguments alone: _levels builds s_{k_max} -> 0 once and each lower
level from the one above, as stabilize does, and moves a repeated level's
rots from the level above by the rot delta (classify); _stabilization_graph
links classes by index, asking the rule on levels 1-3 (each map above is
level 3's); _arm_ranges walks each base's arms into ranges, which a tail
certifies.

The class records (ShuffleClass, NonLooseClass, RangeMember) are built by
private builders that set each field in order with object.__setattr__ and
skip the generated __init__ (none has a __post_init__); tb_q and rot_q
(denominator p >= 1) by _fraction with one gcd.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import getitem
from typing import NamedTuple, Optional

from .cfrac import ancestor, expand
from .decorated import (
    ClassificationError,
    DecorationError,
    LensSpace,
    ShuffleClass,
    Sign,
    UpperSolidTorus,
    _context_data,
    _context_sizes,
    _shuffle_counts,
)
from .farey import INFINITY, ZERO, Slope, _primitive, dot, farey_diff, iterated_sum


@dataclass(frozen=True)
class KnotId:
    """One oriented rational unknot: a Heegaard core with an orientation."""

    core: str  # "K0" or "K1"
    positive: bool = True

    def __post_init__(self) -> None:
        if self.core not in ("K0", "K1"):
            raise ClassificationError("knot core must be K0 or K1")

    @classmethod
    def parse(cls, text: str) -> "KnotId":
        text = text.strip()
        return cls(text.removeprefix("-"), not text.startswith("-"))

    def __str__(self) -> str:
        return ("" if self.positive else "-") + self.core


K0 = KnotId("K0")
K1 = KnotId("K1")


def smooth_knot_classes(lens: LensSpace) -> list[KnotId]:
    """The distinct smooth isotopy classes of rational unknots in a lens space.

    One class for p <= 2, the two orientations of K0 when q = +-1 mod p,
    and all four oriented cores otherwise.
    """
    if lens.p <= 2:
        return [K0]
    if lens.q in (1, lens.p - 1):  # 0 < q < p from here on
        return [K0, KnotId("K0", False)]
    return [K0, KnotId("K0", False), K1, KnotId("K1", False)]


def _work_meridian(lens: LensSpace, knot: KnotId) -> Slope:
    # K1 is classified as the first core of the Heegaard-swapped lens space
    q_eff = lens.q if knot.core == "K0" else lens.qbar
    return Slope(-lens.p, q_eff)


def slope_k(lens: LensSpace, knot: KnotId, k: int) -> Slope:
    """Dividing slope of the k-th standard neighborhood of the knot.

    The mediant walk from the meridian's anticlockwise Farey neighbor
    toward the meridian itself: s_0 is that neighbor and each step takes
    the mediant with the meridian once more.
    """
    if k < 0:
        raise ClassificationError("k must be non-negative")
    meridian = _work_meridian(lens, knot)
    s0 = INFINITY if meridian == Slope(-1, 1) else ancestor(meridian)
    return iterated_sum(s0, k, meridian)


@dataclass(frozen=True)
class NonLooseClass:
    """One coarse class of non-loose Legendrian representative."""

    lens: LensSpace
    knot: KnotId
    dividing_slope: Slope
    complement: ShuffleClass
    tb_q: Fraction
    rot_q: Fraction
    euler: int
    k: int

    @cached_property
    def class_id(self) -> str:
        counts = ",".join(map(str, self.complement.minus_counts))
        return f"s{self.k}[{counts}]"


_new, _set = object.__new__, object.__setattr__


def _shuffle_class(path, minus_counts, unsigned_positions) -> ShuffleClass:
    # ShuffleClass(...) with no dataclass __init__, fields in field order
    sc = _new(ShuffleClass)
    _set(sc, "path", path)
    _set(sc, "minus_counts", minus_counts)
    _set(sc, "unsigned_positions", unsigned_positions)
    return sc


def _nonloose_class(lens, knot, dividing_slope, complement, tb_q, rot_q, euler, k) -> NonLooseClass:
    # NonLooseClass(...) with no dataclass __init__, fields in field order
    c = _new(NonLooseClass)
    _set(c, "lens", lens)
    _set(c, "knot", knot)
    _set(c, "dividing_slope", dividing_slope)
    _set(c, "complement", complement)
    _set(c, "tb_q", tb_q)
    _set(c, "rot_q", rot_q)
    _set(c, "euler", euler)
    _set(c, "k", k)
    return c


def _fraction(num: int, den: int) -> Fraction:
    # Fraction(num, den) for den > 0, with no Fraction.__new__: g > 0 keeps den // g > 0
    g, f = math.gcd(num, den), _new(Fraction)
    f._numerator, f._denominator = num // g, den // g
    return f


def _euler_rep(x: int, p: int) -> int:
    # representative of x mod p in (-p, p], moved by whole multiples of p
    # only when x starts outside that window
    if x > p:
        return (x - 1) % p + 1
    if x <= -p:
        return -(-x % p)
    return x


class _Level(NamedTuple):
    # a path s_k -> 0, last edge unsigned; per block: edges, signed edges, (pairing with 0, signed size)
    path: tuple[Slope, ...]
    lengths: tuple[int, ...]
    sizes: tuple[int, ...]
    pairings: tuple[tuple[int, int], ...]


def _level_pairings(path: tuple[Slope, ...], lengths: tuple[int, ...], sizes: tuple[int, ...]) -> tuple:
    # per block, (its first edge's pairing with the meridian 0, its signed
    # size); all edges of a block share one endpoint difference
    return tuple((path[i + 1].num - path[i].num, n) for i, n in zip(accumulate(lengths, initial=0), sizes))


def _level(s: Slope) -> _Level:
    # the level with dividing slope s, from its minimal complement path.  The
    # path runs clockwise from s to 0 through the negative slopes, so 1/0 can
    # only start it, as the single edge 1/0 -> 0: no block crosses infinity
    complement = UpperSolidTorus(ZERO, s)
    path, _ = _context_data(complement)
    lengths, sizes = _context_sizes(complement)
    return _Level(path, lengths, sizes, _level_pairings(path, lengths, sizes))


def _level_below(path: tuple[Slope, ...], lengths: tuple[int, ...], sizes: tuple[int, ...], meridian: Slope) -> _Level:
    """One level down: s_{k-1} (s_k less the meridian's vector m), then the
    path from the end of the first block (module docstring).  The new edge
    joins the old second block if its outer vertices pair to +-2 as in
    cfrac._block_lengths, else is a block alone, unsigned if it is the last.
    Later blocks were read at this level, so only a joined block is checked.

    Levels repeat from k = 2 up.  For k >= 1 the parents of s_k are s_{k-1}
    and m, its neighbors lie between them, and m lies between s_k and 0: the
    path is s_k, then one path m -> v -> ... -> 0.  It is minimal, so
    |dot(s_k, v)| >= 2 for all k >= 1, and dot(s_k, v) moves by dot(m, v) =
    +-1 a level, so away from 0: it is at least 3 from k = 2, the new edge is
    a block alone, later blocks and weights are those from m, and the first
    weight m.num - s_k.num moves by p a level.
    """
    # s_{k-1} = s_k - meridian pairs to +-1 with the meridian
    s = _primitive(path[0].num - meridian.num, path[0].den - meridian.den)
    path, lengths, sizes = (s,) + path[lengths[0] :], lengths[1:], sizes[1:]
    if lengths and dot(s, path[2]) in (2, -2):
        if farey_diff(path[1], s) != farey_diff(path[2], path[1]):
            raise DecorationError("block crosses an infinity representative change")
        lengths, sizes = (lengths[0] + 1,) + lengths[1:], (sizes[0] + 1,) + sizes[1:]
    else:
        lengths, sizes = (1,) + lengths, (1 if sizes else 0,) + sizes
    return _Level(path, lengths, sizes, _level_pairings(path, lengths, sizes))


def _level_classes(lens: LensSpace, knot: KnotId, k: int, level=None, choose=_shuffle_counts, above=None) -> tuple:
    # level k's classes (from scratch unless given) for the minus counts that choose(sizes)
    # yields, their rots times p, and the sizes; tb times p is |num s_k|, and e_disk = orient *
    # rot adds one table entry w*(n - 2a) per block.  above is level k + 1's _Level and rots, its
    # classes chosen in this order: with equal sizes and later weights (from level 2 up, _level_below)
    # only w_0 moves, by +-p, so rot moves by the rot delta orient*(w_0 - w_0 above)*(n_0 - 2a_0)
    path, _, sizes, pairings = level or _level(slope_k(lens, knot, k))
    p, orient, s = lens.p, 1 if knot.positive else -1, path[0]
    tb_q = _fraction(abs(s.num), p)  # den lens.p >= 1
    unsigned = (len(path) - 2,)
    if same := above is not None and above[0].sizes == sizes and above[0].pairings[1:] == pairings[1:]:
        step, n = orient * (pairings[0][0] - above[0].pairings[0][0]), sizes[0]
    tables = () if same else [[w * (size - 2 * m) for m in range(size + 1)] for w, size in pairings]
    classes, rots = [], []
    for counts, r in zip(choose(sizes), above[1] if same else repeat(0)):
        rot = r + step * (n - 2 * counts[0]) if same else orient * sum(map(getitem, tables, counts))
        sc = _shuffle_class(path, counts, unsigned)
        classes.append(_nonloose_class(lens, knot, s, sc, tb_q, _fraction(rot, p), _euler_rep(-orient * rot, p), k))  # den lens.p >= 1
        rots.append(rot)
    return classes, rots, sizes


def classes_at_slope(lens: LensSpace, knot: KnotId, k: int) -> list[NonLooseClass]:
    """All non-loose classes of the knot with dividing slope s_k.

    One class per tight structure on the complementary solid torus with
    meridian 0 and boundary slope s_k, carrying exact tb, rot, and the
    Euler class of the ambient structure.  A negative knot's classes are
    the positive representative's with rot negated, as in classify.
    """
    return _level_classes(lens, knot, k)[0]


# by knot orientation, the sign each knot stabilization puts on the positive
# representative's complement, listed in that representative's arm order
_COMPLEMENT_SIGN = {True: {Sign.PLUS: Sign.PLUS, Sign.MINUS: Sign.MINUS}, False: {Sign.MINUS: Sign.PLUS, Sign.PLUS: Sign.MINUS}}


def _stabilized_counts(
    counts: tuple[int, ...], sign: Sign, sizes: tuple[int, ...], below: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    # minus counts of the stabilized class one level down, None if loose;
    # sizes and below are the signed block sizes of the complement paths at
    # the class's level and one level down
    eps = 1 if sign < 0 else 0  # Sign.MINUS is -1; on 3.11 a Sign.X read runs EnumType.__getattr__, unseen by cProfile
    if counts[0] != eps * sizes[0]:
        return None
    if len(below) == len(sizes):
        return (eps * below[0],) + counts[1:]
    return (eps * (below[0] - sizes[1]) + counts[1],) + counts[2:]


def stabilize(c: NonLooseClass, sign: Sign) -> Optional[NonLooseClass]:
    """Stabilize a non-loose class once; None means the result is loose.

    The complement path gains the edge s_{k-1} -> s_k with the
    stabilization sign.  Shortening merges the path's first block into it
    edge by edge, so the class survives exactly when every signed edge of
    that block carries the sign; only the first two blocks change (the
    module docstring has the argument).  A negative knot's class carries
    the positive representative's complement, which the opposite sign
    stabilizes; either way tb drops by one and rot moves by -sign.
    """
    if sign not in (Sign.PLUS, Sign.MINUS):
        raise ClassificationError("stabilization sign must be PLUS or MINUS")
    if c.k == 0:
        return None
    # the engine's complement paths start at their dividing slope
    lengths, sizes = _context_sizes(UpperSolidTorus(ZERO, c.complement.path[0]))
    below = _level_below(c.complement.path, lengths, sizes, _work_meridian(c.lens, c.knot))
    on_complement = _COMPLEMENT_SIGN[c.knot.positive][sign]
    counts = _stabilized_counts(c.complement.minus_counts, on_complement, sizes, below.sizes)
    return None if counts is None else _level_classes(c.lens, c.knot, c.k - 1, below, lambda _: (counts,))[0][0]


class RangeKind(Enum):
    V = "V"
    BACK_SLASH = "back-slash"
    FORWARD_SLASH = "forward-slash"

    def __str__(self) -> str:
        return self._value_  # the same text as .value, a Python property on 3.11


@dataclass(frozen=True)
class RangeMember:
    """One Legendrian class inside a mountain range.

    arm is "base", "+" (ascending-rot arm, descended by positive
    stabilization) or "-" (descending-rot arm, descended by negative
    stabilization); index is the height above the base.
    """

    cls: NonLooseClass
    arm: str
    index: int

    @property
    def member_id(self) -> str:
        return self.cls.class_id


def _range_member(cls, arm, index) -> RangeMember:
    # RangeMember(...) with no dataclass __init__, fields in field order
    m = _new(RangeMember)
    _set(m, "cls", cls)
    _set(m, "arm", arm)
    _set(m, "index", index)
    return m


class StabEdge(NamedTuple):
    source: str
    sign: Sign
    target: Optional[str]  # None encodes a loose result


# an arm's stabilization sign, then the other sign, by arm label
_ARM_SIGNS = {"+": (Sign.PLUS, Sign.MINUS), "-": (Sign.MINUS, Sign.PLUS)}
# read per range, with kind._value_ (.value is a property): on 3.11 Sign.X and RangeKind.X run EnumType.__getattr__
_V, _BACK_SLASH, _FORWARD_SLASH = RangeKind  # in member order; cProfile shows neither cost
_PLUS, _ARM_LABEL = Sign.PLUS, ("", "+", "-")  # a Sign indexes as an int: _ARM_LABEL[sign] is str(sign)


@dataclass(frozen=True)
class MountainRange:
    """A base class and its certified stabilization arms.

    The members fix the stabilization edges: the base's two stabilizations
    are loose, listed in the positive representative's arm order, (+, -)
    for a positively oriented knot and (-, +) for a negative one; arm
    member i stabilizes with its arm's sign to member i - 1 of that arm
    (the base for i = 1), and with the other sign to a loose class.
    """

    kind: RangeKind
    base_rot: Fraction
    base_tb: Fraction
    euler: int
    members: tuple[RangeMember, ...]

    @property
    def base(self) -> tuple[Fraction, Fraction]:
        return (self.base_rot, self.base_tb)

    @property
    def edges(self) -> tuple[StabEdge, ...]:
        base = self.members[0]
        edges = [StabEdge(base.member_id, sign, None) for sign in _COMPLEMENT_SIGN[base.cls.knot.positive]]
        below = dict.fromkeys("+-", base.member_id)  # last member id on each arm
        for m in self.members[1:]:
            sign, other = _ARM_SIGNS[m.arm]
            edges += (StabEdge(m.member_id, sign, below[m.arm]), StabEdge(m.member_id, other, None))
            below[m.arm] = m.member_id
        return tuple(edges)


def _assemble_range(
    classes: tuple, rots: tuple, k: int, i: int, arms: dict[Sign, list[int]], k_max: int, problems: list[str]
) -> Optional[MountainRange]:
    # the base is classes[k][i] and arms[sign][n - 1] the index of its arm's
    # n-th member on level k + n, arms in member order; rots holds each class's
    # rot times p, and p*tb on level k is |num s_k|, so invariants compare as ints
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
    kind = _V if all(arms.values()) else _FORWARD_SLASH if arms[_PLUS] else _BACK_SLASH  # globals: note at _ARM_SIGNS
    euler = base.euler % p
    members = [_range_member(base, "base", 0)]
    for sign, arm in arms.items():
        step, label = sign * p, _ARM_LABEL[sign]
        for n, j in enumerate(arm, start=1):
            member = classes[k + n][j]
            if abs(member.dividing_slope.num) != tb + n * p or rots[k + n][j] != rot + n * step:
                problems.append(f"{member.class_id}: invariants off the {label} arm pattern")
                return None
            # _level_classes' records passing the rot check pass this: euler = -orient * rot * p (mod p)
            if member.euler % p != euler:
                problems.append(f"{member.class_id}: Euler class leaves the structure")
                return None
            members.append(_range_member(member, label, n))
    return MountainRange(kind, base.rot_q, base.tb_q, base.euler, tuple(members))


def _levels(lens: LensSpace, knot: KnotId, k_max: int) -> tuple:
    own = {}  # per signed block sizes, its classes' minus-count tuples, each to its index: equal levels share them
    choose = lambda s: own.get(s) or own.setdefault(s, {c: n for n, c in enumerate(_shuffle_counts(s))})
    meridian, built, above = _work_meridian(lens, knot), [], None
    for k in range(k_max, -1, -1):  # level k_max from scratch, each one below from the one above, then dropped
        level = _level(slope_k(lens, knot, k)) if k == k_max else _level_below(*level[:3], meridian)
        built.append(_level_classes(lens, knot, k, level, choose, above))
        above = level, built[-1][1]  # with its rots, which the level below may move by its first weight
    classes, rots, sizes = zip(*reversed(built))  # per level k: its classes, rots times p, signed block sizes
    return own, classes, rots, sizes


def _stabilization_graph(own: dict, classes: tuple, sizes: tuple, signs, problems: list[str]) -> tuple:
    # preds[k][sign][index of a level k class]: index of the level k + 1 class stabilizing there, -1 if several;
    # levels 1 to 3 only, as sizes repeat from level 2 (_level_below): every (here, below) pair from level 3 up is level 3's
    preds: list[dict[Sign, dict]] = []
    bases = [(0, i) for i in range(len(classes[0]))]
    for k, (below, here) in enumerate(zip(sizes, sizes[1:4]), start=1):
        twice, loose, by_sign, targets = [], [], {sign: {} for sign, _ in signs}, own[below]
        per_sign = [(on_complement, by_sign[sign]) for sign, on_complement in signs]
        for i, minus_counts in enumerate(own[here]):
            tight = 0
            for on_complement, sources in per_sign:
                counts = _stabilized_counts(minus_counts, on_complement, here, below)
                if counts is not None:
                    tight += 1
                    key = targets.get(counts, counts)  # the target's index; counts no class has key as they are
                    if sources.setdefault(key, i) != i:  # a second source: the arm through counts branches
                        sources[key] = -1
            if tight == 2:
                twice.append(i)
            elif tight == 0:
                loose.append(i)
        preds.append(by_sign)
        for level in range(k, len(classes) if k == 3 else k + 1):  # level 3's problems and bases recur on each level above
            problems += [f"{classes[level][i].class_id}: two tight stabilizations" for i in twice]
            bases += [(level, i) for i in loose]
    return preds, bases


def _arm_ranges(classes: tuple, rots: tuple, preds: list, bases: list, signs, k_max: int, problems: list[str]) -> tuple:
    ranges: list[tuple] = []  # (base tb times p, base rot times p, kind, position, range)
    claimed = [bytearray(len(level)) for level in classes]  # 1 for a class in a certified range
    for k, i in bases:
        base = classes[k][i]
        if k > 1:
            problems.append(f"{base.class_id}: unexpected base above the first two slopes")
            continue
        arms: dict[Sign, list[int]] = {sign: [] for sign, _ in signs}
        for sign, arm in arms.items():
            source = i  # the base, then each member up the arm: indices on levels k, k + 1, ...
            for j in range(k, k_max):
                source = preds[j if j < 3 else 2][sign].get(source)
                if source is None:
                    break
                if source < 0:
                    problems.append(f"{base.class_id}: branching {sign!s} arm")
                    break
                arm.append(source)
        mr = _assemble_range(classes, rots, k, i, arms, k_max, problems)
        if mr is not None:
            ranges.append((abs(base.dividing_slope.num), rots[k][i], mr.kind._value_, len(ranges), mr))
            claimed[k][i] = 1
            for arm in arms.values():
                for n, j in enumerate(arm, start=k + 1):
                    claimed[n][j] = 1
    return ranges, claimed


def classify(lens: LensSpace, knot: KnotId = K0, k_max: int = 5) -> list[MountainRange]:
    """All mountain ranges of non-loose representatives of one rational unknot.

    Builds the stabilization graph over the classes with dividing slope
    s_k for k <= k_max and pattern-matches it into Vs and slashes.  Arms
    are verified member by member up to k_max; a pattern that cannot be
    certified raises instead of guessing, with every problem found.

    Certified for every k: from level 2 up a level has the sizes and later
    weights of the one above and a first weight p apart (_level_below), so
    each class's rot is the rot above of its minus counts moved by
    +-p*(n_0 - 2a_0), the rot delta; a tight stabilization from level 3 up
    keeps the minus counts (the first is e*n_0 on both levels), so each arm
    reaching level 3 repeats one class upward and the kinds, bases and
    Euler classes do not depend on k_max.
    """
    if k_max < 3:
        raise ClassificationError("k_max must be at least 3 to certify arm patterns")
    if k_max >= sys.maxsize:  # _levels holds k_max + 1 entries
        raise ClassificationError(f"k_max {k_max} has too many levels for a list")
    own, classes, rots, sizes = _levels(lens, knot, k_max)
    signs, problems = _COMPLEMENT_SIGN[knot.positive].items(), []
    preds, bases = _stabilization_graph(own, classes, sizes, signs, problems)
    ranges, claimed = _arm_ranges(classes, rots, preds, bases, signs, k_max, problems)
    if unclaimed := sum(marks.count(0) for marks in claimed):
        problems.append(f"{unclaimed} classes outside every certified range")
    if problems:
        raise ClassificationError(*sorted(problems))
    return [r[-1] for r in sorted(ranges)]


@dataclass(frozen=True)
class RangeCounts:
    """Closed-form mountain-range counts for one knot.

    v_low counts Vs at the lower tb level, slashes the number of back
    slashes (equal to the number of forward slashes), v_high the Vs one
    level up.
    """

    v_low: int
    slashes: int
    v_high: int


def range_counts(lens: LensSpace, knot: KnotId = K0) -> RangeCounts:
    """Mountain-range counts from the continued fraction expansion.

    Must agree with the counts measured from classify; K1 uses the
    expansion of the swapped lens space, which reverses the coefficients.
    """
    m = _work_meridian(lens, knot)
    if m == Slope(-1, 1):
        return RangeCounts(1, 0, 0)
    coeffs = expand(m).coeffs
    if len(coeffs) == 1:
        # integer surgery: one low V and |a_0 + 1| high Vs, no slashes
        return RangeCounts(1, 0, abs(coeffs[0] + 1))
    slashes = math.prod(abs(a + 1) for a in coeffs[:-2])
    return RangeCounts(slashes * abs(coeffs[-2] + 2), slashes, math.prod(abs(a + 1) for a in coeffs))


def measured_counts(ranges: list[MountainRange], lens: LensSpace) -> RangeCounts:
    """Tally a classification result into the closed-form count format."""
    tb_low = min((mr.base_tb for mr in ranges), default=0)
    v_low = sum(1 for mr in ranges if mr.kind is RangeKind.V and mr.base_tb == tb_low)
    back = sum(1 for mr in ranges if mr.kind is RangeKind.BACK_SLASH)
    forward = sum(1 for mr in ranges if mr.kind is RangeKind.FORWARD_SLASH)
    if back != forward:
        raise ClassificationError("slash kinds out of balance")
    v_high = sum(1 for mr in ranges if mr.kind is RangeKind.V and mr.base_tb == tb_low + 1)
    return RangeCounts(v_low, back, v_high)


class Flavor(Enum):
    LEGENDRIAN = "legendrian"
    TRANSVERSE = "transverse"


class Existence(Enum):
    NONE = "none"
    EXACTLY_ONE_STRUCTURE_KNOWN = "exactly-one"
    AT_LEAST_TWO = "at-least-two"

    def __str__(self) -> str:
        return self._value_  # as RangeKind's


@dataclass(frozen=True)
class TopologyFacts:
    """Caller-asserted smooth facts feeding the existence oracle.

    The engine does not compute 3-manifold topology; it only applies the
    decision rules to facts the caller vouches for.  summand_admits_tight
    refers to the summand M' in the splitting M = M' # M'' with the knot
    in M'' and M'' minus the knot irreducible; when omitted it is derived
    from the ambient descriptor where possible.
    """

    intersects_essential_sphere_once: bool = False
    summand_admits_tight: Optional[bool] = None
    is_rational_unknot: bool = False
    is_unknot_in_s3: bool = False
    contained_in_ball: bool = False
    ambient: Optional[str] = None


# manifolds that admit no tight contact structure: surgeries on torus
# knots making the small Seifert fibered spaces usually written M_n
_TIGHTLESS_AMBIENTS = {"M_n", "Mn"}


def _resolve_summand(f: TopologyFacts) -> bool:
    if f.summand_admits_tight is not None:
        return f.summand_admits_tight
    if not f.contained_in_ball:
        # the splitting then has M' = S^3 for the ambient kinds we model
        return True
    if f.ambient is None:
        raise ClassificationError(
            "ball-contained knot needs an ambient descriptor or an explicit "
            "summand tightness flag"
        )
    return f.ambient not in _TIGHTLESS_AMBIENTS


def admits_nonloose(f: TopologyFacts, flavor: Flavor) -> Existence:
    """Whether a knot type admits non-loose representatives, and how many
    overtwisted structures are known to carry them.

    Legendrian representatives exist exactly when the knot does not meet
    an essential sphere transversely once and the complementary summand
    admits a tight structure; transverse ones additionally require the
    knot not to be a rational unknot.  Whenever representatives exist
    there are at least two such structures, except for the unknot in S^3
    which has exactly one.
    """
    if f.is_unknot_in_s3 and not f.is_rational_unknot:
        raise ClassificationError("the unknot in S^3 is a rational unknot")
    if f.is_rational_unknot and f.intersects_essential_sphere_once:
        raise ClassificationError(
            "rational unknots live in irreducible manifolds and cannot meet "
            "an essential sphere once"
        )
    if f.is_unknot_in_s3 and f.ambient not in (None, "S3"):
        raise ClassificationError("unknot-in-S^3 flag contradicts the ambient")
    summand = _resolve_summand(f)
    if f.is_unknot_in_s3 and not summand:
        raise ClassificationError("S^3 admits a tight structure")
    if f.intersects_essential_sphere_once or not summand:
        return Existence.NONE
    if flavor is Flavor.TRANSVERSE and f.is_rational_unknot:
        return Existence.NONE
    if flavor is Flavor.LEGENDRIAN and f.is_unknot_in_s3:
        return Existence.EXACTLY_ONE_STRUCTURE_KNOWN
    return Existence.AT_LEAST_TWO
