import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.farey import (
    INFINITY,
    ZERO,
    FareyError,
    SignedVector,
    Slope,
    cross,
    cw_between,
    dot,
    farey_diff,
    farey_sum,
    has_edge,
    iterated_sum,
)
from nonloose.cfrac import ancestor, successor
from oracles import bounded_slopes, check_canonical_slopes, intersection_count, iterated_sum_by_steps, mediant_by_equality


@st.composite
def slopes(draw, max_height=30):
    num = draw(st.integers(-max_height, max_height))
    den = draw(st.integers(0, max_height))
    if (num, den) == (0, 0):
        num = 1
    return Slope(num, den)


def test_canonical_form():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(-3, 0) == INFINITY
    assert Slope(0, -7) == ZERO
    with pytest.raises(FareyError):
        Slope(0, 0)


def test_parse_round_trip():
    for text in ("1/0", "-5/2", "0/1", "3"):
        assert str(Slope.parse(text)) == str(Slope.parse(str(Slope.parse(text))))
    assert Slope.parse("-1/0") == INFINITY


def test_dot_examples():
    assert dot(Slope(1, 2), Slope(1, 3)) == 1
    assert dot(Slope(7, 3), Slope(7, 3)) == 0
    assert dot(ZERO, INFINITY) == -1


def test_has_edge_examples():
    assert has_edge(ZERO, INFINITY)
    assert not has_edge(ZERO, Slope(2, 1))
    assert not has_edge(Slope(5, 7), Slope(5, 7))


def test_mediant_examples():
    assert farey_sum(ZERO, INFINITY) == Slope(1, 1)
    assert farey_sum(Slope(-1), INFINITY) == Slope(-2)
    assert farey_sum(INFINITY, Slope(-3)) == Slope(-4)
    assert farey_sum(Slope(-3), Slope(-5, 2)) == Slope(-8, 3)


def test_mediant_rejects_bad_operands():
    with pytest.raises(FareyError):
        farey_sum(Slope(1, 2), Slope(1, 2))
    with pytest.raises(FareyError):
        farey_sum(ZERO, Slope(2, 1))


def test_iterated_sum():
    assert iterated_sum(INFINITY, 0, Slope(-3)) == INFINITY
    assert iterated_sum(Slope(-3), 1, Slope(-5, 2)) == Slope(-8, 3)
    for p in (2, 3, 5, 7):
        for k in range(1, 5):
            assert iterated_sum(INFINITY, k, Slope(-p)) == Slope(-(k * p + 1), k)


def test_farey_diff_examples():
    assert farey_diff(Slope(-1), Slope(-2)) == SignedVector(1, 0)
    assert farey_diff(Slope(9, 4), Slope(9, 4)) == SignedVector(0, 0)
    for n in range(-4, 5):
        assert farey_diff(Slope(n), Slope(n - 1)) == SignedVector(1, 0)


def test_farey_diff_unreduced():
    assert farey_diff(Slope(3, 1), Slope(1, 3)) == SignedVector(2, -2)


def test_cw_between_examples():
    assert cw_between(Slope(-5, 2), Slope(-2), Slope(-1))
    assert cw_between(Slope(-7, 3), Slope(-7, 3), Slope(1, 2))
    assert not cw_between(ZERO, Slope(-1), INFINITY)
    assert cw_between(INFINITY, Slope(-4), Slope(-3))
    with pytest.raises(FareyError):
        cw_between(ZERO, Slope(1), ZERO)


@given(slopes(), slopes())
@settings(max_examples=200)
def test_dot_antisymmetric(x, y):
    assert dot(x, y) == -dot(y, x)


@given(slopes(), slopes(), slopes())
@settings(max_examples=300)
def test_cw_between_trichotomy(a, x, b):
    if a == b or x in (a, b):
        return
    assert cw_between(a, x, b) != cw_between(b, x, a)


def test_mediant_is_commutative_and_adjacent_to_both():
    pool = bounded_slopes(14)
    pairs = [(x, y) for x in pool for y in pool if x != y and has_edge(x, y)]
    assert pairs
    for x, y in pairs:
        m = farey_sum(x, y)
        assert m == farey_sum(y, x)
        assert has_edge(x, m) and has_edge(y, m)
        # the mediant separates its parents: strictly inside one arc
        assert m not in (x, y)
        assert cw_between(x, m, y) != cw_between(y, m, x)


def test_dot_matches_geometric_intersections():
    pool = [s for s in bounded_slopes(12)]
    for x in pool:
        for y in pool:
            assert abs(dot(x, y)) == intersection_count(x, y), (x, y)


def test_cross_pairing():
    assert cross(SignedVector(1, 0), Slope(-5, 2)) == 2
    assert cross(SignedVector(2, -1), ZERO) == 2 * 1 - (-1) * 0
    assert cross(SignedVector(1, 2), SignedVector(3, 4)) == -2


def test_iterated_sum_matches_repeated_mediants():
    from oracles import iterated_sum_by_steps

    pool = bounded_slopes(7)
    pairs = [(x, y) for x in pool for y in pool if x != y and has_edge(x, y)]
    assert any(x.is_infinite for x, _ in pairs) and any(y.is_infinite for _, y in pairs)
    for x, y in pairs:
        for k in range(9):
            assert iterated_sum(x, k, y) == iterated_sum_by_steps(x, k, y), (x, k, y)


def _arc_outcome(f, a, x, b):
    try:
        return f(a, x, b)
    except FareyError as exc:
        return str(exc)


def test_cw_between_matches_order_oracle():
    from oracles import cw_between_by_order

    pool = bounded_slopes(4)
    assert INFINITY in pool and ZERO in pool
    outcomes = set()
    for a in pool:
        for x in pool:
            for b in pool:
                want = _arc_outcome(cw_between_by_order, a, x, b)
                assert _arc_outcome(cw_between, a, x, b) == want, (a, x, b)
                outcomes.add(want)
    assert outcomes == {True, False, "clockwise arc needs distinct endpoints"}


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=500)
def test_canonical_form_matches_fraction(num, den):
    if (num, den) == (0, 0):
        with pytest.raises(FareyError):
            Slope(num, den)
        return
    s = Slope(num, den)
    if den == 0:
        assert (s.num, s.den) == (1, 0) and s == INFINITY and s.is_infinite
    else:
        f = Fraction(num, den)
        assert (s.num, s.den) == (f.numerator, f.denominator)
    assert Slope(s.num, s.den) == s


def test_slope_is_a_slotted_value():
    s = Slope(-6, 4)
    assert hash(s) == hash((s.num, s.den)) == hash((-3, 2))
    assert hash(INFINITY) == hash((1, 0)) and hash(Slope(-5, 0)) == hash(INFINITY)
    assert s != (-3, 2) and not (s == (-3, 2))
    with pytest.raises(FrozenInstanceError):
        s.num = 3
    assert not hasattr(s, "__dict__")
    assert not hasattr(SignedVector(1, 2), "__dict__")
    for t in (s, INFINITY, ZERO):
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert clone == t and hash(clone) == hash(t) and (clone.num, clone.den) == (t.num, t.den)
    v = SignedVector(2, -4)
    assert pickle.loads(pickle.dumps(v)) == v == copy.deepcopy(v)


def test_construction_and_hash_run_class_hooks(monkeypatch):
    # a traced benchmark process counts slopes by replacing the class's
    # __post_init__ and __hash__; both must run once per construction and
    # once per hash
    counts = {"post_init": 0, "hash": 0}
    post_init, slope_hash = Slope.__post_init__, Slope.__hash__

    def counted_post_init(s):
        counts["post_init"] += 1
        post_init(s)

    def counted_hash(s):
        counts["hash"] += 1
        return slope_hash(s)

    monkeypatch.setattr(Slope, "__post_init__", counted_post_init)
    monkeypatch.setattr(Slope, "__hash__", counted_hash)
    slopes = [Slope(2, 4), Slope(-3), Slope(7, 0)]
    assert [hash(s) for s in slopes] == [hash((1, 2)), hash((-3, 1)), hash((1, 0))]
    assert counts == {"post_init": 3, "hash": 3}


def test_parse_names_of_infinity_and_negative_iteration():
    assert Slope.parse("inf") is INFINITY and Slope.parse(" oo ") is INFINITY
    with pytest.raises(FareyError, match=r"^iterated mediant needs k >= 0$"):
        iterated_sum(INFINITY, -1, Slope(-3))


def test_value_texts():
    assert repr(Slope(-5, 2)) == "Slope(-5, 2)" and repr(INFINITY) == "Slope(1, 0)"
    assert str(SignedVector(3, -1)) == "(3, -1)"


def _mediant_by_slope(x, y):
    # farey_sum's docstring through the reducing constructor: the sum of the
    # two pairs, with infinity on the finite operand's side
    if x.is_infinite or y.is_infinite:
        f = y if x.is_infinite else x
        return Slope(f.num + (1 if f.num >= 0 else -1), f.den)
    return Slope(x.num + y.num, x.den + y.den)


def test_mediants_are_canonical_and_match_the_step_oracle():
    pool = bounded_slopes(8)
    edges = [(x, y) for x in pool for y in pool if x != y and has_edge(x, y)]
    assert sum(INFINITY in e for e in edges) > 20
    built = []
    for x, y in edges:
        m, ref = farey_sum(x, y), _mediant_by_slope(x, y)
        assert (m.num, m.den) == (ref.num, ref.den), (x, y)
        for k in range(6):
            s = iterated_sum(x, k, y)
            assert s == iterated_sum_by_steps(x, k, y), (x, k, y)
            built.append(s)
        built.append(m)
    check_canonical_slopes(built)


def _mediant_outcome(mediant, x, y):
    # the mediant's type and pair, or the text of its FareyError
    try:
        m = mediant(x, y)
    except FareyError as exc:
        return str(exc)
    return type(m), m.num, m.den


def test_mediant_checks_match_the_equality_oracle_on_bounded_slopes():
    pool = bounded_slopes(8)
    outcomes = []
    for x in pool:
        for y in pool:
            got = _mediant_outcome(farey_sum, x, y)
            assert got == _mediant_outcome(mediant_by_equality, x, y), (x, y)
            outcomes.append(got)
    # equal, adjacent and non-adjacent pairs all occur
    assert outcomes.count("mediant of equal slopes is undefined") == len(pool)
    assert sum(isinstance(o, tuple) for o in outcomes) > 300
    assert sum(isinstance(o, str) and o.endswith("not adjacent in the Farey graph") for o in outcomes) > 5000


@st.composite
def canonical_slopes(draw, height):
    num = draw(st.integers(-height, height))
    den = draw(st.one_of(st.just(1), st.integers(0, height)))
    return Slope(num, den if num or den else 1)


@st.composite
def slopes_below_minus_one(draw, height):
    n = draw(st.integers(2, height))
    return Slope(-n, draw(st.one_of(st.just(1), st.integers(1, n - 1))))


@st.composite
def parent_edges(draw, height):
    # a Farey edge (s, successor(s)) or (s, ancestor(s)), in either order;
    # the ancestor of a negative integer is 1/0
    s = draw(slopes_below_minus_one(height))
    parent = draw(st.sampled_from([successor, ancestor]))(s)
    return tuple(draw(st.permutations([s, parent])))


def mediant_operands(height):
    # arbitrary pairs, mostly not adjacent; equal pairs, one of them a
    # second object; and Farey edges to a parent
    one = st.one_of(st.sampled_from([INFINITY, ZERO]), canonical_slopes(height))
    return st.one_of(st.tuples(one, one), one.map(lambda s: (s, Slope(s.num, s.den))), parent_edges(height))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([10**6, 10**30]).flatmap(mediant_operands))
def test_mediant_checks_match_the_equality_oracle(pair):
    x, y = pair
    assert _mediant_outcome(farey_sum, x, y) == _mediant_outcome(mediant_by_equality, x, y)
