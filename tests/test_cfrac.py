import random
from math import gcd

import pytest

from nonloose.cfrac import (
    ContinuedFraction,
    FareyPath,
    ancestor,
    block_structure,
    expand,
    minimal_path,
    successor,
    value,
)
from nonloose.farey import INFINITY, ZERO, FareyError, Slope, dot
from oracles import (
    farthest_larger_neighbor,
    farthest_smaller_neighbor,
    shortest_clockwise_paths,
)


def negative_slopes(max_p):
    out = []
    for p in range(2, max_p + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                out.append(Slope(-p, q))
    return out


def test_expand_examples():
    assert expand(Slope(-5, 2)).coeffs == (-3, -2)
    assert expand(Slope(-5, 3)).coeffs == (-2, -3)
    assert expand(Slope(-8, 3)).coeffs == (-3, -3)
    for p in (2, 5, 11):
        assert expand(Slope(-p)).coeffs == (-p,)


def test_expand_rejects_out_of_range():
    for bad in (Slope(-1), Slope(-1, 2), ZERO, Slope(3, 2), INFINITY):
        with pytest.raises(FareyError):
            expand(bad)


def test_value_examples():
    assert value(ContinuedFraction((-3, -2))) == Slope(-5, 2)
    assert value(ContinuedFraction((-2,))) == Slope(-2)
    for k in range(1, 8):
        assert value(ContinuedFraction((-2,) * k)) == Slope(-(k + 1), k)


def test_continued_fraction_validation():
    with pytest.raises(FareyError):
        ContinuedFraction(())
    with pytest.raises(FareyError):
        ContinuedFraction((-3, -1))


def test_expand_value_round_trip():
    for s in negative_slopes(200):
        cf = expand(s)
        assert all(a <= -2 for a in cf.coeffs)
        assert value(cf) == s


def test_successor_examples():
    assert successor(Slope(-5, 2)) == Slope(-2)
    assert successor(Slope(-8, 3)) == Slope(-5, 2)
    for p in range(3, 9):
        assert successor(Slope(-p)) == Slope(-p + 1)
    assert successor(Slope(-2)) == Slope(-1)


def test_ancestor_examples():
    assert ancestor(Slope(-5, 2)) == Slope(-3)
    assert ancestor(Slope(-8, 3)) == Slope(-3)
    for p in range(2, 9):
        assert ancestor(Slope(-p)) == INFINITY


def test_successor_ancestor_are_extremal_neighbors():
    for s in negative_slopes(20):
        suc = successor(s)
        anc = ancestor(s)
        assert abs(dot(s, suc)) == 1
        assert anc is INFINITY or abs(dot(s, anc)) == 1
        assert suc == farthest_larger_neighbor(s, 40)
        assert anc == farthest_smaller_neighbor(s, 40)


def test_minimal_path_examples():
    assert minimal_path(Slope(-4), ZERO).vertices == tuple(
        Slope(n) for n in (-4, -3, -2, -1, 0)
    )
    assert minimal_path(Slope(-5, 2), Slope(-1)).vertices == (
        Slope(-5, 2),
        Slope(-2),
        Slope(-1),
    )
    s = Slope(-7, 2)
    assert minimal_path(s, successor(s)).vertices == (s, successor(s))


def test_minimal_path_through_infinity():
    assert minimal_path(ZERO, Slope(-2)).vertices == (ZERO, INFINITY, Slope(-2))
    assert minimal_path(Slope(-7, 2), INFINITY).vertices == (
        Slope(-7, 2),
        Slope(-3),
        INFINITY,
    )


def test_minimal_path_matches_breadth_first_search():
    rng = random.Random(7)
    pool = negative_slopes(8) + [ZERO, INFINITY, Slope(1, 2), Slope(2, 3), Slope(3)]
    for _ in range(60):
        r, s = rng.sample(pool, 2)
        got = minimal_path(r, s).vertices
        geodesics = shortest_clockwise_paths(r, s, 16)
        assert geodesics, (r, s)
        assert len(set(geodesics)) == 1, (r, s, geodesics)
        assert got == geodesics[0], (r, s)


def test_minimal_path_length_bounded_by_determinant():
    # |dot(v, s)| strictly decreases along every minimal path to s, so a
    # path from r has at most |dot(r, s)| + 1 vertices
    from oracles import bounded_slopes

    pool = bounded_slopes(12)
    for r in pool:
        for s in pool:
            if r != s:
                d = [abs(dot(v, s)) for v in minimal_path(r, s).vertices]
                assert d[-1] == 0 and all(a > b for a, b in zip(d, d[1:])), (r, s)
    long = minimal_path(Slope(-20001), ZERO)
    assert len(long.vertices) == abs(dot(Slope(-20001), ZERO)) + 1 == 20002


def test_path_length_consistent_with_expansion():
    # cross-check, over the whole family, the length the search oracle
    # confirms on small cases: sum of |a_i| minus twice the coefficient
    # count beyond the first
    for s in negative_slopes(40):
        got = minimal_path(s, ZERO)
        cf = expand(s)
        assert len(got) == sum(-a for a in cf.coeffs) - 2 * (len(cf.coeffs) - 1)
    for s in negative_slopes(9):
        geodesics = shortest_clockwise_paths(s, ZERO, 18)
        assert len(minimal_path(s, ZERO)) == len(geodesics[0]) - 1


def test_swapped_lens_expansion_reverses_coefficients():
    # the expansion of -p/qbar is the reverse of that of -p/q, which is
    # what lets the second Heegaard core reuse the first core's machinery
    for p in range(3, 40):
        for q in range(2, p - 1):
            if gcd(p, q) != 1:
                continue
            qbar = pow(q, -1, p)
            assert expand(Slope(-p, qbar)).coeffs == tuple(
                reversed(expand(Slope(-p, q)).coeffs)
            )


def test_block_structure_examples():
    p1 = minimal_path(Slope(-4), Slope(-1))
    assert block_structure(p1) == ((0, 1, 2),)
    p2 = FareyPath((Slope(-8, 3), Slope(-5, 2), Slope(-2), Slope(-1)))
    assert block_structure(p2) == ((0, 1), (2,))
    p3 = minimal_path(Slope(-7, 2), Slope(-3))
    assert len(p3) == 1
    assert block_structure(p3) == ((0,),)


def _random_unimodular(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-5, 5)
        if rng.random() < 0.5:
            m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
    return m


def test_block_structure_invariant_under_basis_change():
    rng = random.Random(21)
    paths = [
        minimal_path(Slope(-8, 3), ZERO),
        minimal_path(Slope(-7, 5), ZERO),
        minimal_path(Slope(-4), Slope(-1)),
        minimal_path(Slope(-17, 5), Slope(-3)),
    ]
    for path in paths:
        base = block_structure(path)
        for _ in range(25):
            m = _random_unimodular(rng)
            mapped = tuple(
                Slope(m[0][0] * v.num + m[0][1] * v.den, m[1][0] * v.num + m[1][1] * v.den)
                for v in path.vertices
            )
            moved = FareyPath(mapped)
            assert block_structure(moved) == base


def test_path_validation():
    with pytest.raises(FareyError):
        FareyPath((Slope(-3), Slope(-1)))  # not adjacent
    with pytest.raises(FareyError):
        FareyPath((Slope(-1), Slope(-2), Slope(-3)))  # anticlockwise run
    with pytest.raises(FareyError):
        FareyPath((INFINITY, Slope(1, 1), Slope(1, 2)))  # overshoots the arc
    # a single edge can always be read clockwise
    FareyPath((Slope(-1), Slope(-2)))
