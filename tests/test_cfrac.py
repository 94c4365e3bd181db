import random
import sys
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonloose.cfrac import (
    ContinuedFraction,
    FareyPath,
    _block_lengths,
    _larger_parent,
    _minimal_blocks,
    _minimal_vertices,
    ancestor,
    block_structure,
    expand,
    minimal_path,
    successor,
    value,
)
from nonloose.farey import INFINITY, ZERO, FareyError, Slope, dot
from oracles import (
    _bezout,
    ancestor_by_expansion,
    blocks_of,
    bounded_slopes,
    check_canonical_slopes,
    check_path_by_arcs,
    check_path_by_dots,
    expand_by_steps,
    farthest_larger_neighbor,
    farthest_smaller_neighbor,
    larger_parent_by_negation,
    minimal_path_length_bound,
    minimal_vertices_by_bezout,
    minimal_vertices_by_steps,
    shortest_clockwise_paths,
    successor_by_expansion,
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


def test_minimal_vertices_match_bezout_oracle():
    pool = bounded_slopes(12)
    for r in pool:
        for s in pool:
            if r != s:
                assert _minimal_vertices(r, s) == minimal_vertices_by_bezout(r, s), (r, s)
    r = Slope(-20001)
    long = _minimal_vertices(r, ZERO)
    assert len(long) == 20002 and long == minimal_vertices_by_bezout(r, ZERO)
    with pytest.raises(FareyError, match="minimal path needs distinct endpoints"):
        _minimal_vertices(Slope(-3, 2), Slope(-3, 2))


@st.composite
def big_slopes(draw, height=10**6):
    num = draw(st.integers(-height, height))
    den = draw(st.integers(0, height))
    return Slope(num, den if num or den else 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(big_slopes(), big_slopes())
def test_minimal_vertices_match_bezout_oracle_on_large_slopes(r, s):
    # longer paths are left to the 20 001-edge path above
    assume(r != s and minimal_path_length_bound(r, s) <= 50000)
    assert _minimal_vertices(r, s) == minimal_vertices_by_bezout(r, s)


def _check_canonical_vertices(pairs):
    # every vertex of both path builders is the slope Slope(...) would build,
    # and each path is the oracle's, which reduces every vertex by Euclid
    built = []
    for r, s in pairs:
        fast, path = _minimal_vertices(r, s), minimal_path(r, s).vertices
        assert fast == path == minimal_vertices_by_bezout(r, s), (r, s)
        built += (fast, path)
    check_canonical_slopes(chain.from_iterable(built))
    return sum(map(len, built)) // 2


def test_path_vertices_are_canonical_on_bounded_slopes():
    pool = bounded_slopes(12)
    assert _check_canonical_vertices((r, s) for r in pool for s in pool if r != s) > 100_000


def test_path_vertices_are_canonical_on_seeded_slopes_to_zero():
    # slopes -num/den drawn as the calculus benchmark draws them, with paths
    # to 0 of at most 300 vertices, until 50 000 vertices are built
    rng, pairs, total = random.Random(7), [], 0
    while total < 50_000:
        num = rng.randint(3, 10**6)
        den = rng.randint(2, num - 1)
        bound = minimal_path_length_bound(Slope(-num, den), ZERO)
        if gcd(num, den) == 1 and bound <= 300:
            pairs.append((Slope(-num, den), ZERO))
            total += bound
    assert _check_canonical_vertices(pairs) > 10_000


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_slopes(10**9), big_slopes(10**9))
def test_path_vertices_are_canonical_on_huge_slopes(r, s):
    assume(r != s and minimal_path_length_bound(r, s) <= 50000)
    _check_canonical_vertices([(r, s)])


def test_parents_match_expansion_oracle():
    for d in range(1, 60):
        for n in range(d + 1, 400):
            if gcd(n, d) == 1:
                s = Slope(-n, d)
                assert successor(s) == successor_by_expansion(s), s
                assert ancestor(s) == ancestor_by_expansion(s), s


@st.composite
def slopes_below_minus_one(draw):
    n = draw(st.integers(2, 10**9))
    return Slope(-n, draw(st.integers(1, n - 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(slopes_below_minus_one())
def test_parents_match_expansion_oracle_on_large_slopes(s):
    # the path from infinity to s runs through every truncation of the
    # expansion, so this skips expansions of 50 000 coefficients or more
    assume(minimal_path_length_bound(INFINITY, s) <= 50000)
    assert successor(s) == successor_by_expansion(s)
    assert ancestor(s) == ancestor_by_expansion(s)


def _check_parents_and_value(s):
    succ, anc, back = successor(s), ancestor(s), value(expand(s))
    check_canonical_slopes((succ, anc, back))
    assert succ == successor_by_expansion(s) and anc == ancestor_by_expansion(s) and back == s, s


def test_parents_and_values_are_canonical():
    for s in negative_slopes(120):
        _check_parents_and_value(s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(slopes_below_minus_one())
def test_parents_and_values_are_canonical_on_large_slopes(s):
    assume(minimal_path_length_bound(INFINITY, s) <= 50000)
    _check_parents_and_value(s)


def test_parents_reject_out_of_range():
    # messages recorded from the expansion-based successor and ancestor
    for bad, text in [
        (Slope(-1), "-1/1"),
        (Slope(-1, 2), "-1/2"),
        (ZERO, "0/1"),
        (Slope(3, 2), "3/2"),
        (INFINITY, "1/0"),
    ]:
        message = f"negative continued fractions require s < -1, got {text}"
        for f in (successor, ancestor, successor_by_expansion, ancestor_by_expansion):
            with pytest.raises(FareyError) as exc:
                f(bad)
            assert str(exc.value) == message


def _validation_outcome(check, vertices):
    try:
        check(vertices)
    except FareyError as exc:
        return str(exc)
    return None


def test_path_validation_matches_arc_oracle():
    pool = bounded_slopes(6)
    neighbors = {v: [w for w in pool if abs(dot(v, w)) == 1] for v in pool}
    rng = random.Random(5)
    cases = [()]
    # every neighbor walk of up to five vertices, running either way and
    # through infinity, revisits included, and some of six vertices
    walks = [(v,) for v in pool]
    for _ in range(4):
        cases += walks
        walks = [w + (x,) for w in walks for x in neighbors[w[-1]]]
    cases += walks
    cases += [w + (rng.choice(neighbors[w[-1]]),) for w in rng.sample(walks, 20000)]
    for _ in range(40000):
        cases.append(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
    assert len(cases) > 100000
    outcomes = set()
    for vertices in cases:
        want = _validation_outcome(check_path_by_arcs, vertices)
        assert _validation_outcome(FareyPath, vertices) == want, vertices
        outcomes.add(want if want is None or "adjacent" not in want else "adjacent")
    assert outcomes == {
        None,
        "adjacent",
        "a path needs at least one edge",
        "path vertices must be distinct",
        "path is not traversed clockwise",
    }


def test_repeat_of_last_vertex_is_not_distinct():
    # each vertex passes the edge and arc checks, so only the distinctness
    # check catches the early copy of the last vertex
    for nums in ((-6, -5, -6), (-7, -6, -5, -6)):
        vertices = tuple(Slope(n) for n in nums)
        with pytest.raises(FareyError, match="path vertices must be distinct"):
            FareyPath(vertices)
        assert _validation_outcome(check_path_by_arcs, vertices) == "path vertices must be distinct"


def _same_outcome(vertices):
    # FareyPath, the arc oracle and the earlier determinant-sign loop agree
    want = _validation_outcome(check_path_by_arcs, vertices)
    assert _validation_outcome(FareyPath, vertices) == want, vertices[-4:]
    assert _validation_outcome(check_path_by_dots, vertices) == want, vertices[-4:]
    return want


def test_late_defects_in_a_long_path_match_both_oracles():
    v = _minimal_vertices(Slope(-(10**4)), ZERO)  # the path of L(10^4, 1)
    assert len(v) == 10**4 + 1 and _same_outcome(v) is None
    # a minimal path has no chord, so swapping two of its vertices away from
    # the first breaks an edge; the path extended by 1/0 closes the triangle
    # -1, 0, 1/0, and swapping its last two vertices steps anticlockwise
    cases = {
        v[:-3] + v[-2:]: "-3/1 and -1/1 are not adjacent",
        v[:-3] + (v[-2], v[-3], v[-1]): "-3/1 and -1/1 are not adjacent",
        v + (INFINITY,): None,
        v[:-1] + (INFINITY, v[-1]): "path is not traversed clockwise",
        v[:-2] + (v[-1],) + v[-2:]: "path vertices must be distinct",
    }
    for vertices, want in cases.items():
        assert _same_outcome(vertices) == want


def _neighbor(v, k):
    # the Farey neighbors of v are w + k*v over all k, for one neighbor w
    x, y = _bezout(v.num, v.den)  # x*num + y*den = 1, so dot(v, (-y, x)) = 1
    return Slope(k * v.num - y, k * v.den + x)


@st.composite
def neighbor_walks(draw):
    # a minimal path between two slopes when it is short, else one vertex,
    # then a few steps to Farey neighbors, and perhaps one vertex dropped,
    # two swapped or an early copy of the last put in
    r, s = draw(big_slopes(10**30)), draw(big_slopes(10**30))
    v = list(_minimal_vertices(r, s) if r != s and minimal_path_length_bound(r, s) <= 300 else (r,))
    for k in draw(st.lists(st.integers(-3, 3), max_size=4)):
        v.append(_neighbor(v[-1], k))
    i, j = sorted(draw(st.integers(0, len(v) - 1)) for _ in range(2))
    defect = draw(st.sampled_from(["none", "drop", "swap", "copy"]))
    if defect == "drop":
        del v[i]
    elif defect == "swap":
        v[i], v[j] = v[j], v[i]
    elif defect == "copy":
        v.insert(i, v[-1])
    return tuple(v)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(neighbor_walks())
def test_path_validation_matches_both_oracles_on_huge_neighbor_walks(vertices):
    _same_outcome(vertices)


def test_path_text_lists_its_vertices():
    assert str(minimal_path(Slope(-7, 3), INFINITY)) == "-7/3 -2/1 1/0"
    assert str(ContinuedFraction((-3, -2, -4, -2))) == "[-3,-2,-4,-2]"


def _check_block_walk(r, s):
    # the block walk's expansion is the per-step walk's path (and the
    # Euclid-per-vertex one's), and the walk's edge counts are its blocks
    vertices = _minimal_vertices(r, s)
    assert vertices == minimal_vertices_by_steps(r, s), (r, s)
    assert vertices == minimal_vertices_by_bezout(r, s), (r, s)
    counts = [k for *_, k in _minimal_blocks(r, s)]
    assert counts == _block_lengths(vertices) == list(map(len, blocks_of(vertices))), (r, s)
    return vertices


def test_block_walk_matches_step_oracles_on_bounded_slopes():
    pool = bounded_slopes(12)
    for r in pool:
        for s in pool:
            if r != s:
                _check_block_walk(r, s)


def test_block_walk_matches_step_oracles_on_seeded_slopes_to_zero():
    # slopes -num/den drawn as the calculus benchmark draws them, with paths
    # to 0 of at most 300 vertices, until 50 000 vertices are built
    rng, total = random.Random(18), 0
    while total < 50_000:
        num = rng.randint(3, 10**6)
        den = rng.randint(2, num - 1)
        if gcd(num, den) == 1 and minimal_path_length_bound(Slope(-num, den), ZERO) <= 300:
            total += len(_check_block_walk(Slope(-num, den), ZERO))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_slopes(10**9), big_slopes(10**9))
def test_block_walk_matches_step_oracles_on_huge_slopes(r, s):
    assume(r != s and minimal_path_length_bound(r, s) <= 50000)
    _check_block_walk(r, s)


def test_block_walk_crosses_infinity_inside_a_block():
    # 1 -> 1/0 -> -1 is one block whose step vector has numerator 0
    vertices = _check_block_walk(Slope(1), Slope(-1))
    assert vertices == (Slope(1), INFINITY, Slope(-1))
    assert [k for *_, k in _minimal_blocks(Slope(1), Slope(-1))] == [2]


def test_block_walk_jumps_a_long_block_at_once():
    # the path of L(10^5, 1) is one block of 10^5 edges, walked in one step
    r = Slope(-(10**5))
    assert len(list(_minimal_blocks(r, ZERO))) == 1
    vertices = _check_block_walk(r, ZERO)
    assert vertices == tuple(Slope(n) for n in range(-(10**5), 1))
    with pytest.raises(FareyError, match="minimal path needs distinct endpoints"):
        next(_minimal_blocks(r, r))


def _check_trusted_expansion(s):
    cf = expand(s)
    assert ContinuedFraction(cf.coeffs) == cf and value(cf) == s, s


def _check_trusted_builds(r, s):
    # minimal_path and expand build their values with no dataclass check;
    # each must equal the value its checked construction gives
    path = minimal_path(r, s)
    assert FareyPath(path.vertices) == path and path.vertices[:: len(path)] == (r, s), (r, s)
    for x in (r, s):
        if not x.is_infinite and x.num < -x.den:
            _check_trusted_expansion(x)
    return len(path)


def test_trusted_builds_match_checked_ones_on_bounded_slopes():
    pool = bounded_slopes(12)
    assert sum(_check_trusted_builds(r, s) for r in pool for s in pool if r != s) > 100_000


def test_trusted_builds_match_checked_ones_on_seeded_slopes():
    # slopes -num/den drawn as the calculus benchmark draws them, to 0 and
    # through infinity to 1, until 50 000 edges are built
    rng, total = random.Random(21), 0
    while total < 50_000:
        num = rng.randint(3, 10**6)
        den = rng.randint(2, num - 1)
        if gcd(num, den) == 1 and minimal_path_length_bound(Slope(-num, den), ZERO) <= 300:
            total += _check_trusted_builds(Slope(-num, den), ZERO)
            total += _check_trusted_builds(Slope(num, den), Slope(-num, den))
    assert _check_trusted_builds(Slope(1), Slope(-1)) == 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_slopes(10**9), big_slopes(10**9))
def test_trusted_builds_match_checked_ones_on_huge_slopes(r, s):
    assume(r != s and minimal_path_length_bound(r, s) <= 50000)
    _check_trusted_builds(r, s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(slopes_below_minus_one())
def test_trusted_expansions_match_checked_ones_on_large_slopes(s):
    # as in the parents test, expansions of 50 000 coefficients or more are skipped
    assume(minimal_path_length_bound(INFINITY, s) <= 50000)
    _check_trusted_expansion(s)


def _check_expansion(s):
    cf = expand(s)
    assert type(cf.coeffs) is tuple and cf == expand_by_steps(s), s
    return cf


def test_expand_matches_step_oracle():
    # every -n/d < -1 with n <= 400
    assert sum(len(_check_expansion(s).coeffs) for s in negative_slopes(400)) > 400_000


def test_expand_ends_each_kind_of_run():
    # -(d + 1)/d is d coefficients -2: its one run has e = 1 and ends the expansion
    for d in (1, 2, 3, 10, 10**5):
        assert _check_expansion(Slope(-(d + 1), d)).coeffs == (-2,) * d
    # a run before one coefficient stops at den == 1; before more, at den > 1
    for head in ((), (-3,), (-2, -5), (-7, -2, -2, -3)):
        for m in (1, 2, 3, 50, 1001):
            for tail in ((), (-3,), (-4,), (-1000,), (-9, -2), (-3, -3, -2, -2), (-5, -2, -7)):
                cf = ContinuedFraction(head + (-2,) * m + tail)
                assert _check_expansion(value(cf)) == cf


def test_an_expansion_too_long_for_a_tuple_is_refused_before_it_is_built():
    # a run of d or 2d coefficients -2, with e = 1 or 2, alone or after a -3;
    # each has sys.maxsize coefficients or more, so no list is asked for
    for d in (sys.maxsize + 1, 10**20, 10**30):
        for s in (Slope(-(d + 1), d), Slope(-(2 * d + 3), 2 * d + 1), Slope(-(2 * d + 3), d + 1), Slope(-(4 * d + 3), 2 * d + 1)):
            with pytest.raises(FareyError, match=f"^continued fraction of {s} has too many coefficients for a tuple$"):
                expand(s)


@st.composite
def continued_fractions_with_long_runs(draw):
    # parts of one coefficient <= -3 or of up to 10^4 coefficients -2, so
    # adjacent runs drawn merge into one longer run
    single = st.integers(-(10**6), -3).map(lambda a: (a,))
    run = st.integers(1, 10**4).map(lambda m: (-2,) * m)
    return ContinuedFraction(tuple(chain.from_iterable(draw(st.lists(single | run, min_size=1, max_size=6)))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(continued_fractions_with_long_runs())
def test_expand_inverts_value_on_long_runs_of_minus_two(cf):
    s = value(cf)
    assert expand(s) == cf == expand_by_steps(s)


def test_infinity_is_refused_by_expansion_and_parents_with_one_text():
    for f in (expand, successor, ancestor):
        for s in (INFINITY, Slope(-3, 0)):
            with pytest.raises(FareyError) as exc:
                f(s)
            assert str(exc.value) == "negative continued fractions require s < -1, got 1/0"


@pytest.mark.parametrize("r", [INFINITY, ZERO, Slope(-1), Slope(5, 3), Slope(-(10**30), 7)], ids=str)
def test_equal_endpoints_are_refused_with_one_text(r):
    walks = (minimal_path, _minimal_vertices, lambda a, b: next(_minimal_blocks(a, b)))
    for walk in walks:
        for s in (r, Slope(r.num, r.den)):
            with pytest.raises(FareyError) as exc:
                walk(r, s)
            assert str(exc.value) == "minimal path needs distinct endpoints"


def _calculus_slopes(seed):
    # the calculus benchmark's slopes for a seed: -num/den drawn until their
    # minimal paths to 0, each of at most 300 vertices, hold 170 000 vertices
    rng, seen, slopes, vertices = random.Random(seed), set(), [], 0
    while vertices < 170_000:
        num = rng.randint(3, 10**6)
        den = rng.randint(2, num - 1)
        if gcd(num, den) != 1 or (num, den) in seen:
            continue
        length = 1 + sum(block[-1] for block in _minimal_blocks(Slope(-num, den), ZERO))
        if length <= 300:
            seen.add((num, den))
            slopes.append(Slope(-num, den))
            vertices += length
    return slopes


def test_larger_parent_matches_the_negation_oracle():
    integers = [Slope(-n) for n in range(2, 3000)]
    integers += [Slope(-(10**k) + j) for k in range(4, 31) for j in (-1, 0, 1)]
    seeded = _calculus_slopes(1)
    assert len(seeded) == 4762
    for s in integers + seeded:
        assert _larger_parent(s) == larger_parent_by_negation(s), s
