from itertools import product

import pytest

from nonloose.cfrac import FareyPath, minimal_path
from nonloose.decorated import (
    DecoratedPath,
    DecorationError,
    Lens,
    LowerSolidTorus,
    ShuffleClass,
    Sign,
    ThickenedTorus,
    UpperSolidTorus,
    canonicalize,
    count_tight,
    enumerate_tight,
    euler_on_disk,
    is_tight,
    relative_euler,
    shorten_once,
)
from nonloose.farey import INFINITY, ZERO, FareyError, SignedVector, Slope
from oracles import count_by_orbits, shuffle_euler_on_disk, tight_by_search

P, M, U = Sign.PLUS, Sign.MINUS, Sign.UNSIGNED


def dpath(vertices, signs):
    return DecoratedPath(FareyPath(tuple(vertices)), tuple(signs))


def integer_run(a, b):
    return [Slope(n) for n in range(a, b + 1)]


def test_decoration_validation():
    path = FareyPath(tuple(integer_run(-3, 0)))
    with pytest.raises(DecorationError):
        DecoratedPath(path, (P, M))  # wrong length
    with pytest.raises(DecorationError):
        DecoratedPath(path, (P, U, M))  # unsigned not terminal
    with pytest.raises(DecorationError):
        DecoratedPath(path, (U, P, U))  # two unsigned
    DecoratedPath(path, (U, P, M))
    DecoratedPath(path, (P, P, P))


def test_canonicalize_examples():
    d = dpath(integer_run(-4, -1), (P, M, P))
    assert canonicalize(d) == ShuffleClass(tuple(integer_run(-4, -1)), (1,), ())
    d2 = dpath(integer_run(-4, -1), (P, P, P))
    assert canonicalize(d2).minus_counts == (0,)
    d3 = dpath([Slope(-8, 3), Slope(-5, 2), Slope(-2), Slope(-1)], (M, P, M))
    assert canonicalize(d3).minus_counts == (1, 1)


def test_canonicalize_rejects_non_minimal():
    d = dpath([INFINITY, Slope(-3), Slope(-2), Slope(-1), ZERO], (P, P, P, U))
    with pytest.raises(DecorationError):
        canonicalize(d)


def test_shuffle_equivalent_decorations_share_canonical_form():
    path = integer_run(-5, -1)
    reference = {}
    for signs in product((P, M), repeat=4):
        sc = canonicalize(dpath(path, signs))
        reference.setdefault(sc, []).append(signs)
    # one 4-edge block: classes are the minus counts 0..4
    assert len(reference) == 5


def test_shorten_once_consistent_and_absorbing():
    # all-plus chain into the meridian edge, as in a stabilized complement
    verts = [INFINITY] + integer_run(-4, 0)
    d = dpath(verts, (P, P, P, P, U))
    r = shorten_once(d, 1)  # remove -4; neighbors infinity and -3 share an edge
    assert r.consistent and r.path.signs[0] is P

    d2 = dpath(verts, (M, P, P, P, U))
    r2 = shorten_once(d2, 1)
    assert not r2.consistent

    d3 = dpath([INFINITY, Slope(-1), ZERO], (M, U))
    r3 = shorten_once(d3, 1)  # unsigned edge absorbs a signed one
    assert r3.consistent and r3.path.signs == (U,)


def test_shorten_once_rejects_non_removable():
    d = dpath(integer_run(-3, 0), (P, P, U))
    with pytest.raises(DecorationError):
        shorten_once(d, 1)  # -3 and -1 are not adjacent
    with pytest.raises(DecorationError):
        shorten_once(d, 0)  # endpoint


def test_is_tight_minimal_paths_are_tight():
    ctx = ThickenedTorus(Slope(-4), Slope(-1))
    for signs in product((P, M), repeat=3):
        assert is_tight(dpath(integer_run(-4, -1), signs), ctx)


def test_is_tight_stabilized_complement():
    # complement of a once-stabilized knot over the integer family:
    # matching terminal sign consistently shortens, opposite sign does not
    for p in (2, 3, 5):
        verts = [INFINITY] + integer_run(-p - 1, 0)
        ctx = UpperSolidTorus(meridian=ZERO, boundary=INFINITY)
        all_plus = (P,) * (p + 1) + (U,)
        assert is_tight(dpath(verts, all_plus), ctx)
        flipped = (M,) + (P,) * p + (U,)
        assert not is_tight(dpath(verts, flipped), ctx)


def test_is_tight_deep_chain():
    # a thickened torus from infinity to 0 through every integer down to
    # -1000: a thousand consecutive shortenings, one search state each
    verts = [INFINITY] + integer_run(-1000, 0)
    ctx = ThickenedTorus(INFINITY, ZERO)
    assert is_tight(dpath(verts, [P] * (len(verts) - 1)), ctx)


def test_is_tight_needs_shuffling_bookkeeping():
    # one minus inside the block blocks every consistent collapse
    p = 4
    verts = [INFINITY] + integer_run(-p - 1, 0)
    ctx = UpperSolidTorus(meridian=ZERO, boundary=INFINITY)
    signs = (P, M) + (P,) * (p - 1) + (U,)
    assert not is_tight(dpath(verts, signs), ctx)


def test_is_tight_rejects_mismatched_context():
    d = dpath(integer_run(-3, 0), (P, P, U))
    with pytest.raises(DecorationError):
        is_tight(d, ThickenedTorus(Slope(-3), ZERO))
    with pytest.raises(DecorationError):
        is_tight(d, UpperSolidTorus(meridian=ZERO, boundary=Slope(-2)))
    with pytest.raises(DecorationError):
        is_tight(d, Lens(3, 1))


def test_count_tight_examples():
    assert count_tight(Lens(5, 2)) == 2
    assert count_tight(Lens(1, 1)) == 1
    for p in range(2, 8):
        assert count_tight(ThickenedTorus(Slope(-p - 1), Slope(-1))) == p + 1


def test_count_tight_lens_matches_expansion_product():
    from math import gcd

    from nonloose.cfrac import expand

    for p in range(2, 26):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            prod = 1
            for a in expand(Slope(-p, q)).coeffs:
                prod *= abs(a + 1)
            assert count_tight(Lens(p, q)) == prod, (p, q)


def test_enumerate_tight_examples():
    classes = enumerate_tight(ThickenedTorus(Slope(-4), Slope(-1)))
    assert len(classes) == 4
    assert sorted(c.minus_counts for c in classes) == [(0,), (1,), (2,), (3,)]
    assert len(enumerate_tight(Lens(3, 1))) == 2
    single = enumerate_tight(UpperSolidTorus(meridian=ZERO, boundary=INFINITY))
    assert len(single) == 1 and single[0].minus_counts == (0,)


def test_count_tight_lower_torus_through_infinity():
    # boundary slope on the far side of the circle: the minimal path from
    # -(2n+1)/2 jumps to -n and then straight to infinity, whose edge
    # shares a block with the first jump, leaving one signable edge
    for n in (2, 3, 5):
        ctx = LowerSolidTorus(meridian=Slope(-2 * n - 1, 2), boundary=INFINITY)
        assert minimal_path(Slope(-2 * n - 1, 2), INFINITY).vertices == (
            Slope(-2 * n - 1, 2),
            Slope(-n),
            INFINITY,
        )
        assert count_tight(ctx) == 2


def test_enumerate_matches_count_everywhere():
    ctxs = [
        ThickenedTorus(Slope(-7, 2), Slope(-1)),
        UpperSolidTorus(meridian=ZERO, boundary=Slope(-8, 3)),
        LowerSolidTorus(meridian=Slope(-5, 2), boundary=INFINITY),
        Lens(12, 5),
    ]
    for ctx in ctxs:
        classes = enumerate_tight(ctx)
        assert len(classes) == len(set(classes)) == count_tight(ctx)


def test_relative_euler_examples():
    d = dpath([Slope(-2), Slope(-1)], (P,))
    assert relative_euler(d) == SignedVector(1, 0)
    big = dpath(integer_run(-5, -1), (P, M, P, M))
    assert relative_euler(big) == SignedVector(0, 0)
    flipped = dpath(integer_run(-5, -1), (M, P, M, P))
    assert relative_euler(flipped) == -relative_euler(big)


def test_relative_euler_additive_over_concatenation():
    left = dpath(integer_run(-6, -3), (P, M, P))
    right = dpath(integer_run(-3, -1), (M, M))
    whole = dpath(integer_run(-6, -1), (P, M, P, M, M))
    assert relative_euler(whole) == relative_euler(left) + relative_euler(right)


def test_euler_on_disk_calibration():
    # complements over the integer family: p - 2k against the 0-meridian
    for p in (3, 4, 5):
        for k in range(p + 1):
            signs = tuple(M if i < k else P for i in range(p)) + (U,)
            d = dpath(integer_run(-p - 1, 0), signs)
            assert euler_on_disk(d, ZERO) == p - 2 * k
    d = dpath(integer_run(-4, 0), (P, M, P, U))
    assert euler_on_disk(d, ZERO) == -euler_on_disk(
        dpath(integer_run(-4, 0), (M, P, M, U)), ZERO
    )


def test_euler_on_disk_odd_over_two_family():
    # complements with dividing slope -(n+1) in the odd/2 lens family:
    # n signed edges, l of them minus, pairing n - 2l with the meridian
    for n in (2, 3, 5):
        verts = integer_run(-n - 1, 0)
        for l in range(n + 1):
            signs = tuple(M if i < l else P for i in range(n)) + (U,)
            d = dpath(verts, signs)
            assert euler_on_disk(d, ZERO) == n - 2 * l


def test_shuffle_euler_matches_concrete():
    verts = minimal_path(Slope(-8, 3), ZERO).vertices
    for signs in product((P, M), repeat=3):
        d = DecoratedPath(FareyPath(verts), tuple(signs) + (U,))
        sc = canonicalize(d)
        assert shuffle_euler_on_disk(sc, ZERO) == euler_on_disk(d, ZERO)


def _context_signs(kind, edges):
    if kind == "torus":
        signable = list(range(edges))
        unsigned = []
    elif kind == "upper":
        signable = list(range(edges - 1))
        unsigned = [edges - 1]
    else:
        signable = list(range(1, edges))
        unsigned = [0]
    for combo in product((P, M), repeat=len(signable)):
        signs = [U] * edges
        for e, sg in zip(signable, combo):
            signs[e] = sg
        yield tuple(signs)


def _extensions(vertices, pool):
    for u in pool:
        if u in vertices:
            continue
        try:
            FareyPath((u,) + vertices)
        except Exception:
            continue
        yield (u,) + vertices


def test_is_tight_matches_exhaustive_search_on_extensions(rng):
    from oracles import bounded_slopes

    pool = bounded_slopes(6)
    checked = 0
    for _ in range(160):
        r, s = rng.sample(pool, 2)
        base = minimal_path(r, s).vertices
        if not 1 <= len(base) - 1 <= 5:
            continue
        exts = list(_extensions(base, pool))
        if not exts:
            continue
        verts = exts[rng.randrange(len(exts))]
        edges = len(verts) - 1
        if edges > 7:
            continue
        kind = ("torus", "upper", "lower")[checked % 3]
        if kind == "torus":
            ctx = ThickenedTorus(verts[0], verts[-1])
        elif kind == "upper":
            ctx = UpperSolidTorus(meridian=verts[-1], boundary=verts[0])
        else:
            ctx = LowerSolidTorus(meridian=verts[0], boundary=verts[-1])
        minimal = minimal_path(verts[0], verts[-1]).vertices
        for signs in _context_signs(kind, edges):
            d = DecoratedPath(FareyPath(verts), signs)
            oracle_signs = tuple(int(s) for s in signs)
            want = tight_by_search(verts, oracle_signs, minimal)
            assert is_tight(d, ctx) == want, (verts, signs, kind)
        checked += 1
    assert checked >= 40


def test_one_consistent_shortening_preserves_tightness(rng):
    # after any single consistent shortening the verdict must not change
    from oracles import bounded_slopes

    pool = bounded_slopes(5)
    cases = 0
    for _ in range(200):
        r, s = rng.sample(pool, 2)
        base = minimal_path(r, s).vertices
        if not 1 <= len(base) - 1 <= 4:
            continue
        exts = list(_extensions(base, pool))
        if not exts:
            continue
        verts = exts[rng.randrange(len(exts))]
        if len(verts) - 1 > 6:
            continue
        ctx = ThickenedTorus(verts[0], verts[-1])
        for signs in product((P, M), repeat=len(verts) - 1):
            d = DecoratedPath(FareyPath(verts), signs)
            before = is_tight(d, ctx)
            for i in range(1, len(verts) - 1):
                try:
                    res = shorten_once(d, i)
                except DecorationError:
                    continue
                if not res.consistent:
                    continue
                after = is_tight(res.path, ctx)
                # a consistent move can only keep or create tightness
                # witnesses; on tight structures it must preserve them
                if before:
                    assert after, (verts, signs, i)
                cases += 1
    assert cases >= 30


def test_is_tight_is_shuffle_invariant(rng):
    # decorations carrying the same per-block sign multisets must agree
    from collections import defaultdict

    from nonloose.cfrac import block_structure
    from oracles import bounded_slopes

    pool = bounded_slopes(5)
    checked = 0
    for _ in range(120):
        r, s = rng.sample(pool, 2)
        base = minimal_path(r, s).vertices
        exts = list(_extensions(base, pool))
        if not exts:
            continue
        verts = exts[rng.randrange(len(exts))]
        if not 3 <= len(verts) - 1 <= 6:
            continue
        ctx = ThickenedTorus(verts[0], verts[-1])
        blocks = block_structure(FareyPath(verts))
        groups = defaultdict(set)
        for signs in product((P, M), repeat=len(verts) - 1):
            key = tuple(
                sum(1 for e in blk if signs[e] is M) for blk in blocks
            )
            groups[key].add(is_tight(DecoratedPath(FareyPath(verts), signs), ctx))
        assert all(len(v) == 1 for v in groups.values()), verts
        checked += 1
    assert checked >= 20


def test_count_tight_matches_orbit_enumeration(rng):
    from oracles import bounded_slopes

    pool = bounded_slopes(6)
    checked = 0
    while checked < 120:
        r, s = rng.sample(pool, 2)
        verts = minimal_path(r, s).vertices
        if len(verts) - 1 > 7:
            continue
        kind = checked % 3
        if kind == 0:
            ctx = ThickenedTorus(r, s)
            unsigned = frozenset()
        elif kind == 1:
            ctx = UpperSolidTorus(meridian=s, boundary=r)
            unsigned = frozenset({len(verts) - 2})
        else:
            ctx = LowerSolidTorus(meridian=r, boundary=s)
            unsigned = frozenset({0})
        assert count_tight(ctx) == count_by_orbits(verts, unsigned), (r, s, kind)
        checked += 1


def test_shortening_moves_and_blocks_match_oracles():
    from nonloose.cfrac import _minimal_vertices, block_structure
    from nonloose.decorated import _context_data
    from oracles import ShorteningGeometry, _signed_sizes, blocks_of, bounded_slopes, shorten_to_minimal, shortening_moves_by_outer_dots

    # the move table of every mask the search reaches, with every allowed
    # unsigned pattern, on non-minimal paths: extensions of minimal paths,
    # which can only lose their second vertex; concatenations r -> m -> s
    # of two minimal paths, which lose interior vertices and exercise every
    # keep and join flag; prefixes of the chain infinity, -1000, ..., -1, 0.
    # With no minus signs every merge is consistent, so the search reaches
    # every mask that some sequence of removals reaches
    pool = bounded_slopes(5)
    bases = {minimal_path(r, s).vertices for r in pool for s in pool if r != s}
    paths = {v for base in bases for v in _extensions(base, pool)}
    pool = bounded_slopes(3)
    for r, m, s in product(pool, repeat=3):
        if len({r, m, s}) == 3:
            try:
                paths.add(FareyPath(_minimal_vertices(r, m) + _minimal_vertices(m, s)[1:]).vertices)
            except FareyError:
                pass  # the two paths do not join into one clockwise path
    paths = [v for v in paths if v != _minimal_vertices(v[0], v[-1])]
    chain = (INFINITY,) + tuple(integer_run(-1000, 0))
    paths += [chain[:n] for n in (3, 4, 12, 101, len(chain))]
    masks = 0
    for verts in paths:
        for unsigned in ((False, False), (True, False), (False, True)):
            geometry = ShorteningGeometry(verts, *unsigned)
            assert shorten_to_minimal(geometry, (0,) * len(blocks_of(verts)))
            for mask, moves in geometry.items():
                assert moves == shortening_moves_by_outer_dots(verts, *unsigned, mask), (verts, unsigned, mask)
            masks += len(geometry)
    assert len(paths) > 2500 and masks > 25_000

    # blocks and signed sizes of every minimal path, with each pattern of
    # unsigned terminal edges, and of L(1,1), whose one edge is unsigned twice
    pool = bounded_slopes(12)
    cases = [(r, s) for r in pool for s in pool if r != s]
    for r, s in cases:
        verts = _minimal_vertices(r, s)
        blocks = blocks_of(verts)
        assert block_structure(FareyPath(verts)) == tuple(map(tuple, blocks)), (r, s)
        last = len(verts) - 2
        for unsigned in ((), (0,), (last,), (0, last)):
            lengths, sizes = _signed_sizes(verts, unsigned)
            assert lengths == tuple(map(len, blocks)), (r, s)
            assert sizes == tuple(sum(e not in unsigned for e in b) for b in blocks), (r, s, unsigned)
    verts, unsigned = _context_data(Lens(1, 1))
    assert blocks_of(verts) == [[0]] and _signed_sizes(verts, unsigned) == ((1,), (0,))
    assert count_tight(Lens(1, 1)) == 1


def test_context_sizes_match_the_oracle_on_every_context_kind():
    from math import gcd

    from nonloose.decorated import _context_data, _context_sizes
    from oracles import _signed_sizes, bounded_slopes

    # the package takes the context's unsigned edges off its end blocks by
    # the context's rule; the oracle counts each block's unsigned edges by
    # position on the built path. Every kind, with one edge included
    pool = bounded_slopes(12)
    contexts = [kind(r, s) for r in pool for s in pool if r != s for kind in (ThickenedTorus, LowerSolidTorus, UpperSolidTorus)]
    contexts += [Lens(p, q) for p in range(2, 41) for q in range(1, p) if gcd(p, q) == 1] + [Lens(1, 1)]
    one_edge = 0
    for c in contexts:
        data = _context_data(c)
        assert _context_sizes(c) == _signed_sizes(*data), c
        one_edge += len(data[0]) == 2
    assert (len(contexts), one_edge) == (101_506, 2_191)  # 730 of each torus kind, and L(1,1)


def _decoration(verts, blocks, counts, unsigned, rng):
    # one decoration of a shuffle class: in each block, minus signs on a
    # random choice of that many signed edges and plus signs on the rest
    signs = [U] * (len(verts) - 1)
    for blk, minus in zip(blocks, counts):
        signed = [e for e in blk if e not in unsigned]
        for n, e in enumerate(rng.sample(signed, len(signed))):
            signs[e] = M if n < minus else P
    return DecoratedPath(FareyPath(verts), tuple(signs))


def _walk_finals(d):
    from nonloose.decorated import shorten_to_minimal

    final = shorten_to_minimal(d)
    return set() if final is None else {canonicalize(final).minus_counts}


def test_walk_matches_search_oracle_on_every_shuffle_class(rng):
    from math import gcd

    from nonloose.cfrac import _minimal_vertices
    from nonloose.unknots import K0, K1, LensSpace, classes_at_slope, slope_k
    from oracles import ShorteningGeometry, blocks_of, bounded_slopes, shorten_to_minimal, stabilized_counts_by_search

    # non-minimal paths: one-vertex extensions of the minimal paths over
    # bounded_slopes(4), and concatenations r -> m -> s of two minimal paths
    # over bounded_slopes(3) with at most six edges; every shuffle class of
    # each, in each pattern of unsigned terminal edges, against the search's
    # set of final classes
    pool = bounded_slopes(4)
    paths = {v for r in pool for s in pool if r != s for v in _extensions(_minimal_vertices(r, s), pool)}
    pool = bounded_slopes(3)
    for r, m, s in product(pool, repeat=3):
        if len({r, m, s}) < 3:
            continue
        verts = _minimal_vertices(r, m) + _minimal_vertices(m, s)[1:]
        try:
            if len(verts) <= 7:
                paths.add(FareyPath(verts).vertices)
        except FareyError:
            pass  # the two paths do not join into one clockwise path
    paths = [v for v in paths if v != _minimal_vertices(v[0], v[-1])]
    classes = tight = 0
    for verts in paths:
        blocks = blocks_of(verts)
        for first_u, last_u in ((False, False), (True, False), (False, True)):
            unsigned = {0} if first_u else {len(verts) - 2} if last_u else set()
            geometry = ShorteningGeometry(verts, first_u, last_u)
            sizes = [sum(e not in unsigned for e in blk) for blk in blocks]
            for counts in product(*(range(n + 1) for n in sizes)):
                finals = shorten_to_minimal(geometry, counts)
                assert len(finals) <= 1, (verts, unsigned, counts)
                assert _walk_finals(_decoration(verts, blocks, counts, unsigned, rng)) == finals, (verts, unsigned, counts)
                classes += 1
                tight += bool(finals)
    assert len(paths) > 1000 and classes > 20_000 and 0 < tight < classes

    # stabilization paths: s_{k-1}, carrying the stabilization sign, in
    # front of each class's complement path s_k -> 0, whose last edge is
    # unsigned
    stabilizations = 0
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) == 1:
                lens = LensSpace(p, q)
                for knot in (K0,) if lens.qbar == q else (K0, K1):
                    for k in range(1, 5):
                        below = slope_k(lens, knot, k - 1)
                        for c in classes_at_slope(lens, knot, k):
                            path = c.complement.path
                            base = _decoration(path, blocks_of(path), c.complement.minus_counts, {len(path) - 2}, rng)
                            for sign in (P, M):
                                finals = stabilized_counts_by_search(c, sign)
                                assert len(finals) <= 1, (str(lens), str(knot), c.class_id, sign)
                                d = DecoratedPath(FareyPath((below,) + path), (sign,) + base.signs)
                                assert _walk_finals(d) == finals, (str(lens), str(knot), c.class_id, sign)
                                stabilizations += 1
    assert stabilizations > 4000


def test_signs_must_be_sign_members():
    # ints and other values used to pass and gave silently wrong answers:
    # (1, -1, -1) was tight where (P, M, M) is not, and -1 counted as a plus
    path = FareyPath((INFINITY, Slope(-2), Slope(-1), ZERO))
    for signs in ((1, -1, -1), (-1, -1, -1), (0, 0, P), (7, "x", P), (P, M, 1.0)):
        with pytest.raises(DecorationError):
            DecoratedPath(path, signs)
    assert not is_tight(DecoratedPath(path, (P, M, M)), ThickenedTorus(INFINITY, ZERO))


def test_long_chain_walk_matches_short_chain():
    # infinity, -n, ..., 0 shortens to its one edge infinity -> 0; for each
    # sign pattern the 1002-vertex chain gets the verdict and final sign of
    # the 7-vertex chain, whose verdict the exhaustive search confirms
    from nonloose.decorated import shorten_to_minimal

    patterns = [
        lambda e: [P] * e,
        lambda e: [M] * e,
        lambda e: [M] + [P] * (e - 1),
        lambda e: [P] * (e // 2) + [M] + [P] * (e - e // 2 - 1),
        lambda e: [P] * (e - 1) + [M],
        lambda e: [U] + [P, M] * ((e - 1) // 2) + [P] * ((e - 1) % 2),
        lambda e: [M] * (e - 1) + [U],
        lambda e: [P] + [M] * (e - 2) + [U],
    ]
    verdicts = []
    for pattern in patterns:
        finals = []
        for n in (5, 1000):
            verts = [INFINITY] + integer_run(-n, 0)
            signs = pattern(len(verts) - 1)
            assert len(signs) == len(verts) - 1
            final = shorten_to_minimal(dpath(verts, signs))
            finals.append(None if final is None else (final.vertices, final.signs))
            if n == 5:
                assert tight_by_search(tuple(verts), tuple(map(int, signs)), (INFINITY, ZERO)) == (final is not None)
        assert finals[0] == finals[1], finals
        verdicts.append(finals[0] is not None)
    assert verdicts == [True, True, False, False, False, True, True, False]


def test_is_tight_names_each_context_mismatch():
    signed = dpath(integer_run(-3, 0), (P, P, P))
    upper = dpath(integer_run(-3, 0), (P, P, U))
    lower = dpath(integer_run(-3, 0), (U, P, P))
    cases = [
        (signed, ThickenedTorus(Slope(-3), Slope(-1)), "path endpoints do not match the boundary slopes"),
        (upper, ThickenedTorus(Slope(-3), ZERO), "thickened torus paths carry a sign on every edge"),
        (upper, LowerSolidTorus(Slope(-3), ZERO), "a lower solid torus leaves exactly the first edge unsigned"),
        (lower, LowerSolidTorus(Slope(-3), Slope(-1)), "path endpoints do not match the torus data"),
        (lower, UpperSolidTorus(meridian=ZERO, boundary=Slope(-3)), "an upper solid torus leaves exactly the last edge unsigned"),
        (upper, UpperSolidTorus(meridian=ZERO, boundary=Slope(-2)), "path endpoints do not match the torus data"),
        (upper, Lens(3, 1), "tightness of decorated paths is not defined on lens contexts"),
    ]
    for d, ctx, message in cases:
        with pytest.raises(DecorationError) as info:
            is_tight(d, ctx)
        assert str(info.value) == message, (d, ctx)


def test_relative_euler_skips_unsigned_edges():
    run = integer_run(-4, 0)
    for signs in ((U, P, M, P), (P, M, P, U), (U, M, M, M)):
        signed = [e for e, s in enumerate(signs) if s is not U]
        inner = dpath(run[signed[0] : signed[-1] + 2], [signs[e] for e in signed])
        assert relative_euler(dpath(run, signs)) == relative_euler(inner)
    assert relative_euler(dpath(integer_run(-2, -1), (U,))) == SignedVector(0, 0)


def test_shuffle_euler_rejects_a_block_across_infinity():
    # 1 -> 1/0 -> -1 is one block whose two edges take different
    # representatives of infinity
    (sc,) = enumerate_tight(ThickenedTorus(Slope(1), Slope(-1)))[:1]
    assert sc.path == (Slope(1), INFINITY, Slope(-1))
    with pytest.raises(DecorationError, match="^block crosses an infinity representative change$"):
        shuffle_euler_on_disk(sc, ZERO)


def test_unknown_context_is_a_decoration_error():
    for query in (count_tight, enumerate_tight):
        with pytest.raises(DecorationError, match=r"^unknown context 'torus'$"):
            query("torus")


def test_every_context_query_names_an_unknown_context():
    d = dpath(integer_run(-3, 0), (P, P, P))
    for query in (lambda c: is_tight(d, c), count_tight, enumerate_tight):
        with pytest.raises(DecorationError, match=r"^unknown context 'torus'$"):
            query("torus")
        with pytest.raises(DecorationError, match=r"^unknown context None$"):
            query(None)


def _check_outcome(check, d, c):
    # the message a context check raises, or None when it accepts
    try:
        check(d, c)
    except DecorationError as e:
        return str(e)
    return None


def test_context_check_matches_the_per_type_oracle():
    from dataclasses import dataclass

    from nonloose.cfrac import _minimal_vertices
    from nonloose.decorated import _check_against_context
    from oracles import bounded_slopes, check_against_context_by_types

    # subclasses keep the messages of the context type they extend
    @dataclass(frozen=True)
    class Thick(ThickenedTorus):
        pass

    @dataclass(frozen=True)
    class Lower(LowerSolidTorus):
        pass

    @dataclass(frozen=True)
    class Upper(UpperSolidTorus):
        pass

    def kinds(r, s, types=(ThickenedTorus, LowerSolidTorus, UpperSolidTorus)):
        # every context kind on the path r -> s
        thick, lower, upper = types
        return thick(r, s), lower(meridian=r, boundary=s), upper(meridian=s, boundary=r)

    pool = bounded_slopes(8)
    lenses = (Lens(1, 1), Lens(3, 1), Lens(5, 2))
    checked, accepted = 0, 0
    for i, r in enumerate(pool):
        for s in pool:
            if r == s:
                continue
            verts = _minimal_vertices(r, s)
            edges = len(verts) - 1
            shifted = pool[(i + 1) % len(pool)]
            # correct endpoints, swapped, and each end shifted to another
            # slope; the subclasses on the correct endpoints; lens spaces,
            # which refuse every path alike, on the paths from a few slopes
            ends = [(r, s), (s, r)] + [e for e in ((shifted, s), (r, shifted)) if e[0] != e[1]]
            contexts = [c for a, b in ends for c in kinds(a, b)] + list(kinds(r, s, (Thick, Lower, Upper)))
            if i < 4:
                contexts += lenses
            # every unsigned placement a decorated path can carry
            for unsigned in ((), (0,), (edges - 1,)):
                d = dpath(verts, [U if e in unsigned else P for e in range(edges)])
                for c in contexts:
                    want = _check_outcome(check_against_context_by_types, d, c)
                    assert _check_outcome(_check_against_context, d, c) == want, (verts, unsigned, c)
                    accepted += want is None
                    checked += 1
    assert len(pool) == 88 and checked > 300_000 and accepted > 40_000
    d = dpath(integer_run(-3, 0), (P, P, U))
    for c in ("torus", None, 3):
        assert _check_outcome(check_against_context_by_types, d, c) == "tightness of decorated paths is not defined on lens contexts"
        assert _check_outcome(_check_against_context, d, c) == f"unknown context {c!r}"


def test_lens_structures_list_each_unsigned_edge_once():
    # the one edge of L(1, 1) is both terminal edges
    assert enumerate_tight(Lens(1, 1)) == [ShuffleClass((Slope(-1), ZERO), (0,), (0,))]
    for p, q in ((2, 1), (5, 2), (7, 3)):
        for sc in enumerate_tight(Lens(p, q)):
            assert sc.unsigned_positions == (0, len(sc.path) - 2)


def test_count_tight_builds_no_path(monkeypatch):
    from math import gcd, prod

    from nonloose import cfrac, decorated
    from nonloose.cfrac import expand
    from oracles import blocks_of, bounded_slopes, minimal_vertices_by_steps

    def no_path(r, s):
        raise AssertionError(f"count_tight built the path {r} -> {s}")

    pool = bounded_slopes(8)
    paths = {(r, s): minimal_vertices_by_steps(r, s) for r in pool for s in pool if r != s}
    monkeypatch.setattr(cfrac, "_minimal_vertices", no_path)
    monkeypatch.setattr(decorated, "_minimal_vertices", no_path)
    # count_by_orbits reads a path only through its blocks, so one call per
    # block structure and unsigned set serves every path sharing them; it
    # doubles its work per edge, so longer paths take blocks_of's product
    orbits = {}
    for (r, s), verts in paths.items():
        edges = len(verts) - 1
        lengths = tuple(map(len, blocks_of(verts)))
        for ctx, unsigned in (
            (ThickenedTorus(r, s), frozenset()),
            (UpperSolidTorus(meridian=s, boundary=r), frozenset({edges - 1})),
            (LowerSolidTorus(meridian=r, boundary=s), frozenset({0})),
        ):
            key = (lengths, unsigned)
            if key not in orbits:
                if edges <= 10:
                    orbits[key] = count_by_orbits(verts, unsigned)
                else:
                    blocks = blocks_of(verts)
                    orbits[key] = prod(sum(e not in unsigned for e in blk) + 1 for blk in blocks)
            assert count_tight(ctx) == orbits[key], ctx
    assert count_tight(Lens(1, 1)) == 1
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert count_tight(Lens(p, q)) == prod(abs(a + 1) for a in expand(Slope(-p, q)).coeffs), (p, q)
    with pytest.raises(DecorationError, match=r"^unknown context 'torus'$"):
        count_tight("torus")


def test_tight_count_of_a_long_lens_fits_in_a_gigabyte():
    # L(10^8, 1) has a path of 10^8 edges, whose vertices would need
    # gigabytes: far past the child's address-space limit
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import nonloose

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(nonloose.__file__).parents[1])}
    argv = [sys.executable, "-m", "nonloose.cli", "tight-count", "lens", "100000000", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=limit)
    assert (done.returncode, done.stdout, done.stderr) == (0, "99999999\n", "")


def test_shortened_paths_match_checked_construction():
    # shorten_once and shorten_to_minimal build their paths with no
    # FareyPath check; on the non-minimal corpora above (one-vertex
    # extensions over bounded_slopes(4), joined minimal paths over
    # bounded_slopes(3)), each must equal its checked construction, and
    # the walk's result the minimal path
    from nonloose.cfrac import _minimal_vertices
    from nonloose.decorated import shorten_to_minimal
    from oracles import bounded_slopes

    pool = bounded_slopes(4)
    paths = {v for r in pool for s in pool if r != s for v in _extensions(_minimal_vertices(r, s), pool)}
    pool = bounded_slopes(3)
    for r, m, s in product(pool, repeat=3):
        if len({r, m, s}) == 3:
            try:
                paths.add(FareyPath(_minimal_vertices(r, m) + _minimal_vertices(m, s)[1:]).vertices)
            except FareyError:
                pass  # the two paths do not join into one clockwise path
    paths = [v for v in paths if v != _minimal_vertices(v[0], v[-1])]
    removals = 0
    for verts in paths:
        edges = len(verts) - 1
        for signs in ((P,) * edges, (U,) + (M,) * (edges - 1), (P,) * (edges - 1) + (U,)):
            d = dpath(verts, signs)
            final = shorten_to_minimal(d)
            assert FareyPath(final.vertices) == final.path, verts
            assert final.vertices == _minimal_vertices(verts[0], verts[-1]), verts
            for i in range(1, edges):
                try:
                    res = shorten_once(d, i)
                except DecorationError:
                    continue
                assert FareyPath(res.path.vertices) == res.path.path, (verts, i)
                assert res.path.vertices == verts[:i] + verts[i + 1 :], (verts, i)
                removals += 1
    assert len(paths) > 1000 and removals > 3000
