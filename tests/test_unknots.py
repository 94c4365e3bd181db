import sys
from dataclasses import fields, replace
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonloose.decorated import Sign
from nonloose.farey import INFINITY, Slope
from nonloose.unknots import (
    K0,
    K1,
    ClassificationError,
    Existence,
    Flavor,
    KnotId,
    LensSpace,
    RangeKind,
    TopologyFacts,
    admits_nonloose,
    classes_at_slope,
    classify,
    measured_counts,
    range_counts,
    slope_k,
    smooth_knot_classes,
    stabilize,
)


def test_lens_space_validation():
    LensSpace(1, 1)
    LensSpace(7, 3)
    with pytest.raises(ClassificationError):
        LensSpace(4, 2)
    with pytest.raises(ClassificationError):
        LensSpace(5, 5)
    assert LensSpace(5, 2).qbar == 3
    assert LensSpace(5, 3).qbar == 2
    assert LensSpace(7, 1).qbar == 1


def test_smooth_knot_classes():
    assert smooth_knot_classes(LensSpace(2, 1)) == [K0]
    assert [str(k) for k in smooth_knot_classes(LensSpace(5, 1))] == ["K0", "-K0"]
    assert len(smooth_knot_classes(LensSpace(5, 2))) == 4


def test_slope_k_examples():
    for p in (2, 3, 7):
        assert slope_k(LensSpace(p, 1), K0, 0) == INFINITY
        assert slope_k(LensSpace(p, 1), K0, 1) == Slope(-p - 1)
    assert slope_k(LensSpace(5, 2), K0, 0) == Slope(-3)
    assert slope_k(LensSpace(5, 2), K0, 1) == Slope(-8, 3)
    # second core works through the swapped lens space
    assert slope_k(LensSpace(5, 2), K1, 0) == Slope(-2)
    assert slope_k(LensSpace(1, 1), K0, 1) == Slope(-2)


def test_classes_at_slope_integer_family():
    for p in (2, 3, 5):
        lens = LensSpace(p, 1)
        base = classes_at_slope(lens, K0, 0)
        assert len(base) == 1
        assert (base[0].rot_q, base[0].tb_q) == (0, Fraction(1, p))
        assert base[0].euler == 0

        level1 = classes_at_slope(lens, K0, 1)
        assert len(level1) == p + 1
        assert {c.tb_q for c in level1} == {Fraction(p + 1, p)}
        assert {c.rot_q for c in level1} == {
            Fraction(p - 2 * k, p) for k in range(p + 1)
        }

        level2 = classes_at_slope(lens, K0, 2)
        assert len(level2) == 2 * p


def test_tb_denominator_divides_order():
    for lens in (LensSpace(5, 2), LensSpace(12, 5), LensSpace(9, 4)):
        for knot in (K0, K1):
            for k in range(3):
                for c in classes_at_slope(lens, knot, k):
                    assert (Fraction(c.tb_q) * lens.p).denominator == 1
                    assert (Fraction(c.rot_q) * lens.p).denominator == 1


def test_stabilize_integer_family():
    lens = LensSpace(4, 1)
    p = 4
    base = classes_at_slope(lens, K0, 0)[0]
    assert stabilize(base, Sign.PLUS) is None
    assert stabilize(base, Sign.MINUS) is None

    level1 = {c.rot_q: c for c in classes_at_slope(lens, K0, 1)}
    top = level1[Fraction(p, p)]  # all-plus structure
    bottom = level1[Fraction(-p, p)]  # all-minus structure
    assert stabilize(top, Sign.PLUS) == base
    assert stabilize(top, Sign.MINUS) is None
    assert stabilize(bottom, Sign.MINUS) == base
    assert stabilize(bottom, Sign.PLUS) is None
    for rot, c in level1.items():
        if rot not in (Fraction(p, p), Fraction(-p, p)):
            assert stabilize(c, Sign.PLUS) is None
            assert stabilize(c, Sign.MINUS) is None


def test_stabilize_descends_one_level():
    lens = LensSpace(5, 2)
    for c in classes_at_slope(lens, K0, 3):
        for sign in (Sign.PLUS, Sign.MINUS):
            r = stabilize(c, sign)
            if r is not None:
                assert r.k == c.k - 1
                assert r.tb_q == c.tb_q - 1
                assert r.rot_q == c.rot_q - (1 if sign is Sign.PLUS else -1)


def test_classify_small_examples():
    got = {
        (mr.kind, mr.base_rot, mr.base_tb, mr.euler)
        for mr in classify(LensSpace(3, 1), K0)
    }
    assert got == {
        (RangeKind.V, Fraction(0), Fraction(1, 3), 0),
        (RangeKind.V, Fraction(1, 3), Fraction(4, 3), -1),
        (RangeKind.V, Fraction(-1, 3), Fraction(4, 3), 1),
    }

    got = {
        (mr.kind, mr.base_rot, mr.base_tb, mr.euler)
        for mr in classify(LensSpace(4, 3), K0)
    }
    assert got == {
        (RangeKind.V, Fraction(0), Fraction(7, 4), 0),
        (RangeKind.BACK_SLASH, Fraction(-1, 2), Fraction(3, 4), 2),
        (RangeKind.FORWARD_SLASH, Fraction(1, 2), Fraction(3, 4), -2),
    }

    got = {
        (mr.kind, mr.base_rot, mr.base_tb)
        for mr in classify(LensSpace(5, 2), K0)
    }
    assert got == {
        (RangeKind.BACK_SLASH, Fraction(-2, 5), Fraction(3, 5)),
        (RangeKind.FORWARD_SLASH, Fraction(2, 5), Fraction(3, 5)),
        (RangeKind.V, Fraction(0), Fraction(3, 5)),
        (RangeKind.V, Fraction(1, 5), Fraction(8, 5)),
        (RangeKind.V, Fraction(-1, 5), Fraction(8, 5)),
    }


def test_classify_unknot_in_three_sphere():
    ranges = classify(LensSpace(1, 1), K0)
    assert len(ranges) == 1
    mr = ranges[0]
    assert mr.kind is RangeKind.V
    assert (mr.base_rot, mr.base_tb, mr.euler) == (0, 1, 0)
    arms = {(m.arm, m.index, m.cls.rot_q, m.cls.tb_q) for m in mr.members if m.arm != "base"}
    assert ("+", 1, Fraction(1), Fraction(2)) in arms
    assert ("-", 1, Fraction(-1), Fraction(2)) in arms


def test_orientation_reversal_flips_rot_and_slash_kinds():
    plus = classify(LensSpace(5, 2), K0)
    minus = classify(LensSpace(5, 2), KnotId("K0", False))
    got = {(mr.kind, mr.base_rot, mr.base_tb, mr.euler) for mr in minus}
    want = {
        (
            {
                RangeKind.V: RangeKind.V,
                RangeKind.BACK_SLASH: RangeKind.FORWARD_SLASH,
                RangeKind.FORWARD_SLASH: RangeKind.BACK_SLASH,
            }[mr.kind],
            -mr.base_rot,
            mr.base_tb,
            mr.euler,
        )
        for mr in plus
    }
    assert got == want


def test_orientation_reversal_labels_members():
    for mr in classify(LensSpace(5, 2), KnotId("K0", False)):
        assert all(str(m.cls.knot) == "-K0" for m in mr.members)


def test_range_counts_examples():
    rc = range_counts(LensSpace(5, 2), K0)
    assert (rc.v_low, rc.slashes, rc.v_high) == (1, 1, 2)
    for p in (2, 5, 9):
        rc = range_counts(LensSpace(p, 1), K0)
        assert rc.slashes == 0 and rc.v_low + rc.v_high == p
    for n in (2, 3, 6):
        rc = range_counts(LensSpace(2 * n + 1, 2), K1)
        assert (rc.v_low, rc.slashes, rc.v_high) == (0, 1, n)


def test_range_counts_match_classify_small_sweep():
    # the negative cores too, as range_counts reads each core's counts off
    # the expansion of that core's own meridian
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for knot in (K0, K1, KnotId("K0", False), KnotId("K1", False)):
                lens = LensSpace(p, q)
                assert range_counts(lens, knot) == measured_counts(
                    classify(lens, knot, 3), lens
                ), (p, q, str(knot))


def _stab_map(mr):
    return {(e.source, e.sign): e.target for e in mr.edges}


def test_mountain_range_relations_hold_on_stored_graph():
    for lens, knot in (
        (LensSpace(7, 1), K0),
        (LensSpace(5, 2), K0),
        (LensSpace(5, 2), K1),
        (LensSpace(8, 3), K0),
        (LensSpace(9, 7), KnotId("K0", False)),
    ):
        for mr in classify(lens, knot, 4):
            edges = _stab_map(mr)
            base = mr.members[0]
            assert base.arm == "base"
            assert edges[(base.member_id, Sign.PLUS)] is None
            assert edges[(base.member_id, Sign.MINUS)] is None
            plus_arm = [m for m in mr.members if m.arm == "+"]
            minus_arm = [m for m in mr.members if m.arm == "-"]
            if mr.kind is RangeKind.V:
                assert plus_arm and minus_arm
            elif mr.kind is RangeKind.FORWARD_SLASH:
                assert plus_arm and not minus_arm
            else:
                assert minus_arm and not plus_arm
            for sign, arm in ((Sign.PLUS, plus_arm), (Sign.MINUS, minus_arm)):
                below = base
                other = Sign.MINUS if sign is Sign.PLUS else Sign.PLUS
                for i, m in enumerate(arm, start=1):
                    assert m.index == i
                    assert m.cls.tb_q == mr.base_tb + i
                    want = mr.base_rot + (i if sign is Sign.PLUS else -i)
                    assert m.cls.rot_q == want
                    assert edges[(m.member_id, sign)] == below.member_id
                    assert edges[(m.member_id, other)] is None
                    below = m


def test_base_tb_values_and_euler_spread():
    for p, q in ((5, 2), (7, 3), (11, 4), (12, 7)):
        lens = LensSpace(p, q)
        for knot in (K0, K1):
            ranges = classify(lens, knot, 3)
            qt = lens.qbar if knot.core == "K0" else lens.q
            tbs = {mr.base_tb for mr in ranges}
            assert tbs == {Fraction(qt, p), Fraction(qt + p, p)}
            eulers = {mr.euler % p for mr in ranges}
            assert len(eulers) >= 2


def test_rot_symmetry_in_the_two_fold_case():
    ranges = classify(LensSpace(2, 1), K0)
    rots = sorted(m.cls.rot_q for mr in ranges for m in mr.members)
    assert rots == sorted(-r for r in rots)


def test_classify_rejects_small_kmax():
    with pytest.raises(ClassificationError):
        classify(LensSpace(3, 1), K0, 2)


def test_existence_oracle_verdicts():
    leg, tr = Flavor.LEGENDRIAN, Flavor.TRANSVERSE
    unknot = TopologyFacts(is_rational_unknot=True, is_unknot_in_s3=True, ambient="S3")
    assert admits_nonloose(unknot, leg) is Existence.EXACTLY_ONE_STRUCTURE_KNOWN
    assert admits_nonloose(unknot, tr) is Existence.NONE

    core = TopologyFacts(intersects_essential_sphere_once=True, ambient="S1xS2")
    assert admits_nonloose(core, leg) is Existence.NONE
    assert admits_nonloose(core, tr) is Existence.NONE

    ru = TopologyFacts(is_rational_unknot=True, ambient="lens")
    assert admits_nonloose(ru, leg) is Existence.AT_LEAST_TWO
    assert admits_nonloose(ru, tr) is Existence.NONE

    balled = TopologyFacts(contained_in_ball=True, ambient="M_n")
    assert admits_nonloose(balled, leg) is Existence.NONE
    assert admits_nonloose(balled, tr) is Existence.NONE

    generic = TopologyFacts(summand_admits_tight=True)
    assert admits_nonloose(generic, leg) is Existence.AT_LEAST_TWO
    assert admits_nonloose(generic, tr) is Existence.AT_LEAST_TWO


def test_existence_oracle_rejects_contradictions():
    with pytest.raises(ClassificationError):
        admits_nonloose(
            TopologyFacts(is_unknot_in_s3=True, is_rational_unknot=False),
            Flavor.LEGENDRIAN,
        )
    with pytest.raises(ClassificationError):
        admits_nonloose(
            TopologyFacts(
                is_rational_unknot=True, intersects_essential_sphere_once=True
            ),
            Flavor.LEGENDRIAN,
        )
    with pytest.raises(ClassificationError):
        admits_nonloose(TopologyFacts(contained_in_ball=True), Flavor.LEGENDRIAN)


def test_one_lens_type():
    from nonloose import decorated, unknots

    assert decorated.Lens is unknots.LensSpace is decorated.LensSpace
    assert unknots.ClassificationError is decorated.ClassificationError
    assert str(decorated.Lens(5, 2)) == "L(5,2)" and decorated.Lens(5, 2).qbar == 3


def test_slope_k_long_walk():
    # k steps of the mediant walk, far past the interpreter's recursion limit
    assert slope_k(LensSpace(97, 35), K1, 5000) == Slope(-485035, 305022)


def test_euler_rep_matches_subtraction():
    from oracles import euler_rep_by_subtraction

    from nonloose.unknots import _euler_rep

    for p in range(1, 60):
        for x in range(-7 * p - 3, 7 * p + 4):
            assert _euler_rep(x, p) == euler_rep_by_subtraction(x, p), (x, p)


def test_class_id_text_and_copies():
    from oracles import flip_orientation as _flip_orientation

    ids = [c.class_id for c in classes_at_slope(LensSpace(5, 2), K0, 1)]
    assert ids == ["s1[0,0]", "s1[0,1]", "s1[1,0]", "s1[1,1]", "s1[2,0]", "s1[2,1]"]
    (mr,) = [r for r in classify(LensSpace(5, 2), K0, 3) if r.members[0].member_id == "s0[2]"]
    c = mr.members[1].cls
    assert c.class_id == "s1[2,1]" and c.class_id is c.class_id
    # the cached id is no dataclass field: equality and hashing ignore it
    assert [f.name for f in fields(c)] == [
        "lens", "knot", "dividing_slope", "complement", "tb_q", "rot_q", "euler", "k"
    ]
    assert c == replace(c) and hash(c) == hash(replace(c))
    assert replace(c, k=7).class_id == "s7[2,1]"
    # the orientation flip copies each class with replace(); every copy
    # computes its own id, after the originals have cached theirs
    before = [m.member_id for m in mr.members]
    flipped = _flip_orientation(mr)
    assert all("class_id" not in vars(m.cls) for m in flipped.members)
    assert [m.member_id for m in flipped.members] == before
    assert all(not m.cls.knot.positive for m in flipped.members)


def _rule_matches_search(lens, knot, k_min, k_max):
    # compare the closed-form rule with the shortening search on every
    # class at levels k_min..k_max (k_min >= 1), for both signs
    from oracles import _signed_sizes, stabilized_counts_by_search

    from nonloose.unknots import _stabilized_counts

    checked = 0
    below = classes_at_slope(lens, knot, k_min - 1)
    for k in range(k_min, k_max + 1):
        level = classes_at_slope(lens, knot, k)
        sizes, below_sizes = (_signed_sizes(cs[0].complement.path, cs[0].complement.unsigned_positions)[1] for cs in (level, below))
        for c in level:
            for sign in (Sign.PLUS, Sign.MINUS):
                finals = stabilized_counts_by_search(c, sign)
                assert len(finals) <= 1, (str(lens), str(knot), c.class_id, sign)
                want = finals.pop() if finals else None
                got = _stabilized_counts(c.complement.minus_counts, sign, sizes, below_sizes)
                assert got == want, (str(lens), str(knot), c.class_id, sign)
                checked += 1
        below = level
    return checked


def test_stabilization_rule_matches_search_on_small_lenses():
    checked = 0
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) == 1:
                for knot in (K0, K1):
                    checked += _rule_matches_search(LensSpace(p, q), knot, 1, 4)
    assert checked == 158184


def test_stabilization_rule_matches_search_on_integer_families():
    # K1 of L(p, 1) and of L(p, p - 1) is classified through the same lens
    checked = 0
    for p in range(2, 201):
        for q in (1, p - 1):
            checked += _rule_matches_search(LensSpace(p, q), K0, 1, 6)
    assert checked == 451730


@st.composite
def lens_knot_level(draw):
    p = draw(st.integers(2, 300))
    q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
    knot = draw(st.sampled_from((K0, K1)))
    return LensSpace(p, q), knot, draw(st.integers(1, 10))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lens_knot_level())
def test_stabilization_rule_matches_search_on_drawn_lenses(case):
    lens, knot, k = case
    assert _rule_matches_search(lens, knot, k, k) > 0


def test_stabilization_rule_matches_concrete_search():
    # one explicit sign tuple per class, with the minus signs first in each
    # block, run through the exhaustive search over concrete decorations
    from oracles import MINUS, NONE, PLUS, blocks_of, minimal_vertices_by_bezout, tight_by_search

    from nonloose.farey import ZERO

    checked = 0
    for p in range(2, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            # K1 is classified through L(p, qbar), the same lens when qbar == q
            for knot in (K0,) if lens.qbar == q else (K0, K1):
                for k in range(1, 4):
                    s_below = slope_k(lens, knot, k - 1)
                    minimal = minimal_vertices_by_bezout(s_below, ZERO)
                    for c in classes_at_slope(lens, knot, k):
                        path = c.complement.path
                        signs = [PLUS] * (len(path) - 2) + [NONE]
                        for blk, minus in zip(blocks_of(path), c.complement.minus_counts):
                            for e in blk[:minus]:
                                signs[e] = MINUS
                        for sign in (Sign.PLUS, Sign.MINUS):
                            tight = tight_by_search(
                                (s_below,) + path, (int(sign),) + tuple(signs), minimal
                            )
                            assert tight == (stabilize(c, sign) is not None), (
                                str(lens), str(knot), c.class_id, sign
                            )
                            checked += 1
    assert checked == 3450


@pytest.mark.parametrize("p, q, k_max", [(2000, 1, 3), (2000, 1999, 3), (5, 2, 1500)])
def test_classify_long_inputs(p, q, k_max):
    lens = LensSpace(p, q)
    assert measured_counts(classify(lens, K0, k_max), lens) == range_counts(lens, K0)


def test_classification_output_is_pinned():
    # one SHA-256 over the rendered payloads, recorded before mountain-range
    # assembly moved to integer checks and derived edges; negative knots are
    # in, because the order of a base's two loose edges follows orientation
    import hashlib
    import json

    from nonloose.render import classification_dict

    cases = [
        (LensSpace(p, q), KnotId(core, positive), 4)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(p, q) == 1
        for core in ("K0", "K1")
        for positive in (True, False)
    ] + [(LensSpace(5, 2), KnotId("K1", False), 60)]
    payloads = [
        classification_dict(lens, knot, k_max, classify(lens, knot, k_max))
        for lens, knot, k_max in cases
    ]
    text = json.dumps(payloads, sort_keys=True)
    assert len(cases) == 229
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6c6effda802e4a9f9e943f55e51c290f604079ebc6e952a46ae66212059f6361"
    )


def test_stabilize_follows_stored_edges_on_every_oriented_core():
    checked = 0
    for p in range(2, 14):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
                for mr in classify(lens, knot, 4):
                    by_id = {m.member_id: m.cls for m in mr.members}
                    for e in mr.edges:
                        got = stabilize(by_id[e.source], e.sign)
                        where = (str(lens), str(knot), e.source, e.sign)
                        if e.target is None:
                            assert got is None, where
                        else:
                            want = by_id[e.target]
                            assert got is not None, where
                            assert (got.class_id, got.tb_q, got.rot_q) == (
                                want.class_id, want.tb_q, want.rot_q
                            ), where
                        checked += 1
    assert checked > 0


def test_classification_error_lists_problems(monkeypatch):
    from nonloose import unknots

    # with every stabilization loose, each class is a base without arms
    monkeypatch.setattr(unknots, "_stabilized_counts", lambda *args: None)
    with pytest.raises(ClassificationError) as info:
        classify(LensSpace(2, 1), K0, 3)
    upper = ("s2[0,0]", "s2[0,1]", "s2[1,0]", "s2[1,1]", "s3[0,0]", "s3[0,1]", "s3[1,0]", "s3[1,1]")
    want = (
        ("12 classes outside every certified range",)
        + tuple(f"{i}: base with no arms at k_max=3" for i in ("s0[0]", "s1[0]", "s1[1]", "s1[2]"))
        + tuple(f"{i}: unexpected base above the first two slopes" for i in upper)
    )
    assert info.value.problems == want
    assert str(info.value) == "; ".join(want)
    single = ClassificationError("k_max must be at least 3 to certify arm patterns")
    assert single.problems == (str(single),)
    with pytest.raises(ClassificationError) as info:
        classify(LensSpace(3, 1), K0, 2)
    assert info.value.problems == ("k_max must be at least 3 to certify arm patterns",)


def _compare_with_fraction_assembly(lens, core, k_max):
    # feed each classified range's base and arms to the Fraction-based
    # assembly and compare both orientations with classify's ranges
    from oracles import assemble_range_by_fractions

    ranges = classify(lens, KnotId(core), k_max)
    flipped = {mr.members[0].member_id: mr for mr in classify(lens, KnotId(core, False), k_max)}
    assert len(flipped) == len(ranges)
    for mr in ranges:
        base = mr.members[0].cls
        arms = {
            sign: [m.cls for m in mr.members if m.arm == label]
            for sign, label in ((Sign.PLUS, "+"), (Sign.MINUS, "-"))
        }
        for positive, got in ((True, mr), (False, flipped[base.class_id])):
            problems = []
            want = assemble_range_by_fractions(base, arms, k_max, problems, positive)
            edges = tuple((e.source, e.sign, e.target) for e in got.edges)
            assert not problems and want is not None, problems
            assert (got.kind, got.base, got.euler, got.members, edges) == want, (
                str(lens), core, k_max, positive, base.class_id
            )
    return len(ranges)


def test_range_assembly_matches_fraction_oracle():
    checked = 0
    for p in range(2, 31):
        for q in range(1, p):
            if gcd(p, q) == 1:
                for core in ("K0", "K1"):
                    for k_max in (3, 5):
                        checked += _compare_with_fraction_assembly(LensSpace(p, q), core, k_max)
    checked += _compare_with_fraction_assembly(LensSpace(5, 2), "K0", 200)
    checked += _compare_with_fraction_assembly(LensSpace(5, 2), "K1", 200)
    assert checked > 0


def test_range_assembly_problems_match_fraction_oracle():
    # corrupt one arm member or cut one arm, and expect the integer checks
    # to report exactly what the Fraction-based assembly reports
    from oracles import assemble_range_by_fractions

    from nonloose.unknots import _assemble_range, _level_classes

    lens, k_max = LensSpace(5, 2), 4
    classes, rots, _ = zip(*(_level_classes(lens, K0, k) for k in range(k_max + 1)))

    def tb_up(c):
        num = c.dividing_slope.num
        return replace(c, dividing_slope=Slope(num - 1 if num < 0 else num + 1), tb_q=c.tb_q + Fraction(1, 5))

    corruptions = (
        (lambda c: replace(c, rot_q=c.rot_q + Fraction(1, 5)), 1),
        (tb_up, 0),
        (lambda c: replace(c, euler=c.euler + 1), 0),
    )
    checked, seen = 0, set()
    for mr in classify(lens, K0, k_max):
        base = mr.members[0].cls
        k, i = base.k, classes[base.k].index(base)
        arms = {
            sign: [classes[m.cls.k].index(m.cls) for m in mr.members if m.arm == label]
            for sign, label in ((Sign.PLUS, "+"), (Sign.MINUS, "-"))
        }
        cases = [(classes, rots, arms), (classes, rots, {Sign.PLUS: [], Sign.MINUS: []})]
        for sign, arm in arms.items():
            if arm:
                cases.append((classes, rots, {**arms, sign: arm[:-1]}))
            for n, j in enumerate(arm, start=1):
                for change, rot_shift in corruptions:
                    bad_classes, bad_rots = [list(cs) for cs in classes], [list(rs) for rs in rots]
                    bad_classes[k + n][j] = change(classes[k + n][j])
                    bad_rots[k + n][j] += rot_shift
                    cases.append((bad_classes, bad_rots, arms))
        for cs, rs, arm_ids in cases:
            got_problems, want_problems = [], []
            got = _assemble_range(cs, rs, k, i, arm_ids, k_max, got_problems)
            arm_classes = {s: [cs[k + n][j] for n, j in enumerate(a, start=1)] for s, a in arm_ids.items()}
            want = assemble_range_by_fractions(cs[k][i], arm_classes, k_max, want_problems)
            assert got_problems == want_problems
            assert (got is None) == (want is None) == bool(want_problems)
            checked += bool(want_problems)
            seen.update(want_problems)
    assert checked == 97
    for phrase in ("arm stops at depth", "base with no arms", "invariants off", "Euler class leaves"):
        assert any(phrase in message for message in seen), phrase


def test_knot_parse_takes_at_most_one_dash():
    assert KnotId.parse("K0") == K0
    assert KnotId.parse(" -K1 ") == KnotId("K1", False)
    for text in ("--K0", "---K1", "- K0", "-", ""):
        with pytest.raises(ClassificationError):
            KnotId.parse(text)


def _oriented_cases():
    # every coprime L(p, q) with p <= 13 on all four oriented cores
    return [
        (LensSpace(p, q), KnotId(core, positive))
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(p, q) == 1
        for core in ("K0", "K1")
        for positive in (True, False)
    ]


def test_classes_at_slope_agree_with_classify_on_every_oriented_core():
    checked = 0
    for lens, knot in _oriented_cases():
        by_id = {m.member_id: m.cls for mr in classify(lens, knot, 4) for m in mr.members}
        levels = [classes_at_slope(lens, knot, k) for k in range(5)]
        assert sum(map(len, levels)) == len(by_id), (str(lens), str(knot))
        for c in (c for level in levels for c in level):
            assert by_id[c.class_id] == c, (str(lens), str(knot), c.class_id)
            checked += 1
    assert checked == 9384


def test_stabilize_moves_tb_and_rot_on_every_oriented_core():
    # positive stabilization lowers tb and rot by one, negative lowers tb
    # and raises rot, whatever the knot's orientation
    tight = 0
    for lens, knot in _oriented_cases():
        for k in range(1, 5):
            for c in classes_at_slope(lens, knot, k):
                for sign, rot_step in ((Sign.PLUS, -1), (Sign.MINUS, 1)):
                    r = stabilize(c, sign)
                    if r is not None:
                        where = (str(lens), str(knot), c.class_id, sign)
                        assert (r.knot, r.k) == (knot, k - 1), where
                        assert (r.tb_q, r.rot_q) == (c.tb_q - 1, c.rot_q + rot_step), where
                        tight += 1
    assert tight == 7952


def test_negative_knot_ranges_are_the_flipped_positive_ranges():
    from oracles import flip_orientation

    for lens, knot in _oriented_cases():
        if not knot.positive:
            positive = KnotId(knot.core)
            # flipped, then in classify's order: by base tb, base rot and kind
            flipped = map(flip_orientation, classify(lens, positive, 4))
            want = sorted(flipped, key=lambda mr: (mr.base_tb, mr.base_rot, mr.kind.value))
            assert classify(lens, knot, 4) == want, (str(lens), str(knot))


def test_range_counts_of_the_three_sphere():
    from nonloose.unknots import RangeCounts

    lens = LensSpace(1, 1)
    assert range_counts(lens) == measured_counts(classify(lens, K0, 3), lens)
    assert range_counts(lens) == range_counts(lens, K1) == RangeCounts(1, 0, 0)


def test_an_empty_tally_counts_no_ranges():
    from nonloose.unknots import RangeCounts

    assert measured_counts([], LensSpace(5, 2)) == RangeCounts(0, 0, 0)


def test_domain_errors_keep_their_messages():
    lens = LensSpace(5, 2)
    c = classes_at_slope(lens, K0, 1)[0]
    with pytest.raises(ClassificationError, match="^stabilization sign must be PLUS or MINUS$"):
        stabilize(c, Sign.UNSIGNED)
    with pytest.raises(ClassificationError, match="^k must be non-negative$"):
        slope_k(lens, K0, -1)
    contradictions = [
        (TopologyFacts(is_unknot_in_s3=True, is_rational_unknot=True, ambient="L(5,2)"),
         "unknot-in-S^3 flag contradicts the ambient"),
        (TopologyFacts(is_unknot_in_s3=True, is_rational_unknot=True, summand_admits_tight=False),
         "S^3 admits a tight structure"),
    ]
    for facts, message in contradictions:
        for flavor in Flavor:
            with pytest.raises(ClassificationError) as info:
                admits_nonloose(facts, flavor)
            assert info.value.problems == (message,)
    one_sided = [mr for mr in classify(lens) if mr.kind is not RangeKind.FORWARD_SLASH]
    with pytest.raises(ClassificationError, match="^slash kinds out of balance$"):
        measured_counts(one_sided, lens)


def test_classification_error_lists_stabilization_problems(monkeypatch):
    from nonloose import unknots

    # every stabilization tight, then only the negative ones, each landing
    # on the level below's first class
    upper = ("s1[0]", "s1[1]", "s1[2]", "s2[0,0]", "s2[0,1]", "s2[1,0]", "s2[1,1]", "s3[0,0]", "s3[0,1]", "s3[1,0]", "s3[1,1]")
    head = ("12 classes outside every certified range", "s0[0]: base with no arms at k_max=3")
    cases = [
        (lambda *signs: True, K0, head + ("s0[0]: branching + arm", "s0[0]: branching - arm")
         + tuple(f"{i}: two tight stabilizations" for i in upper)),
        (lambda sign: sign is Sign.MINUS, K0, head + ("s0[0]: branching - arm",)),
        (lambda sign: sign is Sign.MINUS, KnotId("K0", False), head + ("s0[0]: branching + arm",)),
    ]
    for tight, knot, want in cases:
        monkeypatch.setattr(
            unknots, "_stabilized_counts", lambda counts, sign, sizes, below: (0,) * len(below) if tight(sign) else None
        )
        with pytest.raises(ClassificationError) as info:
            classify(LensSpace(2, 1), knot, 3)
        assert info.value.problems == want


def _derived_levels(lens, knot, k_max):
    # levels k_max - 1 down to 0 by _level_below from level k_max, each
    # compared with the level built from scratch (path, block lengths,
    # signed sizes and Euler pairings)
    from nonloose.unknots import _level, _level_below, _work_meridian

    level, meridian = _level(slope_k(lens, knot, k_max)), _work_meridian(lens, knot)
    for k in range(k_max - 1, -1, -1):
        level = _level_below(level.path, level.lengths, level.sizes, meridian)
        assert level == _level(slope_k(lens, knot, k)), (str(lens), str(knot), k)
    return k_max


def test_derived_levels_match_levels_built_from_scratch():
    derived = 0
    for p in range(1, 61):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                for knot in (K0, K1):
                    derived += _derived_levels(LensSpace(p, q), knot, 6)
    for knot in (K0, K1):
        derived += _derived_levels(LensSpace(5, 2), knot, 800)
        derived += _derived_levels(LensSpace(1000, 377), knot, 8)
    for p in range(2, 201):
        derived += _derived_levels(LensSpace(p, 1), K0, 3)
    assert derived == 6 * 2 * 1102 + 2 * 808 + 3 * 199


def test_derived_level_starts_at_the_canonical_slope_below():
    # s_{k-1} is built from s_k less the meridian without a gcd; s_0 is 1/0
    # whenever the meridian is an integer
    from oracles import check_canonical_slopes

    from nonloose.unknots import _level, _level_below, _work_meridian

    firsts = []
    for p in range(1, 31):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                lens = LensSpace(p, q)
                for knot in (K0, K1):
                    meridian = _work_meridian(lens, knot)
                    for k in range(1, 7):
                        above = _level(slope_k(lens, knot, k))
                        s = _level_below(above.path, above.lengths, above.sizes, meridian).path[0]
                        assert s == slope_k(lens, knot, k - 1), (str(lens), str(knot), k)
                        firsts.append(s)
    assert firsts.count(INFINITY) >= 2 * 29
    check_canonical_slopes(firsts)


def test_derived_level_checks_a_joined_block_like_the_block_reader():
    # s_{k-1} = 1/0 joins the block -1 -> -1/2, whose edge class differs
    # from the new edge's under the canonical infinity: both readers refuse
    from oracles import _block_pairings, _signed_sizes

    from nonloose.decorated import DecorationError
    from nonloose.farey import ZERO
    from nonloose.unknots import _level_below

    path = (INFINITY, Slope(-1), Slope(-1, 2), ZERO)
    lengths, sizes = _signed_sizes(path, (2,))
    with pytest.raises(DecorationError, match="infinity representative"):
        _block_pairings(path, lengths, sizes, ZERO)
    above = (Slope(-2),) + path[1:]
    lengths, sizes = _signed_sizes(above, (2,))
    assert lengths == (1, 1, 1)
    with pytest.raises(DecorationError, match="infinity representative"):
        _level_below(above, lengths, sizes, Slope(-3))


def _count_minimal_paths(monkeypatch):
    # every minimal path the engine finds, where decorated looks it up
    from nonloose import decorated

    calls, find = [], decorated._minimal_vertices

    def counting(r, s):
        calls.append((r, s))
        return find(r, s)

    monkeypatch.setattr(decorated, "_minimal_vertices", counting)
    return calls


def test_classify_finds_one_minimal_path_per_call(monkeypatch):
    calls = _count_minimal_paths(monkeypatch)
    for lens, k_max in ((LensSpace(1, 1), 3), (LensSpace(5, 2), 40), (LensSpace(13, 5), 5), (LensSpace(30, 1), 3)):
        for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
            calls.clear()
            classify(lens, knot, k_max)
            assert calls == [(slope_k(lens, knot, k_max), Slope(0))], (str(lens), str(knot))


def test_stabilize_finds_no_minimal_path(monkeypatch):
    levels = [classes_at_slope(LensSpace(13, 5), knot, k) for knot in (K0, KnotId("K1", False)) for k in range(4)]
    calls = _count_minimal_paths(monkeypatch)
    stabilized = [stabilize(c, sign) for level in levels for c in level for sign in (Sign.PLUS, Sign.MINUS)]
    assert calls == [] and any(stabilized) and None in stabilized


def _levels_from_the_top(lens, knot, k_max):
    # level k_max built from scratch, then each level below derived from it
    from nonloose.unknots import _level, _level_below, _work_meridian

    level, meridian = _level(slope_k(lens, knot, k_max)), _work_meridian(lens, knot)
    yield level
    for _ in range(k_max):
        level = _level_below(level.path, level.lengths, level.sizes, meridian)
        yield level


def test_level_pairings_match_the_block_pairing_oracle():
    # both level builders read each pairing from the block's first edge; the
    # oracle reads it from the set of all the block's edge differences
    from oracles import _block_pairings

    from nonloose.farey import ZERO

    corpus = [
        (LensSpace(p, q), knot, 6)
        for p in range(1, 61)
        for q in range(1, max(p, 2))
        if gcd(p, q) == 1
        for knot in (K0, K1)
    ]
    corpus += [(LensSpace(5, 2), knot, 800) for knot in (K0, K1)]
    corpus += [(LensSpace(1000, 377), knot, 8) for knot in (K0, K1)]
    corpus += [(LensSpace(p, 1), K0, 3) for p in range(2, 201)]
    levels = 0
    for lens, knot, k_max in corpus:
        for level in _levels_from_the_top(lens, knot, k_max):
            want = _block_pairings(level.path, level.lengths, level.sizes, ZERO)
            assert level.pairings == want, (str(lens), str(knot), len(level.path))
            levels += 1
    assert levels == 7 * 2 * 1102 + 2 * 801 + 2 * 9 + 4 * 199


def _classified_members(p_max):
    # every member of classify at k_max 3 on all four oriented cores of every
    # coprime L(p, q) with p <= p_max
    for p in range(1, p_max + 1):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
                    for mr in classify(LensSpace(p, q), knot, 3):
                        yield from mr.members


def _assert_euler_data(c, e):
    # e is the Euler class of c's complement on the meridian disk
    from oracles import euler_rep_by_subtraction

    assert c.rot_q * c.lens.p == (e if c.knot.positive else -e), c.class_id
    assert c.euler == euler_rep_by_subtraction(-e, c.lens.p), c.class_id


def test_classify_euler_data_matches_the_shuffle_class_oracle():
    from oracles import shuffle_euler_on_disk

    from nonloose.farey import ZERO

    members = 0
    for m in _classified_members(30):
        c = m.cls
        e = shuffle_euler_on_disk(c.complement, ZERO)
        _assert_euler_data(c, e)
        members += 1
    assert members == 58304


def test_classify_euler_data_matches_an_explicit_decoration():
    # one decoration per class: in each block the first m signed edges minus,
    # the rest plus, the last edge unsigned
    from oracles import blocks_of

    from nonloose.cfrac import FareyPath
    from nonloose.decorated import DecoratedPath, euler_on_disk
    from nonloose.farey import ZERO

    members = 0
    for m in _classified_members(13):
        c = m.cls
        path, last = c.complement.path, len(c.complement.path) - 2
        signs = [Sign.UNSIGNED] * (last + 1)
        for block, minus in zip(blocks_of(path), c.complement.minus_counts):
            for n, edge in enumerate(x for x in block if x != last):
                signs[edge] = Sign.MINUS if n < minus else Sign.PLUS
        e = euler_on_disk(DecoratedPath(FareyPath(path), tuple(signs)), ZERO)
        _assert_euler_data(c, e)
        members += 1
    assert members == 7020


def _engine_results(lenses, knots):
    from nonloose.decorated import count_tight, enumerate_tight

    out = []
    for lens in lenses:
        out += [count_tight(lens), enumerate_tight(lens)]
        for knot in knots:
            out.append(classify(lens, knot, 4))
            levels = [classes_at_slope(lens, knot, k) for k in range(5)]
            out += levels
            out += [stabilize(c, sign) for level in levels[1:4] for c in level for sign in (Sign.PLUS, Sign.MINUS)]
    return out


def test_engine_paths_never_rescan_vertices(monkeypatch):
    # the engine takes the blocks of every path it builds from the block
    # walk, so a vertex-triple scan that raises changes none of its results
    from nonloose import decorated

    def no_rescan(vertices):
        raise AssertionError(f"rescanned {vertices[0]} -> {vertices[-1]}")

    lenses = [LensSpace(1, 1)] + [LensSpace(p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1]
    knots = [K0, KnotId("K0", False), K1, KnotId("K1", False)]
    want = _engine_results(lenses, knots)
    monkeypatch.setattr(decorated, "_block_lengths", no_rescan)
    assert _engine_results(lenses, knots) == want
    assert len(want) > 5000


def _assert_levels_repeat(levels, p, where):
    # _level_below's docstring on levels listed from the top down, all at
    # level 2 or above: equal sizes, a first block of one edge, equal later
    # pairing weights, and a first weight p more than the level below's
    top = levels[0]
    assert top.lengths[0] == 1, where
    for above, level in zip(levels, levels[1:]):
        assert level.sizes == top.sizes and level.lengths[0] == 1, where
        assert level.pairings[1:] == top.pairings[1:], where
        assert above.pairings[0][0] - level.pairings[0][0] == p, where


def test_levels_repeat_from_level_two():
    cases = 0
    for p in range(1, 201):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                for knot in (K0, K1):
                    levels = list(_levels_from_the_top(LensSpace(p, q), knot, 40))[:-2]  # levels 40 down to 2
                    _assert_levels_repeat(levels, p, (p, q, str(knot)))
                    cases += 1
    assert cases == 2 * 12232


@st.composite
def large_lens_level(draw):
    # p up to 10**6 and a level near 10**3 whose complement path has at most
    # 10**4 edges (L(p, 1)'s has about p), so no case builds a path of a
    # million vertices
    from nonloose.decorated import UpperSolidTorus, _context_sizes
    from nonloose.farey import ZERO

    p = draw(st.integers(2, 10**6))
    q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
    lens, knot, k = LensSpace(p, q), draw(st.sampled_from((K0, K1))), draw(st.integers(990, 1010))
    assume(sum(_context_sizes(UpperSolidTorus(ZERO, slope_k(lens, knot, k)))[0]) <= 10**4)
    return lens, knot, k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(large_lens_level())
def test_levels_repeat_near_level_a_thousand_on_large_lenses(case):
    # four levels from k down, derived with _level_below from level k
    lens, knot, k = case
    _assert_levels_repeat(list(islice(_levels_from_the_top(lens, knot, k), 4)), lens.p, (str(lens), str(knot), k))


def test_classify_is_certified_for_every_k_max():
    # classify's docstring: from level 3 up each arm repeats one class, so a
    # larger k_max only lengthens the arms
    calls = 0
    for p in range(1, 31):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                lens = LensSpace(p, q)
                for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
                    want = [(mr.kind, mr.base, mr.euler) for mr in classify(lens, knot, 3)]
                    for k_max in range(4, 13):
                        got = [(mr.kind, mr.base, mr.euler) for mr in classify(lens, knot, k_max)]
                        assert got == want, (str(lens), str(knot), k_max)
                        calls += 1
    assert calls == 9 * 4 * 278


def _record_fields(record):
    return tuple(getattr(record, f.name) for f in fields(record))


def _graph_twice(lens, knot, k_max):
    # classify's first phase, then its second twice on that one result: both
    # runs must agree and leave the levels as they found them
    from nonloose import unknots

    own, classes, rots, sizes = unknots._levels(lens, knot, k_max)
    signs = unknots._COMPLEMENT_SIGN[knot.positive].items()
    before = ({s: dict(ranks) for s, ranks in own.items()}, [list(level) for level in classes], sizes)
    runs = []
    for _ in range(2):
        problems = []
        runs.append((*unknots._stabilization_graph(own, classes, sizes, signs, problems), problems))
    assert runs[0] == runs[1], (str(lens), str(knot), k_max)
    assert (own, [list(level) for level in classes], sizes) == before, (str(lens), str(knot), k_max)
    return classes, rots, signs, runs[0]


def test_classify_phases_compose_to_classify():
    # the three phases called one by one, then the certification tail as
    # classify runs it, give classify's list
    from nonloose import unknots

    checked = 0
    for lens in (LensSpace(5, 2), LensSpace(13, 5), LensSpace(1, 1)):
        for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
            for k_max in (3, 6):
                where = (str(lens), str(knot), k_max)
                classes, rots, signs, (preds, bases, problems) = _graph_twice(lens, knot, k_max)
                assert len(classes) == len(rots) == k_max + 1, where
                for k, level in enumerate(classes):
                    want = classes_at_slope(lens, knot, k)
                    assert [_record_fields(c) for c in level] == [_record_fields(c) for c in want], (*where, k)
                    assert list(rots[k]) == [c.rot_q * lens.p for c in level], (*where, k)
                ranges, claimed = unknots._arm_ranges(classes, rots, preds, bases, signs, k_max, problems)
                assert (problems, sum(marks.count(0) for marks in claimed)) == ([], 0), where
                assert [r[-1] for r in sorted(ranges)] == classify(lens, knot, k_max), where
                checked += 1
    assert checked == 3 * 4 * 2


def test_levels_take_the_rots_the_table_path_gives(monkeypatch):
    # _levels moves each repeated level's rots from the level above by its
    # first weight; every level it builds must equal the level _level_classes
    # builds from scratch by summing a table per block, in rots and in every
    # record field.  So must each level built from the level above with
    # _shuffle_counts' one-shot product as choose, which the rot move must
    # iterate once.  Only levels k_max, 1 and 0 read a table
    from nonloose import unknots
    from nonloose.decorated import _shuffle_counts

    reads = 0

    def counted(a, b):
        nonlocal reads
        reads += 1
        return a[b]

    monkeypatch.setattr(unknots, "getitem", counted)
    corpus = [
        (LensSpace(p, q), knot, k_max)
        for p in range(1, 21)
        for q in range(1, max(p, 2))
        if gcd(p, q) == 1
        for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False))
        for k_max in (3, 7)
    ]
    corpus += [(LensSpace(5, 2), knot, 200) for knot in (K0, KnotId("K1", False))]
    corpus += [(LensSpace(1000, 377), knot, 12) for knot in (K0, K1)]
    levels = 0
    for lens, knot, k_max in corpus:
        reads = 0
        _, classes, rots, sizes = unknots._levels(lens, knot, k_max)
        read_by_levels, read_from_scratch, above = reads, {}, None
        for k, level in zip(range(k_max, -1, -1), _levels_from_the_top(lens, knot, k_max)):
            reads, where = 0, (str(lens), str(knot), k_max, k)
            want, want_rots, want_sizes = unknots._level_classes(lens, knot, k)
            read_from_scratch[k] = reads
            fields_wanted = [_record_fields(c) for c in want]
            assert (list(rots[k]), sizes[k]) == (want_rots, want_sizes), where
            assert [_record_fields(c) for c in classes[k]] == fields_wanted, where
            one_shot, one_shot_rots, _ = unknots._level_classes(lens, knot, k, level, _shuffle_counts, above)
            assert (one_shot_rots, [_record_fields(c) for c in one_shot]) == (want_rots, fields_wanted), where
            above, levels = (level, one_shot_rots), levels + 1
        assert read_by_levels == read_from_scratch[k_max] + read_from_scratch[1] + read_from_scratch[0], where
    assert levels == 4 * 128 * (4 + 8) + 2 * 201 + 2 * 13


def test_a_level_above_with_other_later_weights_gives_no_rots():
    # a level above whose sizes match but whose later weights do not, with
    # the rots its own tables give, would move wrong rots down: the level
    # must take the table path's rots instead
    from nonloose import unknots

    lens, checked = LensSpace(5, 2), 0
    for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
        want, want_rots, _ = unknots._level_classes(lens, knot, 2)
        level, up = (unknots._level(slope_k(lens, knot, k)) for k in (2, 3))
        for b in range(1, len(up.pairings)):
            (w, n), pairings = up.pairings[b], list(up.pairings)
            pairings[b] = (w + 1, n)
            other = up._replace(pairings=tuple(pairings))
            _, other_rots, _ = unknots._level_classes(lens, knot, 3, other)
            got, got_rots, _ = unknots._level_classes(lens, knot, 2, level, above=(other, other_rots))
            assert (got_rots, [_record_fields(c) for c in got]) == (want_rots, [_record_fields(c) for c in want])
            checked += 1
    assert checked == 8


def test_stabilization_graph_reports_the_same_problems_twice(monkeypatch):
    # with every stabilization tight, each class above level 0 is a problem;
    # the phase reads the rule when called and two calls agree
    from nonloose import unknots

    monkeypatch.setattr(unknots, "_stabilized_counts", lambda counts, sign, sizes, below: (0,) * len(below))
    classes, _, _, (_, _, problems) = _graph_twice(LensSpace(5, 2), K0, 6)
    assert problems == [f"{c.class_id}: two tight stabilizations" for level in classes[1:] for c in level]


def test_kmax_guards_run_before_any_phase(monkeypatch):
    from nonloose import unknots

    def no_phase(*args):
        raise AssertionError("a phase ran")

    monkeypatch.setattr(unknots, "_levels", no_phase)
    with pytest.raises(AssertionError, match="^a phase ran$"):
        classify(LensSpace(5, 2), K0, 3)
    too_many = f"k_max {sys.maxsize} has too many levels for a list"
    for k_max, message in ((2, "k_max must be at least 3 to certify arm patterns"), (sys.maxsize, too_many)):
        with pytest.raises(ClassificationError) as info:
            classify(LensSpace(5, 2), K0, k_max)
        assert info.value.problems == (message,)


def test_enum_free_reads_agree_with_the_enum_api():
    # the stabilization rule's e, each range's sort text, the arm labels and
    # the range kind are read without enum class attributes; each agrees with
    # the enum API, and the kind with the oracle's three-way conditional for
    # every arm-presence pattern, arms listed PLUS first (positive knots) and
    # MINUS first (negative knots)
    from oracles import _assemble_range_by_init

    from nonloose import unknots

    for sign in Sign:
        assert unknots._stabilized_counts((0,), sign, (0,), (1,)) == (1 if sign is Sign.MINUS else 0,), sign
    for sign in (Sign.PLUS, Sign.MINUS):
        assert unknots._ARM_LABEL[sign] == str(sign), sign
    assert [unknots._V, unknots._BACK_SLASH, unknots._FORWARD_SLASH] == list(RangeKind)
    texts, labels, patterns, k_max = set(), set(), set(), 3
    for lens in (LensSpace(5, 2), LensSpace(13, 5)):
        for knot in (K0, KnotId("K0", False), K1, KnotId("K1", False)):
            classes, rots, signs, (preds, bases, problems) = _graph_twice(lens, knot, k_max)
            ranges, _ = unknots._arm_ranges(classes, rots, preds, bases, signs, k_max, problems)
            for _, _, text, _, mr in ranges:
                assert text == mr.kind.value
                texts.add(text)
                base = mr.members[0].cls
                k, i = base.k, classes[base.k].index(base)
                full = {sign: [classes[m.cls.k].index(m.cls) for m in mr.members if m.arm == str(sign)] for sign, _ in signs}
                assert sum(map(len, full.values())) == len(mr.members) - 1
                for kept in ([s for s in full if full[s]], *([s] for s in full if full[s])):
                    arms = {s: full[s] if s in kept else [] for s in full}
                    got = unknots._assemble_range(classes, rots, k, i, arms, k_max, [])
                    want = _assemble_range_by_init(classes, rots, k, i, arms, k_max, [])
                    assert got.kind is want.kind and got == want, (str(lens), str(knot), arms)
                    labels.update(m.arm for m in got.members[1:])
                    patterns.add((next(iter(arms)), got.kind))
    assert texts == {kind.value for kind in RangeKind}
    assert labels == {"+", "-"}
    assert patterns == {(first, kind) for first in (Sign.PLUS, Sign.MINUS) for kind in RangeKind}
