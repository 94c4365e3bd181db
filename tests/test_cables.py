from fractions import Fraction

import pytest

from nonloose.cables import (
    CableError,
    CableSpec,
    LegendrianInvariants,
    cable_rot,
    divide_cable_tb,
    negative_cable_tb,
    positive_cable,
    ruling_cable_tb,
    seestab_count,
    self_linking,
    stab_count_relation,
    transnonsimple_family,
)
from nonloose.farey import Slope


def test_cable_spec_validation():
    CableSpec(2, 3)
    CableSpec(1, -5)
    with pytest.raises(CableError):
        CableSpec(2, 4)
    with pytest.raises(CableError):
        CableSpec(0, 1)


def test_divide_cable_tb():
    for n in range(1, 8):
        assert divide_cable_tb(CableSpec(2 * n + 1, 2)) == 4 * n + 2
    assert divide_cable_tb(CableSpec(1, 9)) == 9
    assert divide_cable_tb(CableSpec(2, 3)) == 6


def test_ruling_cable_tb():
    for n in range(1, 6):
        assert ruling_cable_tb(CableSpec(2, 2 * n + 1), Slope(1, 1)) == 2 * n + 3
    assert ruling_cable_tb(CableSpec(2, 3), Slope(0, 1)) == 3
    assert ruling_cable_tb(CableSpec(3, 5), Slope(2, 1)) == 15 - 1
    with pytest.raises(CableError):
        ruling_cable_tb(CableSpec(2, 3), Slope(3, 2))


def test_ruling_tb_invariant_under_orientation_double_flip():
    # reversing the orientation of either curve negates both coordinates
    # of its class and leaves the formula's value unchanged
    def raw(p, q, q1, p1):
        return p * q - abs(p * q1 - p1 * q)

    for (p, q), (p1, q1) in (((2, 3), (1, 1)), ((3, 4), (2, 1)), ((5, 2), (3, 1))):
        assert raw(p, q, q1, p1) == raw(-p, -q, q1, p1)
        assert raw(p, q, q1, p1) == raw(p, q, -q1, -p1)
        # Slope normalization realizes the dividing-curve flip directly
        assert ruling_cable_tb(CableSpec(p, q), Slope(q1, p1)) == ruling_cable_tb(
            CableSpec(p, q), Slope(-q1, -p1)
        )


def test_cable_rot():
    assert cable_rot(CableSpec(4, 7), 0, 0) == 0
    assert cable_rot(CableSpec(2, 2 * 3 + 1), 0, 0) == 0
    for n in range(1, 6):
        assert cable_rot(CableSpec(2 * n + 1, 2), -1, 1) == 2 * n - 1


def test_positive_cable():
    for n in range(1, 6):
        inv = positive_cable(LegendrianInvariants(1, 0), CableSpec(2, 2 * n + 1))
        assert inv == LegendrianInvariants(2 * n + 3, 0)
    assert positive_cable(LegendrianInvariants(0, 0), CableSpec(1, 1)).tb == 0
    assert positive_cable(LegendrianInvariants(-5, 0), CableSpec(2, -9)).tb == -19
    with pytest.raises(CableError):
        positive_cable(LegendrianInvariants(2, 0), CableSpec(2, 3))


def test_negative_cable_tb():
    assert negative_cable_tb(LegendrianInvariants(1, 0), CableSpec(2, 1)) == 2
    for n in range(1, 6):
        assert negative_cable_tb(
            LegendrianInvariants(1, 0), CableSpec(2 * n + 1, 2)
        ) == 4 * n + 2
    assert negative_cable_tb(LegendrianInvariants(0, 0), CableSpec(3, -1)) == -3
    with pytest.raises(CableError):
        negative_cable_tb(LegendrianInvariants(1, 0), CableSpec(2, 3))


def test_stab_count_relation_examples():
    assert stab_count_relation(LegendrianInvariants(1, 0), CableSpec(2, 1)) == 1
    for n in range(1, 6):
        assert stab_count_relation(
            LegendrianInvariants(1, 0), CableSpec(2 * n + 1, 2)
        ) == 2
    for t in range(-3, 4):
        for p in (2, 3, 5):
            q = p * (t - 1) + 1
            if Fraction(q, p) <= t - 1 or Fraction(q, p) >= t:
                continue
            assert stab_count_relation(LegendrianInvariants(t, 0), CableSpec(p, q)) == 1


def test_stab_count_identity_over_grid():
    from math import gcd

    for tb in range(-10, 11):
        for p in range(2, 13):
            for q in range((tb - 1) * p + 1, tb * p):
                if gcd(p, q) != 1:
                    continue
                inv = LegendrianInvariants(tb, 0)
                spec = CableSpec(p, q)
                n = stab_count_relation(inv, spec)
                down = positive_cable(LegendrianInvariants(tb - 1, 0), spec)
                assert negative_cable_tb(inv, spec) - n == down.tb


def test_seestab_count():
    for p in range(2, 9):
        for q in range(1, p):
            from math import gcd

            if gcd(p, q) == 1:
                assert seestab_count(Slope(3), Slope(4), Slope(q, p)) == p
    assert seestab_count(Slope(-2), Slope(-1), Slope(-5, 2)) == 2
    assert seestab_count(Slope(-2), Slope(-1), Slope(1, 0)) == 0


def test_self_linking():
    assert self_linking(LegendrianInvariants(0, 0)) == 0
    assert self_linking(LegendrianInvariants(-6, 1)) == -7
    for n in range(1, 6):
        assert self_linking(LegendrianInvariants(4 * n + 2, 2 * n - 1)) == 2 * n + 3


def test_self_linking_stable_under_negative_stabilization():
    for tb, rot in ((3, 1), (0, 0), (-4, 2)):
        assert self_linking(LegendrianInvariants(tb - 1, rot - 1)) == self_linking(
            LegendrianInvariants(tb, rot)
        )


def test_transnonsimple_family():
    fam1 = transnonsimple_family(1)
    assert (fam1.tb, fam1.rot, fam1.sl, fam1.count) == (6, 1, 5, 1)
    fam3 = transnonsimple_family(3)
    assert (fam3.tb, fam3.rot, fam3.sl, fam3.count) == (14, 5, 9, 3)
    for n in range(1, 12):
        fam = transnonsimple_family(n)
        assert fam.tb == divide_cable_tb(CableSpec(2 * n + 1, 2))
        assert fam.sl == self_linking(LegendrianInvariants(fam.tb, fam.rot))
    with pytest.raises(CableError):
        transnonsimple_family(0)


def test_ruling_tb_on_the_infinite_dividing_slope():
    # infinity is stored as (1, 0), so q'/p' = 1/0 in pq - |p q' - p' q|
    from nonloose.farey import INFINITY

    for (p, q), tb in (((2, 7), 12), ((3, 1), 0), ((1, 0), -1), ((5, -2), -15)):
        assert ruling_cable_tb(CableSpec(p, q), INFINITY) == tb
        assert ruling_cable_tb(CableSpec(p, q), Slope(-1, 0)) == tb


def test_stab_count_relation_rejects_slopes_outside_the_window():
    for p, q in ((2, 3), (2, -1), (1, 1), (1, 0)):
        with pytest.raises(CableError, match=r"^the relation needs q/p in \(tb - 1, tb\)$"):
            stab_count_relation(LegendrianInvariants(1, 0), CableSpec(p, q))
