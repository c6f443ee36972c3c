import random
from fractions import Fraction

import pytest

from valsat.echelon import saturate_free
from valsat.errors import EmptyFamily, MixedFamily, NotPrimitive, ZeroVector
from valsat.polyvec import PivotIndex, PolyVec, family_degree, red_prim, zero_vec
from valsat.syzygy import kernel_kx, syzygy_vx
from valsat.valuation import Zp
from valsat.vxsat import saturate_vx

Z2 = Zp(2)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def test_coord_read_off():
    v = vec(Z2, [2], [0, -1])  # (2, -X)
    assert v.coord(PivotIndex(2, 1)).value == -1
    assert v.coord(PivotIndex(1, 0)).value == 2
    assert v.coord(PivotIndex(1, 5)).is_zero()
    with pytest.raises(IndexError):
        v.coord(PivotIndex(3, 0))


def test_pivot_order_and_examples():
    assert PivotIndex(1, 5) < PivotIndex(2, 0)
    assert PivotIndex(2, 0) < PivotIndex(2, 1)

    v = vec(Z2, [2], [0, -1])
    assert v.piv() == (2, 1) and v.coord(v.piv()).value == -1

    v = vec(Z2, [3, 2], [0, 0, 1])
    assert v.piv() == (1, 0) and v.coord(v.piv()).value == 3

    with pytest.raises(NotPrimitive):
        vec(Z2, [2], [0, 4]).piv()


def test_red_prim_examples():
    r, u = red_prim(vec(Z2, [2], [0, 4]))
    assert r == vec(Z2, [1], [0, 2]) and u.value == 2

    r, u = red_prim(vec(Z2, [2], [0, -1]))
    assert r == vec(Z2, [-2], [0, 1]) and u.value == -1

    r, u = red_prim(vec(Z2, [0], [3]))
    assert r == vec(Z2, [0], [1]) and u.value == 3

    with pytest.raises(ZeroVector):
        red_prim(zero_vec(Z2, 2))


def test_red_prim_pivot_coefficient_one():
    # content position == pivot position makes the reduced pivot coefficient 1
    rng = random.Random(5)
    for _ in range(200):
        dom = Zp(rng.choice((2, 3)))
        comps = [
            [Fraction(rng.randrange(-8, 9)) * dom.p ** rng.randrange(0, 3)
             for _ in range(rng.randrange(0, 4))]
            for _ in range(rng.randrange(1, 4))
        ]
        v = PolyVec.from_raw(dom, comps)
        if v.is_zero():
            continue
        r, u = red_prim(v)
        assert r.piv()  # primitive now
        again, u2 = red_prim(r)
        assert u2.is_unit()  # idempotent up to a unit
        assert v.div_by(u) == r


def test_shift_x():
    v = vec(Z2, [2], [0, -1])
    assert v.shift_x() == vec(Z2, [0, 2], [0, 0, -1])
    assert zero_vec(Z2, 2).shift_x().is_zero()
    assert vec(Z2, [1]).shift_x() == vec(Z2, [0, 1])
    # piv moves from (j, r) to (j, r+1)
    assert v.shift_x().piv() == (2, 2)


def test_shift_preserves_coords():
    v = vec(Z2, [1, 2, 3], [0, 5])
    w = v.shift_x()
    for at, c in v.iter_coords():
        assert w.coord(PivotIndex(at.index, at.exponent + 1)) == c


def test_family_degree():
    assert family_degree([vec(Z2, [2], [0, -1])]) == 1
    assert family_degree([vec(Z2, [2, 0, 0, 1], [1])]) == 3
    assert family_degree([vec(Z2, [5]), vec(Z2, [0, 1])]) == 1
    with pytest.raises(EmptyFamily):
        family_degree([])
    with pytest.raises(ZeroVector):
        family_degree([zero_vec(Z2, 1)])


def test_piv_unit_invariance():
    rng = random.Random(9)
    for _ in range(100):
        dom = Zp(rng.choice((2, 5)))
        comps = [[rng.randrange(-6, 7) for _ in range(rng.randrange(0, 4))]
                 for _ in range(rng.randrange(1, 3))]
        v = PolyVec.from_raw(dom, comps)
        try:
            p = v.piv()
        except (NotPrimitive, ZeroVector):
            continue
        unit = dom.element(Fraction(3, 7))
        assert v.scale(unit).piv() == p
        # smaller positions are residually zero
        for at, c in v.iter_coords():
            if at < p:
                assert not c.is_unit()
            if at == p:
                break


def test_trailing_zeros_trimmed():
    v = PolyVec.from_raw(Z2, [[1, 0, 0], [0]])
    assert v.comps[0] == (Z2.element(1),)
    assert v.comps[1] == ()
    assert v.degree() == 0


@pytest.mark.parametrize("entry", [saturate_free, saturate_vx, kernel_kx, syzygy_vx],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("family", [
    [vec(Z2, [1]), vec(Z2, [1], [1])],
    [vec(Z2, [1], [1]), vec(Z2, [1])],
    [vec(Z2, [1], [2]), vec(Zp(3), [3], [1])],
    [vec(Z2, [1]), zero_vec(Z2, 2)],
], ids=["widths-1-2", "widths-2-1", "zp2-zp3", "zero-of-width-2"])
def test_entry_points_reject_mixed_families(entry, family):
    with pytest.raises(MixedFamily):
        entry(family)
