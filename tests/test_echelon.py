import random
from fractions import Fraction

import pytest

from valsat import oracle
from valsat.echelon import EchelonBasis, echelon_insert, gauss_eliminate, saturate_free
from valsat.polyvec import PolyVec, zero_vec
from valsat.valuation import Zp

Z2 = Zp(2)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def rand_vec(rng, dom, n, deg, span=8):
    comps = [
        [Fraction(rng.randrange(-span, span + 1)) * dom.p ** rng.randrange(0, 3)
         for _ in range(rng.randrange(0, deg + 2))]
        for _ in range(n)
    ]
    return PolyVec.from_raw(dom, comps)


def test_gauss_eliminate_examples():
    L = saturate_free([vec(Z2, [1], [0])])
    out = gauss_eliminate(vec(Z2, [3], [1]), L.columns, L.pivots)
    assert out == vec(Z2, [0], [1])

    out = gauss_eliminate(vec(Z2, [0], [5]), L.columns, L.pivots)
    assert out == vec(Z2, [0], [5])  # pivot coordinate already zero

    L = saturate_free([vec(Z2, [0, 1])])  # X in V[X]^1
    assert gauss_eliminate(vec(Z2, [0, 1]), L.columns, L.pivots).is_zero()


def test_echelon_insert_examples():
    cols, pivots = [], []
    assert echelon_insert(cols, pivots, vec(Z2, [2])) == (True, True)
    assert cols == [vec(Z2, [1])] and pivots == [(1, 0)]

    assert echelon_insert(cols, pivots, vec(Z2, [0, 1])) == (True, False)
    assert cols == [vec(Z2, [1]), vec(Z2, [0, 1])] and pivots == [(1, 0), (1, 1)]

    # a vector already in the span dies and leaves both lists alone
    assert echelon_insert(cols, pivots, vec(Z2, [6, 3])) == (False, False)
    assert len(cols) == len(pivots) == 2

    # so does the zero vector
    assert echelon_insert(cols, pivots, zero_vec(Z2, 1)) == (False, False)
    assert cols == [vec(Z2, [1]), vec(Z2, [0, 1])] and pivots == [(1, 0), (1, 1)]


def test_validate_rejects_a_non_monic_pivot():
    G = saturate_free([vec(Z2, [2], [4]), vec(Z2, [0], [1])])
    assert list(G) == [vec(Z2, [1], [2]), vec(Z2, [0], [1])]
    # Scaled by the unit 3, the first column keeps its pivot (1, 0) and the
    # family stays strictly echelon, but it reads 3 there, not 1.
    scaled = [G[0].scale(Z2.element(3)), G[1]]
    assert [v.piv() for v in scaled] == list(G.pivots)
    with pytest.raises(ValueError, match="not monic"):
        EchelonBasis(scaled)


def test_saturate_free_examples():
    G = saturate_free([vec(Z2, [2], [0]), vec(Z2, [0], [3])])
    assert list(G) == [vec(Z2, [1], [0]), vec(Z2, [0], [1])]

    assert len(saturate_free([])) == 0

    G = saturate_free([vec(Z2, [2], [4])])
    assert list(G) == [vec(Z2, [1], [2])]

    # zero columns are skipped
    G = saturate_free([zero_vec(Z2, 2), vec(Z2, [2], [4]), zero_vec(Z2, 2)])
    assert list(G) == [vec(Z2, [1], [2])]


def test_v_span_membership_examples():
    G = saturate_free([vec(Z2, [1], [0]), vec(Z2, [0], [1])])
    assert oracle.in_v_span(G, [vec(Z2, [5], [7])])

    G = saturate_free([vec(Z2, [1], [2])])
    assert oracle.in_v_span(G, [vec(Z2, [2], [4])])
    assert not oracle.in_v_span(G, [vec(Z2, [1], [3])])
    # in the K-span but not the V-span: the cofactor 1/2 lies outside V
    assert not oracle.in_v_span([vec(Z2, [2], [4])], [vec(Z2, [1], [2])])


def test_insert_keeps_invariants():
    rng = random.Random(23)
    for _ in range(60):
        dom = Zp(rng.choice((2, 3, 5)))
        n = rng.randrange(1, 4)
        cols, pivots = [], []
        for _ in range(rng.randrange(1, 6)):
            v = rand_vec(rng, dom, n, 2)
            if v.is_zero():
                continue
            echelon_insert(cols, pivots, v)
            EchelonBasis(cols, pivots)  # raises unless the invariants hold


def test_saturatedness_by_scaling():
    # if a*w is in the span for w with coordinates in V, then w is too
    rng = random.Random(31)
    for _ in range(60):
        dom = Zp(rng.choice((2, 3)))
        n = rng.randrange(1, 4)
        F = [rand_vec(rng, dom, n, 1) for _ in range(rng.randrange(1, 5))]
        G = saturate_free(F)
        if not len(G):
            continue
        combo = zero_vec(dom, n)
        for col in G:
            combo = combo.sub_scaled(col, dom.element(-rng.randrange(0, 5)))
        assert oracle.in_v_span(G, [combo])
        a = dom.element(dom.p ** rng.randrange(1, 3))
        w_scaled = combo.scale(a)
        assert oracle.in_v_span(G, [w_scaled])
        # dividing a span element by a scalar keeps membership when it stays in V
        if not combo.is_zero():
            assert oracle.in_v_span(G, [w_scaled.div_by(a)])


def test_elimination_preserves_fresh_pivot():
    # primitive C with a fresh pivot index stays primitive with the same pivot
    rng = random.Random(41)
    checked = 0
    while checked < 300:
        dom = Zp(rng.choice((2, 3, 5)))
        n = rng.randrange(1, 4)
        F = [rand_vec(rng, dom, n, 1) for _ in range(rng.randrange(1, 4))]
        G = saturate_free(F)
        C = rand_vec(rng, dom, n, 2)
        if C.is_zero():
            continue
        try:
            piv = C.piv()
        except Exception:
            continue
        if piv in G.pivots:
            continue
        out = gauss_eliminate(C, G.columns, G.pivots)
        assert out.piv() == piv
        checked += 1


def test_incrementality_prefix():
    rng = random.Random(53)
    for _ in range(40):
        dom = Zp(rng.choice((2, 3)))
        n = rng.randrange(1, 4)
        F = [rand_vec(rng, dom, n, 1) for _ in range(rng.randrange(2, 7))]
        cut = rng.randrange(0, len(F) + 1)
        G = saturate_free(F)
        G1 = saturate_free(F[:cut])
        assert list(G)[: len(G1)] == list(G1)


def test_k_span_preserved():
    # the K-row space of F equals that of saturate_free(F): check mutual
    # membership after clearing denominators (scaling by powers of p).
    rng = random.Random(67)
    for _ in range(30):
        dom = Zp(rng.choice((2, 3)))
        n = rng.randrange(1, 3)
        F = [v for v in (rand_vec(rng, dom, n, 1) for _ in range(rng.randrange(1, 4)))
             if not v.is_zero()]
        G = saturate_free(F)
        # each F column is a V-combination of G (G spans the saturation)
        assert oracle.in_v_span(list(G), F)
        # and each G column, once scaled by enough p's, lands in the V-span of F
        for g in G:
            scaled = g
            for _ in range(12):
                if oracle.in_v_span(F, [scaled]):
                    break
                scaled = scaled.scale(dom.element(dom.p))
            else:
                raise AssertionError("saturation changed the K-span")
