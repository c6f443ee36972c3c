"""Full-pipeline runs over the non-rational-packed domain instances."""

import random

from valsat import oracle
from valsat.echelon import saturate_free
from valsat.oracle import _x_shifts
from valsat.polyvec import PolyVec
from valsat.syzygy import apply_columns, syzygy_vx
from valsat.valuation import RationalFunctionsAtZero, TrivialField
from valsat.vxsat import saturate_vx


def test_vx_saturation_over_rational_functions():
    R = RationalFunctionsAtZero("q")
    t = R.uniformizer()
    one = R.element(1)
    # S = [t, X] in V[X]^1: the saturation picks up 1 (= X * (t/t) ... / t)
    S = [PolyVec(R, [(t,)]), PolyVec(R, [(R.zero, one)])]
    res = saturate_vx(S)
    assert res.trace[-1].defect == 0
    assert res.generators[0] == PolyVec(R, [(one,)])
    D = res.degree + res.trace[-1].k + 2
    reference = oracle.saturation_slice(S, D)
    assert oracle.in_v_span(reference, _x_shifts(res.generators, D))
    assert oracle.in_vx_span(res.generators, reference, D)


def test_vx_saturation_over_f5_rational_functions():
    R = RationalFunctionsAtZero("fp", 5)
    t = R.uniformizer()
    one = R.element(1)
    S = [PolyVec(R, [(t * t, one)]), PolyVec(R, [(t,), (one,)])]
    # widths differ: use only the first vector family (n = 1) and a pair (n = 2)
    res = saturate_vx([S[0]])
    assert res.trace[-1].defect == 0
    res2 = saturate_vx([S[1]])
    assert res2.trace[-1].defect == 0


def test_syzygy_over_rational_functions():
    R = RationalFunctionsAtZero("q")
    t = R.uniformizer()
    one = R.element(1)
    # u = (X, t): syzygies generated by (t, -X) over V[X]
    U = [PolyVec(R, [(R.zero, one)]), PolyVec(R, [(t,)])]
    res = syzygy_vx(U)
    assert len(res.generators) == 1
    b = res.generators[0]
    assert all(not poly for poly in apply_columns(U, b))
    assert oracle.spans_equal([b], [PolyVec(R, [(t,), (R.zero, -one)])])


def test_syzygy_over_f3_rational_functions():
    R = RationalFunctionsAtZero("fp", 3)
    t = R.uniformizer()
    one = R.element(1)
    # u = (X + 1, t): kernel over F_3(t) is spanned by (t, -(X + 1))
    U = [PolyVec(R, [(one, one)]), PolyVec(R, [(t,)])]
    res = syzygy_vx(U)
    assert len(res.generators) == 1
    b = res.generators[0]
    assert all(not poly for poly in apply_columns(U, b))
    assert oracle.spans_equal([b], [PolyVec(R, [(t,), (-one, -one)])])


def test_trivial_field_saturation_is_plain_span():
    # with a trivial valuation, saturation changes nothing but echelonizes
    F5 = TrivialField("fp", 5)
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randrange(1, 4)
        F = [
            PolyVec.from_raw(F5, [[rng.randrange(5) for _ in range(rng.randrange(0, 3))]
                                  for _ in range(n)])
            for _ in range(rng.randrange(1, 4))
        ]
        G = saturate_free(F)
        assert oracle.in_v_span(G, F)
        assert oracle.spans_equal(list(G), [f for f in F if not f.is_zero()])


def test_trivial_field_syzygy():
    Q = TrivialField("q")
    one = Q.element(1)
    U = [PolyVec(Q, [(Q.zero, one)]), PolyVec(Q, [(Q.element(2),)])]  # (X, 2)
    res = syzygy_vx(U)
    # over a field the K- and V-kernels coincide: single generator (2, -X)
    assert len(res.generators) == 1
    assert all(not poly for poly in apply_columns(U, res.generators[0]))
    assert oracle.spans_equal(
        res.generators, [PolyVec(Q, [(Q.element(2),), (Q.zero, -one)])]
    )
