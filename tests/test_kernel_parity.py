"""The packed kernel and the generic path must agree bit for bit."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from valsat import _ratkernel
from valsat._engines import GenericEngine, select_engine
from valsat._packed import PackedEngine, _pack
from valsat.echelon import EchelonBasis, echelon_insert, saturate_free
from valsat.polyvec import PolyVec
from valsat.valuation import TrivialField, Zp
from valsat.vxsat import _run

DOMAINS = (Zp(2), Zp(3), Zp(5), TrivialField("q"))


def rand_vec(rng, dom, n, deg):
    p = dom.packing_prime or 1
    comps = [
        [Fraction(rng.randrange(-9, 10), rng.choice((1, 7, 11)))
         * p ** rng.randrange(0, 3)
         for _ in range(rng.randrange(0, deg + 2))]
        for _ in range(n)
    ]
    return PolyVec.from_raw(dom, comps)


def random_instances(seed, count):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        dom = rng.choice(DOMAINS)
        n = rng.randrange(1, 4)
        S = [rand_vec(rng, dom, n, rng.randrange(0, 3))
             for _ in range(rng.randrange(1, 4))]
        S = [v for v in S if not v.is_zero()]
        if not S:
            continue
        produced += 1
        yield dom, S


def run_engine(engine, S):
    return _run(engine, S, 64)


def assert_same_result(a, b):
    assert list(a.basis) == list(b.basis)
    assert a.basis.pivots == b.basis.pivots
    assert a.generators == b.generators
    assert a.trace == b.trace
    assert a.degree == b.degree


def plain_fold(S):
    L = EchelonBasis()
    for v in S:
        _, _, L = echelon_insert(L, v)
    return L


def unpack(dom, packed):
    comps, D = packed
    return PolyVec.from_raw(dom, [[Fraction(num, D) for num in comp]
                                  for comp in comps])


def test_packed_pure_matches_generic():
    for dom, S in random_instances(5, 60):
        generic = run_engine(GenericEngine(dom), S)
        packed = run_engine(PackedEngine(dom), S)
        assert_same_result(generic, packed)


def test_saturate_free_engine_matches_plain_fold():
    for dom, S in random_instances(11, 60):
        assert list(saturate_free(S)) == list(plain_fold(S))


# Numerators up to 2^200 over denominators that are units of every domain
# drawn, times powers of p: unit entries such as -5/7 make the elimination
# multiplier w/g differ from 1, and negative leading entries make the
# content negative.
@st.composite
def instances(draw):
    dom = draw(st.sampled_from(DOMAINS))
    p = dom.packing_prime or 1
    num = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
    den = st.sampled_from((1, 7, 11, 77, 13 ** 5))

    def coeff():
        return Fraction(draw(num), draw(den)) * p ** draw(st.integers(0, 2))

    n = draw(st.integers(1, 3))
    S = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(0, 2))
        comps = [[coeff() for _ in range(draw(st.integers(0, deg + 1)))]
                 for _ in range(n)]
        v = PolyVec.from_raw(dom, comps)
        if not v.is_zero():
            S.append(v)
    return dom, S


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(instances())
def test_packed_matches_generic_property(inst):
    dom, S = inst
    assume(S)
    assert_same_result(run_engine(GenericEngine(dom), S),
                       run_engine(PackedEngine(dom), S))
    assert list(saturate_free(S)) == list(plain_fold(S))


def test_insert_with_unnormalised_unit_pivots():
    """Pivot numerators other than D, negative ones included, eliminate exactly."""
    rng = random.Random(17)
    for dom, S in random_instances(17, 40):
        p = dom.packing_prime
        units = [u for u in (-3, -1, 5, 7) if not p or u % p]
        scale = [dom.k_element(Fraction(rng.choice(units), rng.choice((1, 11))))
                 for _ in S]
        L = EchelonBasis([col.scale(u) for col, u in zip(plain_fold(S), scale)])
        cols = [_pack(col) for col in L]
        pivs = [_ratkernel.vec_pivot(col, p) for col in cols]
        assert [(j, r) for j, r, _ in pivs] == list(L.pivot_indices())
        for _ in range(5):
            v = rand_vec(rng, dom, S[0].n, 2)
            if v.is_zero():
                continue
            w, new, _ = echelon_insert(L, v)
            reduced, packed_new = _ratkernel.insert(cols, pivs, _pack(v), p)
            if w.is_zero():
                assert reduced is None
            else:
                assert unpack(dom, reduced) == w
                assert packed_new == new


def test_pivot_when_p_divides_denominator():
    # 6/2 = 3 is a unit of Z_(2) although both numerators are even.
    assert _ratkernel.vec_pivot(([[6, 4]], 2), 2) == (1, 0, 6)
    # 4/2 = 2 is not a unit; 6/2 = 3 is.
    assert _ratkernel.vec_pivot(([[4, 6]], 2), 2) == (1, 1, 6)
    assert _ratkernel.vec_pivot(([[4], [8]], 2), 2) is None
    assert _ratkernel.vec_pivot(([[], [0, -5]], 4), 0) == (2, 1, -5)


def test_content_when_p_divides_denominator():
    # (2, 3): the content is 3, a unit, and (2, 3) / 3 = (2/3, 1).
    assert _ratkernel.insert([], [], ([[4, 6]], 2), 2) == (([[2, 3]], 3), False)
    # (2, 6): the content is the first entry, 2, which is not a unit.
    assert _ratkernel.insert([], [], ([[4, 12]], 2), 2) == (([[1, 3]], 1), True)
    # (-2, 6): a negative content is divided out with its sign.
    assert _ratkernel.insert([], [], ([[-4, 12]], 2), 2) == (([[1, -3]], 1), True)
    # Over Q the content is the first nonzero entry: (0, -4/6, 1/3) / (-2/3).
    assert (_ratkernel.insert([], [], ([[0, -4], [2]], 6), 0)
            == (([[0, 2], [-1]], 2), False))


def test_select_engine_kinds():
    from valsat.valuation import RationalFunctionsAtZero

    assert isinstance(select_engine(Zp(2)), PackedEngine)
    assert isinstance(select_engine(TrivialField("q")), PackedEngine)
    assert isinstance(select_engine(TrivialField("fp", 3)), GenericEngine)
    assert isinstance(select_engine(RationalFunctionsAtZero("q")), GenericEngine)
