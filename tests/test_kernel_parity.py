"""The packed kernel and the generic path must agree bit for bit."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from valsat import _poly, _ratkernel, syzygy
from valsat._engines import GenericEngine, select_engine
from valsat._packed import PackedEngine
from valsat._ratkernel import numerator_ring
from valsat.echelon import EchelonBasis, echelon_insert, gauss_eliminate, saturate_free
from valsat.polyvec import PolyVec, zero_vec
from valsat.syzygy import (_kernel_kx_generic, kernel_kx, primitive_scale, scaled_kernel,
                           syzygy_vx)
from valsat.textio import render_vector
from valsat.valuation import (RationalFunctionsAtZero, RatFuncElement, ScalarElement,
                              TrivialField, Zp, content)
from valsat.vxsat import SaturationResult, _run, saturate_vx

# The denominators of the test coefficients below (7, 11, 77, 13^5) are
# units mod 3 and mod 5.
DOMAINS = (Zp(2), Zp(3), Zp(5), TrivialField("q"), TrivialField("fp", 3),
           TrivialField("fp", 5), RationalFunctionsAtZero("q"),
           RationalFunctionsAtZero("fp", 3), RationalFunctionsAtZero("fp", 5))

# Denominators 1 + c t share the factors 1 + t and 1 - t, and their squares,
# so packed columns get common denominators of higher degree.
RFT_DENS = ((1,), (1, 1), (1, -1), (1, 2), (1, 2, 1), (1, 0, -1))


def rand_ratfunc(rng, dom):
    """(a + b t + c t^2)/(1 + ...) t^k: numerators are often nonconstant at
    a unit entry, so pivot numerators are, and t^k makes contents non-units."""
    num = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 4))]
    return dom.element(([0] * rng.randrange(0, 3) + num, rng.choice(RFT_DENS)))


def rand_vec(rng, dom, n, deg):
    if isinstance(dom, RationalFunctionsAtZero):
        return PolyVec(dom, [[rand_ratfunc(rng, dom) for _ in range(rng.randrange(0, deg + 2))]
                             for _ in range(n)])
    p = dom.p or 1
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
    cols, pivots = [], []
    for v in S:
        echelon_insert(cols, pivots, v)
    return EchelonBasis(cols, pivots)


def unpack(dom, packed):
    """A packed vector as elements, each reduced by the domain itself."""
    comps, D = packed
    if isinstance(dom, RationalFunctionsAtZero):
        return PolyVec(dom, [[dom.k_element((num, D)) for num in comp]
                             for comp in comps])
    return PolyVec.from_raw(dom, [[Fraction(num, D) for num in comp]
                                  for comp in comps])


def test_packed_pure_matches_generic():
    for dom, S in random_instances(5, 90):
        generic = run_engine(GenericEngine(dom), S)
        packed = run_engine(PackedEngine(dom), S)
        assert_same_result(generic, packed)


def test_saturate_free_engine_matches_plain_fold():
    for dom, S in random_instances(11, 90):
        assert list(saturate_free(S)) == list(plain_fold(S))


# Numerators up to 2^200 over denominators that are units of every domain
# drawn, times powers of p: unit entries such as -5/7 make the elimination
# multiplier w/g differ from 1, and negative leading entries make the
# content negative.  Over rft0 the coefficients are (a + b t)/(1 + c t)
# times powers of t, with a, b up to 2^70 and shared factors 1 + c t.
@st.composite
def instances(draw):
    dom = draw(st.sampled_from(DOMAINS))
    if isinstance(dom, RationalFunctionsAtZero):
        small = st.integers(-3, 3)
        big = st.one_of(small, st.integers(-2 ** 70, 2 ** 70))

        def coeff():
            num = [0] * draw(st.integers(0, 2)) + [draw(big), draw(big)]
            return dom.element((num, (1, draw(small))))
    else:
        p = dom.p or 1
        num = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
        den = st.sampled_from((1, 7, 11, 77, 13 ** 5))

        def coeff():
            return dom.element(Fraction(draw(num), draw(den)) * p ** draw(st.integers(0, 2)))

    n = draw(st.integers(1, 3))
    S = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(0, 2))
        v = PolyVec(dom, [[coeff() for _ in range(draw(st.integers(0, deg + 1)))]
                          for _ in range(n)])
        if not v.is_zero():
            S.append(v)
    return dom, S


# Columns stored with a non-unit content, 4 over zp:2 and t over rft0:3, and
# shifted before they are ever a pivot: the shift of X^5 + 2 (X^4 + t) is
# zero at the other pivot, so the shift reads the column in lowest terms first.
ZP2, RFT3 = Zp(2), RationalFunctionsAtZero("fp", 3)


@settings(max_examples=90, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(instances())
@example((ZP2, [PolyVec.from_raw(ZP2, [[2, 0, 0, 0, 0, 1]]), PolyVec.from_raw(ZP2, [[4]])]))
@example((ZP2, [PolyVec.from_raw(ZP2, [[2, 0, 0, 0, 0, 1], [1]]),
                PolyVec.from_raw(ZP2, [[4], [0, 12]])]))
@example((RFT3, [PolyVec(RFT3, [[RFT3.element(([0, 1], [1])), RFT3.zero, RFT3.zero,
                                 RFT3.zero, RFT3.one]]),
                 PolyVec(RFT3, [[RFT3.element(([0, 2], [1, 1]))]])]))
def test_packed_matches_generic_property(inst):
    dom, S = inst
    assume(S)
    assert_same_result(run_engine(GenericEngine(dom), S),
                       run_engine(PackedEngine(dom), S))
    assert list(saturate_free(S)) == list(plain_fold(S))


# The column contract shared by both kernels, on all five kinds.
FIVE_KINDS = (Zp(3), TrivialField("q"), TrivialField("fp", 5),
              RationalFunctionsAtZero("q"), RationalFunctionsAtZero("fp", 3))


@st.composite
def five_kind_families(draw):
    """1-4 nonzero vectors of width 1-3 and degree <= 2 over one of FIVE_KINDS.

    Coefficients carry uniformizer factors, so contents are often non-units.
    """
    dom = draw(st.sampled_from(FIVE_KINDS))
    pi = dom.uniformizer() or dom.one
    powers = (dom.one, pi, pi * pi)
    if isinstance(dom, RationalFunctionsAtZero):
        base = st.builds(lambda num, d0: dom.element((num, [d0, 1])),
                         st.lists(st.integers(-3, 3), max_size=2), st.sampled_from((1, 2)))
    else:
        base = st.builds(lambda a, b: dom.element(Fraction(a, b)),
                         st.integers(-9, 9), st.sampled_from((1, 7)))
    coeff = st.builds(lambda c, u: c * u, base, st.sampled_from(powers))
    n = draw(st.integers(1, 3))
    S = [PolyVec(dom, [draw(st.lists(coeff, max_size=3)) for _ in range(n)])
         for _ in range(draw(st.integers(1, 4)))]
    S = [v for v in S if not v.is_zero()]
    assume(S)
    return dom, S


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(five_kind_families())
def test_appended_columns_are_monic_at_their_content_position(inst):
    """Each kernel appends a column monic at its stored pivot, which is
    ``PolyVec.piv()`` and the content position of the eliminated vector,
    and the packed kernel's fold stays identical to the generic one."""
    dom, S = inst
    ring = numerator_ring(dom)
    cols, pivots, pcols, ppivs, raw = [], [], [], [], set()

    def insert(v, packed):
        w = gauss_eliminate(v, cols, pivots)
        survived, new = echelon_insert(cols, pivots, v)
        assert survived == (not w.is_zero()) and len(cols) == len(pivots)
        if survived:
            coords = list(w.iter_coords())
            u, i = content([c for _, c in coords])
            assert pivots[-1] == coords[i][0] == cols[-1].piv()
            assert cols[-1].coord(pivots[-1]) == dom.one
            assert cols[-1] == w.div_by(u) and new == (not u.is_unit())
        inserted = _ratkernel.insert(pcols, ppivs, packed, ring, raw)
        assert inserted == (survived, new)
        assert ppivs == pivots
        if survived:
            # Stored as its content quotient, monic at its pivot; read
            # through the reduction, from a copy, so that the column stays
            # raw until the kernel reads it.
            (comps, D), (j, r) = pcols[-1], ppivs[-1]
            assert len(pcols) - 1 in raw and comps[j - 1][r] == D
            comps, D = _ratkernel.reduced([(list(comps), D)], {0}, 0, ring)
            assert comps[j - 1][r] == D
            if isinstance(ring, _ratkernel.Polynomials):
                # Normalised: monic over F_p[t], positive lead over Z[t].
                assert D[-1] == 1 if ring.mod else D[-1] > 0
            else:
                assert D > 0
            assert unpack(dom, (comps, D)) == cols[-1]

    for v in S:
        insert(v, (v.nums, v.den))
    # One round of X-shifts, as the saturation driver runs them.
    for i in range(len(cols)):
        comps, D = _ratkernel.reduced(pcols, raw, i, ring)
        insert(cols[i].shift_x(), (_ratkernel.shift_comps(comps, 1, ring.zero), D))
    EchelonBasis(cols, pivots)  # raises unless the fold is strictly echelon


# The integer rings of the hand-worked examples: Z for Z_(2) and for Q, and
# the residues mod 5 and mod 3.
Z2, QQ = _ratkernel.Integers(2), _ratkernel.Integers(0)
F5, F3 = _ratkernel.Integers(0, 5), _ratkernel.Integers(0, 3)


class Kernel:
    """A packed basis for the hand-worked examples: ``insert`` as the engine
    calls it, and ``cols`` read through the reduction to lowest terms, each
    stored record checked to be monic at its pivot first."""

    def __init__(self, ring):
        self.ring, self.stored, self.pivots, self.raw = ring, [], [], set()

    def insert(self, vec):
        return _ratkernel.insert(self.stored, self.pivots, vec, self.ring, self.raw)

    @property
    def cols(self):
        for (comps, D), (j, r) in zip(self.stored, self.pivots):
            assert comps[j - 1][r] == D
        return [_ratkernel.reduced(self.stored, self.raw, i, self.ring)
                for i in range(len(self.stored))]


def test_pivot_when_p_divides_denominator():
    # 6/2 = 3 is a unit of Z_(2) although both numerators are even: the
    # content 6/2 sits at (1, 0), and (3, 2) / 3 = (1, 2/3).
    kernel = Kernel(Z2)
    assert kernel.insert(([[6, 4]], 2)) == (True, False)
    assert kernel.pivots == [(1, 0)] and kernel.cols == [([[3, 2]], 3)]
    # 4/2 = 2 is not a unit; 6/2 = 3 is: (2, 3) / 3 = (2/3, 1).
    kernel = Kernel(Z2)
    assert kernel.insert(([[4, 6]], 2)) == (True, False)
    assert kernel.pivots == [(1, 1)] and kernel.cols == [([[2, 3]], 3)]
    # (2, 4) has no unit entry: dividing out the content 2 puts the pivot
    # on its position (1, 0).
    kernel = Kernel(Z2)
    assert kernel.insert(([[4], [8]], 2)) == (True, True)
    assert kernel.pivots == [(1, 0)] and kernel.cols == [([[1], [2]], 1)]
    # Over Q the pivot is the first nonzero entry: (0, -5/4) / (-5/4).
    kernel = Kernel(QQ)
    assert kernel.insert(([[], [0, -5]], 4)) == (True, False)
    assert kernel.pivots == [(2, 1)] and kernel.cols == [([[], [0, 1]], 1)]


def test_content_when_p_divides_denominator():
    def insert_one(vec, p):
        kernel = Kernel(_ratkernel.Integers(p))
        return kernel.insert(vec), kernel.cols

    # (2, 3): the content is 3, a unit, and (2, 3) / 3 = (2/3, 1).
    assert insert_one(([[4, 6]], 2), 2) == ((True, False), [([[2, 3]], 3)])
    # (2, 6): the content is the first entry, 2, which is not a unit.
    assert insert_one(([[4, 12]], 2), 2) == ((True, True), [([[1, 3]], 1)])
    # (-2, 6): a negative content is divided out with its sign.
    assert insert_one(([[-4, 12]], 2), 2) == ((True, True), [([[1, -3]], 1)])
    # Over Q the content is the first nonzero entry: (0, -4/6, 1/3) / (-2/3).
    assert insert_one(([[0, -4], [2]], 6), 0) == ((True, False), [([[0, 2], [-1]], 2)])
    # A vector that is all zeros dies and appends nothing.
    assert insert_one(([[0], []], 3), 3) == ((False, False), [])


def test_a_step_over_z_takes_no_gcd(monkeypatch):
    """Over Z the step is w V - a W: the only gcd chains are those that put
    a column in lowest terms when it is read, as a pivot or taken out; and
    the K[X] step is lb col - la X^m pivot, whose only gcd chain is the
    strip at its end."""
    calls = []
    monkeypatch.setattr(_ratkernel, "gcd", lambda *xs: calls.append(xs) or math.gcd(*xs))
    kernel = Kernel(QQ)
    assert kernel.insert(([[2, 3]], 1)) == (True, False)
    assert calls == [] and kernel.stored == [([[2, 3]], 2)]
    # Column 0 is a pivot, read in lowest terms (one chain); then a = 4 and
    # w = 2 give 2 (4, 1) - 4 (2, 3) = (0, -10), which keeps the factor
    # gcd(a, w) = 2 that the step with cofactors w/2 and a/2 divides out.
    assert kernel.insert(([[4, 1]], 1)) == (True, False)
    assert len(calls) == 1 and kernel.stored[1] == ([[0, -10]], -10)
    assert kernel.cols == [([[2, 3]], 2), ([[0, 1]], 1)] and len(calls) == 2
    # The K[X] step reduces 1 + 4X^2 by the pivot 3 + 2X in row 0 with the
    # cofactors (lb, la) = (2, 4), then (2, -12): 2 col - 4 X pivot and
    # 2 col + 12 pivot leave [[40], [12, -8], [4]], and the strip divides out
    # 4 in its one gcd chain.  Dividing out gcd(la, lb) = 2 at both steps
    # leaves 4 times less and the same stripped column.
    calls.clear()
    ring = _ratkernel.Integers(0)
    col, pivot = [[1, 0, 4], [], [1]], [[3, 2], [1], []]
    assert syzygy._step(ring)(col, pivot, 0) == [[10], [3, -2], [1]]
    assert calls == [(40, 12, -8, 4)] and pivot == [[3, 2], [1], []]


def test_insert_residues_mod_p():
    # Over F_5 the pivot is the first nonzero residue, 3 at (1, 1), and the
    # column is multiplied by 3^-1 = 2: (0, 3, 4) becomes (0, 1, 3).
    kernel = Kernel(F5)
    assert kernel.insert(([[0, 3, 4]], 1)) == (True, False)
    assert kernel.pivots == [(1, 1)] and kernel.cols == [([[0, 1, 3]], 1)]
    # (1, 2) - 2 (0, 1, 3) = (1, 0, 4) mod 5, monic at its pivot (1, 0).
    assert kernel.insert(([[1, 2]], 1)) == (True, False)
    assert kernel.pivots == [(1, 1), (1, 0)] and kernel.cols[1] == ([[1, 0, 4]], 1)
    # (2, 4) = 2 (1, 0, 4) + 4 (0, 1, 3) mod 5 lies in the span: it dies and
    # appends nothing.
    assert kernel.insert(([[2, 4]], 1)) == (False, False)
    assert len(kernel.cols) == len(kernel.pivots) == 2
    # Over F_3 an empty first component is skipped: (0, 2X, 1) times 2^-1 = 2.
    kernel = Kernel(F3)
    assert kernel.insert(([[], [0, 2], [1]], 1)) == (True, False)
    assert kernel.pivots == [(2, 1)] and kernel.cols == [([[], [0, 1], [2]], 1)]


def test_insert_over_polynomial_numerators():
    """Numerators in Z[t] (rft0:q) and F_5[t] (rft0:5), as tuples of ints."""
    ZT, F5T = _ratkernel.Polynomials(), _ratkernel.Polynomials(5)
    # (-2t/3, -4t^2/3) has the non-unit content -2t/3, t-adic order 1: it
    # is divided out with its sign, giving (1, 2t) over D = 1.
    kernel = Kernel(ZT)
    assert kernel.insert(([[(0, -2), (0, 0, -4)]], (3,))) == (True, True)
    assert kernel.pivots == [(1, 0)] and kernel.cols == [([[(1,), (0, 2)]], (1,))]
    # Over F_5, (3t, t) has the content 3t and becomes (1, 2): t / 3t = 2.
    kernel = Kernel(F5T)
    assert kernel.insert(([[(0, 3), (0, 1)]], (1,))) == (True, True)
    assert kernel.pivots == [(1, 0)] and kernel.cols == [([[(1,), (2,)]], (1,))]
    for ring, top in ((ZT, -2), (F5T, 3)):
        # (1 + t, 2) is primitive at its unit entry 1 + t: stored as
        # (1 + t, 2) over D = 1 + t, a pivot numerator that is not constant.
        kernel = Kernel(ring)
        assert kernel.insert(([[(1, 1), (2,)]], (1,))) == (True, False)
        assert kernel.pivots == [(1, 0)] and kernel.cols == [([[(1, 1), (2,)]], (1, 1))]
        # (1, t) against it: a = 1, w = 1 + t, g = 1, so the step multiplies
        # by w/g = 1 + t: (1 + t)(1, t) - 1 (1 + t, 2) = (0, t^2 + t - 2),
        # whose unit content t^2 + t - 2 leaves (0, 1) over D = 1.
        assert kernel.insert(([[(1,), (0, 1)]], (1,))) == (True, False)
        assert kernel.pivots == [(1, 0), (1, 1)] and kernel.cols[1] == ([[(), (1,)]], (1,))
        # (top, 1, 1) is t^2 + t - 2, its constant reduced mod 5 over F_5.
        assert _poly.ilin((1, 1), (0, 1), (1,), (2,), ring.mod) == (top, 1, 1)
        # (1 + t, 2) itself lies in the span: w/g = 1 and it dies.
        assert kernel.insert(([[(1, 1), (2,)]], (1,))) == (False, False)
        assert len(kernel.cols) == len(kernel.pivots) == 2


def test_select_engine_kinds():
    for dom in FIVE_KINDS + (RationalFunctionsAtZero("fp", 5),):
        assert type(select_engine(dom)) is PackedEngine


@pytest.mark.parametrize("dom", FIVE_KINDS, ids=lambda d: d.tag)
def test_zero_vector_dies_on_every_engine(dom):
    """Every engine returns (False, False) on the zero vector, before and
    after a column is held, and appends nothing."""
    for engine in (select_engine(dom), GenericEngine(dom)):
        zero = zero_vec(dom, 2)
        assert engine.insert_vector(zero) == (False, False)
        assert engine.cols == engine.pivs == []
        assert engine.insert_vector(PolyVec(dom, [[dom.one], []])) == (True, False)
        before = list(engine.export_basis())
        assert engine.insert_vector(zero) == (False, False)
        assert len(engine.cols) == len(engine.pivs) == 1
        assert list(engine.export_basis()) == before


def test_kernel_kx_never_runs_the_generic_reduction(monkeypatch):
    """Every shipped kind takes the packed kernel_kx."""

    def generic(U):
        raise AssertionError(f"generic kernel_kx on {U[0].domain.tag}")

    monkeypatch.setattr(syzygy, "_kernel_kx_generic", generic)
    for dom in FIVE_KINDS + (RationalFunctionsAtZero("fp", 5),):
        pi = dom.uniformizer() or dom.one
        U = [PolyVec(dom, [[dom.one, pi]]), PolyVec(dom, [[pi]]), PolyVec(dom, [[]])]
        assert len(kernel_kx(U)) == 2


# The packed kernel_kx against the generic column reduction on every kind:
# Z (zp:p, field:q), residues (field:p), Z[t] (rft0:q) and F_p[t] (rft0:p).
KERNEL_DOMAINS = (Zp(2), Zp(3), TrivialField("q"), TrivialField("fp", 5),
                  TrivialField("fp", 7), RationalFunctionsAtZero("q"),
                  RationalFunctionsAtZero("fp", 3), RationalFunctionsAtZero("fp", 5))

# 1, 1 + t, (1 + t)^2 and 1 - t^2: denominators that share factors.
KERNEL_RFT_DENS = ((1,), (1, 1), (1, 2, 1), (1, 0, -1))


@st.composite
def kernel_matrices(draw):
    """k-by-n matrices over K as columns u_1..u_n: k in 1-3 and n in 1-4 over
    the scalar kinds, k in 1-2 and n in 1-3 over rft0.

    Denominators include 2, 3, 4 and 9, so over zp:2 and zp:3 many entries
    lie in K but not in V; over rft0 they are KERNEL_RFT_DENS, so entries
    have t-dependent denominators with shared factors.  Numerators are often
    0 and sometimes above 2^80 (2^70 over rft0, per coefficient in t);
    entries are often the zero polynomial; k >= n is common; and a column
    may repeat an earlier one, as it is or times a scalar.
    """
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    if isinstance(dom, RationalFunctionsAtZero):
        num = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))

        def coeff():
            return dom.k_element(([draw(num) for _ in range(draw(st.integers(0, 2)))],
                                  draw(st.sampled_from(KERNEL_RFT_DENS))))

        k, n, length = draw(st.integers(1, 2)), draw(st.integers(1, 3)), 2
    else:
        char = dom.field.p
        dens = [d for d in (1, 2, 3, 4, 7, 9, 11) if not char or d % char]
        num = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))

        def coeff():
            return dom.k_element(Fraction(draw(num), draw(st.sampled_from(dens))))

        k, n, length = draw(st.integers(1, 3)), draw(st.integers(1, 4)), 3
    U = []
    for _ in range(n):
        if U and draw(st.integers(0, 3)) == 0:
            c = coeff()
            U.append(U[draw(st.integers(0, len(U) - 1))].scale(c if c else dom.one))
        else:
            U.append(PolyVec(dom, [[coeff() for _ in range(draw(st.integers(0, length)))]
                                   for _ in range(k)]))
    return dom, U


@settings(max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(kernel_matrices())
def test_packed_kernel_kx_matches_generic(inst):
    dom, U = inst
    basis = kernel_kx(U)
    assert basis == _kernel_kx_generic(U)
    char = dom.field.p
    for gen in basis:
        for c in (c for poly in gen for c in poly):
            assert c.domain == dom
            if isinstance(dom, RationalFunctionsAtZero):
                # Canonical: the reducing constructor leaves it as it is.
                assert type(c) is RatFuncElement
                r = RatFuncElement(dom, c.num, c.den)
                assert (c.num, c.den) == (r.num, r.den)
                assert all(type(x) is int for x in c.num + c.den)
            elif char:
                assert type(c.value) is int and 0 <= c.value < char
            else:
                assert type(c.value) is Fraction


# saturate_vx does not depend on how each input vector is scaled, which lets
# syzygy_vx saturate the packed kernel columns as they are.
@st.composite
def k_scalars(draw, dom):
    """A nonzero element of K: a unit-like part times pi^e, e in -3..3; over
    rft0 a rational function whose numerator and denominator depend on t."""
    char = dom.field.p
    if isinstance(dom, RationalFunctionsAtZero):
        coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=3)
        num, den = draw(coeffs), draw(coeffs)
        assume(any(x % char if char else x for x in num)
               and any(x % char if char else x for x in den))
        c = dom.k_element((num, den))
    else:
        a = draw(st.integers(-2 ** 40, 2 ** 40))
        b = draw(st.integers(1, 2 ** 20))
        assume(a and (not char or a % char and b % char))
        c = dom.k_element(Fraction(a, b))
    pi = dom.uniformizer()
    if pi is not None:
        e = draw(st.integers(-3, 3))
        step = pi if e > 0 else dom.one / pi
        for _ in range(abs(e)):
            c = c * step
    return c


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_saturation_ignores_the_scaling_of_each_input_vector(data):
    dom, S = data.draw(five_kind_families())
    scaled = [v.scale(data.draw(k_scalars(dom))) for v in S]
    assert_same_result(saturate_vx(S), saturate_vx(scaled))


def element_scaled_kernel(U):
    """The element reference of ``scaled_kernel``: the generic kernel's
    generators, each made primitive by ``primitive_scale``."""
    return [primitive_scale(g, U[0].domain) for g in _kernel_kx_generic(U)]


@settings(max_examples=240, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(kernel_matrices())
def test_packed_scaled_kernel_matches_the_element_reference(inst):
    """The packed scaling gives the reference's vectors and text, with D > 0
    over Z and D = 1 over F_p."""
    dom, U = inst
    S = scaled_kernel(U)
    assert all(s._comps is None for s in S)  # packed, with no element built
    expected = element_scaled_kernel(U)
    assert [render_vector(s) for s in S] == [render_vector(e) for e in expected]
    assert S == expected
    for s in S:
        if type(s.den) is int:
            assert s.den == 1 if dom.field.p else s.den > 0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(kernel_matrices())
@example((TrivialField("q"), [PolyVec.from_raw(TrivialField("q"), [[1], [0, 1]])]))
def test_syzygy_vx_matches_the_element_pipeline(inst):
    """syzygy_vx gives what saturating the element reference gives."""
    dom, U = inst
    S = element_scaled_kernel(U)
    expected = saturate_vx(S) if S else SaturationResult(EchelonBasis(), [], [], 0)
    assert_same_result(syzygy_vx(U), expected)


@pytest.mark.parametrize("dom", FIVE_KINDS, ids=lambda d: d.tag)
def test_syzygy_vx_empty_kernel_on_every_kind(dom):
    """An injective U gives the empty result on the packed path too."""
    pi = dom.uniformizer() or dom.one
    U = [PolyVec(dom, [[dom.one], [pi]]), PolyVec(dom, [[pi], [dom.zero, dom.one]])]
    assert scaled_kernel(U) == []
    res = syzygy_vx(U)
    assert (res.generators, res.trace, res.degree) == ([], [], 0)
    assert res.basis == EchelonBasis()


def test_syzygy_vx_builds_no_element(monkeypatch):
    """No kernel vector is exported as elements or scaled as elements: from
    U to the generators, syzygy_vx constructs no element of K."""

    def refused(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    for dom in FIVE_KINDS:
        pi = dom.uniformizer() or dom.k_element(2)
        U = [PolyVec(dom, [[dom.zero, dom.one]]), PolyVec(dom, [[pi]]),
             PolyVec(dom, [[pi * pi, dom.one]])]
        with monkeypatch.context() as m:
            m.setattr(ScalarElement, "__init__", refused)
            m.setattr(RatFuncElement, "__init__", refused)
            res = syzygy_vx(U)
        assert len(res.generators) == 2
        assert res.generators == saturate_vx(element_scaled_kernel(U)).generators
