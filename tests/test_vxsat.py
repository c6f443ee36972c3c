import random
import weakref
from fractions import Fraction

import pytest

from valsat._engines import select_engine
from valsat.echelon import EchelonBasis
from valsat.errors import EmptyInput, IterationCapExceeded, ValsatError
from valsat.polyvec import PivotIndex, PolyVec, zero_vec
from valsat.syzygy import syzygy_vx
from valsat.valuation import RationalFunctionsAtZero, TrivialField, Zp
from valsat.vxsat import counters, defect, saturate_vx

Z2 = Zp(2)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def basis_vector(domain, n, j, r):
    """The unit vector X^r f_j, whose pivot is exactly (j, r)."""
    comps = [[] for _ in range(n)]
    comps[j - 1] = [0] * r + [1]
    return PolyVec.from_raw(domain, comps)


def basis_from_pivots(domain, n, pivots):
    cols = [basis_vector(domain, n, j, r) for j, r in pivots]
    return EchelonBasis(cols)


WORKED_PIVOTS = [(1, 2), (1, 4), (2, 2), (3, 1), (4, 1), (4, 3)]


def test_defect_examples():
    H = [basis_vector(Z2, 1, 1, 0), basis_vector(Z2, 1, 1, 1)]
    assert defect(H) == 1

    H = [basis_vector(Z2, 5, j, r) for j, r in WORKED_PIVOTS]
    assert defect(H) == 2

    H = [basis_vector(Z2, 3, j, 1) for j in (1, 2, 3)]
    assert defect(H) == 0
    assert defect([]) == 0


def test_counters_worked_configuration():
    G0 = basis_from_pivots(Z2, 5, WORKED_PIVOTS)
    rec = counters([v.piv() for v in G0], len(G0), d=4, k=0)
    assert (rec.index_count, rec.basis_size, rec.capacity, rec.defect, rec.slack) == (
        4, 6, 20, 2, 14,
    )


def test_counters_worked_continuation():
    shifted = [(j, r + 1) for j, r in WORKED_PIVOTS]
    G1 = basis_from_pivots(Z2, 5, WORKED_PIVOTS + shifted)
    H1 = list(G1)[6:]
    rec = counters([v.piv() for v in H1], len(G1), d=4, k=1)
    assert (rec.index_count, rec.defect, rec.capacity, rec.slack) == (4, 2, 24, 12)
    assert rec.basis_size == 12


def test_counters_alternate_configuration():
    # a different pivot layout (index-5 pivots, and (4,1) shifting onto the
    # occupied (4,2)) with identical counter values
    pivots = [(1, 3), (2, 2), (4, 1), (4, 2), (5, 0), (5, 2)]
    G0 = basis_from_pivots(Z2, 5, pivots)
    rec = counters([v.piv() for v in G0], len(G0), d=4, k=0)
    assert (rec.index_count, rec.basis_size, rec.capacity, rec.defect, rec.slack) == (
        4, 6, 20, 2, 14,
    )


def test_counters_empty_h():
    G = basis_from_pivots(Z2, 2, [(1, 0)])
    rec = counters([], len(G), d=3, k=2)
    assert (rec.index_count, rec.defect, rec.capacity) == (0, 0, 0)


def test_saturate_single_vector():
    res = saturate_vx([vec(Z2, [2], [0, -1])])
    assert res.generators == [vec(Z2, [-2], [0, 1])]
    assert len(res.trace) == 1
    assert res.trace[0].defect == 0


def test_saturate_hand_trace():
    # S = [2, X] in V[X]^1 over Z_(2)
    res = saturate_vx([vec(Z2, [2]), vec(Z2, [0, 1])])
    assert list(res.basis) == [vec(Z2, [1]), vec(Z2, [0, 1]), vec(Z2, [0, 0, 1])]
    assert res.generators == [vec(Z2, [1]), vec(Z2, [0, 1])]
    assert [r.defect for r in res.trace] == [1, 0]
    assert [r.k for r in res.trace] == [0, 1]
    assert res.degree == 1
    r0, r1 = res.trace
    assert (r0.new_columns, r0.basis_size, r0.index_count, r0.capacity) == (2, 2, 1, 2)
    assert (r1.new_columns, r1.basis_size, r1.index_count, r1.capacity) == (1, 3, 1, 3)


def test_saturate_empty_inputs():
    with pytest.raises(EmptyInput):
        saturate_vx([zero_vec(Z2, 1)])
    with pytest.raises(EmptyInput):
        saturate_vx([])
    with pytest.raises(ValueError):
        saturate_vx([vec(Z2, [1])], max_iter=0)
    with pytest.raises(ValsatError):
        saturate_vx([vec(Z2, [1])], max_iter=0)


def test_iteration_cap():
    # S = [2, X^2] needs two shift rounds before the defect vanishes
    S = [vec(Z2, [2]), vec(Z2, [0, 0, 1])]
    with pytest.raises(IterationCapExceeded):
        saturate_vx(S, max_iter=1)
    res = saturate_vx(S, max_iter=2)
    assert res.trace[-1].defect == 0 and res.trace[-1].k == 2


def test_no_default_round_cap():
    # (X^70 + 2, 4) over Z_(2): the slack starts at 69 and the index count
    # stays 1, so the slack falls by the defect 1 each round until round 70.
    S = [vec(Z2, [2] + [0] * 69 + [1]), vec(Z2, [4])]
    res = saturate_vx(S)
    assert (res.trace[0].slack, res.trace[-1].k, res.trace[-1].defect) == (69, 70, 0)
    assert res.generators == [S[0], vec(Z2, [1])]
    with pytest.raises(IterationCapExceeded):
        saturate_vx(S, max_iter=64)
    assert saturate_vx(S, max_iter=70).trace == res.trace


@pytest.mark.parametrize("field, value", [("slack", -1), ("index_count", 0)])
def test_broken_termination_invariant_raises(monkeypatch, field, value):
    import dataclasses

    import valsat.vxsat as vxsat

    real = vxsat.counters

    def broken(pivots, basis_size, d, k):
        rec = real(pivots, basis_size, d, k)
        return rec if k == 0 else dataclasses.replace(rec, **{field: value})

    monkeypatch.setattr(vxsat, "counters", broken)
    with pytest.raises(RuntimeError, match="termination invariants"):
        saturate_vx([vec(Z2, [2]), vec(Z2, [0, 1])])


def test_rounds_exceed_initial_slack_when_index_count_grows():
    # Over F_5 with d = 2 the initial slack is 0, yet three rounds run.  The
    # slack obeys slack_k = slack_{k-1} + (n_k - n_{k-1}) (d + k) - defect_k,
    # and the index count n_k grows 1 -> 2 -> 2 -> 3, so a cap taken from the
    # initial slack alone would stop this valid input early.
    F5 = TrivialField("fp", 5)
    S = [
        vec(F5, [0, 1], [1, 4], [], []),
        vec(F5, [1, 1, 4], [4, 1], [0, 2], []),
        vec(F5, [1, 3], [1], [], [4]),
    ]
    res = saturate_vx(S)
    assert res.degree == 2
    assert [
        (r.k, r.new_columns, r.basis_size, r.index_count, r.capacity,
         r.defect, r.slack)
        for r in res.trace
    ] == [
        (0, 3, 3, 1, 3, 2, 0),
        (1, 3, 6, 2, 8, 1, 2),
        (2, 3, 9, 2, 10, 1, 1),
        (3, 3, 12, 3, 18, 0, 6),
    ]
    assert len(res.generators) == 3


def rand_vec(rng, dom, n, deg):
    comps = [
        [Fraction(rng.randrange(-6, 7)) * dom.p ** rng.randrange(0, 2)
         for _ in range(rng.randrange(0, deg + 2))]
        for _ in range(n)
    ]
    return PolyVec.from_raw(dom, comps)


def random_instance(rng):
    dom = Zp(rng.choice((2, 3, 5)))
    n = rng.randrange(1, 4)
    m = rng.randrange(1, 4)
    S = [rand_vec(rng, dom, n, rng.randrange(0, 4)) for _ in range(m)]
    S = [v for v in S if not v.is_zero()]
    return dom, S


def test_trace_invariants_random():
    rng = random.Random(97)
    runs = 0
    while runs < 120:
        dom, S = random_instance(rng)
        if not S:
            continue
        res = saturate_vx(S)
        runs += 1
        trace = res.trace
        assert trace[-1].defect == 0
        prev = None
        for rec in trace:
            assert rec.capacity == rec.index_count * (1 + res.degree + rec.k)
            assert rec.slack == rec.capacity - rec.basis_size
            if rec.new_columns:
                assert rec.new_columns == rec.index_count + rec.defect
            if prev is not None:
                assert rec.defect <= prev.defect
                assert rec.index_count >= prev.index_count
                assert rec.basis_size == prev.basis_size + rec.new_columns
                if rec.index_count == prev.index_count:
                    assert rec.slack == prev.slack - rec.defect
            prev = rec


def test_pivot_shift_property():
    # every pivot of H_k whose shift is fresh reappears as (j, r+1) in H_{k+1}
    rng = random.Random(101)
    runs = 0
    while runs < 80:
        dom, S = random_instance(rng)
        if not S:
            continue
        res = saturate_vx(S)
        runs += 1
        cols = list(res.basis)
        pivots = [v.piv() for v in cols]
        bounds = [0]
        for rec in res.trace:
            bounds.append(rec.basis_size)
        for t in range(1, len(res.trace)):
            g_prev = set(pivots[: bounds[t]])
            h_prev = pivots[bounds[t - 1]: bounds[t]]
            h_next = set(pivots[bounds[t]: bounds[t + 1]])
            for (j, r) in h_prev:
                if (j, r + 1) not in g_prev:
                    assert (j, r + 1) in h_next
            if h_next:
                assert {j for j, _ in h_prev} <= {j for j, _ in h_next}


def test_generators_span_full_basis():
    # the generator list B reaches every basis column as a V[X]-combination
    from valsat import oracle

    rng = random.Random(107)
    runs = 0
    while runs < 25:
        dom, S = random_instance(rng)
        if not S:
            continue
        res = saturate_vx(S)
        runs += 1
        bound = res.degree + res.trace[-1].k + 2
        assert oracle.in_vx_span(res.generators, list(res.basis), bound)


def test_b_subset_of_g_and_strictness():
    rng = random.Random(103)
    runs = 0
    while runs < 60:
        dom, S = random_instance(rng)
        if not S:
            continue
        res = saturate_vx(S)
        runs += 1
        res.basis.validate()
        cols = list(res.basis)
        for b in res.generators:
            assert b in cols


# ---------------------------------------------------------------------------
# The basis G is built on its first read, from the generators' own columns.

KINDS = [Z2, TrivialField("q"), TrivialField("fp", 5), RationalFunctionsAtZero("q"),
         RationalFunctionsAtZero("fp", 3)]


def _lazy_inputs(d):
    """A saturate_vx family and a syzygy_vx matrix with columns left over."""
    c = d.uniformizer() or d.k_element(2)
    z, o = d.zero, d.one
    S = [PolyVec(d, [(c, z, z, o)]), PolyVec(d, [(c * c,)]), PolyVec(d, [(c * c * c, o)])]
    U = [PolyVec(d, [(c, z, z, o)]), PolyVec(d, [(c * c,)]), PolyVec(d, [(z, o)])]
    return {"saturate_vx": lambda: saturate_vx(S), "syzygy_vx": lambda: syzygy_vx(U)}


@pytest.mark.parametrize("task", ["saturate_vx", "syzygy_vx"])
@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
def test_basis_is_built_on_first_read(monkeypatch, d, task):
    cls = type(select_engine(d))
    original = cls.polyvec
    calls, engines = [], []

    def counted(self, i):
        calls.append(i)
        engines.append(weakref.ref(self))
        return original(self, i)

    monkeypatch.setattr(cls, "polyvec", counted)
    res = _lazy_inputs(d)[task]()
    assert len(calls) == len(res.generators) > 0
    assert res.trace[-1].basis_size >= len(res.generators)
    assert engines[0]() is not None  # held until the basis is read
    basis = res.basis
    assert res.basis is basis
    basis.validate()
    assert len(basis) == res.trace[-1].basis_size
    assert len(set(calls)) == len(calls)  # no column unpacked twice
    columns = {id(v) for v in basis}
    assert all(id(g) in columns for g in res.generators)
    assert engines[0]() is None  # and dropped once it is built


def test_empty_syzygy_result_has_an_empty_basis():
    res = syzygy_vx([vec(Z2, [1], [0]), vec(Z2, [0], [1])])
    assert res.generators == [] and res.trace == [] and res.degree == 0
    assert res.basis == EchelonBasis()
