"""Finite V[X]-generating sets for the V-saturation of V[X]-submodules.

Starting from generators S of a submodule M of V[X]^n, the driver folds S
into a strict echelon V-basis G, then repeatedly treats the X-shifts of the
columns that survived the previous round, until the defect (the number of
supernumerary columns among the newest ones) vanishes.  The list B collects
the columns that matter as V[X]-generators: all of the initial fold, plus
every later column whose insertion divided by a non-unit content.  At
termination the V[X]-span of B is the V-saturation of M.

Every round is recorded as an ``IterationRecord``; the counters drive both
the termination argument (the defect is nonincreasing and reaches 0) and the
diagnostic diagrams emitted by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._engines import select_engine
from .echelon import EchelonBasis
from .errors import EmptyInput, InvalidIterationCap, IterationCapExceeded
from .polyvec import PolyVec, family_degree


@dataclass(frozen=True)
class IterationRecord:
    """Counters of one saturation round.

    ``new_columns`` is the number of treated columns that survived insertion
    (the size of H_k), ``basis_size`` the total number of columns so far,
    ``index_count`` the number of distinct pivot component-indexes among the
    new columns, ``capacity`` = index_count * (1 + degree + k), ``defect``
    the number of supernumerary new columns and ``slack`` = capacity -
    basis_size.
    """

    k: int
    new_columns: int
    basis_size: int
    index_count: int
    capacity: int
    defect: int
    slack: int


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of ``saturate_vx``: V-basis G, V[X]-generators B, trace, degree."""

    basis: EchelonBasis
    generators: list[PolyVec]
    trace: list[IterationRecord]
    degree: int


def _defect_from_pivots(pivots) -> int:
    by_index: dict[int, list[int]] = {}
    for j, r in pivots:
        by_index.setdefault(j, []).append(r)
    return sum(len(rs) - 1 for rs in by_index.values())


def defect(H) -> int:
    """Number of supernumerary columns of H.

    A column is supernumerary when another column shares its pivot
    component-index with a strictly larger first residual exponent; since
    pivots are pairwise distinct, that is one less than the column count on
    each occupied index.
    """
    return _defect_from_pivots(v.piv().pivot for v in H)


def counters(pivots, basis_size: int, d: int, k: int) -> IterationRecord:
    """Counters for round k.

    ``pivots`` are the (index, exponent) pivots of the columns that round
    added, ``basis_size`` the size of the basis after it, ``d`` the family
    degree.
    """
    n = len({j for j, _ in pivots})
    u = n * (1 + d + k)
    return IterationRecord(
        k=k,
        new_columns=len(pivots),
        basis_size=basis_size,
        index_count=n,
        capacity=u,
        defect=_defect_from_pivots(pivots),
        slack=u - basis_size,
    )


def saturate_vx(S, max_iter: int = 64) -> SaturationResult:
    """Compute V[X]-generators of the V-saturation of the span of S.

    Zero vectors in S are dropped; EmptyInput is raised when nothing is
    left.  Termination is guaranteed (the defect sequence is nonincreasing
    and reaches 0), so the cap only turns implementation bugs into a
    diagnosable IterationCapExceeded.
    """
    if max_iter < 1:
        raise InvalidIterationCap(f"max_iter must be at least 1, got {max_iter}")
    vectors = [v for v in S if not v.is_zero()]
    if not vectors:
        raise EmptyInput("no nonzero generators given")
    engine = select_engine(vectors[0].domain)
    return _run(engine, vectors, max_iter)


def _run(engine, vectors, max_iter: int) -> SaturationResult:
    d = family_degree(vectors)
    for v in vectors:
        engine.insert_vector(v)
    generator_idx = list(range(len(engine)))
    survivors = len(engine)
    trace = [counters([engine.pivot(i) for i in range(len(engine))],
                      len(engine), d, 0)]
    k = 0
    while True:
        start = len(engine) - survivors
        h_range = range(start, len(engine))
        h_pivots = [engine.pivot(i) for i in h_range]
        if _defect_from_pivots(h_pivots) == 0:
            break
        k += 1
        if k > max_iter:
            raise IterationCapExceeded(
                f"defect still {_defect_from_pivots(h_pivots)} after "
                f"{max_iter} rounds"
            )
        survivors = 0
        for i in h_range:
            survived, is_new = engine.insert_shift_of(i)
            if survived:
                survivors += 1
            if is_new:
                generator_idx.append(len(engine) - 1)
        new_pivots = [engine.pivot(i)
                      for i in range(len(engine) - survivors, len(engine))]
        # The index sets of the new columns and of the whole basis coincide
        # (consequence of pivot persistence); checked in debug mode only.
        assert not new_pivots or (
            {j for j, _ in new_pivots}
            == {engine.pivot(i)[0] for i in range(len(engine))}
        )
        trace.append(counters(new_pivots, len(engine), d, k))
    basis = engine.export_basis()
    return SaturationResult(
        basis=basis,
        generators=[basis[i] for i in generator_idx],
        trace=trace,
        degree=d,
    )
