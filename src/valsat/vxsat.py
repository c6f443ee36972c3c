"""Finite V[X]-generating sets for the V-saturation of V[X]-submodules.

Starting from generators S of a submodule M of V[X]^n, the driver folds S
into a strict echelon V-basis G, then repeatedly treats the X-shifts of the
columns that survived the previous round, until the defect (the number of
supernumerary columns among the newest ones) vanishes.  The list B collects
the columns that matter as V[X]-generators: all of the initial fold, plus
every later column whose insertion divided by a non-unit content.  At
termination the V[X]-span of B is the V-saturation of M.

Every shipped kind runs the packed engine (``_engines.select_engine``):
the columns of G are numerators over one denominator per column, in Z, in
the residues mod p, or in Z[t] or F_p[t] for ``rft0``; an elimination
step costs one numerator-ring gcd over Z[t] and F_p[t] and none over Z and
the residues, and a column is put in lowest terms on its first use: as a
pivot, as the source of an X-shift, or taken out (``_ratkernel``).  The
engine inserts each input vector's packed form, which a parsed vector and
a ``syzygy.scaled_kernel`` vector hold already (``polyvec``).  B is the
answer and G the certificate behind it, so ``_run`` takes only the columns
of B out of the engine (``engine.polyvec``), in packed form, which builds
no element until their ``comps`` is read.
G is built on the first read of ``SaturationResult.basis``, sharing B's
columns.

Every round is recorded as an ``IterationRecord``; the counters drive both
the termination argument (see ``saturate_vx``) and the diagnostic diagrams
emitted by the CLI.
"""

from __future__ import annotations

from collections import namedtuple

from ._engines import select_engine
from .echelon import EchelonBasis
from .errors import EmptyInput, InvalidIterationCap, IterationCapExceeded
from .polyvec import PolyVec, family_degree, uniform_family


class IterationRecord(namedtuple("IterationRecord", "k new_columns basis_size index_count "
                                                    "capacity defect slack")):
    """Counters of one saturation round.

    ``new_columns`` is the number of treated columns that survived insertion
    (the size of H_k), ``basis_size`` the total number of columns so far,
    ``index_count`` the number of distinct pivot component-indexes among the
    new columns, ``capacity`` = index_count * (1 + degree + k), ``defect``
    the number of supernumerary new columns and ``slack`` = capacity -
    basis_size.
    """

    __slots__ = ()


class SaturationResult:
    """Outcome of ``saturate_vx``: V-basis G, V[X]-generators B, trace, degree.

    ``generators`` (B), ``trace`` and ``degree`` are plain attributes.  The
    strict echelon V-basis ``basis`` (G) is built from the engine the first
    time it is read, with the generators' own ``PolyVec``s as its columns
    at their indexes, so no column is unpacked twice; the result then drops
    the engine.  A result made with a basis, such as the empty
    ``SaturationResult(EchelonBasis(), [], [], 0)``, holds no engine.
    """

    __slots__ = ("_basis", "_export", "generators", "trace", "degree")

    def __init__(self, basis: EchelonBasis | None, generators: list[PolyVec],
                 trace: list[IterationRecord], degree: int, *, _export=None):
        self._basis = basis
        self._export = _export  # builds the basis when ``basis`` is None
        self.generators = generators
        self.trace = trace
        self.degree = degree

    @property
    def basis(self) -> EchelonBasis:
        if self._basis is None:
            self._basis = self._export()
            self._export = None
        return self._basis

    def __repr__(self):
        return (f"SaturationResult(generators={self.generators!r}, "
                f"trace={self.trace!r}, degree={self.degree})")


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
    return _defect_from_pivots(v.piv() for v in H)


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


def saturate_vx(S, max_iter: int | None = None) -> SaturationResult:
    """Compute V[X]-generators of the V-saturation of the span of S.

    MixedFamily is raised unless S shares one domain and one width.  Zero
    vectors in S are dropped; EmptyInput is raised when nothing is left.
    ``max_iter`` is an optional cap on the number of rounds, raising
    IterationCapExceeded when hit; by default there is none, because the
    loop provably ends.

    Termination.  For round k write n_k, delta_k and Delta_k for the index
    count, defect and slack of its ``IterationRecord``, N_k for the number
    of new columns and r_k for the basis size.  Then delta_k = N_k - n_k,
    r_k = r_{k-1} + N_k and Delta_k = n_k (1 + d + k) - r_k, so that

        Delta_k = Delta_{k-1} + (n_k - n_{k-1}) (d + k) - delta_k.

    After every round two facts are checked, and RuntimeError is raised if
    either fails: n_k >= n_{k-1} (the pivot indexes of the new columns are
    those of the whole basis, which only grows) and Delta_k >= 0 (the r_k
    pivots are distinct cells among n_k indexes times 1 + d + k exponents).
    Round k + 1 runs only when delta_k >= 1.  Then either n_k > n_{k-1}, or
    n_k = n_{k-1} and Delta_k = Delta_{k-1} - delta_k < Delta_{k-1}.  So
    with every round after which the loop goes on, the pair of nonnegative
    integers (n - n_k, Delta_k), n >= n_k the vector width, falls strictly
    in lexicographic order, and the loop ends after finitely many rounds:
    at most n - n_0 rounds raise the index count, and after round k at most
    Delta_k + 1 rounds run that keep it at n_k.

    Scaling.  The result is the same, generators, trace, degree and basis,
    when each vector of S is multiplied by its own nonzero element of K.
    Inserting lambda v reduces to lambda times the reduction of v, whose
    content, the first coefficient of least valuation, sits at the same
    position and is lambda times the old one, so the quotient, the column
    stored, is the same; only the insertion's ``new`` flag can change, and
    every column of the initial fold is a generator whatever that flag
    says.
    """
    _check_cap(max_iter)
    vectors = [v for v in uniform_family(S) if not v.is_zero()]
    if not vectors:
        raise EmptyInput("no nonzero generators given")
    return _run(select_engine(vectors[0].domain), vectors, max_iter)


def _check_cap(max_iter: int | None) -> None:
    """InvalidIterationCap unless ``max_iter`` is None or at least 1."""
    if max_iter is not None and max_iter < 1:
        raise InvalidIterationCap(f"max_iter must be at least 1, got {max_iter}")


def _run(engine, vectors, max_iter: int | None) -> SaturationResult:
    """The round loop on ``engine`` from a nonempty family of nonzero vectors."""
    d = family_degree(vectors)
    for v in vectors:
        engine.insert_vector(v)
    generator_idx = list(range(len(engine)))
    survivors = len(engine)
    trace = [counters([engine.pivot(i) for i in range(len(engine))],
                      len(engine), d, 0)]
    while trace[-1].defect:
        prev = trace[-1]
        k = prev.k + 1
        if max_iter is not None and k > max_iter:
            raise IterationCapExceeded(
                f"defect still {prev.defect} after {max_iter} rounds"
            )
        h_range = range(len(engine) - survivors, len(engine))
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
        # (consequence of pivot persistence); an assert, so not checked when
        # Python runs with -O.
        assert not new_pivots or (
            {j for j, _ in new_pivots}
            == {engine.pivot(i)[0] for i in range(len(engine))}
        )
        rec = counters(new_pivots, len(engine), d, k)
        if rec.index_count < prev.index_count or rec.slack < 0:
            raise RuntimeError(
                f"round {k} breaks the termination invariants: index count "
                f"{prev.index_count} -> {rec.index_count}, slack {rec.slack}"
            )
        trace.append(rec)
    generators = [engine.polyvec(i) for i in generator_idx]
    known = dict(zip(generator_idx, generators))
    return SaturationResult(None, generators, trace, d,
                            _export=lambda: engine.export_basis(known))
