"""Strict echelon bases over V and incremental free-module saturation.

An ``EchelonBasis`` is an ordered family of primitive vectors with pairwise
distinct pivots such that every column is exactly zero at the pivot positions
of the columns before it.  Such a family is a V-basis of the module it
generates, and that module is V-saturated; folding ``echelon_insert`` over
the columns of any matrix therefore produces a basis of the saturation of its
column span.
"""

from __future__ import annotations

from .errors import ZeroVector
from .polyvec import Pivot, PolyVec, red_prim


class EchelonBasis:
    """Immutable snapshot of a strict echelon family."""

    __slots__ = ("columns", "pivots")

    def __init__(self, columns=(), pivots=None, *, _trusted=False):
        columns = tuple(columns)
        if pivots is None:
            pivots = tuple(v.piv() for v in columns)
        else:
            pivots = tuple(pivots)
        self.columns = columns
        self.pivots = pivots
        if not _trusted:
            self.validate()

    @classmethod
    def _appended(cls, basis: "EchelonBasis", col: PolyVec, piv: Pivot):
        return cls(basis.columns + (col,), basis.pivots + (piv,), _trusted=True)

    def validate(self) -> None:
        """Assert both echelon invariants (distinct pivots, strictness)."""
        seen = set()
        for p in self.pivots:
            if p.pivot in seen:
                raise ValueError(f"duplicate pivot {p.pivot}")
            seen.add(p.pivot)
        for k, col in enumerate(self.columns):
            if not col.piv() == self.pivots[k]:
                raise ValueError(f"stored pivot of column {k} is stale")
            for j in range(k):
                if not col.coord(self.pivots[j].pivot).is_zero():
                    raise ValueError(
                        f"column {k} is nonzero at pivot {self.pivots[j].pivot}"
                    )

    def pivot_indices(self):
        return tuple(p.pivot for p in self.pivots)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, i):
        return self.columns[i]

    def __eq__(self, other):
        return isinstance(other, EchelonBasis) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return f"EchelonBasis({list(self.columns)!r})"


def gauss_eliminate(C: PolyVec, L: EchelonBasis) -> PolyVec:
    """Clear the coordinates of C at every pivot of L, in column order.

    Each step subtracts (c_s / cpiv) times the corresponding column; the
    quotient lies in V because pivot coefficients are units.  The result is
    congruent to C modulo the V-span of L; elimination stops as soon as it
    is zero.
    """
    v = C
    for col, (at, cpiv) in zip(L.columns, L.pivots):
        c = v.coord(at)
        if c.is_zero():
            continue
        v = v.sub_scaled(col, c / cpiv)
        if v.is_zero():
            break
    return v


def echelon_insert(
    L: EchelonBasis, v0: PolyVec
) -> tuple[PolyVec, bool, EchelonBasis]:
    """Treat one new column, keeping the family in strict echelon form.

    Returns ``(v, new_generator, L')``.  When the eliminated column vanishes,
    v0 was already in the V-span of L and ``(zero, False, L)`` comes back.
    Otherwise v is the primitive reduction of the eliminated column, L' has it
    appended, and ``new_generator`` is True exactly when the reduction divided
    by a non-unit content (v lies outside V.L + V.v0).
    """
    if v0.is_zero():
        raise ZeroVector("cannot insert the zero vector")
    v = gauss_eliminate(v0, L)
    if v.is_zero():
        return v, False, L
    v, c = red_prim(v)
    return v, not c.is_unit(), EchelonBasis._appended(L, v, v.piv())


def saturate_free(F) -> EchelonBasis:
    """Fold the columns of F into a basis of the saturation of their span.

    Zero columns are skipped.  Processing a prefix of F yields a prefix of
    the result, so the computation is incremental.  Domains whose elements
    are plain rationals run through the packed kernel; the result is
    bit-identical to the generic fold.
    """
    from ._engines import select_engine

    F = [v for v in F if not v.is_zero()]
    if not F:
        return EchelonBasis()
    engine = select_engine(F[0].domain)
    for v in F:
        engine.insert_vector(v)
    return engine.export_basis()
