"""Strict echelon bases over V and incremental free-module saturation.

An ``EchelonBasis`` is an ordered family of primitive vectors with pairwise
distinct pivots such that every column is exactly zero at the pivot positions
of the columns before it.  Such a family is a V-basis of the module it
generates, and that module is V-saturated; folding ``echelon_insert`` over
the columns of any matrix therefore produces a basis of the saturation of its
column span.

Both insertion kernels, ``echelon_insert`` and ``_ratkernel.insert``, keep
one contract: eliminate at every stored pivot in order, then append the
primitive reduction and its pivot to the caller's column and pivot lists.
That pivot is the content position and the column is monic there, so
elimination never divides.  A vector that eliminates to zero, the zero
vector included, returns ``(False, False)`` and leaves both lists as they
were.  Engines export an ``EchelonBasis`` once.
"""

from __future__ import annotations

from .polyvec import PivotIndex, PolyVec, red_prim, uniform_family


class EchelonBasis:
    """Immutable strict echelon family with the PivotIndex of each column."""

    __slots__ = ("columns", "pivots")

    def __init__(self, columns=(), pivots=None, *, _trusted=False):
        self.columns = tuple(columns)
        if pivots is None:
            pivots = [v.piv() for v in self.columns]
        self.pivots = tuple(pivots)
        if not _trusted:
            self.validate()

    def validate(self) -> None:
        """Check the invariants: distinct pivots, monic at each, strictness."""
        seen = set()
        for at in self.pivots:
            if at in seen:
                raise ValueError(f"duplicate pivot {at}")
            seen.add(at)
        for k, col in enumerate(self.columns):
            at = self.pivots[k]
            if col.piv() != at:
                raise ValueError(f"stored pivot of column {k} is stale")
            if col.coord(at) != col.domain.one:
                raise ValueError(f"column {k} is not monic at its pivot {at}")
            for j in range(k):
                if not col.coord(self.pivots[j]).is_zero():
                    raise ValueError(f"column {k} is nonzero at pivot {self.pivots[j]}")

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


def gauss_eliminate(C: PolyVec, cols, pivots) -> PolyVec:
    """Clear the coordinates of C at every pivot, in column order.

    Each column is monic at its pivot, so each step subtracts the current
    coordinate times the column.  The result is congruent to C modulo the
    V-span of the columns; elimination stops as soon as it is zero.
    """
    v = C
    for col, at in zip(cols, pivots):
        c = v.coord(at)
        if c.is_zero():
            continue
        v = v.sub_scaled(col, c)
        if v.is_zero():
            break
    return v


def echelon_insert(cols: list[PolyVec], pivots: list[PivotIndex],
                   v0: PolyVec) -> tuple[bool, bool]:
    """Treat one new column, keeping ``cols``/``pivots`` in strict echelon form.

    Returns ``(survived, new)``.  When the eliminated column vanishes, v0 was
    already in the V-span of the columns (the zero vector always is) and
    ``(False, False)`` comes back.
    Otherwise its primitive reduction and that reduction's pivot, the
    content position, are appended, and ``new`` is True exactly when the
    content divided out was a non-unit (the reduction lies outside the
    V-span of the old columns and v0).
    """
    v = gauss_eliminate(v0, cols, pivots)
    if v.is_zero():
        return False, False
    v, c = red_prim(v)
    cols.append(v)
    pivots.append(v.piv())
    return True, not c.is_unit()


def saturate_free(F) -> EchelonBasis:
    """Fold the columns of F into a basis of the saturation of their span.

    MixedFamily is raised unless the columns share one domain and one
    width.  Zero columns are skipped.  Processing a prefix of F yields a
    prefix of the result, so the computation is incremental.  The fold
    runs through the packed kernel, over integer numerators (``zp:p``,
    ``field:q``), residues (``field:p``) or polynomial numerators in t
    (``rft0:q``, ``rft0:p``); the result is bit-identical to folding
    ``echelon_insert`` over F, the tests' reference.
    """
    from ._engines import select_engine

    F = [v for v in uniform_family(F) if not v.is_zero()]
    if not F:
        return EchelonBasis()
    engine = select_engine(F[0].domain)
    for v in F:
        engine.insert_vector(v)
    return engine.export_basis()
