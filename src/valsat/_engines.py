"""Echelon-insertion engines behind the saturation drivers.

The drivers in ``echelon``/``vxsat`` are written against a tiny engine
protocol (insert a vector, insert the X-shift of a held column, read a
column's pivot, export columns) so that one driver loop runs over either
the generic DomainElement path or the packed kernel (``_packed``/
``_ratkernel``).  ``select_engine`` gives the packed engine, which runs
every shipped kind over its numerator ring on each vector's packed form
(``PolyVec.nums``); the generic engine is the tests' reference.  Both engines hold
their basis as a list of columns and a list of pivot positions, which
their kernel appends to in place under the contract of ``echelon``, and
build one ``EchelonBasis`` only on export.  ``polyvec`` hands out a single
column, so a caller that needs only some columns (``vxsat`` takes the
generators) pays for those alone, and ``export_basis`` reuses the columns
it is given.  Both produce bit-identical bases.
"""

from __future__ import annotations

from .echelon import EchelonBasis, echelon_insert
from .polyvec import PivotIndex, PolyVec


class GenericEngine:
    """Engine over PolyVec columns, valid for every domain."""

    name = "generic"

    def __init__(self, domain):
        self.domain = domain
        self.cols: list[PolyVec] = []
        self.pivs: list[PivotIndex] = []

    def __len__(self):
        return len(self.cols)

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return echelon_insert(self.cols, self.pivs, v)

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        return self.insert_vector(self.cols[i].shift_x())

    def pivot(self, i: int) -> tuple[int, int]:
        return self.pivs[i]

    def polyvec(self, i: int) -> PolyVec:
        return self.cols[i]

    def export_basis(self, known=None) -> EchelonBasis:
        """The basis; ``known`` maps indexes to columns already taken out,
        which here are the stored columns themselves."""
        return EchelonBasis(self.cols, self.pivs, _trusted=True)


def select_engine(domain):
    """The packed engine of the domain (``_packed.PackedEngine``).

    Imported on first use, so that importing valsat does not load (and,
    with no cached bytecode, compile) the packed modules.
    """
    from ._packed import PackedEngine

    return PackedEngine(domain)
