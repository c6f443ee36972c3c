"""Echelon-insertion engines behind the saturation drivers.

The drivers in ``echelon``/``vxsat`` are written against a tiny engine
protocol (put a vector into the engine's own form, insert a vector in that
form, insert the X-shift of a held column, read a column's pivot, export
columns) so that one driver loop runs over either the generic
DomainElement path or the packed kernel (``_packed``/``_ratkernel``).
The engine form is a ``PolyVec`` for the generic engine and a packed
vector for the packed one, which ``syzygy.syzygy_vx`` hands its kernel
columns as they are, never building their elements.  ``select_engine``
picks the packed engine for every shipped kind, each over its numerator
ring, so the generic engine serves as the tests' reference and as the
fallback for any other ``Domain``.
``syzygy.kernel_kx`` decides between its packed and generic reductions by
the same predicate, ``packable``.  Both engines hold their basis as a list
of columns and a list of pivot positions, which their kernel appends to in
place under the contract of ``echelon``, and build one ``EchelonBasis``
only on export.  ``polyvec`` hands out a single column, so a caller that
needs only some columns (``vxsat`` takes the generators) pays for those
alone, and ``export_basis`` reuses the columns it is given.  Both produce
bit-identical bases.
"""

from __future__ import annotations

from .echelon import EchelonBasis, echelon_insert
from .polyvec import PivotIndex, PolyVec
from .valuation import RatFuncElement, ScalarElement


class GenericEngine:
    """Engine over PolyVec columns, valid for every domain."""

    name = "generic"

    def __init__(self, domain):
        self.domain = domain
        self.cols: list[PolyVec] = []
        self.pivs: list[PivotIndex] = []

    def __len__(self):
        return len(self.cols)

    def pack(self, v: PolyVec) -> PolyVec:
        """v in the form ``insert_vector`` takes, here v itself."""
        return v

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


def packable(domain) -> bool:
    """Whether the packed kernels run the domain: its elements are those of
    a shipped kind, which have a numerator ring (``_packed``)."""
    return isinstance(domain.one, (ScalarElement, RatFuncElement))


def select_engine(domain):
    """Packed engine for every shipped kind, generic for any other domain."""
    if packable(domain):
        from ._packed import PackedEngine

        return PackedEngine(domain)
    return GenericEngine(domain)
