"""Echelon-insertion engines behind the saturation drivers.

The drivers in ``echelon``/``vxsat`` are written against a tiny engine
protocol (insert a vector, insert the X-shift of a held column, read a
column's pivot, export columns) so that one driver loop runs over either
the generic DomainElement path, valid for every domain, or the packed
rational kernel (``_packed``/``_ratkernel``) for domains whose elements are
plain rationals.  Both engines produce bit-identical bases.
"""

from __future__ import annotations

from .echelon import EchelonBasis, echelon_insert
from .polyvec import PolyVec


class GenericEngine:
    """Engine over PolyVec/EchelonBasis, valid for every domain."""

    name = "generic"

    def __init__(self, domain):
        self.domain = domain
        self.basis = EchelonBasis()

    def __len__(self):
        return len(self.basis)

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        w, new, self.basis = echelon_insert(self.basis, v)
        return not w.is_zero(), new

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        return self.insert_vector(self.basis[i].shift_x())

    def pivot(self, i: int) -> tuple[int, int]:
        p = self.basis.pivots[i].pivot
        return (p.index, p.exponent)

    def polyvec(self, i: int) -> PolyVec:
        return self.basis[i]

    def export_basis(self) -> EchelonBasis:
        return self.basis


def select_engine(domain):
    """Packed engine when the domain packs into plain rationals, else generic."""
    if domain.packing_prime is not None:
        from ._packed import PackedEngine

        return PackedEngine(domain)
    return GenericEngine(domain)
