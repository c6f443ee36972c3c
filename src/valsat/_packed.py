"""Packed engine: echelon insertion through the rational kernel.

Usable whenever the domain's elements are plain rationals (Z_(p), and Q with
the trivial valuation).  Columns are held as ``_ratkernel`` packed vectors,
integer numerators over one denominator per column in lowest terms.  Only on
export do they become reduced fractions in ``ScalarElement``, the one element
class of Z_(p), Q and F_p, so the engine makes no per-domain class choice.
``_ratkernel.insert`` keeps the column contract of ``echelon``: it appends
each reduction, monic at its content position, and that position to the
engine's lists.  Results are bit-identical to the generic engine: same
elimination order, same content rule, and the exported fractions are
canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _ratkernel
from ._engines import GenericEngine
from .echelon import EchelonBasis
from .polyvec import PivotIndex, PolyVec
from .valuation import ScalarElement


def _pack(v: PolyVec):
    """Lowest-terms packing: D is the lcm of the reduced denominators."""
    D = lcm(*(c.value.denominator for comp in v.comps for c in comp))
    return [[c.value.numerator * (D // c.value.denominator) for c in comp]
            for comp in v.comps], D


class PackedEngine(GenericEngine):
    """Engine over packed rational vectors; ``pivs`` holds plain (j, r) pairs."""

    name = "packed"

    def __init__(self, domain):
        super().__init__(domain)
        self.p = domain.packing_prime

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return _ratkernel.insert(self.cols, self.pivs, _pack(v), self.p)

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        shifted = _ratkernel.vec_shift(self.cols[i])
        return _ratkernel.insert(self.cols, self.pivs, shifted, self.p)

    def polyvec(self, i: int) -> PolyVec:
        """Column i with its entries as reduced fractions."""
        comps, D = self.cols[i]
        dom, zero = self.domain, self.domain.zero
        return PolyVec(dom, [[ScalarElement(dom, Fraction(num, D)) if num else zero
                              for num in comp] for comp in comps])

    def export_basis(self) -> EchelonBasis:
        columns = [self.polyvec(i) for i in range(len(self.cols))]
        pivots = [PivotIndex(j, r) for j, r in self.pivs]
        return EchelonBasis(columns, pivots, _trusted=True)
