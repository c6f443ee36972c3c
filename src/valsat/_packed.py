"""Packed engine: echelon insertion through the rational kernel.

Usable whenever the domain's elements are plain rationals (Z_(p), and Q with
the trivial valuation).  Columns are held as ``_ratkernel`` packed vectors,
integer numerators over one denominator per column in lowest terms, and are
turned into reduced fractions only on export.  Results are bit-identical to
the generic engine: same elimination order, same content rule, and the
exported fractions are canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _ratkernel
from .echelon import EchelonBasis
from .polyvec import Pivot, PivotIndex, PolyVec
from .valuation import FieldElement, ZpElement


def _pack(v: PolyVec):
    """Lowest-terms packing: D is the lcm of the reduced denominators."""
    D = lcm(*(c.value.denominator for comp in v.comps for c in comp))
    return [[c.value.numerator * (D // c.value.denominator) for c in comp]
            for comp in v.comps], D


class PackedEngine:
    """Engine over packed rational vectors."""

    name = "packed"

    def __init__(self, domain):
        self.domain = domain
        self.p = domain.packing_prime
        self._element = ZpElement if self.p else FieldElement
        self.cols: list = []
        self.pivs: list = []

    def __len__(self):
        return len(self.cols)

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return self._insert(_pack(v))

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        return self._insert(_ratkernel.vec_shift(self.cols[i]))

    def _insert(self, packed) -> tuple[bool, bool]:
        reduced, new = _ratkernel.insert(self.cols, self.pivs, packed, self.p)
        if reduced is None:
            return False, False
        self.cols.append(reduced)
        self.pivs.append(_ratkernel.vec_pivot(reduced, self.p))
        return True, new

    def pivot(self, i: int) -> tuple[int, int]:
        j, r, _ = self.pivs[i]
        return (j, r)

    def polyvec(self, i: int) -> PolyVec:
        """Column i with its entries as reduced fractions."""
        comps, D = self.cols[i]
        dom, make, zero = self.domain, self._element, self.domain.zero
        return PolyVec(dom, [[make(dom, Fraction(num, D)) if num else zero
                              for num in comp] for comp in comps])

    def export_basis(self) -> EchelonBasis:
        columns = [self.polyvec(i) for i in range(len(self.cols))]
        pivots = [Pivot(PivotIndex(j, r), col.comps[j - 1][r])
                  for col, (j, r, _) in zip(columns, self.pivs)]
        return EchelonBasis(columns, pivots, _trusted=True)
