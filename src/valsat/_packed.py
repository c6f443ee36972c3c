"""Packed engine: the saturation engine over the packed echelon kernel.

The packed engine runs every shipped kind, over the numerator ring that
``_ratkernel.numerator_ring`` picks: Z for ``zp:p`` and ``field:q``,
residues mod p for ``field:p``, Z[t] for ``rft0:q`` and F_p[t] for
``rft0:p``.  Columns are ``_ratkernel`` packed vectors, numerators over one
denominator per column (over F_p, residues over 1).  ``insert_vector``
takes its argument's packed form (``nums``, ``den``): a parsed or scaled
kernel vector holds it already, and ``polyvec`` packs any vector built
from elements.  A column is taken out by ``polyvec``: ``vxsat`` takes the
generators, and the whole basis only when it is read.  It is
``PolyVec.from_packed`` of the column's own lists, which builds no element
until its ``comps`` is read; there, over ``rft0``, an entry num / D becomes
``RatFuncElement(domain, num, D)``, which costs one gcd of num against D.
``_ratkernel.insert`` keeps the column contract of ``echelon``: it appends
each reduction, monic at its content position, and that position to the
engine's lists.  It stores a column over its content numerator and names
it in the engine's ``raw`` set, and the kernel puts it in lowest terms
(``_ratkernel.reduced``) when it is first a pivot; ``insert_shift_of``,
``polyvec`` and ``export_basis`` read every column through the same
reduction, so each column they hand on is in lowest terms.  Results are
bit-identical to the generic engine: same elimination order, same content
rule, and the exported elements are canonical.
"""

from __future__ import annotations

from . import _ratkernel
from ._engines import GenericEngine
from .echelon import EchelonBasis
from .polyvec import PivotIndex, PolyVec


class PackedEngine(GenericEngine):
    """Engine over packed vectors; ``pivs`` holds plain (j, r) pairs."""

    name = "packed"

    def __init__(self, domain):
        super().__init__(domain)
        self.ring = _ratkernel.numerator_ring(domain)
        self.raw = set()  # indexes of the columns not yet in lowest terms

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return _ratkernel.insert(self.cols, self.pivs, (v.nums, v.den), self.ring, self.raw)

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        """Insert X times column i, read in lowest terms."""
        ring, raw = self.ring, self.raw
        comps, D = _ratkernel.reduced(self.cols, raw, i, ring)
        shifted = _ratkernel.shift_comps(comps, 1, ring.zero), D
        return _ratkernel.insert(self.cols, self.pivs, shifted, ring, raw)

    def polyvec(self, i: int) -> PolyVec:
        """Column i in lowest terms, its elements built on the first read of ``comps``."""
        return PolyVec.from_packed(self.domain,
                                   *_ratkernel.reduced(self.cols, self.raw, i, self.ring))

    def export_basis(self, known=None) -> EchelonBasis:
        """The basis; ``known`` maps indexes to columns already unpacked,
        which it shares instead of unpacking them again."""
        known = known or {}
        columns = [known[i] if i in known else self.polyvec(i)
                   for i in range(len(self.cols))]
        pivots = [PivotIndex(j, r) for j, r in self.pivs]
        return EchelonBasis(columns, pivots, _trusted=True)
