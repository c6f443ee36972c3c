"""Packed engine and packed ``kernel_kx``: the clients of the rational kernel.

Both run on every domain of ``ScalarElement``s (``_engines.packs``).  Columns
are ``_ratkernel`` packed vectors: integer numerators over one denominator
per column in lowest terms, or over F_p (``mod``, the characteristic, not 0)
residues over 1.  They become ``ScalarElement``s again only when a column is
taken out (``polyvec``): ``vxsat`` takes the generators, and the whole basis
only when it is read.
``_ratkernel.insert`` keeps the column contract of ``echelon``: it appends
each reduction, monic at its content position, and that position to the
engine's lists.  Results are bit-identical to the generic engine: same
elimination order, same content rule, and the exported elements are
canonical.

``kernel_kx_packed`` runs ``syzygy``'s column reduction on packed columns:
integer polynomials over Z_(p) and Q, with the fraction-free step
``(lb/g) col - (la/g) X^s pivot``, and residues over F_p.  Why its basis is
the generic one is in the ``syzygy`` module docstring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _ratkernel
from ._engines import GenericEngine
from .echelon import EchelonBasis
from .polyvec import PivotIndex, PolyVec
from .syzygy import _reduce_columns
from .valuation import ScalarElement


def _pack(v: PolyVec, mod):
    """Lowest-terms packing: D is the lcm of the reduced denominators, or 1 mod p."""
    if mod:
        return [[c.value for c in comp] for comp in v.comps], 1
    D = lcm(*(c.value.denominator for comp in v.comps for c in comp))
    return [[c.value.numerator * (D // c.value.denominator) for c in comp]
            for comp in v.comps], D


def _unpack(domain, comps, D, mod):
    """The entries num / D as elements: reduced fractions, or residues mod p."""
    zero = domain.zero
    if mod:
        inv = pow(D, -1, mod)
        return [[ScalarElement(domain, num * inv % mod) if num else zero
                 for num in comp] for comp in comps]
    return [[ScalarElement(domain, Fraction(num, D)) if num else zero
             for num in comp] for comp in comps]


class PackedEngine(GenericEngine):
    """Engine over packed vectors; ``pivs`` holds plain (j, r) pairs."""

    name = "packed"

    def __init__(self, domain):
        super().__init__(domain)
        self.p, self.mod = domain.p, domain.field.p

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return _ratkernel.insert(self.cols, self.pivs, _pack(v, self.mod),
                                 self.p, self.mod)

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        shifted = _ratkernel.vec_shift(self.cols[i])
        return _ratkernel.insert(self.cols, self.pivs, shifted, self.p, self.mod)

    def polyvec(self, i: int) -> PolyVec:
        """Column i with its entries as reduced fractions or residues."""
        comps, D = self.cols[i]
        return PolyVec(self.domain, _unpack(self.domain, comps, D, self.mod))

    def export_basis(self, known=None) -> EchelonBasis:
        """The basis; ``known`` maps indexes to columns already unpacked,
        which it shares instead of unpacking them again."""
        known = known or {}
        columns = [known[i] if i in known else self.polyvec(i)
                   for i in range(len(self.cols))]
        pivots = [PivotIndex(j, r) for j, r in self.pivs]
        return EchelonBasis(columns, pivots, _trusted=True)


def _z_step(col, pivot, row):
    """Fraction-free pseudo-division of col by pivot at row, content stripped."""
    b = pivot[row]
    lb, db = b[-1], len(b)
    while len(col[row]) >= db:
        a = col[row]
        g = gcd(a[-1], lb)
        _ratkernel._sub_scaled(col, _ratkernel.shift_comps(pivot, len(a) - db),
                               lb // g, a[-1] // g)
    g = _ratkernel._common_factor(col, 0)
    if g != 1:
        _ratkernel._divide(col, g)
    return col


def _fp_step(p):
    """The Euclidean division step on residue columns mod p."""

    def step(col, pivot, row):
        b = pivot[row]
        db = len(b)
        inv = pow(b[-1], -1, p)
        while len(col[row]) >= db:
            a = col[row]
            _ratkernel._sub_scaled(col, _ratkernel.shift_comps(pivot, len(a) - db),
                                   1, a[-1] * inv % p, p)
        return col

    return step


def kernel_kx_packed(U: list[PolyVec]):
    """``syzygy.kernel_kx`` of a nonempty U over a domain that ``packs``.

    Each stacked column [u_j; e_j] is packed, so its identity part starts
    as D_j e_j; each generator is divided by its first nonzero entry.
    """
    domain, k, n = U[0].domain, U[0].n, len(U)
    mod = domain.field.p
    cols = []
    for j, u in enumerate(U):
        comps, D = _pack(u, mod)
        cols.append(comps + [[D] if i == j else [] for i in range(n)])
    basis = []
    for j in _reduce_columns(cols, k, _fp_step(mod) if mod else _z_step):
        ident = cols[j][k:]
        lead = next(x for comp in ident for x in comp if x)
        basis.append(tuple(map(tuple, _unpack(domain, ident, lead, mod))))
    return basis
