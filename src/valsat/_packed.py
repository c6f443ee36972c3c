"""Packed engine and packed ``kernel_kx``: the clients of the rational kernel.

The engine is usable whenever the domain's elements are plain rationals
(Z_(p), and Q with the trivial valuation).  Columns are held as ``_ratkernel`` packed vectors,
integer numerators over one denominator per column in lowest terms.  Only on
export do they become reduced fractions in ``ScalarElement``, the one element
class of Z_(p), Q and F_p, so the engine makes no per-domain class choice.
``_ratkernel.insert`` keeps the column contract of ``echelon``: it appends
each reduction, monic at its content position, and that position to the
engine's lists.  Results are bit-identical to the generic engine: same
elimination order, same content rule, and the exported fractions are
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


def kernel_kx_packed(U: list[PolyVec]):
    """``syzygy.kernel_kx`` of a nonempty U over ``zp:p``, ``field:q`` or ``field:p``."""
    domain, k = U[0].domain, U[0].n
    if domain.packing_prime is not None:
        return _kernel_kx_z(U, domain, k)
    return _kernel_kx_fp(U, domain, k)


def _first_nonzero(comps):
    """First nonzero entry, component-major, of a nonzero packed column part."""
    return next(x for comp in comps for x in comp if x)


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


def _kernel_kx_z(U, domain, k):
    """``kernel_kx`` over integer polynomials, for ``zp:p`` and ``field:q``."""
    n = len(U)
    cols = []
    for j, u in enumerate(U):
        comps, D = _pack(u)
        cols.append(comps + [[D] if i == j else [] for i in range(n)])
    basis = []
    for j in _reduce_columns(cols, k, _z_step):
        ident = cols[j][k:]
        lead = _first_nonzero(ident)
        basis.append(tuple(tuple(ScalarElement(domain, Fraction(v, lead)) for v in comp)
                           for comp in ident))
    return basis


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


def _kernel_kx_fp(U, domain, k):
    """``kernel_kx`` over residues mod p, for ``field:p``."""
    p, n = domain.field.p, len(U)
    cols = [[[c.value for c in comp] for comp in u.comps]
            + [[1] if i == j else [] for i in range(n)]
            for j, u in enumerate(U)]
    basis = []
    for j in _reduce_columns(cols, k, _fp_step(p)):
        ident = cols[j][k:]
        inv = pow(_first_nonzero(ident), -1, p)
        basis.append(tuple(tuple(ScalarElement(domain, v * inv % p) for v in comp)
                           for comp in ident))
    return basis
