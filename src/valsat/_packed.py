"""Packed engine and packed K[X]-kernel: the clients of the packed kernel.

The packed engine runs every shipped kind, over the numerator ring that
``numerator_ring`` picks: Z for ``zp:p`` and ``field:q``, residues mod p
for ``field:p``, Z[t] for ``rft0:q`` and F_p[t] for ``rft0:p``.  Columns
are ``_ratkernel`` packed vectors, numerators over one denominator per
column (over F_p, residues over 1).  ``insert_vector``
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

``_kernel_columns`` runs ``syzygy``'s column reduction on packed columns
over the same numerator rings, with one fraction-free step written against
the ring: ``(lb/g) col - (la/g) X^s pivot`` for g the ring gcd of the
leading numerators, then a content strip (``strip``).  Over F_p the ring's
gcd is lb, so the step is Euclidean division itself and nothing is
stripped.  Why its basis is the generic one is in the ``syzygy`` module
docstring.  It returns the kernel's identity parts as ring columns.
``scaled_kernel_packed`` divides each by its first nonzero numerator and
by a uniformiser power (``ring.shed``), and returns them packed for
``syzygy.scaled_kernel``; ``syzygy.kernel_kx`` reads each, over its first
nonzero numerator, as elements.
"""

from __future__ import annotations

from . import _ratkernel
from ._engines import GenericEngine
from .echelon import EchelonBasis
from .polyvec import PivotIndex, PolyVec
from .syzygy import _reduce_columns
from .valuation import RatFuncElement


def numerator_ring(domain):
    """The ring of the domain's packed numerators (see ``_ratkernel``)."""
    if isinstance(domain.one, RatFuncElement):
        return _ratkernel.Polynomials(domain.field.p)
    return _ratkernel.Integers(domain.p, domain.field.p)


class PackedEngine(GenericEngine):
    """Engine over packed vectors; ``pivs`` holds plain (j, r) pairs."""

    name = "packed"

    def __init__(self, domain):
        super().__init__(domain)
        self.ring = numerator_ring(domain)
        self.raw = set()  # indexes of the columns not yet in lowest terms

    def insert_vector(self, v: PolyVec) -> tuple[bool, bool]:
        return _ratkernel.insert(self.cols, self.pivs, (v.nums, v.den), self.ring, self.raw)

    def insert_shift_of(self, i: int) -> tuple[bool, bool]:
        ring, raw = self.ring, self.raw
        shifted = _ratkernel.vec_shift(_ratkernel.reduced(self.cols, raw, i, ring), ring.zero)
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


def _step(ring):
    """``syzygy``'s division step on packed columns over ``ring``.

    With la, lb the X-leading numerators of the row entries of col and
    pivot and g their ring gcd, col <- (lb/g) col - (la/g) X^s pivot while
    the row entry's degree is at least the pivot's; then the column is
    divided by the gcd of its numerators (``ring.strip``).
    """
    gcd, quo, sub_scaled, mod, zero = ring.gcd, ring.quo, ring.sub_scaled, ring.mod, ring.zero

    def step(col, pivot, row):
        b = pivot[row]
        lb, db = b[-1], len(b)
        while len(col[row]) >= db:
            a = col[row]
            g = gcd(a[-1], lb)
            sub_scaled(col, _ratkernel.shift_comps(pivot, len(a) - db, zero),
                       quo(lb, g), quo(a[-1], g), mod)
        ring.strip(col)
        return col

    return step


def _kernel_columns(U: list[PolyVec], ring):
    """The identity parts of the kernel columns of [U; I] for a nonempty U
    over a shipped kind, as columns over its numerator ring ``ring``: lists
    of numerators, one per component.

    Each stacked column [u_j; e_j] is packed, so its identity part starts
    as D_j e_j; a kernel column is a nonzero K-multiple of the generic
    reduction's generator.
    """
    k, n = U[0].n, len(U)
    cols = [u.nums + [[u.den] if i == j else [] for i in range(n)] for j, u in enumerate(U)]
    return [cols[j][k:] for j in _reduce_columns(cols, k, _step(ring))]


def scaled_kernel_packed(U: list[PolyVec]) -> list[PolyVec]:
    """``syzygy.scaled_kernel`` of a nonempty U, built from no element.

    ``primitive_scale`` divides a kernel column by its first nonzero
    numerator c and by pi^m, for m = min v(x) - v(c) over its numerators x.
    Here min v(x) is 0: a column's last step ends with a strip, which
    leaves its numerators coprime, and a zero u_j packs over D = 1.  So
    m = -v(c), and the scaled column is the numerators over c / pi^(v(c))
    (``ring.shed``), with that denominator made positive over Z and 1 over
    F_p, as ``textio.render_vector`` needs.
    """
    domain = U[0].domain
    ring = numerator_ring(domain)
    val, mod = ring.val, ring.mod
    out = []
    for ident in _kernel_columns(U, ring):
        c = next(x for comp in ident for x in comp if x)
        if val is not None:
            c = ring.shed(c, val(c))
        if type(c) is int and mod:
            inv = pow(c, -1, mod)
            ident, c = [[x * inv % mod for x in comp] for comp in ident], 1
        elif type(c) is int and c < 0:
            ident, c = [[-x for x in comp] for comp in ident], -c
        out.append(PolyVec.from_packed(domain, ident, c))
    return out
