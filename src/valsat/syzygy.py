"""Syzygy generators over V[X] via the quotient field K.

Pipeline: compute a K[X]-basis of the kernel of the k-by-n polynomial matrix
(unimodular column reduction over the Euclidean ring K[X]), scale each kernel
vector into a primitive element of V[X]^n by a uniformizer power, then
V-saturate the V[X]-module they generate.  The generator list of that
saturation generates the full syzygy module of u_1..u_n over V[X].

K[X] polynomials are trimmed tuples of quotient-field elements; a kernel
vector is a tuple of n such polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _poly
from .errors import ZeroVector
from .polyvec import PolyVec
from .valuation import Domain, DomainElement
from .vxsat import SaturationResult, saturate_vx
from .echelon import EchelonBasis

XPoly = tuple[DomainElement, ...]


# ---------------------------------------------------------------------------
# The k-by-n matrix over K[X].

@dataclass(frozen=True)
class KPolyMatrix:
    """Row-major matrix of K[X] entries, columns u_1..u_n of V[X]^k."""

    domain: Domain
    rows: int
    cols: int
    entries: tuple[tuple[XPoly, ...], ...]

    @classmethod
    def from_columns(cls, vecs: list[PolyVec]) -> "KPolyMatrix":
        domain = vecs[0].domain
        k = vecs[0].n
        entries = tuple(
            tuple(v.comps[i] for v in vecs) for i in range(k)
        )
        return cls(domain, k, len(vecs), entries)

    @classmethod
    def from_raw(cls, domain: Domain, rows) -> "KPolyMatrix":
        """Rows of coefficient lists; coefficients may be any exact rationals."""
        entries = tuple(
            tuple(_poly.trim(domain.k_element(c) for c in e) for e in row)
            for row in rows
        )
        return cls(domain, len(entries), len(entries[0]) if entries else 0, entries)

    def column(self, j: int) -> list[XPoly]:
        return [self.entries[i][j] for i in range(self.rows)]


def _strip_column_gcd(domain, comp_col, work_col):
    """Divide a companion column (and its image) by the gcd of its entries."""
    g: XPoly = ()
    for e in comp_col:
        g = _poly.gcd(domain, g, e)
        if len(g) == 1:
            return comp_col, work_col
    if len(g) <= 1:
        return comp_col, work_col
    comp = [_poly.divmod(domain, e, g)[0] for e in comp_col]
    work = [_poly.divmod(domain, e, g)[0] for e in work_col]
    return comp, work


def kernel_kx(U: KPolyMatrix) -> list[tuple[XPoly, ...]]:
    """K[X]-basis of {f in K[X]^n : U f = 0}.

    Unimodular column reduction: within each row, repeatedly clear all but
    the minimal-degree nonzero entry by polynomial division, accumulating
    every operation on an identity companion; kernel generators are the
    companion columns sitting under the zero columns of the reduced matrix.
    Each generator is stripped of its entrywise gcd and scaled so its first
    nonzero coefficient is 1.
    """
    domain, k, n = U.domain, U.rows, U.cols
    one = domain.one
    work = [U.column(j) for j in range(n)]
    comp = [
        [(one,) if i == j else () for i in range(n)] for j in range(n)
    ]
    active = list(range(n))
    for row in range(k):
        while True:
            nz = [j for j in active if work[j][row]]
            if len(nz) <= 1:
                break
            jstar = min(nz, key=lambda j: (len(work[j][row]), j))
            for j in nz:
                if j == jstar:
                    continue
                q, _ = _poly.divmod(domain, work[j][row], work[jstar][row])
                work[j] = [
                    _poly.sub(domain, a, _poly.mul(domain, q, b))
                    for a, b in zip(work[j], work[jstar])
                ]
                comp[j] = [
                    _poly.sub(domain, a, _poly.mul(domain, q, b))
                    for a, b in zip(comp[j], comp[jstar])
                ]
            for j in active:
                comp[j], work[j] = _strip_column_gcd(domain, comp[j], work[j])
        nz = [j for j in active if work[j][row]]
        if nz:
            active.remove(nz[0])
    basis = []
    for j in active:
        assert all(not e for e in work[j])
        col, _ = _strip_column_gcd(domain, comp[j], work[j])
        basis.append(tuple(_normalize_leading(col)))
    return basis


def _normalize_leading(col):
    """Scale so the first nonzero coefficient (component-major) is 1."""
    lead = None
    for poly in col:
        for c in poly:
            if not c.is_zero():
                lead = c
                break
        if lead is not None:
            break
    if lead is None or lead == lead.domain.one:
        return list(col)
    return [tuple(c / lead for c in poly) for poly in col]


def primitive_scale(v, domain: Domain) -> PolyVec:
    """Scale a K[X]^n vector by a uniformizer power into a primitive V[X] vector.

    The factor is pi^(-m) for m the minimal coefficient valuation (p^(-m)
    over Z_(p)), so vectors already primitive come back unchanged and no
    unit flip is introduced.
    """
    vals = [c.valuation() for poly in v for c in poly if not c.is_zero()]
    if not vals:
        raise ZeroVector("primitive_scale of the zero vector")
    m = min(vals)
    if m != 0:
        pi = domain.uniformizer()
        if pi is None:
            raise ValueError("domain has trivial valuation but nonzero min valuation")
        alpha = domain.one
        step = pi if m < 0 else domain.one / pi
        for _ in range(abs(m)):
            alpha = alpha * step
        v = [tuple(c * alpha for c in poly) for poly in v]
    return PolyVec(domain, v)


def apply_columns(U: list[PolyVec], f: PolyVec) -> list[XPoly]:
    """The k component polynomials of sum_j f_j u_j (zero list iff syzygy)."""
    domain = f.domain
    k = U[0].n
    out: list[XPoly] = [() for _ in range(k)]
    for j, u in enumerate(U, start=1):
        fj = f.comps[j - 1]
        if not fj:
            continue
        for i in range(k):
            out[i] = _poly.add(domain, out[i], _poly.mul(domain, fj, u.comps[i]))
    return out


def scaled_kernel(U: list[PolyVec]) -> list[PolyVec]:
    """Primitive V[X]^n representatives of a K[X]-kernel basis of u_1..u_n."""
    U = list(U)
    if not U:
        return []
    domain = U[0].domain
    return [
        primitive_scale(g, domain) for g in kernel_kx(KPolyMatrix.from_columns(U))
    ]


def syzygy_vx(U: list[PolyVec], max_iter: int = 64) -> SaturationResult:
    """Finite V[X]-generating set of the syzygy module of u_1..u_n.

    Composes kernel_kx, primitive_scale and saturate_vx; the generator list
    of the result spans {f in V[X]^n : sum_j f_j u_j = 0} over V[X].  An
    injective matrix yields the empty result.
    """
    S = scaled_kernel(U)
    if not S:
        return SaturationResult(EchelonBasis(), [], [], 0)
    return saturate_vx(S, max_iter)
