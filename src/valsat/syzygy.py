"""Syzygy generators over V[X] via the quotient field K.

Pipeline: compute a K[X]-basis of the kernel of the k-by-n polynomial matrix
U by one unimodular column reduction of U stacked on the identity over the
Euclidean ring K[X] (the identity part records the transform, whose columns
are coprime, so the kernel vectors need no gcd strip), scale each kernel
vector by a uniformizer power into a primitive element of V[X]^n
(``scaled_kernel``), then V-saturate the V[X]-module they generate
(``saturate_vx``).  The generator list of that saturation generates the
full syzygy module of u_1..u_n over V[X].  ``syzygy_vx`` is that pair, and
the CLI runs the same two calls, printing the scaled kernel between them.

Every step runs packed: the kernel columns leave the packed reduction
(``_kernel_columns``) as numerators over the numerator ring, are scaled
there, and reach the packed engine as ``PolyVec``s in packed form, so no
element of K is built until the generators' ``comps`` are read.

K[X] polynomials are trimmed tuples of quotient-field elements; a kernel
vector from ``kernel_kx`` is a tuple of n such polynomials.

One loop, ``_reduce_columns``, runs the reduction with a division step.
The packed step, ``_step``, works over the domain's numerator ring R (Z for
``zp:p`` and ``field:q``, residues for ``field:p``, Z[t] for ``rft0:q``,
F_p[t] for ``rft0:p``; see ``_ratkernel``).  Each stacked column
[u_j; e_j] is cleared of denominators, so its identity part starts as
D_j e_j, and each quotient step is the fraction-free ``s col - t X^m
pivot``, with (s, t) = ``ring.cofactors(la, lb)`` for la, lb the leading
numerators of the row entries of col and pivot and m their degree
difference, repeated while the row entry's degree is at least the
pivot's; then the column is divided by the gcd of its numerators
(``strip``).  The cofactors are the ring's one rule, the one the echelon
step of ``_ratkernel.insert`` takes: (lb, la) over Z, with no gcd, as
the strip divides the factor gcd(la, lb) out with the rest of the content;
(1, la/lb mod p) over F_p, so that each step is Euclidean division and
nothing is stripped; (lb/g, la/g) for the ring gcd g over Z[t] and
F_p[t].  ``_kernel_kx_generic`` runs Euclidean division on polynomials of
domain elements, and ``primitive_scale`` scales its generators: together,
the tests' reference for ``scaled_kernel``.

The two reductions return the same basis.  Each step multiplies the
column by the nonzero s of R, a subring of K, and each strip divides it by
a nonzero element of R, so after every column update a packed column is a
nonzero K-multiple of the column that Euclidean division leaves (the
pseudo-remainder of a by b is c (a mod b) for a nonzero c).  Scaling a
column changes no degree and no zero pattern, so every pivot choice and
every removal from the active set is the same on both paths, and the
final division of each generator by its first nonzero coefficient removes
the multiple.

This module imports ``_ratkernel`` inside its functions only, so that
importing ``valsat`` does not load (and, with no cached bytecode, compile)
the packed kernel.
"""

from __future__ import annotations

from . import _poly
from .errors import ZeroVector
from .polyvec import PolyVec, packed_normal, uniform_family
from .valuation import Domain, DomainElement
from .vxsat import SaturationResult, _check_cap, saturate_vx
from .echelon import EchelonBasis

XPoly = tuple[DomainElement, ...]


def kernel_kx(U: list[PolyVec]) -> list[tuple[XPoly, ...]]:
    """K[X]-basis of {f in K[X]^n : sum_j f_j u_j = 0} for the columns u_j of U.

    Column reduction of U stacked on the n-by-n identity: within each row,
    repeatedly clear all but the minimal-degree nonzero entry by polynomial
    division, subtracting multiples of whole stacked columns.  The identity
    part becomes a unimodular T with U T reduced, and the generators are the
    identity parts ``col[k:]`` of the columns whose U part is zero.  A common
    factor of a column of T would divide the unit det T, so no generator
    needs a gcd strip; each is scaled so its first nonzero coefficient is 1.

    It runs packed over the numerator ring (``_kernel_columns``), each
    division step fraction-free with a content strip after it.  That leaves
    each column a nonzero K-multiple of its Euclidean reduction, with the
    same degrees and zero pattern, so every pivot choice is the one
    Euclidean division makes, and the final normalisation gives the same
    basis (see the module docstring).
    MixedFamily is raised unless the u_j share one domain and one width.
    """
    U = uniform_family(U)
    if not U:
        return []
    from ._ratkernel import numerator_ring

    domain = U[0].domain
    return [PolyVec.from_packed(domain, ident, next(x for c in ident for x in c if x)).comps
            for ident in _kernel_columns(U, numerator_ring(domain))]


def _reduce_columns(cols, k, step):
    """Column-reduce the stacked columns in place; the indices of the kernel part.

    Row by row, while two active columns are nonzero in the row, the one of
    least degree there (lowest index on ties) becomes the pivot and
    ``step(col, pivot, row)`` returns each other column reduced below the
    pivot's degree in that row.  Afterwards the first column still nonzero
    in the row leaves the active set.
    """
    active = list(range(len(cols)))
    for row in range(k):
        while True:
            nz = [j for j in active if cols[j][row]]
            if len(nz) <= 1:
                break
            jstar = min(nz, key=lambda j: (len(cols[j][row]), j))
            pivot = cols[jstar]
            for j in nz:
                if j != jstar:
                    cols[j] = step(cols[j], pivot, row)
        nz = [j for j in active if cols[j][row]]
        if nz:
            active.remove(nz[0])
    assert not any(cols[j][row] for j in active for row in range(k))
    return active


def _step(ring):
    """The packed division step over the numerator ring ``ring``.

    With la, lb the X-leading numerators of the row entries of col and
    pivot, (s, t) = ``ring.cofactors(la, lb)`` and m the difference of
    their degrees, col <- s col - t X^m pivot while the row entry's degree
    is at least the pivot's; then the column is divided by the gcd of its
    numerators (``ring.strip``).  It mirrors the element step of
    ``_kernel_kx_generic``.
    """
    from ._ratkernel import shift_comps

    cofactors, sub_scaled, mod, zero = ring.cofactors, ring.sub_scaled, ring.mod, ring.zero

    def step(col, pivot, row):
        b = pivot[row]
        lb, db = b[-1], len(b)
        while len(col[row]) >= db:
            a = col[row]
            s, t = cofactors(a[-1], lb)
            sub_scaled(col, shift_comps(pivot, len(a) - db, zero), s, t, mod)
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


def _kernel_kx_generic(U):
    """``kernel_kx`` over domain elements by Euclidean division: the tests'
    reference."""
    domain, k, n = U[0].domain, U[0].n, len(U)
    one = domain.one

    def step(col, pivot, row):
        q, _ = _poly.divmod(domain, col[row], pivot[row])
        return [_poly.sub(domain, a, _poly.mul(domain, q, b))
                for a, b in zip(col, pivot)]

    cols = [
        list(u.comps) + [(one,) if i == j else () for i in range(n)]
        for j, u in enumerate(U)
    ]
    return [tuple(_normalize_leading(cols[j][k:]))
            for j in _reduce_columns(cols, k, step)]


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
    if m != 0:  # never with a trivial valuation, where every nonzero value is 0
        pi = domain.uniformizer()
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
    """Primitive V[X]^n representatives of a K[X]-kernel basis of u_1..u_n.

    Each is ``primitive_scale`` of a generator of ``kernel_kx``, computed
    on the packed kernel columns and returned in packed form
    (``PolyVec.from_packed``), so no element of K is built until its
    ``comps`` is read.  ``primitive_scale`` divides a kernel column by its
    first nonzero numerator c and by pi^m, for m = min v(x) - v(c) over
    its numerators x.  Here min v(x) is 0: a column's last step ends with
    a strip, which leaves its numerators coprime, and a zero u_j packs over
    D = 1.  So m = -v(c), and the scaled column is the numerators over
    c / pi^(v(c)) (``ring.shed``), normalised by ``polyvec.packed_normal``.
    MixedFamily is raised unless the u_j share one domain and one width.
    """
    U = uniform_family(U)
    if not U:
        return []
    from ._ratkernel import numerator_ring

    domain = U[0].domain
    ring = numerator_ring(domain)
    val = ring.val
    out = []
    for ident in _kernel_columns(U, ring):
        c = next(x for comp in ident for x in comp if x)
        if val is not None:
            c = ring.shed(c, val(c))
        out.append(packed_normal(domain, ident, c))
    return out


def syzygy_vx(U: list[PolyVec], max_iter: int | None = None) -> SaturationResult:
    """Finite V[X]-generating set of the syzygy module of u_1..u_n.

    ``saturate_vx(scaled_kernel(U))``, the V-saturation of the K[X]-kernel
    of U: its generator list spans {f in V[X]^n : sum_j f_j u_j = 0} over
    V[X].  An injective matrix yields the empty result.  ``max_iter`` is the
    optional round cap of ``saturate_vx``, checked before any work.
    """
    _check_cap(max_iter)
    S = scaled_kernel(U)
    if S:
        return saturate_vx(S, max_iter)
    return SaturationResult(EchelonBasis(), [], [], 0)
