"""Brute-force verifiers grounded directly in the definition of saturation.

Everything here works on finite degree slices of V[X]^n, viewed as plain
free V-modules.  Saturation of a column span is computed by a Smith-style
reduction over V with minimal-valuation pivoting: if A = U * diag * Q with
U, Q invertible over V, the saturation of the column span of A is spanned
by the first rank-many columns of U.  That route shares no code with the
echelon machinery it is used to check; its whole value is independence.
The same reduction, with the tested vectors carried along as extra
columns, yields an exact membership test for arbitrary V-spans.

The V[X]-saturation slice adds one K[X] layer in front of it.  A
degree-<=D element of the K[X]-span of S can need witnesses of higher
degree, so the slice is read off a weak Popov K[X]-basis of that span
(Mulders & Storjohann, "On lattice reduction for polynomial matrices",
2003).  By the predictable-degree property (see ``saturation_slice``), its
X-shifts of degree <= D span the slice's K-space exactly: no search over
ever larger shift families and no stopping rule.

Cost model: a Smith reduction of an N-row matrix with s columns makes at
most min(N, s) pivot steps, each clearing one column below the pivot; a
row update visits only the nonzero entries of the pivot row, and U is
built only when a saturation reads it.  The elimination over K behind
``brute_syzygies`` and the basis clean-up skip zeros the same way, so no
arithmetic is spent on a zero entry; sparse slices cost far below the
dense O(N^2 s) bound.

Returned bases are put into a canonical fully-reduced strict form
(ascending pivots, pivot coefficient 1, zero at every other basis pivot),
which is unique for a saturated module, so equal modules produce equal
output lists.
"""

from __future__ import annotations

from . import _poly
from .errors import DegreeExceeded
from .polyvec import PivotIndex, PolyVec, x_shifts
from .valuation import content


# ---------------------------------------------------------------------------
# Slices: flat coordinate vectors over an explicit list of basis positions.

def _slice_positions(n: int, bound) -> list[PivotIndex]:
    """Positions (j, r) in PivotIndex order; bound is an int or per-component list."""
    bounds = [bound] * n if isinstance(bound, int) else list(bound)
    return [
        PivotIndex(j, r) for j in range(1, n + 1) for r in range(bounds[j - 1] + 1)
    ]


def _to_coords(v: PolyVec, positions) -> list:
    return [v.coord(at) for at in positions]


def _from_coords(domain, n: int, positions, coords) -> PolyVec:
    comps = [[] for _ in range(n)]
    for (j, r), c in zip(positions, coords):
        comp = comps[j - 1]
        while len(comp) <= r:
            comp.append(domain.zero)
        comp[r] = c
    return PolyVec(domain, comps)


# ---------------------------------------------------------------------------
# Sparse updates: no arithmetic is spent on a zero entry.

def _nonzeros(vec) -> list:
    """The (position, entry) pairs of the nonzero entries of vec."""
    return [(j, x) for j, x in enumerate(vec) if x]


def _add_multiple(dst, f, src_nonzeros) -> None:
    """dst += f * src in place, visiting only the nonzero entries of src."""
    for j, b in src_nonzeros:
        a = dst[j]
        dst[j] = a + f * b if a else f * b


# ---------------------------------------------------------------------------
# Smith-style reduction over V.

def _saturate(cols, domain):
    """Canonical basis of the saturation of the V-span of cols (entries in V).

    With A = U * D * Q for U, Q invertible over V, the saturation of the
    column span of A is spanned by the first rank-many columns of U.
    """
    m = len(cols[0])
    zero, one = domain.zero, domain.one
    work = [[col[i] for col in cols] for i in range(m)]
    u_cols = [[one if i == c else zero for i in range(m)] for c in range(m)]
    diag = _reduce(work, len(cols), domain, u_cols)
    return _canonical_basis(u_cols[: len(diag)], domain)


def _reduce(work, s, domain, u_cols=None) -> list:
    """Row-reduce the rows ``work`` over V in place; return the pivots.

    Step t moves an entry of minimal valuation among the first s columns of
    the unreduced rows to (t, t) and clears column t below it, so that
    U^-1 A = D Q with the pivots on the diagonal of D.  Each row operation
    also acts on the columns past s, which therefore end up multiplied by
    U^-1, and, given ``u_cols``, on the columns of U.  The column operations
    that would clear row t right of the pivot are never carried out: they
    touch no other row, Q is not returned, and row t is not read again.
    """
    zero = domain.zero
    diag = []
    for t in range(min(len(work), s)):
        pos = _min_valuation_entry(work, t, s)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            work[t], work[pi] = work[pi], work[t]
            if u_cols is not None:
                u_cols[t], u_cols[pi] = u_cols[pi], u_cols[t]
        if pj != t:
            for row in work[t:]:
                row[t], row[pj] = row[pj], row[t]
        pivot = work[t][t]
        pivot_row = [(j, b) for j, b in _nonzeros(work[t]) if j > t]
        for i in range(t + 1, len(work)):
            e = work[i][t]
            if not e:
                continue
            f = e.div_exact(pivot)
            work[i][t] = zero
            _add_multiple(work[i], -f, pivot_row)
            if u_cols is not None:
                _add_multiple(u_cols[t], f, _nonzeros(u_cols[i]))
        diag.append(pivot)
    return diag


def _min_valuation_entry(work, t, s):
    """First (row-major) nonzero entry of minimal valuation in work[t:, t:s].

    The entries lie in V, so the first unit ends the search.
    """
    best = None
    pos = None
    for i in range(t, len(work)):
        row = work[i]
        for j in range(t, s):
            e = row[j]
            if e:
                v = e.valuation()
                if best is None or v < best:
                    if v == 0:
                        return i, j
                    best, pos = v, (i, j)
    return pos


def _span_contains(cols, vectors, domain) -> bool:
    """Whether every coordinate vector in ``vectors`` lies in the V-span of cols.

    The vectors ride along as extra columns of one reduction, which turns
    them into y = U^-1 v; v is in the span iff diag[t] divides y[t] for t
    below the rank and y vanishes beyond it.
    """
    nz = [c for c in cols if any(c)]
    if not nz:
        return not any(any(v) for v in vectors)
    s = len(nz)
    work = [[c[i] for c in nz] + [v[i] for v in vectors] for i in range(len(nz[0]))]
    diag = _reduce(work, s, domain)
    r = len(diag)
    return all(
        diag[t].divides(y) if t < r else not y
        for t, row in enumerate(work) for y in row[s:]
    )


def _canonical_basis(cols, domain):
    """Unique fully-reduced strict basis of the saturated span of cols.

    The columns must be V-independent with saturated span (as produced by
    ``_saturate``).  Forward insertion makes the family strictly echelon,
    then a descending sweep scales pivot coefficients to 1 and clears every
    pivot position from all other columns.
    """
    basis = []
    for col in cols:
        col = list(col)
        for bcol, bpos, bcoef in basis:
            c = col[bpos]
            if c:
                _add_multiple(col, -(c / bcoef), _nonzeros(bcol))
        u, _ = content(col)
        col = [x.div_exact(u) if x else x for x in col]
        pos = next(i for i, x in enumerate(col) if x.is_unit())
        basis.append((col, pos, col[pos]))
    basis.sort(key=lambda b: b[1])
    for i in range(len(basis) - 1, -1, -1):
        col, pos, coef = basis[i]
        col = [x.div_exact(coef) if x else x for x in col]
        basis[i] = (col, pos, col[pos])
        entries = _nonzeros(col)
        for j in range(len(basis)):
            if j == i:
                continue
            other, opos, _ = basis[j]
            c = other[pos]
            if c:
                _add_multiple(other, -c, entries)
                basis[j] = (other, opos, other[opos])
    return [col for col, _, _ in basis]


# ---------------------------------------------------------------------------
# The K[X] layer: weak Popov form.

def _weak_popov(S) -> list[PolyVec]:
    """A weak Popov K[X]-basis of the K[X]-span of the nonzero vectors S.

    The leading position of a nonzero vector is the last component of
    maximal degree; a family is in weak Popov form when its leading
    positions are pairwise distinct (Mulders & Storjohann, "On lattice
    reduction for polynomial matrices", 2003).  Vectors are inserted one at
    a time.  While the incoming vector a shares its leading position j with
    a basis vector b, the one of higher degree (say a) takes the simple
    transformation a <- a - (lc a_j / lc b_j) X^(deg a - deg b) b, which
    lowers its degree or its leading position; a vector reduced to zero is
    dropped.  Each step lowers one vector in a well-founded order, so the
    loop ends, and every step is invertible over K[X], so the span is kept.
    """
    domain = S[0].domain
    basis: dict[int, tuple[int, list]] = {}
    for v in S:
        a = list(v.comps)
        while any(a):
            d, j = _lead(a)
            if j not in basis:
                basis[j] = (d, a)
                break
            e, b = basis[j]
            if e > d:
                basis[j] = (d, a)
                a, d, b, e = b, e, a, d
            c = a[j][d] / b[j][e]
            a = [_sub_shifted(domain, x, c, d - e, y) for x, y in zip(a, b)]
    return [PolyVec(domain, b) for _, (_, b) in sorted(basis.items())]


def _lead(comps) -> tuple[int, int]:
    """Degree and leading position of a nonzero vector of trimmed polynomials."""
    d = max(len(c) for c in comps) - 1
    return d, max(i for i, c in enumerate(comps) if len(c) - 1 == d)


def _sub_shifted(domain, a, c, k, b) -> tuple:
    """a - c * X^k * b for trimmed coefficient tuples, skipping zeros of b."""
    out = list(a) + [domain.zero] * (len(b) + k - len(a))
    _add_multiple(out, -c, [(i + k, x) for i, x in _nonzeros(b)])
    return _poly.trim(out)


# ---------------------------------------------------------------------------
# Public oracles.

# How far ``in_vx_span`` raises its shift bound before reporting a miss.
_MAX_EXTRA = 10


def brute_saturation(F, D: int) -> list[PolyVec]:
    """V-basis of (K-span of F) intersected with the degree-D slice of V[X]^n.

    Every column of F must fit in the slice (DegreeExceeded otherwise); D is
    a pure slice bound and no X-shifting happens here; callers verifying
    the V[X]-saturation pass the shifted family explicitly.  Columns may
    have entries in K: each is scaled into V by a uniformizer power, which
    changes no saturation.  The result is canonical, hence independent of
    the presentation of the span.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return []
    domain = F[0].domain
    n = F[0].n
    for f in F:
        if f.degree() > D:
            raise DegreeExceeded(f"degree {f.degree()} exceeds slice bound {D}")
    positions = _slice_positions(n, D)
    cols = [_scale_into_v(_to_coords(f, positions), domain) for f in F]
    canon = _saturate(cols, domain)
    return [_from_coords(domain, n, positions, c) for c in canon]


def in_v_span(cols, vectors) -> bool:
    """Whether every vector lies in the V-span of the given PolyVec columns."""
    cols = list(cols)
    vectors = list(vectors)
    if not vectors:
        return True
    if not cols:
        return all(v.is_zero() for v in vectors)
    domain = cols[0].domain
    n = cols[0].n
    D = max(v.degree() for v in cols + vectors)
    positions = _slice_positions(n, max(D, 0))
    return _span_contains(
        [_to_coords(c, positions) for c in cols],
        [_to_coords(v, positions) for v in vectors],
        domain,
    )


def spans_equal(A, B) -> bool:
    """Whether two families of vectors generate the same V-module."""
    return in_v_span(B, A) and in_v_span(A, B)


def in_vx_span(generators, vectors, bound: int) -> bool:
    """Whether every vector lies in the V[X]-span of the generators.

    Realised through V-spans of bounded shift families: membership in the
    span of {X^r g : deg <= bound + extra} is an exact witness.  The bound
    is raised up to ``_MAX_EXTRA`` times because a V[X]-combination of total
    degree <= bound may cancel through higher-degree shift terms.  A vector
    with no witness within ``bound + _MAX_EXTRA`` is still reported as not
    in the span, although a witness of higher degree may exist: a False here
    is not yet an exact verdict.
    """
    gens = [g for g in generators if not g.is_zero()]
    vectors = list(vectors)
    if not vectors:
        return True
    if not gens:
        return all(v.is_zero() for v in vectors)
    for extra in range(_MAX_EXTRA + 1):
        if in_v_span(x_shifts(gens, bound + extra), vectors):
            return True
    return False


def saturation_slice(S, D: int) -> list[PolyVec]:
    """Canonical V-basis of Sat(V[X]-span(S)) on the degree-D slice.

    The saturation of the V[X]-span of S is its K[X]-span intersected with
    V[X]^n.  A degree-<=D element of the K[X]-span may need witnesses of
    higher degree (combinations whose high terms cancel), so the slice is
    not read off the shifts of S themselves.  Instead S is reduced once to
    a weak Popov K[X]-basis b_1..b_k (``_weak_popov``).  Its leading
    coefficient vectors are K-independent, which gives the
    predictable-degree property deg(sum q_i b_i) = max(deg q_i + deg b_i):
    an element of degree <= D has deg q_i <= D - deg b_i.  So the K-span of
    the X^r b_i with r <= D - deg b_i is exactly the degree-<=D part of the
    K[X]-span, and those vectors are K-independent.  ``brute_saturation``
    scales them into V, and the first rank-many U-columns of its Smith
    reduction span the intersection with the V-slice.

    Cost: the reduction makes at most |S| * n * (deg S + 1) simple
    transformations of O(n * deg S) K-operations each; the Smith step works
    on at most n(D+1) columns of length n(D+1).
    """
    S = [v for v in S if not v.is_zero()]
    if not S:
        return []
    return brute_saturation(x_shifts(_weak_popov(S), D), D)


def brute_syzygies(U, D: int) -> list[PolyVec]:
    """Canonical V-basis of the degree-bounded slice of the syzygy module.

    U is the family u_1..u_n in V[X]^k; solutions f with sum f_j u_j = 0 are
    enumerated with per-component bounds deg(f_j) <= D + d_U - deg(u_j)
    (d_U the largest degree in U), i.e. every product stays within degree
    D + d_U.  The K-solution space of the resulting exact linear system is
    intersected with the V-slice via the same Smith-based saturation used by
    ``brute_saturation``.  One Smith reduction of the shift rows with the
    identity riding along would give the same saturated kernel in one pass,
    but its unit-only pivots let rational-function entries grow far faster
    than the free pivots over K do: over rft0:q it turns seconds into minutes.
    """
    U = list(U)
    if not U:
        return []
    domain = U[0].domain
    n = len(U)
    k = U[0].n
    d_u = max((u.degree() for u in U if not u.is_zero()), default=0)
    bounds = [D + d_u - (u.degree() if not u.is_zero() else 0) for u in U]
    positions = _slice_positions(n, bounds)
    e_max = D + d_u
    rows = []
    for i in range(1, k + 1):
        for e in range(e_max + 1):
            row = []
            for (j, r) in positions:
                row.append(U[j - 1].coord(PivotIndex(i, e - r))
                           if 0 <= e - r else domain.zero)
            rows.append(row)
    nullspace = _nullspace_over_k(rows, domain)
    if not nullspace:
        return []
    scaled = [_scale_into_v(vec, domain) for vec in nullspace]
    canon = _saturate(scaled, domain)
    return [_from_coords(domain, n, positions, c) for c in canon]


def _nullspace_over_k(rows, domain):
    """K-basis of the nullspace of the matrix, by plain reduced elimination."""
    m = len(rows)
    s = len(rows[0]) if m else 0
    work = [list(r) for r in rows]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for j in range(s):
        pr = None
        for i in range(rank, m):
            if work[i][j]:
                pr = i
                break
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        inv = work[rank][j]
        work[rank] = [x / inv if x else x for x in work[rank]]
        pivot_entries = _nonzeros(work[rank])
        for i in range(m):
            if i == rank:
                continue
            c = work[i][j]
            if c:
                _add_multiple(work[i], -c, pivot_entries)
        pivot_of_col[j] = rank
        rank += 1
    zero, one = domain.zero, domain.one
    basis = []
    for j in range(s):
        if j in pivot_of_col:
            continue
        vec = [zero] * s
        vec[j] = one
        for pj, pi in pivot_of_col.items():
            vec[pj] = -work[pi][j]
        basis.append(vec)
    return basis


def _scale_into_v(coords, domain):
    """Scale a K-coordinate vector by a uniformizer power into a V-vector."""
    m = min((c.valuation() for c in coords if c), default=0)
    if m == 0:
        return coords
    pi = domain.uniformizer()
    alpha = domain.one
    step = pi if m < 0 else domain.one / pi
    for _ in range(abs(m)):
        alpha = alpha * step
    return [c * alpha if c else c for c in coords]
