"""An independent verifier of saturations and syzygies, and its references.

``verify_saturation``, ``verify_syzygies`` and ``verify_free`` decide the
CLI's ``--verify`` verdict.  Each checks a claimed V-generating set G
against a module N on a degree slice W of V[X]^n with no canonical basis
and no Smith reduction over K: one division over K[X], one column
elimination over V on the few positions above W, and one rank over the
residue field k.

The criterion.  N = V[X]·M for ``saturate-vx`` and the K[X]-kernel of U
(``kx_kernel``) for ``syzygy``.  W is deg f_j <= bound on every component
for ``saturate-vx``, deg f_j <= B_j = bound + d_U - deg u_j for ``syzygy``.
Let S = Sat(N) ∩ W, where Sat(N) = K[X]N ∩ V[X]^n, and r = dim_K(K[X]N ∩ W).
Under the shift -W, a weak Popov basis b_1..b_k of N (``_weak_popov``) has
the shifted predictable-degree property, so the X^s b_i with
s <= -sdeg b_i are a K-basis of K[X]N ∩ W and r is read off the degrees.
The verdict is ok iff

(i) every generator has its entries in V and lies in K[X]N: it divides
    out by the same weak Popov basis, with the basis held fixed
    (``_divides_out``);
(ii) for ``syzygy``, every generator lies in W (it is a syzygy by (i));
(iii) for some e in 0..``_MAX_EXTRA``: let F_e be the X-shifts of G that fit
    W + e, and C_e the V-generators of span_V(F_e) ∩ W that a column
    elimination over the positions of W + e outside W leaves, pivoting on
    a minimal valuation (``_cut``; its steps are unimodular over V, so C_e
    is exact).  The residue matrix of C_e has rank r over k.

Proof sketch.  By (i), C_e ⊂ S, so rank_K C_e <= r, and a residue rank of
r forces r unit invariants: span_V(C_e) is saturated of K-rank r inside
the saturated S of K-rank r, so it is S, and S ⊂ V[X]·G ∩ W ⊂ S.
So an ok is never given to a G that does not generate S, and the check
also covers the generators of degree above the bound.  Conversely, for a
correct G, S ⊂ span_V(F_e) at some e iff span_V(C_e) = S; the cut matters,
since an element of top degree in W may need a witness one degree above
it.  For ``saturate-vx`` F_e is the family the canonical slice-basis check
searched (shifts within bound + e on every component), so a correct G gets
the same verdict as there.  For ``syzygy`` the family changed: F_e fits the
per-component B_j + e, where the slice-basis check took the shifts within a
uniform top + e, top = max(deg of the reference basis, bound).  Neither
family contains the other, so near the ``_MAX_EXTRA`` cap the two checks
may differ on a correct G; that the verdicts agree was checked empirically
(the ``cli-verify`` outputs of seeds 0-10 and the hypothesis differentials
in the tests), not proved.  ``_MAX_EXTRA`` still bounds the witness degree:
a correct G whose witnesses need more than 10 degrees above W is reported
as a MISMATCH.

``verify_free`` has no X-shifts: the basis must lie in W, in V and in the
K-span of the input vectors, and have residue rank rank_K(input); input
above the bound raises DegreeExceeded.

The K-layer over a numerator ring.  Every computation over K, the weak
Popov reduction (``_weak_popov``, behind ``kx_kernel``, ``_kx_slice`` and
the criterion), the division (``_divides_out``), ``verify_free``'s K-span
membership (``_echelon``, ``_eliminate``) and the residue rank over Q,
runs on rows cleared of denominators, over the numerator ring R of the
kind (``_ring``): Z for ``zp:p`` and ``field:q``, residues mod p for
``field:p``, Z[t] for ``rft0:q`` and F_p[t] for ``rft0:p``, the last two
through ``_poly``'s ``igcd``, ``iquo``, ``imul`` and ``ilin``.  A vector
enters as its packed numerators (``PolyVec.nums``), the row times their
common denominator: a parsed or engine-made vector holds them, with no
element built, and ``polyvec`` packs a vector built from elements.  The
rows the K-layer returns leave it the same way (``PolyVec.from_packed``).
The one step (``_step``) cancels the leading coefficient la of a against
lb of b:

    a <- (lb/g) a - (la/g) X^k b,    g = gcd(la, lb) in R,

then divides a by the gcd of its entries (over the residues mod p, g = lb
and nothing is divided: the step is Euclid's).  This is fraction-free elimination
(Bareiss, Math. Comp. 1968) applied to the shifted weak Popov reduction.
Why the verdicts are those of the same reductions over K: the step is the
Euclidean step a - (la/lb) X^k b times the nonzero lb/g, and the strip
divides by a nonzero element of R, so after every step each row is a
nonzero K-multiple of the row that arithmetic over K leaves.  Multiplying
a row by a nonzero constant changes none of what the criterion reads:
the zero pattern, hence the degrees, the shifted degrees and the leading
positions, so every step takes the same branch on both paths; K[X]- and
K-span membership; and the K-rank.  ``kx_kernel`` divides each returned
vector by its first nonzero coefficient, which removes the multiple.

Residue fields.  k is F_p for ``zp:p``, ``field:p`` and ``rft0:p`` (the
value at t = 0), and Q for ``field:q`` and ``rft0:q``.  The residues are
read off the element fields as pairs of ints (``_residue_map``).  The rank
is exact: mod p over F_p; over Q each residue row is cleared of
denominators and the rank taken by the same step over Z, with no
``Fraction``.  Only the V-layer, the cut (``_cut``), the test for entries
in V (``_in_v``) and the residue map, runs on elements.

Cost model: the weak Popov reduction and the divisions make one step per
leading term cancelled, each one ring gcd of two leading coefficients,
one pass of integer (or ``ilin``) arithmetic over the nonzero
coefficients of the two rows, and one content gcd over the row's entries
(over Z[t] and F_p[t] a chain of ``igcd``s that stops at 1); over K the
same pass made one ``Fraction`` or ``RatFuncElement`` operation, with its
own gcd, per coefficient.  The cut makes at most n·e pivot steps over V
on at most |F_e| sparse rows; the rank is one elimination mod p or over Z
on at most |F_e| rows of width |W|.  Only a G that needs e > 0 pays the
cut and the rank more than once.

The references.  The slice functions (``saturation_slice``,
``brute_syzygies``, ``brute_saturation``, ``in_v_span``, ``in_vx_span``,
``spans_equal``) compute what the criterion avoids, and the tests compare
the verifier with them.  They treat slices as free V-modules: saturation
of a column span by a Smith-style reduction over V with minimal-valuation
pivoting (if A = U * diag * Q with U, Q invertible over V, the first
rank-many columns of U span it), membership by the same reduction with
the tested vectors carried along, and the slices of a K[X]-span read off
the X-shifts of its shifted weak Popov basis (``_kx_slice``).  A Smith
reduction of an N-row matrix with s columns makes at most min(N, s) pivot
steps and skips zero entries.  Returned bases are canonical (ascending
pivots, pivot coefficient 1, zero at every other pivot), so equal modules
give equal lists.  ``kx_kernel`` reduces (U | I) to weak Popov form on U,
the identity riding along as a tail (Mulders & Storjohann, "On lattice
reduction for polynomial matrices", 2003).
"""

from __future__ import annotations

from math import gcd, lcm

from ._poly import icontent, igcd, ilin, imul, iquo
from .errors import DegreeExceeded
from .polyvec import PivotIndex, PolyVec, uniform_family
from .valuation import RatFuncElement, content


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

    The entries may lie in K (``in_v_span`` takes such vectors), so a unit
    need not be minimal and the whole block is scanned.
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
# The K-layer: rows cleared of denominators, over a numerator ring R of K.
# A row is a list of coefficient lists, trailing zeros trimmed, with entries
# in R: ints over Z or mod p, int tuples (``_poly``) over Z[t] or F_p[t].

class _Integers:
    """Z (p = 0), or the residues mod a prime p."""

    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def cofactors(self, la, lb):
        """(s, t) with s != 0 and s la = t lb: lb/g and la/g for g = gcd(la, lb)
        over Z, 1 and la/lb over F_p."""
        if self.p:
            return 1, la * pow(lb, -1, self.p) % self.p
        g = gcd(la, lb)
        return lb // g, la // g

    def sub(self, s, x, t, k, y) -> list:
        """s x - t X^k y for coefficient lists, trimmed."""
        if not y:
            return x if s == 1 else [s * c for c in x]
        m, p = k + len(y), self.p
        if len(x) < m:
            x = x + [0] * (m - len(x))
        if p:
            out = x[:k] + [(c - t * d) % p for c, d in zip(x[k:m], y)] + x[m:]
        elif s == 1:
            out = x[:k] + [c - t * d for c, d in zip(x[k:m], y)] + x[m:]
        else:
            out = ([s * c for c in x[:k]] + [s * c - t * d for c, d in zip(x[k:m], y)]
                   + [s * c for c in x[m:]])
        while out and not out[-1]:
            out.pop()
        return out

    def strip(self, row) -> list[list]:
        """row divided by the gcd of its entries; as it is over F_p."""
        if not self.p:
            g = gcd(*(c for comp in row for c in comp))
            if g > 1:
                return [[c // g for c in comp] for comp in row]
        return row


class _Polynomials:
    """Z[t] (p = 0) or F_p[t], by ``_poly``'s ``igcd``, ``iquo``, ``imul`` and ``ilin``."""

    zero, one = (), (1,)

    def __init__(self, p: int):
        self.p = p

    def cofactors(self, la, lb):
        """(lb/g, la/g) for g = gcd(la, lb)."""
        g = igcd(la, lb, self.p)
        return iquo(lb, g, self.p), iquo(la, g, self.p)

    def sub(self, s, x, t, k, y) -> list:
        """s x - t X^k y for coefficient lists, trimmed."""
        p, one = self.p, s == (1,)
        if not y:
            return x if one else [imul(s, c, p) for c in x]
        m = k + len(y)
        if len(x) < m:
            x = x + [()] * (m - len(x))
        out = [ilin(s, c, t, d, p) for c, d in zip(x[k:m], y)]
        if one:
            out = x[:k] + out + x[m:]
        else:
            out = [imul(s, c, p) for c in x[:k]] + out + [imul(s, c, p) for c in x[m:]]
        while out and not out[-1]:
            out.pop()
        return out

    def strip(self, row) -> list[list]:
        """row divided by the gcd of its entries (``icontent``)."""
        xs = [c for comp in row for c in comp if c]
        if not xs:
            return row
        h, qs = icontent(xs, self.p)
        if h == (1,):
            return row
        qs = iter(qs)
        return [[next(qs) if c else () for c in comp] for comp in row]


def _ring(domain):
    """The numerator ring of K for the domain's elements."""
    if isinstance(domain.one, RatFuncElement):
        return _Polynomials(domain.field.p)
    return _Integers(domain.field.p)


def _step(ring, a, b, j, k) -> list[list]:
    """The fraction-free division step: (lb/g) a - (la/g) X^k b, content
    stripped, where la and lb are the last coefficients of a_j and b_j.

    It is the Euclidean step a - (la/lb) X^k b times the nonzero lb/g.
    """
    s, t = ring.cofactors(a[j][-1], b[j][-1])
    return ring.strip([ring.sub(s, x, t, k, y) for x, y in zip(a, b)])


def _weak_popov(ring, rows, shift):
    """Shifted weak Popov form of the K[X]-span of ``rows``, tails carried.

    A row is a list of coefficient lists over ``ring``: its first len(shift)
    components are its head, the rest its tail, which is carried through
    every step but never decides one.  The shifted degree of a nonzero head
    is the largest deg a_j + shift[j], and its leading position the last j
    attaining it (``_lead``); a family is in shifted weak Popov form when
    the leading positions are pairwise distinct.  Rows are inserted one at
    a time.  While the incoming row a shares its leading position j with a
    basis row b, the one of higher shifted degree (say a) takes the simple
    transformation (``_step``) a <- (lb/g) a - (la/g) X^(d - e) b, with d, e
    the shifted degrees, la, lb the last coefficients of a_j, b_j and g
    their gcd in the ring; this lowers its shifted degree or its leading
    position.  Each step lowers one row in a well-founded order, so the
    loop ends, and every step is invertible over K[X], so the rows keep
    spanning the same module.

    Returns the rows with a nonzero head, in the order of their leading
    positions, and the rows whose head reduced to zero.
    """
    basis: dict[int, tuple[int, list]] = {}
    zero_heads = []
    for a in rows:
        while (lead := _lead(a, shift)) and lead[1] in basis:
            d, j = lead
            e, b = basis[j]
            if e > d:
                basis[j] = (d, a)
                a, d, b, e = b, e, a, d
            a = _step(ring, a, b, j, d - e)
        if lead:
            basis[lead[1]] = (lead[0], a)
        else:
            zero_heads.append(a)
    return [b for _, (_, b) in sorted(basis.items())], zero_heads


def _lead(row, shift):
    """Shifted degree and leading position of the head of a row; None if it is zero."""
    return max(((len(c) - 1 + s, j) for j, (c, s) in enumerate(zip(row, shift)) if c),
               default=None)


def _x_shifts(vectors, bound) -> list[PolyVec]:
    """The X-shifts X^r v of the vectors with deg (X^r v)_j <= bound_j for every j.

    ``bound`` is one int for every component or a per-component list.
    """
    out = []
    for v in vectors:
        bounds = [bound] * v.n if isinstance(bound, int) else bound
        top = min((b - len(c) + 1 for b, c in zip(bounds, v.comps) if c), default=-1)
        for _ in range(top + 1):
            out.append(v)
            v = v.shift_x()
    return out


def _kx_slice(domain, ring, rows, bounds) -> list[PolyVec]:
    """Canonical V-basis of the saturated K[X]-span of rows on deg f_j <= bounds[j].

    ``rows`` are rows over the numerator ring ``ring`` of the domain.

    Under the shift -bounds a vector's shifted degree is at most 0 exactly
    when it lies in the slice.  A shifted weak Popov basis b_1..b_k has
    K-independent leading coefficient vectors, which gives the shifted
    predictable-degree property sdeg(sum q_i b_i) = max(deg q_i + sdeg b_i):
    an element of the slice has deg q_i <= -sdeg b_i.  So the X^r b_i with
    r <= -sdeg b_i, the ``_x_shifts`` within the bounds, are a K-basis of the
    K[X]-span's part in the slice, and one Smith reduction (``_slice_basis``)
    intersects it with V[X]^n.
    """
    basis, _ = _weak_popov(ring, rows, [-b for b in bounds])
    basis = [PolyVec.from_packed(domain, b, ring.one) for b in basis]
    return _slice_basis(_x_shifts(basis, bounds), bounds)


def _slice_basis(F, bound) -> list[PolyVec]:
    """Canonical V-basis of (K-span of F) on a slice that holds every f in F.

    ``bound`` is one degree bound or a per-component list.  Each vector is
    scaled into V by a uniformizer power, which changes no saturation.
    """
    F = [f for f in F if not f.is_zero()]
    if not F:
        return []
    domain, n = F[0].domain, F[0].n
    positions = _slice_positions(n, bound)
    cols = [_scale_into_v(_to_coords(f, positions), domain) for f in F]
    return [_from_coords(domain, n, positions, c) for c in _saturate(cols, domain)]


# ---------------------------------------------------------------------------
# Public oracles.  Each passes its vectors, taken together, through
# ``uniform_family``, so a mixed family raises MixedFamily.

# How far ``in_vx_span`` and the verifier's cut reach above the slice bound.
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
    F = uniform_family(F)
    for f in F:
        if f.degree() > D:
            raise DegreeExceeded(f"degree {f.degree()} exceeds slice bound {D}")
    return _slice_basis(F, D)


def in_v_span(cols, vectors) -> bool:
    """Whether every vector lies in the V-span of the given PolyVec columns."""
    cols = list(cols)
    vectors = list(vectors)
    uniform_family(cols + vectors)
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
    generators = list(generators)
    vectors = list(vectors)
    uniform_family(generators + vectors)
    gens = [g for g in generators if not g.is_zero()]
    if not vectors:
        return True
    if not gens:
        return all(v.is_zero() for v in vectors)
    for extra in range(_MAX_EXTRA + 1):
        if in_v_span(_x_shifts(gens, bound + extra), vectors):
            return True
    return False


def saturation_slice(S, D: int) -> list[PolyVec]:
    """Canonical V-basis of Sat(V[X]-span(S)) on the degree-D slice.

    The saturation of the V[X]-span of S is its K[X]-span intersected with
    V[X]^n.  A degree-<=D element of the K[X]-span may need witnesses of
    higher degree (combinations whose high terms cancel), so the slice is
    not read off the shifts of S themselves but off those of its weak Popov
    K[X]-basis (``_kx_slice`` with the bound D on every component).

    Cost: the reduction makes at most |S| * n * (deg S + 1) simple
    transformations of O(n * deg S) K-operations each; the Smith step works
    on at most n(D+1) columns of length n(D+1).
    """
    S = [v for v in uniform_family(S) if not v.is_zero()]
    if not S:
        return []
    domain = S[0].domain
    ring = _ring(domain)
    return _kx_slice(domain, ring, [v.nums for v in S], [D] * S[0].n)


def kx_kernel(U) -> list[PolyVec]:
    """K[X]-basis of the syzygies {f in K[X]^n : sum_j f_j u_j = 0} of u_1..u_n.

    Each row (u_j | e_j) of U beside the n-by-n identity is reduced to weak
    Popov form on its u part (``_weak_popov`` with the zero shift), the e
    part riding along as the tail.  The steps are invertible over K[X], so
    the tails stay a K[X]-basis of K[X]^n, and the heads left nonzero are
    K[X]-independent.  A kernel vector is a combination of the tails whose
    heads combine to zero, so of the rows whose head reduced to zero alone:
    their tails are the kernel basis returned, each divided by its first
    nonzero coefficient: packed over it, made positive over Z and 1 over
    F_p, as ``textio.render_vector`` needs.
    """
    U = uniform_family(U)
    if not U:
        return []
    domain = U[0].domain
    ring = _ring(domain)
    out = []
    for tail in _kernel_rows(ring, U):
        lead, p = next(x for comp in tail for x in comp if x), ring.p
        if type(lead) is int and p:
            inv = pow(lead, -1, p)
            tail, lead = [[x * inv % p for x in c] for c in tail], 1
        elif type(lead) is int and lead < 0:
            tail, lead = [[-x for x in c] for c in tail], -lead
        out.append(PolyVec.from_packed(domain, tail, lead))
    return out


def _kernel_rows(ring, U) -> list[list]:
    """``kx_kernel`` of a nonempty U as rows over ``ring``, not normalised.

    Each row (u_j | e_j) is cleared of denominators as a whole, so its tail
    starts as D_j e_j.
    """
    k, n = U[0].n, len(U)
    rows = [u.nums + [[u.den] if i == j else [] for i in range(n)] for j, u in enumerate(U)]
    _, kernel = _weak_popov(ring, rows, [0] * k)
    return [row[k:] for row in kernel]


def brute_syzygies(U, D: int) -> list[PolyVec]:
    """Canonical V-basis of the degree-bounded slice of the syzygy module.

    U is the family u_1..u_n in V[X]^k.  The slice holds the syzygies f
    with deg(f_j) <= B_j = D + d_U - deg(u_j) (d_U the largest degree in U),
    i.e. every product stays within degree D + d_U.  The syzygy module is
    the saturation of the K[X]-kernel, so the slice is that of
    ``kx_kernel(U)`` under the per-component bounds B (``_kx_slice``): its
    weak Popov form under the shift -B, whose X-shifts within the bounds are
    a K-basis of the kernel's slice, then one Smith reduction over V.
    """
    U = uniform_family(U)
    if not U:
        return []
    ring = _ring(U[0].domain)
    kernel = _kernel_rows(ring, U)
    if not kernel:
        return []
    d_u = max(max(u.degree(), 0) for u in U)
    bounds = [D + d_u - max(u.degree(), 0) for u in U]
    return _kx_slice(U[0].domain, ring, kernel, bounds)


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


# ---------------------------------------------------------------------------
# Verification by residue rank.  Coordinates of a vector on a slice are a
# sparse dict {r * n + (j - 1): entry}, the entry at X^r f_j.

def verify_saturation(M, generators, bound: int) -> bool:
    """Whether V[X]-span(generators) is Sat(V[X]-span(M)) on the slice deg <= bound.

    N = K[X]-span(M), W is the slice with ``bound`` on every component and
    the criterion is the module docstring's.
    """
    M, generators = list(M), list(generators)
    vectors = uniform_family(M + generators)
    if not vectors:
        return True
    domain = vectors[0].domain
    ring = _ring(domain)
    rows = [v.nums for v in M if not v.is_zero()]
    return _saturation_on_slice(domain, ring, rows, generators, [bound] * vectors[0].n)


def verify_syzygies(U, generators, bound: int) -> bool:
    """Whether V[X]-span(generators) is the syzygy module of U on its slice.

    The syzygy module is the saturation of N = ``kx_kernel(U)``, and the
    slice is that of ``brute_syzygies``: deg f_j <= bound + d_U - deg u_j.
    Every generator must lie in the slice.  A generator that divides out by
    the weak Popov basis of ``kx_kernel(U)`` lies in its K[X]-span, so it is
    a syzygy; no separate U·f = 0 check is made.  With no generators the
    verdict is exact and ignores ``bound``: the K[X]-kernel must be zero.
    """
    U = uniform_family(U)
    generators = uniform_family(generators)
    if not U:
        return not generators
    ring = _ring(U[0].domain)
    kernel = _kernel_rows(ring, U)
    if not generators:
        return not kernel
    if generators[0].n != len(U):
        return False
    d_u = max(max(u.degree(), 0) for u in U)
    bounds = [bound + d_u - max(u.degree(), 0) for u in U]
    if any(len(c) > b + 1 for g in generators for c, b in zip(g.comps, bounds)):
        return False
    return _saturation_on_slice(U[0].domain, ring, kernel, generators, bounds)


def verify_free(vectors, basis, bound: int | None = None) -> bool:
    """Whether the V-span of ``basis`` is the saturation of the V-span of
    ``vectors`` on the slice deg <= bound, with no X-shifts.

    ``bound`` defaults to the largest degree of the vectors, 0 when all are
    zero.  DegreeExceeded when an input vector does not fit the slice.  The
    basis must lie in the slice, in V and in the K-span of the vectors, and
    its residue rank must be the K-rank of the vectors.
    """
    vectors = list(vectors)
    if bound is None:
        bound = max([0, *(v.degree() for v in vectors)])
    family = uniform_family(vectors + list(basis))
    for v in vectors:
        if v.degree() > bound:
            raise DegreeExceeded(f"degree {v.degree()} exceeds slice bound {bound}")
    if not family:
        return True
    domain, n = family[0].domain, family[0].n
    if any(b.degree() > bound or not _in_v(b) for b in basis):
        return False
    ring = _ring(domain)
    pivots = _echelon(ring, (_flat_row(ring, v) for v in vectors))
    return (not any(_eliminate(ring, _flat_row(ring, b), pivots)[0] for b in basis)
            and _residue_rank_reaches(domain, [_coords(b, n) for b in basis], len(pivots)))


def _saturation_on_slice(domain, ring, rows, generators, bounds) -> bool:
    """The criterion of the module docstring for N = K[X]-span(rows) on W =
    bounds, ``rows`` over the numerator ring ``ring``."""
    shift = [-b for b in bounds]
    basis, _ = _weak_popov(ring, rows, shift)
    leads = {j: (d, b) for b in basis for d, j in [_lead(b, shift)]}
    r = sum(1 - d for d, _ in leads.values() if d <= 0)
    gens = [g for g in generators if not g.is_zero()]
    if not all(_in_v(g) and _divides_out(ring, leads, shift, g.nums)
               for g in gens):
        return False
    n = len(bounds)
    # X^r g has the coordinates of g, each index moved up by r * n; r runs
    # up to top(g) + e, top(g) the largest shift that fits the bounds.
    coords = [(_coords(g, n), min(b - len(c) + 1 for b, c in zip(bounds, g.comps) if c))
              for g in gens]
    for e in range(_MAX_EXTRA + 1):
        outer = [k * n + j for j, b in enumerate(bounds) for k in range(b + 1, b + e + 1)]
        shifts = [{i + r * n: x for i, x in c.items()} if r else c
                  for c, top in coords for r in range(top + e + 1)]
        cut = _cut(shifts, outer)
        if len(cut) >= r and _residue_rank_reaches(domain, cut, r):
            return True
    return False


def _in_v(v: PolyVec) -> bool:
    return all(x.in_domain for c in v.comps for x in c if x)


def _divides_out(ring, leads, shift, a) -> bool:
    """Whether the row a lies in the K[X]-span of a shifted weak Popov basis.

    ``leads`` maps each leading position of the basis to its row and shifted
    degree.  A nonzero element of the span has the leading position of a
    basis row b_i of shifted degree at most its own (predictable degree),
    so the division below cancels a's leading term with that row
    (``_step``), which lowers (shifted degree, leading position), until a is
    zero (a member) or no row fits (not a member).  The basis stays fixed:
    no row is swapped in.
    """
    while lead := _lead(a, shift):
        d, j = lead
        if j not in leads or leads[j][0] > d:
            return False
        e, b = leads[j]
        a = _step(ring, a, b, j, d - e)
    return True


def _coords(v: PolyVec, n: int) -> dict:
    """The nonzero coordinates of v."""
    return {r * n + j: x for j, c in enumerate(v.comps) for r, x in enumerate(c) if x}


def _flat_row(ring, v: PolyVec) -> list[list]:
    """The numerators of v as a row of one component over ``ring``: the
    entry at X^r f_j at r * n + (j - 1), trailing zeros trimmed."""
    nums = v.nums
    top = max(len(c) for c in nums)
    out = [c[r] if r < len(c) else ring.zero for r in range(top) for c in nums]
    while out and not out[-1]:
        out.pop()
    return [out]


def _cut(rows, outer) -> list[dict]:
    """V-generators of the part of the V-span of rows that vanishes on ``outer``.

    Each position in turn takes the row of minimal valuation there as its
    pivot, clears the position from every other row and leaves the family.
    The steps are unimodular over V, and the pivots form a triangle on the
    positions, so a V-combination that vanishes on them uses no pivot.
    """
    for at in outer:
        live = [row for row in rows if at in row]
        if not live:
            continue
        pivot = min(live, key=lambda row: row[at].valuation())
        lead = pivot[at]
        rows = [_sub_row(dict(row), row[at] / lead, pivot) if at in row else row
                for row in rows if row is not pivot]
    return rows


def _sub_row(row, c, other) -> dict:
    """row -= c * other in place, dropping the entries that cancel."""
    for k, x in other.items():
        y = row[k] - c * x if k in row else -(c * x)
        if y:
            row[k] = y
        else:
            del row[k]
    return row


def _residue_map(domain):
    """The characteristic p of the residue field k (0 for Q) and the map V -> k.

    A residue is an int mod p, or over Q a pair of ints (num, den).  It
    reads the element fields: the p-adic ``value`` of ``zp:p``, the
    ``value`` itself over a trivially valued field, and the value at t = 0
    of ``num / den`` over ``rft0``, where an element of V has den(0) != 0.
    """
    if isinstance(domain.one, RatFuncElement):
        p = domain.field.p
        if p:
            return p, lambda x: x.num[0] * pow(x.den[0], -1, p) % p
        return 0, lambda x: (x.num[0], x.den[0])
    q = domain.p
    if q:
        return q, lambda x: x.value.numerator * pow(x.value.denominator, -1, q) % q
    if domain.field.p:
        return domain.field.p, lambda x: x.value
    return 0, lambda x: (x.value.numerator, x.value.denominator)


def _residue_rank_reaches(domain, rows, r: int) -> bool:
    """Whether the residue rows of rows (entries in V) have rank at least r.

    The rank is exact: mod p over F_p, and over Q by the step over Z on the
    rows cleared of denominators (``_echelon``).
    """
    p, residue = _residue_map(domain)
    flat = []
    for row in rows:
        if not row:
            continue
        out = [0] * (max(row) + 1)
        if p:
            for k, x in row.items():
                out[k] = residue(x)
        else:
            pairs = [(k, residue(x)) for k, x in row.items()]
            D = lcm(*(d for _, (_, d) in pairs))
            for k, (a, d) in pairs:
                out[k] = a * (D // d)
        while out and not out[-1]:
            out.pop()
        flat.append([out])
    return len(_echelon(_Integers(p), flat)) >= r


def _echelon(ring, rows) -> dict:
    """Echelon form of one-component rows over ``ring``, keyed by the index
    of each row's last entry.  The number of rows returned is the rank."""
    pivots = {}
    for row in rows:
        row = _eliminate(ring, row, pivots)
        if row[0]:
            pivots[len(row[0]) - 1] = row
    return pivots


def _eliminate(ring, row, pivots) -> list:
    """row reduced by ``_echelon`` rows (``_step``) until its last index is no
    pivot; it is zero when the row lies in their K-span."""
    while row[0] and (b := pivots.get(len(row[0]) - 1)):
        row = _step(ring, row, b, 0, 0)
    return row
