import random
from fractions import Fraction

import pytest

from valsat import _poly, oracle
from valsat._ratkernel import numerator_ring
from valsat.errors import InvalidIterationCap, ZeroVector
from valsat.polyvec import PolyVec
from valsat.syzygy import (
    _kernel_kx_generic,
    _step,
    apply_columns,
    kernel_kx,
    primitive_scale,
    scaled_kernel,
    syzygy_vx,
)
from valsat.valuation import RationalFunctionsAtZero, TrivialField, Zp

Z2 = Zp(2)
Z3 = Zp(3)

# One domain of each kind with the characteristic of its quotient field K.
KINDS = (
    (Z2, 0),
    (Z3, 0),
    (TrivialField("q"), 0),
    (TrivialField("fp", 5), 5),
    (RationalFunctionsAtZero("q"), 0),
    (RationalFunctionsAtZero("fp", 3), 3),
)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def kx(domain, rows):
    """Columns u_1..u_n of the matrix whose rows list the coefficients of each entry."""
    return [
        PolyVec(domain, [[domain.k_element(c) for c in row[j]] for row in rows])
        for j in range(len(rows[0]))
    ]


def xp(domain, coeffs):
    return tuple(domain.k_element(c) for c in coeffs)


def eval_residual(U, sol):
    """sum_j sol_j u_j over K[X], one component polynomial per row."""
    from valsat._poly import add, mul, trim

    domain = U[0].domain
    out = []
    for i in range(U[0].n):
        acc: tuple = ()
        for u, s in zip(U, sol):
            acc = add(domain, acc, mul(domain, u.comps[i], trim(s)))
        out.append(acc)
    return out


def test_kernel_single_row_examples():
    U = kx(Z2, [[[0, 1], [2]]])  # [X  2]
    basis = kernel_kx(U)
    assert len(basis) == 1
    s = basis[0]
    assert all(not r for r in eval_residual(U, s))
    # up to a K[X] unit this is (1, -X/2); leading normalization makes it exact
    assert s[0] == xp(Z2, [1])
    assert s[1] == xp(Z2, [0, Fraction(-1, 2)])

    assert kernel_kx(kx(Z2, [[[1]]])) == []

    basis = kernel_kx(kx(Z2, [[[0, 1], [0, 1]]]))  # [X  X]
    assert basis == [(xp(Z2, [1]), xp(Z2, [-1]))]


def test_kernel_of_no_columns_is_empty():
    assert kernel_kx([]) == []
    assert scaled_kernel([]) == []


# One domain per numerator ring of the packed kernel_kx: Z (zp:p, field:q),
# residues (field:p), Z[t] (rft0:q) and F_p[t] (rft0:p).
PACKED = (Z2, TrivialField("q"), TrivialField("fp", 5), RationalFunctionsAtZero("q"),
          RationalFunctionsAtZero("fp", 3))


def _same_as_generic(U):
    basis = kernel_kx(U)
    assert basis == _kernel_kx_generic(U)
    return basis


@pytest.mark.parametrize("dom", PACKED, ids=lambda d: d.tag)
def test_kernel_of_zero_matrix_is_the_identity(dom):
    U = kx(dom, [[[], [], []], [[], [], []]])
    one, zero = xp(dom, [1]), xp(dom, [])
    assert _same_as_generic(U) == [(one, zero, zero), (zero, one, zero),
                                   (zero, zero, one)]


@pytest.mark.parametrize("dom", PACKED, ids=lambda d: d.tag)
def test_kernel_of_one_zero_column_is_its_unit_vector(dom):
    U = kx(dom, [[[1], [], [0, 1]], [[0, 1], [], [3]]])  # [1 0 X; X 0 3]
    assert _same_as_generic(U) == [(xp(dom, []), xp(dom, [1]), xp(dom, []))]


@pytest.mark.parametrize("dom", PACKED, ids=lambda d: d.tag)
def test_kernel_of_injective_tall_matrix_is_empty(dom):
    U = kx(dom, [[[1], [0, 1]], [[], [1]], [[0, 1], []]])  # k = 3 > n = 2
    assert _same_as_generic(U) == []


@pytest.mark.parametrize("dom", (Z2, TrivialField("q"), TrivialField("fp", 2 ** 64 + 13)),
                         ids=lambda d: d.tag)
def test_kernel_with_numerators_above_2_64(dom):
    # [a X + b  c] with a, b, c above 2^64 and a common factor 2^70 + 1: the
    # kernel is (1, -(a X + b)/c), whatever content the reduction strips.
    big = 2 ** 70 + 1
    a, b, c = big * (2 ** 65 + 3), big * 3 ** 45, big * 5 ** 30
    U = kx(dom, [[[b, a], [c]]])
    ratio = [-dom.k_element(b) / dom.k_element(c), -dom.k_element(a) / dom.k_element(c)]
    assert _same_as_generic(U) == [(xp(dom, [1]), tuple(ratio))]
    # Two rows and a third column make the steps scale and strip repeatedly.
    U = kx(dom, [[[b, a], [c], [a, 0, c]], [[c, 1], [a, b], [b]]])
    basis = _same_as_generic(U)
    assert len(basis) == 1
    assert all(not r for r in eval_residual(U, basis[0]))


# A hand-worked packed reduction over Z[t] (rft0:q) and F_5[t] (rft0:5).
# u_1 = (1 + t)/(1 - t) and u_2 = 1/(1 - t) have the monic denominator
# t - 1, so they pack as the stacked columns
#   col1 = [-1 - t; t - 1; 0],  col2 = [-1; 0; t - 1]
# (numerators over D = t - 1, the identity part D e_j).  Both have degree 0
# in X, so col1 is the pivot: la = -1, lb = -1 - t, g = 1, and the step
# multiplies col2 by the non-unit s = lb/g = -1 - t of the numerator ring:
#   (-1 - t) col2 + col1 = [0; t - 1; 1 - t^2].
# Its numerators share t - 1, which the strip divides out: [0; 1; -1 - t].
# So the kernel is spanned by (1, -1 - t), and indeed u_1 - (1 + t) u_2 = 0.
# Over F_5, -1 = 4, and the same columns have their coefficients mod 5.
@pytest.mark.parametrize("dom, cols, scaled, stripped", [
    (RationalFunctionsAtZero("q"),
     [[[(-1, -1)], [(-1, 1)], []], [[(-1,)], [], [(-1, 1)]]],
     [[], [(-1, 1)], [(1, 0, -1)]], [[], [(1,)], [(-1, -1)]]),
    (RationalFunctionsAtZero("fp", 5),
     [[[(4, 4)], [(4, 1)], []], [[(4,)], [], [(4, 1)]]],
     [[], [(4, 1)], [(1, 0, 4)]], [[], [(1,)], [(4, 4)]]),
], ids=["rft0:q", "rft0:5"])
def test_kernel_kx_hand_worked_over_polynomial_numerators(dom, cols, scaled, stripped):
    U = [PolyVec(dom, [[dom.k_element(([1, 1], [1, -1]))]]),
         PolyVec(dom, [[dom.k_element(([1], [1, -1]))]])]
    ring = numerator_ring(dom)
    stacked = []
    for j, u in enumerate(U):
        stacked.append(u.nums + [[u.den] if i == j else [] for i in range(2)])
    assert stacked == cols
    seen = []
    strip = ring.strip
    ring.strip = lambda comps: (seen.append(list(comps)), strip(comps))
    assert _step(ring)(stacked[1], stacked[0], 0) == stripped
    assert seen == [scaled]
    one, minus_one_minus_t = (dom.one,), (dom.k_element(([-1, -1], [1])),)
    assert _same_as_generic(U) == [(one, minus_one_minus_t)]


def test_fp_ring_quotients():
    """Over F_p the cofactors of (a, w) are (1, a/w) in residues: every
    step's s is 1, equal arguments give t = 1 and w = 1 gives t = a."""
    ring = numerator_ring(TrivialField("fp", 5))
    for a in range(1, 5):
        assert ring.cofactors(a, a) == (1, 1) and ring.cofactors(a, 1) == (1, a)
        for w in range(1, 5):
            s, t = ring.cofactors(a, w)
            assert s == 1 and t * w % 5 == a


def test_kernel_rank_and_exactness_random():
    rng = random.Random(43)
    for _ in range(240):
        dom, char = rng.choice(KINDS)
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [
            [[Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(0, 3))]
             for _ in range(n)]
            for _ in range(k)
        ]
        U = kx(dom, rows)
        basis = kernel_kx(U)
        assert len(basis) == n - _poly_rank(rows, char)
        for s in basis:
            assert all(not r for r in eval_residual(U, s))
            # primitive over K[X]: the kernel basis needs no gcd strip
            g: tuple = ()
            for e in s:
                g = euclid_gcd(dom, g, e)
            assert g == (dom.one,)


def euclid_gcd(F, a, b):
    """Monic gcd by Euclid's algorithm over the coefficient field F."""
    while b:
        a, b = b, _poly.divmod(F, a, b)[1]
    return tuple(F.div(x, a[-1]) for x in a)


def _poly_rank(rows, char=0):
    """Independent rank oracle: fraction-free elimination over Q[X] (char 0)
    or F_p[X] (char p, integer coefficients reduced mod p)."""

    def trim(p):
        p = [c % char for c in p] if char else list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    def pmul(a, b):
        if not a or not b:
            return []
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return trim(out)

    def psub(a, b):
        out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
        for i, y in enumerate(b):
            out[i] -= y
        return trim(out)

    M = [[trim([Fraction(c) for c in e]) for e in row] for row in rows]
    rank = 0
    rows_left = list(range(len(M)))
    cols_left = list(range(len(M[0]) if M else 0))
    while rows_left and cols_left:
        pr = pc = None
        for i in rows_left:
            for j in cols_left:
                if M[i][j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        rank += 1
        for i in rows_left:
            if i == pr or not M[i][pc]:
                continue
            M[i] = [psub(pmul(M[pr][pc], M[i][j]), pmul(M[i][pc], M[pr][j]))
                    for j in range(len(M[i]))]
        rows_left.remove(pr)
        cols_left.remove(pc)
    return rank


def test_primitive_scale_examples():
    v = (xp(Z2, [1]), xp(Z2, [0, Fraction(-1, 2)]))
    s = primitive_scale(v, Z2)
    assert s == vec(Z2, [2], [0, -1])

    v = (xp(Z2, [3]), xp(Z2, [0, 5]))
    assert primitive_scale(v, Z2) == vec(Z2, [3], [0, 5])

    v = (xp(Z3, [Fraction(1, 3)]), xp(Z3, [Fraction(1, 9)]))
    assert primitive_scale(v, Z3) == vec(Z3, [3], [1])

    with pytest.raises(ZeroVector):
        primitive_scale((xp(Z2, []), xp(Z2, [])), Z2)


def test_primitive_scale_scales_down():
    v = (xp(Z2, [2]), xp(Z2, [0, 4]))
    assert primitive_scale(v, Z2) == vec(Z2, [1], [0, 2])


def test_syzygy_worked_example():
    # u = (X, 2): every syzygy is (2h, -hX)
    U = [vec(Z2, [0, 1]), vec(Z2, [2])]
    res = syzygy_vx(U)
    assert len(res.generators) == 1
    b = res.generators[0]
    assert b == vec(Z2, [-2], [0, 1])
    assert all(not poly for poly in apply_columns(U, b))
    target = vec(Z2, [2], [0, -1])
    assert oracle.spans_equal([b], [target])


def test_syzygy_unit_entry():
    U = [vec(Z2, [1]), vec(Z2, [0, 1])]  # u = (1, X)
    res = syzygy_vx(U)
    assert len(res.generators) == 1
    b = res.generators[0]
    assert oracle.spans_equal([b], [vec(Z2, [0, 1], [-1])])
    assert all(not poly for poly in apply_columns(U, b))


def test_syzygy_injective_and_empty():
    assert syzygy_vx([vec(Z2, [1])]).generators == []
    assert syzygy_vx([]).generators == []
    assert scaled_kernel([]) == []


@pytest.mark.parametrize("cols", [[[0, 1]], [[0, 1], [2]]], ids=["injective", "kernel"])
def test_syzygy_cap_is_checked_before_any_work(cols):
    """max_iter=0 is refused whether or not U has a nonzero kernel."""
    U = [vec(Z2, c) for c in cols]
    with pytest.raises(InvalidIterationCap):
        syzygy_vx(U, max_iter=0)


def test_syzygy_scaling_invariance():
    rng = random.Random(47)
    for _ in range(20):
        dom = rng.choice((Z2, Z3))
        k = rng.randrange(1, 3)
        n = rng.randrange(2, 4)
        U = [
            PolyVec.from_raw(
                dom,
                [[rng.randrange(-4, 5) for _ in range(rng.randrange(0, 3))]
                 for _ in range(k)],
            )
            for _ in range(n)
        ]
        unit = dom.element(Fraction(3, 7)) if dom.p != 3 else dom.element(Fraction(5, 7))
        scaled = [u.scale(unit) for u in U]
        B1 = syzygy_vx(U).generators
        B2 = syzygy_vx(scaled).generators
        assert oracle.spans_equal(B1, B2)


def test_syzygy_generators_against_oracle():
    rng = random.Random(53)
    done = 0
    while done < 25:
        dom = rng.choice((Z2, Z3))
        k = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        U = [
            PolyVec.from_raw(
                dom,
                [[rng.randrange(-4, 5) * dom.p ** rng.randrange(0, 2)
                  for _ in range(rng.randrange(0, 3))]
                 for _ in range(k)],
            )
            for _ in range(n)
        ]
        res = syzygy_vx(U)
        done += 1
        for b in res.generators:
            assert all(not poly for poly in apply_columns(U, b))
        if not res.generators:
            assert oracle.brute_syzygies(U, 2) == []
            continue
        k_final = res.trace[-1].k
        D = res.degree + k_final + 2
        reference = oracle.brute_syzygies(U, D)
        shifts = []
        top = max([v.degree() for v in reference] + [D])
        for b in res.generators:
            w = b
            while w.degree() <= top:
                shifts.append(w)
                w = w.shift_x()
        assert oracle.in_v_span(shifts, reference)
        assert oracle.in_v_span(reference, res.generators)
