import random
from fractions import Fraction

import pytest

from valsat import oracle
from valsat.errors import ZeroVector
from valsat.polyvec import PolyVec
from valsat.syzygy import (
    KPolyMatrix,
    apply_columns,
    kernel_kx,
    primitive_scale,
    scaled_kernel,
    syzygy_vx,
)
from valsat.valuation import Zp

Z2 = Zp(2)
Z3 = Zp(3)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def kx(domain, rows):
    return KPolyMatrix.from_raw(domain, rows)


def xp(domain, coeffs):
    return tuple(domain.k_element(c) for c in coeffs)


def eval_residual(U, sol):
    """U * sol over K[X], for kernels produced from a KPolyMatrix."""
    from valsat._poly import add, mul, trim

    domain = U.domain
    out = []
    for i in range(U.rows):
        acc: tuple = ()
        for j in range(U.cols):
            acc = add(domain, acc, mul(domain, U.entries[i][j], trim(sol[j])))
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


def test_kernel_rank_and_exactness_random():
    rng = random.Random(43)
    for _ in range(120):
        dom = rng.choice((Z2, Z3))
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [
            [[Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(0, 3))]
             for _ in range(n)]
            for _ in range(k)
        ]
        U = kx(dom, rows)
        basis = kernel_kx(U)
        assert len(basis) == n - _poly_rank(rows)
        for s in basis:
            assert all(not r for r in eval_residual(U, s))


def _poly_rank(rows):
    """Independent rank oracle: fraction-free elimination over Q[X]."""
    import math

    def trim(p):
        p = list(p)
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
