import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import valsat
from valsat import _poly as dense, oracle
from valsat.echelon import saturate_free
from valsat.errors import DegreeExceeded, MixedFamily
from valsat.oracle import _x_shifts
from valsat.polyvec import PivotIndex, PolyVec, zero_vec
from valsat.syzygy import apply_columns, kernel_kx, syzygy_vx
from valsat.textio import parse_vector, render_vector
from valsat.valuation import RationalFunctionsAtZero, TrivialField, Zp
from valsat.vxsat import saturate_vx

Z2 = Zp(2)


def vec(domain, *comps):
    return PolyVec.from_raw(domain, comps)


def test_oracle_is_imported_on_first_use():
    """``import valsat`` leaves the oracle unloaded; the attribute loads it."""
    code = (
        "import sys, valsat\n"
        "assert 'valsat.oracle' not in sys.modules\n"
        "assert 'oracle' in valsat.__all__\n"
        "m = valsat.oracle\n"
        "assert m is sys.modules['valsat.oracle'] and m.__name__ == 'valsat.oracle'\n"
        "from valsat import oracle\n"
        "assert oracle is m\n"
    )
    src = str(Path(valsat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_brute_saturation_examples():
    out = oracle.brute_saturation([vec(Z2, [2], [0]), vec(Z2, [0], [3])], 0)
    assert out == [vec(Z2, [1], [0]), vec(Z2, [0], [1])]

    assert oracle.brute_saturation([], 3) == []

    out = oracle.brute_saturation([vec(Z2, [0, 2])], 2)
    assert out == [vec(Z2, [0, 1])]


def test_degree_bound_enforced():
    with pytest.raises(DegreeExceeded):
        oracle.brute_saturation([vec(Z2, [0, 0, 1])], 1)


def test_saturation_catches_non_echelon_combinations():
    # (1,1,1) = ((2,0,1) + (0,2,1)) / 2 lies in the saturation although a
    # naive rescaled row-echelon basis over K misses it.
    F = [vec(Z2, [2], [0], [1]), vec(Z2, [0], [2], [1])]
    out = oracle.brute_saturation(F, 0)
    assert oracle.in_v_span(out, [vec(Z2, [1], [1], [1])])
    assert oracle.spans_equal(out, list(saturate_free(F)))


def test_idempotence_and_canonical_output():
    rng = random.Random(19)
    for _ in range(40):
        dom = Zp(rng.choice((2, 3)))
        n = rng.randrange(1, 4)
        F = [
            PolyVec.from_raw(
                dom,
                [[Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(0, 2))]
                 for _ in range(n)],
            )
            for _ in range(rng.randrange(1, 5))
        ]
        out = oracle.brute_saturation(F, 1)
        assert oracle.brute_saturation(out, 1) == out


def test_monotone_in_degree():
    F = [vec(Z2, [2, 4])]
    small = oracle.brute_saturation(F, 1)
    shifted = F + [f.shift_x() for f in F]
    big = oracle.brute_saturation(shifted, 2)
    assert oracle.in_v_span(big, small)


def test_agreement_with_saturate_free_random():
    rng = random.Random(29)
    for _ in range(80):
        dom = Zp(rng.choice((2, 3, 5)))
        n = rng.randrange(1, 4)
        deg = rng.randrange(0, 3)
        F = [
            PolyVec.from_raw(
                dom,
                [[Fraction(rng.randrange(-20, 21), rng.choice((1, 7, 11)))
                  * dom.p ** rng.randrange(0, 2)
                  for _ in range(rng.randrange(0, deg + 2))]
                 for _ in range(n)],
            )
            for _ in range(rng.randrange(0, 5))
        ]
        nonzero = [f for f in F if not f.is_zero()]
        D = max([f.degree() for f in nonzero], default=0)
        reference = oracle.brute_saturation(F, D)
        G = list(saturate_free(F))
        assert oracle.spans_equal(reference, G)


def test_works_over_rational_functions():
    R = RationalFunctionsAtZero("q")
    t = R.uniformizer()
    F = [PolyVec(R, [(t, R.element(1))])]  # the single vector t + X
    out = oracle.brute_saturation(F, 1)
    assert oracle.spans_equal(out, list(saturate_free(F)))
    two = PolyVec(R, [(t * t,), (t,)])  # (t^2, t): content t divides out
    out = oracle.brute_saturation([two], 0)
    assert oracle.spans_equal(out, [PolyVec(R, [(t,), (R.element(1),)])])


def test_brute_syzygies_examples():
    U = [vec(Z2, [0, 1]), vec(Z2, [2])]  # u1 = X, u2 = 2 in V[X]^1
    out = oracle.brute_syzygies(U, 1)
    assert len(out) == 2
    assert oracle.in_v_span(out, [vec(Z2, [2], [0, -1])])
    assert oracle.in_v_span(out, [vec(Z2, [0, 2], [0, 0, -1])])

    assert oracle.brute_syzygies([vec(Z2, [1])], 3) == []

    out = oracle.brute_syzygies([vec(Z2, [0, 1]), vec(Z2, [0, 1])], 0)
    assert out == [vec(Z2, [1], [-1])]


def test_brute_syzygies_are_syzygies():
    from valsat.syzygy import apply_columns

    rng = random.Random(37)
    for _ in range(25):
        dom = Zp(rng.choice((2, 3)))
        k = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        U = [
            PolyVec.from_raw(
                dom,
                [[rng.randrange(-4, 5) for _ in range(rng.randrange(0, 3))]
                 for _ in range(k)],
            )
            for _ in range(n)
        ]
        out = oracle.brute_syzygies(U, 2)
        for f in out:
            assert all(not poly for poly in apply_columns(U, f))


def test_in_v_span_edges():
    assert oracle.in_v_span([], [zero_vec(Z2, 2)])
    assert not oracle.in_v_span([], [vec(Z2, [1], [0])])
    assert oracle.in_v_span([vec(Z2, [2], [0])], [vec(Z2, [4], [0])])
    assert not oracle.in_v_span([vec(Z2, [2], [0])], [vec(Z2, [1], [0])])
    # (2, 1) = 2 * (1, 1/2): the column's entry 1/2 has valuation -1, so the
    # pivot must be 1/2, not the first unit 1.
    col = PolyVec(Z2, [[Z2.one], [Z2.k_element(Fraction(1, 2))]])
    assert oracle.in_v_span([col], [vec(Z2, [2], [1])])
    assert not oracle.in_v_span([col], [vec(Z2, [1], [1])])


_ONE, _PAIR = vec(Z2, [1]), vec(Z2, [1], [1])  # widths 1 and 2


@pytest.mark.parametrize("call", [
    lambda: oracle.in_v_span([_ONE], [_PAIR]),
    lambda: oracle.spans_equal([_ONE], [_PAIR]),
    lambda: oracle.in_vx_span([_ONE], [_PAIR], 1),
    lambda: oracle.brute_saturation([_ONE, _PAIR], 1),
    lambda: oracle.saturation_slice([_ONE, _PAIR], 1),
    lambda: oracle.brute_syzygies([_ONE, _PAIR], 1),
    lambda: oracle.kx_kernel([_ONE, _PAIR]),
    lambda: oracle.in_v_span([_ONE], [vec(Zp(3), [1])]),
], ids=["in_v_span", "spans_equal", "in_vx_span", "brute_saturation",
        "saturation_slice", "brute_syzygies", "kx_kernel", "in_v_span-domains"])
def test_public_oracles_reject_mixed_families(call):
    with pytest.raises(MixedFamily):
        call()


def test_kx_kernel_examples():
    assert oracle.kx_kernel([]) == []
    assert oracle.kx_kernel([vec(Z2, [1])]) == []
    # u = (X, 2): X * 1 + 2 * (-X/2) = 0.
    U = [vec(Z2, [0, 1]), vec(Z2, [2])]
    (f,) = oracle.kx_kernel(U)
    assert f.scale(Z2.element(2)) == vec(Z2, [2], [0, -1])
    # A zero column is its own syzygy.
    assert oracle.kx_kernel([vec(Z2, [1]), vec(Z2, [])]) == [vec(Z2, [], [1])]


@pytest.mark.parametrize("d", [Z2, TrivialField("q"), RationalFunctionsAtZero("fp", 3)])
def test_in_v_span_outside_the_k_span(d):
    one = [d.one]
    assert not oracle.in_v_span([PolyVec(d, [one, []])], [PolyVec(d, [[], one])])
    cols = [PolyVec(d, [one, one]), PolyVec(d, [[d.zero, d.one], [d.zero, d.one]])]
    assert not oracle.in_v_span(cols, [PolyVec(d, [one, []])])
    assert oracle.in_v_span(cols, [PolyVec(d, [[d.one, d.one], [d.one, d.one]])])


def test_saturation_slice_sees_witnesses_of_high_degree():
    # (X^8 + 2, 1) - (X^8, 1) = (2, 0), so the K[X]-span is all of K[X]^2,
    # but (0, 1) needs X^8-shifts: every witness of degree <= 4 has degree 16.
    S = [vec(Z2, [0] * 8 + [1], [1]), vec(Z2, [2] + [0] * 7 + [1], [1])]
    out = oracle.saturation_slice(S, 4)
    units = [[0] * r + [1] for r in range(5)]
    assert out == [vec(Z2, e, []) for e in units] + [vec(Z2, [], e) for e in units]


# ---------------------------------------------------------------------------
# Properties over all five domain kinds.

KINDS = [
    Z2,
    TrivialField("q"),
    TrivialField("fp", 5),
    RationalFunctionsAtZero("q"),
    RationalFunctionsAtZero("fp", 3),
]
PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _families(draw, max_len=3, max_deg=2, domain=None):
    """A family of 1..max_len nonzero vectors of width 1..2 over ``domain``,
    or over one of KINDS when it is None.

    Coefficients carry uniformizer factors, so saturation has work to do.
    """
    d = domain or draw(st.sampled_from(KINDS))
    small = st.integers(-3, 3)
    if isinstance(d, RationalFunctionsAtZero):
        base = st.builds(lambda num, d0: d.element((num, [d0, 1])),
                         st.lists(small, max_size=2), st.sampled_from((1, 2)))
    else:
        base = st.builds(lambda a, b: d.element(Fraction(a, b)), small, st.sampled_from((1, 7)))
    coeff = st.builds(lambda c, k: c * _uniformizer_power(d, k), base, st.integers(0, 2))
    n = draw(st.integers(1, 2))
    family = [
        PolyVec(d, [draw(st.lists(coeff, max_size=max_deg + 1)) for _ in range(n)])
        for _ in range(draw(st.integers(1, max_len)))
    ]
    family = [v for v in family if not v.is_zero()]
    assume(family)
    return family


def _uniformizer_power(d, k):
    """pi^k for an integer k, with pi = 1 for a trivially valued field."""
    pi = d.uniformizer() or d.one
    out = d.one
    for _ in range(abs(k)):
        out = out * pi if k > 0 else out / pi
    return out


def _into_v(coords, d):
    """coords scaled by a power of the uniformizer so that they lie in V."""
    low = min((c.valuation() for c in coords if c), default=0)
    return [c * _uniformizer_power(d, -low) for c in coords] if low < 0 else coords


def shift_family_slice(S, D, E):
    """The degree-D slice as seen through the shifts of S of degree <= D + E.

    The K-span of those shifts is cut down to degree <= D by echelon
    elimination over K with every exponent above D placed first, so the
    echelon vectors pivoting at an exponent <= D span the cut; the cut is
    then saturated in V by ``brute_saturation``.
    """
    d, n = S[0].domain, S[0].n
    order = [PivotIndex(j, r) for r in range(D + E, -1, -1) for j in range(1, n + 1)]
    rows = []
    for f in _x_shifts(S, D + E):
        c = [f.coord(at) for at in order]
        for piv, b in sorted(rows, key=lambda row: row[0]):
            if c[piv]:
                q = c[piv] / b[piv]
                c = [x - q * y for x, y in zip(c, b)]
        piv = next((i for i, x in enumerate(c) if x), None)
        if piv is not None:
            rows.append((piv, c))
    low = []
    for piv, c in rows:
        if order[piv].exponent <= D:
            comps = [[d.zero] * (D + 1) for _ in range(n)]
            for (j, r), x in zip(order, _into_v(c, d)):
                if r <= D:
                    comps[j - 1][r] = x
            low.append(PolyVec(d, comps))
    return oracle.brute_saturation(low, D) if low else []


@PROPERTY
@given(_families(), st.integers(0, 2))
def test_saturation_slice_matches_shift_families(S, D):
    new = oracle.saturation_slice(S, D)
    # Cofactor-degree bound.  Let rho = rank S <= min(n, |S|) and d = deg S.
    # Keep rho rows of S of full rank: p solves sum p_j s_j = w on them iff
    # on all rows.  Pick a nonsingular rho x rho block B of those rows, with
    # deg det B <= rho*d.  Reducing the other cofactors mod det B keeps a
    # solution polynomial and leaves them of degree < rho*d; Cramer's rule on
    # B gives the rest degree <= max(D + (rho-1)*d, 2*rho*d - 1).  So every
    # w of degree <= D has a witness with deg(p_j s_j) <= D + (2*rho + 1)*d.
    n, d = S[0].n, max(v.degree() for v in S)
    big = (2 * min(n, len(S)) + 1) * d
    # Witnesses from finitely many shifts are K[X]-combinations, so every
    # restricted slice lies inside the exact one ...
    for E in range(big):
        assert oracle.in_v_span(new, shift_family_slice(S, D, E))
    # ... and by the bound the widest one is the exact one.
    assert shift_family_slice(S, D, big) == new


@PROPERTY
@given(_families(), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_weak_popov_leading_positions_are_distinct(S, shift):
    shift = shift[:S[0].n]
    ring = oracle._ring(S[0].domain)
    basis, _ = oracle._weak_popov(ring, [v.nums for v in S], shift)
    leads = [oracle._lead(b, shift)[1] for b in basis]
    assert len(set(leads)) == len(leads) <= S[0].n


def test_oracle_imports_no_other_algorithm():
    """The oracle writes its own K-layer step: of the package it imports
    only the polynomial helpers, the errors, the vectors and the elements,
    never the packed kernels (``_ratkernel``, ``_packed``) or the solvers."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
                imported.update([parts[0]] if node.module else
                                [alias.name for alias in node.names])
            elif node.module and node.module.split(".")[0] == "valsat":
                parts = node.module.split(".")
                imported.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] if "." in alias.name else alias.name
                            for alias in node.names if alias.name.split(".")[0] == "valsat")
    assert imported <= {"_poly", "errors", "polyvec", "valuation"}, imported


# The K-layer over K itself: the Euclidean steps a - (la/lb) X^k b on
# elements, which the oracle's fraction-free steps over a numerator ring
# must match up to a nonzero constant per row.

def _element_sub_shifted(d, a, c, k, b):
    """a - c X^k b for trimmed tuples of elements."""
    out = list(a) + [d.zero] * (len(b) + k - len(a))
    for i, x in enumerate(b):
        if x:
            out[i + k] = out[i + k] - c * x
    return dense.trim(out)


def _element_step(d, a, b, j, k):
    c = a[j][-1] / b[j][-1]
    return [_element_sub_shifted(d, x, c, k, y) for x, y in zip(a, b)]


def _element_weak_popov(d, rows, shift):
    basis, zero_heads = {}, []
    for a in rows:
        a = list(a)
        while (lead := oracle._lead(a, shift)) and lead[1] in basis:
            dd, j = lead
            e, b = basis[j]
            if e > dd:
                basis[j] = (dd, a)
                a, dd, b, e = b, e, a, dd
            a = _element_step(d, a, b, j, dd - e)
        if lead:
            basis[lead[1]] = (lead[0], a)
        else:
            zero_heads.append(a)
    return [b for _, (_, b) in sorted(basis.items())], zero_heads


def _element_divides_out(d, leads, shift, a):
    a = list(a)
    while lead := oracle._lead(a, shift):
        dd, j = lead
        if j not in leads or leads[j][0] > dd:
            return False
        e, b = leads[j]
        a = _element_step(d, a, b, j, dd - e)
    return True


def _proportional(d, row, elements):
    """Whether the ring row, read in K, is a nonzero multiple of ``elements``."""
    row = list(PolyVec.from_packed(d, row, oracle._ring(d).one).comps)
    x = next((x for c in row for x in c if x), None)
    y = next((y for c in elements for y in c if y), None)
    if x is None or y is None:
        return x is None and y is None
    c = x / y
    return row == [dense.trim(z * c for z in comp) for comp in elements]


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
def test_fraction_free_step_scales_the_whole_row(d):
    """(1, 2X), then (X^3, 3X^3): the step cancels 3X^3 against 2X, so over
    Z it multiplies the row by 2, the X^3 of the first component too."""
    one, two, three = (d.element(c) for c in (1, 2, 3))
    z = d.zero
    rows = [[(one,), (z, two)], [(z, z, z, one), (z, z, z, three)]]
    ring = oracle._ring(d)
    basis, kernel = oracle._weak_popov(ring, [PolyVec(d, r).nums for r in rows], [0, 0])
    ebasis, ekernel = _element_weak_popov(d, rows, [0, 0])
    assert not kernel and not ekernel
    assert [oracle._lead(b, [0, 0]) for b in basis] == [(3, 0), (1, 1)]
    assert all(_proportional(d, r, e) for r, e in zip(basis, ebasis))


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@PROPERTY
@given(data=st.data())
def test_fraction_free_k_layer_matches_elements(d, data):
    """Weak Popov form, division and K-rank over the numerator ring give the
    answers of the same reductions over K."""
    S = data.draw(_families(max_len=3, domain=d))
    n = S[0].n
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    ring = oracle._ring(d)
    # An extra zero component, so that the unit vector there lies outside
    # every span below.
    rows = [list(v.comps) + [()] for v in S]
    basis, kernel = oracle._weak_popov(ring, [PolyVec(d, r).nums for r in rows], shift)
    ebasis, ekernel = _element_weak_popov(d, rows, shift)
    assert [oracle._lead(b, shift) for b in basis] == [oracle._lead(b, shift) for b in ebasis]
    assert len(kernel) == len(ekernel)
    assert all(_proportional(d, r, e) for r, e in zip(basis + kernel, ebasis + ekernel))

    leads = {j: (e, b) for b in basis for e, j in [oracle._lead(b, shift)]}
    eleads = {j: (e, b) for b in ebasis for e, j in [oracle._lead(b, shift)]}
    coeff = st.sampled_from([d.zero, d.one, -d.one, d.one + d.one, _pi(d), d.one / _pi(d)])
    combo, kcombo = [()] * (n + 1), [()] * n
    for r in rows:
        q = data.draw(st.lists(coeff, max_size=3))
        combo = [dense.add(d, x, dense.mul(d, q, c)) for x, c in zip(combo, r)]
        c = data.draw(coeff)
        kcombo = [dense.add(d, x, dense.mul(d, (c,), y)) for x, y in zip(kcombo, r)]
    top = data.draw(st.integers(0, 2))
    outside = [()] * n + [(d.zero,) * top + (d.one,)]
    for comps, member in ((combo, True), ([dense.add(d, x, y) for x, y in zip(combo, outside)],
                                          False)):
        assert oracle._divides_out(ring, leads, shift, PolyVec(d, comps).nums) is member
        assert _element_divides_out(d, eleads, shift, comps) is member

    # verify_free's K-rank: the echelon form over the ring against plain
    # elimination over K, with a K-combination of S among the vectors.
    vectors = S + [PolyVec(d, kcombo)]
    flat = [[v.coord((j, r)) for r in range(v.degree() + 1) for j in range(1, n + 1)]
            for v in vectors]
    width = max(map(len, flat))
    rank = len(oracle._echelon(ring, [oracle._flat_row(ring, v) for v in vectors]))
    assert rank == _k_rank([f + [d.zero] * (width - len(f)) for f in flat])


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@PROPERTY
@given(data=st.data())
def test_kx_kernel_is_a_kernel_basis(d, data):
    U = data.draw(_families(max_len=4, domain=d))
    kernel = oracle.kx_kernel(U)
    for f in kernel:
        assert not f.is_zero() and not any(apply_columns(U, f))
        # Packed over its first nonzero coefficient, with the denominator
        # that the renderer needs: the text is that of the elements.
        assert render_vector(f) == ", ".join(dense.format_poly(c, "X") for c in f.comps)
    # Both are bases of the same free K[X]-module, computed by independent code.
    assert len(kernel) == len(kernel_kx(U))


@PROPERTY
@given(_families(max_len=4, max_deg=1))
def test_brute_saturation_matches_saturate_free_all_kinds(F):
    D = max(max(f.degree() for f in F), 0)
    out = oracle.brute_saturation(F, D)
    assert oracle.spans_equal(list(saturate_free(F)), out)
    assert oracle.brute_saturation(out, D) == out


# Differential tests: the algorithms against the oracle, in both directions,
# on every kind.  ``saturate_vx`` is checked as ``cli --verify`` checks it.
DIFFERENTIAL = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_saturate_vx_matches_saturation_slice(d, data):
    S = data.draw(_families(max_deg=1, domain=d))
    res = saturate_vx(S)
    D = res.degree + res.trace[-1].k + 2
    reference = oracle.saturation_slice(S, D)
    assert oracle.in_v_span(reference, _x_shifts(res.generators, D))
    assert oracle.in_vx_span(res.generators, reference, D)


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_syzygy_vx_matches_brute_syzygies(d, data):
    U = data.draw(_families(max_deg=1, domain=d))
    res = syzygy_vx(U)
    for f in res.generators:
        assert not any(apply_columns(U, f))
    if not res.generators:
        assert oracle.brute_syzygies(U, 2) == []
        return
    D = res.degree + res.trace[-1].k + 2
    reference = oracle.brute_syzygies(U, D)
    top = max([v.degree() for v in reference] + [D])
    assert oracle.in_vx_span(res.generators, reference, top)
    assert oracle.in_v_span(reference, res.generators)


def _k_rank(rows):
    """Rank over K of a list of coordinate rows, by plain elimination."""
    rank = 0
    while rows:
        pivot, *rows = rows
        j = next((j for j, x in enumerate(pivot) if x), None)
        if j is None:
            continue
        rank += 1
        rows = [[x - r[j] / pivot[j] * y for x, y in zip(r, pivot)] if r[j] else r
                for r in rows]
    return rank


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_brute_syzygies_is_the_saturated_kernel(d, data):
    U = data.draw(_families(max_deg=1, domain=d))
    D = data.draw(st.integers(0, 2))
    out = oracle.brute_syzygies(U, D)
    for f in out:
        assert not any(apply_columns(U, f))
    deg = max([f.degree() for f in out] + [0])
    assert oracle.brute_saturation(out, deg) == out
    # The kernel of the shift system has K-dimension |positions| - rank.
    d_u = max(u.degree() for u in U)
    positions = [(j, r) for j, u in enumerate(U) for r in range(D + d_u - u.degree() + 1)]
    image = [(i, e) for i in range(1, U[0].n + 1) for e in range(D + d_u + 1)]
    shifts = [[U[j].coord(PivotIndex(i, e - r)) if e >= r else d.zero for i, e in image]
              for j, r in positions]
    assert len(out) == len(positions) - _k_rank(shifts)


# ---------------------------------------------------------------------------
# ``verify_*``: the residue-rank criterion, against the slice references.

def _reference_saturation(M, gens, bound):
    """The verdict of the canonical slice basis and the bounded shift search."""
    reference = oracle.saturation_slice(M, bound)
    low = [g for g in gens if g.degree() <= bound]
    return oracle.in_v_span(reference, low) and oracle.in_vx_span(gens, reference, bound)


def _reference_syzygies(U, gens, bound):
    if not gens:
        return not oracle.kx_kernel(U)
    if any(any(apply_columns(U, f)) for f in gens):
        return False
    reference = oracle.brute_syzygies(U, bound)
    top = max([v.degree() for v in reference] + [bound])
    return (oracle.in_vx_span(gens, reference, top)
            and oracle.in_v_span(reference, gens))


def _reference_free(vectors, basis, bound):
    return oracle.spans_equal(basis, oracle.brute_saturation(vectors, bound))


def _pi(d):
    return d.uniformizer() or d.one


def _poly(d, *coeffs):
    """Coefficients given as powers of pi (None for 0), ascending in X."""
    return [d.zero if c is None else _uniformizer_power(d, c) for c in coeffs]


def _mutations(d, gens, outside):
    """(name, mutated generators): each is a wrong answer when every generator
    is needed and ``outside`` lies in V[X]^n but not in the saturation."""
    out = [(f"drop {i}", gens[:i] + gens[i + 1:]) for i in range(len(gens))]
    out.append(("add outside", gens + [outside]))
    if d.uniformizer() is not None:  # over a field every element is a unit
        for i, g in enumerate(gens):
            out.append((f"pi * {i}", gens[:i] + [g.scale(d.uniformizer())] + gens[i + 1:]))
            out.append((f"{i} / pi", gens[:i] + [g.scale(d.one / d.uniformizer())]
                        + gens[i + 1:]))
    return out


def _as_built(*families):
    """The families as given; each vector built from its elements; and each
    parsed from its text, in packed form.  The parsed form is left out when
    an entry lies outside V, which the parser rejects."""
    out = [families, tuple([PolyVec(v.domain, v.comps) for v in f] for f in families)]
    if all(oracle._in_v(v) for f in families for v in f):
        out.append(tuple([parse_vector(v.domain, render_vector(v)) for v in f]
                         for f in families))
    return out


# Each mutation test gives every verdict on the families as given, built
# from elements and parsed: the verdicts agree, ok on the answer and a
# mismatch on each mutation, dropped generators included.

@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
def test_verify_saturation_catches_each_mutation(d):
    # Sat(M) = V[X] (X, X + 1, 0) + V[X] (1, 0, X): both generators are
    # needed, and (0, 0, 1) is not in K[X] M.
    M = [PolyVec(d, [_poly(d, None, 1), _poly(d, 1, 1), []]),
         PolyVec(d, [_poly(d, 0), [], _poly(d, None, 0)])]
    res = saturate_vx(M)
    bound = res.degree + res.trace[-1].k + 2
    gens = list(res.generators)
    outside = PolyVec(d, [[], [], [d.one]])
    for name, wrong in [("none", gens), *_mutations(d, gens, outside)]:
        assert wrong is gens or not _reference_saturation(M, wrong, bound), name
        for M1, G1 in _as_built(M, wrong):
            assert oracle.verify_saturation(M1, G1, bound) == (wrong is gens), name


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
def test_verify_syzygies_catches_each_mutation(d):
    # u = (X, pi, X + pi): a syzygy module of rank 2; (1, 0, 0) is none.
    U = [PolyVec(d, [_poly(d, None, 0)]), PolyVec(d, [_poly(d, 1)]),
         PolyVec(d, [_poly(d, 1, 0)])]
    res = syzygy_vx(U)
    bound = res.degree + res.trace[-1].k + 2
    gens = list(res.generators)
    outside = PolyVec(d, [[d.one], [], []])
    for name, wrong in [("none", gens), *_mutations(d, gens, outside)]:
        assert wrong is gens or not _reference_syzygies(U, wrong, bound), name
        for U1, G1 in _as_built(U, wrong):
            assert oracle.verify_syzygies(U1, G1, bound) == (wrong is gens), name


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
def test_verify_free_catches_each_mutation(d):
    # The V-span of (pi, 0, 1) and (0, pi, 1) saturates to a rank-2 module
    # that (1, 0, 0) is not in.
    F = [PolyVec(d, [_poly(d, 1), [], _poly(d, 0)]), PolyVec(d, [[], _poly(d, 1), _poly(d, 0)])]
    basis = list(saturate_free(F))
    outside = PolyVec(d, [[d.one], [], []])
    for name, wrong in [("none", basis), *_mutations(d, basis, outside)]:
        assert wrong is basis or not _reference_free(F, wrong, 0), name
        for F1, B1 in _as_built(F, wrong):
            assert oracle.verify_free(F1, B1, 0) == (wrong is basis), name


def test_verify_syzygies_of_an_empty_family_is_a_mismatch():
    """With no vectors U every generator has the wrong width."""
    assert not oracle.verify_syzygies([], [vec(Z2, [1])], 0)
    assert oracle.verify_syzygies([], [], 0)


def test_verify_free_bound_defaults_to_the_input_degree():
    F = [vec(Z2, [2], [0, 0, 1]), vec(Z2, [], [])]
    basis = list(saturate_free(F))
    assert oracle.verify_free(F, basis) == oracle.verify_free(F, basis, 2) is True
    assert oracle.verify_free([vec(Z2, [], [])], [])
    with pytest.raises(DegreeExceeded, match="degree 2 exceeds slice bound 1"):
        oracle.verify_free(F, basis, 1)


def test_verify_free_reads_an_iterator_of_vectors_once():
    F = [vec(Z2, [2], [0, 0, 1])]
    assert not oracle.verify_free(iter(F), [], 2)
    assert oracle.verify_free(iter(F), saturate_free(F), 2)


def test_verify_saturation_needs_a_cut_above_the_bound():
    # Over field:7, V[X] (1, 3X + 6) + V[X] (0, X + 1) is all of K[X]^2.  On
    # the degree-1 slice, (0, X) = X (0, X + 1) - (0, X + 1) + (0, 1) needs
    # X (0, X + 1), which leaves the slice, so the check cuts one degree up.
    F7 = TrivialField("fp", 7)
    gens = [vec(F7, [1], [6, 3]), vec(F7, [], [1, 1])]
    assert oracle.verify_saturation(gens, gens, 1)
    assert not oracle.verify_saturation(gens, gens[:1], 1)



def test_verify_syzygies_needs_a_cut_above_the_bound(monkeypatch):
    # Over field:7, u = (1, 3X^2 + 4X + 3, 2) has d_U = 2 above deg u_1 =
    # deg u_3 = 0, so the slice at bound 0 is deg f <= (2, 0, 2).  The
    # generators' X-shifts fit it only at s = 0; witnesses of the slice
    # need shifts two degrees above it, where the per-component bounds
    # (2 + e, e, 2 + e) and the reference's uniform 2 + e differ.
    F7 = TrivialField("fp", 7)
    U = [vec(F7, [1]), vec(F7, [3, 4, 3]), vec(F7, [2])]
    gens = [vec(F7, [1, 6, 1], [2], []), vec(F7, [0, 1, 6], [5], [3])]
    assert oracle.verify_syzygies(U, gens, 0)
    assert _reference_syzygies(U, gens, 0)
    monkeypatch.setattr(oracle, "_MAX_EXTRA", 1)
    assert not oracle.verify_syzygies(U, gens, 0)

def _mutated(d, gens, n, draw):
    """One wrong-looking variant of gens: drop, scale by pi or 1/pi, double a
    component, or add a unit vector."""
    kind = draw(st.sampled_from(["drop", "pi", "inv_pi", "double", "add"]))
    i = draw(st.integers(0, len(gens) - 1))
    g = gens[i]
    if kind == "drop":
        return gens[:i] + gens[i + 1:]
    if kind == "add":
        j = draw(st.integers(0, n - 1))
        return gens + [PolyVec(d, [[d.one] if k == j else [] for k in range(n)])]
    if kind == "double":
        j = next(j for j, c in enumerate(g.comps) if c)
        two = d.one + d.one
        g = PolyVec(d, [[x * two for x in c] if k == j else c for k, c in enumerate(g.comps)])
    else:
        g = g.scale(_pi(d) if kind == "pi" else d.one / _pi(d))
    return gens[:i] + [g] + gens[i + 1:]


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_verify_saturation_matches_the_reference(d, data):
    S = data.draw(_families(max_deg=1, domain=d))
    res = saturate_vx(S)
    bound = res.degree + res.trace[-1].k + 2
    gens = list(res.generators)
    assert oracle.verify_saturation(S, gens, bound) == _reference_saturation(S, gens, bound)
    if gens:
        wrong = _mutated(d, gens, S[0].n, data.draw)
        assert not oracle.verify_saturation(S, wrong, bound) or _reference_saturation(
            S, wrong, bound)


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_verify_syzygies_matches_the_reference(d, data):
    U = data.draw(_families(max_deg=1, domain=d))
    res = syzygy_vx(U)
    gens = list(res.generators)
    bound = res.degree + res.trace[-1].k + 2 if gens else 0
    assert oracle.verify_syzygies(U, gens, bound) == _reference_syzygies(U, gens, bound)
    if gens:
        wrong = _mutated(d, gens, len(U), data.draw)
        assert not oracle.verify_syzygies(U, wrong, bound) or _reference_syzygies(
            U, wrong, bound)


@pytest.mark.parametrize("d", KINDS, ids=lambda d: d.tag)
@DIFFERENTIAL
@given(data=st.data())
def test_verify_free_matches_the_reference(d, data):
    F = data.draw(_families(max_len=4, max_deg=1, domain=d))
    bound = max(f.degree() for f in F)
    basis = list(saturate_free(F))
    assert oracle.verify_free(F, basis, bound) == _reference_free(F, basis, bound)
    wrong = _mutated(d, basis, F[0].n, data.draw)
    assert not oracle.verify_free(F, wrong, bound) or _reference_free(F, wrong, bound)
