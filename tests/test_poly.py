"""Property tests of the dense univariate polynomial module ``valsat._poly``.

The coefficient fields are the two base fields of the rational-function
domain (plain ``Fraction`` and ``int`` mod 5) and two domains used as the
field K of K[X]: Z_(3) and F_5(t) at zero.  The last tests cover the int
tuples of the packed kernel's numerator rings Z[t] and F_p[t].
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from valsat import _poly
from valsat._ratkernel import Polynomials
from valsat.valuation import _GFp, _QQ, RationalFunctionsAtZero, Zp

Z3 = Zp(3)
RF5 = RationalFunctionsAtZero("fp", 5)
small = st.integers(-4, 4)

FIELDS = [
    (_QQ(), st.builds(Fraction, small, st.integers(1, 4))),
    (_GFp(5), st.integers(0, 4)),
    (Z3, st.builds(lambda n, d: Z3.k_element(Fraction(n, d)), small, st.integers(1, 9))),
    (RF5, st.builds(
        lambda num, den: RF5.from_polys(num, den),
        st.lists(st.integers(0, 4), max_size=2),
        st.sampled_from([(1,), (2,), (1, 1), (0, 1), (3, 0, 1)]),
    )),
]


@st.composite
def field_and_polys(draw, count):
    F, coeff = draw(st.sampled_from(FIELDS))
    polys = [
        _poly.trim(draw(st.lists(coeff, max_size=4))) for _ in range(count)
    ]
    return F, polys


def ref_trim(F, c):
    c = list(c)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def ref_coeffwise(F, op, a, b):
    n = max(len(a), len(b))
    a = list(a) + [F.zero] * (n - len(a))
    b = list(b) + [F.zero] * (n - len(b))
    return ref_trim(F, [op(x, y) for x, y in zip(a, b)])


def ref_mul(F, a, b):
    """Coefficient k of a*b as the convolution sum over i of a_i b_(k-i)."""
    if not a or not b:
        return ()
    out = []
    for k in range(len(a) + len(b) - 1):
        acc = F.zero
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            acc = F.add(acc, F.mul(a[i], b[k - i]))
        out.append(acc)
    return ref_trim(F, out)


PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(field_and_polys(2))
def test_ring_operations_match_schoolbook(fp):
    F, (a, b) = fp
    assert _poly.add(F, a, b) == ref_coeffwise(F, F.add, a, b)
    assert _poly.sub(F, a, b) == ref_coeffwise(F, F.sub, a, b)
    assert _poly.mul(F, a, b) == ref_mul(F, a, b)
    assert _poly.sub(F, a, a) == ()


@PROPERTY
@given(field_and_polys(2))
def test_divmod_is_euclidean_division(fp):
    F, (a, b) = fp
    assume(b)
    q, r = _poly.divmod(F, a, b)
    assert len(r) < len(b)
    assert _poly.add(F, _poly.mul(F, q, b), r) == a


QQ = _QQ()


def monic(F, a):
    """a divided by its leading coefficient; the zero polynomial unchanged."""
    return tuple(F.div(x, a[-1]) for x in a) if a else a


def euclid_gcd(F, a, b):
    """Monic gcd by Euclid's algorithm over the coefficient field F."""
    while b:
        a, b = b, _poly.divmod(F, a, b)[1]
    return monic(F, a)


def cleared(a):
    """The primitive integer associate of a polynomial over Q (a tuple of
    ``Fraction``s): the polynomial ring's own form of a over Z."""
    k = math.lcm(*(x.denominator for x in a))
    return tuple(_poly._primitive([x.numerator * (k // x.denominator) for x in a]))


def q_gcd(a, b):
    """The monic gcd over Q by ``igcd`` of the inputs cleared to Z."""
    g = _poly.igcd(cleared(a), cleared(b))
    assert all(type(x) is int for x in g)
    return monic(QQ, as_q(g))


def qpoly(*coeffs):
    return _poly.trim(tuple(Fraction(c) for c in coeffs))


BIG = 2**64 + 13
Q_GCD_CASES = {
    "both zero": ((), ()),
    "zero and constant": ((), qpoly(-3)),
    "zero and linear": (qpoly(2, -4), ()),
    "constants": (qpoly(6), qpoly("-4/9")),
    "constant and cubic": (qpoly(5), qpoly(1, 2, 0, 3)),
    "equal": (qpoly(1, "2/3", -1), qpoly(1, "2/3", -1)),
    "associates": (qpoly(2, 0, -6), qpoly("-1/3", 0, 1)),
    "coprime": (qpoly(1, 0, 1), qpoly(-1, 1)),
    "negative leads": (qpoly(2, -3, -1), qpoly(1, 1, -7, -5)),
    "big shared factor": (
        _poly.mul(QQ, qpoly(BIG, -3 * BIG + 1), qpoly(1, 1)),
        _poly.mul(QQ, qpoly(Fraction(BIG, 7), -3 * BIG + 1), qpoly(1, 1)),
    ),
    "big coprime": (qpoly(BIG, 1, -BIG), qpoly(Fraction(1, BIG), BIG**2)),
}


@pytest.mark.parametrize("a, b", Q_GCD_CASES.values(), ids=Q_GCD_CASES.keys())
def test_q_gcd_examples_match_euclid(a, b):
    assert q_gcd(a, b) == euclid_gcd(QQ, a, b) == q_gcd(b, a)


big = st.integers(-(2**70), 2**70)
q_coeff = st.one_of(
    st.builds(Fraction, small, st.integers(1, 4)),
    st.builds(Fraction, big, st.integers(1, 2**66)),
)


@PROPERTY
@given(*(st.lists(q_coeff, max_size=4) for _ in range(3)))
def test_q_gcd_matches_euclid(a, b, c):
    """The gcd over Z of the cleared inputs agrees with Euclid over
    Fractions, common factors, negative leading coefficients and huge
    coefficients included."""
    a, b, c = (_poly.trim(p) for p in (a, b, c))
    a, b = _poly.mul(QQ, a, c), _poly.mul(QQ, b, c)
    assert q_gcd(a, b) == euclid_gcd(QQ, a, b)


# ---------------------------------------------------------------------------
# The numerator rings Z[t] and F_p[t] of the packed kernel: tuples of ints.

P64 = 2**64 + 13  # a prime above 2^64
INT_GCD_CASES = {
    "both zero": ((), ()),
    "zero and constant": ((), (-3,)),
    "zero and linear": ((2, -4), ()),
    "constants": ((6,), (-4,)),
    "constant and cubic": ((5,), (1, 2, 0, 3)),
    "equal": ((3, 2, -3), (3, 2, -3)),
    "associates": ((2, 0, -6), (-1, 0, 3)),
    "coprime": ((1, 0, 1), (-1, 1)),
    "negative leads": ((2, -3, -1), (1, 1, -7, -5)),
    "shared factor and contents": (_poly.imul((4, 6), (1, 0, -1)),
                                   _poly.imul((-6, 9), (1, -1))),
    "big shared factor": (_poly.imul((BIG, -3 * BIG + 1), (1, 1)),
                          _poly.imul((7 * BIG, -3 * BIG + 1), (1, 1, 1))),
    "big coprime": ((BIG, 1, -BIG), (1, BIG**2)),
}


def zcontent(a):
    return math.gcd(*a)


def as_q(a):
    return tuple(Fraction(x) for x in a)


@pytest.mark.parametrize("a, b", INT_GCD_CASES.values(), ids=INT_GCD_CASES.keys())
def test_z_gcd_examples(a, b):
    """Over Z[t]: the monic gcd over Q times the gcd of the contents, with a
    positive leading coefficient, dividing both exactly."""
    g = _poly.igcd(a, b)
    assert g == _poly.igcd(b, a)
    if not a and not b:
        assert g == ()
        return
    assert g[-1] > 0 and zcontent(g) == math.gcd(zcontent(a or b), zcontent(b or a))
    assert monic(QQ, as_q(g)) == euclid_gcd(QQ, as_q(a), as_q(b))
    for x in (a, b):
        assert _poly.imul(_poly.iquo(x, g), g) == x


@pytest.mark.parametrize("p", (5, P64))
@pytest.mark.parametrize("a, b", INT_GCD_CASES.values(), ids=INT_GCD_CASES.keys())
def test_fp_gcd_examples(a, b, p):
    """Over F_p[t]: Euclid's monic gcd through the field object."""
    a, b = (_poly.trim(x % p for x in c) for c in (a, b))
    g = _poly.igcd(a, b, p)
    F = _GFp(p)
    assert g == euclid_gcd(F, a, b) == _poly.igcd(b, a, p)
    for x in (a, b):
        assert _poly.imul(_poly.iquo(x, g, p), g, p) == x if g else not x


zint = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
zpoly = st.lists(zint, max_size=4).map(_poly.trim)


@PROPERTY
@given(zpoly, zpoly, zpoly, st.sampled_from((0, 3, 5, P64)))
def test_int_ring_arithmetic(a, b, c, p):
    """imul, ilin, iquo and igcd over Z (p = 0) and F_p against ``_poly``
    and Euclid over Q and through ``_GFp``."""
    if p:
        a, b, c = (_poly.trim(x % p for x in y) for y in (a, b, c))
        F, lift = _GFp(p), tuple
    else:
        F, lift = QQ, as_q
    assert lift(_poly.imul(a, b, p)) == _poly.mul(F, lift(a), lift(b))
    assert lift(_poly.ilin(a, b, c, a, p)) == _poly.sub(
        F, _poly.mul(F, lift(a), lift(b)), _poly.mul(F, lift(c), lift(a)))
    if c:
        assert _poly.iquo(_poly.imul(a, c, p), c, p) == a
        ac, bc = _poly.imul(a, c, p), _poly.imul(b, c, p)
        g = _poly.igcd(ac, bc, p)
        assert monic(F, lift(g)) == euclid_gcd(F, lift(ac), lift(bc))
        # greatest: c divides it
        assert _poly.imul(_poly.iquo(g, c, p), c, p) == g


NORMALISE_CASES = {
    # Z[t]: -2t/3 and -4t^2/3 over the content -2t: h = -2t, so (1, 2t).
    "Z, negative content": (0, [[(0, -2), (0, 0, -4)]], (0, -2), [[(1,), (0, 2)]], (1,)),
    # Z[t]: (2 + 2t, 4) over the content 2 + 2t: h = 2, D = 1 + t.
    "Z, integer gcd": (0, [[(2, 2), (4,)]], (2, 2), [[(1, 1), (2,)]], (1, 1)),
    # Z[t]: (-1 - t, t^2 - 1) over -1 - t: h = -(1 + t), so (1, 1 - t).
    "Z, polynomial gcd": (0, [[(-1, -1)], [(-1, 0, 1)]], (-1, -1),
                          [[(1,)], [(1, -1)]], (1,)),
    # Z[t]: (1 - 2t, t) over 1 - 2t: the chain reaches 1, and h = -1
    # still makes the new D positive-leading.
    "Z, coprime, negative content": (0, [[(1, -2), (0, 1)]], (1, -2),
                                     [[(-1, 2), (0, -1)]], (-1, 2)),
    # F_5[t]: (3t, t) over 3t: h = 3t, and t / 3t = 2.
    "F_5, monic": (5, [[(0, 3), (0, 1)]], (0, 3), [[(1,), (2,)]], (1,)),
    # F_5[t]: (2 + t, 3) over 2 + t: coprime, D = 2 + t stays.
    "F_5, coprime": (5, [[(2, 1), (3,)]], (2, 1), [[(2, 1), (3,)]], (2, 1)),
}


@pytest.mark.parametrize("p, comps, c, want, want_d", NORMALISE_CASES.values(),
                         ids=NORMALISE_CASES.keys())
def test_lowest_terms_and_sign(p, comps, c, want, want_d):
    comps = [list(comp) for comp in comps]
    c = next(x for comp in comps for x in comp if x == c)
    assert Polynomials(p).normalise(comps, c) == want_d
    assert comps == want


# ---------------------------------------------------------------------------
# The two gcd methods over Z: the primitive PRS and GCDHEU, which ``_zgcd``
# picks by the length of the shorter input.

L = _poly._HEU_MIN_LEN


def signed(g):
    """g with a positive leading coefficient."""
    return [-x for x in g] if g[-1] < 0 else list(g)


@st.composite
def z_pair_with_shorter_length(draw, n, coeff=zint):
    """Integer polynomials a, b sharing a random factor c, with len(b) = n
    and len(a) >= n."""
    def poly(length):
        body = draw(st.lists(coeff, min_size=length - 1, max_size=length - 1))
        lead = draw(coeff.filter(bool))
        return tuple(body) + (lead,)
    k = draw(st.integers(1, n))
    c = poly(k)
    b = _poly.imul(poly(n - k + 1), c)
    a = _poly.imul(poly(draw(st.integers(n - k + 1, n - k + 4))), c)
    return a, b


@PROPERTY
@given(st.sampled_from((2, L - 1, L, L + 1, L + 4)).flatmap(z_pair_with_shorter_length))
def test_z_gcd_methods_agree_around_the_switch(ab):
    """Below, at and above the switch, the PRS and GCDHEU return the same
    primitive gcd, which is Euclid's over Q; ``igcd`` returns it times the
    gcd of the contents."""
    a, b = ab
    pa, pb = _poly._primitive(list(a)), _poly._primitive(list(b))
    want = signed(_poly._prs(pa, pb))
    heu = _poly._heu(pa, pb)  # None would leave the answer to the PRS
    assert heu is None or signed(heu) == want
    assert signed(_poly._zgcd(pa, pb)) == want
    assert monic(QQ, as_q(want)) == euclid_gcd(QQ, as_q(a), as_q(b))
    c = math.gcd(zcontent(a), zcontent(b))
    g = _poly.igcd(a, b)
    assert g == _poly.igcd(b, a) == (tuple(c * x for x in want) if len(want) > 1 else (c,))


@PROPERTY
@given(st.sampled_from((2, L - 1, L, L + 1, L + 4)).flatmap(
    lambda n: z_pair_with_shorter_length(n, st.builds(Fraction, big, st.integers(1, 2**66)))))
def test_q_gcd_by_either_method_matches_euclid(ab):
    """Over Q, with huge numerators and denominators, below, at and above
    the switch: ``igcd`` and both methods on the parts cleared to Z give
    Euclid's monic gcd."""
    a, b = (_poly.trim(p) for p in ab)
    want = euclid_gcd(QQ, a, b)
    assert q_gcd(a, b) == want
    pa, pb = list(cleared(a)), list(cleared(b))
    for g in (_poly._prs(pa, pb), _poly._heu(pa, pb)):
        if g is not None:
            assert (monic(QQ, as_q(g)) if len(g) > 1 else (QQ.one,)) == want


def test_zgcd_switches_at_the_measured_length(monkeypatch):
    """GCDHEU runs when the shorter input has at least L terms, the PRS below."""
    ran = []
    for name in ("_prs", "_heu"):
        method = getattr(_poly, name)
        monkeypatch.setattr(_poly, name, lambda a, b, m=method, n=name: ran.append(n) or m(a, b))
    # GCDHEU finds these gcds at its first point, so the PRS runs only below L
    x = [1, 1]
    for n in (L - 1, L, L + 1):
        ran.clear()
        b = list(_poly.imul((1,) * (n - 1), x))  # n terms
        assert signed(_poly._zgcd(list(_poly.imul(b, (2, 1))), b)) == signed(b)
        assert ran == (["_heu"] if n >= L else ["_prs"])


def test_gcdheu_falls_back_to_the_prs(monkeypatch):
    """When no evaluation point gives a candidate that divides, GCDHEU gives
    up after its tries and the PRS answers."""
    a = list(_poly.imul((3, -1, 4, 1, -5, 9), (2, 6, -5, 3)))
    b = list(_poly.imul((5, 8, -9, 7, 9), (2, 6, -5, 3)))
    want = signed(_poly._prs(list(a), list(b)))
    points = []
    monkeypatch.setattr(_poly, "_interpolate", lambda v, xi: points.append(xi) or [1] * 99)
    prs_calls = []
    prs = _poly._prs
    monkeypatch.setattr(_poly, "_prs", lambda a, b: prs_calls.append(1) or prs(a, b))
    assert _poly._heu(a, b) is None
    # three candidates (the gcd image and two cofactors) at every point
    assert len(points) == 3 * _poly._HEU_TRIES and len(set(points)) == _poly._HEU_TRIES
    assert signed(_poly._zgcd(a, b)) == want == [2, 6, -5, 3] and prs_calls
    assert list(_poly.igcd(tuple(a), tuple(b))) == want


def test_gcdheu_point_meets_the_bound(monkeypatch):
    """The first evaluation point is the least power of two at or above
    2 min(|a|, |b|) + 2; a point that is a root of one input is skipped,
    and the next one is no power of two."""
    seen = []
    real = _poly._eval
    monkeypatch.setattr(_poly, "_eval", lambda a, xi: seen.append(xi) or real(a, xi))
    # b = X + 1 has norm 1, so xi = 4, a root of a = (X - 4)(X + 1)
    a, b = list(_poly.imul((-4, 1), (1, 1))), [1, 1]
    assert signed(_poly._heu(a, b)) == [1, 1]
    assert seen[0] == 4 and len(set(seen)) == 2 and seen[-1] & (seen[-1] - 1)


# ---------------------------------------------------------------------------
# Products over Z by Kronecker substitution, against schoolbook references
# kept here: ``imul`` and ``ilin`` switch at ``_KS_MIN_LEN`` terms.

K = _poly._KS_MIN_LEN


def school_lin(s, x, t=(), y=()):
    """s x - t y by the convolution sums, trimmed."""
    out = [0] * (max(len(s) + len(x), len(t) + len(y)) - 1)
    for a, b, sign in ((s, x, 1), (t, y, -1)):
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += sign * u * v
    return _poly.trim(out)


huge = st.integers(-(2**2100), 2**2100)
ks_coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64), huge)


@st.composite
def ks_operands(draw):
    """s, x, t, y with lengths below, at and above the switch; t y is free,
    equal to s x, or s x with its leading coefficients kept, so that the
    difference cancels to zero or loses its leading terms."""
    def poly():
        n = draw(st.sampled_from((1, 2, K - 1, K, K + 1, 2 * K + 3)))
        body = draw(st.lists(ks_coeff, min_size=n - 1, max_size=n - 1))
        return tuple(body) + (draw(ks_coeff.filter(bool)),)
    s, x = poly(), poly()
    how = draw(st.sampled_from(("free", "zero", "lead")))
    if how == "free":
        return s, x, poly(), poly()
    if how == "zero":
        return s, x, s, x
    k = draw(st.integers(0, len(x) - 1))
    low = draw(st.lists(ks_coeff, min_size=k, max_size=k))
    return s, x, s, tuple(low) + x[k:]


@PROPERTY
@given(ks_operands())
def test_kronecker_products_match_schoolbook(ops):
    s, x, t, y = ops
    assert _poly.imul(s, x) == school_lin(s, x) == _poly.imul(x, s)
    assert _poly.ilin(s, x, t, y) == school_lin(s, x, t, y)
    assert _poly._kronecker(s, x, t, y) == school_lin(s, x, t, y)
    assert _poly._kronecker(s, x) == school_lin(s, x)


def test_kronecker_runs_at_the_switch_and_only_over_z(monkeypatch):
    """Both operands of a product need K terms; over F_p it stays schoolbook."""
    ran = []
    ks = _poly._kronecker
    monkeypatch.setattr(_poly, "_kronecker", lambda *a: ran.append(len(a)) or ks(*a))
    for n, want in ((K - 1, []), (K, [2, 4])):
        ran.clear()
        a, b = tuple(range(1, n + 1)), tuple(range(-n, 0))
        assert _poly.imul(a, b) == school_lin(a, b)
        assert _poly.ilin(a, b, b, a) == school_lin(a, b, b, a)
        assert ran == want
    ran.clear()
    for p in (5, P64):
        a, b = (_poly.trim(v % p for v in range(k, k + 3 * K)) for k in (2, 3))
        want = _poly.trim(c % p for c in school_lin(a, b))
        assert _poly.imul(a, b, p) == want
        assert _poly.ilin(a, b, (), b, p) == want
        assert _poly.ilin(a, b, b, a, p) == ()
    assert ran == []


# ---------------------------------------------------------------------------
# The content chain ``icontent``, against ``igcd`` followed by ``iquo``.

def chain_ref(xs, p):
    h = ()
    for x in xs:
        h = _poly.igcd(h, x, p)
    return h, [_poly.iquo(x, h, p) for x in xs]


@st.composite
def chains(draw):
    """Nonzero polynomials sharing a factor c: c may have a negative lead and
    an integer content, may be a constant, and the chain may reach 1."""
    p = draw(st.sampled_from((0, 0, 5, P64)))
    coeff = st.integers(-(2**40), 2**40) if p == 0 else st.integers(0, p - 1)
    def poly(lo, hi):
        n = draw(st.integers(lo, hi))
        body = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
        lead = draw(coeff.filter(lambda v: v % p if p else v))
        return tuple(body) + (lead,)
    c = poly(1, 2 * L)
    if p == 0 and draw(st.booleans()):
        c = tuple(-6 * v for v in c)
    xs = [_poly.imul(c, poly(1, 2 * L), p) for _ in range(draw(st.integers(1, 5)))]
    return p, [x for x in xs if x] or [c]


@PROPERTY
@given(chains())
def test_content_chain_matches_igcd_then_iquo(case):
    p, xs = case
    h, qs = _poly.icontent(xs, p)
    want_h, want_qs = chain_ref(xs, p)
    assert h == want_h and list(qs) == want_qs
    assert (h[-1] > 0) if not p else h[-1] == 1
    if h == (1,):
        assert qs is xs


@pytest.mark.parametrize("p, xs, h, qs", [
    (0, [(3, -6)], (-3, 6), [(-1,)]),                       # single, negative lead
    (0, [(-6,), (4,), (10,)], (2,), [(-3,), (2,), (5,)]),   # constants
    (0, [(2, 2), (1, 0, 1), (4, 4)], (1,), None),           # reaches 1
    (5, [(0, 3)], (0, 1), [(3,)]),                          # single over F_5
    (5, [(2,), (0, 1)], (1,), None),
])
def test_content_chain_examples(p, xs, h, qs):
    got_h, got_qs = _poly.icontent(xs, p)
    assert got_h == h
    assert got_qs == (xs if qs is None else qs)


def test_content_chain_keeps_the_gcdheu_quotients(monkeypatch):
    """Long entries with a long common factor: every quotient comes from
    GCDHEU's trial divisions, and no ``iquo`` runs."""
    c = (3, -1, 4, 1, -5, 9, 2)
    rs = [(2, 7, 1, 8, 2, 8), (1, 4, 1, 4, 2, 1, 3), (-1, 7, 3, 2, 0, 5)]
    xs = [_poly.imul(c, tuple(2 * v for v in r)) for r in rs]
    monkeypatch.setattr(_poly, "iquo", lambda *a: pytest.fail("iquo ran"))
    h, qs = _poly.icontent(xs)
    assert h == tuple(2 * v for v in c) and qs == [tuple(r) for r in rs]


# ---------------------------------------------------------------------------
# Euclid over F_p in place against the remainder chain it replaced.

def _rem_mod(a, b, p):
    """The remainder of a by the nonzero b over F_p, a fresh tuple."""
    r, n = list(a), len(b)
    inv = pow(b[-1], -1, p)
    while len(r) >= n:
        f = r[-1] * inv % p
        if f:
            for k, y in enumerate(b, len(r) - n):
                r[k] -= f * y
        r.pop()
        while r and not r[-1] % p:
            r.pop()
    return tuple(x % p for x in r)


def _euclid_chain(a, b, p):
    """The monic gcd by a chain of ``_rem_mod`` remainders."""
    while b:
        a, b = b, _rem_mod(a, b, p)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


@st.composite
def fp_pairs(draw):
    """Residue tuples over F_p, with a common factor half the time."""
    p = draw(st.sampled_from((2, 3, 5, 7, P64)))
    coeff = st.integers(0, p - 1) | st.integers(0, 3)
    poly = st.lists(coeff, max_size=11).map(lambda c: _poly.trim(x % p for x in c))
    a, b = draw(poly), draw(poly)
    if draw(st.booleans()):
        c = draw(poly)
        a, b = _poly.imul(a, c, p), _poly.imul(b, c, p)
    return p, a, b


@PROPERTY
@given(fp_pairs())
def test_fp_gcd_in_place_matches_the_remainder_chain(case):
    p, a, b = case
    assert _poly.igcd(a, b, p) == _euclid_chain(a, b, p) == _poly.igcd(b, a, p)


@st.composite
def fp_linear_divisors(draw):
    """A residue tuple a of 2-11 terms and a linear b over F_2, F_3 or F_5;
    half the time b divides a."""
    p = draw(st.sampled_from((2, 3, 5)))
    b = (draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1)))
    a = _poly.trim(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10)))
    if draw(st.booleans()):
        a = _poly.imul(a, b, p)
    assume(len(a) >= 2)
    return p, a, b


@PROPERTY
@given(fp_linear_divisors())
def test_fp_gcd_by_a_linear_divisor_matches_euclid(case):
    """The Horner test at the divisor's root gives Euclid's monic gcd."""
    p, a, b = case
    want = _euclid_chain(a, b, p)
    assert _poly._gcd_mod(a, b, p) == want
    assert _poly.igcd(a, b, p) == want == _poly.igcd(b, a, p)


def test_fp_content_of_a_constant_runs_no_gcd(monkeypatch):
    """Over F_p a nonzero constant is a unit: h is 1 at once."""
    xs = [(1, 2, 3), (4,), (0, 1)]
    monkeypatch.setattr(_poly, "igcd", lambda *a: pytest.fail("igcd ran"))
    h, qs = _poly.icontent(xs, 5)
    assert h == (1,) and qs is xs


def test_sub_scaled_runs_no_ilin_on_two_zero_entries(monkeypatch):
    import valsat._ratkernel as rk

    calls = []
    ilin = rk.ilin
    monkeypatch.setattr(rk, "ilin", lambda *a: calls.append(a[1::2]) or ilin(*a))
    comps = [[(), (1, 1)], [(2,)]]
    Polynomials(5).sub_scaled(comps, [[(), (1,)], []], (1,), (3,), 5)
    assert comps == [[(), (3, 1)], [(2,)]]
    assert calls == [((1, 1), (1,))]
