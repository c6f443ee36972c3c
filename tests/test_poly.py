"""Property tests of the dense univariate polynomial module ``valsat._poly``.

The coefficient fields are the two base fields of the rational-function
domain (plain ``Fraction`` and ``int`` mod 5) and two domains used as the
field K of K[X]: Z_(3) and F_5(t) at zero.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from valsat import _poly
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


@PROPERTY
@given(field_and_polys(3))
def test_gcd_is_monic_common_divisor(fp):
    F, (a, b, c) = fp
    assume(c)
    a, b = _poly.mul(F, a, c), _poly.mul(F, b, c)
    g = _poly.gcd(F, a, b)
    if not a and not b:
        assert g == ()
        return
    assert g[-1] == F.one
    assert _poly.divmod(F, a, g)[1] == ()
    assert _poly.divmod(F, b, g)[1] == ()
    # greatest: every common divisor, c among them, divides g
    assert _poly.divmod(F, g, c)[1] == ()

