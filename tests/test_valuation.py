import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from valsat import _poly
from valsat.errors import AllZero, NotDivisible, NotInDomain, NotPrime, ParseError
from valsat.textio import parse_element
from valsat.valuation import (
    RationalFunctionsAtZero,
    ScalarElement,
    TrivialField,
    Zp,
    _int_val,
    content,
    is_prime,
    parse_domain_tag,
)

Z2 = Zp(2)
Z3 = Zp(3)


def test_make_reduces_fractions():
    assert Z2.element(Fraction(6, 3)).value == Fraction(2)
    assert Z3.element(Fraction(4, 2)).value == Fraction(2)


def test_make_rejects_negative_valuation():
    with pytest.raises(NotInDomain):
        Z2.element(Fraction(3, 4))
    # but the quotient field accepts it
    assert Z2.k_element(Fraction(3, 4)).valuation() == -2


@given(st.sampled_from([Z2, Z3, TrivialField("q"), TrivialField("fp", 5)]),
       st.integers(-(10**12), 10**12), st.integers(1, 10**6) | st.sampled_from([4, 9, 72]))
def test_scalar_in_domain_reads_the_denominator(d, n, den):
    """``in_domain``, from the denominator alone, agrees with the valuation."""
    assume(not d.field.p or den % d.field.p)
    e = d.k_element(Fraction(n, den))
    assert e.in_domain == (e.valuation() >= 0)


def test_bad_specs():
    with pytest.raises(NotPrime):
        Zp(4)
    with pytest.raises(NotPrime):
        Zp(1)
    with pytest.raises(NotPrime):
        Zp(None)
    for cls in (RationalFunctionsAtZero, TrivialField):
        with pytest.raises(NotPrime):
            cls("fp", 10)
        with pytest.raises(NotPrime):
            cls("fp")
        with pytest.raises(NotPrime):
            cls("q", 5)
        with pytest.raises(NotPrime):
            cls("nope")
    with pytest.raises(NotPrime):
        parse_domain_tag("field:10")
    for tag in ("zp", "zp:q", "rft0:fp", "nope:3"):
        with pytest.raises(ParseError):
            parse_domain_tag(tag)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every prime
# base up to 37, and psi_13 to every one up to 41.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("n", [PSI_12, PSI_13])
def test_strong_pseudoprimes_are_rejected(n):
    for make in (Zp, lambda n: TrivialField("fp", n), lambda n: RationalFunctionsAtZero("fp", n)):
        with pytest.raises(NotPrime):
            make(n)
    for kind in ("zp", "field", "rft0"):
        with pytest.raises(NotPrime):
            parse_domain_tag(f"{kind}:{n}")


def test_primality_above_psi_13_is_not_certified():
    assert PSI_12 == 399165290221 * 798330580441 and not is_prime(PSI_12)
    with pytest.raises(NotPrime, match="not certified"):
        is_prime(PSI_13)
    with pytest.raises(NotPrime, match="not certified"):
        Zp(2 ** 89 - 1)  # a prime, but above psi_13
    assert is_prime(2 ** 61 - 1) and Zp(2 ** 61 - 1).p == 2 ** 61 - 1
    assert parse_domain_tag(f"field:{2 ** 61 - 1}") == TrivialField("fp", 2 ** 61 - 1)


def test_domain_tag_round_trip():
    domains = (
        Zp(5),
        RationalFunctionsAtZero("q"),
        RationalFunctionsAtZero("fp", 3),
        TrivialField("q"),
        TrivialField("fp", 7),
    )
    assert [d.tag for d in domains] == ["zp:5", "rft0:q", "rft0:3", "field:q", "field:7"]
    for d in domains:
        assert parse_domain_tag(d.tag) == d
        assert hash(parse_domain_tag(d.tag)) == hash(d)
        assert repr(d) == f"<domain {d.tag}>"
    assert len(set(domains) | {parse_domain_tag(d.tag) for d in domains}) == 5
    assert TrivialField("q") != RationalFunctionsAtZero("q")


def test_valuation_zp():
    assert Z2.element(12).valuation() == 2
    assert Z2.element(3).valuation() == 0
    assert Z2.element(0).valuation() == math.inf
    assert Z2.k_element(Fraction(1, 2)).valuation() == -1


def test_divisibility_examples():
    six, four, three, five = (Z2.element(x) for x in (6, 4, 3, 5))
    assert six.divides(four) and not four.divides(six)
    assert four.div_exact(six).value == Fraction(2, 3)
    assert four.div_exact(six) * six == four

    # associates: both cofactors exist and are units
    assert three.divides(five) and five.divides(three)
    assert five.div_exact(three).value == Fraction(5, 3)
    assert three.div_exact(five).value == Fraction(3, 5)
    assert five.div_exact(three).is_unit() and three.div_exact(five).is_unit()

    # every element divides zero, and zero divides only zero
    zero, seven = Z2.element(0), Z2.element(7)
    assert seven.divides(zero) and not zero.divides(seven)
    assert zero.div_exact(seven).is_zero()
    assert zero.divides(zero)
    with pytest.raises(ZeroDivisionError):
        seven.div_exact(zero)


def test_divisibility_random_consistency():
    rng = random.Random(7)
    for _ in range(300):
        dom = Zp(rng.choice((2, 3, 5)))
        a = dom.element(Fraction(rng.randrange(0, 60), rng.choice((1, 7, 11, 13))))
        b = dom.element(Fraction(rng.randrange(0, 60), rng.choice((1, 7, 11, 13))))
        assert a.divides(b) or b.divides(a)
        if not a.is_zero() and not b.is_zero():
            assert a.divides(b) == (a.valuation() <= b.valuation())
        for x, y in ((a, b), (b, a)):
            if x.divides(y) and not x.is_zero():
                assert y.div_exact(x).in_domain
                assert y.div_exact(x) * x == y
            elif not x.is_zero():
                with pytest.raises(NotDivisible):
                    y.div_exact(x)


def test_is_unit():
    assert Z2.element(3).is_unit()
    assert not Z2.element(2).is_unit()
    assert not Z2.element(0).is_unit()
    assert Z2.element(1).divides(Z2.element(3))


def test_is_unit_means_divides_one():
    one = Z2.element(1)
    for raw in (1, 2, 3, 4, Fraction(3, 5), Fraction(6, 7), 0):
        a = Z2.element(raw)
        assert a.is_unit() == a.divides(one)
        if a.is_unit():
            assert one.div_exact(a).in_domain


def test_content_examples():
    u, pos = content([Z2.element(2), Z2.element(3)])
    assert (u.value, pos) == (Fraction(3), 1)
    u, pos = content([Z2.element(4), Z2.element(8), Z2.element(12)])
    assert (u.value, pos) == (Fraction(4), 0)
    u, pos = content([Z2.element(7)])
    assert (u.value, pos) == (Fraction(7), 0)
    with pytest.raises(AllZero):
        content([Z2.element(0), Z2.element(0)])


def test_content_properties():
    rng = random.Random(11)
    for _ in range(200):
        dom = Zp(rng.choice((2, 3, 5)))
        coeffs = [
            dom.element(Fraction(rng.randrange(-40, 40), rng.choice((1, 7, 11, 13))))
            for _ in range(rng.randrange(1, 6))
        ]
        if all(c.is_zero() for c in coeffs):
            continue
        u, pos = content(coeffs)
        assert coeffs[pos] == u
        quotients = [c.div_exact(u) for c in coeffs if not c.is_zero()]
        assert all(q.in_domain for q in quotients)
        assert any(q.is_unit() for q in quotients)


def test_div_exact_errors():
    with pytest.raises(NotDivisible):
        Z2.element(3).div_exact(Z2.element(2))
    assert Z2.element(6).div_exact(Z2.element(3)).value == 2


def test_rational_functions_at_zero():
    R = RationalFunctionsAtZero("q")
    e = R.from_polys((2, 1), (3,))  # (t + 2) / 3
    assert e.valuation() == 0 and e.is_unit()
    t = R.uniformizer()
    assert t.valuation() == 1
    assert (t * t * e).valuation() == 2
    with pytest.raises(NotInDomain):
        R.element(((1,), (0, 1)))  # 1/t
    q = R.k_element(((1,), (0, 1)))
    assert q.valuation() == -1
    # canonical form: reduced, integer contents included
    f = R.from_polys((0, 2), (2,))  # 2t/2 -> t
    assert f == t


def test_rational_functions_fp_base():
    R = RationalFunctionsAtZero("fp", 3)
    e = R.from_polys((3, 1))  # 3 + t == t mod 3
    assert e.valuation() == 1
    assert R.from_polys((4,)).is_unit()


def test_trivial_field():
    F = TrivialField("q")
    assert F.element(Fraction(-7, 3)).is_unit()
    assert not F.element(0).is_unit()
    half, five = F.element(Fraction(1, 2)), F.element(5)
    assert half.divides(five) and five.divides(half)
    assert five.div_exact(half) == F.element(10)
    G = TrivialField("fp", 5)
    assert G.element(7).value == 2
    assert G.element(7).is_unit()


def test_render_parse_round_trip():
    rng = random.Random(3)
    domains = [Z2, Z3, TrivialField("q"), TrivialField("fp", 5)]
    for _ in range(100):
        dom = rng.choice(domains)
        e = dom.element(Fraction(rng.randrange(0, 30), rng.choice((1, 7, 11, 13))))
        assert parse_element(dom, str(e)) == e
    R = RationalFunctionsAtZero("q")
    for num, den in [((2, 1), (3,)), ((0, 0, 5), (1, 1)), ((1,), (1,)), ((0,), (1,))]:
        e = R.from_polys(num, den)
        assert parse_element(R, str(e)) == e
    Rp = RationalFunctionsAtZero("fp", 3)
    e = Rp.from_polys((1, 2), (1, 0, 1))
    assert parse_element(Rp, str(e)) == e
    # Random fractions of polynomials with rational coefficients: scaling
    # both sides by a unit of the base field gives the same element, and
    # the text parses back to it.
    for R in (R, Rp, RationalFunctionsAtZero("fp", 5)):
        for _ in range(60):
            def poly(n):
                return [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 7)))
                        for _ in range(n)]
            num = poly(rng.randrange(0, 4))
            den = [Fraction(rng.choice((1, 2, -1, 4, 7, -8)))] + poly(rng.randrange(0, 3))
            e = R.from_polys(num, den)
            assert all(type(x) is int for x in e.num + e.den)
            assert parse_element(R, str(e)) == e
            k = _scale_factor(R.field, rng.choice(SCALES))
            if k is not None:
                assert R.from_polys([k * x for x in num], [k * x for x in den]) == e


def test_elements_are_hashable_and_immutable():
    a = Z2.element(Fraction(3, 5))
    b = Z2.element(Fraction(3, 5))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


SCALAR_KINDS = (Z2, Z3, TrivialField("q"), TrivialField("fp", 5))


def _reference(d, x: Fraction):
    """x as a plain Fraction, or as a residue mod p over F_p."""
    if d.tag == "field:5":
        return x.numerator * pow(x.denominator, -1, 5) % 5
    return x


def _reference_valuation(d, x: Fraction):
    if _reference(d, x) == 0:
        return math.inf
    if d.tag.startswith("field:"):
        return 0
    return _int_val(x.numerator, d.p) - _int_val(x.denominator, d.p)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SCALAR_KINDS),
    st.integers(-40, 40), st.integers(1, 40),
    st.integers(-40, 40), st.integers(1, 40),
)
def test_scalar_element_matches_plain_arithmetic(d, a, b, c, e):
    """ScalarElement arithmetic, valuation and divisibility against plain
    Fraction or mod-p arithmetic and the multiplicities of p in num and den."""
    if d.tag == "field:5":
        assume(b % 5 and e % 5)
    x, y = Fraction(a, b), Fraction(c, e)
    rx, ry = _reference(d, x), _reference(d, y)
    ex, ey = d.k_element(x), d.k_element(y)
    assert isinstance(ex, ScalarElement) and ex.value == rx
    if d.tag == "field:5":
        assert (ex + ey).value == (rx + ry) % 5
        assert (ex - ey).value == (rx - ry) % 5
        assert (ex * ey).value == rx * ry % 5
        assert (-ex).value == -rx % 5
        if ry:
            assert (ex / ey).value == rx * pow(ry, -1, 5) % 5
    else:
        assert (ex + ey).value == x + y
        assert (ex - ey).value == x - y
        assert (ex * ey).value == x * y
        assert (-ex).value == -x
        if y:
            assert (ex / ey).value == x / y
    vx, vy = _reference_valuation(d, x), _reference_valuation(d, y)
    assert ex.valuation() == vx and ey.valuation() == vy
    assert ey.divides(ex) == (vx >= vy)
    if not ry:
        with pytest.raises(ZeroDivisionError):
            ex / ey
        with pytest.raises(ZeroDivisionError):
            ex.div_exact(ey)
    elif vx >= vy:
        assert ex.div_exact(ey) == ex / ey
    else:
        with pytest.raises(NotDivisible):
            ex.div_exact(ey)


@given(st.integers(0, 2))
def test_equal_values_in_different_domains_are_distinct(c):
    elems = [Z3.k_element(c), TrivialField("fp", 3).k_element(c), TrivialField("q").k_element(c)]
    assert elems[0].value == elems[1].value == elems[2].value
    assert all(a != b for i, a in enumerate(elems) for b in elems[i + 1:])
    assert len({hash(a) for a in elems}) == 3 and len(set(elems)) == 3


RFT0 = [RationalFunctionsAtZero("q"), RationalFunctionsAtZero("fp", 3)]


def _monic(F, a):
    """a divided by its leading coefficient over F; the zero polynomial unchanged."""
    return tuple(F.div(x, a[-1]) for x in a) if a else a


def _euclid_gcd(F, a, b):
    """Monic gcd by Euclid over F, the reference for ``_poly.igcd``."""
    while b:
        a, b = b, _poly.divmod(F, a, b)[1]
    return _monic(F, a)


def _reference_canonical(F, num, den):
    """Divide both sides by their monic gcd, then make the denominator monic."""
    g = _euclid_gcd(F, num, den)
    num, den = _poly.divmod(F, num, g)[0], _poly.divmod(F, den, g)[0]
    lead = den[-1]
    return tuple(F.div(x, lead) for x in num), tuple(F.div(x, lead) for x in den)


def _lift(e):
    """e's numerator and denominator with coefficients in its base field."""
    F = e.domain.field
    return tuple(map(F.coerce, e.num)), tuple(map(F.coerce, e.den))


def _monic_view(e):
    """e as a numerator over a monic denominator, over its base field."""
    F, (num, den) = e.domain.field, _lift(e)
    return tuple(F.div(x, den[-1]) for x in num), _monic(F, den)


# Nonzero scale factors, negative ones and ones above 2^64 among them;
# ``_scale_factor`` keeps those that are units over the base field.
SCALES = (1, -1, 2, -6, Fraction(-4, 9), Fraction(35, 2), 2**64 + 13, -(2**70) * 3,
          Fraction(2**65, -(3**41)))


def _scale_factor(F, k):
    k = Fraction(k)
    return k if not F.p or (k.numerator % F.p and k.denominator % F.p) else None


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RFT0 + [RationalFunctionsAtZero("fp", 5)]),
    st.integers(-6, 6),
    st.sampled_from((1, 2, -1, 4, -5, Fraction(-3, 2), 6)),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.booleans(),
    st.sampled_from(SCALES),
)
def test_constant_side_canonicalisation(R, c, unit, poly, const_num, k):
    """Without the gcd, a constant side still gives the reduced form: coprime
    integer contents over Q, the monic-denominator view of the reference,
    the same element for k num / k den, and its text parses back to it."""
    F = R.field
    poly = _poly.trim(tuple(F.coerce(x) for x in poly))
    if const_num:  # c / poly
        if not poly:
            return
        num, den = _poly.trim((F.coerce(c),)), poly
    else:  # poly / unit
        assume(F.coerce(unit))
        num, den = poly, (F.coerce(unit),)
    e = R.from_polys(num, den)
    _assert_canonical(e)
    assert _monic_view(e) == _reference_canonical(F, num, den)
    k = _scale_factor(F, k)
    if k is not None:
        assert R.from_polys([k * x for x in num], [k * x for x in den]) == e
    if e.in_domain:
        assert parse_element(R, str(e)) == e


@pytest.mark.parametrize(
    "d",
    [Z2, Z3, TrivialField("q"), TrivialField("fp", 5), *RFT0],
    ids=lambda d: d.tag,
)
def test_zero_and_one_are_shared_constants(d):
    assert d.zero is d.zero and d.one is d.one
    assert d.zero == d.k_element(0) and d.one == d.k_element(1)


ALL_KINDS = [Z2, Z3, TrivialField("q"), TrivialField("fp", 3), *RFT0]


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.tag)
def test_k_element_keeps_own_elements_and_rejects_foreign_ones(d):
    e = d.k_element(2)
    assert d.k_element(e) is e and d.element(e) is e
    for other in ALL_KINDS:
        if other != d:
            with pytest.raises(NotInDomain):
                d.k_element(other.k_element(2))


# Small factors; over F_3 and F_5 some coincide or split, which only adds
# shared factors.
FACTORS = [(1, 1), (2, 1), (-1, 1), (0, 1), (1, 0, 1), (3, 2), (1, 1, 1)]
ARITH_KINDS = [RationalFunctionsAtZero("q"), RationalFunctionsAtZero("fp", 5),
               RationalFunctionsAtZero("fp", 3)]


@st.composite
def rational_function_pairs(draw):
    """Two canonical elements of K whose parts often share factors.

    ``x`` is a constant times a product of FACTORS over another product.  The
    denominators of ``y`` may share factors with that of ``x``, the numerator
    of ``y`` may be a multiple of the denominator of ``x``, and ``y`` may be
    const - x, so that x + y cancels to a constant (zero when const is 0).
    """
    R = draw(st.sampled_from(ARITH_KINDS))
    F = R.field
    factors = st.lists(st.integers(0, len(FACTORS) - 1), max_size=3)
    const = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 7)))

    def product(idx, c):
        out = _poly.trim((F.coerce(c),))
        for i in idx:
            out = _poly.mul(F, out, tuple(F.coerce(x) for x in FACTORS[i]))
        return out

    def element(num, den):
        return R.from_polys(*_reference_canonical(F, num, den))

    xn, xd = product(draw(factors), draw(const)), product(draw(factors), 1)
    assume(xd)
    x = element(xn, xd)
    kind = draw(st.sampled_from(("free", "shared den", "num over den", "const - x")))
    yd = product(draw(factors), 1)
    if kind == "const - x":
        k = product((), draw(const))
        xn, xd = _lift(x)
        y = element(_poly.sub(F, _poly.mul(F, k, xd), xn), xd)
    else:
        yn = product(draw(factors), draw(const))
        if kind == "shared den":
            yd = _poly.mul(F, yd, _lift(x)[1])
        elif kind == "num over den":
            yn = _poly.mul(F, yn, _lift(x)[1])
        y = element(yn, yd)
    return R, x, y


def _assert_canonical(e):
    """Int tuples, coprime over the base field, and over Q in their integer
    contents too, with den[-1] > 0 over Q and den monic over F_p."""
    F = e.domain.field
    assert all(type(x) is int for x in e.num + e.den)
    if not e.num:
        assert (e.num, e.den) == ((), (1,))
        return
    if F.p:
        assert e.den[-1] == 1 and all(0 <= x < F.p for x in e.num + e.den)
    else:
        assert e.den[-1] > 0 and math.gcd(*e.num, *e.den) == 1
    assert _euclid_gcd(F, *_lift(e)) == (F.one,)


@settings(max_examples=400, deadline=None)
@given(rational_function_pairs())
def test_rational_function_arithmetic_matches_product_then_reduce(pair):
    """+, -, * and / against the full product reduced by one Euclidean gcd."""
    R, x, y = pair
    F = R.field
    mul = functools.partial(_poly.mul, F)
    (a, b), (c, d) = _lift(x), _lift(y)
    expected = {
        "+": (_poly.add(F, mul(a, d), mul(c, b)), mul(b, d)),
        "-": (_poly.sub(F, mul(a, d), mul(c, b)), mul(b, d)),
        "*": (mul(a, c), mul(b, d)),
    }
    got = {"+": x + y, "-": x - y, "*": x * y}
    if c:
        expected["/"] = (mul(a, d), mul(b, c))
        got["/"] = x / y
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for op, (num, den) in expected.items():
        e = got[op]
        _assert_canonical(e)
        assert _monic_view(e) == _reference_canonical(F, num, den), op
        assert e == R.k_element((num, den)), op
