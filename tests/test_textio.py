import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from valsat import _poly, textio
from valsat.errors import NotInDomain, NotPrime, ParseError
from valsat.polyvec import PolyVec
from valsat.syzygy import syzygy_vx
from valsat.textio import (
    parse_domain_tag,
    parse_element,
    parse_instance,
    parse_vector,
    render_instance,
    render_vector,
)
from valsat.valuation import RationalFunctionsAtZero, ScalarElement, TrivialField, Zp
from valsat.vxsat import saturate_vx

Z2 = Zp(2)
# One domain of each kind: zp:p, field:q, field:p, rft0:q, rft0:p.
KINDS = [
    Z2,
    TrivialField("q"),
    TrivialField("fp", 5),
    RationalFunctionsAtZero("q"),
    RationalFunctionsAtZero("fp", 3),
]
# Denominators invertible in every domain of KINDS.
DENS = (1, 7, 11, 13)
PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_parse_simple_vectors():
    v = parse_vector(Z2, "2, -X")
    assert v == PolyVec.from_raw(Z2, [[2], [0, -1]])

    v = parse_vector(Z2, "(2/3)*X^2 + 1, -X")
    assert v.comps[0][2].value == Fraction(2, 3)
    assert v.comps[0][0].value == 1
    assert v.comps[1][1].value == -1


def test_parse_whitespace_and_zero():
    assert parse_vector(Z2, "0, 0").is_zero()
    assert parse_vector(Z2, " X^3 -X ,  5 ") == PolyVec.from_raw(
        Z2, [[0, -1, 0, 1], [5]]
    )


def test_parse_rational_function_coefficients():
    R = RationalFunctionsAtZero("q")
    v = parse_vector(R, "(t+2)/(3)*X - 1, t^2")
    t_plus_2_over_3 = R.from_polys((2, 1), (3,))
    assert v.comps[0][1] == t_plus_2_over_3
    assert v.comps[0][0] == R.element(-1)
    assert v.comps[1][0] == R.from_polys((0, 0, 1))  # the scalar t^2 at X^0
    assert v.comps[1][0].valuation() == 2


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_vector(Z2, "2 + $", line=3)
    assert exc.value.line == 3
    # The column is that of the bad character, not of the whitespace before it.
    with pytest.raises(ParseError) as exc:
        parse_vector(Z2, "2 +   $", line=1)
    assert exc.value.column == 7
    with pytest.raises(ParseError) as exc:
        parse_vector(Z2, "X, 2  @", line=1)
    assert exc.value.column == 7
    with pytest.raises(ParseError):
        parse_vector(Z2, "X / X")
    with pytest.raises(ParseError):
        parse_vector(Z2, "t + 1")  # t only lives in rft0
    with pytest.raises(ParseError):
        parse_vector(Z2, "1/2, 0")  # outside Z_(2)


def test_round_trip_random():
    rng = random.Random(61)
    domains = [Z2, Zp(3), TrivialField("q"), TrivialField("fp", 5)]
    for _ in range(150):
        dom = rng.choice(domains)
        comps = [
            [Fraction(rng.randrange(-9, 10), rng.choice((1, 7, 11)))
             for _ in range(rng.randrange(0, 4))]
            for _ in range(rng.randrange(1, 4))
        ]
        try:
            v = PolyVec.from_raw(dom, comps)
        except Exception:
            continue
        assert parse_vector(dom, render_vector(v)) == v


def test_round_trip_rft0():
    R = RationalFunctionsAtZero("q")
    t = R.uniformizer()
    one = R.element(1)
    v = PolyVec(R, [(t, R.from_polys((2, 1), (3,))), (one * one + one,)])
    assert parse_vector(R, render_vector(v)) == v
    e = R.from_polys((0, 3), (2, 1))  # 3t/(t+2), a non-constant denominator
    u = PolyVec(R, [(e * e, e), (one,)])
    assert parse_vector(R, render_vector(u)) == u
    Rp = RationalFunctionsAtZero("fp", 3)
    w = PolyVec(Rp, [(Rp.from_polys((1, 2), (1, 1)), Rp.uniformizer())])
    assert parse_vector(Rp, render_vector(w)) == w


def test_domain_tags():
    assert parse_domain_tag("zp:2") == Z2
    assert parse_domain_tag("rft0:q") == RationalFunctionsAtZero("q")
    assert parse_domain_tag("rft0:5") == RationalFunctionsAtZero("fp", 5)
    assert parse_domain_tag("field:q") == TrivialField("q")
    assert parse_domain_tag("field:7") == TrivialField("fp", 7)
    with pytest.raises(ParseError):
        parse_domain_tag("zp")
    with pytest.raises(ParseError):
        parse_domain_tag("weird:2")


def test_instance_parse_and_render():
    text = """\
# a small instance
domain: zp:2
task: saturate-vx
max-iter: 10

2          # the constant vector
X
"""
    inst = parse_instance(text)
    assert inst.task == "saturate-vx"
    assert inst.domain == Z2
    assert inst.max_iter == 10
    assert [render_vector(v) for v in inst.vectors] == ["2", "X"]
    again = parse_instance(render_instance(inst))
    assert again.vectors == inst.vectors
    assert again.task == inst.task


def test_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("task: saturate-vx\n1\n")  # no domain
    with pytest.raises(ParseError):
        parse_instance("domain: zp:2\n1\n")  # no task
    with pytest.raises(ParseError):
        parse_instance("domain: zp:2\ntask: dance\n1\n")
    with pytest.raises(ParseError):
        parse_instance("domain: zp:2\ntask: syzygy\n\n1, 2\n3\n")  # mixed widths


@pytest.mark.parametrize(
    "header", ["max-iter: abc", "max-iter: 0", "degree-bound: 1.5", "degree-bound: -3"]
)
def test_instance_numeric_header_errors(header):
    with pytest.raises(ParseError) as exc:
        parse_instance(f"domain: zp:2\ntask: saturate-vx\n{header}\n\n2\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("value, flag", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("OFF", False),
])
def test_verify_header_values(value, flag):
    inst = parse_instance(f"domain: zp:2\ntask: saturate-vx\nverify: {value}\n\n2\n")
    assert inst.verify is flag


@pytest.mark.parametrize("value", ["ture", "maybe", "2", ""])
def test_verify_header_rejects_unknown_values(value):
    with pytest.raises(ParseError) as exc:
        parse_instance(f"domain: zp:2\ntask: saturate-vx\nverify: {value}\n\n2\n")
    assert exc.value.line == 3


def test_overrides_replace_header_values():
    text = "domain: zp:2\ntask: saturate-vx\nmax-iter: 5\n\n2, X\n"
    inst = parse_instance(text, {"domain": "zp:3", "task": "syzygy", "max-iter": "7",
                                 "degree-bound": "4", "verify": "true"})
    assert (inst.domain, inst.task, inst.max_iter, inst.degree_bound, inst.verify) == (
        Zp(3), "syzygy", 7, 4, True)
    assert inst.vectors == [PolyVec.from_raw(Zp(3), [[2], [0, 1]])]
    assert parse_instance(text, {}).domain == Z2
    assert parse_instance(text).max_iter == 5


def test_an_override_is_the_only_value_read():
    """The file's lines for an overridden key are not read: neither an
    invalid value nor a later repeat of the key counts."""
    inst = parse_instance("domain: zp:4\ntask: dance\ndomain: zp:5\n\n2\n",
                          {"domain": "zp:2", "task": "saturate-vx"})
    assert (inst.domain, inst.task) == (Z2, "saturate-vx")
    inst = parse_instance("task: syzygy\n\nX\n", {"domain": "field:q"})
    assert inst.domain == TrivialField("q")


@pytest.mark.parametrize("header, line", [
    ("domain: zp:2\ndomain: zp:3\ntask: syzygy\n", 2),
    ("domain: zp:2\ntask: syzygy\ntask: saturate-vx\n", 3),
    ("domain: zp:2\ntask: syzygy\nverify: true\n# a comment\nverify: true\n", 5),
])
def test_a_repeated_header_key_is_an_error_at_its_second_line(header, line):
    """Even a repeat of the same value: the header holds one line per key."""
    with pytest.raises(ParseError, match="repeated header key") as exc:
        parse_instance(header + "\nX\n")
    assert exc.value.line == line


@pytest.mark.parametrize("key, value", [
    ("task", "nope"), ("max-iter", "0"), ("max-iter", "x"), ("degree-bound", "1.5"),
    ("verify", "maybe"), ("domain", "zp:x"), ("colour", "red"),
])
def test_invalid_override_is_a_parse_error_without_a_line(key, value):
    with pytest.raises(ParseError) as exc:
        parse_instance("domain: zp:2\ntask: saturate-vx\n\n2\n", {key: value})
    assert exc.value.line is None and "line" not in str(exc.value)


# ---------------------------------------------------------------------------
# The parser against dense K[X] arithmetic.  An expression is a tuple tree:
# ("int", n), ("frac", a, b), ("X",), ("t",), ("()", e), ("neg", e),
# ("^", e, n) and (op, e, f) for op in "+-*".


def _trees(with_t):
    leaves = [
        st.tuples(st.just("int"), st.integers(0, 9)),
        st.tuples(st.just("frac"), st.integers(0, 9), st.sampled_from(DENS)),
        st.just(("X",)),
    ]
    if with_t:
        leaves.append(st.just(("t",)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*"), sub, sub),
            st.tuples(st.sampled_from(("()", "neg")), sub),
            st.tuples(st.just("^"), sub, st.integers(0, 3)),
        ),
        max_leaves=8,
    )


def _wrap(text, prec, least):
    return text if prec >= least else f"({text})"


def _text(tree):
    """The text of a tree and its precedence: 0 sum, 1 product, 2 power, 3 atom."""
    op = tree[0]
    if op == "int":
        return str(tree[1]), 3
    if op == "frac":
        return f"{tree[1]}/{tree[2]}", 1
    if op in ("X", "t"):
        return op, 3
    if op == "()":
        return f"({_text(tree[1])[0]})", 3
    if op == "neg":  # a leading sign applies to the first product only
        return f"(-{_wrap(*_text(tree[1]), 1)})", 3
    if op == "^":
        return f"{_wrap(*_text(tree[1]), 3)}^{tree[2]}", 2
    a, b = _text(tree[1]), _text(tree[2])
    if op == "*":
        return f"{_wrap(*a, 1)}*{_wrap(*b, 1)}", 1
    return f"{_wrap(*a, 0)} {op} {_wrap(*b, 1)}", 0


def _dense(d, tree):
    """The value of a tree from dense ``_poly`` sums and products only."""
    op = tree[0]
    if op == "int":
        return _poly.trim((d.k_element(tree[1]),))
    if op == "frac":
        return _poly.trim((d.k_element(Fraction(tree[1], tree[2])),))
    if op == "X":
        return (d.k_element(0), d.k_element(1))
    if op == "t":
        return (d.from_polys((0, 1)),)
    if op == "()":
        return _dense(d, tree[1])
    if op == "neg":
        return _poly.neg(d, _dense(d, tree[1]))
    if op == "^":
        base, out = _dense(d, tree[1]), (d.k_element(1),)
        for _ in range(tree[2]):
            out = _poly.mul(d, out, base)
        return out
    a, b = _dense(d, tree[1]), _dense(d, tree[2])
    return {"+": _poly.add, "-": _poly.sub, "*": _poly.mul}[op](d, a, b)


X = ("X",)
SPECIAL = [
    ("^", X, 0),
    ("^", ("()", ("int", 0)), 0),
    ("*", ("int", 0), ("^", X, 5)),
    ("^", ("()", ("*", ("int", 2), ("^", X, 2))), 3),
    ("*", ("*", ("frac", 3, 7), ("^", X, 2)), ("*", ("int", 5), ("^", X, 3))),
    ("^", ("-", ("*", ("int", 2), X), ("int", 1)), 3),
    ("*", ("+", X, ("int", 1)), ("-", X, ("int", 1))),
]


@PROPERTY
@given(
    st.sampled_from(KINDS).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(_trees(isinstance(d, RationalFunctionsAtZero)), min_size=1, max_size=3),
        )
    )
)
@example((KINDS[0], SPECIAL))
@example((KINDS[1], SPECIAL))
@example((KINDS[2], SPECIAL))
@example((KINDS[3], SPECIAL + [("^", ("()", ("*", ("int", 3), ("t",))), 2)]))
@example((KINDS[4], SPECIAL + [("*", ("t",), ("^", X, 2))]))
def test_parser_matches_dense_arithmetic(case):
    d, trees = case
    text = ", ".join(_text(tree)[0] for tree in trees)
    assert parse_vector(d, text) == PolyVec(d, [_dense(d, tree) for tree in trees]), text


@st.composite
def _vectors(draw):
    """A random vector over one of KINDS; rft0 denominators may depend on t."""
    d = draw(st.sampled_from(KINDS))
    if isinstance(d, RationalFunctionsAtZero):
        small = st.integers(-9, 9)
        coeff = st.builds(
            lambda num, d0, rest: d.element((num, [d0, *rest])),
            st.lists(small, max_size=3),
            st.sampled_from((1, 2, -1, 4)),  # nonzero at t = 0, also mod 3
            st.lists(small, max_size=2),
        )
    else:
        coeff = st.builds(
            lambda n, den: d.element(Fraction(n, den)),
            st.integers(-(10**6), 10**6),
            st.sampled_from(DENS),
        )
    return PolyVec(d, draw(st.lists(st.lists(coeff, max_size=4), min_size=1, max_size=3)))


@PROPERTY
@given(_vectors())
def test_round_trip_all_kinds(v):
    assert parse_vector(v.domain, render_vector(v)) == v


# ---------------------------------------------------------------------------
# Over zp:p, field:q and field:p the parser computes on raw field values and
# wraps each final coefficient once, before its valuation is checked.


def test_raw_value_errors_and_edge_cases():
    with pytest.raises(ParseError, match="division by zero"):
        parse_vector(TrivialField("fp", 5), "1/5")  # 5 is 0 in F_5
    with pytest.raises(ParseError, match="outside the domain"):
        parse_vector(Z2, "(1/2)*X")
    with pytest.raises(NotInDomain):
        parse_element(Zp(3), "1/3")
    assert parse_vector(Z2, "(1/2)^0") == PolyVec.from_raw(Z2, [[1]])
    assert parse_element(Z2, "(1/2)^0") == Z2.one


@PROPERTY
@given(st.sampled_from(KINDS[:3]), st.lists(_trees(False), min_size=1, max_size=3))
def test_parsed_coefficients_are_wrapped_field_values(d, trees):
    v = parse_vector(d, ", ".join(_text(tree)[0] for tree in trees))
    want = int if d.field.p else Fraction  # a residue over F_p, else a fraction
    coeffs = [c for comp in v.comps for c in comp] + [parse_element(d, "3/7")]
    for c in coeffs:
        assert type(c) is ScalarElement and type(c.value) is want


# ---------------------------------------------------------------------------
# The term scanner: ``parse_vector`` reads a sum of monomials with one regex
# and leaves every other shape to ``_PolyParser``.  On what it accepts it
# must give the parser's value, element types included.

WS = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _literal(draw, parens):
    """n or n/d, with a unary minus, or (±n) and (±n/d) when ``parens``;
    n may be large only in parentheses."""
    n = draw(st.integers(0, 30) | st.integers(0, 10**20)) if parens else draw(st.integers(0, 30))
    d = draw(st.none() | st.sampled_from((1, 2, 3, 5, 7, 10, 11)))
    body = str(n) if d is None else f"{n}{draw(WS)}/{draw(WS)}{d}"
    if parens and draw(st.booleans()):
        sign = draw(st.sampled_from(["", "+", "-"]))
        return f"({draw(WS)}{sign}{draw(WS)}{body}{draw(WS)})"
    return draw(st.sampled_from(["", "-", "- "])) + body


@st.composite
def _monomials(draw, var, coefficient, most=5):
    """A sum of monomials c*var^k, c*var, c, var^k and var, signs in front."""
    terms = []
    for i in range(draw(st.integers(1, most))):
        k = draw(st.none() | st.integers(0, 5))
        power = var if k is None else f"{var}{draw(WS)}^{draw(WS)}{k}"
        c = draw(st.none() | coefficient)
        if c is None:
            mono = power
        else:
            mono = c + draw(st.sampled_from(["", f"{draw(WS)}*{draw(WS)}{power}"]))
        sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
        terms.append(f"{draw(WS)}{sign}{draw(WS)}{mono}")
    return "".join(terms) + draw(WS)


def _ratfunc_coefficient():
    """((P)/(Q)) with P and Q sums of monomials in t; Q may be zero."""
    poly = _monomials("t", _literal(parens=False), most=3)
    return st.builds(lambda p, q, a, b: f"({a}({p}){b}/({q}))", poly, poly, WS, WS)


@st.composite
def _rendered_rft0_coefficient(draw):
    """[c] [* t[^j]] for c a literal, (P), (P)/(Q) or ((P)/(Q)), P and Q sums
    of monomials in t with parenthesised literals: the shapes that
    render_vector writes over rft0, such as (3/5)*t or ((t + 1)/(t - 2))."""
    poly = _monomials("t", _literal(parens=True), most=3)
    c = draw(st.none() | _literal(parens=True)
             | st.builds(lambda p: f"({p})", poly)
             | st.builds(lambda p, q, a: f"({p}){a}/{a}({q})", poly, poly, WS)
             | st.builds(lambda p, q: f"(({p})/({q}))", poly, poly))
    j = draw(st.none() | st.integers(0, 3))
    power = "t" if j is None else f"t{draw(WS)}^{draw(WS)}{j}"
    if c is None:
        return power
    return c + draw(st.sampled_from(["", f"{draw(WS)}*{draw(WS)}{power}"]))


@st.composite
def _scanned_vectors(draw):
    """A vector text over one of KINDS whose components all have a scanned shape."""
    d = draw(st.sampled_from(KINDS))
    coefficient = _literal(parens=True)
    if isinstance(d, RationalFunctionsAtZero):
        coefficient = coefficient | _ratfunc_coefficient() | _rendered_rft0_coefficient()
    comps = draw(st.lists(_monomials("X", coefficient), min_size=1, max_size=3))
    return d, ",".join(comps), True


def _outcome(d, text):
    """parse_vector's entries with the types of their raw values, or its error;
    its packed numerators and denominator first."""
    try:
        v = parse_vector(d, text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return (v.nums, v.den), [[(type(c), c, type(c.value)) if isinstance(c, ScalarElement)
                     else (type(c), c, [type(x) for x in c.num + c.den]) for c in comp]
                    for comp in v.comps]


def _no_scanner(domain):
    return lambda text: None


@PROPERTY
@given(_scanned_vectors())
@example((KINDS[0], "1 + -X^2, -X^2", False))  # (-X)^2 after a '+'; -(X^2) leading
@example((KINDS[1], "1 + -X^2, - X^2 + 1", False))
@example((KINDS[2], "2/3^2, 2^3, (2)^3", False))  # '^' binds before '/' and signs
@example((KINDS[3], "X^2^3", False))  # an error: trailing '^'
@example((KINDS[4], "1 + -X^2, -2^2*X", False))
@example((KINDS[1], "X^2 + 3 + X^0 - 2*X^2 + X + 5*X^2", True))  # repeated, unsorted
@example((KINDS[2], "5/10", False))  # division by zero in F_5
@example((KINDS[3], "((1 + t)/(1 - 1)), ((X)/(2)), t*X", False))
def test_scanner_matches_parser(case):
    d, text, shaped = case
    got = _outcome(d, text)
    with patch.object(textio, "_scanner", _no_scanner):
        want = _outcome(d, text)
    assert got == want, text
    if shaped:  # every component is scanned, unless it divides by zero
        scan = textio._scanner(d)
        for chunk, _ in textio._split_components(text):
            try:
                textio._PolyParser(d, textio._Tokens(chunk)).parse()
            except ParseError as exc:
                assert "division by zero" in str(exc), chunk
                continue
            assert scan(chunk) is not None, chunk


@pytest.mark.parametrize("text", [
    "1 + -X^2", "2/3^2", "2^3", "X^2^3", "1 + -(3)", "2X", "2 3", "X*3", "1 +",
    "", " ", "((X)/(2))", "t*X",
])
def test_scanner_leaves_other_shapes_to_the_parser(text):
    for d in KINDS:
        if text == "t*X" and isinstance(d, RationalFunctionsAtZero):
            # a shape render_vector writes over rft0, scanned with the parser's value
            assert textio._scanner(d)(text) == (((), (1,)), ((0, 1), (1,)))
            assert parse_vector(d, text) == PolyVec(d, [(d.zero, d.uniformizer())])
            continue
        assert textio._scanner(d)(text) is None, (d.tag, text)


def test_scanner_precedence_values():
    assert parse_vector(Z2, "1 + -X^2") == PolyVec.from_raw(Z2, [[1, 0, 1]])
    assert parse_vector(Z2, "-X^2") == PolyVec.from_raw(Z2, [[0, 0, -1]])
    assert parse_vector(Z2, "2/3^2") == PolyVec.from_raw(Z2, [[Fraction(2, 9)]])
    assert parse_vector(Z2, "X^3 + X + X^0 + X - 1") == PolyVec.from_raw(Z2, [[0, 2, 0, 1]])


def test_division_by_zero_keeps_its_column():
    F5 = TrivialField("fp", 5)
    for text, column in (("5/10", 2), ("1, 5/10", 5), ("X, (3/10)*X", 6)):
        with pytest.raises(ParseError, match="division by zero") as exc:
            parse_vector(F5, text, line=4)
        assert (exc.value.line, exc.value.column) == (4, column)


def test_the_scanner_really_runs(monkeypatch):
    """Rendered vectors and the benchmark generator's rft0 shape never reach
    the parser."""

    class Refused:
        def __init__(self, *args):
            raise AssertionError("the parser ran")

    rng = random.Random(18)
    vectors = []
    for d in (Z2, Zp(3), TrivialField("q"), TrivialField("fp", 5)):
        for _ in range(40):
            comps = [[Fraction(rng.randrange(-99, 100), rng.choice((1, 7, 11, 13)))
                      if rng.random() < 0.7 else 0 for _ in range(rng.randrange(0, 6))]
                     for _ in range(rng.randrange(1, 4))]
            v = PolyVec.from_raw(d, comps)
            vectors.append((v, render_vector(v)))
    for d in (RationalFunctionsAtZero("q"), RationalFunctionsAtZero("fp", 5)):
        for _ in range(40):
            comps, texts = [], []
            for _ in range(rng.randrange(1, 4)):
                coeffs = [[rng.randint(-5, 5) for _ in range(3)]
                          for _ in range(rng.randrange(1, 4))]
                comps.append([d.element(((a, b), (1, c))) for a, b, c in coeffs])
                texts.append(" + ".join(
                    f"(({a} + {b}*t)/(1 + {c}*t))" + (f"*X^{k}" if k else "")
                    for k, (a, b, c) in enumerate(coeffs)))
            vectors.append((PolyVec(d, comps), ", ".join(texts)))
    monkeypatch.setattr(textio, "_PolyParser", Refused)
    for v, text in vectors:
        assert parse_vector(v.domain, text) == v, text


def test_shipped_rft0_components_are_scanned():
    """t^2 + t*X and (t+2)/(3), once parser shapes, are scanned, with the
    values they always had."""
    path = Path(__file__).resolve().parent.parent / "instances" / "rational-functions.vsat"
    inst = parse_instance(path.read_text())
    R = inst.domain
    scan = textio._scanner(R)
    one = (1,)
    assert scan("t^2 + t*X") == (((0, 0, 1), one), ((0, 1), one))
    assert scan("(t+2)/(3)") == (((2, 1), (3,)),)
    assert scan("t*X^2") == (((), one), ((), one), ((0, 1), one))
    t2, t = R.from_polys((0, 0, 1)), R.uniformizer()
    assert inst.vectors == [
        PolyVec(R, [(t2, t), (R.from_polys((2, 1), (3,)),)]),
        PolyVec(R, [(R.zero, R.zero, t), (R.one,)]),
    ]


# ---------------------------------------------------------------------------
# ((P)/(Q)) with integer literals only: P and Q are read into the numerator
# ring and make one RatFuncElement, with no from_polys.

RFT0 = [RationalFunctionsAtZero("q"), RationalFunctionsAtZero("fp", 5)]


@st.composite
def _rft0_vectors(draw):
    """A vector over rft0:q or rft0:5 with t-dependent denominators that
    share factors, so that D differs from every entry's denominator."""
    d = draw(st.sampled_from(RFT0))
    small = st.integers(-9, 9)
    den = st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 0, 1), (1, 3, 2), (3, 1)])
    coeff = st.builds(lambda num, q: d.element((num, q)), st.lists(small, max_size=3), den)
    return PolyVec(d, draw(st.lists(st.lists(coeff, max_size=4), min_size=1, max_size=3)))


@pytest.mark.parametrize("d", RFT0, ids=lambda d: d.tag)
@pytest.mark.parametrize("text, num, den", [
    ("((2+2*t)/(4+4*t))", (2, 2), (4, 4)),            # a common factor
    ("((1 + t)/(2 - 3*t^2))", (1, 1), (2, 0, -3)),    # a negative leading denominator
    ("((0)/(1 + t))", (), (1, 1)),                    # a zero numerator
    ("((t - t)/(7))", (), (7,)),
    ("((-6*t^2 + 4*t)/(2*t^2 - t - 1))", (0, 4, -6), (-1, -1, 2)),
    ("((5 + 10*t)/(1 + 6*t))", (5, 10), (1, 6)),     # zero mod 5, and 6 = 1 mod 5
])
def test_integer_t_coefficients_skip_from_polys(d, text, num, den, monkeypatch):
    """No ``from_polys``, and no ``coerce`` of the base field per literal."""
    want, zero, one = d.from_polys(num, den), d.zero, d.one
    monkeypatch.setattr(RationalFunctionsAtZero, "from_polys",
                        lambda *a: pytest.fail("from_polys ran"))
    monkeypatch.setattr(type(d.field), "coerce", lambda *a: pytest.fail("coerce ran"))
    assert textio._scanner(d)(text) == (((want.num, want.den),) if want else ())
    assert parse_vector(d, f"X, {text}*X") == PolyVec(d, [(zero, one), (zero, want)])


class _Refused:
    """A stand-in for ``_PolyParser`` that records each fallback and raises."""

    seen: list = []

    def __init__(self, domain, toks):
        _Refused.seen.append(toks.text)
        raise AssertionError("the parser ran")


def _fallbacks(pairs, monkeypatch):
    """The components, of the rendered texts, that reach the parser; each
    text that parses without it must give back its vector."""
    monkeypatch.setattr(textio, "_PolyParser", _Refused)
    _Refused.seen = []
    for v, text in pairs:
        try:
            back = parse_vector(v.domain, text)
        except AssertionError:
            continue
        assert back == v, text
    return _Refused.seen


@PROPERTY
@given(_rft0_vectors())
def test_rendered_rft0_vectors_need_no_parser(v):
    text = render_vector(v)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _fallbacks([(v, text)], monkeypatch) == [], text


@pytest.mark.parametrize("d", RFT0, ids=lambda d: d.tag)
def test_rendered_rft0_generators_need_no_parser(d, monkeypatch):
    """Generators of saturate_vx and syzygy_vx on inputs of the benchmark's
    rft0 shape, rendered and parsed back: no component falls back."""
    rng = random.Random(3)

    def poly(deg):
        return " + ".join(
            f"(({rng.randint(-5, 5)} + {rng.randint(-5, 5)}*t)/(1 + {rng.randint(-5, 5)}*t))"
            + (f"*X^{k}" if k else "") for k in range(rng.randrange(1, deg + 2)))

    pairs = []
    small = d.field.p == 0  # rft0:q grows fastest
    for _ in range(15):
        n, m = rng.randrange(1, 4 - small), rng.randrange(1, 4 - small)
        S = [parse_vector(d, ", ".join(poly(2 - small) for _ in range(n))) for _ in range(m)]
        k = rng.randrange(1, 3)
        U = [parse_vector(d, ", ".join(poly(1) for _ in range(k)))
             for _ in range(rng.randrange(3, 5))]
        for gens in (saturate_vx(S).generators, syzygy_vx(U).generators):
            pairs += [(g, render_vector(g)) for g in gens]
    assert len(pairs) > 30
    assert _fallbacks(pairs, monkeypatch) == []


@pytest.mark.parametrize("d", RFT0, ids=lambda d: d.tag)
def test_integer_t_coefficient_zero_denominator_keeps_its_error(d):
    cases = [("X, ((1 + t)/(0))", 12), ("((1 + t)/(2 - 2))*X", 9)]
    if d.field.p:  # a denominator that is zero mod p only
        cases.append(("X, ((1 + t)/(10 - 5*t))", 12))
    for text, column in cases:
        with pytest.raises(ParseError, match="division by zero") as exc:
            parse_vector(d, text, line=3)
        assert (exc.value.line, exc.value.column) == (3, column)


@pytest.mark.parametrize("d", RFT0, ids=lambda d: d.tag)
def test_fractional_t_coefficients_keep_from_polys(d, monkeypatch):
    calls = []
    from_polys = RationalFunctionsAtZero.from_polys
    monkeypatch.setattr(RationalFunctionsAtZero, "from_polys",
                        lambda self, *a: calls.append(a) or from_polys(self, *a))
    got = parse_vector(d, "((1/2 + t)/(3))")
    assert calls
    assert got == PolyVec(d, [(from_polys(d, (Fraction(1, 2), 1), (3,)),)])


def test_parse_domain_tag_shares_one_domain_per_tag():
    for tag in ("zp:2", "rft0:q", "rft0:5", "field:q", "field:7"):
        assert parse_domain_tag(tag) is parse_domain_tag(tag)
    text = "domain: rft0:q\ntask: syzygy\n\nX\n"
    assert parse_instance(text).domain is parse_instance(text).domain
    for tag in ("zp:4", "rft0:x", "weird:2"):
        for _ in range(2):
            with pytest.raises((ParseError, NotPrime)):
                parse_domain_tag(tag)


# ---------------------------------------------------------------------------
# A parsed vector holds the packed kernel's numerators, its elements built
# on the first read of ``comps``; a vector built from elements packs them on
# the first read of ``nums``.

SCALAR_KINDS = KINDS[:3]
# Odd, prime to 5, with shared factors, so that D differs from every entry's
# denominator and gcd(numerator, D) is not always 1.
PACK_DENS = (1, 3, 7, 9, 21, 63, 77, 3**40)


@st.composite
def _scalar_vectors(draw):
    d = draw(st.sampled_from(SCALAR_KINDS))
    coeff = st.builds(lambda n, den: d.element(Fraction(n, den)),
                      st.integers(-(10**30), 10**30) | st.integers(-9, 9),
                      st.sampled_from(PACK_DENS))
    return PolyVec(d, draw(st.lists(st.lists(coeff, max_size=5), min_size=1, max_size=3)))


def _entries(v):
    return [[(c, type(c.value)) if isinstance(c, ScalarElement)
             else (c, [type(x) for x in c.num + c.den]) for c in comp] for comp in v.comps]


@PROPERTY
@given(_scalar_vectors() | _rft0_vectors())
def test_a_packed_vector_is_its_element_twin(v):
    """Equality both ways, hash, entries and the types of their raw values;
    the element vector packs as the parser does, and reading either form of
    a vector keeps the other; and the text from the numerators is the text
    from the elements.  Over rft0 rendering builds the elements, once, and
    keeps them."""
    elements = v.comps
    assert v._nums is None
    nums, den = v.nums, v.den
    assert v.comps is elements
    element_text = ", ".join(_poly.format_poly(comp, "X") for comp in elements)
    packed = parse_vector(v.domain, element_text)
    assert packed._comps is None
    pnums = packed.nums
    assert (nums, den) == (pnums, packed.den)
    text = render_vector(packed)
    assert text == render_vector(v) == element_text
    if type(packed.den) is tuple:
        comps = packed._comps
        assert comps is not None and packed.comps is comps
    else:
        assert packed._comps is None  # rendering built no element
    assert packed == v and v == packed and hash(packed) == hash(v)
    assert _entries(packed) == _entries(v)
    twin = PolyVec(v.domain, packed.comps)
    assert render_vector(packed) == render_vector(twin) == text
    assert (packed.is_zero(), packed.degree()) == (v.is_zero(), v.degree())
    assert packed.nums is pnums and v.nums is nums and v.comps is elements


@pytest.mark.parametrize("d", SCALAR_KINDS + RFT0, ids=lambda d: d.tag)
def test_generators_render_the_same_before_and_after_comps_is_read(d):
    rng = random.Random(26)
    rft0 = isinstance(d, RationalFunctionsAtZero)

    def coeff():
        if rft0:  # the benchmark generator's shape
            a, b, c = (rng.randint(-5, 5) for _ in range(3))
            return f"(({a} + {b}*t)/(1 + {c}*t))"
        return f"({rng.randrange(-99, 100) * 2 ** rng.randrange(3)}/{rng.choice((1, 3, 7))})"

    def poly(deg):
        terms = [f"{coeff()}*X^{k}" for k in range(rng.randrange(deg + 1))]
        return " + ".join(terms) or "0"

    rendered = {saturate_vx: 0, syzygy_vx: 0}
    for _ in range(12):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4 if not rft0 else 3)
        S = [parse_vector(d, ", ".join(poly(3 - 2 * rft0) for _ in range(n))) for _ in range(m)]
        U = [parse_vector(d, ", ".join(poly(2 - rft0) for _ in range(2))) for _ in range(3)]
        for run, vectors in ((saturate_vx, S), (syzygy_vx, U)):
            if all(v.is_zero() for v in vectors):
                continue
            gens = run(vectors).generators
            assert all(g._comps is None for g in gens)
            before = [render_vector(g) for g in gens]
            twins = [PolyVec(d, g.comps) for g in gens]
            assert [render_vector(g) for g in gens] == before
            assert [render_vector(t) for t in twins] == before
            assert [parse_vector(d, text) for text in before] == twins
            rendered[run] += len(gens)
    assert all(rendered.values()), rendered


@pytest.mark.parametrize("d, text, message, column", [
    (Z2, "X, 1 + (3/4)*X", "coefficient 3/4 lies outside the domain", 3),
    (Z2, "(1/2)*X^2 + 1/6, 1/0", "coefficient 1/6 lies outside the domain", 1),
    (Z2, "1, (X + 1)*(1/2)", "coefficient 1/2 lies outside the domain", 3),  # parsed
    (Zp(3), "(1/3)*X - (1/3)*X + 2/9, 1", "coefficient 2/9 lies outside the domain", 1),
    (Z2, "X, 1/0", "division by zero", 5),
    (TrivialField("q"), "X, (2/0)*X", "division by zero", 6),
    (TrivialField("fp", 5), "X, 3/(5 - 5)", "division by zero", 5),
    (TrivialField("fp", 5), "X, 3/(X - X)", "division by zero", 5),
])
def test_scalar_parse_errors_keep_their_message_and_position(d, text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_vector(d, text, line=9)
    assert str(exc.value) == f"line 9, column {column}: {message}"


# The messages and positions of the element path, which built a
# RatFuncElement per literal and tested its valuation.
@pytest.mark.parametrize("tag, text, message, column", [
    ("rft0:q", "X, 1 + ((1)/(t))*X", "coefficient (1)/(t) lies outside the domain", 3),
    ("rft0:5", "X, 1 + ((1)/(t))*X", "coefficient (1)/(t) lies outside the domain", 3),
    ("rft0:q", "X, ((1 + t)/(t - t^2))",
     "coefficient (-t - 1)/(t^2 - t) lies outside the domain", 3),
    ("rft0:5", "((3)/(5*t + t^2))*X - 1, 1", "coefficient (3)/(t^2) lies outside the domain", 1),
    ("rft0:q", "((1)/(t))*X + ((1 + t)/(t))*X, 1",
     "coefficient (t + 2)/(t) lies outside the domain", 1),
    ("rft0:q", "X, ((2/3)/(t))", "coefficient (2/3)/(t) lies outside the domain", 3),
    ("rft0:q", "t*X, (t + 1)/(2*t)",
     "coefficient ((1/2)*t + 1/2)/(t) lies outside the domain", 5),
    ("rft0:q", "(1)/(t), 1", "coefficient (1)/(t) lies outside the domain", 1),
    ("rft0:q", "1, (X + 1)*((1)/(t))", "coefficient (1)/(t) lies outside the domain", 3),  # parsed
    ("rft0:5", "X, ((1 + t)/(10 - 5*t))", "division by zero", 12),
    ("rft0:5", "X, 1/5", "division by zero", 5),
    ("rft0:5", "X, 2 % t", "unexpected character '%'", 6),
])
def test_rft0_parse_errors_keep_their_message_and_position(tag, text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_vector(parse_domain_tag(tag), text, line=7)
    assert str(exc.value) == f"line 7, column {column}: {message}"


def test_coefficients_are_checked_after_their_terms_are_summed():
    assert parse_vector(Z2, "(1/2)*X + (1/2)*X, 1/4 - 1/4") == PolyVec.from_raw(Z2, [[0, 1], []])
    assert parse_vector(Zp(3), "X, X^2, 5/9 - 1/3 + 7/9") == PolyVec.from_raw(
        Zp(3), [[0, 1], [0, 0, 1], [1]])
    Rq, R5 = RFT0
    assert parse_vector(Rq, "((1)/(t)) - ((1)/(t)) + 2, ((1)/(t)) + ((-1 + t)/(t))") == (
        PolyVec.from_raw(Rq, [[2], [1]]))
    assert parse_vector(R5, "((1)/(t))*X + ((4 + t)/(t))*X, "
                            "((2)/(t^2 + t)) + ((3 + 3*t)/(t + t^2))") == (
        PolyVec(R5, [(R5.zero, R5.one), (R5.element(((3,), (1, 1))),)]))


def test_importing_textio_leaves_the_packed_modules_unloaded():
    code = ("import sys\nfrom valsat.textio import parse_vector, render_vector, parse_domain_tag\n"
            "v = parse_vector(parse_domain_tag('zp:2'), '(1/3)*X + 2, 5')\n"
            "assert render_vector(v) == '(1/3)*X + 2, 5', render_vector(v)\n"
            "v = parse_vector(parse_domain_tag('rft0:5'), '((1 + t)/(2 + 2*t))*X + 1, 3*t')\n"
            "assert render_vector(v) == '3*X + 1, 3*t', render_vector(v)\n"
            "loaded = [m for m in ('valsat._packed', 'valsat._ratkernel') if m in sys.modules]\n"
            "sys.exit(f'loads {loaded}' if loaded else 0)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
