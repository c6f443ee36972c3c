import random
from fractions import Fraction

import pytest

from valsat.errors import ParseError
from valsat.polyvec import PolyVec
from valsat.textio import (
    parse_domain_tag,
    parse_instance,
    parse_vector,
    render_instance,
    render_vector,
)
from valsat.valuation import RationalFunctionsAtZero, TrivialField, Zp

Z2 = Zp(2)


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
