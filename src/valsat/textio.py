"""Textual syntax for elements, vectors and instance files.

Vectors are comma-separated univariate polynomials in X, with ``^`` powers,
``/`` fractions and parenthesised coefficients, e.g. ``(2/3)*X^2 + 1, -X``.
The rational-function domain additionally understands the scalar variable
``t``, e.g. ``(t+2)/(3)*X - 1``.  Instance files are a line-oriented
``key: value`` header followed by one vector per line; ``#`` starts a
comment.  Rendering and parsing round-trip exactly.

Cost model.  ``parse_vector`` hands each component to a term scanner first.
A sum of monomials ``[+-] c [* X[^k]]`` or ``[+-] X[^k]``, with c a literal
``n`` or ``n/d`` (a unary minus allowed), ``(+-n)`` or ``(+-n/d)``, costs one
regex pass and O(terms) field operations, on the same values as the parser:
each term's coefficient is added into its exponent's slot.  Over ``rft0``
a term is ``[+-] c [* t[^j]] [* X[^k]]``, c also ``((P)/(Q))``, ``(P)`` or
``(P)/(Q)`` for P and Q such sums in t: every shape the benchmark's
generator and ``render_vector`` write.  Every other shape goes to the
recursive-descent parser, the one grammar: the scanner accepts a subset
of it, gives the same values there, and raises nothing, so a component that
falls back costs at most one wasted scan.

Every shipped kind is parsed into the packed kernel's form, a
``PackedPolyVec``: numerators in the kernel's ring over one denominator D,
the lcm of the reduced denominators, exactly as ``_packed._pack`` packs
the element vector.  Over ``zp:p``, ``field:q`` and ``field:p`` the
scanner reads a literal n as the int n, a literal n/d over Q as one
reduced pair (``_Q``), and over F_p each literal as a residue; a
coefficient lies in Z_(p) iff p does not divide its denominator, so a
component costs one lcm and one test mod p: no ``Fraction``, no element
and no valuation per literal.  Over ``rft0`` each term is a pair (num,
den) of int tuples in Z[t] or F_p[t]: a literal n or n/d, or P over Q
read with integer literals straight into the ring (reduced mod p once over
F_p), times a power of t.  A '/' inside P or Q, as in ``(3/5)*t``, keeps
the path through the base field and ``from_polys``.  Each coefficient is
reduced once, with one gcd (``valuation.lowest_terms``), lies in V iff its
denominator does not vanish at t = 0, and D costs one gcd per
denominator that is neither 1 nor D (``_poly.ipack``); no
``RatFuncElement`` is built.  ``render_vector`` formats a scalar vector
from its numerators, with one gcd per entry, and an ``rft0`` vector from
its elements, which its first read of ``comps`` builds, one gcd per entry,
and keeps for the oracle.  When the parser runs over ``rft0``, its
elements give their pairs.

In the parser, products and powers cost O(terms) scalar operations.  A power
of a monomial ``c*X^e`` is built as ``c^n*X^(e*n)`` with scalar products
only, and a product with a monomial factor is a shift of the other factor,
scaled at its nonzero entries; only a product of two polynomials that are
not monomials, such as ``(X+1)*(X-1)`` or ``(X+1)^3``, uses dense
multiplication.  Sums cost O(terms) field additions as well: ``_poly.add``
skips the zero coefficients of a shifted term such as ``(c)*X^k``.  Over
``zp:p``, ``field:q`` and ``field:p`` every one of these operations is on a
raw value of the domain's field (a ``Fraction``, or a residue mod p); the
``rft0`` kinds compute on their elements, with one ``t`` element per
parser.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import namedtuple
from math import gcd, lcm

from . import _poly
from ._poly import ilin, imul
from .errors import NotInDomain, ParseError
from .polyvec import PackedPolyVec, PolyVec
from .valuation import (
    Domain,
    RationalFunctionsAtZero,
    RatFuncElement,
    ScalarElement,
    lowest_terms,
    parse_domain_tag,
)

# A token, or (group 2) any other non-space character, which is an error.
_TOKEN_RE = re.compile(r"(\d+|[Xt^*/()+-])|(\S)")


class _Tokens:
    def __init__(self, text: str, line: int | None = None, col0: int = 0):
        self.text = text
        self.line = line
        self.col0 = col0
        self.pos = 0
        self.toks: list[tuple[str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastindex == 2:
                self._fail(f"unexpected character {m.group(2)!r}", m.start())
            self.toks.append((m.group(1), m.start()))

    def _fail(self, msg, pos):
        raise ParseError(msg, self.line, self.col0 + pos + 1)

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        if self.pos >= len(self.toks):
            self._fail("unexpected end of input", len(self.text))
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, at = self.take()
        if tok != want:
            raise ParseError(
                f"expected {want!r}, got {tok!r}", self.line, self.col0 + at + 1
            )
        return tok


def _is_monomial(p) -> bool:
    """True for c*X^e with c nonzero: a trimmed polynomial with one nonzero entry."""
    return bool(p) and not any(p[:-1])


class _PolyParser:
    """Recursive-descent parser producing a polynomial over K (see ``_poly``).

    It computes over ``F``: the raw values of ``domain.field`` (Fractions
    over Z_(p) and Q, residues over F_p) when the domain's elements are
    ``ScalarElement``s, else the domain's own elements, a field for
    ``_poly`` too.  ``parse`` returns the polynomial over F.
    """

    def __init__(self, domain: Domain, toks: _Tokens):
        self.domain = domain
        self.toks = toks
        if isinstance(domain.one, ScalarElement):
            self.F, self._literal = domain.field, domain.field.coerce
        else:
            self.F, self._literal = domain, domain.k_element
        self._t = (domain.uniformizer()
                   if isinstance(domain, RationalFunctionsAtZero) else None)

    def parse(self) -> tuple:
        """All of the input as a polynomial over F."""
        poly = self.parse_sum()
        if self.toks.peek() is not None:
            tok, at = self.toks.toks[self.toks.pos]
            raise ParseError(f"trailing input {tok!r}", self.toks.line,
                             self.toks.col0 + at + 1)
        return poly

    def parse_sum(self):
        sign = 1
        if self.toks.peek() in ("+", "-"):
            sign = -1 if self.toks.take()[0] == "-" else 1
        acc = self.parse_product()
        if sign < 0:
            acc = _poly.neg(self.F, acc)
        while self.toks.peek() in ("+", "-"):
            op = self.toks.take()[0]
            term = self.parse_product()
            if op == "-":
                term = _poly.neg(self.F, term)
            acc = _poly.add(self.F, acc, term)
        return acc

    def parse_product(self):
        acc = self.parse_power()
        while self.toks.peek() in ("*", "/"):
            op, at = self.toks.take()
            rhs = self.parse_power()
            if op == "*":
                acc = self.mul(acc, rhs)
            else:
                if len(rhs) > 1:
                    raise ParseError(
                        "division by a polynomial in X",
                        self.toks.line,
                        self.toks.col0 + at + 1,
                    )
                if not rhs:
                    raise ParseError(
                        "division by zero", self.toks.line, self.toks.col0 + at + 1
                    )
                d, div = rhs[0], self.F.div
                acc = tuple(div(c, d) if c else c for c in acc)
        return acc

    def parse_power(self):
        base = self.parse_atom()
        if self.toks.peek() == "^":
            self.toks.take()
            tok, at = self.toks.take()
            if not tok.isdigit():
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    self.toks.line,
                    self.toks.col0 + at + 1,
                )
            return self.power(base, int(tok))
        return base

    def mul(self, a, b):
        """a*b: a monomial factor c*X^e shifts the other by e and scales it by c."""
        if not a or not b:
            return ()
        if _is_monomial(b):
            a, b = b, a
        if not _is_monomial(a):
            return _poly.mul(self.F, a, b)
        c, F = a[-1], self.F
        if c != F.one:
            b = tuple(F.mul(x, c) if x else x for x in b)
        return a[:-1] + b

    def power(self, base, n):
        """base^n, with base^0 = 1; (c*X^e)^n = c^n*X^(e*n) without K[X] products."""
        F = self.F
        if not _is_monomial(base):
            out = (F.one,)
            for _ in range(n):
                out = _poly.mul(F, out, base)
            return out
        c, cn = base[-1], F.one
        if c != cn:
            for _ in range(n):
                cn = F.mul(cn, c)
        return (F.zero,) * ((len(base) - 1) * n) + (cn,)

    def parse_atom(self):
        tok, at = self.toks.take()
        if tok.isdigit():
            return _poly.trim((self._literal(_poly.int_of(tok)),))
        if tok == "X":
            return (self.F.zero, self.F.one)
        if tok == "t":
            if self._t is None:
                raise ParseError(
                    "the variable t only exists in the rational-function domain",
                    self.toks.line,
                    self.toks.col0 + at + 1,
                )
            return (self._t,)
        if tok == "-":
            return _poly.neg(self.F, self.parse_atom())
        if tok == "(":
            inner = self.parse_sum()
            self.toks.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {tok!r}", self.toks.line, self.toks.col0 + at + 1
        )


def _split_components(text: str):
    """Split on top-level commas, returning (chunk, start_column) pairs.

    A comma is top-level when the text before it has as many '(' as ')'.
    """
    parts, start, depth, comma = [], 0, 0, -1
    for piece in text.split(",")[:-1]:
        comma += len(piece) + 1
        depth += piece.count("(") - piece.count(")")
        if not depth:
            parts.append((text[start:comma], start))
            start = comma + 1
    parts.append((text[start:], start))
    return parts


def parse_element(domain: Domain, text: str, line: int | None = None):
    """One element of V: integers, fractions, t-polynomial fractions."""
    parser = _PolyParser(domain, _Tokens(text, line))
    poly = parser.parse()
    if len(poly) > 1:
        raise ParseError("expected a scalar, found X", line, 1)
    if not poly:
        return domain.zero
    e = poly[0] if parser.F is domain else ScalarElement(domain, poly[0])
    if not e.in_domain:
        raise NotInDomain(f"{e} has negative valuation")
    return e


# One term of a sum of monomials: [sign] c [* v[^k]] or [sign] v[^k], the
# coefficient c a literal n or n/d, with a unary minus or in parentheses
# with a sign.  Every part is optional, so it matches at any position;
# ``_scan`` rejects what is not a term.  The variable needs a '*' exactly
# when a coefficient precedes it.
_TERM_RE = re.compile(r"""
    \s*(?P<sign>[+-])?\s*
    (?P<coef>
        (?: (?P<open>\() \s* (?P<psign>[+-])? \s* | (?P<neg>-) \s* )?
        (?P<n>[0-9]+) (?: \s*/\s* (?P<d>[0-9]+) )?
        (?(open) \s*\) )
    )?
    (?: (?(coef) \s*\*\s* ) (?P<var>[Xt]) (?: \s*\^\s* (?P<exp>[0-9]+) )? )?
    \s*""", re.VERBOSE)

# Text with parentheses nested at most one deep, as in ``(3/5)*t + 1``.
_NEST1 = r"[^()]*(?:\([^()]*\)[^()]*)*"

# One term over ``rft0``: [sign] c [* t[^j]] [* X[^k]], every part optional.
# c is a literal as in _TERM_RE but not followed by '/(', or ((P)/(Q)), or
# (P) with an optional /(Q), for P and Q sums of monomials in t (``_scan``).
# These are the shapes the benchmark's generator and ``render_vector``
# write.  ``_scan_rft`` checks that a factor has a '*' exactly when another
# precedes it.  It is compiled on first use (``_rft_term_re``), so that
# importing textio does not pay for it.
_RFT_TERM = rf"""
    \s*(?P<sign>[+-])?\s*
    (?P<coef>
        (?: (?P<open>\() \s* (?P<psign>[+-])? \s* | (?P<neg>-) \s* )?
        (?P<n>[0-9]+) (?: \s*/\s* (?P<d>[0-9]+) )?
        (?(open) \s*\) (?!\s*/\s*\() )
      | \( \s*\( (?P<num>{_NEST1}) \)\s*/\s*\( (?P<den>{_NEST1}) \) \s*\)
      | \( (?P<top>{_NEST1}) \) (?: \s*/\s*\( (?P<bottom>{_NEST1}) \) )?
    )?
    (?: (?P<tmul>\s*\*\s*)? (?P<t>t) (?: \s*\^\s* (?P<texp>[0-9]+) )? )?
    (?: (?P<xmul>\s*\*\s*)? (?P<x>X) (?: \s*\^\s* (?P<exp>[0-9]+) )? )?
    \s*"""


@functools.cache
def _rft_term_re():
    return re.compile(_RFT_TERM, re.VERBOSE)


class _Z:
    """The integers, for ``_scan`` of a t-polynomial with integer literals."""

    zero, one = 0, 1
    add, neg = staticmethod(operator.add), staticmethod(operator.neg)


class _Ratio:
    """n/d in lowest terms with d > 1: the two attributes of a ``Fraction``
    that ``_Q`` and ``_parse_scalars`` read, and its negation."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n, d):
        self.numerator, self.denominator = n, d

    def __neg__(self):
        return _Ratio(-self.numerator, self.denominator)


class _Q(_Z):
    """Q for ``_scan`` over ``zp:p`` and ``field:q``: an int, or a ``_Ratio``.
    Each literal n/d is reduced once; no ``Fraction`` is made."""

    @staticmethod
    def ratio(n, d):
        """n / d for ints, d >= 0, in lowest terms; None when d is zero."""
        if not d:
            return None
        g = gcd(n, d)
        return n // g if g == d else _Ratio(n // g, d // g)

    @staticmethod
    def add(a, b):  # only when one power of X is written twice
        return _Q.ratio(a.numerator * b.denominator + b.numerator * a.denominator,
                        a.denominator * b.denominator)


def _scan(text, F, literal, var):
    """``text`` as a sum of monomials in ``var`` over F, or None.

    The value is the trimmed polynomial the parser gives, over the same F
    with the same ``literal`` (over ``_Q``, the same numbers the parser's
    Fractions hold), for every text this accepts; None means some
    other shape, valid or not, which is left to the parser.  A literal n/d
    is ``F.ratio(n, d)``.  A unary minus is taken only directly before a
    literal, where it cannot bind below a '^'; a literal followed by '^' is
    not a term.  A zero denominator gives None, and the parser raises its
    "division by zero".
    """
    slots = []
    pos, end, match = 0, len(text), _TERM_RE.match
    # a literal is no longer than the text, so a short text needs no chunks
    to_int = int if end <= _poly.SAFE_DIGITS else _poly.int_of
    while True:
        m = match(text, pos)
        sign, coef, _, psign, neg, n, d, x, exp = m.groups()
        if (pos and sign is None) or (coef is None and x is None) or (x and x != var):
            return None
        if n is not None:
            c = literal(to_int(n)) if d is None else F.ratio(to_int(n), to_int(d))
            if c is None:
                return None
        else:
            c = F.one
        if (sign == "-") ^ (neg is not None) ^ (psign == "-"):
            c = F.neg(c)
        k = int(exp) if exp is not None else 1 if x else 0
        if k >= len(slots):
            slots += [F.zero] * (k + 1 - len(slots))
        s = slots[k]
        slots[k] = F.add(s, c) if s else c
        pos = m.end()
        if pos == end:
            break
    while slots and not slots[-1]:
        slots.pop()
    return tuple(slots)


_ONE = (1,)


def _ratio_in_t(rft, ints, top, bottom):
    """P / Q for the texts of P and of Q (None: Q = 1), sums of monomials in
    t, as an unreduced pair in the numerator ring; None when either is some
    other shape or Q is zero.  Integer literals are read by ``ints``, the
    pair (ring, literal) of ``_scan`` that gives Z[t] or F_p[t] directly; a
    '/' inside keeps the path through the base field and ``from_polys``,
    which clears the denominators."""
    frac = "/" in top or (bottom is not None and "/" in bottom)
    R, lit = (rft.field, rft.field.coerce) if frac else ints
    P = _scan(top, R, lit, "t")
    Q = (R.one,) if bottom is None else _scan(bottom, R, lit, "t")
    if P is None or not Q:
        return None
    if frac:
        e = rft.from_polys(P, Q)
        return e.num, e.den
    return P, Q


def _scan_rft(text, rft, ints):
    """``text`` as a polynomial in X over ``rft``, each coefficient a pair
    (num, den) in lowest terms (``valuation.lowest_terms``), or None.

    The same contract as ``_scan``: on every text it accepts it gives the
    parser's value, and it raises nothing.  Each term is one pair: a literal
    n or n/d over 1 or d (a residue over 1 over F_p), or P over Q read by
    ``_ratio_in_t`` with ``ints``, times t^j; a power of X written twice
    adds its pairs, and each coefficient is reduced once at the end, with
    one gcd.
    """
    p = rft.field.p
    slots = []
    pos, end, match = 0, len(text), _rft_term_re().match
    to_int = int if end <= _poly.SAFE_DIGITS else _poly.int_of
    while True:
        m = match(text, pos)
        (sign, coef, _, psign, neg, n, d, num, den, top, bottom,
         tmul, t, texp, xmul, x, exp) = m.groups()
        if ((pos and sign is None) or not (coef or t or x)
                or (t and (tmul is None) != (coef is None))
                or (x and (xmul is None) != (coef is None and t is None))):
            return None
        if n is not None:
            if p:
                c = to_int(n) % p if d is None else rft.field.ratio(to_int(n), to_int(d))
                if c is None:
                    return None
                a, b = (c,) if c else (), _ONE
            else:
                c, b = to_int(n), _ONE if d is None else (to_int(d),)
                if not b[0]:
                    return None
                a = (c,) if c else ()
        elif coef is not None:
            pair = (_ratio_in_t(rft, ints, num, den) if num is not None
                    else _ratio_in_t(rft, ints, top, bottom))
            if pair is None:
                return None
            a, b = pair
        else:
            a, b = _ONE, _ONE
        if a:
            if (sign == "-") ^ (neg is not None) ^ (psign == "-"):
                a = tuple(-y % p for y in a) if p else tuple(-y for y in a)
            j = int(texp) if texp is not None else 1 if t else 0
            if j:
                a = (0,) * j + a
        k = int(exp) if exp is not None else 1 if x else 0
        if k >= len(slots):
            slots += [None] * (k + 1 - len(slots))
        s = slots[k]
        if s is None or not s[0]:
            slots[k] = a, b
        elif a:  # u/w + a/b, reduced below
            u, w = s
            slots[k] = ((ilin(_ONE, u, (-1,), a, p), w) if w == b
                        else (ilin(u, b, tuple(-y for y in a), w, p), imul(w, b, p)))
        pos = m.end()
        if pos == end:
            break
    out = [((), _ONE) if s is None or not s[0] else lowest_terms(*s, p) for s in slots]
    while out and not out[-1][0]:
        out.pop()
    return tuple(out)


def _scanner(domain: Domain):
    """The term scanner of ``domain``'s components: text -> the polynomial
    the parser returns, or None.  It computes over ``_Q`` for ``zp:p`` and
    ``field:q``, on residues for ``field:p`` and on reduced (num, den)
    pairs for ``rft0`` (``_scan_rft``)."""
    if isinstance(domain.one, ScalarElement):
        F = domain.field
        if F.p:
            p = F.p
            return lambda text: _scan(text, F, lambda n: n % p, "X")
        return lambda text: _scan(text, _Q, int, "X")
    if isinstance(domain, RationalFunctionsAtZero):
        p = domain.field.p
        ints = (domain.field, lambda n: n % p) if p else (_Z, int)
        return lambda text: _scan_rft(text, domain, ints)
    return lambda text: _scan(text, domain, domain.k_element, "X")


def _components(domain: Domain, text: str, line):
    """(component, start column) pairs: each component scanned, or parsed
    when the scanner returns None; over ``rft0`` the parser's elements are
    given as the scanner's (num, den) pairs."""
    scan = _scanner(domain)
    pairs = isinstance(domain, RationalFunctionsAtZero)
    for chunk, col0 in _split_components(text):
        poly = scan(chunk)
        if poly is None:
            poly = _PolyParser(domain, _Tokens(chunk, line, col0)).parse()
            if pairs:
                poly = tuple((c.num, c.den) for c in poly)
        yield poly, col0


def parse_vector(domain: Domain, text: str, line: int | None = None) -> PolyVec:
    """A vector of V[X]^n from comma-separated polynomial components.

    Each component goes to the term scanner first and to the parser only
    when the scanner returns None.  Over every shipped kind the vector is a
    ``PackedPolyVec``.
    """
    if isinstance(domain.one, ScalarElement):
        return _parse_scalars(domain, text, line)
    if isinstance(domain, RationalFunctionsAtZero):
        return _parse_ratfuncs(domain, text, line)
    comps = []
    for poly, col0 in _components(domain, text, line):
        for c in poly:
            if not c.in_domain:
                raise ParseError(
                    f"coefficient {c} lies outside the domain", line, col0 + 1
                )
        comps.append(poly)
    return PolyVec(domain, comps)


def _parse_scalars(domain, text, line) -> PackedPolyVec:
    """``parse_vector`` over the scalar kinds, packed as ``_packed._pack``
    packs: residues over 1, or numerators over D, the lcm of the reduced
    denominators.  A coefficient lies outside Z_(p) iff p divides its
    denominator, so each component costs one lcm and one test mod p."""
    if domain.field.p:
        return PackedPolyVec(domain, [list(c) for c, _ in _components(domain, text, line)], 1)
    p, comps, D = domain.p, [], 1
    for poly, col0 in _components(domain, text, line):
        d = lcm(*(c.denominator for c in poly))
        if p and not d % p:
            c = next(c for c in poly if not c.denominator % p)
            value = f"{_poly.num_str(c.numerator)}/{_poly.num_str(c.denominator)}"
            raise ParseError(f"coefficient {value} lies outside the domain", line, col0 + 1)
        D = lcm(D, d)
        comps.append(poly)
    return PackedPolyVec(domain, [[c.numerator * (D // c.denominator) for c in poly]
                                  for poly in comps], D)


def _parse_ratfuncs(domain, text, line) -> PackedPolyVec:
    """``parse_vector`` over ``rft0``, packed as ``_packed._pack`` packs the
    elements: numerators over D, the lcm of the reduced denominators
    (``_poly.ipack``).  A reduced entry lies in V iff its denominator does
    not vanish at t = 0, so a component costs one test per entry."""
    comps = []
    for poly, col0 in _components(domain, text, line):
        for num, den in poly:
            if num and not den[0]:
                c = RatFuncElement(domain, num, den, _coprime=True)
                raise ParseError(f"coefficient {c} lies outside the domain", line, col0 + 1)
        comps.append(poly)
    return PackedPolyVec(domain, *_poly.ipack(comps, domain.field.p))


def render_vector(v: PolyVec) -> str:
    """The text of v, which ``parse_vector`` reads back.  A ``PackedPolyVec``
    over the scalar kinds is rendered from its numerators, with one gcd per
    entry; over ``rft0`` from its elements, which it keeps (``comps``)."""
    if type(v) is not PackedPolyVec or type(v.den) is tuple:
        return ", ".join(_poly.format_poly(comp, "X") for comp in v.comps)
    D, num_str = v.den, _poly.num_str
    if D == 1:
        show = num_str
    else:
        def show(num):  # str(Fraction(num, D))
            g = gcd(num, D)
            return num_str(num // g) if g == D else f"{num_str(num // g)}/{num_str(D // g)}"
    return ", ".join(_poly.format_poly(comp, "X", show) for comp in v.nums)


# ---------------------------------------------------------------------------
# Instance files.

TASKS = ("saturate-free", "saturate-vx", "syzygy")

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_HEADER_RE = re.compile(r"^\s*([a-z][a-z-]*)\s*:\s*(.*?)\s*$")


class InstanceFile(namedtuple("InstanceFile", "domain task vectors max_iter degree_bound verify",
                              defaults=(None, None, False))):
    """A parsed instance: its ``Domain``, task and ``PolyVec``s, and the
    header's optional ``max_iter`` and ``degree_bound`` (None when absent)
    and ``verify`` flag."""

    __slots__ = ()


def _int_header(key: str, value: str, lineno: int | None, least: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", lineno, 1) from None
    if n < least:
        raise ParseError(f"{key} must be at least {least}, got {n}", lineno, 1)
    return n


def _setting(key: str, value: str, lineno: int | None):
    """The checked value of header key ``key``; ``lineno`` is None for an override."""
    if key == "domain":
        return parse_domain_tag(value)
    if key == "task":
        if value not in TASKS:
            raise ParseError(f"unknown task {value!r}", lineno, 1)
        return value
    if key == "max-iter":
        return _int_header(key, value, lineno, least=1)
    if key == "degree-bound":
        return _int_header(key, value, lineno, least=0)
    if key == "verify":
        flag = _FLAGS.get(value.lower())
        if flag is None:
            raise ParseError(f"verify must be one of {'/'.join(_FLAGS)}, "
                             f"got {value!r}", lineno, 1)
        return flag
    raise ParseError(f"unknown header key {key!r}", lineno, 1)


def parse_instance(text: str, overrides=None) -> InstanceFile:
    """Parse an instance document: key/value header, then one vector per line.

    Each header key may appear on one line only: a second line for a key
    raises ParseError at that line.  ``overrides`` maps header keys to raw
    values, as the CLI's flags give them.  Each is checked as a header
    value is, without a line number, and replaces the file's value: the
    file's lines for that key are not read, so neither their values nor
    their repeats are errors.
    """
    overrides = overrides or {}
    settings = {key: _setting(key, value, None) for key, value in overrides.items()}
    first_line: dict[str, int] = {}
    vector_lines: list[tuple[int, str]] = []
    in_header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line) if in_header else None
        if m:
            key = m.group(1)
            if key in overrides:
                continue
            if key in first_line:
                raise ParseError(f"repeated header key {key!r}, first given on line "
                                 f"{first_line[key]}", lineno, 1)
            first_line[key] = lineno
            settings[key] = _setting(key, m.group(2), lineno)
            continue
        in_header = False
        vector_lines.append((lineno, line))
    for key in ("domain", "task"):
        if key not in settings:
            raise ParseError(f"missing '{key}:' header")
    domain = settings["domain"]
    vectors = [parse_vector(domain, line, lineno) for lineno, line in vector_lines]
    widths = {v.n for v in vectors}
    if len(widths) > 1:
        raise ParseError(f"vectors have mixed component counts {sorted(widths)}")
    return InstanceFile(domain, settings["task"], vectors, settings.get("max-iter"),
                        settings.get("degree-bound"), settings.get("verify", False))


def render_instance(inst: InstanceFile) -> str:
    lines = [f"domain: {inst.domain.tag}", f"task: {inst.task}"]
    if inst.max_iter is not None:
        lines.append(f"max-iter: {inst.max_iter}")
    if inst.degree_bound is not None:
        lines.append(f"degree-bound: {inst.degree_bound}")
    if inst.verify:
        lines.append("verify: true")
    lines.append("")
    lines.extend(render_vector(v) for v in inst.vectors)
    return "\n".join(lines) + "\n"
