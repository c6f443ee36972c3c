"""Textual syntax for elements, vectors and instance files.

Vectors are comma-separated univariate polynomials in X, with ``^`` powers,
``/`` fractions and parenthesised coefficients, e.g. ``(2/3)*X^2 + 1, -X``.
The rational-function domain additionally understands the scalar variable
``t``, e.g. ``(t+2)/(3)*X - 1``.  Instance files are a line-oriented
``key: value`` header followed by one vector per line; ``#`` starts a
comment.  Rendering and parsing round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import _poly
from .errors import NotInDomain, ParseError
from .polyvec import PolyVec
from .valuation import (
    KIND_RFT0,
    Domain,
    RationalFunctionsAtZero,
    TrivialField,
    Zp,
    describe_domain,
)

_TOKEN_RE = re.compile(r"\s*(\d+|[Xt^*/()+-])")


class _Tokens:
    def __init__(self, text: str, line: int | None = None, col0: int = 0):
        self.text = text
        self.line = line
        self.col0 = col0
        self.pos = 0
        self.toks: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].strip()
                if not rest:
                    break
                self._fail(f"unexpected character {rest[0]!r}", pos)
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()

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


class _PolyParser:
    """Recursive-descent parser producing a polynomial over K (see ``_poly``)."""

    def __init__(self, domain: Domain, toks: _Tokens):
        self.domain = domain
        self.toks = toks

    def parse_sum(self):
        sign = 1
        if self.toks.peek() in ("+", "-"):
            sign = -1 if self.toks.take()[0] == "-" else 1
        acc = self.parse_product()
        if sign < 0:
            acc = _poly.neg(self.domain, acc)
        while self.toks.peek() in ("+", "-"):
            op = self.toks.take()[0]
            term = self.parse_product()
            if op == "-":
                term = _poly.neg(self.domain, term)
            acc = _poly.add(self.domain, acc, term)
        return acc

    def parse_product(self):
        acc = self.parse_power()
        while self.toks.peek() in ("*", "/"):
            op, at = self.toks.take()
            rhs = self.parse_power()
            if op == "*":
                acc = _poly.mul(self.domain, acc, rhs)
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
                acc = tuple(c / rhs[0] for c in acc)
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
            out = (self.domain.one,)
            for _ in range(int(tok)):
                out = _poly.mul(self.domain, out, base)
            return out
        return base

    def parse_atom(self):
        tok, at = self.toks.take()
        if tok.isdigit():
            return _poly.trim((self.domain.k_element(int(tok)),))
        if tok == "X":
            return (self.domain.zero, self.domain.one)
        if tok == "t":
            if not isinstance(self.domain, RationalFunctionsAtZero):
                raise ParseError(
                    "the variable t only exists in the rational-function domain",
                    self.toks.line,
                    self.toks.col0 + at + 1,
                )
            return (self.domain.from_polys((0, 1)),)
        if tok == "-":
            return _poly.neg(self.domain, self.parse_atom())
        if tok == "(":
            inner = self.parse_sum()
            self.toks.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {tok!r}", self.toks.line, self.toks.col0 + at + 1
        )


def _split_components(text: str):
    """Split on top-level commas, returning (chunk, start_column) pairs."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    parts.append((text[start:], start))
    return parts


def parse_element(domain: Domain, text: str, line: int | None = None):
    """One element of V: integers, fractions, t-polynomial fractions."""
    toks = _Tokens(text, line)
    poly = _PolyParser(domain, toks).parse_sum()
    if toks.peek() is not None:
        tok, at = toks.toks[toks.pos]
        raise ParseError(f"trailing input {tok!r}", line, at + 1)
    if len(poly) > 1:
        raise ParseError("expected a scalar, found X", line, 1)
    e = poly[0] if poly else domain.zero
    if not e.in_domain:
        raise NotInDomain(f"{e} has negative valuation")
    return e


def parse_vector(domain: Domain, text: str, line: int | None = None) -> PolyVec:
    """A vector of V[X]^n from comma-separated polynomial components."""
    comps = []
    for chunk, col0 in _split_components(text):
        toks = _Tokens(chunk, line, col0)
        poly = _PolyParser(domain, toks).parse_sum()
        if toks.peek() is not None:
            tok, at = toks.toks[toks.pos]
            raise ParseError(f"trailing input {tok!r}", line, col0 + at + 1)
        for c in poly:
            if not c.in_domain:
                raise ParseError(
                    f"coefficient {c} lies outside the domain", line, col0 + 1
                )
        comps.append(poly)
    return PolyVec(domain, comps)


def render_vector(v: PolyVec) -> str:
    parts = []
    for comp in v.comps:
        parts.append(_poly.format_poly(comp, "X"))
    return ", ".join(parts)


def render_element(e) -> str:
    return str(e)


# ---------------------------------------------------------------------------
# Domain tags and instance files.

def parse_domain_tag(tag: str) -> Domain:
    """CLI-style tags: zp:<p>, rft0:q, rft0:<p>, field:q, field:<p>."""
    kind, sep, arg = tag.partition(":")
    if not sep:
        raise ParseError(f"malformed domain tag {tag!r}")
    if kind == "zp":
        if not arg.isdigit():
            raise ParseError(f"zp wants a prime, got {arg!r}")
        return Zp(int(arg))
    if kind in ("rft0", "field"):
        cls = RationalFunctionsAtZero if kind == "rft0" else TrivialField
        if arg == "q":
            return cls("q")
        if arg.isdigit():
            return cls("fp", int(arg))
        raise ParseError(f"{kind} wants 'q' or a prime, got {arg!r}")
    raise ParseError(f"unknown domain kind {kind!r}")


TASKS = ("saturate-free", "saturate-vx", "syzygy")

_HEADER_RE = re.compile(r"^\s*([a-z][a-z-]*)\s*:\s*(.*?)\s*$")


@dataclass
class InstanceFile:
    domain: Domain
    task: str
    vectors: list[PolyVec]
    max_iter: int | None = None
    degree_bound: int | None = None
    verify: bool = False


def _int_header(key: str, value: str, lineno: int, least: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", lineno, 1) from None
    if n < least:
        raise ParseError(f"{key} must be at least {least}, got {n}", lineno, 1)
    return n


def parse_instance(text: str) -> InstanceFile:
    """Parse an instance document: key/value header, then one vector per line."""
    domain = None
    task = None
    max_iter = None
    degree_bound = None
    verify = False
    vector_lines: list[tuple[int, str]] = []
    in_header = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line) if in_header else None
        if m:
            key, value = m.group(1), m.group(2)
            if key == "domain":
                domain = parse_domain_tag(value)
            elif key == "task":
                if value not in TASKS:
                    raise ParseError(f"unknown task {value!r}", lineno, 1)
                task = value
            elif key == "max-iter":
                max_iter = _int_header(key, value, lineno, least=1)
            elif key == "degree-bound":
                degree_bound = _int_header(key, value, lineno, least=0)
            elif key == "verify":
                verify = value.lower() in ("1", "true", "yes", "on")
            else:
                raise ParseError(f"unknown header key {key!r}", lineno, 1)
            continue
        in_header = False
        vector_lines.append((lineno, line))
    if domain is None:
        raise ParseError("missing 'domain:' header")
    if task is None:
        raise ParseError("missing 'task:' header")
    vectors = [parse_vector(domain, line, lineno) for lineno, line in vector_lines]
    widths = {v.n for v in vectors}
    if len(widths) > 1:
        raise ParseError(f"vectors have mixed component counts {sorted(widths)}")
    return InstanceFile(domain, task, vectors, max_iter, degree_bound, verify)


def render_instance(inst: InstanceFile) -> str:
    lines = [f"domain: {describe_domain(inst.domain)}", f"task: {inst.task}"]
    if inst.max_iter is not None:
        lines.append(f"max-iter: {inst.max_iter}")
    if inst.degree_bound is not None:
        lines.append(f"degree-bound: {inst.degree_bound}")
    if inst.verify:
        lines.append("verify: true")
    lines.append("")
    lines.extend(render_vector(v) for v in inst.vectors)
    return "\n".join(lines) + "\n"
