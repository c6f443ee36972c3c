"""Residually discrete valuation domains with exact arithmetic.

Three concrete instances are shipped:

* ``Zp(p)`` -- rationals with nonnegative p-adic valuation (the integers
  localised at the prime p);
* ``RationalFunctionsAtZero(base)`` -- rational functions in ``t`` over Q or
  F_p that are defined at ``t = 0``, valued by the vanishing order at 0;
* ``TrivialField(base)`` -- Q or F_p with the trivial valuation, where every
  nonzero element is a unit.

Elements are immutable canonical reduced fractions (positive integer
denominator for Zp, monic denominator for rational functions), so structural
equality is semantic equality and every operation is exact.  The quotient
field K is represented by the same element classes: ``Domain.element`` insists
on nonnegative valuation, ``Domain.k_element`` does not.

The residue field is never materialised; every residual question reduces to
``is_unit``.  The valuation of zero is the ``math.inf`` sentinel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _poly
from ._poly import gcd as _pgcd  # a module global, hooked by perfbench/tracing.py
from .errors import AllZero, NotDivisible, NotInDomain, NotPrime

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything we will ever see."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_val(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Base fields for the rational-function instance: Q and F_p.

class _QQ:
    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(x):
        return Fraction(x)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    neg = staticmethod(operator.neg)


class _GFp:
    def __init__(self, p):
        self.name = "fp"
        self.p = p
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NotInDomain(f"denominator not invertible mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p


# ---------------------------------------------------------------------------
# Elements.

class DomainElement:
    """Common behaviour of elements of V (and of its quotient field K)."""

    __slots__ = ()

    def is_zero(self) -> bool:
        raise NotImplementedError

    def valuation(self):
        """Value of the element under the domain valuation; inf for zero."""
        raise NotImplementedError

    def is_unit(self) -> bool:
        return self.valuation() == 0

    @property
    def in_domain(self) -> bool:
        return self.valuation() >= 0

    def divides(self, other: "DomainElement") -> bool:
        if self.is_zero():
            return other.is_zero()
        if other.is_zero():
            return True
        return self.valuation() <= other.valuation()

    def div_exact(self, other: "DomainElement") -> "DomainElement":
        """self / other, required to land back in V."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero domain element")
        q = self / other
        if not q.in_domain:
            raise NotDivisible(f"{self} is not divisible by {other}")
        return q

    def __sub__(self, other):
        return self + (-other)

    def __bool__(self):
        return not self.is_zero()


class ZpElement(DomainElement):
    __slots__ = ("domain", "value")

    def __init__(self, domain, value: Fraction):
        self.domain = domain
        self.value = value

    def is_zero(self):
        return self.value == 0

    def valuation(self):
        if self.value == 0:
            return math.inf
        p = self.domain.p
        v = _int_val(self.value.numerator, p)
        return v if v else -_int_val(self.value.denominator, p)

    def __add__(self, other):
        return ZpElement(self.domain, self.value + other.value)

    def __mul__(self, other):
        return ZpElement(self.domain, self.value * other.value)

    def __truediv__(self, other):
        return ZpElement(self.domain, self.value / other.value)

    def __neg__(self):
        return ZpElement(self.domain, -self.value)

    def __eq__(self, other):
        return (
            isinstance(other, ZpElement)
            and self.domain == other.domain
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.domain, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ZpElement({self.domain.p}, {self.value})"


class FieldElement(DomainElement):
    """Element of a trivial-valuation field (Q or F_p)."""

    __slots__ = ("domain", "value")

    def __init__(self, domain, value):
        self.domain = domain
        self.value = value

    def is_zero(self):
        return self.value == 0

    def valuation(self):
        return math.inf if self.value == 0 else 0

    def __add__(self, other):
        return FieldElement(self.domain, self.domain.field.add(self.value, other.value))

    def __mul__(self, other):
        return FieldElement(self.domain, self.domain.field.mul(self.value, other.value))

    def __truediv__(self, other):
        if other.value == 0:
            raise ZeroDivisionError("division by zero domain element")
        return FieldElement(self.domain, self.domain.field.div(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.domain, self.domain.field.neg(self.value))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.domain == other.domain
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.domain, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FieldElement({self.domain.spec.base}, {self.value})"


class RatFuncElement(DomainElement):
    """Reduced fraction a(t)/b(t) with monic denominator."""

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain, num, den, *, _canonical=False):
        self.domain = domain
        if _canonical:
            self.num, self.den = num, den
            return
        F = domain.field
        num, den = _poly.trim(num), _poly.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            self.num, self.den = (), (F.one,)
            return
        g = _pgcd(F, num, den)
        if len(g) > 1:
            num = _poly.divmod(F, num, g)[0]
            den = _poly.divmod(F, den, g)[0]
        lead = den[-1]
        if lead != F.one:
            num = tuple(F.div(x, lead) for x in num)
            den = tuple(F.div(x, lead) for x in den)
        self.num, self.den = num, den

    def is_zero(self):
        return not self.num

    def valuation(self):
        if not self.num:
            return math.inf
        ov = _poly.order(self.num)
        return ov if ov else -_poly.order(self.den)

    def __add__(self, other):
        F = self.domain.field
        num = _poly.add(
            F, _poly.mul(F, self.num, other.den), _poly.mul(F, other.num, self.den)
        )
        return RatFuncElement(self.domain, num, _poly.mul(F, self.den, other.den))

    def __mul__(self, other):
        F = self.domain.field
        return RatFuncElement(
            self.domain, _poly.mul(F, self.num, other.num), _poly.mul(F, self.den, other.den)
        )

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero domain element")
        F = self.domain.field
        return RatFuncElement(
            self.domain, _poly.mul(F, self.num, other.den), _poly.mul(F, self.den, other.num)
        )

    def __neg__(self):
        F = self.domain.field
        return RatFuncElement(
            self.domain, tuple(F.neg(x) for x in self.num), self.den, _canonical=True
        )

    def __eq__(self, other):
        return (
            isinstance(other, RatFuncElement)
            and self.domain == other.domain
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.domain, self.num, self.den))

    def __str__(self):
        F = self.domain.field
        num = _poly.format_poly(self.num, "t")
        if self.den == (F.one,):
            return num
        return f"({num})/({_poly.format_poly(self.den, 't')})"

    def __repr__(self):
        return f"RatFuncElement({self})"


# ---------------------------------------------------------------------------
# Domain specifications and the three shipped instances.

KIND_ZP = "zp"
KIND_RFT0 = "rational-function-at-zero"
KIND_FIELD = "trivial-field"


@dataclass(frozen=True)
class DomainSpec:
    """Description of a shipped domain instance.

    ``kind`` is one of ``zp``, ``rational-function-at-zero``,
    ``trivial-field``; ``p`` is the prime for zp and for F_p base fields;
    ``base`` is ``"q"`` or ``"fp"`` for the two non-zp kinds.
    """

    kind: str
    p: int | None = None
    base: str | None = None

    def __post_init__(self):
        if self.kind == KIND_ZP:
            if self.base is not None:
                raise NotPrime("zp takes no base field")
            self._check_p()
        elif self.kind in (KIND_RFT0, KIND_FIELD):
            if self.base not in ("q", "fp"):
                raise NotPrime(f"base must be 'q' or 'fp', got {self.base!r}")
            if self.base == "fp":
                self._check_p()
            elif self.p is not None:
                raise NotPrime("base 'q' takes no prime")
        else:
            raise NotPrime(f"unknown domain kind {self.kind!r}")

    def _check_p(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise NotPrime(f"{self.p!r} is not prime")


class Domain:
    """Shared interface of the shipped valuation-domain instances.

    A domain is also the coefficient field of K[X] for ``_poly``: with
    ``zero``/``one`` it provides that module's field operations.
    """

    spec: DomainSpec

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    neg = staticmethod(operator.neg)

    def element(self, raw) -> DomainElement:
        """Canonical element of V equal to ``raw``; NotInDomain if val < 0."""
        e = self.k_element(raw)
        if not e.in_domain:
            raise NotInDomain(f"{e} has negative valuation")
        return e

    def k_element(self, raw) -> DomainElement:
        """Element of the quotient field K (no valuation restriction)."""
        raise NotImplementedError

    @property
    def zero(self):
        return self.k_element(0)

    @property
    def one(self):
        return self.k_element(1)

    def uniformizer(self) -> DomainElement | None:
        """A generator of the maximal ideal, None for trivial valuations."""
        return None

    @property
    def packing_prime(self) -> int | None:
        """Prime for the packed rational kernel; 0 for trivial Q; else None."""
        return None

    def __eq__(self, other):
        return isinstance(other, Domain) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"<domain {describe_domain(self)}>"


class Zp(Domain):
    """Rationals of nonnegative p-adic valuation."""

    def __init__(self, p: int):
        self.spec = DomainSpec(KIND_ZP, p=p)
        self.p = p

    def k_element(self, raw):
        if isinstance(raw, ZpElement):
            if raw.domain != self:
                raise NotInDomain("element from a different domain")
            return raw
        return ZpElement(self, Fraction(raw))

    def uniformizer(self):
        return ZpElement(self, Fraction(self.p))

    @property
    def packing_prime(self):
        return self.p


class RationalFunctionsAtZero(Domain):
    """Rational functions in t over Q or F_p that are regular at t = 0."""

    def __init__(self, base: str = "q", p: int | None = None):
        self.spec = DomainSpec(KIND_RFT0, p=p, base=base)
        self.field = _QQ() if base == "q" else _GFp(p)

    def k_element(self, raw):
        if isinstance(raw, RatFuncElement):
            if raw.domain != self:
                raise NotInDomain("element from a different domain")
            return raw
        if isinstance(raw, tuple) and len(raw) == 2:
            num, den = raw
            return self.from_polys(num, den)
        x = Fraction(raw)
        F = self.field
        return RatFuncElement(self, (F.coerce(x),), (F.one,))

    def from_polys(self, num, den=(1,)) -> RatFuncElement:
        """Build a(t)/b(t) from coefficient sequences (ascending exponent)."""
        F = self.field
        return RatFuncElement(
            self, tuple(F.coerce(x) for x in num), tuple(F.coerce(x) for x in den)
        )

    def uniformizer(self):
        F = self.field
        return RatFuncElement(self, (F.zero, F.one), (F.one,))


class TrivialField(Domain):
    """Q or F_p carrying the trivial valuation."""

    def __init__(self, base: str = "q", p: int | None = None):
        self.spec = DomainSpec(KIND_FIELD, p=p, base=base)
        self.field = _QQ() if base == "q" else _GFp(p)

    def k_element(self, raw):
        if isinstance(raw, FieldElement):
            if raw.domain != self:
                raise NotInDomain("element from a different domain")
            return raw
        return FieldElement(self, self.field.coerce(Fraction(raw)))

    @property
    def packing_prime(self):
        return 0 if self.spec.base == "q" else None


def make_domain(spec: DomainSpec) -> Domain:
    if spec.kind == KIND_ZP:
        return Zp(spec.p)
    if spec.kind == KIND_RFT0:
        return RationalFunctionsAtZero(spec.base, spec.p)
    return TrivialField(spec.base, spec.p)


def describe_domain(domain: Domain) -> str:
    """Short CLI-style tag, e.g. ``zp:3`` or ``rft0:q`` or ``field:5``."""
    spec = domain.spec
    if spec.kind == KIND_ZP:
        return f"zp:{spec.p}"
    tag = "rft0" if spec.kind == KIND_RFT0 else "field"
    return f"{tag}:q" if spec.base == "q" else f"{tag}:{spec.p}"


# ---------------------------------------------------------------------------
# The Context 1.4 decision procedures.

@dataclass(frozen=True)
class Divisibility:
    """Outcome of the divisibility decision for a pair (a, b).

    ``b_over_a`` is x with b = x*a whenever a divides b, and symmetrically
    for ``a_over_b``.  Both cofactors are present (and are units) exactly
    when a and b are associates.
    """

    a_divides_b: bool
    b_divides_a: bool
    b_over_a: DomainElement | None
    a_over_b: DomainElement | None


def decide_divisibility(a: DomainElement, b: DomainElement) -> Divisibility:
    """Decide which of a | b and b | a holds, with explicit cofactors.

    Total by the valuation-domain axiom.  Convention: every element divides
    zero, and zero divides only zero.
    """
    if a.is_zero() and b.is_zero():
        one = a.domain.one
        return Divisibility(True, True, one, one)
    if a.is_zero():
        return Divisibility(False, True, None, a.domain.zero)
    if b.is_zero():
        return Divisibility(True, False, a.domain.zero, None)
    va, vb = a.valuation(), b.valuation()
    if va < vb:
        return Divisibility(True, False, b / a, None)
    if vb < va:
        return Divisibility(False, True, None, a / b)
    return Divisibility(True, True, b / a, a / b)


def content(coeffs) -> tuple[DomainElement, int]:
    """First coefficient of minimal valuation, and its position.

    The returned u divides every entry of ``coeffs`` (so each quotient lies
    in V) and at least one quotient is a unit.  Zero entries are skipped;
    AllZero is raised when nothing remains.
    """
    best = None
    best_i = -1
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if best is None or not best.divides(c):
            best, best_i = c, i
    if best is None:
        raise AllZero("content of an all-zero coefficient list")
    return best, best_i
