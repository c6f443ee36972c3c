"""Residually discrete valuation domains with exact arithmetic.

Three concrete instances are shipped:

* ``Zp(p)`` -- rationals with nonnegative p-adic valuation (the integers
  localised at the prime p);
* ``RationalFunctionsAtZero(base)`` -- rational functions in ``t`` over Q or
  F_p that are defined at ``t = 0``, valued by the vanishing order at 0;
* ``TrivialField(base)`` -- Q or F_p with the trivial valuation, where every
  nonzero element is a unit.

Zp and the trivial-valuation fields share one element class, ``ScalarElement``
(a reduced fraction, or a residue mod p over F_p); rational functions are
``RatFuncElement``s with a monic denominator.  Elements are immutable and
canonical, so structural equality is semantic equality and every operation is
exact.  The quotient field K uses the same classes: ``Domain.element`` insists
on nonnegative valuation, the shared ``Domain.k_element`` does not.

The residue field is never materialised; every residual question reduces to
``is_unit``.  The valuation of zero is the ``math.inf`` sentinel.

Cost model of ``RatFuncElement``.  Polynomial gcds dominate the cost of
rational-function arithmetic, so each operation runs only the gcds that can
find a common factor, by Henrici's rule (Knuth, TAOCP vol. 2, section
4.5.1): the inputs are reduced, so a factor can only be shared where two of
their parts meet.  A sum runs gcd(b, d) of the denominators and then at most
gcd(numerator, gcd(b, d)); a product or quotient runs two cross gcds of a
numerator against a denominator.  A constant polynomial takes part in no
gcd.  Every gcd goes through the module global ``_pgcd`` (``_poly.gcd``).
Over F_p it is Euclid.  Over Q it is the gcd over Z of the primitive
integer parts: GCDHEU, one big-integer gcd at one evaluation point, when
the shorter part has at least 4 terms, and the primitive PRS below that or
when GCDHEU finds no gcd at any of its points.  Both give the same gcd; the
``_poly`` docstring gives the switch, its measured crossover and the bound
that keeps GCDHEU exact.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import _poly
from ._poly import gcd as _pgcd  # a module global, hooked by perfbench/tracing.py
from .errors import AllZero, NotDivisible, NotInDomain, NotPrime, ParseError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base above (Sorenson &
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_CERTIFIED_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases up to 41.

    Exact for n < psi_13 = 3317044064679887385961981; from there on the test
    certifies nothing, and NotPrime is raised instead of an answer.
    """
    if n < 2:
        return False
    if n >= _CERTIFIED_BELOW:
        raise NotPrime(
            f"{n} is at least psi_13 = {_CERTIFIED_BELOW}, above which "
            "primality is not certified"
        )
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
    p = 0  # the characteristic
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


class ScalarElement(DomainElement):
    """Element of Zp, Q or F_p: a Fraction, or a residue mod p over F_p.

    Arithmetic goes through ``domain.field``; the valuation is p-adic in the
    domain's valued prime ``domain.p``, and trivial when that is 0.
    """

    __slots__ = ("domain", "value")

    def __init__(self, domain, value):
        self.domain = domain
        self.value = value

    def is_zero(self):
        return self.value == 0

    def __bool__(self):
        return bool(self.value)

    def valuation(self):
        if self.value == 0:
            return math.inf
        p = self.domain.p
        if not p:
            return 0
        v = _int_val(self.value.numerator, p)
        return v if v else -_int_val(self.value.denominator, p)

    def __add__(self, other):
        return ScalarElement(self.domain, self.domain.field.add(self.value, other.value))

    def __mul__(self, other):
        return ScalarElement(self.domain, self.domain.field.mul(self.value, other.value))

    def __truediv__(self, other):
        if other.value == 0:
            raise ZeroDivisionError("division by zero domain element")
        return ScalarElement(self.domain, self.domain.field.div(self.value, other.value))

    def __neg__(self):
        return ScalarElement(self.domain, self.domain.field.neg(self.value))

    def __eq__(self, other):
        return (
            isinstance(other, ScalarElement)
            and self.domain == other.domain
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.domain, self.value))

    def __str__(self):
        return _poly.num_str(self.value)

    def __repr__(self):
        return f"ScalarElement({self.domain.tag}, {self.value})"


def _quo(F, a, g):
    """Exact quotient a / g of polynomials over F."""
    return _poly.divmod(F, a, g)[0]


def _times(F, a, b):
    """a * b, with no coefficient products when either factor is 1."""
    one = (F.one,)
    if b == one:
        return a
    if a == one:
        return b
    return _poly.mul(F, a, b)


def _cancel(F, a, b):
    """a and b divided by their monic gcd; no gcd when either is constant,
    as a nonzero constant is coprime to every polynomial."""
    if len(a) > 1 and len(b) > 1:
        g = _pgcd(F, a, b)
        if len(g) > 1:
            return _quo(F, a, g), _quo(F, b, g)
    return a, b


def _monic_den(F, num, den):
    """num and den divided by the leading coefficient of den."""
    lead = den[-1]
    if lead == F.one:
        return num, den
    return tuple(F.div(x, lead) for x in num), tuple(F.div(x, lead) for x in den)


class RatFuncElement(DomainElement):
    """Reduced fraction a(t)/b(t) with monic denominator.

    Arithmetic keeps that form without reducing a full numerator against a
    full denominator.  With reduced inputs a/b and c/d:

    * a/b + c/d: with g = gcd(b, d), b = g b1 and d = g d1, the sum is
      (a d1 + c b1) / (b d1).  Its numerator is prime to b1 and d1, so only
      g can share a factor with it: one more gcd, with g, when g != 1.  A
      denominator 1 needs no gcd at all.
    * (a/b) (c/d) = (a/gcd(a, d)) (c/gcd(c, b)) / ((b/gcd(c, b)) (d/gcd(a, d))).
    * (a/b) / (c/d) = (a/gcd(a, c)) (d/gcd(d, b)) / ((b/gcd(d, b)) (c/gcd(a, c))),
      then scaled to a monic denominator.

    All gcds are monic, so quotients of monic denominators stay monic.
    """

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
        self.num, self.den = _monic_den(F, *_cancel(F, num, den))

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def valuation(self):
        if not self.num:
            return math.inf
        ov = _poly.order(self.num)
        return ov if ov else -_poly.order(self.den)

    def __add__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a:
            return other
        if not c:
            return self
        F = self.domain.field
        g = _pgcd(F, b, d) if len(b) > 1 and len(d) > 1 else (F.one,)
        if len(g) == 1:
            b1, d1 = b, d
        else:
            b1, d1 = _quo(F, b, g), _quo(F, d, g)
        num = _poly.add(F, _times(F, a, d1), _times(F, c, b1))
        if len(g) > 1 and len(num) > 1:
            h = _pgcd(F, num, g)
            if len(h) > 1:
                return self._canon(_quo(F, num, h), _times(F, b1, _quo(F, d, h)))
        return self._canon(num, _times(F, b, d1))

    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return self.domain.zero
        F = self.domain.field
        a, d = _cancel(F, a, d)
        c, b = _cancel(F, c, b)
        return self._canon(_times(F, a, c), _times(F, b, d))

    def __truediv__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c:
            raise ZeroDivisionError("division by zero domain element")
        if not a:
            return self
        F = self.domain.field
        a, c = _cancel(F, a, c)
        d, b = _cancel(F, d, b)
        return self._canon(*_monic_den(F, _times(F, a, d), _times(F, c, b)))

    def _canon(self, num, den):
        """The element num/den of this domain, already in canonical form."""
        if not num:
            return self.domain.zero
        return RatFuncElement(self.domain, num, den, _canonical=True)

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
# The three shipped instances.  A domain is identified by its tag, e.g.
# ``zp:3``, ``rft0:q`` or ``field:5``; ``parse_domain_tag`` reads it back.

def _check_prime(p) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p!r} is not prime")


def _base_field(base: str, p: int | None):
    """The checked base field Q (``base == "q"``) or F_p (``"fp"``)."""
    if base == "q":
        if p is not None:
            raise NotPrime("base 'q' takes no prime")
        return _QQ()
    if base == "fp":
        _check_prime(p)
        return _GFp(p)
    raise NotPrime(f"base must be 'q' or 'fp', got {base!r}")


class Domain:
    """Shared interface of the shipped valuation-domain instances.

    A domain is also the coefficient field of K[X] for ``_poly``: with
    ``zero``/``one`` it provides that module's field operations.
    """

    tag: str

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
        """Element of the quotient field K (no valuation restriction).

        An element of this domain comes back unchanged, one of another domain
        raises NotInDomain, and raw input goes to the subclass's ``_from_raw``.
        """
        if isinstance(raw, DomainElement):
            if raw.domain != self:
                raise NotInDomain("element from a different domain")
            return raw
        return self._from_raw(raw)

    def _from_raw(self, raw) -> DomainElement:
        raise NotImplementedError

    # Elements are immutable and canonical, so every caller may share these.
    @functools.cached_property
    def zero(self):
        return self.k_element(0)

    @functools.cached_property
    def one(self):
        return self.k_element(1)

    def uniformizer(self) -> DomainElement | None:
        """A generator of the maximal ideal, None for trivial valuations."""
        return None

    def __eq__(self, other):
        return isinstance(other, Domain) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"<domain {self.tag}>"


class Zp(Domain):
    """Rationals of nonnegative p-adic valuation."""

    field = _QQ()

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p
        self.tag = f"zp:{p}"

    def _from_raw(self, raw):
        return ScalarElement(self, Fraction(raw))

    def uniformizer(self):
        return ScalarElement(self, Fraction(self.p))


class RationalFunctionsAtZero(Domain):
    """Rational functions in t over Q or F_p that are regular at t = 0."""

    def __init__(self, base: str = "q", p: int | None = None):
        self.field = _base_field(base, p)
        self.tag = f"rft0:{p or 'q'}"

    def _from_raw(self, raw):
        if isinstance(raw, tuple) and len(raw) == 2:
            num, den = raw
            return self.from_polys(num, den)
        F = self.field
        x = F.coerce(Fraction(raw))
        return RatFuncElement(self, (x,) if x else (), (F.one,), _canonical=True)

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

    p = 0  # the valued prime: none; the characteristic is field.p

    def __init__(self, base: str = "q", p: int | None = None):
        self.field = _base_field(base, p)
        self.tag = f"field:{p or 'q'}"

    def _from_raw(self, raw):
        return ScalarElement(self, self.field.coerce(Fraction(raw)))


def parse_domain_tag(tag: str) -> Domain:
    """The domain of a tag: zp:<p>, rft0:q, rft0:<p>, field:q or field:<p>."""
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
