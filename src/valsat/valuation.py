"""Residually discrete valuation domains with exact arithmetic.

Three concrete instances are shipped:

* ``Zp(p)`` -- rationals with nonnegative p-adic valuation (the integers
  localised at the prime p);
* ``RationalFunctionsAtZero(base)`` -- rational functions in ``t`` over Q or
  F_p that are defined at ``t = 0``, valued by the vanishing order at 0;
* ``TrivialField(base)`` -- Q or F_p with the trivial valuation, where every
  nonzero element is a unit.

Zp and the trivial-valuation fields share one element class, ``ScalarElement``
(a reduced fraction, or a residue mod p over F_p).  Rational functions are
``RatFuncElement``s: a numerator and a denominator with no common factor in
the numerator ring, Z[t] over Q and F_p[t] over F_p, as tuples of ints.
Elements are immutable and canonical, so structural equality is semantic
equality and every operation is exact.  The quotient field K uses the same
classes: ``Domain.element`` insists on nonnegative valuation, the shared
``Domain.k_element`` does not.

The residue field is never materialised; every residual question reduces to
``is_unit``.  The valuation of zero is the ``math.inf`` sentinel.

Canonical form of ``RatFuncElement``.  Over Q, ``num`` and ``den`` are
coprime in Z[t], their integer contents included, and ``den[-1] > 0``; over
F_p they are residues and ``den`` is monic (``lowest_terms``, which the
parser shares).  That is the form of a packed column's numerators too
(``_ratkernel``), so packing an element converts nothing, and an entry
num / D of a packed vector becomes ``RatFuncElement(domain, num, D)``, one
gcd, on the first read of its ``comps`` (``polyvec.PolyVec``).
``Fraction``s occur only at the raw and text boundary: ``from_polys``
clears the denominators of rational coefficients, and ``str`` divides by
the leading coefficient of ``den``, giving the text with a monic
denominator.

Cost model of ``RatFuncElement``.  Polynomial gcds dominate the cost of
rational-function arithmetic, so each operation runs only the gcds that can
find a common factor, by Henrici's rule (Knuth, TAOCP vol. 2, section
4.5.1): the inputs are reduced, so a factor can only be shared where two of
their parts meet.  A sum runs gcd(b, d) of the denominators and then at most
gcd(numerator, gcd(b, d)); a product or quotient runs two cross gcds of a
numerator against a denominator.  The polynomial 1 takes part in no gcd,
and over F_p no constant does; over Z a constant still shares its integer
content, which costs one ``math.gcd`` pass.  Every gcd goes through the
module global ``_pgcd`` (``_poly.igcd``).  Over F_p it is Euclid.  Over Z
it is the gcd of the contents times the gcd of the primitive parts:
GCDHEU, one big-integer gcd at one evaluation point, when the shorter part
has at least 4 terms, and the primitive PRS below that or when GCDHEU finds
no gcd at any of its points.  Both give the same gcd; the ``_poly``
docstring gives the switch, its measured crossover and the bound that keeps
GCDHEU exact.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import _poly
from ._poly import igcd as _pgcd  # a module global, hooked by perfbench/tracing.py
from ._poly import ilin, imul, iquo
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

    @staticmethod
    def ratio(n, d):
        """n / d for ints; None when d is zero."""
        return Fraction(n, d) if d else None

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

    def ratio(self, n, d):
        """n / d for ints, reduced mod p first; None when d is zero mod p."""
        d %= self.p
        return n * pow(d, -1, self.p) % self.p if d else None

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

    @property
    def in_domain(self):
        """Whether p leaves the reduced denominator alone; True for p = 0."""
        p = self.domain.p
        return not p or self.value.denominator % p != 0

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


def _may_share(a, b, p):
    """False when the nonzero a and b are coprime without a gcd: either is
    the polynomial 1, or, over F_p, a constant, which is a unit there."""
    if p:
        return len(a) > 1 and len(b) > 1
    return a != (1,) and b != (1,)


def _cancel(a, b, p):
    """a and b divided by their gcd (``_pgcd``), when they may share a factor."""
    if _may_share(a, b, p):
        g = _pgcd(a, b, p)
        if g != (1,):
            return iquo(a, g, p), iquo(b, g, p)
    return a, b


def lowest_terms(num, den, p, coprime=False):
    """num / den for trimmed int tuples over the numerator ring Z[t] (p = 0)
    or F_p[t] (residues), den nonzero, in the canonical form of the module
    docstring: reduced by one gcd unless ``coprime`` says they share no
    factor already, then den normalised."""
    if not coprime:
        num, den = _cancel(num, den, p) if num else ((), (1,))
    lead = den[-1]
    if lead != 1 and (p or lead < 0):
        u = (pow(lead, -1, p) if p else -1,)
        num, den = imul(u, num, p), imul(u, den, p)
    return num, den


class RatFuncElement(DomainElement):
    """Reduced fraction num(t)/den(t) over the numerator ring Z[t] or F_p[t].

    ``num`` and ``den`` are trimmed tuples of ints in the canonical form of
    the module docstring; zero is ``()`` over ``(1,)``.  Arithmetic keeps
    that form without reducing a full numerator against a full
    denominator.  With reduced inputs a/b and c/d:

    * a/b + c/d: with g = gcd(b, d), b = g b1 and d = g d1, the sum is
      (a d1 + c b1) / (b d1).  Its numerator is prime to b1 and d1, so only
      g can share a factor with it: one more gcd, with g, when g != 1.
    * (a/b) (c/d) = (a/gcd(a, d)) (c/gcd(c, b)) / ((b/gcd(c, b)) (d/gcd(a, d))).
    * (a/b) / (c/d) = (a/gcd(a, c)) (d/gcd(d, b)) / ((b/gcd(d, b)) (c/gcd(a, c))),
      then scaled by the unit that normalises the denominator.

    Every gcd has a positive leading coefficient over Z and is monic over
    F_p, so quotients of normalised denominators stay normalised.
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain, num, den, *, _coprime=False):
        """num / den for int sequences over the numerator ring (residues
        over F_p), reduced by one gcd; with ``_coprime`` they share no
        factor already, and only den's leading coefficient is normalised
        (``lowest_terms``)."""
        if not _coprime:
            num, den = _poly.trim(num), _poly.trim(den)
            if not den:
                raise ZeroDivisionError("zero denominator polynomial")
        self.domain = domain
        self.num, self.den = lowest_terms(num, den, domain.field.p, _coprime)

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
        p = self.domain.field.p
        g = _pgcd(b, d, p) if _may_share(b, d, p) else (1,)
        b1, d1 = iquo(b, g, p), iquo(d, g, p)
        num = ilin(a, d1, tuple(-x for x in c), b1, p)
        h = _pgcd(num, g, p) if num and _may_share(num, g, p) else (1,)
        return self._canon(iquo(num, h, p), imul(b1, iquo(d, h, p), p))

    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return self.domain.zero
        p = self.domain.field.p
        a, d = _cancel(a, d, p)
        c, b = _cancel(c, b, p)
        return self._canon(imul(a, c, p), imul(b, d, p))

    def __truediv__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c:
            raise ZeroDivisionError("division by zero domain element")
        if not a:
            return self
        p = self.domain.field.p
        a, c = _cancel(a, c, p)
        d, b = _cancel(d, b, p)
        return self._canon(imul(a, d, p), imul(b, c, p))

    def _canon(self, num, den):
        """The element num/den of this domain, for coprime num and den."""
        if not num:
            return self.domain.zero
        return RatFuncElement(self.domain, num, den, _coprime=True)

    def __neg__(self):
        return RatFuncElement(
            self.domain, imul((-1,), self.num, self.domain.field.p), self.den, _coprime=True
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
        """num/den as text over a monic denominator: over Q both sides are
        divided by den's leading coefficient first."""
        num, den, lead = self.num, self.den, self.den[-1]
        if lead != 1:  # over Q only: a denominator over F_p is monic
            num = [Fraction(x, lead) for x in num]
            den = [Fraction(x, lead) for x in den]
        text = _poly.format_poly(num, "t")
        return text if len(den) == 1 else f"({text})/({_poly.format_poly(den, 't')})"

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

    def ratio(self, n, d):
        """The element n / d of K for ints; None when d is zero."""
        v = self.field.ratio(n, d)
        return None if v is None else self.k_element(v)

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
            return self.from_polys(*raw)
        return self.from_polys((Fraction(raw),))

    def from_polys(self, num, den=(1,)) -> RatFuncElement:
        """Build a(t)/b(t) from coefficient sequences (ascending exponent).

        The coefficients are anything the base field takes (ints,
        ``Fraction``s, residues); over Q both sides are multiplied by the lcm
        of their denominators, into Z[t].
        """
        F = self.field
        num, den = [F.coerce(x) for x in num], [F.coerce(x) for x in den]
        if not F.p:
            k = math.lcm(*(x.denominator for x in num), *(x.denominator for x in den))
            num = [x.numerator * (k // x.denominator) for x in num]
            den = [x.numerator * (k // x.denominator) for x in den]
        return RatFuncElement(self, num, den)

    def uniformizer(self):
        return RatFuncElement(self, (0, 1), (1,), _coprime=True)


class TrivialField(Domain):
    """Q or F_p carrying the trivial valuation."""

    p = 0  # the valued prime: none; the characteristic is field.p

    def __init__(self, base: str = "q", p: int | None = None):
        self.field = _base_field(base, p)
        self.tag = f"field:{p or 'q'}"

    def _from_raw(self, raw):
        return ScalarElement(self, self.field.coerce(Fraction(raw)))


@functools.lru_cache(maxsize=64)
def parse_domain_tag(tag: str) -> Domain:
    """The domain of a tag: zp:<p>, rft0:q, rft0:<p>, field:q or field:<p>.

    Domains are immutable and compare by tag, so one object per tag serves
    every caller: its ``zero``, ``one`` and primality check are made once.
    A bad tag is not cached and raises on every call.
    """
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
