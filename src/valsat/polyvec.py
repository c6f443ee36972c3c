"""Vectors in V[X]^n with the dual coefficient/coordinate views.

A ``PolyVec`` stores one dense univariate polynomial per component.  As a
V-module, V[X]^n has the basis X^r f_j indexed by ``PivotIndex(j, r)`` pairs,
ordered component-first: (i, h) < (j, k) iff i < j, or i = j and h < k.
Coordinates of a vector are read off this basis; the pivot of a primitive
vector is its smallest residually nonzero coordinate position.

Two forms.  A ``PolyVec`` holds its entries as elements (``comps``), in the
packed kernel's form (``nums`` over one denominator ``den``, see
``_ratkernel``), or both, and builds each form from the other on its first
read.  This module is the only place that converts between them.
``textio.parse_vector``, the packed engine (``_packed``) and the oracle's
K-layer make vectors with ``from_packed``, so packing one costs nothing,
and its elements are built only when ``comps`` is first read: by the
renderer over ``rft0``, by the oracle's V-layer, by the generic engine or
by any method below other than ``is_zero`` and ``degree``, which read
whichever form is present (both have the same trimmed lengths).  An element
costs one ``Fraction`` or residue over ``zp:p``, ``field:q`` and
``field:p``, and one gcd of the numerator against the denominator over
``rft0``; ``comps`` keeps them, so the renderer and the oracle share one
reduction.  A vector built from elements packs them on the first read of
``nums`` or ``den``: residues over 1, ints over the lcm of the
denominators, or over ``rft0`` the elements' reduced pairs over their lcm.
Equality and hashing compare elements.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from ._poly import ipack, trim
from .errors import EmptyFamily, MixedFamily, NotPrimitive, ZeroVector
from .valuation import Domain, DomainElement, RatFuncElement, ScalarElement, content


class PivotIndex(namedtuple("PivotIndex", "index exponent")):
    """Position (component index, exponent); index is 1-based like f_1..f_n."""

    __slots__ = ()


class PolyVec:
    """Immutable vector of n dense polynomials over one domain.

    A vector holds its entries as elements (``comps``), in the packed
    kernel's form (``nums`` over ``den``), or both; each form is built from
    the other on its first read and then kept.  ``PolyVec(domain, comps)``
    builds from elements, ``from_packed`` from numerators.
    """

    __slots__ = ("domain", "n", "_comps", "_nums", "_den")

    def __init__(self, domain: Domain, comps: Iterable[Iterable[DomainElement]]):
        comps = tuple(trim(c) for c in comps)
        if not comps:
            raise EmptyFamily("a PolyVec needs at least one component")
        self.domain = domain
        self.n = len(comps)
        self._comps, self._nums, self._den = comps, None, None

    @classmethod
    def from_packed(cls, domain: Domain, nums: list[list], den) -> "PolyVec":
        """The vector of entries nums[j][r] / den, its elements built on the
        first read of ``comps``.

        ``nums`` is a nonempty list of one list per component, trailing
        zeros trimmed, in the domain's numerator ring: ints over ``zp:p`` and
        ``field:q``, residues over ``field:p`` and int tuples in Z[t] or
        F_p[t] over ``rft0`` (see ``_poly``); ``den`` is nonzero in the same
        ring.  Over the scalar kinds ``textio.render_vector`` needs ``den``
        positive, and 1 over F_p.  Nothing mutates the lists, so the packed
        kernel and the oracle take them as they are.
        """
        v = object.__new__(cls)
        v.domain, v.n, v._comps, v._nums, v._den = domain, len(nums), None, nums, den
        return v

    @classmethod
    def from_raw(cls, domain: Domain, comps) -> "PolyVec":
        """Build from raw coefficient lists, e.g. ``[[2], [0, -1]]`` for (2, -X)."""
        return cls(domain, [[domain.element(x) for x in c] for c in comps])

    @property
    def comps(self) -> tuple:
        """One trimmed tuple of elements per component.  From the packed form
        an entry costs one ``Fraction`` or residue over the scalar kinds, and
        one gcd of the numerator against the denominator over ``rft0``."""
        if self._comps is None:
            domain, D, zero = self.domain, self._den, self.domain.zero
            if type(D) is tuple:  # the entry D / D is 1
                one = domain.one
                self._comps = tuple(
                    tuple((one if x == D else RatFuncElement(domain, x, D)) if x else zero
                          for x in comp) for comp in self._nums)
            else:
                mod = domain.field.p
                inv = pow(D, -1, mod) if mod else None
                self._comps = tuple(
                    tuple(ScalarElement(domain, x * inv % mod if mod else Fraction(x, D))
                          if x else zero for x in comp) for comp in self._nums)
        return self._comps

    @property
    def nums(self) -> list[list]:
        """One list of numerators per component over ``den`` (``from_packed``)."""
        if self._nums is None:
            self._pack()
        return self._nums

    @property
    def den(self):
        """The common denominator of ``nums``."""
        if self._nums is None:
            self._pack()
        return self._den

    def _pack(self) -> None:
        """The packed form of the elements: residues over 1 over F_p; over Q
        and Z_(p) ints over the lcm of the denominators, the lowest-terms
        packing; over ``rft0`` the reduced pairs over their lcm
        (``_poly.ipack``), which a ``RatFuncElement`` holds already."""
        domain, comps = self.domain, self._comps
        if isinstance(domain.one, RatFuncElement):
            self._nums, self._den = ipack(
                [[(c.num, c.den) for c in comp] for comp in comps], domain.field.p)
        elif domain.field.p:
            self._nums, self._den = [[c.value for c in comp] for comp in comps], 1
        else:
            D = lcm(*(c.value.denominator for comp in comps for c in comp))
            self._nums = [[c.value.numerator * (D // c.value.denominator) for c in comp]
                          for comp in comps]
            self._den = D

    def is_zero(self) -> bool:
        return not any(self._nums if self._comps is None else self._comps)

    def coord(self, at: PivotIndex) -> DomainElement:
        """Coordinate on the basis vector X^exponent f_index."""
        j, r = at
        if not 1 <= j <= self.n:
            raise IndexError(f"component {j} out of range 1..{self.n}")
        comp = self.comps[j - 1]
        return comp[r] if r < len(comp) else self.domain.zero

    def iter_coords(self):
        """Nonzero-and-zero coordinates in increasing PivotIndex order."""
        for j, comp in enumerate(self.comps, start=1):
            for r, c in enumerate(comp):
                yield PivotIndex(j, r), c

    def piv(self) -> PivotIndex:
        """Smallest residually nonzero coordinate position."""
        for at, c in self.iter_coords():
            if c.is_unit():
                return at
        raise NotPrimitive(f"{self!r} has no unit coordinate")

    def degree(self) -> int:
        """Highest exact component degree; -1 for the zero vector."""
        form = self._nums if self._comps is None else self._comps
        return max((len(c) - 1 for c in form if c), default=-1)

    def shift_x(self) -> "PolyVec":
        """Multiply every component by X."""
        zero = self.domain.zero
        return PolyVec(
            self.domain, tuple((zero,) + c if c else () for c in self.comps)
        )

    def scale(self, c: DomainElement) -> "PolyVec":
        return PolyVec(self.domain, tuple(tuple(x * c for x in comp) for comp in self.comps))

    def div_by(self, c: DomainElement) -> "PolyVec":
        """Exact componentwise division; every quotient must stay in V."""
        return PolyVec(
            self.domain, tuple(tuple(x.div_exact(c) for x in comp) for comp in self.comps)
        )

    def sub_scaled(self, other: "PolyVec", c: DomainElement) -> "PolyVec":
        """self - c * other, the Gaussian elimination step."""
        out = []
        for a, b in zip(self.comps, other.comps):
            m = max(len(a), len(b))
            row = []
            for i in range(m):
                x = a[i] if i < len(a) else self.domain.zero
                if i < len(b):
                    x = x - b[i] * c
                row.append(x)
            out.append(row)
        return PolyVec(self.domain, out)

    def __neg__(self):
        return PolyVec(self.domain, tuple(tuple(-x for x in comp) for comp in self.comps))

    def __eq__(self, other):
        return (
            isinstance(other, PolyVec)
            and self.domain == other.domain
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.domain, self.comps))

    def __repr__(self):
        from .textio import render_vector

        return f"PolyVec({render_vector(self)})"


def zero_vec(domain: Domain, n: int) -> PolyVec:
    return PolyVec(domain, [()] * n)


def uniform_family(vectors) -> list[PolyVec]:
    """The vectors as a list; MixedFamily unless they share one domain and width."""
    vectors = list(vectors)
    for v in vectors[1:]:
        if v.domain != vectors[0].domain or v.n != vectors[0].n:
            raise MixedFamily(
                f"vectors over {vectors[0].domain.tag} of width {vectors[0].n} "
                f"and over {v.domain.tag} of width {v.n} in one family"
            )
    return vectors


def red_prim(v: PolyVec) -> tuple[PolyVec, DomainElement]:
    """Divide a nonzero vector by its coordinate content, making it primitive.

    The content is the first coefficient of minimal valuation in increasing
    PivotIndex order.  Its position becomes the pivot of the result, with
    coefficient exactly 1: every earlier coordinate had a larger valuation,
    so its quotient is not a unit.
    """
    if v.is_zero():
        raise ZeroVector("red_prim of the zero vector")
    coords = [c for _, c in v.iter_coords()]
    u, _ = content(coords)
    return v.div_by(u), u


def family_degree(vectors) -> int:
    """Highest exact coordinate degree over a nonempty family of nonzero vectors."""
    vectors = list(vectors)
    if not vectors:
        raise EmptyFamily("family_degree of an empty family")
    degs = []
    for v in vectors:
        if v.is_zero():
            raise ZeroVector("family_degree entries must be nonzero")
        degs.append(v.degree())
    return max(degs)
