"""Vectors in V[X]^n with the dual coefficient/coordinate views.

A ``PolyVec`` stores one dense univariate polynomial per component.  As a
V-module, V[X]^n has the basis X^r f_j indexed by ``PivotIndex(j, r)`` pairs,
ordered component-first: (i, h) < (j, k) iff i < j, or i = j and h < k.
Coordinates of a vector are read off this basis; the pivot of a primitive
vector is its smallest residually nonzero coordinate position.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ._poly import trim
from .errors import EmptyFamily, NotPrimitive, ZeroVector
from .valuation import Domain, DomainElement, content


class PivotIndex(NamedTuple):
    """Position (component index, exponent); index is 1-based like f_1..f_n."""

    index: int
    exponent: int


class Pivot(NamedTuple):
    pivot: PivotIndex
    coeff: DomainElement


class PolyVec:
    """Immutable vector of n dense polynomials over one domain."""

    __slots__ = ("domain", "n", "comps")

    def __init__(self, domain: Domain, comps: Iterable[Iterable[DomainElement]]):
        comps = tuple(trim(c) for c in comps)
        if not comps:
            raise EmptyFamily("a PolyVec needs at least one component")
        self.domain = domain
        self.n = len(comps)
        self.comps = comps

    @classmethod
    def from_raw(cls, domain: Domain, comps) -> "PolyVec":
        """Build from raw coefficient lists, e.g. ``[[2], [0, -1]]`` for (2, -X)."""
        return cls(domain, [[domain.element(x) for x in c] for c in comps])

    def is_zero(self) -> bool:
        return all(not c for c in self.comps)

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

    def piv(self) -> Pivot:
        """Smallest residually nonzero coordinate position and coefficient."""
        for at, c in self.iter_coords():
            if c.is_unit():
                return Pivot(at, c)
        raise NotPrimitive(f"{self!r} has no unit coordinate")

    def index(self) -> int:
        return self.piv().pivot.index

    def prim_mon(self) -> int:
        return self.piv().pivot.exponent

    def degree(self) -> int:
        """Highest exact component degree; -1 for the zero vector."""
        return max((len(c) - 1 for c in self.comps if c), default=-1)

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


def red_prim(v: PolyVec) -> tuple[PolyVec, DomainElement]:
    """Divide a nonzero vector by its coordinate content, making it primitive.

    The content is the first coefficient of minimal valuation in increasing
    PivotIndex order; when that position is the pivot of the result, the
    reduced pivot coefficient is exactly 1.
    """
    if v.is_zero():
        raise ZeroVector("red_prim of the zero vector")
    coords = [c for _, c in v.iter_coords()]
    u, _ = content(coords)
    return v.div_by(u), u


def x_shifts(vectors, bound: int) -> list[PolyVec]:
    """All X-shifts X^r v of the given vectors with degree at most bound."""
    out = []
    for v in vectors:
        if v.is_zero():
            continue
        w = v
        while w.degree() <= bound:
            out.append(w)
            w = w.shift_x()
    return out


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
