"""Vectors in V[X]^n with the dual coefficient/coordinate views.

A ``PolyVec`` stores one dense univariate polynomial per component.  As a
V-module, V[X]^n has the basis X^r f_j indexed by ``PivotIndex(j, r)`` pairs,
ordered component-first: (i, h) < (j, k) iff i < j, or i = j and h < k.
Coordinates of a vector are read off this basis; the pivot of a primitive
vector is its smallest residually nonzero coordinate position.

Cost model.  A ``PolyVec`` holds its entries as elements.  For every
shipped kind, ``textio.parse_vector`` and the packed engine (``_packed``)
make ``PackedPolyVec``s instead, which hold the packed kernel's numerators
over one denominator: packing one costs nothing, and its elements are built
only when ``comps`` is first read, by the renderer over ``rft0``, by the
oracle, by the generic engine or by any method below other than
``is_zero`` and ``degree``.  An element costs one ``Fraction`` or residue
over ``zp:p``, ``field:q`` and ``field:p``, and one gcd of the numerator
against the denominator over ``rft0``; ``comps`` keeps them, so the
renderer and the oracle share one reduction.  Vectors built from elements
keep ``comps`` as a plain slot.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from ._poly import trim
from .errors import EmptyFamily, MixedFamily, NotPrimitive, ZeroVector
from .valuation import Domain, DomainElement, RatFuncElement, ScalarElement, content


class PivotIndex(namedtuple("PivotIndex", "index exponent")):
    """Position (component index, exponent); index is 1-based like f_1..f_n."""

    __slots__ = ()


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

    def piv(self) -> PivotIndex:
        """Smallest residually nonzero coordinate position."""
        for at, c in self.iter_coords():
            if c.is_unit():
                return at
        raise NotPrimitive(f"{self!r} has no unit coordinate")

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


class PackedPolyVec(PolyVec):
    """A vector in the packed kernel's form (``_ratkernel``), its elements
    built on the first read of ``comps``.

    ``nums`` holds one list of numerators per component, trailing zeros
    trimmed, over the common denominator ``den``: ints over ``zp:p`` and
    ``field:q``, residues over ``field:p``, and over ``rft0`` int tuples in
    Z[t] or F_p[t] (see ``_poly``) over a tuple.  Over the scalar kinds
    ``textio.render_vector`` needs ``den`` positive, and 1 over F_p, as it
    is in every vector that ``textio.parse_vector``, the packed engine or
    ``syzygy.scaled_kernel`` makes.  Nothing mutates
    the lists, so the kernel and the oracle take them as they are.  A
    ``PackedPolyVec`` equals, and hashes as, the ``PolyVec`` of the same
    entries.
    """

    __slots__ = ("nums", "den", "_comps")

    def __init__(self, domain: Domain, nums: list[list], den):
        self.domain, self.n = domain, len(nums)
        self.nums, self.den, self._comps = nums, den, None

    @property
    def comps(self):
        if self._comps is None:
            domain, D, zero = self.domain, self.den, self.domain.zero
            if type(D) is tuple:  # one gcd per entry; the entry D / D is 1
                one = domain.one
                self._comps = tuple(
                    tuple((one if x == D else RatFuncElement(domain, x, D)) if x else zero
                          for x in comp) for comp in self.nums)
            else:
                mod = domain.field.p
                inv = pow(D, -1, mod) if mod else None
                self._comps = tuple(
                    tuple(ScalarElement(domain, x * inv % mod if mod else Fraction(x, D))
                          if x else zero for x in comp) for comp in self.nums)
        return self._comps

    def is_zero(self) -> bool:
        return not any(self.nums)

    def degree(self) -> int:
        return max((len(c) - 1 for c in self.nums if c), default=-1)


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
