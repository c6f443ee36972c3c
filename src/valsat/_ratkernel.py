"""Packed echelon kernel: numerators in a ring, over one denominator.

A packed vector is a pair ``(comps, D)``.  ``comps`` holds one list of
numerators per component, trailing zeros trimmed, and ``D != 0`` is a
denominator common to every coefficient: the coefficient of X^r in
component j is ``comps[j - 1][r] / D``.  Numerators and D lie in a
numerator ring R whose fractions hold the entries, and the kernel does all
its arithmetic through a ring object (the last argument of ``insert``):

* ``Integers(p)``: Z, for Z_(p) with the p-adic valuation and for Q with
  the trivial one (p = 0); ``Integers(0, mod)``: residues mod a prime, for
  F_p, over D = 1.
* ``Polynomials(mod)``: Z[t] (mod = 0) for ``rft0:q`` and F_p[t] for
  ``rft0:p``, valued by the t-adic order, its integer tuples handled by
  ``_poly``'s ``imul``, ``ilin``, ``iquo`` and ``igcd``.

A ring supplies ``zero``, ``one``, ``mod`` (the modulus of its coefficient
arithmetic, else 0), ``gcd`` (over F_p its second argument, as in any
field), the exact quotient ``quo``, ``sub_scaled`` over a component list,
the valuation ``val`` of a numerator (None for the trivial valuation),
``normalise``, which divides a column by its content and puts it in lowest
terms, ``strip``, which divides a column by a common factor of its
numerators (for ``_packed``'s K[X] reduction), and ``shed``, the exact
division of a numerator by a power of the uniformiser (for ``_packed``'s
primitive scaling).  Basis columns are kept in
lowest terms, gcd(numerators, D) = 1 with D normalised (positive over Z, a
positive leading coefficient over Z[t], monic over F_p[t]), which makes
their packing unique; a vector to insert needs only D != 0.

The valuation of an entry ``num / D`` is v(num) - v(D), so every
comparison of valuations inside one vector compares numerators only, and
an entry is a unit iff v(num) = v(D).

Elimination step (fraction-free, after Bareiss).  Let V/D be the vector and
W/Dw a basis column whose pivot entry is w/Dw, and let a/D be the vector's
entry at that pivot.  The generic step subtracts (a/D)/(w/Dw) times the
column:

    V/D - (a Dw / (D w)) (W / Dw) = (w V - a W) / (D w),

so Dw cancels.  With g = gcd(a, w), s = w/g and t = a/g, the new vector
is (s V - t W, s D): one ring gcd per step.  Every basis column is monic at
its pivot, which is its content position (see ``echelon``), so w = Dw: the
step reads w as the column's D, and a pivot is stored as (j, r) alone.

The step leaves v(D) as it is.  Every basis column's D is a unit: its
content c has the least valuation of its numerators, so their gcd takes
all of it (see below).  Hence s = w/g is a unit, v(s D) = v(D), and the
kernel need not form s D at all: the content division below replaces D,
and the vector's own v(D) decides whether the content was a unit.  Nor is
a common factor of the numerators divided out between steps; the content
division removes it once, with one gcd chain.  A gcd chain after every step
with s != 1, dividing D and the numerators by their common factor, cost
more than it saved on every benchmark family (Python 3.11.7, 2 vCPUs):
leaving it out took the solve from 1.61-1.71 s to 1.10-1.12 s on
``vx-rational`` seed 9 (best of 5, three runs each) and 12-15% off on
``vx-rft0`` seeds 7 and 8, and the ``slow:rft0:q`` case from 34.2 s to
26.5 s (one run each, both with every Z[t] gcd by the primitive PRS).

Content division.  The content of V/D is its first coefficient of minimal
valuation, c/D, and (V/D) / (c/D) = V/c: dividing by the content replaces
the denominator by c, with no division in K.  Dividing V and c by the gcd
h of the numerators (c is one of them), taken as the associate of h that
normalises c/h, gives lowest terms with a normalised denominator.  The
numerator at the content position then equals the new denominator, which
makes the column monic there.

Over F_p, ``mod`` = p and the numerators are residues over D = 1, so w = 1,
s = 1 and each step is V - a W mod p; the content is the first nonzero
residue, divided out by multiplying with its inverse mod p.

Cost model.  One ring gcd per elimination step, and one gcd chain per
appended column for its content (one ``math.gcd`` call over Z).  Entries
are reduced one by one, with one gcd each, only when a client reads the
elements of a column it took out (``_packed``, ``polyvec.PolyVec.comps``).
A step over Z[t] or F_p[t] runs no ``ilin`` where both entries are zero,
and over F_p a content chain that meets a nonzero constant stops at once
(``_poly.icontent``).  Over Z[t] the gcds dominate once the numerators
grow, and most of them come from the content chain of ``normalise``.
``igcd`` takes them by GCDHEU when the shorter primitive part has at least
4 terms and by the primitive PRS below (``_poly``).  On the
``slow:rft0:q`` benchmark case, whose gcd inputs reach t-degree 156 with
258-bit coefficients, the PRS took 31.1 s of a 31.3 s saturation in 266
gcds; with the switch the whole saturation takes about 0.3 s (Python
3.11.7, 2 vCPUs).  ``normalise`` and ``strip`` take the chain through
``_poly.icontent``, which keeps the quotients GCDHEU's trial divisions
computed: one division per numerator, not a trial division and an
``iquo``.  The elimination steps' ``ilin`` over Z[t] multiplies long
numerators by Kronecker substitution.  With both, that case takes
0.16-0.21 s from text to rendered output, against 0.28-0.39 s without
(best of 5 warm runs, three interleaved processes each).
"""

import operator
from math import gcd

from ._poly import icontent, igcd, imul, ilin, iquo, order
from .valuation import _int_val


def shift_comps(comps, s, zero=0):
    """Multiply every component by X^s, into fresh lists; ``comps`` when s is 0."""
    if not s:
        return comps
    pad = [zero] * s
    return [pad + comp if comp else [] for comp in comps]


def vec_shift(vec, zero=0):
    """Multiply every component by X; ``zero`` is the ring's zero."""
    comps, D = vec
    return shift_comps(comps, 1, zero), D


def _content(comps, val):
    """First numerator of minimal valuation as ``(num, v(num), (j, r))``.

    None when every numerator is zero; a numerator of valuation 0 ends the
    scan, and with no valuation (``val`` None) the first nonzero one does.
    """
    found = None
    for j, comp in enumerate(comps, start=1):
        for r, num in enumerate(comp):
            if num:
                if val is None:
                    return num, 0, (j, r)
                v = val(num)
                if found is None or v < found[1]:
                    found = num, v, (j, r)
                    if not v:
                        return found
    return found


def _divide(comps, g):
    """Exact division of every numerator by g, into fresh lists."""
    for c, comp in enumerate(comps):
        comps[c] = [num // g for num in comp]


def _sub_scaled(comps, wcomps, s, t, p=0):
    """comps <- s * comps - t * wcomps, trailing zeros trimmed.

    With a prime ``p`` the numerators are residues mod p, s must be 1, and
    every changed entry is reduced mod p.  Writes fresh component lists into
    ``comps`` and mutates none, so the caller's vector and the basis columns
    stay intact.
    """
    for c, wcomp in enumerate(wcomps):
        comp = comps[c]
        if wcomp:
            m = len(wcomp)
            if len(comp) < m:
                comp = comp + [0] * (m - len(comp))
            if p:
                new = [(x - t * y) % p for x, y in zip(comp, wcomp)] + comp[m:]
            elif s == 1:
                new = [x - t * y for x, y in zip(comp, wcomp)] + comp[m:]
            else:
                new = [s * x - t * y for x, y in zip(comp, wcomp)]
                new += [s * x for x in comp[m:]]
            while new and not new[-1]:
                new.pop()
            comps[c] = new
        elif s != 1 and comp:
            comps[c] = [s * x for x in comp]


class Integers:
    """Z with the p-adic valuation (trivial when p = 0), or residues mod ``mod``."""

    zero, one = 0, 1
    quo = staticmethod(operator.floordiv)

    def __init__(self, p=0, mod=0):
        self.p, self.mod = p, mod
        # Read from the module globals when the ring is made, so that calls
        # go through ``_ratkernel.gcd`` and ``_ratkernel._sub_scaled`` as
        # they stand then, wrapped or not.
        self.gcd, self.sub_scaled = gcd, _sub_scaled
        self.val = (lambda n: _int_val(n, p)) if p else None
        if mod:
            # In a field every nonzero b is a gcd of a and b; taking it makes
            # every step's s = b / b = 1, as ``_sub_scaled`` mod p requires,
            # and a quotient of equal residues costs no inversion.
            self.gcd = lambda a, b: b
            self.quo = lambda a, b: (1 if a == b else a if b == 1
                                     else a * pow(b, -1, mod) % mod)

    def shed(self, x, m):
        """x / p^m, for x of p-adic valuation at least m."""
        return x // self.p ** m

    def strip(self, comps):
        """Divide comps by the gcd of their numerators; by nothing over F_p."""
        if not self.mod:
            g = gcd(*[num for comp in comps for num in comp])
            if g != 1:
                _divide(comps, g)

    def normalise(self, comps, c):
        """Divide comps by their content c, in lowest terms; the new D."""
        if self.mod:
            mod = self.mod
            inv = pow(c, -1, mod)
            comps[:] = [[x * inv % mod for x in comp] for comp in comps]
            return 1
        g = gcd(*[num for comp in comps for num in comp])
        if c < 0:
            g = -g
        if g != 1:
            _divide(comps, g)
        return c // g


class Polynomials:
    """Z[t] (``mod`` 0) or F_p[t] (``mod`` p), valued by the order at t = 0.

    A numerator is a trimmed tuple of ints, residues mod p over F_p.
    """

    zero, one = (), (1,)
    val = staticmethod(order)

    def __init__(self, mod=0):
        self.mod = mod

    def gcd(self, a, b):
        return igcd(a, b, self.mod)

    def quo(self, a, b):
        return iquo(a, b, self.mod)

    def sub_scaled(self, comps, wcomps, s, t, p):
        """comps <- s * comps - t * wcomps, as ``_sub_scaled`` does over Z;
        a pair of zero entries costs no ``ilin``."""
        one = (1,)
        for c, wcomp in enumerate(wcomps):
            comp = comps[c]
            if wcomp:
                m = len(wcomp)
                if len(comp) < m:
                    comp = comp + [()] * (m - len(comp))
                new = [ilin(s, x, t, y, p) if x or y else () for x, y in zip(comp, wcomp)]
                new += comp[m:] if s == one else [imul(s, x, p) for x in comp[m:]]
                while new and not new[-1]:
                    new.pop()
                comps[c] = new
            elif s != one and comp:
                comps[c] = [imul(s, x, p) for x in comp]

    @staticmethod
    def shed(x, m):
        """x / t^m, for x of order at least m."""
        return x[m:]

    def strip(self, comps):
        """Divide comps by the gcd of their numerators (``icontent``)."""
        xs = [x for comp in comps for x in comp if x]
        if xs:
            h, qs = icontent(xs, self.mod)
            if h != (1,):
                _refill(comps, iter(qs))

    def normalise(self, comps, c):
        """Divide comps by their content c, in lowest terms; the new D.

        ``icontent`` divides the numerators, c first, by their gcd h; then
        every quotient is scaled by the unit that makes c / h monic over
        F_p and gives it a positive leading coefficient over Z.
        """
        p = self.mod
        h, qs = icontent([c] + [x for comp in comps for x in comp if x and x is not c], p)
        u = qs[0][-1]
        if u != 1 and (p or u < 0):
            k = (pow(u, -1, p) if p else -1,)
            qs = [imul(k, q, p) for q in qs]
        elif h == (1,):
            return c
        qs = iter(qs)
        d = next(qs)
        _refill(comps, qs, c, d)
        return d


def _refill(comps, qs, c=None, d=None):
    """Put the quotients qs, in order, in the places of comps' nonzero
    numerators, and d in the places of c."""
    for i, comp in enumerate(comps):
        comps[i] = [d if x is c else next(qs) if x else () for x in comp]


def insert(cols, pivots, vec, ring):
    """Strict-echelon insertion of a packed vector against a packed basis.

    Eliminates vec at each basis pivot in order, over the numerator ring
    ``ring``.  Returns ``(False, False)`` when it dies.  Otherwise appends
    its primitive reduction in lowest terms to ``cols`` and the reduction's
    pivot (j, r), the content position, to ``pivots``, and returns
    ``(True, new)``, ``new`` telling whether the content divided out was a
    non-unit.
    """
    comps, D = vec
    comps = list(comps)
    rgcd, quo, sub_scaled, mod = ring.gcd, ring.quo, ring.sub_scaled, ring.mod
    for (wcomps, w), (j, r) in zip(cols, pivots):
        comp = comps[j - 1]
        if r >= len(comp) or not comp[r]:
            continue
        a = comp[r]
        g = rgcd(a, w)
        sub_scaled(comps, wcomps, quo(w, g), quo(a, g), mod)
    val = ring.val
    found = _content(comps, val)
    if found is None:
        return False, False
    c, c_val, at = found
    cols.append((comps, ring.normalise(comps, c)))
    pivots.append(at)
    return True, val is not None and c_val != val(D)
