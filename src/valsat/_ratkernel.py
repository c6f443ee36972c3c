"""Packed rational echelon kernel: integer numerators over one denominator.

A packed vector is a pair ``(comps, D)``.  ``comps`` holds one list of
integer numerators per component, trailing zeros trimmed, and ``D != 0`` is
a denominator common to every coefficient: the coefficient of X^r in
component j is ``comps[j - 1][r] / D``.  Basis columns are kept in lowest
terms with D > 0, gcd(numerators, D) = 1, which makes their packing
unique; vectors in the middle of an elimination need only D != 0.  ``p`` is
the residue prime of Z_(p), or 0 for the trivial valuation on Q and F_p.

The valuation of an entry ``num / D`` is v_p(num) - v_p(D), so every
comparison of valuations inside one vector compares numerators only, and
an entry is a unit iff v_p(num) = v_p(D).

Elimination step (fraction-free, after Bareiss).  Let V/D be the vector and
W/Dw a basis column whose pivot entry is w/Dw, and let a/D be the vector's
entry at that pivot.  The generic step subtracts (a/D)/(w/Dw) times the
column:

    V/D - (a Dw / (D w)) (W / Dw) = (w V - a W) / (D w),

so Dw cancels.  With g = gcd(a, w), s = w/g and t = a/g, the new vector
is (s V - t W, s D): one gcd per step.  Every basis column is monic at its
pivot, which is its content position (see ``echelon``), so w = Dw > 0:
the step reads w as the column's D, and a pivot is stored as (j, r) alone.

Swell control.  After a step with s != 1 the common factor of D and the
numerators is divided out, the gcd chain stopping once it reaches 1.  It
starts from the old D, not from s D: a prime q of s would have to divide
t W_i for every i, but gcd(s, t) = 1 and a column in lowest terms has some
W_i prime to q.

Content division.  The content of V/D is its first coefficient of minimal
valuation, c/D, and (V/D) / (c/D) = V/c: dividing by the content replaces
the denominator by c.  Dividing V and c by +-gcd(V), with the sign of c,
then gives lowest terms with a positive denominator (c is one of the
numerators, so gcd(V) divides it).  The numerator at the content position
then equals the new denominator, which makes the column monic there.  The
sign of D before this division does not matter, as valuations ignore signs.

Over F_p, ``mod`` = p and the numerators are residues over D = 1, so w = 1,
s = 1 and each step is V - a W mod p; the content is the first nonzero
residue, divided out by multiplying with its inverse mod p.
"""

from math import gcd

from .valuation import _int_val


def shift_comps(comps, s):
    """Multiply every component by X^s, into fresh lists; ``comps`` when s is 0."""
    if not s:
        return comps
    pad = [0] * s
    return [pad + comp if comp else [] for comp in comps]


def vec_shift(vec):
    """Multiply every component by X."""
    comps, D = vec
    return shift_comps(comps, 1), D


def _content(comps, p):
    """First numerator of minimal valuation as ``(num, v_p(num), (j, r))``.

    None when every numerator is zero; a numerator of valuation 0 ends the scan.
    """
    found = None
    for j, comp in enumerate(comps, start=1):
        for r, num in enumerate(comp):
            if num:
                v = _int_val(num, p) if p else 0
                if found is None or v < found[1]:
                    found = num, v, (j, r)
                    if not v:
                        return found
    return found


def _common_factor(comps, g):
    """gcd of g and every numerator, stopping once it reaches 1."""
    for comp in comps:
        g = gcd(g, *comp)
        if g == 1:
            break
    return g


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


def insert(cols, pivots, vec, p, mod=0):
    """Strict-echelon insertion of a packed vector against a packed basis.

    Eliminates vec at each basis pivot in order.  Returns ``(False, False)``
    when it dies.  Otherwise appends its primitive reduction in lowest terms
    to ``cols`` and the reduction's pivot (j, r), the content position, to
    ``pivots``, and returns ``(True, new)``, ``new`` telling whether the
    content divided out was a non-unit.
    """
    comps, D = vec
    comps = list(comps)
    for (wcomps, w), (j, r) in zip(cols, pivots):
        comp = comps[j - 1]
        if r >= len(comp) or not comp[r]:
            continue
        a = comp[r]
        g = gcd(a, w)
        s = w // g
        _sub_scaled(comps, wcomps, s, a // g, mod)
        if s != 1:
            g = _common_factor(comps, D)
            if g != 1:
                _divide(comps, g)
                D //= g
            D *= s
    found = _content(comps, p)
    if found is None:
        return False, False
    c, c_val, at = found
    if mod:
        inv = pow(c, -1, mod)
        comps, c = [[x * inv % mod for x in comp] for comp in comps], 1
    else:
        g = gcd(*[num for comp in comps for num in comp])
        if c < 0:
            g = -g
        if g != 1:
            _divide(comps, g)
        c //= g
    cols.append((comps, c))
    pivots.append(at)
    return True, bool(p) and c_val != _int_val(D, p)
