"""Dense univariate polynomials over a coefficient field, and their text form.

A polynomial is a tuple of coefficients indexed by exponent, trimmed so the
last entry is nonzero; the zero polynomial is ``()``.  Every arithmetic
function takes the coefficient field ``F`` first.  ``F`` provides ``zero``,
``one`` and the callables ``add``, ``sub``, ``mul``, ``div`` and ``neg``:
the base fields of ``valuation`` (``_QQ``, ``_GFp``) over plain numbers,
and every ``Domain`` over its own elements.  Coefficients are tested for
zero by truthiness, which holds for ``int``, ``Fraction`` and
``DomainElement`` alike.

The gcd over Q does not run Euclid on ``Fraction`` coefficients: every
remainder step there reduces each coefficient by an integer gcd, and the
numerators and denominators of the remainders still grow far beyond those
of the inputs and of the gcd (Knuth, TAOCP vol. 2, section 4.6.1).  It runs
the primitive polynomial remainder sequence over Z instead (Collins 1967;
Brown & Traub 1971): clear the denominators, and take pseudo-remainders of
integer polynomials, stripping their integer content at each step, so the
coefficients stay as small as the primitive associates of the remainders.
Over F_p, and over every ``Domain``, the gcd is Euclid's.

The last section computes on tuples of plain ints with no field object:
polynomials over Z, and over F_p as residues.  These are the numerator
rings Z[t] and F_p[t] of the packed kernel (``_ratkernel``).  Their gcd
over Z keeps the content, and runs the same PRS loop on the primitive
parts; over F_p it is Euclid, which ``gcd`` also uses over ``_GFp``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(c) -> tuple:
    """Drop trailing zero coefficients."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def add(F, a, b) -> tuple:
    """a + b; a zero coefficient of b costs no field addition."""
    n = len(a)
    out = list(a) + list(b[n:])
    fadd = F.add
    for i, x in enumerate(b[:n]):
        if x:
            out[i] = fadd(out[i], x)
    return trim(out)


def neg(F, a) -> tuple:
    return tuple(F.neg(x) for x in a)


def sub(F, a, b) -> tuple:
    return add(F, a, neg(F, b))


def mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    fadd, fmul = F.add, F.mul
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = fadd(out[i + j], fmul(x, y))
    return trim(out)


def divmod(F, a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by the nonzero trimmed b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim(a)
    if len(a) < len(b):
        return (), a
    q = [F.zero] * (len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    lead_is_one = lead == F.one
    fsub, fmul = F.sub, F.mul
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1]
        if not c:
            continue
        f = c if lead_is_one else F.div(c, lead)
        q[k] = f
        for i, x in enumerate(b):
            r[k + i] = fsub(r[k + i], fmul(f, x))
    return trim(q), trim(r)


def monic(F, a) -> tuple:
    """a divided by its leading coefficient; the zero polynomial unchanged."""
    if not a or a[-1] == F.one:
        return a
    lead = a[-1]
    return tuple(F.div(x, lead) for x in a)


def gcd(F, a, b) -> tuple:
    """Monic greatest common divisor of two trimmed polynomials.

    Over Q (``F.zero`` a ``Fraction``) by the primitive PRS over Z, over F_p
    (``F.zero`` an ``int``) by Euclid on residues (``igcd``), over every
    ``Domain`` by Euclid through its field operations; all return the same
    monic polynomial.
    """
    if isinstance(F.zero, Fraction):
        return _gcd_q(F, a, b)
    if type(F.zero) is int:
        return igcd(a, b, F.p)
    while b:
        a, b = b, divmod(F, a, b)[1]
    return monic(F, a)


def _primitive(c) -> list:
    """c divided by the gcd of its integer entries."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _cleared(c) -> list:
    """Primitive integer associate of a list of ``Fraction``s."""
    den = math.lcm(*(x.denominator for x in c))
    return _primitive([x.numerator * (den // x.denominator) for x in c])


def _prs(a, b) -> list:
    """Primitive gcd, up to sign, of primitive integer lists with len(a) >= len(b) >= 2.

    A constant result means the two are coprime over Q.
    """
    while len(b) > 1:
        # a <- prem(a, b) up to a constant factor, one leading term at a time
        n, lb = len(b), b[-1]
        while len(a) >= n:
            la = a[-1]
            g = math.gcd(la, lb)
            s, t = lb // g, la // g
            k = len(a) - n
            head = a[:k] if s == 1 else [s * x for x in a[:k]]
            a = head + [s * x - t * y for x, y in zip(a[k:], b)]
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        a, b = b, _primitive(a)
    return b


def _gcd_q(F, a, b) -> tuple:
    """Monic gcd over Q of two trimmed polynomials, by the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return monic(F, a)
    if len(b) == 1:
        return (F.one,)
    b = _prs(_cleared(a), _cleared(b))
    if len(b) == 1:
        return (F.one,)
    lead = b[-1]
    return tuple(Fraction(x, lead) for x in b)


# ---------------------------------------------------------------------------
# Polynomials over Z (p = 0) and over F_p as tuples of plain ints: the
# numerator rings F_p[t] and Z[t] of the packed kernel.  Over F_p every
# coefficient is a residue in [0, p).  These run on ints directly, with no
# field object in between.

def imul(a, b, p=0) -> tuple:
    """a * b."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        if c == 1:
            return b
        return tuple(c * y % p for y in b) if p else tuple(c * y for y in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return tuple(c % p for c in out) if p else tuple(out)


def ilin(s, x, t, y, p=0) -> tuple:
    """s * x - t * y, trimmed."""
    if not y:
        return imul(s, x, p)
    out = [0] * (max(len(s) + len(x), len(t) + len(y)) - 1)
    if x:
        for i, c in enumerate(s):
            if c:
                for k, v in enumerate(x, i):
                    out[k] += c * v
    for i, c in enumerate(t):
        if c:
            for k, v in enumerate(y, i):
                out[k] -= c * v
    if p:
        out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def iquo(a, b, p=0) -> tuple:
    """The exact quotient a / b; b must divide a."""
    n, lb = len(b), b[-1]
    if n == 1:
        if lb == 1:
            return a
        if p:
            inv = pow(lb, -1, p)
            return tuple(x * inv % p for x in a)
        return tuple(x // lb for x in a)
    inv = pow(lb, -1, p) if p else 0
    r = list(a)
    q = [0] * (len(a) - n + 1)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n - 1]
        if p:
            c = c * inv % p
        elif c:
            c //= lb
        if c:
            q[i] = c
            for k, y in enumerate(b, i):
                r[k] -= c * y
    return tuple(q)


def _rem_mod(a, b, p) -> tuple:
    """The remainder of a by the nonzero b over F_p."""
    r, n = list(a), len(b)
    inv = pow(b[-1], -1, p)
    while len(r) >= n:
        f = r[-1] * inv % p
        if f:
            for k, y in enumerate(b, len(r) - n):
                r[k] -= f * y
        r.pop()
        while r and not r[-1] % p:
            r.pop()
    return tuple(x % p for x in r)


def igcd(a, b, p=0) -> tuple:
    """gcd over F_p, monic, or over Z, content included and leading coefficient > 0.

    Over F_p by Euclid; over Z the gcd of the contents times the primitive
    PRS gcd of the primitive parts (``_prs``, the loop of the gcd over Q).
    """
    if p:
        if (len(a) == 1 and b) or (len(b) == 1 and a):
            return (1,)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _rem_mod(a, b, p)
        if not a or a[-1] == 1:
            return a
        inv = pow(a[-1], -1, p)
        return tuple(x * inv % p for x in a)
    if not a or not b:
        c = tuple(a or b)
        return tuple(-x for x in c) if c and c[-1] < 0 else c
    ca, cb = math.gcd(*a), math.gcd(*b)
    c = math.gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    if len(a) < len(b):
        a, b, ca, cb = b, a, cb, ca
    g = _prs([x // ca for x in a], [x // cb for x in b])
    if len(g) == 1:
        return (c,)
    if g[-1] < 0:
        c = -c
    return tuple(c * x for x in g)


def order(a):
    """Vanishing order at 0 (index of the first nonzero coefficient); inf for 0."""
    for i, x in enumerate(a):
        if x:
            return i
    return math.inf


# ---------------------------------------------------------------------------
# Text form.

def needs_parens(s: str) -> bool:
    """True when a coefficient string must be wrapped before '*var^k'."""
    body = s[1:] if s.startswith("-") else s
    return any(ch in body for ch in "+-/* ")


def format_poly(coeffs, var: str) -> str:
    """Render a dense coefficient sequence (ascending exponent) as text.

    Zero coefficients are skipped; the others are rendered with ``str``.
    Highest-degree term first, e.g. ``(2/3)*X^2 + 1``.
    """
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if not c:
            continue
        s = str(c)
        if exp == 0:
            terms.append(s)
            continue
        xpart = var if exp == 1 else f"{var}^{exp}"
        if s == "1":
            terms.append(xpart)
        elif s == "-1":
            terms.append(f"-{xpart}")
        elif needs_parens(s):
            terms.append(f"({s})*{xpart}")
        else:
            terms.append(f"{s}*{xpart}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
