"""Dense univariate polynomials over a coefficient field, and their text form.

A polynomial is a tuple of coefficients indexed by exponent, trimmed so the
last entry is nonzero; the zero polynomial is ``()``.  Every arithmetic
function takes the coefficient field ``F`` first.  ``F`` provides ``zero``,
``one`` and the callables ``add``, ``sub``, ``mul``, ``div`` and ``neg``:
the base fields of ``valuation`` (``_QQ``, ``_GFp``) over plain numbers,
and every ``Domain`` over its own elements.  Coefficients are tested for
zero by truthiness, which holds for ``int``, ``Fraction`` and
``DomainElement`` alike.
"""

from __future__ import annotations

import math


def trim(c) -> tuple:
    """Drop trailing zero coefficients."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def add(F, a, b) -> tuple:
    n = len(a)
    out = list(a) + list(b[n:])
    fadd = F.add
    for i, x in enumerate(b[:n]):
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
    fsub, fmul = F.sub, F.mul
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1]
        if not c:
            continue
        f = F.div(c, lead)
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
    """Monic greatest common divisor of two trimmed polynomials."""
    while b:
        a, b = b, divmod(F, a, b)[1]
    return monic(F, a)


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
