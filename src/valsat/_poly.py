"""Dense univariate polynomials over a coefficient field, and their text form.

A polynomial is a tuple of coefficients indexed by exponent, trimmed so the
last entry is nonzero; the zero polynomial is ``()``.  Every arithmetic
function of the first section takes the coefficient field ``F`` first.
``F`` provides ``zero``, ``one`` and the callables ``add``, ``sub``,
``mul``, ``div`` and ``neg``: the base fields of ``valuation`` (``_QQ``,
``_GFp``) over plain numbers, and every ``Domain`` over its own elements.
Coefficients are tested for zero by truthiness, which holds for ``int``,
``Fraction`` and ``DomainElement`` alike.  That section has no gcd.

The gcds are on tuples of plain ints with no field object (``igcd``):
polynomials over Z, and over F_p as residues.  These are the numerator
rings Z[t] and F_p[t] of both forms of a rational function at zero, the
``RatFuncElement`` and the packed kernel's columns (``_ratkernel``).  Over
F_p the gcd is Euclid's, made monic, run in place on two lists
(``_gcd_mod``): on random F_5 operands of 2-11 terms it takes 5.2 us per
gcd against 9.4 us by a chain of remainder tuples (Python 3.11.7, best of
5).  A linear divisor b ends it: the gcd is b made monic when the other
operand vanishes at b's root, and 1 otherwise, which one Horner pass
decides.  Linear divisors are common: 10,047 of the 22,117 F_p[t] gcds in
one pass of ``vx-rft0`` seed 5.  On 2,000 random F_5 pairs of a 2-11 term
operand and a linear divisor, which divides it half the time, ``igcd``
takes 2.0 us per call with the test against 4.3 us by Euclid (Python
3.11.7, the median of five interleaved processes, each the best of 5).
Over Z it is the gcd of the contents times the gcd of the primitive parts
(``_zgcd``).  No gcd runs Euclid on ``Fraction`` coefficients: every
remainder step there reduces each coefficient by an integer gcd, and the
numerators and denominators of the remainders still grow far beyond
those of the inputs and of the gcd (Knuth, TAOCP vol. 2, section 4.6.1).
``_zgcd`` takes one of two methods that return the same gcd:

* the primitive polynomial remainder sequence (``_prs``; Collins 1967,
  Brown & Traub 1971): pseudo-remainders of integer polynomials, stripped
  of their integer content at each step, so the coefficients stay as small
  as the primitive associates of the remainders;
* GCDHEU (``_heu``; Char, Geddes & Gonnet 1989): evaluate both inputs at
  one integer xi >= 2 min(|a|, |b|) + 2 (max norms), first a power of two,
  take one integer gcd, and read the candidate off its symmetric xi-adic
  digits.  A candidate is accepted only when it divides both inputs
  exactly, and the bound on xi makes an accepted candidate the gcd, so the
  answer is exact.  A failed point tries the cofactor images, then a larger
  xi; after ``_HEU_TRIES`` points the PRS answers.

Cost model.  A PRS step is a pass over the remainder in Python arithmetic,
and the sequence has about as many steps as the degree, so its cost grows
fast with the degree and the coefficient size.  GCDHEU does its work in a
few big-integer operations (Horner evaluation, by shifts at a power of
two, one ``math.gcd`` and digit extraction) and two trial divisions, with
a higher fixed cost per call.  ``_zgcd`` runs GCDHEU when the shorter
primitive part has at least ``_HEU_MIN_LEN`` = 4 terms, the PRS below.
That is the measured crossover on the 9,501 Z[t] gcds of the steady
``vx-rft0`` benchmark family, seed 3 (Python 3.11.7, 2 vCPUs, best of 9
interleaved runs): per gcd, 8.0 us by the PRS against 9.2 us by GCDHEU at
3 terms, 9.6 against 9.1 at 4, 12.7 against 10.3 at 5 and 29.5 against
14.3 at 8, with identical gcds and no fallback to the PRS.  It is a speed
choice, not a cap: both methods give the same gcd.  On the
``slow:rft0:q`` case, whose gcd inputs reach t-degree 156 with 258-bit
coefficients, the switch takes the saturation from 31 s to 0.3 s.  A gcd
against a constant over Z costs only its integer content: one
``math.gcd`` pass.

Content chains.  ``icontent`` takes the gcd of a list of polynomials and
the quotients by it (a column's content division in ``_ratkernel`` and the
oracle's row strip).  Over Z a chain step by GCDHEU keeps the cofactors
its accepting trial divisions computed, so each numerator costs one
division, not a trial division and then an exact one.

Products over Z.  ``imul`` and ``ilin`` multiply by schoolbook, one Python
multiplication per pair of terms, unless every operand has at least
``_KS_MIN_LEN`` = 12 terms.  Then they use Kronecker substitution
(``_kronecker``; Harvey, J. Symbolic Comput. 2009): each operand is packed
into one int at 2^B by ``int.to_bytes``/``int.from_bytes``, one C
multiplication forms each product, and the balanced B-bit digits of the
result are its coefficients.  B comes from the operands: the bits of their
max norms and of the shorter length, one bit for the difference and one
for the sign.  Per call, schoolbook / Kronecker in us, on random operands
of n terms each (Python 3.11.7, 2 vCPUs, best of 15):

    n    ilin 40-bit   ilin 130-bit   imul 40-bit   imul 130-bit
    8      20 / 22        26 / 36        10 / 15       13 / 23
    10     29 / 26        40 / 43        15 / 17       19 / 27
    12     41 / 30        60 / 54        20 / 20       27 / 33
    16     69 / 38       105 / 83        35 / 26       60 / 52
    20    105 / 50       154 / 98        53 / 33       71 / 58
    40    398 / 98       564 / 232      202 / 64      292 / 134
    80   1558 / 226     2152 / 609      808 / 142    1074 / 332

``ilin``, the larger user, crosses over at 10-12 terms and ``imul`` at
12-16, hence one switch at 12.  Over F_p products stay schoolbook, since
no workload has long F_p[t] operands.  Exact division (``iquo``) stays
schoolbook too: a Kronecker quotient was slower at every size tried,
because CPython's long division is quadratic.
"""

from __future__ import annotations

import builtins
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


# ---------------------------------------------------------------------------
# The gcd over Z of primitive integer lists: the PRS and GCDHEU.

def _primitive(c) -> list:
    """c divided by the gcd of its integer entries."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


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


# GCDHEU runs when the shorter primitive part has at least this many terms,
# the PRS below (the measured crossover, see the module docstring).  It tries
# at most this many evaluation points before the PRS answers.
_HEU_MIN_LEN = 4
_HEU_TRIES = 6


def _eval(a, xi) -> int:
    """The value of the integer list a at xi, by Horner's rule (shifts when
    xi is a power of two)."""
    v, k = 0, xi.bit_length() - 1
    if xi == 1 << k:
        for c in reversed(a):
            v = (v << k) + c
    else:
        for c in reversed(a):
            v = v * xi + c
    return v


def _interpolate(v, xi) -> list:
    """The integer list of symmetric xi-adic digits of v: its value at xi is v."""
    out, half, k, qr = [], xi >> 1, xi.bit_length() - 1, builtins.divmod
    mask = xi - 1 if xi == 1 << k else 0
    while v:
        if mask:
            d = v & mask
            v >>= k
        else:
            v, d = qr(v, xi)
        if d > half:
            d -= xi
            v += 1
        out.append(d)
    return out


def _quo(a, b):
    """a / b for integer lists when b divides a exactly over Z, else None.

    ``iquo`` assumes that b divides a; this checks it, for the candidates
    of ``_heu``.
    """
    n, lb = len(b), b[-1]
    if len(a) < n or a[-1] % lb or (b[0] and a[0] % b[0]):
        return None
    r, q, qr = list(a), [0] * (len(a) - n + 1), builtins.divmod
    for i in range(len(q) - 1, -1, -1):
        c, m = qr(r[i + n - 1], lb)
        if m:
            return None
        if c:
            q[i] = c
            for k, y in enumerate(b, i):
                r[k] -= c * y
    return None if any(r[:n - 1]) else q


def _heu_cof(a, b):
    """GCDHEU on primitive integer lists of length >= 2: ``(g, a/g, b/g)`` for
    their primitive gcd g, up to sign, or None when every evaluation point
    fails.

    Char, Geddes & Gonnet (J. Symbolic Comput. 1989): with xi at least
    2 min(|a|, |b|) + 2 in the max norm, the primitive part of the xi-adic
    image of h = gcd(a(xi), b(xi)) is the gcd as soon as it divides both a
    and b.  Failing that, the images of the cofactors a(xi)/h and b(xi)/h
    are tried; the same bound makes a cofactor that divides its input give
    the gcd as the quotient, once that divides the other input.  The first
    point is the least power of two at or above the bound, so evaluating is
    shifting and the digits are bit fields.  The trial divisions that accept
    a candidate give the cofactors.
    """
    xi = 1 << (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    for _ in range(_HEU_TRIES):
        va, vb = _eval(a, xi), _eval(b, xi)
        if va and vb:  # xi can be a root of the input of larger norm
            h = math.gcd(va, vb)
            g = _primitive(_interpolate(h, xi))
            qa = _quo(a, g)
            qb = qa and _quo(b, g)
            if qb:
                return g, qa, qb
            for x, y, v in ((a, b, va), (b, a, vb)):
                cx = _interpolate(v // h, xi)
                f = _quo(x, cx)
                cy = f and _quo(y, f)
                if cy:
                    return (f, cx, cy) if x is a else (f, cy, cx)
        # The next point, about xi^(5/4), grows as in sympy's dup_zz_heu_gcd
        # and is no power of two: where many coefficients share a high power
        # of two, the values at every power of two share a spurious factor.
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heu(a, b):
    """The gcd of ``_heu_cof`` alone, or None."""
    r = _heu_cof(a, b)
    return r and r[0]


def _zgcd(a, b) -> list:
    """Primitive gcd, up to sign, of primitive integer lists with len(a) >= len(b) >= 2."""
    if len(b) >= _HEU_MIN_LEN:
        g = _heu(a, b)
        if g is not None:
            return g
    return _prs(a, b)


# ---------------------------------------------------------------------------
# Polynomials over Z (p = 0) and over F_p as tuples of plain ints: the
# numerator rings Z[t] and F_p[t] of ``RatFuncElement`` and of the packed
# kernel.  Over F_p every
# coefficient is a residue in [0, p).  These run on ints directly, with no
# field object in between.

# Products over Z whose operands all have at least this many terms go by
# Kronecker substitution, shorter ones by schoolbook (the measured
# crossover, see the module docstring).
_KS_MIN_LEN = 12


def _ks_pack(a, nb, half):
    """The value of the integer list a at 2^(8 nb), each |a_i| < half = 2^(8 nb - 1)."""
    return (int.from_bytes(b"".join([(c + half).to_bytes(nb, "little") for c in a]),
                           "little") - _ks_bias(len(a), nb))


def _ks_bias(n, nb):
    """half = 2^(8 nb - 1) in each of n digits of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _kronecker(a, b, c=(), d=()) -> tuple:
    """a * b - c * d over Z, trimmed, by Kronecker substitution.

    Each operand is packed into one int at 2^B, so one C multiplication
    forms each product and the balanced B-bit digits of their difference are
    its coefficients.  B bounds them with their sign: a coefficient of a * b
    is at most min(len(a), len(b)) |a| |b| in the max norm.
    """
    bits = max(max(map(abs, x)).bit_length() + max(map(abs, y)).bit_length()
               + min(len(x), len(y)).bit_length() for x, y in ((a, b), (c, d)) if x)
    nb = (bits + 9) // 8  # a bit for the difference and one for the sign
    half = 1 << (8 * nb - 1)
    v = _ks_pack(a, nb, half) * _ks_pack(b, nb, half)
    if c:
        v -= _ks_pack(c, nb, half) * _ks_pack(d, nb, half)
    n = max(len(a) + len(b), len(c) + len(d)) - 1
    raw, fb = memoryview((v + _ks_bias(n, nb)).to_bytes(n * nb, "little")), int.from_bytes
    out = [fb(raw[i:i + nb], "little") - half for i in range(0, n * nb, nb)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
    if not p and len(a) >= _KS_MIN_LEN:
        return _kronecker(a, b)
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
    if not p and min(len(s), len(x), len(t), len(y)) >= _KS_MIN_LEN:
        return _kronecker(s, x, t, y)
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


def _gcd_mod(a, b, p) -> tuple:
    """The monic gcd over F_p of residue tuples with len(a) >= len(b) >= 2.

    Euclid on two lists in place: each remainder step pops a's leading
    term, which cancels, and updates the entries below it, each reduced mod
    p as it is written, so the lists stay trimmed residues and no remainder
    is copied; the divisor's leading coefficient is inverted once per
    remainder.  A linear divisor ends it with one Horner pass: the gcd is
    the divisor made monic when a vanishes at its root, and 1 otherwise.
    """
    a, b = list(a), list(b)
    while True:
        lb = b.pop()  # b holds the divisor's lower terms while a is reduced
        n = len(b)
        if not n:
            return (1,)
        inv = pow(lb, -1, p)
        if n == 1:
            root = -b[0] * inv % p
            v = 0
            for x in reversed(a):
                v = (v * root + x) % p
            return (1,) if v else (-root % p, 1)
        while len(a) > n:
            f = a.pop() * inv % p
            for i, y in enumerate(b, len(a) - n):
                a[i] = (a[i] - f * y) % p
            while a and not a[-1]:
                a.pop()
        b.append(lb)
        if not a:
            return tuple(b) if lb == 1 else tuple(x * inv % p for x in b)
        a, b = b, a


def igcd(a, b, p=0) -> tuple:
    """gcd over F_p, monic, or over Z, content included and leading coefficient > 0.

    Over F_p by Euclid (``_gcd_mod``); over Z the gcd of the contents times
    the gcd of the primitive parts (``_zgcd``).
    """
    if p:
        if (len(a) == 1 and b) or (len(b) == 1 and a):
            return (1,)
        if len(a) < len(b):
            a, b = b, a
        if b:
            return _gcd_mod(a, b, p)
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
    g = _zgcd([x // ca for x in a], [x // cb for x in b])
    if len(g) == 1:
        return (c,)
    if g[-1] < 0:
        c = -c
    return tuple(c * x for x in g)


def _zcof(a, b):
    """``(g, a/g, b/g)`` for g = ``igcd(a, b)`` over Z, for integer tuples of
    at least two terms, by GCDHEU; None when it finds no gcd."""
    ca, cb = math.gcd(*a), math.gcd(*b)
    r = _heu_cof([x // ca for x in a], [x // cb for x in b])
    if r is None:
        return None
    g, qa, qb = r
    c = math.gcd(ca, cb)
    if g[-1] < 0:
        c = -c
    ka, kb = ca // c, cb // c
    return (tuple(c * x for x in g), tuple(ka * x for x in qa),
            tuple(kb * x for x in qb))


def icontent(xs, p=0):
    """The gcd h of the nonzero polynomials xs, normalised as by ``igcd``, and
    the quotients x / h in order: xs itself when h is 1.

    The chain of gcds stops once it reaches 1.  Over Z a step that takes
    GCDHEU (both inputs of at least ``_HEU_MIN_LEN`` terms) keeps the
    cofactors its accepting trial divisions computed: the quotients so far
    are multiplied by h_old / h_new, and x / h_new joins them.  Any other
    step that shrinks h leaves every quotient to one division at the end, so
    short operands keep the plain chain, which usually reaches 1 without
    dividing.  Over F_p a nonzero constant among xs is a unit, so h is 1
    with no gcd at all.
    """
    if p and any(len(x) == 1 for x in xs):
        return (1,), xs
    h = igcd(xs[0], (), p)
    qs = [None if p or h != xs[0] else (1,)]
    for x in xs[1:]:
        if h == (1,):
            break
        r = not p and min(len(h), len(x)) >= _HEU_MIN_LEN and _zcof(h, x)
        if r:
            h, hq, xq = r
            if hq != (1,):
                qs = [q and imul(q, hq) for q in qs]
            qs.append(xq)
        else:
            g = igcd(h, x, p)
            if g != h:
                qs = [None] * len(qs)
            qs.append(None)
            h = g
    if h == (1,):
        return h, xs
    return h, [q or iquo(x, h, p) for q, x in zip(qs, xs)]


def ipack(comps, p=0):
    """``(nums, D)`` for components given as lists of reduced pairs (num,
    den), zeros as ``()`` over anything: D is the lcm of the denominators,
    normalised as by ``igcd``, and each numerator is num * (D / den), so
    the entries are nums / D with one denominator, as the packed kernel
    holds them (``_ratkernel``).  Each denominator that is neither 1 nor D
    costs one gcd against the lcm so far.
    """
    D = (1,)
    for comp in comps:
        for num, den in comp:
            if num and den != D and den != (1,):
                D = imul(D, iquo(den, igcd(D, den, p), p), p)
    return [[(num if den == D else imul(num, iquo(D, den, p), p)) if num else ()
             for num, den in comp] for comp in comps], D


def order(a):
    """Vanishing order at 0 (index of the first nonzero coefficient); inf for 0."""
    for i, x in enumerate(a):
        if x:
            return i
    return math.inf


# ---------------------------------------------------------------------------
# Text form.

# CPython refuses to convert an int of more than sys.get_int_max_str_digits()
# decimal digits to or from a string: 4300 by default, and no setting goes
# below 640, so int() takes SAFE_DIGITS digits under every setting.  These
# two helpers convert longer numbers in chunks, and leave the
# interpreter-wide setting alone.
SAFE_DIGITS = 600


def int_of(s: str) -> int:
    """The int of a string of decimal digits, of any length."""
    if len(s) <= SAFE_DIGITS:
        return int(s)
    k = len(s) // 2
    return int_of(s[:-k]) * 10**k + int_of(s[-k:])


def num_str(c) -> str:
    """str(c), for an int or a ``Fraction`` of any length as well."""
    try:
        return str(c)
    except ValueError:  # more digits than CPython converts at once
        if type(c) is Fraction:
            n, d = c.numerator, c.denominator
            return num_str(n) if d == 1 else f"{num_str(n)}/{num_str(d)}"
        if type(c) is not int:
            raise
    if c < 0:
        return "-" + num_str(-c)
    k = c.bit_length() * 3 // 20  # about half its decimal digits
    hi, lo = builtins.divmod(c, 10**k)
    return num_str(hi) + num_str(lo).rjust(k, "0")


def needs_parens(s: str) -> bool:
    """True when a coefficient string must be wrapped before '*var^k'."""
    body = s[1:] if s.startswith("-") else s
    return "/" in body or "+" in body or "-" in body or "*" in body or " " in body


def format_poly(coeffs, var: str, show=num_str) -> str:
    """Render a dense coefficient sequence (ascending exponent) as text.

    Zero coefficients are skipped; ``show`` gives the text of the others.
    Highest-degree term first, e.g. ``(2/3)*X^2 + 1``.
    """
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if not c:
            continue
        s = show(c)
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
