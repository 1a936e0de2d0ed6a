"""Pure-Python arithmetic kernel.

Rationals are reduced ``(numerator, denominator)`` int pairs with a positive
denominator; series payloads are sparse ``{exponent: rational}`` dicts with no
stored zeros.  ``s_add``, ``s_sub``, ``s_neg`` and ``s_scale`` work for any
exponent key; ``s_mul`` and ``s_eps_flip`` take ``int`` exponents and
``s_mul_total`` takes ``(eps, h)`` exponent pairs.  Callers reach these
functions through ``_backend.kernel``.
"""

from __future__ import annotations

from math import gcd


def qnorm(n, d):
    """Reduce n/d to lowest terms with positive denominator."""
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if n == 0:
        return (0, 1)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return (n, d)


def qadd(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return qnorm(an + bn, ad)
    return qnorm(an * bd + bn * ad, ad * bd)


def qsub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return qnorm(an - bn, ad)
    return qnorm(an * bd - bn * ad, ad * bd)


def qmul(a, b):
    an, ad = a
    bn, bd = b
    if an == 0 or bn == 0:
        return (0, 1)
    # cross-cancel before multiplying to keep the bignums small
    g1 = gcd(an if an > 0 else -an, bd)
    g2 = gcd(bn if bn > 0 else -bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


def qdiv(a, b):
    bn, bd = b
    if bn == 0:
        raise ZeroDivisionError("rational division by zero")
    if bn < 0:
        return qmul(a, (-bd, -bn))
    return qmul(a, (bd, bn))


def s_add(a, b):
    out = dict(a)
    for e, q in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = q
        else:
            s = qadd(cur, q)
            if s[0] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def s_sub(a, b):
    out = dict(a)
    for e, q in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = (-q[0], q[1])
        else:
            s = qsub(cur, q)
            if s[0] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def s_neg(a):
    return {e: (-n, d) for e, (n, d) in a.items()}


def s_scale(a, q):
    if q[0] == 0:
        return {}
    return {e: qmul(c, q) for e, c in a.items()}


def s_mul(a, b, hi):
    """Cauchy product of two exponent dicts, dropping exponents above hi."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e > hi:
                continue
            p = qmul(ca, cb)
            cur = out.get(e)
            if cur is None:
                out[e] = p
            else:
                s = qadd(cur, p)
                if s[0] == 0:
                    del out[e]
                else:
                    out[e] = s
    return out


def s_mul_total(a, b, hi):
    """Product of two {(i, j): rational} dicts, dropping total degree i + j
    above hi."""
    out = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            i = ia + ib
            j = ja + jb
            if i + j > hi:
                continue
            p = qmul(ca, cb)
            key = (i, j)
            cur = out.get(key)
            if cur is None:
                out[key] = p
            else:
                s = qadd(cur, p)
                if s[0] == 0:
                    del out[key]
                else:
                    out[key] = s
    return out


def s_eps_flip(a):
    """Substitute eps -> -eps: negate coefficients at odd exponents."""
    return {e: ((-n, d) if e & 1 else (n, d)) for e, (n, d) in a.items()}

