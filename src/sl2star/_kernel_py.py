"""Pure-Python arithmetic kernel.

Rationals are reduced ``(numerator, denominator)`` int pairs with a positive
denominator; series payloads are sparse ``{exponent: rational}`` dicts with no
stored zeros.  ``s_add``, ``s_sub``, ``s_neg`` and ``s_scale`` work for any
exponent key; ``s_mul`` and ``s_eps_flip`` take ``int`` exponents and
``s_mul_total`` takes ``(eps, h)`` exponent pairs.  Callers reach these
functions through ``_backend.kernel``.

The two series products convolve integers: each operand is written as
integer numerators over one common denominator, the lcm of its
denominators, the numerator products are summed per output exponent with no
gcd, and each output coefficient is reduced once against the product of the
two denominators.  When one operand is a single term no two products share
an exponent, so the other operand's exponents are shifted and each of its
coefficients is multiplied by that term's in one pass, cross-cancelled as in
``qmul`` (a coefficient of 1 only shifts).
"""

from __future__ import annotations

from math import gcd, lcm


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


def _over_common_denominator(a):
    """The terms of a payload as ``(exponent, numerator)`` pairs over the lcm
    of its denominators, and that lcm."""
    den = lcm(*[d for _, d in a.values()])
    return [(e, n * (den // d)) for e, (n, d) in a.items()], den


def _reduce_over(acc, den):
    """Reduce each nonzero ``acc[e] / den`` once; drop the zeros."""
    out = {}
    for e, n in acc.items():
        if n:
            g = gcd(n, den)
            out[e] = (n // g, den // g)
    return out


def s_mul(a, b, hi):
    """Cauchy product of two exponent dicts, dropping exponents above hi."""
    if len(a) < 2 or len(b) < 2:
        # with a single term on one side no two products share an exponent
        if len(b) > 1:
            a, b = b, a
        if not b:
            return {}
        ((eb, (n, d)),) = b.items()
        lim = hi - eb
        if n == d:  # a reduced pair: the coefficient is 1
            return {ea + eb: ca for ea, ca in a.items() if ea <= lim}
        out = {}
        for ea, (an, ad) in a.items():
            if ea <= lim:
                g1 = gcd(n, ad)
                g2 = gcd(an, d)
                out[ea + eb] = (n // g1) * (an // g2), (d // g2) * (ad // g1)
        return out
    na, da = _over_common_denominator(a)
    nb, db = _over_common_denominator(b)
    acc = {}
    for ea, xa in na:
        for eb, xb in nb:
            e = ea + eb
            if e <= hi:
                acc[e] = acc.get(e, 0) + xa * xb
    return _reduce_over(acc, da * db)


def s_mul_total(a, b, hi):
    """Product of two {(i, j): rational} dicts, dropping total degree i + j
    above hi."""
    if len(a) < 2 or len(b) < 2:
        if len(b) > 1:
            a, b = b, a
        if not b:
            return {}
        (((ib, jb), (n, d)),) = b.items()
        lim = hi - ib - jb
        if n == d:  # a reduced pair: the coefficient is 1
            return {(ia + ib, ja + jb): ca for (ia, ja), ca in a.items()
                    if ia + ja <= lim}
        out = {}
        for (ia, ja), (an, ad) in a.items():
            if ia + ja <= lim:
                g1 = gcd(n, ad)
                g2 = gcd(an, d)
                out[ia + ib, ja + jb] = ((n // g1) * (an // g2),
                                         (d // g2) * (ad // g1))
        return out
    na, da = _over_common_denominator(a)
    nb, db = _over_common_denominator(b)
    acc = {}
    for (ia, ja), xa in na:
        for (ib, jb), xb in nb:
            i = ia + ib
            j = ja + jb
            if i + j <= hi:
                key = (i, j)
                acc[key] = acc.get(key, 0) + xa * xb
    return _reduce_over(acc, da * db)


def s_eps_flip(a):
    """Substitute eps -> -eps: negate coefficients at odd exponents."""
    return {e: ((-n, d) if e & 1 else (n, d)) for e, (n, d) in a.items()}

