"""Pure-Python arithmetic kernel.

Rationals are reduced ``(numerator, denominator)`` int pairs with a positive
denominator; series payloads are sparse ``{exponent: rational}`` dicts with no
stored zeros.  ``s_add``, ``s_sub``, ``s_neg`` and ``s_scale`` work for any
exponent key; ``s_mul`` and ``s_eps_flip`` take ``int`` exponents and
``s_mul_total`` takes ``(eps, h)`` exponent pairs.  Only the series layer
calls these functions, through ``_backend.kernel``.

A series product is three steps: ``lift`` writes a payload as integer
numerators over one denominator, keyed by int codes; ``convolve`` multiplies
two lifted payloads with no gcd, up to ``limit``; ``reduce`` takes one gcd per
term.  ``add_lifted`` sums two lifted payloads, and ``cancel`` keeps a
payload that stays lifted across many products small (zeros dropped, one
common gcd once its denominator outgrows a machine word).  A single term on
a side just shifts the other side, cross-cancelled as in ``qmul``.  The steps
never change their operands, so a lift cached on a series value
(``_Series.lifted``) can be passed to any of them.
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


#: an (i, j) key is coded as (i + j) * SPAN + i (eps exponents stay below
#: SPAN): codes add as keys do, and floor division by SPAN reads the degree
SPAN = 1 << 20


def limit(hi, span=0):
    """The largest code of degree ``hi``; ``span`` is 0 (int keys) or SPAN."""
    return hi * span + span - 1 if span else hi


def lift(a, span=0):
    """Step 1: the payload ``a`` as ``(code, numerator)`` pairs over den, the
    lcm of its denominators."""
    den = lcm(*[d for _, d in a.values()])
    if span:
        return [((i + j) * span + i, n * (den // d))
                for (i, j), (n, d) in a.items()], den
    return [(e, n * (den // d)) for e, (n, d) in a.items()], den


def convolve(a, b, lim):
    """Step 2: the product of lifted payloads, no gcd, codes above ``lim``
    dropped; ``b``'s terms ascend by code, ``a``'s come in any order."""
    (ta, da), (tb, db) = a, b
    if len(ta) == 1:
        ta, tb = tb, ta
    if len(tb) == 1:  # no two products share a code
        ((eb, xb),) = tb
        lim -= eb
        return [(ea + eb, xa * xb) for ea, xa in ta if ea <= lim], da * db
    acc = {}
    get = acc.get
    for ea, xa in ta:
        room = lim - ea
        for eb, xb in tb:
            if eb > room:
                break
            e = ea + eb
            acc[e] = get(e, 0) + xa * xb
    return acc.items(), da * db


def add_lifted(a, b):
    """The sum of two lifted payloads, over the lcm of their denominators."""
    (ta, da), (tb, db) = a, b
    g = gcd(da, db)
    out = {e: x * (db // g) for e, x in ta}
    for e, x in tb:
        out[e] = out.get(e, 0) + x * (da // g)
    return out.items(), da // g * db


#: a lifted denominator below this (one machine word) is carried as it is:
#: its gcd would cost more than its growth
CANCEL_ABOVE = 1 << 64


def cancel(p):
    """The lifted ``p`` with its zero numerators dropped and, once its
    denominator reaches ``CANCEL_ABOVE``, the gcd of its numerators and
    denominator divided out: one gcd over the terms, not one per term."""
    terms, den = p
    terms = [t for t in terms if t[1]]
    if den < CANCEL_ABOVE:
        return terms, den
    g = gcd(den, *[x for _, x in terms])
    if g == 1:
        return terms, den
    return [(e, x // g) for e, x in terms], den // g


def reduce(p, span=0):
    """Step 3: the lifted ``p`` as a payload, each nonzero numerator reduced
    once against the denominator and each code turned back into its key."""
    terms, den = p
    out = {}
    for e, n in terms:
        if n:
            g = gcd(n, den)
            if span:
                e = e % span, e // span - e % span
            out[e] = n // g, den // g
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
    lb = lift(b)
    lb[0].sort()
    return reduce(convolve(lift(a), lb, hi))


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
    lb = lift(b, SPAN)
    lb[0].sort()
    return reduce(convolve(lift(a, SPAN), lb, limit(hi, SPAN)), SPAN)


def s_eps_flip(a):
    """Substitute eps -> -eps: negate coefficients at odd exponents."""
    return {e: ((-n, d) if e & 1 else (n, d)) for e, (n, d) in a.items()}

