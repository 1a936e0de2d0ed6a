"""Pure-Python arithmetic kernel.

Rationals are reduced ``(numerator, denominator)`` int pairs with a positive
denominator; series payloads are sparse ``{key: rational}`` dicts with no
stored zeros, keyed by ``int`` exponents or by ``(eps, h)`` exponent pairs.
``s_add``, ``s_neg`` and ``s_scale`` work for any key; ``s_mul`` takes
``span``, which says how ``lift`` codes the keys (0 for ints, ``SPAN`` for
pairs).  Only the series layer calls these functions, through
``_backend.kernel``.

``s_mul``, the one series product, is three steps: ``lift`` writes a payload
as integer numerators over one denominator, keyed by int codes; ``convolve``
multiplies two lifted payloads with no gcd, up to ``limit``; ``reduce`` takes
one gcd per term.  ``add_lifted`` sums two lifted payloads, and ``cancel``
keeps a payload that stays lifted across many products small (zeros
dropped, one common gcd once its denominator outgrows a machine word).  The
steps never change their operands, so a lift cached on a series value
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


def s_mul(a, b, hi, span=0):
    """The product of two payloads, keys of degree above ``hi`` dropped:
    ``a`` lifted, ``b`` lifted and sorted, convolved and reduced."""
    tb, db = lift(b, span)
    tb.sort()
    return reduce(convolve(lift(a, span), (tb, db), limit(hi, span)), span)
