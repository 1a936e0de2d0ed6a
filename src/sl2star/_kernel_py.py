"""Pure-Python arithmetic kernel.

Rationals are reduced ``(numerator, denominator)`` int pairs with a positive
denominator; series payloads are sparse ``{key: rational}`` dicts with no
stored zeros, keyed by ``int`` exponents or by ``(eps, h)`` exponent pairs.
``limit``, ``lift``, ``reduce``, ``s_add`` and ``s_mul`` take ``span``,
which says how ``lift`` codes the keys (0 for ints, ``SPAN`` for pairs).
Only the series layer calls these functions, through ``_backend.kernel``.

There is one rational arithmetic, in three steps: ``lift`` writes a payload
as integer numerators over one denominator, keyed by int codes; one lifted
step combines lifted payloads with no gcd, ``convolve`` a product up to
``limit`` and ``add_lifted`` a sum; ``reduce`` takes one gcd per term.  The
one series product ``s_mul`` and the one series sum ``s_add`` are those
three steps; ``qnorm`` reduces a single rational.  ``cancel`` keeps a
payload that stays lifted across many products small (zeros dropped, one
common gcd once its denominator outgrows a machine word).  The steps never
change their operands, so a lift cached on a series value
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


def s_add(a, b, span=0):
    """The sum of two payloads: both lifted, added and reduced."""
    return reduce(add_lifted(lift(a, span), lift(b, span)), span)
