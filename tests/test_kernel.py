"""The rational arithmetic kernel against ``fractions.Fraction``."""

import math
import random
from fractions import Fraction

import pytest

from sl2star import _kernel_py as kernel
from sl2star.series import BiSeries, EpsSeries

SPAN = kernel.SPAN


#: the denominators exp and sinh series bring: factorials and powers of two
SERIES_DENOMINATORS = ([math.factorial(k) for k in range(2, 10)]
                       + [2 ** k for k in range(1, 12)])


def random_pair(rng, nonzero=False):
    n = rng.randrange(-40, 41)
    if nonzero and n == 0:
        n = 1
    if rng.random() < 0.5:
        d = rng.choice(SERIES_DENOMINATORS)
    else:
        d = rng.randrange(1, 30)
    q = Fraction(n, d)
    return (q.numerator, q.denominator)


def random_payload(rng, keys):
    """A series payload on 0 to 9 of ``keys``, no stored zeros.  The empty
    payload and a single term are drawn as often as each larger size."""
    size = rng.randrange(0, 10)
    return {k: random_pair(rng, nonzero=True) for k in rng.sample(keys, size)}


def fraction_product(a, b, hi, add=lambda x, y: x + y, degree=lambda e: e):
    """Product of two payloads in Fractions, dropping keys of degree above
    hi."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = add(ea, eb)
            if degree(e) <= hi:
                out[e] = out.get(e, 0) + Fraction(*ca) * Fraction(*cb)
    return {e: (c.numerator, c.denominator) for e, c in out.items() if c}


def test_qnorm_invariants():
    assert kernel.qnorm(2, -4) == (-1, 2)
    assert kernel.qnorm(0, 5) == (0, 1)
    assert kernel.qnorm(6, 3) == (2, 1)
    with pytest.raises(ZeroDivisionError):
        kernel.qnorm(1, 0)


def as_terms(key, q):
    """The terms of the one-term series q * key: reduced, no zero kept."""
    return {key: (q.numerator, q.denominator)} if q else {}


def test_rational_ops_match_fraction():
    """``qnorm``, and the arithmetic of one-term series of both key types
    (a constant, and an h^-1 monomial, coded through SPAN)."""
    types = [(EpsSeries, 0, 0, 0), (BiSeries, (0, -1), (0, -2), (0, 1))]
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_pair(rng), random_pair(rng)
        fa, fb = Fraction(*a), Fraction(*b)
        k = rng.randrange(1, 6)
        assert kernel.qnorm(a[0] * k, -a[1] * k) == (-fa).as_integer_ratio()
        for cls, key, square, inverse in types:
            x, y = cls({key: a}, 4), cls({key: b}, 4)
            assert (x + y).terms == as_terms(key, fa + fb)
            assert (x - y).terms == as_terms(key, fa - fb)
            assert (-x).terms == as_terms(key, -fa)
            assert (x * fb).terms == (fb * x).terms == as_terms(key, fa * fb)
            assert (x * y).terms == as_terms(square, fa * fb)
            if fb:
                assert y.invert().terms == as_terms(inverse, 1 / fb)


def fraction_sum(a, b):
    out = {}
    for p in (a, b):
        for e, q in p.items():
            out[e] = out.get(e, 0) + Fraction(*q)
    return {e: (c.numerator, c.denominator) for e, c in out.items() if c}


@pytest.mark.parametrize("span", [0, SPAN], ids=["int", "pair"])
def test_s_add_matches_fraction_sum(span):
    """Int keys down to eps^-3, and (i, j) keys with h down to h^-3, against
    the sum in Fractions: overlaps that cancel to zero are dropped, and an
    empty operand leaves the other as it is."""
    if span:
        keys = [(i, j) for i in range(0, 6) for j in range(-3, 6)]
        # (eps h^-1 + h^-2) + (-eps h^-1 + h^-2 / 2) = 3/2 h^-2
        assert kernel.s_add({(1, -1): (1, 1), (0, -2): (1, 1)},
                            {(1, -1): (-1, 1), (0, -2): (1, 2)},
                            span) == {(0, -2): (3, 2)}
    else:
        keys = list(range(-3, 11))
        assert kernel.s_add({-1: (1, 3), 2: (1, 2)},
                            {-1: (-1, 3), 2: (1, 2)}) == {2: (1, 1)}
    rng = random.Random(19 + bool(span))
    cancelled = 0
    for _ in range(300):
        a, b = random_payload(rng, keys), random_payload(rng, keys)
        if rng.random() < 0.3:  # b takes away some of a's terms
            b.update((e, (-n, d)) for e, (n, d) in a.items()
                     if rng.random() < 0.7)
        expected = fraction_sum(a, b)
        cancelled += len(a.keys() & b.keys()) - len(a.keys() & b.keys()
                                                    & expected.keys())
        assert kernel.s_add(a, b, span) == kernel.s_add(b, a, span) == expected
        assert kernel.s_add(a, {}, span) == kernel.s_add({}, a, span) == a
    assert kernel.s_add({}, {}, span) == {}
    assert cancelled > 50


@pytest.mark.parametrize("hi", [4, 8, 12])
def test_s_mul_matches_fraction_cauchy_product(hi):
    """Pairs are compared exactly, so every product must also come out
    reduced and with no stored zeros."""
    # (1 + eps)(1 - eps) = 1 - eps^2: the eps terms cancel
    assert kernel.s_mul({0: (1, 1), 1: (1, 1)}, {0: (1, 1), 1: (-1, 1)},
                        hi) == {0: (1, 1), 2: (-1, 1)}
    # every product lands above hi
    assert kernel.s_mul({hi: (1, 2), hi + 1: (1, 6)}, {1: (3, 1), 2: (-1, 4)},
                        hi) == {}
    # a single term on either side: negative numerators, cross-cancelling
    # denominators, a unit and an integer coefficient, all products above hi
    single_term_cases = [
        ({2: (-4, 9)}, {0: (3, 8), 1: (-9, 2), 3: (5, 7)}),
        ({1: (-3, 10)}, {-1: (-5, 6), 0: (20, 9), 2: (1, 1)}),
        ({0: (1, 1)}, {0: (-7, 4), hi: (2, 3), hi + 1: (1, 5)}),
        ({1: (6, 1)}, {0: (-1, 4), 1: (5, 9), 2: (7, 1)}),
        ({-1: (-1, 1)}, {1: (1, 3)}),
        ({hi: (2, 3)}, {1: (3, 2), 2: (-1, 4)}),
    ]
    assert kernel.s_mul({2: (-4, 9)}, {0: (3, 8)}, hi) == {2: (-1, 6)}
    for single, other in single_term_cases:
        expected = fraction_product(single, other, hi)
        assert kernel.s_mul(single, other, hi) == expected
        assert kernel.s_mul(other, single, hi) == expected
    assert kernel.s_mul({hi: (2, 3)}, {1: (3, 2), 2: (-1, 4)}, hi) == {}
    rng = random.Random(11)
    keys = list(range(-2, 11))
    sizes = set()
    for _ in range(300):
        a, b = random_payload(rng, keys), random_payload(rng, keys)
        sizes.update((len(a), len(b)))
        assert kernel.s_mul(a, b, hi) == fraction_product(a, b, hi)
        # a(eps) a(-eps) is even: every odd coefficient cancels.  ``a`` is
        # wrapped as it is, since the constructor refuses negative keys
        flipped = EpsSeries.zero(hi)._wrap(a).eps_flip().terms
        even = kernel.s_mul(a, flipped, hi)
        assert even == fraction_product(a, flipped, hi)
        assert all(e % 2 == 0 for e in even)
    assert sizes == set(range(10))


@pytest.mark.parametrize("hi", [2, 5, 8])
def test_s_mul_total_matches_fraction_product(hi):
    """Keys are (eps, h) exponents with h down to -2; the product keeps the
    keys of total degree at most hi; ``s_mul`` reads them through SPAN."""
    # (eps + h)(eps - h) = eps^2 - h^2: the eps h terms cancel
    assert kernel.s_mul({(1, 0): (1, 1), (0, 1): (1, 1)},
                        {(1, 0): (1, 1), (0, 1): (-1, 1)},
                        hi, SPAN) == {(2, 0): (1, 1), (0, 2): (-1, 1)}
    # the window is on i + j: an h^-1 keeps eps^(hi+1) inside it
    assert kernel.s_mul({(hi, 0): (1, 3), (0, 0): (1, 1)},
                        {(1, -1): (3, 2), (1, 0): (1, 5)},
                        hi, SPAN) == {(hi + 1, -1): (1, 2), (1, -1): (3, 2),
                                      (1, 0): (1, 5)}
    # a single term on either side, as for int keys
    single_term_cases = [
        ({(1, 1): (-4, 9)}, {(0, 0): (3, 8), (1, -1): (-9, 2), (0, 2): (5, 7)}),
        ({(0, -1): (-3, 10)}, {(0, 0): (-5, 6), (2, 0): (20, 9)}),
        ({(0, 0): (1, 1)}, {(1, -2): (-7, 4), (hi, 0): (2, 3), (hi, 1): (1, 5)}),
        ({(1, 0): (6, 1)}, {(0, 0): (-1, 4), (0, 1): (5, 9), (1, 1): (7, 1)}),
        ({(0, hi): (2, 3)}, {(1, 0): (3, 2), (0, 2): (-1, 4)}),
    ]

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    for single, other in single_term_cases:
        expected = fraction_product(single, other, hi, add=add, degree=sum)
        assert kernel.s_mul(single, other, hi, SPAN) == expected
        assert kernel.s_mul(other, single, hi, SPAN) == expected
    assert kernel.s_mul({(0, hi): (2, 3)}, {(1, 0): (3, 2), (0, 2): (-1, 4)},
                        hi, SPAN) == {}
    rng = random.Random(13)
    keys = [(i, j) for i in range(0, 7) for j in range(-2, 7)]
    sizes = set()
    for _ in range(300):
        a, b = random_payload(rng, keys), random_payload(rng, keys)
        sizes.update((len(a), len(b)))
        assert kernel.s_mul(a, b, hi, SPAN) == fraction_product(
            a, b, hi, add=add, degree=sum)
    assert sizes == set(range(10))



# -- the three steps of a product: lift, convolve, reduce --------------------

def total_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def lifted(a, span=0):
    """``lift``, with the terms in ascending code as ``convolve`` wants its
    second operand."""
    terms, den = kernel.lift(a, span)
    return sorted(terms), den


def fused_product(a, b, hi, span=0):
    lim = kernel.limit(hi, span)
    return kernel.reduce(kernel.convolve(kernel.lift(a, span), lifted(b, span),
                                         lim), span)


def test_lift_writes_numerators_over_the_lcm():
    terms, den = kernel.lift({-2: (1, 6), 0: (-3, 4), 5: (2, 1)})
    assert den == 12
    assert sorted(terms) == [(-2, 2), (0, -9), (5, 24)]
    # an (i, j) key is coded so that floor division by SPAN reads its degree
    terms, den = kernel.lift({(3, -2): (5, 2), (0, 2): (1, 3)}, kernel.SPAN)
    assert den == 6
    assert sorted((code // kernel.SPAN, n) for code, n in terms) == [
        (1, 15), (2, 2)]
    assert kernel.reduce((terms, den), kernel.SPAN) == {(3, -2): (5, 2),
                                                        (0, 2): (1, 3)}


@pytest.mark.parametrize("span", [0, kernel.SPAN])
def test_three_steps_match_fraction_product(span):
    """Int keys down to eps^-2, and (i, j) keys with h down to h^-2, against
    the term-by-term product in Fractions."""
    if span:
        keys = [(i, j) for i in range(0, 6) for j in range(-2, 6)]
        add, degree = total_add, sum
    else:
        keys = list(range(-2, 11))
        add, degree = (lambda x, y: x + y), (lambda e: e)
    rng = random.Random(17 + bool(span))
    for hi in (2, 5, 8):
        for _ in range(150):
            a, b = random_payload(rng, keys), random_payload(rng, keys)
            if a and b:
                expected = fraction_product(a, b, hi, add=add, degree=degree)
                assert fused_product(a, b, hi, span) == expected
                assert kernel.s_mul(a, b, hi, span) == expected


def test_three_steps_edge_cases():
    # wholly above hi: every product is dropped, in both key types
    assert fused_product({4: (1, 2), 5: (1, 6)}, {3: (3, 1), 4: (-1, 4)},
                         6) == {}
    assert fused_product({(4, 0): (1, 2), (6, -1): (1, 6)},
                         {(3, 1): (3, 1), (5, -1): (-1, 4)}, 7,
                         kernel.SPAN) == {}
    # (1 + h^-1)(1 - h^-1) = 1 - h^-2: the h^-1 sum cancels to zero and is
    # dropped, and the h^-2 term is kept although i + j < 0
    assert fused_product({(0, 0): (1, 1), (0, -1): (1, 1)},
                         {(0, 0): (1, 1), (0, -1): (-1, 1)}, 3,
                         kernel.SPAN) == {(0, 0): (1, 1), (0, -2): (-1, 1)}
    # convolve leaves the zero in place; reduce drops it
    lifted_sum = kernel.convolve(kernel.lift({0: (1, 1), 1: (1, 1)}),
                                 lifted({0: (1, 1), 1: (-1, 1)}), 4)
    assert dict(lifted_sum[0]) == {0: 1, 1: 0, 2: -1}
    assert kernel.reduce(lifted_sum) == {0: (1, 1), 2: (-1, 1)}
    # one gcd per term at the end: (1/2 + x/3)(1/3 + x/2) over 36
    p = kernel.convolve(kernel.lift({0: (1, 2), 1: (1, 3)}),
                        lifted({0: (1, 3), 1: (1, 2)}), 8)
    assert p[1] == 36
    assert kernel.reduce(p) == {0: (1, 6), 1: (13, 36), 2: (1, 6)}


def test_cancel_keeps_a_long_product_small():
    """Zeros are dropped at any denominator; a denominator of a machine
    word is kept as it is, and a larger one loses the common factor, which
    leaves the lift of the reduced payload."""
    assert kernel.cancel(([(0, 6), (1, 0), (2, -4)], 10)) == (
        [(0, 6), (2, -4)], 10)
    assert kernel.cancel(([(1, 0)], 3)) == ([], 3)
    # (1 + x/3)^k over 3^k, truncated at x^2: the denominator outgrows a
    # word at k = 41, and cancelling leaves 9, the lcm of the reduced terms
    p = kernel.lift({0: (1, 1), 1: (1, 3)})
    step = lifted({0: (1, 1), 1: (1, 3)})
    dens = {1: 3}
    for k in range(2, 60):
        p = kernel.cancel(kernel.convolve(p, step, 2))
        dens[k] = p[1]
        want = {0: 1, 1: Fraction(k, 3), 2: Fraction(k * (k - 1), 18)}
        assert {e: Fraction(*q) for e, q in kernel.reduce(p).items()} == want
    assert dens[40] == 3 ** 40 < kernel.CANCEL_ABOVE <= 3 ** 41
    assert dens[41] == 9 and dens[59] == 3 ** 20
    assert max(dens.values()) < kernel.CANCEL_ABOVE


@pytest.mark.parametrize("total", [False, True], ids=["eps", "bi"])
def test_product_sums_align_denominators(total):
    """Several products at one key, over different denominators, against
    Fraction sums; a sum equal to 1 is the ring's ``one`` itself."""
    from sl2star.series import BiSeriesRing, EpsSeriesRing, ProductSums
    hi = 6
    ring = BiSeriesRing(hi) if total else EpsSeriesRing(hi)
    if total:
        keys = [(i, j) for i in range(0, 4) for j in range(-1, 4)]
        add, degree = total_add, sum
    else:
        keys = list(range(0, 10))  # those above hi are dropped on building
        add, degree = (lambda x, y: x + y), (lambda e: e)
    rng = random.Random(29 + total)

    def scalar():
        return ring.series(random_payload(rng, keys), hi)

    seen_dens = set()
    for _ in range(60):
        sums = ProductSums(ring)
        expected = {}
        for key in range(3):
            for _ in range(rng.randrange(1, 5)):
                a, b, c = scalar(), scalar(), scalar()
                if rng.random() < 0.5:  # a scalar times a scalar
                    sums.add(key, a, b)
                    product = fraction_product(a.terms, b.terms, hi, add,
                                               degree)
                else:  # a lifted product of three; times takes either form
                    sums.add(key, sums.times(a if key else a.lifted(), b), c)
                    product = fraction_product(
                        fraction_product(a.terms, b.terms, hi, add, degree),
                        c.terms, hi, add, degree)
                seen_dens.add(max((d for _, d in product.values()), default=1))
                acc = expected.setdefault(key, {})
                for e, q in product.items():
                    acc[e] = acc.get(e, 0) + Fraction(*q)
        got = sums.coefficients()
        for key, acc in expected.items():
            want = {e: (q.numerator, q.denominator) for e, q in acc.items() if q}
            assert (got[key].terms if key in got else {}) == want
        sums = ProductSums(ring)
        sums.add("unit", ring.constant(Fraction(1, 3)), ring.constant(3))
        sums.add("two", ring.constant(Fraction(1, 2)), ring.constant(2))
        sums.add("two", ring.constant(Fraction(1, 3)), ring.constant(3))
        got = sums.coefficients()
        assert got["unit"] is ring.one and got["two"] == 2
    assert len(seen_dens) > 5
