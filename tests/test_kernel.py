"""The rational arithmetic kernel against ``fractions.Fraction``."""

import math
import random
from fractions import Fraction

import pytest

from sl2star import _kernel_py as kernel


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


def test_rational_ops_match_fraction():
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_pair(rng), random_pair(rng)
        fa, fb = Fraction(*a), Fraction(*b)
        assert Fraction(*kernel.qadd(a, b)) == fa + fb
        assert Fraction(*kernel.qsub(a, b)) == fa - fb
        assert Fraction(*kernel.qmul(a, b)) == fa * fb
        if fb:
            assert Fraction(*kernel.qdiv(a, b)) == fa / fb


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
        # a(eps) a(-eps) is even: every odd coefficient cancels
        flipped = kernel.s_eps_flip(a)
        even = kernel.s_mul(a, flipped, hi)
        assert even == fraction_product(a, flipped, hi)
        assert all(e % 2 == 0 for e in even)
    assert sizes == set(range(10))


@pytest.mark.parametrize("hi", [2, 5, 8])
def test_s_mul_total_matches_fraction_product(hi):
    """Keys are (eps, h) exponents with h down to -2; the product keeps the
    keys of total degree at most hi."""
    # (eps + h)(eps - h) = eps^2 - h^2: the eps h terms cancel
    assert kernel.s_mul_total({(1, 0): (1, 1), (0, 1): (1, 1)},
                              {(1, 0): (1, 1), (0, 1): (-1, 1)},
                              hi) == {(2, 0): (1, 1), (0, 2): (-1, 1)}
    # the window is on i + j: an h^-1 keeps eps^(hi+1) inside it
    assert kernel.s_mul_total({(hi, 0): (1, 3), (0, 0): (1, 1)},
                              {(1, -1): (3, 2), (1, 0): (1, 5)},
                              hi) == {(hi + 1, -1): (1, 2), (1, -1): (3, 2),
                                      (1, 0): (1, 5)}
    # a single term on either side, as for s_mul
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
        assert kernel.s_mul_total(single, other, hi) == expected
        assert kernel.s_mul_total(other, single, hi) == expected
    assert kernel.s_mul_total({(0, hi): (2, 3)}, {(1, 0): (3, 2), (0, 2): (-1, 4)},
                              hi) == {}
    rng = random.Random(13)
    keys = [(i, j) for i in range(0, 7) for j in range(-2, 7)]
    sizes = set()
    for _ in range(300):
        a, b = random_payload(rng, keys), random_payload(rng, keys)
        sizes.update((len(a), len(b)))
        assert kernel.s_mul_total(a, b, hi) == fraction_product(
            a, b, hi, add=add, degree=sum)
    assert sizes == set(range(10))
