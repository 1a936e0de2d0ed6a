"""The rational arithmetic kernel against ``fractions.Fraction``."""

import random
from fractions import Fraction

import pytest

from sl2star import _kernel_py as kernel


def random_pair(rng, nonzero=False):
    n = rng.randrange(-40, 41)
    if nonzero and n == 0:
        n = 1
    q = Fraction(n, rng.randrange(1, 30))
    return (q.numerator, q.denominator)


def random_payload(rng, lo=-2, hi=10):
    """A series payload: distinct exponents, no stored zeros."""
    exponents = rng.sample(range(lo, hi + 1), rng.randrange(0, 6))
    return {e: random_pair(rng, nonzero=True) for e in exponents}


def fraction_product(a, b, hi):
    """Cauchy product of two payloads in Fractions, truncated above hi."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= hi:
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
        assert Fraction(*kernel.qneg(a)) == -fa
        if fb:
            assert Fraction(*kernel.qdiv(a, b)) == fa / fb


@pytest.mark.parametrize("hi", [4, 8, 12])
def test_s_mul_matches_fraction_cauchy_product(hi):
    """Pairs are compared exactly, so every product must also come out
    reduced and with no stored zeros."""
    # (1 + eps)(1 - eps) = 1 - eps^2: the eps terms cancel
    assert kernel.s_mul({0: (1, 1), 1: (1, 1)}, {0: (1, 1), 1: (-1, 1)},
                        hi) == {0: (1, 1), 2: (-1, 1)}
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_payload(rng), random_payload(rng)
        assert kernel.s_mul(a, b, hi) == fraction_product(a, b, hi)
