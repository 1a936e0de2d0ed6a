"""Gauge transformation on the x1-line: recursions and Bernoulli data.

The undeformed-powers normalization is achieved by conjugating the product
with a formal operator D = sum a_m eps^m d/dx1^m (a_0 = 1, even m).  This
module carries the one-variable model of the raw product (the even b_k
coefficients of x^{n-1} * x), the resulting c^n_k tables, the solver for the
a_k, and the Bernoulli-number series that appear in the products of the
exponential letters with x2 and x3.  Everything is exact rational
arithmetic.

The a_k straighten every power (two falling-factorial identities), so the
c^n_k table that checks them stops at n = ``TABLE_NMAX``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping

from .series import EpsSeries, RationalLike, as_pair

#: the c^n_k table that ``verify_gauge`` compares with stops at this n
TABLE_NMAX = 12


def _frac(x: RationalLike) -> Fraction:
    n, d = as_pair(x)
    return Fraction(n, d)


@dataclass(frozen=True)
class RawX1Model:
    """Even coefficients b_k of x^{n-1} * x = x^n + sum eps^k (n-1)!/(n-k)! b_k x^{n-k}.

    Only even k >= 2 may appear; b_2 plays the role of the constant in
    x1 * x1 = x1^2 + (const) eps^2.
    """

    b: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, v in self.b.items():
            if k < 2 or k % 2:
                raise ValueError(f"b keys must be even and >= 2, got {k}")
            v = _frac(v)
            if v:
                clean[k] = v
        object.__setattr__(self, "b", clean)

    def b_at(self, k: int) -> Fraction:
        return self.b.get(k, Fraction(0))


@dataclass(frozen=True)
class GaugeSolution:
    """Coefficients a_k of the gauge operator (a_0 = 1, even k only)."""

    a: Mapping[int, Fraction] = field(default_factory=lambda: {0: Fraction(1)})

    def __post_init__(self):
        clean = {}
        for k, v in self.a.items():
            if k % 2:
                raise ValueError(f"a keys must be even, got {k}")
            clean[k] = _frac(v)
        if clean.get(0) != 1:
            raise ValueError("a_0 must be 1")
        object.__setattr__(self, "a", clean)

    def a_at(self, k: int) -> Fraction:
        return self.a.get(k, Fraction(0))


def cnk_from_b(model: RawX1Model, nmax: int) -> Dict[tuple, Fraction]:
    """The nonzero c^n_k of x^{*n} = sum eps^k c^n_k x^{n-k} for n <= nmax,
    keyed by (n, k), from the b_k by the product recursion

    c^n_k = c^{n-1}_k + sum over even l <= k-2 of
            c^{n-1}_l (n-l-1)!/(n-k)! b_{k-l}

    starting from c^n_0 = 1.
    """
    table = {(n, 0): Fraction(1) for n in range(1, nmax + 1)}
    for n in range(2, nmax + 1):
        for k in range(2, n + 1, 2):
            acc = table.get((n - 1, k), 0)
            for l in range(0, k - 1, 2):
                bk = model.b_at(k - l)
                if bk:
                    acc += table.get((n - 1, l), 0) * Fraction(
                        math.factorial(n - l - 1), math.factorial(n - k)) * bk
            if acc:
                table[(n, k)] = acc
    return table


def solve_gauge(model: RawX1Model, kmax: int) -> GaugeSolution:
    """Solve a_k = (1/k) sum over even m in [2, k] of a_{k-m} b_m, a_0 = 1,
    for every even k up to kmax rounded up to even.

    The recursion carries no n-dependence; that the same a_k straighten
    every power is ``falling_factorial_identities_hold``.
    """
    a = {0: Fraction(1)}
    for k in range(2, kmax + 2, 2):
        acc = Fraction(0)
        for m in range(2, k + 1, 2):
            bm = model.b_at(m)
            if bm:
                acc += a[k - m] * bm
        a[k] = acc / k
    return GaugeSolution(a)


def verify_gauge(model: RawX1Model, solution: GaugeSolution) -> bool:
    """Check c^n_k == a_k * n!/(n-k)! for n <= ``TABLE_NMAX`` and every even
    k <= n up to the largest k the solution holds."""
    table = cnk_from_b(model, TABLE_NMAX)
    for n in range(1, TABLE_NMAX + 1):
        for k in range(0, min(n, max(solution.a)) + 1, 2):
            expect = solution.a_at(k) * Fraction(
                math.factorial(n), math.factorial(n - k))
            if table.get((n, k), 0) != expect:
                return False
    return True


def falling_factorial(start: int, count: int) -> list:
    """(n - start)!/(n - start - count)! as a polynomial in n: its integer
    coefficients, constant term first."""
    poly = [1]
    for j in range(start, start + count):  # times (n - j)
        poly = [p - j * q for p, q in zip([0] + poly, poly + [0])]
    return poly


def falling_factorial_identities_hold(kmax: int) -> bool:
    """For every even k <= kmax, as polynomials in n: n!/(n-k)! -
    (n-1)!/(n-1-k)! = k (n-1)!/(n-k)!, and (n-1)!/(n-1-l)! (n-l-1)!/(n-k)! =
    (n-1)!/(n-k)! for even l <= k-2.  By them the c^n_k recursion at
    c^n_k = a_k n!/(n-k)! is k a_k = sum a_l b_{k-l} for every n."""
    for k in range(2, kmax + 1, 2):
        shared = falling_factorial(1, k - 1)
        diff = [p - q for p, q in zip(falling_factorial(0, k),
                                      falling_factorial(1, k))]
        if diff != [k * p for p in shared] + [0]:  # the n^k terms cancel
            return False
        for l in range(0, k - 1, 2):
            left = falling_factorial(1, l)
            right = falling_factorial(l + 1, k - l - 1)
            if [sum(p * right[d - i] for i, p in enumerate(left)
                    if 0 <= d - i < len(right))
                    for d in range(len(left) + len(right) - 1)] != shared:
                return False
    return True


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (generating function x/(e^x - 1)).

    Memoized; safe for concurrent readers (worst case a value is recomputed).
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def bernoulli_hat(n: int) -> Fraction:
    """Sign-flipped Bernoulli number (-1)^n B_n (so the n = 1 value is +1/2)."""
    b = bernoulli(n)
    return -b if n % 2 else b


def bernoulli_identity_check(nmax: int) -> bool:
    """Alternating-binomial fixed point: sum_k (-1)^k C(n,k) Bhat_k == Bhat_n."""
    for n in range(0, nmax + 1):
        acc = Fraction(0)
        for k in range(0, n + 1):
            term = math.comb(n, k) * bernoulli_hat(k)
            acc += -term if k % 2 else term
        if acc != bernoulli_hat(n):
            return False
    return True


def c_series(sign: int, order: int) -> EpsSeries:
    """The scalar series sum_k (sign 2 eps)^k / k! * Bhat_k.

    This is the coefficient relating e^{+-x1} * x2 to x2 * e^{+-x1} before
    the commutation relation is folded into exponential form; its closed
    form is 2 eps / (1 - exp(-2 sign eps)).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    terms = {}
    for k in range(0, order + 1):
        coeff = Fraction((2 * sign) ** k, math.factorial(k)) * bernoulli_hat(k)
        if coeff:
            terms[k] = coeff
    return EpsSeries(terms, order)
