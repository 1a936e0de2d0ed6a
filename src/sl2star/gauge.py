"""Gauge transformation on the x1-line: recursions, Bernoulli data, transforms.

The undeformed-powers normalization is achieved by conjugating the product
with a formal operator D = sum a_m eps^m d/dx1^m (a_0 = 1, even m).  This
module carries the one-variable model of the raw product (the even b_k
coefficients of x^{n-1} * x), the resulting c^n_k tables, the solver for the
a_k, and the Bernoulli-number series that appear in the products of the
exponential letters with x2 and x3.  Everything is exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping

from .series import EpsSeries, RationalLike, as_pair


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


class CnkTable:
    """Coefficients of the iterated product: x^{*n} = sum eps^k c^n_k x^{n-k}."""

    def __init__(self, values: Dict[tuple, Fraction], nmax: int):
        self.values = values
        self.nmax = nmax

    def value(self, n: int, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return self.values.get((n, k), Fraction(0))


def cnk_from_b(model: RawX1Model, nmax: int) -> CnkTable:
    """Build the c^n_k table from the b_k by the product recursion.

    c^n_k = c^{n-1}_k + sum over even l <= k-2 of
            c^{n-1}_l (n-l-1)!/(n-k)! b_{k-l}
    starting from c^1_k = [k == 0].
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    values: Dict[tuple, Fraction] = {}

    def c(n, k):
        if k == 0:
            return Fraction(1)
        return values.get((n, k), Fraction(0))

    for n in range(2, nmax + 1):
        for k in range(2, n + 1, 2):
            acc = c(n - 1, k)
            for l in range(0, k - 1, 2):
                bk = model.b_at(k - l)
                if bk:
                    acc += c(n - 1, l) * Fraction(
                        math.factorial(n - l - 1), math.factorial(n - k)) * bk
            if acc:
                values[(n, k)] = acc
    return CnkTable(values, nmax)


def solve_gauge(model: RawX1Model, kmax: int) -> GaugeSolution:
    """Solve a_k = (1/k) sum over even m in [2, k] of a_{k-m} b_m, a_0 = 1.

    The recursion carries no n-dependence; that the same a_k straighten
    every power is what verify_gauge checks.
    """
    if kmax % 2:
        raise ValueError("kmax must be even")
    a = {0: Fraction(1)}
    for k in range(2, kmax + 1, 2):
        acc = Fraction(0)
        for m in range(2, k + 1, 2):
            bm = model.b_at(m)
            if bm:
                acc += a[k - m] * bm
        a[k] = acc / k
    return GaugeSolution(a)


def verify_gauge(model: RawX1Model, solution: GaugeSolution, nmax: int) -> bool:
    """Check c^n_k == a_k * n!/(n-k)! for all n <= nmax and even k <= n."""
    table = cnk_from_b(model, nmax)
    for n in range(1, nmax + 1):
        for k in range(0, n + 1, 2):
            expect = solution.a_at(k) * Fraction(
                math.factorial(n), math.factorial(n - k))
            if table.value(n, k) != expect:
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


def d_symbol_series(solution: GaugeSolution, order: int) -> EpsSeries:
    """sum over even k of (2 eps)^k a_k: the gauge operator applied to e^{2 x1},
    divided by e^{2 x1}."""
    terms = {}
    for k, ak in solution.a.items():
        if k <= order and ak:
            terms[k] = ak * (2 ** k)
    return EpsSeries(terms, order)


def gauge_AB_transform(a_raw: EpsSeries, solution: GaugeSolution,
                       inverse: bool = False) -> EpsSeries:
    """Transform the free even parameter series through the gauge.

    Default multiplies by sum (2 eps)^k a_k.  Deriving the transform from
    f *new g = D^{-1}(D f *old D g) with D trivial on x2 and x3 instead
    applies D^{-1} to the exponentials, i.e. divides by that sum; pass
    ``inverse=True`` for that direction.  Both are exposed because the two
    conventions differ exactly by this reciprocal.
    """
    for e, _ in a_raw.terms.items():
        if e % 2:
            raise ValueError("the raw parameter series must be even")
    factor = d_symbol_series(solution, a_raw.order)
    if inverse:
        factor = factor.invert()
    return a_raw * factor
