"""Gauge recursions and Bernoulli data against independent oracles."""

import math
import random
from fractions import Fraction

import pytest

from sl2star import gauge
from sl2star.series import EpsSeries, exp_series


def test_cnk_no_deformation():
    table = gauge.cnk_from_b(gauge.RawX1Model({}), 8)
    for n in range(1, 9):
        for k in range(0, n + 1, 2):
            assert table.value(n, k) == (1 if k == 0 else 0)


def test_cnk_single_b2():
    c = Fraction(3, 7)
    table = gauge.cnk_from_b(gauge.RawX1Model({2: c}), 4)
    # n=2: one recursion step from c^1; n=3 adds 2!/1! * c
    assert table.value(2, 2) == c
    assert table.value(3, 2) == 3 * c
    # hand recursion for n=4: c^4_2 = c^3_2 + 3!/2! c = 3c + 3c
    assert table.value(4, 2) == 6 * c


def test_solve_gauge_values():
    c, d = Fraction(1, 4), Fraction(2, 5)
    sol = gauge.solve_gauge(gauge.RawX1Model({2: c}), 4)
    assert sol.a_at(0) == 1
    assert sol.a_at(2) == c / 2
    sol2 = gauge.solve_gauge(gauge.RawX1Model({2: c, 4: d}), 4)
    assert sol2.a_at(4) == c * c / 8 + d / 4
    trivial = gauge.solve_gauge(gauge.RawX1Model({}), 6)
    assert trivial.a == {0: 1, 2: 0, 4: 0, 6: 0}


def test_solve_gauge_requires_even_kmax():
    with pytest.raises(ValueError):
        gauge.solve_gauge(gauge.RawX1Model({}), 5)


def test_verify_gauge():
    model = gauge.RawX1Model({2: Fraction(1, 4)})
    solution = gauge.solve_gauge(model, 12)
    assert gauge.verify_gauge(model, solution, 12)
    assert gauge.verify_gauge(gauge.RawX1Model({}), gauge.GaugeSolution(), 8)


def test_verify_gauge_negative_control():
    model = gauge.RawX1Model({2: Fraction(1, 4)})
    solution = gauge.solve_gauge(model, 12)
    corrupted = dict(solution.a)
    corrupted[2] += Fraction(1, 100)
    assert not gauge.verify_gauge(model, gauge.GaugeSolution(corrupted), 12)


def test_verify_gauge_randomized():
    rng = random.Random(17)
    for _ in range(20):
        b = {2 * k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for k in range(1, rng.randrange(2, 6))}
        model = gauge.RawX1Model(b)
        assert gauge.verify_gauge(model, gauge.solve_gauge(model, 12), 12)


def test_raw_model_validation():
    with pytest.raises(ValueError):
        gauge.RawX1Model({3: Fraction(1)})
    with pytest.raises(ValueError):
        gauge.GaugeSolution({0: Fraction(2)})


# -- Bernoulli numbers -----------------------------------------------------

def _bernoulli_akiyama_tanigawa(n):
    """Independent oracle: the Akiyama-Tanigawa triangle gives B_m with the
    opposite sign convention at m = 1."""
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    return out


def test_bernoulli_against_independent_algorithm():
    at = _bernoulli_akiyama_tanigawa(16)
    for m in range(17):
        expected = -at[m] if m == 1 else at[m]
        assert gauge.bernoulli(m) == expected


def test_bernoulli_hat_values():
    assert gauge.bernoulli_hat(0) == 1
    assert gauge.bernoulli_hat(1) == Fraction(1, 2)
    assert gauge.bernoulli_hat(2) == Fraction(1, 6)
    assert gauge.bernoulli_hat(3) == 0
    assert gauge.bernoulli_hat(12) == gauge.bernoulli(12)
    with pytest.raises(ValueError):
        gauge.bernoulli(-1)


def test_bernoulli_generating_function():
    # sum B_k eps^k / k!  *  (e^eps - 1)/eps  == 1, through order 20
    order = 20
    lhs = EpsSeries({k: gauge.bernoulli(k) / math.factorial(k)
                     for k in range(order + 1)}, order)
    ratio = EpsSeries({k: Fraction(1, math.factorial(k + 1))
                       for k in range(order + 1)}, order)
    assert lhs * ratio == EpsSeries.one(order)


def test_bernoulli_alternating_identity():
    assert gauge.bernoulli_identity_check(20)
    # n = 1 by hand: 1 - 1/2 = 1/2
    assert gauge.bernoulli_hat(1) == 1 - Fraction(1, 2)


# -- the scalar series c(+-eps) ---------------------------------------------

def test_c_series_leading_terms():
    c = gauge.c_series(1, 2)
    assert c == EpsSeries({0: 1, 1: 1, 2: Fraction(1, 3)}, 2)


def test_c_series_closed_form():
    order = 12
    gen = EpsSeries({k: Fraction((-2) ** k, math.factorial(k + 1))
                     for k in range(order + 1)}, order)
    assert gauge.c_series(1, order) * gen == EpsSeries.one(order)


def test_c_series_exponential_relation():
    order = 12
    assert gauge.c_series(-1, order) * exp_series(2, order) \
        == gauge.c_series(1, order)


def test_c_series_is_rewrite_scalar():
    """c(+eps)/c(-eps) = e^{2 eps} is exactly the scalar the exponential
    letter produces when passing x2."""
    order = 10
    c_plus = gauge.c_series(1, order)
    c_minus = gauge.c_series(-1, order)
    assert c_plus * c_minus.invert() == exp_series(2, order)


def test_sign_validation():
    with pytest.raises(ValueError):
        gauge.c_series(2, 8)


# -- parameter transform -----------------------------------------------------

def test_gauge_ab_transform_trivial():
    a_raw = EpsSeries({0: 4}, 8)
    assert gauge.gauge_AB_transform(a_raw, gauge.GaugeSolution()) == a_raw


def test_gauge_ab_transform_example():
    a_raw = EpsSeries({0: 4}, 8)
    sol = gauge.GaugeSolution({0: Fraction(1), 2: Fraction(1, 8)})
    out = gauge.gauge_AB_transform(a_raw, sol)
    assert out.coefficient(0) == 4
    assert out.coefficient(2) == 2
    assert gauge.gauge_AB_transform(EpsSeries.zero(8), sol).is_zero()


def test_gauge_ab_transform_inverse_direction():
    a_raw = EpsSeries({0: 4}, 8)
    sol = gauge.GaugeSolution({0: Fraction(1), 2: Fraction(1, 8)})
    fwd = gauge.gauge_AB_transform(a_raw, sol)
    back = gauge.gauge_AB_transform(fwd, sol, inverse=True)
    assert back == a_raw
    inv = gauge.gauge_AB_transform(a_raw, sol, inverse=True)
    assert inv.coefficient(2) == -2


def test_gauge_ab_transform_rejects_odd():
    with pytest.raises(ValueError):
        gauge.gauge_AB_transform(EpsSeries({1: 1}, 8), gauge.GaugeSolution())


def test_d_symbol_series():
    sol = gauge.GaugeSolution({0: Fraction(1), 2: Fraction(1, 8)})
    d = gauge.d_symbol_series(sol, 8)
    assert d == EpsSeries({0: 1, 2: Fraction(1, 2)}, 8)
