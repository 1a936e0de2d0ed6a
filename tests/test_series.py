"""Exact series arithmetic: frozen examples and ring-axiom properties.

Expected values for the derived cases are computed here by independent
means (factorial sums, long division, squaring back), never copied from the
implementation's own output.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2star.series import (
    BiSeries,
    BiSeriesRing,
    EpsSeries,
    HBoundError,
    SeriesConfigError,
    SeriesDomainError,
    cosh_series,
    exp_bi,
    exp_series,
    sinh_h,
    sinh_series,
)

N = 8


def S(terms, order=N, min_exp=0, **kw):
    return EpsSeries(terms, order, min_exp, **kw)


# -- frozen examples ------------------------------------------------------

def test_add_examples():
    assert S({0: 1, 1: 1}) + S({0: -1}) == S({1: 1})
    a = S({1: 3, 4: Fraction(-2, 7)})
    assert a + S({}) == a
    assert S({1: 1, 2: -1}) + S({2: 1}) == S({1: 1})


def test_add_order_mismatch():
    with pytest.raises(SeriesConfigError):
        S({0: 1}, order=4) + S({0: 1}, order=8)


def test_mul_examples():
    assert S({0: 1, 1: 1}) * S({0: 1, 1: -1}) == S({0: 1, 2: -1})
    laurent_eps = S({1: 1}, min_exp=-2)
    assert laurent_eps * S({-1: 1}, min_exp=-2) == S({0: 1}, min_exp=-2)


def test_mul_truncated_exponentials_cancel():
    # oracle: coefficients of exp are 1/j! exactly
    e_plus = S({j: Fraction(2 ** j, math.factorial(j)) for j in range(N + 1)},
               truncated=True)
    e_minus = S({j: Fraction((-2) ** j, math.factorial(j)) for j in range(N + 1)},
                truncated=True)
    assert exp_series(2, N) == e_plus
    assert exp_series(-2, N) == e_minus
    assert e_plus * e_minus == EpsSeries.one(N)


def test_mul_laurent_underflow():
    a = S({-2: 1}, min_exp=-2)
    with pytest.raises(SeriesDomainError):
        a * a


def test_invert_examples():
    geom = S({e: 1 for e in range(N + 1)}, truncated=True)
    assert S({0: 1, 1: -1}).invert() == geom
    assert S({0: 2}).invert() == S({0: Fraction(1, 2)})
    with pytest.raises(SeriesDomainError):
        EpsSeries.zero(N).invert()


def test_invert_sinh_by_long_division():
    # independent oracle: solve sinh(2 eps) * b = 1 term by term
    sh = sinh_series(2, N, min_exp=-2)
    coeffs = {j: sh.coefficient(j) for j in range(N + 1)}
    b = {}
    for k in range(-1, N + 1):
        acc = Fraction(1) if k == -1 else Fraction(0)
        # residual of (sum_{e<k} b_e eps^e) * sh at exponent k + 1
        acc -= sum(b[e] * coeffs.get(k + 1 - e, Fraction(0))
                   for e in b)
        b[k] = acc / coeffs[1]
    expected = S({e: c for e, c in b.items() if c}, min_exp=-2, truncated=True)
    got = sh.invert()
    # the inverse of a valuation-one series is determined through order N - 2
    assert got.truncate(N - 2) == expected.truncate(N - 2)
    assert got.coefficient(-1) == Fraction(1, 2)
    assert got.coefficient(1) == Fraction(-1, 3)


def test_invert_roundtrip():
    a = S({0: Fraction(3, 2), 1: -1, 3: Fraction(1, 7)})
    assert a * a.invert() == EpsSeries.one(N)


def test_invert_needs_laurent_headroom():
    with pytest.raises(SeriesDomainError):
        S({1: 1}).invert()  # would need eps^-1 but min_exp is 0


def test_sqrt_examples():
    assert S({2: 16}).sqrt() == S({1: 4})
    assert S({0: 9}).sqrt() == S({0: 3})
    with pytest.raises(SeriesDomainError):
        S({1: 1}).sqrt()
    with pytest.raises(SeriesDomainError):
        S({0: 2}).sqrt()


def test_sqrt_of_lambda_squared():
    # 2 eps * 4 * sinh(2 eps) = 16 eps^2 (1 + (2 eps)^2/6 + ...)
    arg = S({1: 2}) * S({0: 4}) * sinh_series(2, N)
    root = arg.sqrt()
    assert root * root == arg
    assert root.coefficient(1) == 4
    # second coefficient: 4 * (2 eps)^2 / 12 -> 4/3 at eps^3
    assert root.coefficient(3) == Fraction(4, 3)


def test_exp_sinh_cosh_values():
    assert exp_series(2, 2) == S({0: 1, 1: 2, 2: 2}, order=2, truncated=True)
    assert sinh_series(2, 3) == S({1: 2, 3: Fraction(4, 3)}, order=3,
                                  truncated=True)
    assert exp_series(0, N) == EpsSeries.one(N)
    assert cosh_series(2, N) * cosh_series(2, N) \
        - sinh_series(2, N) * sinh_series(2, N) == EpsSeries.one(N)


def test_eps_flip_and_stretch():
    a = S({0: 1, 1: 2, 2: 3, 3: -4})
    assert a.eps_flip() == S({0: 1, 1: -2, 2: 3, 3: 4})
    assert a.eps_flip().eps_flip() == a
    assert S({1: 5, 2: 7}).stretch(2) == S({2: 5, 4: 7})
    assert exp_series(2, N).stretch(2).coefficient(2) == 2


def test_truncated_flag():
    assert not (S({0: 1, 1: 1}) * S({0: 1})).truncated
    assert (S({5: 1}) * S({5: 1})).truncated
    assert exp_series(2, N).truncated
    assert not S({0: 4}).invert().truncated


def test_json_roundtrip():
    a = S({-1: Fraction(2, 3), 0: 1, 5: -7}, min_exp=-2)
    data = a.to_json()
    assert data == {"terms": [[-1, "2/3"], [0, "1"], [5, "-7"]], "order": N}
    assert EpsSeries.from_json(data) == a


def test_str_form():
    assert str(S({0: 1, 2: Fraction(-1, 3)})) == "1 - 1/3*eps^2"
    assert str(EpsSeries.zero(N)) == "0"
    assert str(S({1: 1})) == "eps"


# -- ring axioms on randomized triples ------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def series(draw, order=12, min_exp=0):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = draw(st.integers(min_value=min_exp, max_value=order))
        terms[e] = draw(coeffs)
    return EpsSeries(terms, order, min_exp)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + EpsSeries.zero(12) == a
    assert a * EpsSeries.one(12) == a


@settings(max_examples=40, deadline=None)
@given(series())
def test_sub_is_inverse_of_add(a):
    assert a - a == EpsSeries.zero(12)
    assert -(-a) == a


@settings(max_examples=40, deadline=None)
@given(series())
def test_invert_is_right_inverse(a):
    if a.is_zero() or min(a.terms) != 0:
        return
    assert a * a.invert() == EpsSeries.one(12)


@settings(max_examples=40, deadline=None)
@given(series())
def test_square_then_sqrt(a):
    sq = a * a
    if sq.is_zero():
        return
    lead = min(sq.terms)
    if sq.terms[lead][0] < 0:
        return
    root = sq.sqrt()
    # sqrt of a truncated square recovers it through the determined orders
    assert (root * root).truncate(12 - lead) == sq.truncate(12 - lead)


# -- two-parameter series --------------------------------------------------

def test_biseries_basics():
    T = 8
    one = BiSeries.one(T, -2)
    eps = BiSeries.monomial(1, 1, 0, T, -2)
    h = BiSeries.monomial(1, 0, 1, T, -2)
    assert eps * h == BiSeries.monomial(1, 1, 1, T, -2)
    assert (one + eps) * (one - eps) == one - eps * eps
    assert (eps * h).eps_flip() == -(eps * h)
    assert (h * h).eps_flip() == h * h


def test_biseries_exp_and_sinh():
    T = 8
    e = exp_bi(1, 1, 1, T)  # e^{eps h}
    assert e.coefficient(0, 0) == 1
    assert e.coefficient(1, 1) == 1
    assert e.coefficient(2, 2) == Fraction(1, 2)
    s = sinh_h(1, T, -2)
    assert s.coefficient(0, 1) == 1
    assert s.coefficient(0, 3) == Fraction(1, 6)
    assert s.coefficient(0, 2) == 0


def test_biseries_invert_sinh():
    T = 8
    s2 = sinh_h(1, T, -2) * 2
    inv = s2.invert()
    assert s2 * inv == BiSeries.one(T, -2)
    assert inv.coefficient(0, -1) == Fraction(1, 2)
    with pytest.raises(SeriesDomainError):
        BiSeries.zero(T).invert()
    mixed = BiSeries({(1, 0): 1, (0, 1): 1}, T, -2)
    with pytest.raises(SeriesDomainError):
        mixed.invert()  # two monomials at the lowest total degree


def test_biseries_slices_and_specialize():
    T = 8
    ring = BiSeriesRing(T, -2)
    e = ring.exp(1, 1, 1)
    assert e.h_slice(0, order=T) == EpsSeries({0: 1}, T)
    assert e.eps_slice(0) == ring.one
    # e^{eps h} at h = 2 eps is e^{2 eps^2}
    spec = e.specialize_h(2, T)
    assert spec == exp_series(2, T).stretch(2)
    inv = (ring.sinh_h(1) * 2).invert()
    assert inv.h_pole_order() == -1
    assert inv.specialize_h(2, T, -1).coefficient(-1) == Fraction(1, 4)


def test_biseries_json_roundtrip():
    a = BiSeries({(1, -1): Fraction(1, 2), (2, 0): -3}, 8, -2)
    assert BiSeries.from_json(a.to_json()) == a


def test_biseries_config_mismatch():
    a = BiSeries.one(8, -2)
    with pytest.raises(SeriesConfigError):
        a + BiSeries.one(6, -2)
    with pytest.raises(SeriesConfigError):
        a * BiSeries.one(8, -1)


def test_biseries_h_bound_errors():
    with pytest.raises(HBoundError):
        BiSeries({(0, -3): 1}, 8, -2)
    with pytest.raises(HBoundError):
        BiSeries.monomial(1, 1, -2, 8, -2) * BiSeries.monomial(1, 1, -1, 8, -2)
    with pytest.raises(HBoundError):
        BiSeries.monomial(1, 0, 1, 8, 0).invert()


# -- ring axioms of the two-parameter series --------------------------------

BI_TOTAL = 8
BI_H_MIN = -2


@st.composite
def bi_series(draw, h_low=BI_H_MIN):
    """Terms of nonnegative total degree with h exponents >= h_low."""
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        j = draw(st.integers(min_value=h_low, max_value=BI_TOTAL))
        i = draw(st.integers(min_value=max(0, -j), max_value=BI_TOTAL - j))
        terms[(i, j)] = draw(coeffs)
    return BiSeries(terms, BI_TOTAL, BI_H_MIN)


@st.composite
def bi_unit(draw):
    """A nonzero constant plus terms of positive total degree, h exponents >= 0."""
    a = draw(bi_series(h_low=0))
    c0 = draw(coeffs.filter(bool))
    return a - BiSeries.constant(a.coefficient(0, 0) - c0, BI_TOTAL, BI_H_MIN)


@settings(max_examples=60, deadline=None)
@given(bi_series(), bi_series(), bi_series())
def test_biseries_sum_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == BiSeries.zero(BI_TOTAL, BI_H_MIN)
    assert -(-a) == a
    assert a + BiSeries.zero(BI_TOTAL, BI_H_MIN) == a


# two factors with h^-1 terms meet the h_min of -2 at worst, so the third
# factor of a product of three is drawn polynomial in h
@settings(max_examples=60, deadline=None)
@given(bi_series(h_low=-1), bi_series(h_low=-1), bi_series(h_low=0))
def test_biseries_product_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * BiSeries.one(BI_TOTAL, BI_H_MIN) == a


@settings(max_examples=40, deadline=None)
@given(bi_series(), coeffs)
def test_biseries_rational_scale(a, q):
    assert a * q == a * BiSeries.constant(q, BI_TOTAL, BI_H_MIN)
    assert q * a == a * q


@settings(max_examples=40, deadline=None)
@given(bi_unit())
def test_biseries_invert_is_right_inverse(a):
    assert a * a.invert() == BiSeries.one(BI_TOTAL, BI_H_MIN)
