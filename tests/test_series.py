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
    EpsSeriesRing,
    SeriesConfigError,
    SeriesDomainError,
)

N = 8
BI_TOTAL = 8
#: the deepest h pole of a drawn two-parameter series
BI_H_LOW = -2


def S(terms, order=N):
    return EpsSeries(terms, order)


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
    assert S({1: 1}) * S({N - 1: 3, N: 5}) == S({N: 3})


def test_mul_truncated_exponentials_cancel():
    # oracle: coefficients of exp are 1/j! exactly
    e_plus = S({j: Fraction(2 ** j, math.factorial(j)) for j in range(N + 1)})
    e_minus = S({j: Fraction((-2) ** j, math.factorial(j)) for j in range(N + 1)})
    assert EpsSeriesRing(N).exp(2) == e_plus
    assert EpsSeriesRing(N).exp(-2) == e_minus
    assert e_plus * e_minus == EpsSeries.one(N)


def test_negative_exponent_is_refused():
    with pytest.raises(SeriesDomainError, match="eps exponent -1 is negative"):
        EpsSeries({-1: 1}, 8)
    with pytest.raises(SeriesDomainError):
        EpsSeriesRing(8).eps_power(1, -2)


def test_invert_examples():
    geom = S({e: 1 for e in range(N + 1)})
    assert S({0: 1, 1: -1}).invert() == geom
    assert S({0: 2}).invert() == S({0: Fraction(1, 2)})
    with pytest.raises(SeriesDomainError):
        EpsSeries.zero(N).invert()


def test_invert_sinh_by_long_division():
    # independent oracle: solve (sinh(2 eps)/eps) * b = 1 term by term, with
    # the coefficients of sinh(2 eps)/eps read from the factorial sums
    coeffs = {j: Fraction(2 ** (j + 1), math.factorial(j + 1))
              for j in range(0, N + 1, 2)}
    sh = EpsSeriesRing(N).sinh_over_eps(2)
    assert sh == S(coeffs)
    b = {}
    for k in range(N + 1):
        acc = Fraction(1) if k == 0 else Fraction(0)
        acc -= sum(b[e] * coeffs.get(k - e, Fraction(0)) for e in b)
        b[k] = acc / coeffs[0]
    got = sh.invert()
    assert got == S(b)
    assert got.coefficient(0) == Fraction(1, 2)
    assert got.coefficient(2) == Fraction(-1, 3)


def test_invert_roundtrip():
    a = S({0: Fraction(3, 2), 1: -1, 3: Fraction(1, 7)})
    assert a * a.invert() == EpsSeries.one(N)


def test_invert_needs_a_unit():
    for a in (S({1: 1}), S({2: 3, 5: 1})):
        with pytest.raises(SeriesDomainError):
            a.invert()  # 1/eps is not a power series


def test_invert_stores_no_exponent_above_order_minus_valuation():
    # a = h^v u with u known through total - v, and 1/a = h^-v / u
    for v in (1, 2, 3):
        a = BiSeries({(0, v): 2, (0, v + 1): 1, (0, N): 5}, N)
        inv = a.invert()
        assert max(i + j for i, j in inv.terms) <= N - v
        assert inv.coefficient(0, -v) == Fraction(1, 2)
        assert inv.coefficient(0, 1 - v) == Fraction(-1, 4)


def test_exp_sinh_cosh_values():
    assert EpsSeriesRing(2).exp(2) == S({0: 1, 1: 2, 2: 2}, order=2)
    assert EpsSeriesRing(3).sinh(2) == S({1: 2, 3: Fraction(4, 3)}, order=3)
    ring = EpsSeriesRing(N)
    assert ring.exp(0) == EpsSeries.one(N)
    cosh = ring.exp(2) - ring.sinh(2)
    assert cosh * cosh - ring.sinh(2) * ring.sinh(2) == EpsSeries.one(N)
    # sinh(2 eps)/eps is read through eps^(N + 1): its eps^N term is there
    assert ring.sinh_over_eps(2) * S({1: 1}) == ring.sinh(2)
    assert ring.sinh_over_eps(2).coefficient(N) \
        == Fraction(2 ** (N + 1), math.factorial(N + 1))


def test_eps_flip():
    a = S({0: 1, 1: 2, 2: 3, 3: -4})
    assert a.eps_flip() == S({0: 1, 1: -2, 2: 3, 3: 4})
    assert a.eps_flip().eps_flip() == a


def test_terms_beyond_the_bound_are_dropped():
    assert (S({5: 1}) * S({5: 1})).is_zero()
    assert S({9: 1}).is_zero()
    assert BiSeries({(5, 4): 1}, 8).is_zero()
    assert sorted(EpsSeriesRing(N).exp(2).terms) == list(range(N + 1))


@pytest.mark.parametrize("cls, kept, zero, beyond, negative", [
    (EpsSeries, [0, 3, 8], [1], [9, 12], [-1, -20]),
    (BiSeries, [(0, 0), (1, -1), (3, 5), (0, 8)], [(2, 0)],
     [(9, 0), (5, 4), (0, 9)], [(-1, 2), (-1, 20)]),
], ids=["eps", "bi"])
def test_one_constructor_for_both_key_types(cls, kept, zero, beyond,
                                            negative):
    """Zero coefficients and keys of degree above the bound are dropped; a
    negative eps exponent is refused inside the bound and beyond it (checked
    before the degree); a bound below 1 is refused."""
    terms = {k: Fraction(1, n) for n, k in enumerate(kept, 2)}
    s = cls({**terms, **dict.fromkeys(zero, (0, 5)),
             **dict.fromkeys(beyond, 1)}, 8)
    assert s.terms == {k: (1, n) for n, k in enumerate(kept, 2)}
    assert cls({**dict.fromkeys(zero, 0), **terms}, 8) == s
    for key in negative:
        with pytest.raises(SeriesDomainError, match="is negative"):
            cls({key: 1}, 8)
    for bound in (0, -3):
        with pytest.raises(SeriesConfigError, match="must be >= 1"):
            cls({}, bound)


def test_json_form():
    a = S({0: 1, 1: Fraction(2, 3), 5: -7})
    assert a.to_json() == {"terms": [[0, "1"], [1, "2/3"], [5, "-7"]],
                           "order": N}


def test_str_form():
    assert str(S({0: 1, 2: Fraction(-1, 3)})) == "1 - 1/3*eps^2"
    assert str(EpsSeries.zero(N)) == "0"
    assert str(S({1: 1})) == "eps"


# -- ring axioms on randomized triples ------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def series(draw, order=12):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = draw(st.integers(min_value=0, max_value=order))
        terms[e] = draw(coeffs)
    return EpsSeries(terms, order)


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
    # eps -> -eps is an involution and a ring map
    assert a.eps_flip().eps_flip() == a
    assert (a * b).eps_flip() == a.eps_flip() * b.eps_flip()


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
@given(st.integers(min_value=1, max_value=3), coeffs.filter(bool),
       series(order=BI_TOTAL))
def test_invert_is_right_inverse_at_positive_valuation(v, c, tail):
    # c h^v plus terms of h exponent above v; an EpsSeries of positive
    # valuation has no inverse, so this is the BiSeries h pivot
    a = BiSeries({(0, v): c}, BI_TOTAL) + BiSeries(
        {(0, e): q for e, q in tail.terms.items() if e > v}, BI_TOTAL)
    assert a * a.invert() == BiSeries.one(BI_TOTAL)
    with pytest.raises(SeriesDomainError):
        EpsSeries({v: c}, BI_TOTAL).invert()


# -- two-parameter series --------------------------------------------------

def test_biseries_basics():
    T = 8
    one = BiSeries.one(T)
    eps = BiSeries.monomial(1, 1, 0, T)
    h = BiSeries.monomial(1, 0, 1, T)
    assert eps * h == BiSeries.monomial(1, 1, 1, T)
    assert (one + eps) * (one - eps) == one - eps * eps
    assert (eps * h).eps_flip() == -(eps * h)
    assert (h * h).eps_flip() == h * h
    # only odd eps exponents change sign; h, and h^-1, are left alone
    assert (eps + h + eps * h).eps_flip() == -eps + h - eps * h
    assert BiSeries({(1, -1): 2, (2, -1): 3, (3, 0): 5}, T).eps_flip() \
        == BiSeries({(1, -1): -2, (2, -1): 3, (3, 0): -5}, T)


def test_biseries_exp_and_sinh():
    T = 8
    e = BiSeriesRing(T).exp(1, 1, 1)  # e^{eps h}
    assert e.coefficient(0, 0) == 1
    assert e.coefficient(1, 1) == 1
    assert e.coefficient(2, 2) == Fraction(1, 2)
    s = BiSeriesRing(T).sinh_h(1)
    assert s.coefficient(0, 1) == 1
    assert s.coefficient(0, 3) == Fraction(1, 6)
    assert s.coefficient(0, 2) == 0


def test_biseries_invert_sinh():
    T = 8
    s2 = BiSeriesRing(T).sinh_h(1) * 2
    inv = s2.invert()
    assert s2 * inv == BiSeries.one(T)
    assert inv.coefficient(0, -1) == Fraction(1, 2)
    with pytest.raises(SeriesDomainError):
        BiSeries.zero(T).invert()
    mixed = BiSeries({(1, 0): 1, (0, 1): 1}, T)
    with pytest.raises(SeriesDomainError):
        mixed.invert()  # two monomials at the lowest total degree


def test_biseries_slices():
    ring = BiSeriesRing(8)
    assert ring.exp(1, 1, 1).eps_slice(0) == ring.one
    assert (ring.sinh_h(1) * 2).invert().h_pole_order() == -1


def test_biseries_json_form():
    a = BiSeries({(1, -1): Fraction(1, 2), (2, 0): -3}, 8)
    assert a.to_json() == {"terms": [[[1, -1], "1/2"], [[2, 0], "-3"]],
                           "total": 8}


def test_biseries_config_mismatch():
    a = BiSeries.one(8)
    with pytest.raises(SeriesConfigError, match="truncation mismatch: 8 vs 6"):
        a + BiSeries.one(6)
    with pytest.raises(SeriesConfigError):
        a * BiSeries.one(6)


def test_each_ring_has_one_bound():
    assert repr(BiSeries.monomial(1, 0, -1, 8)) == "BiSeries(h^-1, total=8)"
    assert repr(BiSeriesRing(8)) == "BiSeriesRing(total=8)"
    assert repr(EpsSeriesRing(5)) == "EpsSeriesRing(order=5)"
    assert BiSeriesRing(8).one == BiSeries.one(8) == 1


def test_biseries_h_poles_have_no_floor():
    h = BiSeries.monomial(1, 0, 1, 8)
    assert h.invert() == BiSeries.monomial(1, 0, -1, 8)
    # eps^2 h^-2 times eps h^-1: the product reaches h^-3
    product = BiSeries.monomial(1, 2, -2, 8) * BiSeries.monomial(3, 1, -1, 8)
    assert product == BiSeries.monomial(3, 3, -3, 8)
    assert product.h_pole_order() == -3


# -- ring axioms of the two-parameter series --------------------------------


@st.composite
def bi_series(draw, h_low=BI_H_LOW):
    """Terms of nonnegative total degree with h exponents >= h_low."""
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        j = draw(st.integers(min_value=h_low, max_value=BI_TOTAL))
        i = draw(st.integers(min_value=max(0, -j), max_value=BI_TOTAL - j))
        terms[(i, j)] = draw(coeffs)
    return BiSeries(terms, BI_TOTAL)


@st.composite
def bi_unit(draw):
    """A nonzero constant plus terms of positive total degree, h exponents >= 0."""
    a = draw(bi_series(h_low=0))
    c0 = draw(coeffs.filter(bool))
    return a - BiSeries.constant(a.coefficient(0, 0) - c0, BI_TOTAL)


@settings(max_examples=60, deadline=None)
@given(bi_series(), bi_series(), bi_series())
def test_biseries_sum_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == BiSeries.zero(BI_TOTAL)
    assert -(-a) == a
    assert a + BiSeries.zero(BI_TOTAL) == a


@settings(max_examples=60, deadline=None)
@given(bi_series(), bi_series(), bi_series())
def test_biseries_product_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * BiSeries.one(BI_TOTAL) == a
    assert a.eps_flip().eps_flip() == a
    assert (a * b).eps_flip() == a.eps_flip() * b.eps_flip()


@settings(max_examples=40, deadline=None)
@given(bi_series(), coeffs)
def test_biseries_rational_scale(a, q):
    assert a * q == a * BiSeries.constant(q, BI_TOTAL)
    assert q * a == a * q


@settings(max_examples=30, deadline=None)
@given(series(), bi_series())
def test_powers_equal_repeated_products(a, b):
    """Square-and-multiply gives the n-fold product, for both key types."""
    for s, one in ((a, EpsSeries.one(12)), (b, BiSeries.one(BI_TOTAL))):
        product = one
        for n in range(13):
            assert s ** n == product
            product = product * s


@settings(max_examples=40, deadline=None)
@given(bi_unit())
def test_biseries_invert_is_right_inverse(a):
    assert a * a.invert() == BiSeries.one(BI_TOTAL)
