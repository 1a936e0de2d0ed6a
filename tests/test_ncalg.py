"""Normal ordering, star products, and their structural properties."""

import random
from fractions import Fraction

import pytest

from sl2star import poisson
from sl2star.expr import evaluate, parse
from sl2star.ncalg import (
    EM, EP, PbwMonomial, STRATEGY_NAMES, X1, X2, X3,
    measure, random_element, random_word, word_to_monomial,
    x_algebra,
)


def eps_el(system, value, k=1):
    return system.ring.eps_power(value, k)


def test_normal_form_of_commutation_pairs(xsys):
    one = xsys.ring.one
    # x2 x1 -> x1 x2 - 2 eps x2
    assert xsys.normal_form((X2, X1)).terms == {
        PbwMonomial(1, 1, 0, 0): one,
        PbwMonomial(0, 1, 0, 0): eps_el(xsys, -2),
    }
    # ordered words stay put
    assert xsys.normal_form((X1, X2)).terms == {PbwMonomial(1, 1, 0, 0): one}
    # x3 x2 -> x2 x3 - eps A e^{2x1} + eps A e^{-2x1} with A = 4
    assert xsys.normal_form((X3, X2)).terms == {
        PbwMonomial(0, 1, 1, 0): one,
        PbwMonomial(0, 0, 0, 2): eps_el(xsys, -4),
        PbwMonomial(0, 0, 0, -2): eps_el(xsys, 4),
    }


def test_elements_of_two_systems_do_not_combine(xsys):
    other = x_algebra(8)
    with pytest.raises(ValueError):
        xsys.generator(X2) + other.generator(X2)
    with pytest.raises(ValueError):
        xsys.generator(X2) - other.generator(X2)
    assert xsys.generator(X2) != other.generator(X2)


def test_star_of_elements_of_two_systems_is_refused(xsys):
    other = x_algebra(8, (4, 1))
    with pytest.raises(ValueError):
        xsys.generator(X3) * x_algebra(8).generator(X2)
    with pytest.raises(ValueError):
        xsys.star(xsys.generator(X3), other.generator(X2))
    with pytest.raises(ValueError):
        xsys.commutator(xsys.generator(X3), other.generator(X2))


def test_empty_word_is_unit(xsys):
    assert xsys.normal_form(()) == xsys.one


def test_strategy_oracle_on_long_word(xsys):
    """The derived expansion of x3 x2 x1 is checked against a brute-force
    reducer applying rules in randomized order."""
    word = (X3, X2, X1)
    results = [xsys.normal_form(word, strategy="random", rng=random.Random(s))
               for s in range(10)]
    base = xsys.normal_form(word, strategy="leftmost")
    assert all(r == base for r in results)
    # and against the star of the generator chain
    via_star = xsys.star(xsys.star(xsys.generator(X3), xsys.generator(X2)),
                         xsys.generator(X1))
    assert via_star == base


def test_strategy_agreement_random_words(xsys, rng):
    for _ in range(60):
        w = random_word(rng, 6)
        base = xsys.normal_form(w, strategy="leftmost")
        for s in STRATEGY_NAMES[1:]:
            assert xsys.normal_form(w, strategy=s, rng=random.Random(3)) == base


def test_termination_measure_decreases(xsys, rng):
    for _ in range(40):
        w = random_word(rng, 6)
        xsys.normal_form(w, check_termination=True)


def test_measure_is_lexicographic():
    assert measure((X2, X1)) > measure((X1, X2))
    assert measure((X2, X1)) > measure((X2,))
    assert measure((EP, EM)) > measure(())
    assert measure((X3, X2)) > measure((EP, EP))


def test_flatness_basis_irreducible(xsys):
    for n1 in range(3):
        for n2 in range(3):
            for n3 in range(3):
                for m in range(-3, 4):
                    mono = PbwMonomial(n1, n2, n3, m)
                    assert xsys.reducible_positions(mono.word()) == []
                    nf = xsys.normal_form(mono.word())
                    assert nf.terms == {mono: xsys.ring.one}


def test_eps_zero_reduction_is_commutative_sort(xsys, rng):
    for _ in range(60):
        w = random_word(rng, 6)
        nf = xsys.normal_form(w)
        at_zero = {m: c.coefficient(0) for m, c in nf.terms.items()
                   if c.coefficient(0)}
        assert at_zero == {word_to_monomial(tuple(sorted(w))): Fraction(1)}


def test_star_examples(xsys):
    x1 = xsys.generator(X1)
    ep, em = xsys.generator(EP), xsys.generator(EM)
    assert xsys.star(x1, x1).terms == {PbwMonomial(2, 0, 0, 0): xsys.ring.one}
    assert xsys.star(ep, em) == xsys.one
    x2, x3 = xsys.generator(X2), xsys.generator(X3)
    lhs = xsys.star(x2, x3) - xsys.star(x3, x2)
    sinh2x1 = xsys.monomial_element(PbwMonomial(0, 0, 0, 2)) \
        - xsys.monomial_element(PbwMonomial(0, 0, 0, -2))
    assert lhs == sinh2x1 * (eps_el(xsys, 1) * xsys.a_series)


def test_star_power_of_x1_is_undeformed(xsys):
    x1 = xsys.generator(X1)
    for n in range(2, 6):
        assert (x1 ** n).terms == {PbwMonomial(n, 0, 0, 0): xsys.ring.one}


def test_commutator_examples(xsys):
    x1, x2 = xsys.generator(X1), xsys.generator(X2)
    assert xsys.commutator(x1, x2) == x2 * eps_el(xsys, 2)
    assert xsys.commutator(x1, xsys.generator(EP)).is_zero()
    assert xsys.commutator(x2, x2).is_zero()


def test_associativity_random(xsys, rng):
    for _ in range(30):
        f = random_element(xsys, rng)
        g = random_element(xsys, rng)
        h = random_element(xsys, rng)
        assert xsys.star(xsys.star(f, g), h) == xsys.star(f, xsys.star(g, h))


def test_classical_mul(xsys):
    x1, x2 = xsys.generator(X1), xsys.generator(X2)
    assert x2.classical(x1).terms == {PbwMonomial(1, 1, 0, 0): xsys.ring.one}
    assert xsys.generator(EP).classical(xsys.generator(EM)) == xsys.one
    x1x2 = xsys.monomial_element(PbwMonomial(1, 1, 0, 0))
    e2 = xsys.monomial_element(PbwMonomial(0, 0, 0, 2))
    assert x1x2.classical(e2).terms == {
        PbwMonomial(1, 1, 0, 2): xsys.ring.one}


def test_eps_flip_examples(xsys):
    x2 = xsys.generator(X2)
    assert (x2 * eps_el(xsys, 2)).eps_flip() == x2 * eps_el(xsys, -2)
    x1sq = xsys.monomial_element(PbwMonomial(2, 0, 0, 0))
    assert x1sq.eps_flip() == x1sq


def test_eps_flip_is_reversal_oracle(xsys, rng):
    """normal_form(reverse(w)) equals the flip of normal_form(w)."""
    for _ in range(50):
        w = random_word(rng, 6)
        assert xsys.normal_form(tuple(reversed(w))) \
            == xsys.normal_form(w).eps_flip()


def test_opposite_product_symmetry(xsys, rng):
    for _ in range(30):
        f = random_element(xsys, rng)
        g = random_element(xsys, rng)
        assert xsys.star(f, g) \
            == xsys.star(g.eps_flip(), f.eps_flip()).eps_flip()


def test_classical_limit_of_commutators_matches_bivector(xsys):
    """The eps^1 coefficient of [x_i, x_j] is twice the Poisson bracket."""
    gens = {1: xsys.generator(X1), 2: xsys.generator(X2),
            3: xsys.generator(X3)}
    table = poisson.classical_bracket_table()
    for (i, j), bracket in table.items():
        comm = xsys.commutator(gens[i], gens[j])
        eps1 = {m: c.coefficient(1) for m, c in comm.terms.items()
                if c.coefficient(1)}
        expected = {PbwMonomial(*mono): 2 * coeff
                    for mono, coeff in bracket.items()}
        assert eps1 == expected


def test_element_algebra_and_scaling(xsys):
    x1, x2 = xsys.generator(X1), xsys.generator(X2)
    e = x1 * 2 + x2 * Fraction(1, 3)
    assert e - x1 * 2 == x2 * Fraction(1, 3)
    assert (e * 0).is_zero()
    assert -(-e) == e
    assert e.coefficient((1, 0, 0, 0)) == xsys.ring.constant(2)


def test_randomized_a_series_tail(rng):
    # every structural identity holds for any even A-series tail
    sysA = x_algebra(8, (4, Fraction(1, 3), -2))
    w = (X3, X2, X3, X2)
    base = sysA.normal_form(w)
    for s in STRATEGY_NAMES[1:]:
        assert sysA.normal_form(w, strategy=s, rng=random.Random(1)) == base
    f, g = sysA.generator(X3), sysA.generator(X2)
    assert sysA.star(sysA.star(f, g), f) == sysA.star(f, sysA.star(g, f))


def test_json_form(xsys):
    f = xsys.element({PbwMonomial(1, 0, 0, 0): eps_el(xsys, Fraction(2, 3)),
                      PbwMonomial(0, 1, 1, -1): xsys.ring.one})
    assert f.to_json() == {"terms": [
        {"n1": 0, "n2": 1, "n3": 1, "m": -1,
         "coeff": {"terms": [[0, "1"]], "order": 8}},
        {"n1": 1, "n2": 0, "n3": 0, "m": 0,
         "coeff": {"terms": [[1, "2/3"]], "order": 8}},
    ]}


def test_str_reparses_to_same_element(xsys, rng):
    for _ in range(20):
        f = random_element(xsys, rng)
        if f.is_zero():
            continue
        assert evaluate(parse(str(f)), xsys) == f
