"""Coproduct machinery: generator table, coideal, coassociativity, counit."""

import math
import random
from fractions import Fraction

import pytest

from sl2star import coalg
from sl2star.coalg import (
    TensorElement,
    classical_coproduct,
    coassoc_defect,
    coideal_check,
    coproduct,
    counit,
    counit_contract,
    deformation_order,
    star_tensor,
    tensor_unit,
)
from sl2star.ncalg import (
    EM, EP, PbwMonomial, UNIT, X1, X2, X3, add_term, random_element,
    x_algebra,
)
from sl2star.series import EpsSeries
from sl2star.uhsl2 import xi_algebra

M_X1 = PbwMonomial(1, 0, 0, 0)
M_X2 = PbwMonomial(0, 1, 0, 0)
M_X3 = PbwMonomial(0, 0, 1, 0)
M_EP = PbwMonomial(0, 0, 0, 1)
M_EM = PbwMonomial(0, 0, 0, -1)


def T(system, mapping):
    return TensorElement(system, mapping)


def test_generator_coproducts(xsys):
    one = xsys.ring.one
    assert coproduct(xsys.generator(X1)) == T(xsys, {
        (UNIT, M_X1): one, (M_X1, UNIT): one})
    assert coproduct(xsys.generator(X2)) == T(xsys, {
        (M_X2, M_EM): one, (M_EP, M_X2): one})
    assert coproduct(xsys.generator(EP)) == T(xsys, {(M_EP, M_EP): one})
    assert coproduct(xsys.generator(EM)) == T(xsys, {(M_EM, M_EM): one})


def test_tensors_of_different_legs_or_systems_do_not_combine(xsys):
    two = tensor_unit(xsys)
    for other in (tensor_unit(xsys, 3), tensor_unit(x_algebra(8))):
        with pytest.raises(ValueError):
            two + other
        with pytest.raises(ValueError):
            star_tensor(two, other)
        assert two != other


def test_coproduct_of_x2_squared_by_hand(xsys):
    """Expand (x2 (x) e^{-x1} + e^{x1} (x) x2)^2 by hand; the cross terms
    pick up e^{2 eps} + e^{-2 eps} = 2 cosh(2 eps)."""
    x2sq = xsys.star(xsys.generator(X2), xsys.generator(X2))
    got = coproduct(x2sq)
    two_cosh = EpsSeries(
        {j: 2 * Fraction(2 ** j, math.factorial(j)) for j in range(0, 9, 2)},
        8)
    expected = T(xsys, {
        (PbwMonomial(0, 2, 0, 0), PbwMonomial(0, 0, 0, -2)): xsys.ring.one,
        (PbwMonomial(0, 1, 0, 1), PbwMonomial(0, 1, 0, -1)): two_cosh,
        (PbwMonomial(0, 0, 0, 2), PbwMonomial(0, 2, 0, 0)): xsys.ring.one,
    })
    assert got == expected


def test_star_tensor_examples(xsys):
    one = xsys.ring.one
    a = T(xsys, {(M_X1, UNIT): one})
    b = T(xsys, {(UNIT, M_X1): one})
    assert star_tensor(a, b) == T(xsys, {(M_X1, M_X1): one})

    c = T(xsys, {(M_EP, UNIT): one})
    d = T(xsys, {(M_X2, UNIT): one})
    assert star_tensor(c, d) == T(xsys, {
        (PbwMonomial(0, 1, 0, 1), UNIT): xsys.ring.exp(2)})

    t = T(xsys, {(M_X2, M_X3): xsys.ring.eps_power(3, 2)})
    assert star_tensor(tensor_unit(xsys), t) == t


def test_coproduct_is_star_homomorphism(xsys, rng):
    for _ in range(12):
        f = random_element(xsys, rng)
        g = random_element(xsys, rng)
        assert coproduct(xsys.star(f, g)) \
            == star_tensor(coproduct(f), coproduct(g))


def test_coideal_all_relations(xsys):
    for name, rel in xsys.relation_words():
        image = coideal_check(xsys, rel)
        assert image.is_zero(), f"relation {name} is not in the coideal"


def test_coideal_random_a_tails():
    rng = random.Random(4)
    for _ in range(4):
        tail = [Fraction(4)] + [
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            for _ in range(3)]
        system = x_algebra(8, tail)
        for name, rel in system.relation_words():
            assert coideal_check(system, rel).is_zero(), name


def test_coideal_negative_control(xsys):
    # a wrong scalar on the exponential-letter relation must be detected
    bad = {(EP, X2): xsys.ring.one, (X2, EP): -xsys.ring.exp(-2)}
    assert not coideal_check(xsys, bad).is_zero()


def test_coassociativity_examples(xsys):
    x1 = xsys.generator(X1)
    d = coassoc_defect(x1)
    assert d.is_zero()
    # the displayed triple coproduct of a primitive element
    dd = coalg._expand_leg(coproduct(x1), 0)
    one = xsys.ring.one
    assert dd == TensorElement(xsys, {
        (M_X1, UNIT, UNIT): one,
        (UNIT, M_X1, UNIT): one,
        (UNIT, UNIT, M_X1): one}, legs=3)
    assert coassoc_defect(xsys.generator(EP)).is_zero()
    assert coassoc_defect(
        xsys.star(xsys.generator(X2), xsys.generator(X3))).is_zero()


def test_coassociativity_random(xsys, rng):
    for _ in range(10):
        assert coassoc_defect(random_element(xsys, rng)).is_zero()


def test_counit_values(xsys):
    assert counit(xsys.generator(X2)).is_zero()
    assert counit(xsys.monomial_element(PbwMonomial(0, 0, 0, 2))) \
        == xsys.ring.one
    comm = xsys.commutator(xsys.generator(X2), xsys.generator(X3))
    sinh = xsys.monomial_element(PbwMonomial(0, 0, 0, 2)) \
        - xsys.monomial_element(PbwMonomial(0, 0, 0, -2))
    rel = comm - sinh * (xsys.ring.eps_power(1, 1) * xsys.a_series)
    assert counit(rel).is_zero()


def test_counit_kills_relations_at_word_level(xsys):
    for name, rel in xsys.relation_words():
        acc = xsys.ring.zero
        for word, c in rel.items():
            if all(g in (EP, EM) for g in word):
                acc = acc + c
        assert acc.is_zero(), name


def test_counit_axioms(xsys, rng):
    for _ in range(10):
        f = random_element(xsys, rng)
        d = coproduct(f)
        assert counit_contract(d, "left") == f
        assert counit_contract(d, "right") == f


def test_deformation_order(xsys):
    x2 = xsys.generator(X2)
    assert deformation_order(xsys.star(x2, x2)) == 2
    assert deformation_order(xsys.generator(X1)) is None
    assert deformation_order(xsys.generator(EP)) is None


def test_deformation_defect_value(xsys):
    """The deviation from the classical coproduct is exactly
    (2 cosh(2 eps) - 2) on the cross tensor term."""
    x2sq = xsys.star(xsys.generator(X2), xsys.generator(X2))
    diff = coproduct(x2sq) - classical_coproduct(x2sq)
    key = (PbwMonomial(0, 1, 0, 1), PbwMonomial(0, 1, 0, -1))
    assert set(diff.terms) == {key}
    defect = EpsSeries(
        {j: 2 * Fraction(2 ** j, math.factorial(j)) for j in range(2, 9, 2)},
        8)
    assert diff.terms[key] == defect
    assert defect.coefficient(2) == 4
    assert defect.coefficient(4) == Fraction(4, 3)


def test_tensor_json(xsys):
    t = coproduct(xsys.generator(X2))
    data = t.to_json()
    assert {"left", "right", "coeff"} == set(data["terms"][0])


# -- the payload loops against plain series arithmetic -----------------------

def reference_star_tensor(s, t):
    """Componentwise star product with one series product per term."""
    system = s.system
    out = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            keys = [((), ca * cb)]
            for ma, mb in zip(ka, kb):
                keys = [(key + (m,), c * cc) for key, c in keys
                        for m, cc in system._basis_star(ma, mb).items()]
            for key, c in keys:
                add_term(out, key, c)
    return TensorElement(system, out, s.legs)


def reference_coproduct(f):
    """The coproduct of each basis monomial as the product of its letters'
    coproducts, with no cache."""
    system = f.system
    out = {}
    for mono, c in f.terms.items():
        t = tensor_unit(system)
        for letter in mono.word():
            t = reference_star_tensor(
                t, TensorElement(system, system.coproduct_table[letter]))
        for key, cc in t.terms.items():
            add_term(out, key, cc * c)
    return TensorElement(system, out)


def reference_expand_leg(t, leg):
    system = t.system
    out = {}
    for key, c in t.terms.items():
        pairs = reference_coproduct(system.monomial_element(key[leg]))
        for pair, cc in pairs.terms.items():
            add_term(out, key[:leg] + pair + key[leg + 1:], c * cc)
    return TensorElement(system, out, t.legs + 1)


def top_element(system, rng):
    """A random element times eps^3, so that products cross the truncation."""
    return random_element(system, rng) * system.ring.eps_power(1, 3)


@pytest.mark.parametrize("make_system, make_element", [
    (lambda: x_algebra(8), random_element),
    (lambda: x_algebra(8, (4, 1)), random_element),
    (lambda: x_algebra(8), top_element),
    (lambda: xi_algebra(8), random_element),
], ids=["x", "x-a-tail", "x-top", "xi"])
def test_payload_loops_match_series_arithmetic(make_system, make_element):
    system = make_system()
    rng = random.Random(31)
    for _ in range(4):
        f = make_element(system, rng)
        g = make_element(system, rng)
        df, dg = coproduct(f), coproduct(g)
        assert df.terms == reference_coproduct(f).terms
        assert dg.terms == reference_coproduct(g).terms
        fg = system.star(f, g)
        d_fg = coproduct(fg)
        assert d_fg.terms == reference_coproduct(fg).terms
        assert star_tensor(df, dg).terms == reference_star_tensor(df, dg).terms
        for leg in (0, 1):
            assert coalg._expand_leg(df, leg).terms \
                == reference_expand_leg(df, leg).terms
        assert coassoc_defect(f).is_zero()


def test_unit_coefficients_are_the_ring_unit(xsys):
    """The loops skip a unit scalar by identity, so a coefficient equal to 1
    must be ``ring.one`` itself, also in the coproduct cache."""
    d = coproduct(xsys.star(xsys.generator(X2), xsys.generator(X3)))
    units = [c for c in d.terms.values() if c == 1]
    assert len(units) == 2
    assert all(c is xsys.ring.one for c in units)
