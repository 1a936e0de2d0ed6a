"""The enveloping-algebra change of variables and the two-parameter system."""

import random
from fractions import Fraction

import pytest

from sl2star import coalg, uhsl2
from sl2star.ncalg import (
    EM, EP, PbwMonomial, UNIT, X1, X2, X3,
    random_element, random_word, x_algebra,
)
from sl2star.series import BiSeries, EpsSeries
from sl2star.uhsl2 import (
    PoleAtHZeroError,
    base_change_check,
    expand_exponentials,
    limit_eps_to_zero,
    limit_h_to_zero,
    limits_report,
    xi_algebra,
    xi_relation_checks,
    z_commutators,
    z_commutators_scaled,
    z_coproducts,
)


@pytest.fixture(scope="module")
def xi():
    return xi_algebra(8)


def failures(checks):
    return [c.name for c in checks if not c.passed]


def test_z_commutators_all_pass():
    checks = z_commutators(x_algebra())
    assert not failures(checks)


def test_z_relation_x_representation():
    """[x2,x3]/mu^2, with mu = lambda/eps, equals
    (e^{2x1} - e^{-2x1}) * eps/(2 sinh(2 eps)/eps)."""
    system = x_algebra()
    ring = system.ring
    mu2 = uhsl2.mu_squared(system)
    # lambda^2 = 2 eps A(eps^2) sinh(2 eps) with A = 4, built independently
    assert mu2 * ring.eps_power(1, 2) \
        == ring.eps_power(2, 1) * ring.even([4]) * ring.sinh(2)
    comm = system.commutator(system.generator(X2), system.generator(X3))
    lhs = comm * mu2.invert()
    coeff = ring.eps_power(1, 1) * (ring.sinh_over_eps(2) * 2).invert()
    assert lhs.coefficient(PbwMonomial(0, 0, 0, 2)) == coeff
    assert lhs.coefficient(PbwMonomial(0, 0, 0, -2)) == -coeff
    assert set(lhs.terms) == {PbwMonomial(0, 0, 0, 2), PbwMonomial(0, 0, 0, -2)}
    # ... and the coefficient's leading term is eps/4: 1/(4 eps) times eps^2
    assert min(coeff.terms) == 1
    assert coeff.coefficient(1) == Fraction(1, 4)


def test_z_relations_hold_for_random_a_tails():
    rng = random.Random(12)
    for _ in range(3):
        tail = (Fraction(rng.choice([-5, -3, -1, 1, 2, 3, 5]),
                         rng.randrange(1, 4)),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        checks = z_commutators(x_algebra(8, tail))
        assert not failures(checks)


def test_z_scaled_route():
    assert not failures(z_commutators_scaled(x_algebra()))


@pytest.mark.parametrize(
    "a_coeffs",
    [(4,), (9, Fraction(1, 3), 2), (2,), (3,), (-3, Fraction(1, 5)),
     (Fraction(1, 2), 5)],
    ids=["A=4", "A=9,1/3,2", "A=2", "A=3", "A=-3,1/5", "A=1/2,5"])
@pytest.mark.parametrize("order", range(1, 13))
def test_z_scaled_route_at_every_order(order, a_coeffs):
    checks = z_commutators_scaled(x_algebra(order, a_coeffs))
    assert not failures(checks)


@pytest.mark.parametrize("a_coeffs", [
    (4,), (2,), (-3, Fraction(1, 5)), (4, 1, 3), (4, 0, 0, 0, 5),
    (4, 0, 0, 0, 0, 0, 9)])
def test_a_is_read_off_the_rule_scalar(a_coeffs):
    """A read off the x3-x2 rule scalar c = eps A is exact only through
    eps^(order-1): c drops the eps^order coefficient.  So ``mu_squared``
    reads the A that ``x_algebra`` keeps, and mu^2 = 2 A sinh(2 eps)/eps
    is exact through eps^order; eps^2 mu^2 = 2 c sinh(2 eps) holds exactly
    all the same, and every z line passes at orders 1 to 12."""
    for order in range(1, 13):
        system = x_algebra(order, a_coeffs)
        ring = system.ring
        a = ring.even(a_coeffs)
        c = dict(system.rules[X3, X2])[EM, EM]
        assert EpsSeries({e - 1: v for e, v in c.terms.items()}, order) \
            == a - ring.eps_power(a.coefficient(order), order), order
        assert system.a_series == a
        mu2 = uhsl2.mu_squared(system)
        assert mu2 * (ring.sinh_over_eps(2) * 2).invert() == a, order
        assert mu2 * ring.eps_power(1, 2) == c * ring.sinh(2) * 2
        for checks in (z_commutators(system), z_commutators_scaled(system)):
            assert not failures(checks), (a_coeffs, order)


@pytest.mark.parametrize("a_coeffs", [(4, 1), (4, 1, 3)])
@pytest.mark.parametrize("order", range(1, 9))
def test_mu_squared_is_exact_through_the_order(order, a_coeffs):
    """mu^2 at order N is the order-(N + 4) value cut at N: no coefficient
    of A is lost at the truncation edge (for A = (4, 1) at order 2 the
    rule scalar alone gives 16 + 32/3 eps^2, not 16 + 44/3 eps^2)."""
    far = uhsl2.mu_squared(x_algebra(order + 4, a_coeffs))
    cut = EpsSeries({e: v for e, v in far.terms.items() if e <= order}, order)
    assert uhsl2.mu_squared(x_algebra(order, a_coeffs)) == cut


def test_z_scaled_route_sees_every_coefficient_of_mu(monkeypatch):
    """A wrong coefficient of the unit mu^2 fails the explicit [z2,z3]
    check.  [x2,x3] is O(eps), so through eps^order it meets mu^2 through
    eps^(order - 1); the eps^order coefficient of mu^2 enters no relation
    at this truncation."""
    for a_coeffs in [(4,), (2,), (-3, Fraction(1, 5))]:
        system = x_algebra(8, a_coeffs)
        mu2 = uhsl2.mu_squared(system)
        for k in range(system.ring.order):
            bumped = mu2 + system.ring.eps_power(Fraction(1, 7), k)
            monkeypatch.setattr(uhsl2, "mu_squared", lambda _: bumped)
            assert failures(z_commutators_scaled(system)) \
                == ["[z2,z3] = sinh(h z1)/sinh(h) (explicit)"], (a_coeffs, k)


def test_z_routes_pass_without_a_square_leading_coefficient():
    """The relations fix only the product of the z2 and z3 scalings, so
    A(0) need not be a rational square, nor positive."""
    for a_coeffs in [(3,), (2,), (-4, 1), (Fraction(-1, 3),)]:
        system = x_algebra(8, a_coeffs)
        for checks in (z_commutators(system), z_commutators_scaled(system)):
            assert not failures(checks), a_coeffs


def test_z_coproducts_all_pass():
    assert not failures(z_coproducts(x_algebra()))


def test_xi_relations(xi):
    checks = xi_relation_checks(xi)
    assert not failures(checks)


def test_xi_printed_sign_is_inconsistent():
    """Negative control for the sign convention: using e^{+eps h} on the
    xi3 rule (as printed) breaks the coideal property."""
    system = xi_algebra(8)
    ring = system.ring
    bad_rules = dict(system.rules)
    bad_rules[(EP, X3)] = [((X3, EP), ring.exp(1, 1, 1))]
    bad_rules[(EM, X3)] = [((X3, EM), ring.exp(-1, 1, 1))]
    from sl2star.ncalg import RewriteSystem
    bad = RewriteSystem(ring, bad_rules, system.symbols, label="xi")
    images = [coalg.coideal_check(bad, rel) for _, rel in bad.relation_words()]
    assert any(not im.is_zero() for im in images)


def test_one_presentation_under_all_three_systems():
    """The x-system, the x-system with an A tail (the z-relations are
    checked in both) and the xi-system share one presentation: the same
    rule keys with the same replacement words in the same order, the same
    coproduct table, and unit terms that are the ring's own ``one``
    (rewriting and the tensor product skip the product with it by
    identity)."""
    systems = [x_algebra(8), x_algebra(8, (9, Fraction(1, 3), 2)),
               xi_algebra(8)]
    rule_words = [{pair: [word for word, _ in terms]
                   for pair, terms in s.rules.items()} for s in systems]
    assert rule_words[0] == rule_words[1] == rule_words[2]
    assert len(rule_words[0]) == 11
    table_keys = [{g: [key for key, _ in terms]
                   for g, terms in s.coproduct_table.items()} for s in systems]
    assert table_keys[0] == table_keys[1] == table_keys[2]
    for system in systems:
        one = system.ring.one
        units = [c for terms in [*system.rules.values(),
                                 *system.coproduct_table.values()]
                 for _, c in terms if c == one]
        assert len(units) == 7 + 8
        assert all(c is one for c in units)


def test_xi_full_bialgebra_suite(xi):
    """Confluence, associativity, coassociativity, coideal, counit: the
    one-parameter suite rerun with bivariate scalars."""
    system = xi
    assert system.unresolved_overlaps() == []
    rng = random.Random(3)
    for _ in range(25):
        w = random_word(rng, 4)
        assert system.rewrite(w) == system.normal_form(w)
    for _ in range(8):
        f = random_element(system, rng)
        g = random_element(system, rng)
        h = random_element(system, rng)
        assert system.star(system.star(f, g), h) \
            == system.star(f, system.star(g, h))
    for _, rel in system.relation_words():
        assert coalg.coideal_check(system, rel).is_zero()
    for g in (X1, X2, X3, EP, EM):
        assert coalg.coassoc_defect(system.generator(g)).is_zero()
    for _ in range(5):
        f = random_element(system, rng, max_terms=2, max_word=3)
        assert coalg.coassoc_defect(f).is_zero()
        d = coalg.coproduct(f)
        assert coalg.counit_contract(d, "left") == f
        assert coalg.counit_contract(d, "right") == f


@pytest.mark.parametrize("total", [*range(1, 17), 32])
def test_the_base_change_x_to_xi_is_a_bialgebra_isomorphism(total):
    """phi maps the eleven x rules onto the xi rules and commutes with the
    coproduct on the letters; below total degree 2 the factor lambda of x3
    vanishes, and the detail says so."""
    check = base_change_check(x_algebra(total), xi_algebra(total))
    assert check.passed
    assert check.detail == ("exact" if total >= 2 else
                            "lambda starts at total degree 2, above the "
                            "truncation 1: x3 maps to 0")


def _bi(one, i, j):
    return BiSeries.monomial(1, i, j, one.total)


#: scalar mutants of xi_algebra, each with the rule pairs phi names
XI_MUTANTS = {
    "shift + eps^3": (lambda one, shift, c, up, down: (
        one, shift + _bi(one, 3, 0), c, up, down), "x2.x1, x3.x1"),
    "up * (1 + eps h^2)": (lambda one, shift, c, up, down: (
        one, shift, c, up * (one + _bi(one, 1, 2)), down), "e+.x2, e-.x3"),
    "c * (1 + h^2)": (lambda one, shift, c, up, down: (
        one, shift, c * (one + _bi(one, 0, 2)), up, down), "x3.x2"),
    "c * (1 + eps^2)": (lambda one, shift, c, up, down: (
        one, shift, c * (one + _bi(one, 2, 0)), up, down), "x3.x2"),
}


@pytest.mark.parametrize("name", XI_MUTANTS)
def test_the_base_change_names_the_rules_of_an_xi_mutant(monkeypatch, name):
    """Each rule meets its scalar through its letter factors, of total
    degree up to 3 (x3.x1), so from total 6 every broken rule is named."""
    change, named = XI_MUTANTS[name]
    pbw_rules = uhsl2.pbw_rules
    monkeypatch.setattr(uhsl2, "pbw_rules",
                        lambda *scalars: pbw_rules(*change(*scalars)))
    for total in (6, 8, 16, 32):
        check = base_change_check(x_algebra(total), xi_algebra(total))
        assert not check.passed
        assert check.detail == f"fails on {named}", total


@pytest.mark.parametrize("total", range(1, 17))
def test_the_xi_flip_maps_each_rule_into_the_ideal(total):
    """Word reversal with eps -> -eps, h fixed, descends to the xi algebra:
    the opposite-product symmetry for every pair of elements."""
    assert xi_algebra(total).unflipped_rules() == []


def test_expand_exponentials(xi):
    # E+^2 = 1 + h xi1 + h^2 xi1^2/2 + ...
    e2 = xi.monomial_element(PbwMonomial(0, 0, 0, 2))
    expanded = expand_exponentials(e2)
    one = xi.ring.one
    assert expanded.coefficient(UNIT) == one
    assert expanded.coefficient(PbwMonomial(1, 0, 0, 0)) \
        == xi.ring.monomial(1, 0, 1)
    assert expanded.coefficient(PbwMonomial(2, 0, 0, 0)) \
        == xi.ring.monomial(Fraction(1, 2), 0, 2)


def test_limit_h_to_zero_of_xi_commutator(xi):
    """[xi2,xi3] -> eps xi1: the lowest term of sinh(h xi1)/sinh(h)."""
    c = xi.commutator(xi.generator(X2), xi.generator(X3))
    lim = limit_h_to_zero(c)
    expected = xi.generator(X1) * xi.ring.monomial(1, 1, 0)
    assert lim == expected


def test_limit_h_to_zero_unchanged_bracket(xi):
    c = xi.commutator(xi.generator(X1), xi.generator(X2))
    assert limit_h_to_zero(c) == xi.generator(X2) * xi.ring.monomial(2, 1, 0)


def test_limit_h_to_zero_coproduct(xi):
    d = coalg.coproduct(xi.generator(X2))
    lim = limit_h_to_zero(d)
    m_x2 = PbwMonomial(0, 1, 0, 0)
    assert lim == coalg.TensorElement(xi, {
        (m_x2, UNIT): xi.ring.one, (UNIT, m_x2): xi.ring.one})


def test_limit_h_to_zero_pole_raises(xi):
    f = xi.one * (xi.ring.sinh_h(1) * 2).invert()
    with pytest.raises(PoleAtHZeroError):
        limit_h_to_zero(f)


def test_limit_eps_to_zero(xi):
    c12 = xi.commutator(xi.generator(X1), xi.generator(X2))
    assert limit_eps_to_zero(c12).is_zero()
    d = coalg.coproduct(xi.generator(X2))
    assert limit_eps_to_zero(d) == d
    mixed = xi.generator(X1) * (xi.ring.one + xi.ring.monomial(3, 1, 1))
    assert limit_eps_to_zero(mixed) == xi.generator(X1)


def test_limits_report(xi):
    checks = limits_report(xi)
    assert not failures(checks)


def test_biseries_coefficients_stay_in_nonnegative_total_degree(xi):
    """Windowed total-degree truncation is exact for operands whose terms
    all have nonnegative total degree; the suite relies on normal forms
    keeping that property."""
    rng = random.Random(8)
    for _ in range(30):
        w = random_word(rng, 4)
        nf = xi.normal_form(w)
        for c in nf.terms.values():
            assert min(i + j for (i, j) in c.terms) >= 0
