"""The enveloping-algebra change of variables and the two-parameter system."""

import random
from fractions import Fraction

import pytest

from sl2star import coalg, uhsl2
from sl2star.ncalg import (
    EM, EP, PbwMonomial, UNIT, X1, X2, X3,
    random_element, random_word, x_algebra,
)
from sl2star.uhsl2 import (
    PoleAtHZeroError,
    expand_exponentials,
    limit_eps_to_zero,
    limit_h_to_zero,
    limits_report,
    report_passed,
    specialization_report,
    xi_algebra,
    xi_relation_checks,
    z_commutators,
    z_commutators_scaled,
    z_coproducts,
)


@pytest.fixture(scope="module")
def xi():
    return xi_algebra(8)


def test_z_commutators_all_pass():
    checks = z_commutators()
    assert report_passed(checks), [c.name for c in checks if not c.passed]


def test_z_relation_x_representation():
    """[x2,x3]/mu^2, with mu = lambda/eps, equals
    (e^{2x1} - e^{-2x1}) * eps/(2 sinh(2 eps)/eps)."""
    system = x_algebra()
    ring = system.ring
    mu = uhsl2.default_substitution(system)
    assert mu * mu * ring.eps_power(1, 2) == uhsl2.lambda_squared(system)
    comm = system.commutator(system.generator(X2), system.generator(X3))
    lhs = comm * (mu * mu).invert()
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
        tail = (Fraction(4),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        checks = z_commutators(x_algebra(8, tail))
        assert report_passed(checks)


def test_z_scaled_route():
    assert report_passed(z_commutators_scaled())


@pytest.mark.parametrize("a_coeffs", [(4,), (9, Fraction(1, 3), 2)],
                         ids=["A=4", "A=9,1/3,2"])
@pytest.mark.parametrize("order", range(1, 13))
def test_z_scaled_route_at_every_order(order, a_coeffs):
    checks = z_commutators_scaled(x_algebra(order, a_coeffs))
    assert report_passed(checks), [c.name for c in checks if not c.passed]


def test_z_scaled_route_sees_every_coefficient_of_mu(monkeypatch):
    """A wrong mu coefficient fails the explicit [z2,z3] check.  [x2,x3] is
    O(eps), so through eps^order it meets mu through eps^(order - 1); the
    eps^order coefficient of mu enters no relation at this truncation."""
    system = x_algebra(8)
    mu = uhsl2.default_substitution(system)
    for k in range(system.ring.order):
        bumped = mu + system.ring.eps_power(Fraction(1, 7), k)
        monkeypatch.setattr(uhsl2, "default_substitution", lambda _: bumped)
        failed = [c.name for c in z_commutators_scaled(system) if not c.passed]
        assert failed == ["[z2,z3] = sinh(h z1)/sinh(h) (explicit)"], k


def test_z_scaled_needs_square_leading_coefficient():
    from sl2star.series import SeriesDomainError
    with pytest.raises(SeriesDomainError):
        uhsl2.default_substitution(x_algebra(8, (3,)))


def test_z_coproducts_all_pass():
    assert report_passed(z_coproducts())


def test_xi_relations(xi):
    checks = xi_relation_checks(xi)
    assert report_passed(checks), [c.name for c in checks if not c.passed]


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
        assert system.star(f, g) \
            == system.star(g.eps_flip(), f.eps_flip()).eps_flip()
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
    assert report_passed(checks), [c.name for c in checks if not c.passed]


def test_specialization_report():
    checks = specialization_report()
    assert report_passed(checks), [c.name for c in checks if not c.passed]


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
