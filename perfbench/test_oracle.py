"""Tests of the benchmark's own checks: the representation oracle and the
closed-form Poisson bivector.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from sl2star import coalg, poisson
from sl2star.ncalg import Gen, PbwMonomial, x_algebra
from sl2star.uhsl2 import xi_algebra


@pytest.fixture(scope="module")
def xsys():
    return x_algebra(8, (4,))


@pytest.fixture(scope="module")
def xisys():
    return xi_algebra(8, -2)


def module_for(system, max_shift):
    if system.ring.kind == "eps":
        return oracle.WeightModule("x", max_shift)
    return oracle.WeightModule("xi", max_shift, oracle.XI_EXACT_ORDER)


def random_words(rng, count, lengths, max_inversions=None):
    out = []
    while len(out) < count:
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(*lengths)))
        inv = sum(1 for i, a in enumerate(w) for b in w[i + 1:] if a == 3 and b == 2)
        if max_inversions is None or inv <= max_inversions:
            out.append(w)
    return out


def bumps(ring, value):
    """One series term ``value`` at each compared order; for the xi ring,
    every (eps, h) exponent pair of that total degree with h^-2 .. h^2."""
    if ring.kind == "eps":
        return {k: [ring.eps_power(value, k)] for k in range(oracle.ORDER + 1)}
    return {k: [ring.monomial(value, k - j, j) for j in range(-2, 3) if k - j >= 0]
            for k in range(oracle.XI_EXACT_ORDER + 1)}


@pytest.mark.parametrize("which", ["x", "xi"])
def test_every_rewrite_rule_holds(which, xsys, xisys):
    system = xsys if which == "x" else xisys
    module = module_for(system, 2)
    for (a, b), expansion in system.rules.items():
        assert module.relation_error((a, b), expansion) <= oracle.TOLERANCE, (a, b)


@pytest.mark.parametrize("which,count,lengths,max_inv", [
    ("x", 200, (4, 9), None),
    ("xi", 150, (3, 7), 2),
])
def test_normal_forms_match_their_words(which, count, lengths, max_inv, xsys, xisys):
    system = xsys if which == "x" else xisys
    module = module_for(system, lengths[1])
    rng = random.Random(7)
    for word in random_words(rng, count, lengths, max_inv):
        nf = system.normal_form(tuple(Gen(g) for g in word))
        assert module.normal_form_error(word, nf.terms) <= oracle.TOLERANCE, word


@pytest.mark.parametrize("which", ["x", "xi"])
def test_one_altered_coefficient_is_rejected_at_every_order(which, xsys, xisys):
    system = xsys if which == "x" else xisys
    module = module_for(system, 7)
    for word in ((3, 2, 1, 4, 3, 2, 5), (4, 3, 1, 2, 2, 5), (5, 3, 3, 2, 1)):
        nf = system.normal_form(tuple(Gen(g) for g in word)).terms
        assert module.normal_form_error(word, nf) <= oracle.TOLERANCE
        for order, terms in bumps(system.ring, Fraction(1, 3)).items():
            for bump in terms:
                for mono in nf:
                    altered = dict(nf)
                    altered[mono] = nf[mono] + bump
                    err = module.normal_form_error(word, altered)
                    assert err > 1e3 * oracle.TOLERANCE, (word, mono, order)


def test_a_small_change_of_an_eps6_coefficient_is_rejected(xsys):
    # e+ x2 x1 e- x3 carries e^{+-2 eps} factors, whose eps^6 coefficients
    # are 2^6/6! = 4/45; change one of them by a thousandth
    word = (4, 2, 1, 5, 3)
    module = module_for(xsys, 2)
    nf = xsys.normal_form(tuple(Gen(g) for g in word)).terms
    changed = 0
    for mono, coeff in nf.items():
        if 6 in coeff.terms:
            num, den = coeff.terms[6]
            altered = dict(nf)
            altered[mono] = coeff + xsys.ring.eps_power(Fraction(num, 1000 * den), 6)
            assert module.normal_form_error(word, altered) > 1e3 * oracle.TOLERANCE, mono
            changed += 1
    assert changed


def test_a_term_beyond_the_truncation_is_a_mismatch():
    module = oracle.WeightModule("x", 1)
    beyond = SimpleNamespace(terms={9: (1, 1)})
    assert module.normal_form_error((2,), {PbwMonomial(0, 1, 0, 0): beyond}) == math.inf


def test_products_and_coproducts(xsys):
    module = module_for(xsys, 6)
    ring = xsys.ring
    f = xsys.element({PbwMonomial(1, 1, 0, 1): ring.one,
                      PbwMonomial(0, 0, 2, -1): ring.eps_power(Fraction(1, 3), 1)})
    g = xsys.element({PbwMonomial(0, 2, 1, 0): ring.one,
                      PbwMonomial(2, 0, 0, 0): ring.constant(2)})
    fg = xsys.star(f, g)
    d_fg = coalg.coproduct(fg)
    assert module.product_error(f.terms, g.terms, fg.terms) <= oracle.TOLERANCE
    assert module.coproduct_error(f.terms, g.terms, d_fg.terms) <= oracle.TOLERANCE
    for bump in (ring.one, ring.eps_power(Fraction(1, 3), 6)):
        for mono in list(fg.terms)[:5]:
            altered = dict(fg.terms)
            altered[mono] = altered[mono] + bump
            assert module.product_error(f.terms, g.terms, altered) > 1e3 * oracle.TOLERANCE
        for key in list(d_fg.terms)[:5]:
            altered = dict(d_fg.terms)
            altered[key] = altered[key] + bump
            assert module.coproduct_error(f.terms, g.terms, altered) > 1e3 * oracle.TOLERANCE
    swapped = xsys.star(g, f)
    assert module.product_error(f.terms, g.terms, swapped.terms) > 1e3 * oracle.TOLERANCE


def test_the_xi_fault_shows_at_order_8(xisys):
    # the x3 x2 rule carries eps / (2 sinh h), whose eps h^7 coefficient the
    # program gets wrong; compared through order 8 the rule fails.  Once the
    # program is mended, set XI_EXACT_ORDER to ORDER and drop this test.
    module = oracle.WeightModule("xi", 2)
    rule = next(exp for (a, b), exp in xisys.rules.items() if (a, b) == (3, 2))
    assert module.relation_error((3, 2), rule) > 1e3 * oracle.TOLERANCE


def test_words_beyond_the_margin_are_refused():
    module = oracle.WeightModule("x", 3)
    with pytest.raises(ValueError):
        module.normal_form_error((2, 2, 3, 3), {})


def test_closed_form_matches_the_group():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=3)
        coords = poisson.exp_point(x).coords()
        assert np.allclose(oracle.group_coords(x), coords, rtol=1e-13, atol=1e-13)
        assert np.allclose(oracle.alpha_upper(coords),
                           poisson.alpha_reference(coords).upper(), rtol=1e-14)
