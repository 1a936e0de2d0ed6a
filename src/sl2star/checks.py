"""Named verification suites behind the ``check`` CLI command.

Each acceptance criterion is one function from a Config to a list of
RelationCheck records, and this is its only implementation: the acceptance
tests run these functions on the default ``Config()``.  Every check runs at
the criterion's size and tolerance on the algebras the Config describes,
both truncated at ``config.order``.  Criteria 1 and 9 check that rewriting
is confluent on the finitely many overlaps of the rules, not on sampled
words.
Criterion n draws its random inputs from ``random.Random(config.seed + s)``
with s = 101 n (111 for criterion 11); the Poisson checks use the seeds
``config.seed`` to ``config.seed + 3``.  So ``--seed`` moves every draw, and
the default seed 0 gives the acceptance inputs.  A suite is a tuple of
criteria; ``run_suite`` wraps their records in a JSON-able report.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import coalg, gauge, uhsl2
from .config import Config
from .ncalg import (
    EM, EP, PbwMonomial, X1, X2, X3, random_element, random_word,
    rules_raising_measure, word_to_monomial, x_algebra,
)
from .series import EpsSeries, exp_series
from .uhsl2 import RelationCheck

def _check(name: str, passed: bool, detail: str = "") -> RelationCheck:
    return RelationCheck(name, bool(passed), detail)


def _x_system(config: Config):
    return x_algebra(config.order, config.a_coeffs)


def _rng(config: Config, offset: int) -> random.Random:
    return random.Random(config.seed + offset)


def _confluence(system, rule: str) -> List[RelationCheck]:
    """Rewriting in ``system`` terminates and is confluent: every rule lowers
    the measure, and every overlap of two rules resolves (Bergman's diamond
    lemma).  A failure lists the offending rules or overlaps."""
    def names(words):
        return ", ".join(".".join(system.symbols[g] for g in w) for w in words)

    raising = rules_raising_measure(system.rules)
    unresolved = system.unresolved_overlaps()
    return [
        _check(f"every {rule} lowers the termination measure", not raising,
               names(raising)),
        _check(f"every overlap of two {rule}s resolves", not unresolved,
               names(unresolved)),
    ]


def _counit_holds(f) -> bool:
    d = coalg.coproduct(f)
    return (coalg.counit_contract(d, "left") == f
            and coalg.counit_contract(d, "right") == f)


# -- the one-parameter bialgebra ------------------------------------------

def rewriting_soundness(config: Config) -> List[RelationCheck]:
    """Criterion 1: rewriting terminates and its normal forms are unique,
    and the multiplication tables give the rewritten forms."""
    system = _x_system(config)
    rng = _rng(config, 101)
    words = [random_word(rng, 6) for _ in range(200)]
    return _confluence(system, "rule") + [
        _check("table normal form equals rewriting (200 words)",
               all(system.normal_form(w) == system.rewrite(w) for w in words)),
    ]


def associativity(config: Config) -> List[RelationCheck]:
    """Criterion 2: the star product is associative."""
    system = _x_system(config)
    rng = _rng(config, 202)
    ok = True
    for _ in range(100):
        f = random_element(system, rng)
        g = random_element(system, rng)
        h = random_element(system, rng)
        ok &= system.star(system.star(f, g), h) == system.star(f, system.star(g, h))
    return [_check("star associativity (100 random triples)", ok)]


def pbw_flatness(config: Config) -> List[RelationCheck]:
    """Criterion 3: PBW monomials are irreducible, and at eps = 0 rewriting
    is the commutative sort."""
    system = _x_system(config)
    flat = True
    for n1 in range(4):
        for n2 in range(4):
            for n3 in range(4):
                for m in range(-3, 4):
                    mono = PbwMonomial(n1, n2, n3, m)
                    nf = system.normal_form(mono.word())
                    flat &= nf.terms == {mono: system.ring.one}
    rng = _rng(config, 303)
    classical = True
    for _ in range(150):
        w = random_word(rng, 6)
        nf = system.normal_form(w)
        at_zero = {mm: c.coefficient(0) for mm, c in nf.terms.items()
                   if c.coefficient(0)}
        classical &= at_zero == {word_to_monomial(tuple(sorted(w))): Fraction(1)}
    return [
        _check("basis monomials are irreducible (n1, n2, n3 < 4, |m| <= 3)",
               flat),
        _check("eps=0 reduction is the commutative sort (150 words)",
               classical),
    ]


def coideal(config: Config) -> List[RelationCheck]:
    """Criterion 4: the ideal of relations is a coideal, for the configured
    A-series and for random tails."""
    system = _x_system(config)
    default = all(coalg.coideal_check(system, rel).is_zero()
                  for _, rel in system.relation_words())
    rng = _rng(config, 404)
    tails = True
    for _ in range(10):
        tail = [Fraction(4)] + [
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 4))]
        sys_t = x_algebra(config.order, tail)
        tails &= all(coalg.coideal_check(sys_t, rel).is_zero()
                     for _, rel in sys_t.relation_words())
    return [
        _check("coideal property (configured A)", default),
        _check("coideal property (10 randomized A tails)", tails),
    ]


def coassociativity_and_counit(config: Config) -> List[RelationCheck]:
    """Criterion 5: the deformed coproduct is coassociative and counital."""
    system = _x_system(config)
    rng = _rng(config, 505)
    elements = [system.generator(g) for g in (X1, X2, X3, EP, EM)]
    elements += [random_element(system, rng) for _ in range(50)]
    coassoc = all(coalg.coassoc_defect(f).is_zero() for f in elements)
    counit = all(_counit_holds(f) for f in elements)
    # word level: the counit kills every ideal generator
    kills = True
    for _, rel in system.relation_words():
        acc = system.ring.zero
        for word, c in rel.items():
            if all(g in (EP, EM) for g in word):
                acc = acc + c
        kills &= acc.is_zero()
    return [
        _check("coassociativity (generators + 50 random)", coassoc),
        _check("counit axioms (generators + 50 random)", counit),
        _check("counit kills every ideal generator", kills),
    ]


def nontrivial_deformation(config: Config) -> List[RelationCheck]:
    """Criterion 6: the coproduct of x2*x2 is deformed at order 2, by
    (2 cosh(2 eps) - 2) x2 e+ (x) x2 e-."""
    system = _x_system(config)
    x2sq = system.star(system.generator(X2), system.generator(X2))
    diff = coalg.coproduct(x2sq) - coalg.classical_coproduct(x2sq)
    key = (PbwMonomial(0, 1, 0, 1), PbwMonomial(0, 1, 0, -1))
    # 2 cosh(2 eps) - 2 = 4 eps^2 + 4/3 eps^4 + ..., built independently
    defect = EpsSeries(
        {j: 2 * Fraction(2 ** j, math.factorial(j))
         for j in range(2, config.order + 1, 2)}, config.order)
    return [
        _check("coproduct deformation order of x2*x2 is 2",
               coalg.deformation_order(x2sq) == 2),
        _check("Delta(x2*x2) defect is (2 cosh(2 eps) - 2) x2 e+ (x) x2 e-",
               set(diff.terms) == {key} and diff.terms[key] == defect),
    ]


def opposite_product_symmetry(config: Config) -> List[RelationCheck]:
    """Criterion 11: star(f, g) = flip(star(flip g, flip f))."""
    system = _x_system(config)
    rng = _rng(config, 111)
    ok = True
    for _ in range(100):
        f = random_element(system, rng)
        g = random_element(system, rng)
        ok &= system.star(f, g) == system.star(g.eps_flip(),
                                               f.eps_flip()).eps_flip()
    return [_check("opposite-product symmetry (100 pairs)", ok)]


# -- gauge recursions -------------------------------------------------------

def gauge_solver(config: Config) -> List[RelationCheck]:
    """Criterion 7: the gauge recursion straightens the raw x1-line model."""
    nmax = config.gauge_nmax
    kmax = nmax + nmax % 2  # solve_gauge takes an even bound
    model = gauge.RawX1Model(dict(config.b_coeffs))
    configured = gauge.verify_gauge(model, gauge.solve_gauge(model, kmax), nmax)
    rng = _rng(config, 707)
    random_ok = True
    for _ in range(20):
        b = {2 * k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for k in range(1, rng.randrange(2, 7))}
        m = gauge.RawX1Model(b)
        random_ok &= gauge.verify_gauge(m, gauge.solve_gauge(m, kmax), nmax)
    c = Fraction(5, 9)
    a2 = gauge.solve_gauge(gauge.RawX1Model({2: c}), kmax).a_at(2)
    return [
        _check("gauge solver straightens configured b", configured),
        _check("gauge solver on random even b (20 draws)", random_ok),
        _check("a_2 = c/2 for b = {2: c}", a2 == c / 2),
    ]


def bernoulli_suite(config: Config) -> List[RelationCheck]:
    """Criterion 8: Bernoulli generating function and the c-series."""
    order = 20
    lhs = EpsSeries({k: gauge.bernoulli(k) / math.factorial(k)
                     for k in range(order + 1)}, order)
    ratio = EpsSeries({k: Fraction(1, math.factorial(k + 1))
                       for k in range(order + 1)}, order)
    order = 12
    c_plus = gauge.c_series(1, order)
    c_minus = gauge.c_series(-1, order)
    # (1 - e^{-2 eps})/(2 eps) has exact coefficients (-2)^k/(k+1)!
    gen = EpsSeries({k: Fraction((-2) ** k, math.factorial(k + 1))
                     for k in range(order + 1)}, order)
    return [
        _check("sum B_k eps^k/k! times (e^eps - 1)/eps = 1 to order 20",
               lhs * ratio == EpsSeries.one(20)),
        _check("Bernoulli alternating-binomial identity to n=20",
               gauge.bernoulli_identity_check(20)),
        _check("c(+eps) = e^{2 eps} c(-eps) at order 12",
               c_plus == exp_series(2, order) * c_minus),
        _check("c(+eps) * (1 - e^{-2 eps})/(2 eps) = 1",
               c_plus * gen == EpsSeries.one(order)),
    ]


# -- the numeric Poisson-Lie checks ----------------------------------------

def poisson_lemma(config: Config) -> List[RelationCheck]:
    """Criterion 10: the integration lemma against the closed form,
    multiplicativity and the Jacobi identity."""
    from . import poisson  # numpy and scipy stay off the exact criteria

    lemma = poisson.verify_integration_lemma(
        samples=config.samples, tol=config.tol, seed=config.seed)
    mult = poisson.verify_multiplicativity(pairs=config.samples,
                                           seed=config.seed + 1)
    jac = poisson.verify_jacobi(points=20, tol=config.tol,
                                seed=config.seed + 2)
    jac_lin = poisson.verify_jacobi(points=20, tol=config.tol,
                                    seed=config.seed + 3, linearized=True)
    return [
        _check("cobracket is the r-matrix coboundary (exact)",
               poisson.cocycle_check(poisson.standard_sl2_data()) == 0),
        _check("integrated bivector matches closed form", lemma["passed"],
               f"kappa={lemma['kappa']:.9g} "
               f"spread={lemma['kappa_spread']:.2e} "
               f"max_residual={lemma['max_residual']:.2e}"),
        _check("Poisson-Lie multiplicativity of w", mult["passed"],
               f"max_residual={mult['max_residual']:.2e}"),
        _check("Jacobi identity of the closed-form bivector", jac["passed"],
               f"max_residual={jac['max_residual']:.2e}"),
        _check("Jacobi identity of the linearized bivector", jac_lin["passed"],
               f"max_residual={jac_lin['max_residual']:.2e}"),
    ]


# -- the enveloping algebra ---------------------------------------------------

def uh_sl2(config: Config) -> List[RelationCheck]:
    """Criterion 9: the z- and xi-relations and coproducts, the limits
    h -> 0, eps -> 0, confluent xi rewriting, and the xi bialgebra axioms on
    random inputs."""
    checks = []
    z_sys = _x_system(config)
    checks.extend(uhsl2.z_commutators(z_sys))
    checks.extend(uhsl2.z_commutators_scaled(z_sys))
    checks.extend(uhsl2.z_coproducts(z_sys))

    xi = uhsl2.xi_algebra(config.order)
    checks.extend(uhsl2.xi_relation_checks(xi))
    checks.append(_check("xi ideal is a coideal", all(
        coalg.coideal_check(xi, rel).is_zero()
        for _, rel in xi.relation_words())))
    checks.append(_check("xi coproduct coassociative on generators", all(
        coalg.coassoc_defect(xi.generator(g)).is_zero()
        for g in (X1, X2, X3, EP, EM))))
    checks.extend(uhsl2.limits_report(xi))
    checks.extend(uhsl2.specialization_report(config.order))
    checks.extend(_confluence(xi, "xi rule"))

    rng = _rng(config, 909)
    words = [random_word(rng, 4) for _ in range(60)]
    checks.append(_check("xi table normal form equals rewriting (60 words)",
                         all(xi.normal_form(w) == xi.rewrite(w) for w in words)))
    assoc = True
    for _ in range(15):
        f = random_element(xi, rng)
        g = random_element(xi, rng)
        h = random_element(xi, rng)
        assoc &= xi.star(xi.star(f, g), h) == xi.star(f, xi.star(g, h))
    checks.append(_check("xi star associativity (15 random triples)", assoc))
    elements = [random_element(xi, rng, max_terms=2, max_word=3)
                for _ in range(10)]
    checks.append(_check("xi coassociativity (10 random)", all(
        coalg.coassoc_defect(f).is_zero() for f in elements)))
    checks.append(_check("xi counit axioms (10 random)",
                         all(_counit_holds(f) for f in elements)))
    return checks


SUITES: Dict[str, Tuple[Callable[[Config], List[RelationCheck]], ...]] = {
    "bialgebra": (rewriting_soundness, associativity, pbw_flatness, coideal,
                  coassociativity_and_counit, nontrivial_deformation,
                  opposite_product_symmetry),
    "gauge": (gauge_solver, bernoulli_suite),
    "poisson": (poisson_lemma,),
    "uh": (uh_sl2,),
}


def run_suite(name: str, config: Config) -> dict:
    """Run one named suite, or "all"; suites in sorted order, checks in
    criterion order, for deterministic output."""
    if name == "all":
        suites = sorted(SUITES)
    elif name in SUITES:
        suites = [name]
    else:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    report = {"suites": [], "passed": True}
    for s in suites:
        checks = [c for criterion in SUITES[s] for c in criterion(config)]
        entry = {
            "suite": s,
            "checks": [c.to_json() for c in checks],
            "passed": uhsl2.report_passed(checks),
        }
        report["suites"].append(entry)
        report["passed"] &= entry["passed"]
    return report
