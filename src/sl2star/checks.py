"""Named verification suites behind the ``check`` CLI command.

Each acceptance criterion is one function from a Config to a list of
RelationCheck records, and this is its only implementation: the acceptance
tests run these functions on the default ``Config()``.  Every check runs at
the criterion's size and tolerance on the algebras the Config describes,
both truncated at ``config.order``.  Criterion 1 checks that rewriting is
confluent on the finitely many overlaps of the rules, not on sampled words;
criterion 9 carries that and the bialgebra axioms of criteria 4 and 5 to
the xi algebra by one exact base change, and does not check them again;
criterion 11 checks the flip on the eleven rules, not on sampled pairs.
Criterion n draws its random inputs from ``random.Random(config.seed + s)``
with s = 101 n (414 for the A-series of criterion 4); criterion 11 draws
nothing, and criterion 10 draws only the points of its integration lemma,
from ``config.seed``.  So ``--seed`` moves every draw, and the default
seed 0 gives the acceptance inputs.  A suite is a tuple of criteria;
``run_suite`` wraps their records in a JSON-able report.
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
from .series import EpsSeries, EpsSeriesRing
from .uhsl2 import RelationCheck

def _check(name: str, passed: bool, detail: str = "") -> RelationCheck:
    return RelationCheck(name, bool(passed), detail)


def _x_system(config: Config):
    return x_algebra(config.order)


def _rng(config: Config, offset: int) -> random.Random:
    return random.Random(config.seed + offset)


def _names(system, words) -> str:
    return ", ".join(".".join(system.symbols[g] for g in w) for w in words)


# -- checks of criteria 1 and 2, which criterion 9 runs on xi too ---------

def _tables(system, words, prefix: str = "") -> RelationCheck:
    """The tables give the rewritten forms of ``words``."""
    return _check(
        f"{prefix}table normal form equals rewriting ({len(words)} words)",
        all(system.normal_form(w) == system.rewrite(w) for w in words))


def _random_tuples(system, rng: random.Random, n: int, size: int) -> list:
    return [tuple(random_element(system, rng) for _ in range(size))
            for _ in range(n)]


def _associativity(system, triples, prefix: str = "") -> RelationCheck:
    star = system.star
    return _check(f"{prefix}star associativity ({len(triples)} random triples)",
                  all(star(star(f, g), h) == star(f, star(g, h))
                      for f, g, h in triples))


# -- the one-parameter bialgebra ------------------------------------------

def _x2_scale(source, target):
    """u = A'/A = mu'^2/mu^2, with A' the A of ``source``."""
    return uhsl2.mu_squared(source) * uhsl2.mu_squared(target).invert()


def _x2_rescaling_is_isomorphism(source, target) -> bool:
    """phi: x2 -> u x2, the other letters fixed, maps ``source`` onto
    ``target`` as bialgebras: it takes a basis word with n letters x2 to u^n
    times itself, kills the eleven relations of ``source``, and (phi (x)
    phi) Delta = Delta phi on the generators; x2 -> x2/u is its inverse."""
    u = _x2_scale(source, target)
    kills = all(sum((target.normal_form(word) * (c * u ** word.count(X2))
                     for word, c in rel.items()), target.zero).is_zero()
                for _, rel in source.relation_words())
    commutes = all(
        coalg.TensorElement(target, {
            (left, right): c * u ** (left.n2 + right.n2) for (left, right), c
            in coalg.coproduct(source.generator(g)).terms.items()})
        == coalg.coproduct(target.generator(g)
                           * (u if g is X2 else target.ring.one))
        for g in (X1, X2, X3, EP, EM))
    return kills and commutes


def _counit_holds(f) -> bool:
    d = coalg.coproduct(f)
    return (coalg.counit_contract(d, "left") == f
            and coalg.counit_contract(d, "right") == f)


def rewriting_soundness(config: Config) -> List[RelationCheck]:
    """Criterion 1: rewriting terminates and is confluent (every rule
    lowers the measure, every overlap of two rules resolves: Bergman's
    diamond lemma; a failure lists them), so its normal forms are unique,
    and the multiplication tables give the rewritten forms."""
    system = _x_system(config)
    rng = _rng(config, 101)
    words = [random_word(rng, 6) for _ in range(200)]
    raising = rules_raising_measure(system.rules)
    unresolved = system.unresolved_overlaps()
    return [
        _check("every rule lowers the termination measure", not raising,
               _names(system, raising)),
        _check("every overlap of two rules resolves", not unresolved,
               _names(system, unresolved)),
        _tables(system, words),
    ]


def associativity(config: Config) -> List[RelationCheck]:
    """Criterion 2: the star product is associative."""
    system = _x_system(config)
    triples = _random_tuples(system, _rng(config, 202), 100, 3)
    return [_associativity(system, triples)]


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


def _random_a_series(rng: random.Random) -> list:
    """Ten A-series: a random nonzero constant, then one to three random
    coefficients."""
    return [[Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                      rng.randrange(1, 5))]
            + [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
               for _ in range(rng.randrange(1, 4))]
            for _ in range(10)]


def coideal(config: Config) -> List[RelationCheck]:
    """Criterion 4: the ideal of relations is a coideal for A = 4, and any
    nonzero A' gives the bialgebra of A = 4, so its ideal is a coideal too."""
    system = _x_system(config)
    others = _random_a_series(_rng(config, 414))
    return [
        _check("coideal property (A = 4)",
               all(coalg.coideal_check(system, rel).is_zero()
                   for _, rel in system.relation_words())),
        _check("x2 -> (A'/A) x2 is a bialgebra isomorphism (10 random tails)",
               all(_x2_rescaling_is_isomorphism(
                   x_algebra(config.order, a), system) for a in others)),
    ]


def coassociativity_and_counit(config: Config) -> List[RelationCheck]:
    """Criterion 5: the deformed coproduct is coassociative and counital."""
    system = _x_system(config)
    rng = _rng(config, 505)
    elements = [system.generator(g) for g in (X1, X2, X3, EP, EM)]
    elements += [random_element(system, rng) for _ in range(50)]
    # word level: the counit kills every ideal generator
    kills = all(sum((c for word, c in rel.items() if set(word) <= {EP, EM}),
                    system.ring.zero).is_zero()
                for _, rel in system.relation_words())
    return [
        _check("coassociativity (generators + 50 random)",
               all(coalg.coassoc_defect(f).is_zero() for f in elements)),
        _check("counit axioms (generators + 50 random)",
               all(_counit_holds(f) for f in elements)),
        _check("counit kills every ideal generator", kills)]


def nontrivial_deformation(config: Config) -> List[RelationCheck]:
    """Criterion 6: the coproduct of x2*x2 is deformed at order 2, by
    (2 cosh(2 eps) - 2) x2 e+ (x) x2 e-.  Below order 2 the deformation
    lies above the truncation, so none may be visible."""
    system = _x_system(config)
    x2sq = system.star(system.generator(X2), system.generator(X2))
    diff = coalg.coproduct(x2sq) - coalg.classical_coproduct(x2sq)
    key = (PbwMonomial(0, 1, 0, 1), PbwMonomial(0, 1, 0, -1))
    # 2 cosh(2 eps) - 2 = 4 eps^2 + 4/3 eps^4 + ..., built independently
    defect = EpsSeries(
        {j: 2 * Fraction(2 ** j, math.factorial(j))
         for j in range(2, config.order + 1, 2)}, config.order)
    visible = config.order >= 2
    lowest = min((min(c.terms) for c in diff.terms.values()), default=None)
    detail = "" if visible else (
        f"the deformation starts at eps^2, above the truncation order "
        f"{config.order}")
    return [
        _check("coproduct deformation order of x2*x2 is 2",
               lowest == (2 if visible else None), detail),
        _check("Delta(x2*x2) defect is (2 cosh(2 eps) - 2) x2 e+ (x) x2 e-",
               diff.terms == ({key: defect} if visible else {}), detail),
    ]


def opposite_product_symmetry(config: Config) -> List[RelationCheck]:
    """Criterion 11: star(f, g) = flip(star(flip g, flip f)) for every f and
    g, with flip the word reversal with eps -> -eps: it maps each rule into
    the ideal, so it descends to the quotient.  A failure names the rules."""
    system = _x_system(config)
    unflipped = system.unflipped_rules()
    return [_check("the flip maps each rule into the ideal", not unflipped,
                   _names(system, unflipped))]


# -- gauge recursions -------------------------------------------------------

def gauge_solver(config: Config) -> List[RelationCheck]:
    """Criterion 7: the gauge recursion straightens the raw x1-line model,
    against the c^n_k table for n <= 12 and by identities for every n."""
    nmax = gauge.TABLE_NMAX
    model = gauge.RawX1Model({2: Fraction(1, 4)})
    fixed = gauge.verify_gauge(model, gauge.solve_gauge(model, nmax))
    rng = _rng(config, 707)
    random_ok = True
    for _ in range(20):
        b = {2 * k: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
             for k in range(1, rng.randrange(2, 7))}
        m = gauge.RawX1Model(b)
        random_ok &= gauge.verify_gauge(m, gauge.solve_gauge(m, nmax))
    c = Fraction(5, 9)
    a2 = gauge.solve_gauge(gauge.RawX1Model({2: c}), nmax).a_at(2)
    return [
        _check("gauge solver straightens b = {2: 1/4}", fixed),
        _check("gauge solver on random even b (20 draws)", random_ok),
        _check("a_2 = c/2 for b = {2: c}", a2 == c / 2),
        _check("the gauge holds for every n: falling-factorial identities "
               "in n (even k <= 40)",
               gauge.falling_factorial_identities_hold(40)),
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
               c_plus == EpsSeriesRing(order).exp(2) * c_minus),
        _check("c(+eps) * (1 - e^{-2 eps})/(2 eps) = 1",
               c_plus * gen == EpsSeries.one(order)),
    ]


# -- the numeric Poisson-Lie checks ----------------------------------------

def poisson_lemma(config: Config) -> List[RelationCheck]:
    """Criterion 10: the cocycle, the integration lemma against the closed
    form, and, exactly, multiplicativity, the Jacobi identity and the
    linear part of the bivector."""
    from . import poisson  # numpy stays off the exact criteria

    lemma = poisson.verify_integration_lemma(seed=config.seed)
    pi = poisson.BIVECTOR
    mult = poisson.multiplicativity_failures(pi)
    lin = poisson.linearization_failures(
        pi, poisson.coordinate_cobracket(poisson.DEFAULT_KAPPA))
    jac, jac_lin = (poisson.jacobiator(b) for b in (pi, poisson.linear_part(pi)))
    on_pair, on_triple = "fails first on {x%d, x%d}", "fails on (x1, x2, x3)"
    return [
        _check("cobracket is the r-matrix coboundary (exact)",
               poisson.cocycle_check(poisson.standard_sl2_data()) == 0),
        _check("integrated bivector matches closed form", lemma["passed"],
               f"kappa={lemma['kappa']:.9g} "
               f"spread={lemma['kappa_spread']:.2e} "
               f"max_residual={lemma['max_residual']:.2e}"),
        _check("Poisson-Lie multiplicativity of w", not mult,
               on_pair % mult[0] if mult else ""),
        _check("Jacobi identity of the closed-form bivector", not jac,
               on_triple if jac else ""),
        _check("Jacobi identity of the linearized bivector", not jac_lin,
               on_triple if jac_lin else ""),
        _check("linear part of the bivector is the coordinate cobracket at "
               "kappa = 8", not lin, on_pair % lin[0] if lin else ""),
    ]


# -- the enveloping algebra ---------------------------------------------------

def uh_sl2(config: Config) -> List[RelationCheck]:
    """Criterion 9: the z- and xi-relations and coproducts, the base change
    x -> xi, which carries termination, confluence and the bialgebra axioms
    of criteria 1, 4 and 5 onto xi, the limits h -> 0, eps -> 0, and xi's
    multiplication tables, which the base change does not cover."""
    checks = []
    z_sys = _x_system(config)
    checks.extend(uhsl2.z_commutators(z_sys))
    checks.extend(uhsl2.z_commutators_scaled(z_sys))
    checks.extend(uhsl2.z_coproducts(z_sys))

    xi = uhsl2.xi_algebra(config.order)
    checks.extend(uhsl2.xi_relation_checks(xi))
    checks.append(uhsl2.base_change_check(z_sys, xi))
    checks.extend(uhsl2.limits_report(xi))

    rng = _rng(config, 909)
    words = [random_word(rng, 4) for _ in range(60)]
    triples = _random_tuples(xi, rng, 15, 3)
    return checks + [_tables(xi, words, "xi "),
                     _associativity(xi, triples, "xi ")]


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
            "passed": all(c.passed for c in checks),
        }
        report["suites"].append(entry)
        report["passed"] &= entry["passed"]
    return report
