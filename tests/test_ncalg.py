"""Normal ordering, star products, and their structural properties."""

import importlib.util
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from sl2star import poisson
from sl2star.expr import evaluate, parse
from sl2star.ncalg import (
    EM, EP, NCElement, PbwMonomial, RewriteSystem, X1, X2, X3, X_SYMBOLS,
    add_term, measure, pbw_rules, random_element, random_word,
    rules_raising_measure, word_to_monomial, x_algebra,
)
from sl2star.uhsl2 import xi_algebra


def eps_el(system, value, k=1):
    return system.ring.eps_power(value, k)


def unmerged_normal_form(system, word):
    """The reference walk: a stack of (word, coefficient) paths, leftmost
    redex first, that never merges equal words."""
    one = system.ring.one
    pending = [(tuple(word), one)]
    out = {}
    while pending:
        word, coeff = pending.pop()
        positions = system.reducible_positions(word)
        if not positions:
            add_term(out, word_to_monomial(word), coeff)
            continue
        i = positions[0]
        for repl, c in system.rules[(word[i], word[i + 1])]:
            new_coeff = coeff if c is one else coeff * c
            if not new_coeff.is_zero():
                pending.append((word[:i] + repl + word[i + 2:], new_coeff))
    return NCElement(system, out)

def strategy_normal_form(system, word, choose):
    """A merged walk like ``rewrite`` that reduces the redex ``choose`` picks
    from the reducible positions of each word, so the reduced form can be
    compared across redex strategies."""
    one = system.ring.one
    pending = {tuple(word): one}
    out = {}
    while pending:
        word = max(pending, key=measure)  # rules lower it: reduced once
        coeff = pending.pop(word)
        if coeff.is_zero():
            continue
        positions = system.reducible_positions(word)
        if not positions:
            add_term(out, word_to_monomial(word), coeff)
            continue
        i = choose(positions)
        for repl, c in system.rules[(word[i], word[i + 1])]:
            new_word = word[:i] + repl + word[i + 2:]
            new_coeff = coeff if c is one else coeff * c
            cur = pending.get(new_word)
            pending[new_word] = new_coeff if cur is None else cur + new_coeff
    return NCElement(system, out)


def redex_strategies(seed):
    """Rightmost, middle and seeded random redex choices; ``rewrite`` takes
    the leftmost."""
    rng = random.Random(seed)
    return {
        "rightmost": lambda positions: positions[-1],
        "middle": lambda positions: positions[len(positions) // 2],
        "random": lambda positions: positions[rng.randrange(len(positions))],
    }


def xi_inversions(word):
    """Number of xi3-before-xi2 pairs: each can leave one 1/h."""
    return sum(word[i + 1:].count(X2) for i, g in enumerate(word) if g == X3)


def family_word(n):
    return (X3,) * n + (X2,) * n + (X1,) * n + (EM, EM)


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


def test_rewrite_oracle_on_a_three_letter_word(xsys):
    """The rewritten expansion of x3 x2 x1 against the star of the generator
    chain and the table normal form."""
    word = (X3, X2, X1)
    base = xsys.rewrite(word)
    via_star = xsys.star(xsys.star(xsys.generator(X3), xsys.generator(X2)),
                         xsys.generator(X1))
    assert via_star == base == xsys.normal_form(word)
    assert len(base.terms) == 3


@pytest.mark.parametrize("system", [x_algebra(8), x_algebra(8, (4, 1))],
                         ids=["x", "x-tail"])
def test_merged_reduction_matches_the_unmerged_walk(system):
    rng = random.Random(909)
    for _ in range(200):
        w = random_word(rng, 8)
        assert system.rewrite(w) == unmerged_normal_form(system, w), w


def test_merged_reduction_matches_the_unmerged_walk_on_xi_words():
    system = xi_algebra(8)
    rng = random.Random(910)
    words = []
    while len(words) < 100:
        w = random_word(rng, 7)
        if xi_inversions(w) <= 2:
            words.append(w)
    for w in words:
        assert system.rewrite(w) == unmerged_normal_form(system, w), w


def test_strategy_agreement_random_words(xsys, rng):
    for _ in range(60):
        w = random_word(rng, 6)
        base = xsys.rewrite(w)
        for name, choose in redex_strategies(3).items():
            assert strategy_normal_form(xsys, w, choose) == base, (w, name)


def test_strategy_agreement_long_words(xsys):
    rng = random.Random(911)
    letters = (X1, X2, X3, EP, EM)
    for _ in range(40):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(9, 12)))
        base = xsys.rewrite(w)
        for name, choose in redex_strategies(7).items():
            assert strategy_normal_form(xsys, w, choose) == base, (w, name)


def test_each_word_is_reduced_once(xsys, monkeypatch):
    seen = []
    reducible = RewriteSystem.reducible_positions

    def counting(self, word):
        seen.append(word)
        return reducible(self, word)

    monkeypatch.setattr(RewriteSystem, "reducible_positions", counting)
    xsys.rewrite(family_word(4))
    assert len(seen) == len(set(seen)) == 637


TABLE_SYSTEMS = {
    "x": lambda: x_algebra(8),
    "x-tail": lambda: x_algebra(8, (4, 1)),
    "xi": lambda: xi_algebra(8),
}
LETTERS = (X1, X2, X3, EP, EM)


@pytest.mark.parametrize("name", TABLE_SYSTEMS)
def test_tables_match_rewriting_on_every_short_word(name):
    system = TABLE_SYSTEMS[name]()
    for k in range(6):
        for w in itertools.product(LETTERS, repeat=k):
            assert system.normal_form(w) == system.rewrite(w), w


@pytest.mark.parametrize("name", TABLE_SYSTEMS)
def test_tables_match_rewriting_on_long_words(name):
    """300 seeded words of 6-12 letters; xi words keep at most two
    xi3-before-xi2 pairs, as deeper ones leave the h floor of -2."""
    system = TABLE_SYSTEMS[name]()
    rng = random.Random(912)
    words = []
    while len(words) < 300:
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(6, 12)))
        if name != "xi" or xi_inversions(w) <= 2:
            words.append(w)
    for w in words:
        assert system.normal_form(w) == system.rewrite(w), w


@pytest.mark.parametrize("name", TABLE_SYSTEMS)
def test_basis_star_matches_rewriting(name):
    """Every basis pair of total degree <= 4.  The cache interns its
    scalars, so a cached coefficient equal to 1 is ``ring.one`` itself, also
    where rewriting leaves a unit of its own (e^{-4eps} e^{4eps} in e-^2 x2
    x3)."""
    system = TABLE_SYSTEMS[name]()
    one = system.ring.one
    monos = [PbwMonomial(a, b, c, m) for a in range(5) for b in range(5)
             for c in range(5) for m in range(-4, 5)
             if a + b + c + abs(m) <= 4]
    pairs = [(ma, mb) for ma in monos for mb in monos
             if sum(map(abs, ma)) + sum(map(abs, mb)) <= 4]
    assert len(pairs) == 870
    for ma, mb in pairs:
        table = system._basis_star(ma, mb)
        rewritten = system.rewrite(ma.word() + mb.word()).terms
        assert table == rewritten, (ma, mb)
        units = {k for k, c in table.items() if c == 1}
        assert {k for k, c in table.items() if c is one} == units, (ma, mb)
        assert {k for k, c in rewritten.items() if c is one} <= units, (ma, mb)


@pytest.mark.parametrize("order", [1, 8, 16])
@pytest.mark.parametrize("algebra", ["x", "xi"])
def test_tables_match_rewriting_on_long_words_at_every_order(algebra, order):
    """x3^n x2^n x1^n e-^k for n <= 6 and 40 seeded words of 13-20 letters
    (xi words with at most two xi3-before-xi2 pairs): the fold keeps its
    coefficients lifted across many letters, and the rewriting oracle keeps
    plain series arithmetic.  A folded coefficient equal to 1 is
    ``ring.one`` itself, and so is every one that rewriting leaves as
    ``ring.one``."""
    system = (x_algebra if algebra == "x" else xi_algebra)(order)
    one = system.ring.one
    rng = random.Random(2024)
    words = [(X3,) * n + (X2,) * n + (X1,) * n + (EM,) * k
             for n in range(7) for k in (0, 3)]
    while len(words) < 14 + 40:
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(13, 20)))
        if algebra == "x" or xi_inversions(w) <= 2:
            words.append(w)
    for w in words:
        folded = system.normal_form(w).terms
        rewritten = system.rewrite(w).terms
        assert folded == rewritten, w
        units = {k for k, c in folded.items() if c == 1}
        assert {k for k, c in folded.items() if c is one} == units, w
        assert {k for k, c in rewritten.items() if c is one} <= units, w


def test_a_unit_left_by_the_fold_is_ring_one(xsys):
    """e-^2 x2 x3 is x2 x3 e-^2 with the scalar e^{-4eps} e^{4eps}: the
    fold returns that unit as ``ring.one`` itself, not as a fresh series."""
    terms = xsys.normal_form((EM, EM, X2, X3)).terms
    assert terms == {PbwMonomial(0, 1, 1, -2): xsys.ring.one}
    assert terms[PbwMonomial(0, 1, 1, -2)] is xsys.ring.one


def test_tables_equal_rewriting_on_words_with_deep_h_poles():
    """xi words of up to 6 letters with three or more xi3-before-xi2 pairs:
    the two paths agree on every one.  The five words with three xi3 and
    three xi2 letters keep an h^-3 in their normal forms."""
    system = xi_algebra(8)
    deep = []
    for k in range(7):
        for w in itertools.product(LETTERS, repeat=k):
            if xi_inversions(w) < 3:
                continue
            expected = system.rewrite(w)
            assert system.normal_form(w) == expected, w
            if min(c.h_pole_order() for c in expected.terms.values()) < -2:
                deep.append(w)
    assert len(deep) == 5
    assert all(sorted(w) == [X2] * 3 + [X3] * 3 for w in deep)


def test_rules_of_another_layout_are_refused(xsys):
    """The tables are read from the layout of pbw_rules; a system with
    other rules would not multiply by them, so it is refused."""
    one = xsys.ring.one
    extra = dict(xsys.rules)
    extra[(X2, X2)] = [((X2, X2), one)]
    with pytest.raises(ValueError, match="eleven pairs"):
        RewriteSystem(xsys.ring, extra, xsys.symbols)
    reordered = dict(xsys.rules)
    reordered[(X3, X2)] = xsys.rules[(X3, X2)][::-1]
    with pytest.raises(ValueError, match="not laid out"):
        RewriteSystem(xsys.ring, reordered, xsys.symbols)
    scaled = dict(xsys.rules)
    scaled[(EP, EM)] = [((), xsys.ring.constant(2))]
    with pytest.raises(ValueError, match="not laid out"):
        RewriteSystem(xsys.ring, scaled, xsys.symbols)


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's representation oracle, loaded read-only by path."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", range(2, 7))
def test_long_family_matches_the_representation_oracle(xsys, oracle, n):
    """x3^n x2^n x1^n e-^2 against the matrices of its letters on a weight
    module; the merged reduction keeps each n well under a second."""
    word = family_word(n)
    start = time.perf_counter()
    nf = xsys.normal_form(word)
    assert time.perf_counter() - start < 1.0
    module = oracle.WeightModule("x", 2 * n)
    assert module.normal_form_error(word, nf.terms) <= oracle.TOLERANCE


def test_plain_int_letters_are_gen_letters(xsys):
    assert xsys.normal_form((1, 2, 3)) == xsys.normal_form((X1, X2, X3))
    assert xsys.normal_form((3, 2, 1, 5)) == xsys.normal_form((X3, X2, X1, EM))
    assert word_to_monomial((1, 1, 3, 5)) == PbwMonomial(2, 0, 1, -1)
    for bad in [(7,), (X1, 0), ("x1",)]:
        with pytest.raises(ValueError, match="unknown letter"):
            xsys.normal_form(bad)
        with pytest.raises(ValueError, match="unknown letter"):
            word_to_monomial(bad)


def test_termination_measure_decreases():
    """Every replacement word of every rule is below its rule pair."""
    for make in TABLE_SYSTEMS.values():
        assert rules_raising_measure(make().rules) == []


def test_the_measure_check_finds_a_rule_that_raises_the_measure(xsys):
    rules = dict(xsys.rules)
    rules[(X2, X1)] = rules[(X2, X1)] + [((X3, X1, X1), xsys.ring.one)]
    rules[(EP, EM)] = [((EM, EP), xsys.ring.one)]
    assert rules_raising_measure(rules) == [(X2, X1), (EP, EM)]


@pytest.mark.parametrize("name", TABLE_SYSTEMS)
def test_every_overlap_resolves(name):
    """The 15 words (a, b, c) with (a, b) and (b, c) both rules rewrite to
    the same result from either side: the finite confluence check of the
    diamond lemma."""
    system = TABLE_SYSTEMS[name]()
    overlaps = [(a, b, c) for a, b in system.rules for b2, c in system.rules
                if b2 == b]
    assert len(overlaps) == 15
    assert system.unresolved_overlaps() == []


def test_the_overlap_check_finds_a_wrong_scalar(xsys):
    """e+ moving past x2 with e^{3 eps} instead of e^{2 eps}: six of the 15
    overlaps no longer resolve, e+- before x3 x2 and e+ e- or e- e+ before
    x2 or x3, where the scalar no longer inverts its partner."""
    ring = xsys.ring
    rules = pbw_rules(ring.one, ring.eps_power(2, 1), ring.eps_power(4, 1),
                      ring.exp(3), ring.exp(-2))
    bad = RewriteSystem(ring, rules, X_SYMBOLS)
    assert bad.unresolved_overlaps() == [
        (EP, X3, X2), (EP, EM, X2), (EP, EM, X3),
        (EM, X3, X2), (EM, EP, X2), (EM, EP, X3)]


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
    assert lhs == sinh2x1 * eps_el(xsys, 4)  # eps A with A = 4


def test_star_power_of_x1_is_undeformed(xsys):
    x1 = xsys.generator(X1)
    for n in range(2, 6):
        assert (x1 ** n).terms == {PbwMonomial(n, 0, 0, 0): xsys.ring.one}


def test_star_powers_equal_repeated_products(xsys, rng):
    f = random_element(xsys, rng)
    product = xsys.one
    for n in range(10):
        assert f ** n == product, n
        product = product * f


def test_star_power_is_binary():
    """x1 ** 1000 takes O(log n) star products, each adding at most one
    basis-pair entry to the cache."""
    system = x_algebra(8)
    x1 = system.generator(X1)
    assert (x1 ** 1000).terms == {PbwMonomial(1000, 0, 0, 0): system.ring.one}
    assert len(system._star_cache) <= 2 * math.ceil(math.log2(1000))


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


def test_classical_mul():
    """The commutative product of basis monomials adds exponents."""
    x1, x2 = PbwMonomial(1, 0, 0, 0), PbwMonomial(0, 1, 0, 0)
    assert x2.classical_mul(x1) == PbwMonomial(1, 1, 0, 0)
    assert PbwMonomial(0, 0, 0, 1).classical_mul(PbwMonomial(0, 0, 0, -1)) \
        == PbwMonomial(0, 0, 0, 0)
    assert PbwMonomial(1, 1, 0, 0).classical_mul(PbwMonomial(0, 0, 0, 2)) \
        == PbwMonomial(1, 1, 0, 2)


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
    for (i, j), bracket in poisson.BIVECTOR.items():
        comm = xsys.commutator(gens[i], gens[j])
        eps1 = {m: c.coefficient(1) for m, c in comm.terms.items()
                if c.coefficient(1)}
        assert eps1 == {mono: 2 * c for mono, c in bracket.items()}


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
    assert sysA.unresolved_overlaps() == []
    assert sysA.rewrite(w) == sysA.normal_form(w)
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
