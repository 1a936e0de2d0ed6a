"""Coproduct machinery: generator table, coideal, coassociativity, counit."""

import math
import random
from fractions import Fraction

import pytest

from sl2star import checks, coalg
from sl2star._backend import kernel
from sl2star.config import Config
from sl2star.coalg import (
    TensorElement,
    classical_coproduct,
    coassoc_defect,
    coideal_check,
    coproduct,
    counit,
    counit_contract,
    star_tensor,
    tensor_unit,
)
from sl2star.ncalg import (
    EM, EP, PbwMonomial, RewriteSystem, UNIT, X1, X2, X3, random_element,
    random_word, x_algebra,
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


ISO = "x2 -> (A'/A) x2 is a bialgebra isomorphism (10 random tails)"


@pytest.mark.parametrize("wrong", [
    lambda scale, source, target: source.ring.one,
    lambda scale, source, target: scale(source, target)
    + source.ring.eps_power(1, 2),
], ids=["u=1", "u+eps^2"])
def test_criterion_04_sees_a_wrong_x2_scale(monkeypatch, wrong):
    """x2 -> x2 and x2 -> (A'/A + eps^2) x2 break the x3-x2 rule for a
    tail A' other than 4, and fail the isomorphism line alone."""
    scale = checks._x2_scale
    monkeypatch.setattr(checks, "_x2_scale",
                        lambda source, target: wrong(scale, source, target))
    assert {c.name for c in checks.coideal(Config()) if not c.passed} == {ISO}


def test_x2_rescaling_maps_any_a_onto_a_4():
    """From A' = (4, 1), (-3, 1/5) and (2, 0, 7), at orders 1, 8 and 16;
    from (4, 1) the scale is u = 1 + eps^2/4."""
    for order in (1, 8, 16):
        target = x_algebra(order)
        for a in [(4, 1), (-3, Fraction(1, 5)), (2, 0, 7)]:
            assert checks._x2_rescaling_is_isomorphism(
                x_algebra(order, a), target), (order, a)
    source, target = x_algebra(8, (4, 1)), x_algebra(8)
    assert checks._x2_scale(source, target) \
        == target.ring.even([1, Fraction(1, 4)])


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
    rel = comm - sinh * xsys.ring.eps_power(4, 1)  # eps A with A = 4
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
    """The lowest eps exponent at which the coproduct deviates from the
    classical one: 2 for x2*x2, none for the generators x1 and e+."""
    def lowest(f):
        diff = coproduct(f) - classical_coproduct(f)
        return min((min(c.terms) for c in diff.terms.values()), default=None)
    x2 = xsys.generator(X2)
    assert lowest(xsys.star(x2, x2)) == 2
    assert lowest(xsys.generator(X1)) is None
    assert lowest(xsys.generator(EP)) is None


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


# -- the fused loops against a term-by-term oracle ---------------------------

class Ref:
    """A scalar as {key: Fraction}, multiplied term by term and truncated by
    degree, with no lifting, no common denominator and no kernel: the
    oracle of the fused products."""

    def __init__(self, terms, bound):
        self.terms, self.bound = terms, bound

    @classmethod
    def of(cls, c):
        return cls({k: Fraction(*q) for k, q in c.terms.items()}, c._bound)

    def __mul__(self, other):
        out = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                k = a + b if isinstance(a, int) else (a[0] + b[0], a[1] + b[1])
                if (k if isinstance(k, int) else sum(k)) <= self.bound:
                    out[k] = out.get(k, 0) + x * y
        return Ref(out, self.bound)

    def __add__(self, other):
        out = dict(self.terms)
        for k, x in other.terms.items():
            out[k] = out.get(k, 0) + x
        return Ref(out, self.bound)

    def __neg__(self):
        return Ref({k: -x for k, x in self.terms.items()}, self.bound)


def refs(combination):
    return {k: Ref.of(c) for k, c in combination.terms.items()}


def ref_add(out, key, r):
    out[key] = out[key] + r if key in out else r


def ref_star(f, g):
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            for m, c in f.system._basis_star(ma, mb).items():
                ref_add(out, m, Ref.of(ca) * Ref.of(cb) * Ref.of(c))
    return out


def ref_star_tensor(system, s, t):
    """Componentwise product of two {key: Ref} tensors of any legs."""
    out = {}
    for ka, ra in s.items():
        for kb, rb in t.items():
            keys = [((), ra * rb)]
            for ma, mb in zip(ka, kb):
                keys = [(key + (m,), r * Ref.of(c)) for key, r in keys
                        for m, c in system._basis_star(ma, mb).items()]
            for key, r in keys:
                ref_add(out, key, r)
    return out


def ref_word_coproduct(system, word):
    """The product of the letters' coproducts, with no cache."""
    t = {(UNIT, UNIT): Ref.of(system.ring.one)}
    for letter in word:
        t = ref_star_tensor(system, t, refs(
            TensorElement(system, system.coproduct_table[letter])))
    return t


def ref_coproduct(f):
    out = {}
    for mono, c in f.terms.items():
        for key, r in ref_word_coproduct(f.system, mono.word()).items():
            ref_add(out, key, r * Ref.of(c))
    return out


def ref_coideal(system, relation):
    out = {}
    for word, c in relation.items():
        for key, r in ref_word_coproduct(system, word).items():
            ref_add(out, key, r * Ref.of(c))
    return out


def ref_expand_leg(system, t, leg):
    out = {}
    for key, r in t.items():
        for pair, r2 in ref_word_coproduct(system, key[leg].word()).items():
            ref_add(out, key[:leg] + pair + key[leg + 1:], r * r2)
    return out


def assert_matches(result, oracle):
    """Exact equality with the oracle, zeros dropped, and every coefficient
    equal to 1 the ring's ``one`` itself."""
    want = {}
    for key, r in oracle.items():
        payload = {k: (q.numerator, q.denominator)
                   for k, q in r.terms.items() if q}
        if payload:
            want[key] = payload
    assert {k: c.terms for k, c in result.terms.items()} == want
    one = result.system.ring.one
    assert all(c is one for c in result.terms.values() if c == 1)


def larger_element(system, rng):
    return random_element(system, rng, max_terms=5, max_word=4)


def top_element(system, rng):
    """A random element times eps^3, so that products cross the truncation."""
    return larger_element(system, rng) * system.ring.eps_power(1, 3)


def assert_star_tensor(system, s, t):
    """``star_tensor(s, t)`` against the oracle twice: first with the pair
    table emptied, so that every product of two cached scalars is taken
    anew, then with the table that run filled."""
    want = ref_star_tensor(system, refs(s), refs(t))
    pairs = system.ring._pairs
    pairs.clear()
    assert_matches(star_tensor(s, t), want)
    filled = dict(pairs)
    assert_matches(star_tensor(s, t), want)
    assert pairs == filled


@pytest.mark.parametrize("make_system, make_element", [
    (lambda: x_algebra(8), larger_element),
    (lambda: x_algebra(8, (4, 1)), larger_element),
    (lambda: x_algebra(8), top_element),
    (lambda: xi_algebra(8), larger_element),
], ids=["x", "x-a-tail", "x-top", "xi"])
def test_payload_loops_match_series_arithmetic(make_system, make_element):
    """``star``, ``coproduct``, ``star_tensor`` on 2 and 3 legs (with an
    empty and with a full pair table), ``_expand_leg``, ``coassoc_defect``
    and ``coideal_check`` against the term-by-term oracle, on random
    elements and tensors."""
    system = make_system()
    rng = random.Random(31)
    for _ in range(4):
        f = make_element(system, rng)
        g = make_element(system, rng)
        fg = system.star(f, g)
        assert_matches(fg, ref_star(f, g))
        df, dg = coproduct(f), coproduct(g)
        assert_matches(df, ref_coproduct(f))
        assert_matches(dg, ref_coproduct(g))
        assert_matches(coproduct(fg), ref_coproduct(fg))
        assert_star_tensor(system, df, dg)
        left, right = (ref_expand_leg(system, refs(df), leg) for leg in (0, 1))
        assert_matches(coalg._expand_leg(df, 0), left)
        assert_matches(coalg._expand_leg(df, 1), right)
        defect = dict(left)
        for key, r in right.items():
            ref_add(defect, key, -r)
        assert_matches(coassoc_defect(f), defect)
        # coassociativity itself, in the oracle and in the fused loops
        assert not any(any(r.terms.values()) for r in defect.values())
        assert coassoc_defect(f).is_zero()
        relation = {random_word(rng, 3): c
                    for c in make_element(system, rng).terms.values()}
        assert_matches(coideal_check(system, relation),
                       ref_coideal(system, relation))
    # unit coefficients, which the loops must give as ``ring.one`` itself
    x2, x3 = system.generator(X2), system.generator(X3)
    h = system.star(x2, x3)
    assert_matches(h, ref_star(x2, x3))
    assert_matches(coproduct(h), ref_coproduct(h))
    assert any(c is system.ring.one for c in coproduct(h).terms.values())
    assert_star_tensor(system, coproduct(x2), coproduct(x3))
    # three legs, on small elements
    f = random_element(system, rng, max_terms=2, max_word=2)
    g = random_element(system, rng, max_terms=2, max_word=2)
    s, t = coalg._expand_leg(coproduct(f), 0), coalg._expand_leg(coproduct(g), 1)
    assert s.legs == t.legs == 3
    assert_star_tensor(system, s, t)


def test_unit_coefficients_are_the_ring_unit(xsys):
    """The loops skip a unit scalar by identity, so a coefficient equal to 1
    must be ``ring.one`` itself, also in the coproduct cache."""
    d = coproduct(xsys.star(xsys.generator(X2), xsys.generator(X3)))
    units = [c for c in d.terms.values() if c == 1]
    assert len(units) == 2
    assert all(c is xsys.ring.one for c in units)


def _record_systems(monkeypatch) -> list:
    """The rewrite systems built from now on, in order."""
    systems = []
    build = RewriteSystem.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        systems.append(self)

    monkeypatch.setattr(RewriteSystem, "__init__", recording)
    return systems


def test_cached_lifts_are_those_of_their_terms(monkeypatch):
    """After one ``check bialgebra`` and a 20-word fold, every cached table,
    basis-star and coproduct scalar's ``lifted()`` equals a fresh
    ``kernel.lift`` of its terms and is held in tuples, so no kernel step
    can have changed it."""
    systems = _record_systems(monkeypatch)
    assert checks.run_suite("bialgebra", Config())["passed"]
    rng = random.Random(20)
    for system in (systems[0], xi_algebra(8)):
        for _ in range(20):
            system.normal_form(random_word(rng, 12))

    def scalars(system):
        yield from system._scalars.values()
        yield from system._x1_shifts.values()
        for row in (*system._powers.values(), *system._sums.values(),
                    *system._x2_rows.values()):
            yield from row
        for terms in (*system._star_cache.values(),
                      *system._coproduct_cache.values()):
            yield from terms.values()

    cached = 0
    for system in systems:
        for c in scalars(system):
            if hasattr(c, "_lifted"):
                cached += 1
                codes, den = c.lifted()
                assert type(codes) is tuple
                assert all(type(t) is tuple for t in codes)
                fresh, fresh_den = kernel.lift(c.terms, c._SPAN)
                assert (codes, den) == (tuple(sorted(fresh)), fresh_den)
    assert len({s.ring.kind for s in systems}) == 2
    assert cached > 1000


@pytest.mark.parametrize("order", [8, 16])
def test_cached_scalars_are_hash_consed(monkeypatch, order):
    """After one ``check bialgebra`` and some coproducts and tensor products
    on x and xi: equal-valued cached scalars are one object, a cached unit
    is ``ring.one`` itself, and every pair-table entry sits under the ids
    of its two factors and holds their product, interned.  ``_pair`` of
    any two cached values is their product, and e^{2eps} e^{-2eps} pairs to
    ``ring.one``."""
    systems = _record_systems(monkeypatch)
    assert checks.run_suite("bialgebra", Config(order=order))["passed"]
    xi = xi_algebra(order)
    rng = random.Random(25)
    for system in (systems[0], xi):
        for _ in range(6):
            f = random_element(system, rng, max_terms=3, max_word=3)
            g = random_element(system, rng, max_terms=3, max_word=3)
            star_tensor(coproduct(f), coproduct(g))
    assert xi in systems
    for system in systems:
        ring = system.ring
        one = ring.one
        interned = ring._interned
        cached = [c for terms in (*system._star_cache.values(),
                                  *system._coproduct_cache.values())
                  for c in terms.values()]
        objects = {}
        for c in cached:
            objects.setdefault(c.lifted(), set()).add(id(c))
        assert all(len(ids) == 1 for ids in objects.values())
        assert all(c is one for c in cached if c == 1)
        assert all(interned[c.lifted()] is c for c in cached)
        for key, (c, c2, p) in ring._pairs.items():
            assert key == (id(c), id(c2))
            assert p == c * c2
            assert interned[p.lifted()] is p
        values = [interned[k] for k in sorted(objects)[:12]]
        for c in values:
            for c2 in values:
                assert ring._pair(c, c2) == c * c2
        if ring.kind == "eps":
            up, down = ring.exp(2), ring.exp(-2)
        else:
            up, down = ring.exp(2, 1, 0), ring.exp(-2, 1, 0)
        assert ring._pair(ring._intern(up), ring._intern(down)) is one
    assert systems[0].ring._pairs and xi.ring._pairs
