"""Coproduct, counit, and the bialgebra verifications.

The coproduct is fixed on generators (x1 primitive, the exponential letters
group-like, x2/x3 twisted-primitive with exponential legs) and extended to
words multiplicatively with respect to the star product.  Everything here
computes in the quotient: tensor legs are kept normal-formed, so an element
of the ideal tensor-plus-tensor-ideal subspace is recognized by literal
vanishing.  That turns the coideal condition, coassociativity, and the
counit axioms into exact zero tests on finitely many terms.

The loops sum products of coefficients in one ``series.ProductSums`` per
call, which lifts each scalar once in its lifetime, takes lifted products
with no gcd and reduces each output coefficient once; this module never
sees the lifted form.  A unit scalar is ``ring.one`` itself and is skipped
by identity.  All coefficients of a system's tensors and elements are
scalars of its ring.

The scalars of both caches are interned on the system's ring
(``_SeriesRing._intern``): equal values are one object, so a warm cache of
thousands of scalars holds a few hundred values.  ``star_tensor``
multiplies the scalars of its last two legs through the ring's pair table
(``_SeriesRing._pair``), so each term of a product of tensors takes one
lifted product, and each product of two cached scalars is taken once.
"""

from __future__ import annotations

from typing import Mapping

from .ncalg import (
    Combination, NCElement, PbwMonomial, RewriteSystem, UNIT, Word, add_term,
    monomial_str,
)
from .series import ProductSums


class TensorElement(Combination):
    """Sum of elementary tensors of basis monomials with series coefficients.

    ``legs`` is 2 for coproduct values and 3 for the coassociativity defect;
    only tensors of one system and one ``legs`` combine.  All legs are
    stored in PBW normal form.
    """

    __slots__ = ("legs",)

    def __init__(self, system: RewriteSystem, terms: Mapping, legs: int = 2):
        super().__init__(system, terms)
        self.legs = legs

    def _compatible(self, other) -> bool:
        return super()._compatible(other) and self.legs == other.legs

    def _new(self, terms) -> "TensorElement":
        return TensorElement(self.system, terms, self.legs)

    def coefficient(self, key):
        key = tuple(k if isinstance(k, PbwMonomial) else PbwMonomial(*k)
                    for k in key)
        return self.terms.get(key, self.system.ring.zero)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return star_tensor(self, other)
        return self.scale(other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            tensor = " (x) ".join(monomial_str(self.system, m) for m in key)
            parts.append(f"({c}) * [{tensor}]")
        return "  +  ".join(parts)

    def __repr__(self) -> str:
        return f"<TensorElement legs={self.legs} {self}>"

    def to_json(self) -> dict:
        names = {2: ("left", "right"), 3: ("left", "middle", "right")}[self.legs]
        out = []
        for key in sorted(self.terms):
            entry = {}
            for name, mono in zip(names, key):
                entry[name] = {"n1": mono.n1, "n2": mono.n2,
                               "n3": mono.n3, "m": mono.m}
            entry["coeff"] = self.terms[key].to_json()
            out.append(entry)
        return {"terms": out}


def tensor_unit(system: RewriteSystem, legs: int = 2) -> TensorElement:
    return TensorElement(system, {(UNIT,) * legs: system.ring.one}, legs)


def star_tensor(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise star product of tensors (no braiding).

    A term is the product of the two coefficients, times the basis-star
    scalars of the legs before the last two, times one pair product of the
    last two (the ring's ``_pair``)."""
    s._check(t)
    system = s.system
    sums = ProductSums(system.ring)
    times, add, pair = sums.times, sums.add, system.ring._pair
    before = range(s.legs - 2)  # the legs before the last two
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            # per-leg basis products: heads over the legs before the last two
            heads = [((), times(ca, cb))]
            for i in before:
                heads = [(key + (m,), times(p, c)) for key, p in heads
                         for m, c in system._basis_star(ka[i], kb[i]).items()]
            first = system._basis_star(ka[-2], kb[-2]).items()
            last = system._basis_star(ka[-1], kb[-1]).items()
            for key, p in heads:
                for m, c in first:
                    for m2, c2 in last:
                        add(key + (m, m2), p, pair(c, c2))
    return TensorElement(system, sums.coefficients(), s.legs)


def _word_coproduct(system: RewriteSystem, word: Word) -> TensorElement:
    """Star product of the generator coproducts of the letters of a word.

    Both legs are reduced in the quotient as the product is built up, so the
    result is the image in (F/I) (x) (F/I).
    """
    t = tensor_unit(system)
    for letter in word:
        t = star_tensor(t, TensorElement(system, system.coproduct_table[letter]))
    return t


def _monomial_coproduct(system: RewriteSystem, mono: PbwMonomial) -> dict:
    """Coproduct of a basis monomial as a terms dict; cached on the system."""
    cached = system._coproduct_cache.get(mono)
    if cached is None:
        intern = system.ring._intern
        cached = {key: intern(c) for key, c
                  in _word_coproduct(system, mono.word()).terms.items()}
        system._coproduct_cache[mono] = cached
    return cached


def coproduct(f: NCElement) -> TensorElement:
    """The deformed coproduct, extended star-multiplicatively to all of F."""
    system = f.system
    sums = ProductSums(system.ring)
    for mono, c in f.terms.items():
        for key, cc in _monomial_coproduct(system, mono).items():
            sums.add(key, c, cc)
    return TensorElement(system, sums.coefficients())


def coideal_check(system: RewriteSystem, relation: Mapping) -> TensorElement:
    """Image of an ideal generator, a {word: coefficient} map, under the
    coproduct, reduced in the quotient.

    The two-sided ideal is a coideal exactly when this vanishes for every
    generator; a nonzero result flags an inconsistent relation set.
    """
    sums = ProductSums(system.ring)
    for word, c in relation.items():
        for key, cc in _word_coproduct(system, word).terms.items():
            sums.add(key, c, cc)
    return TensorElement(system, sums.coefficients())


def _expand_leg(t: TensorElement, leg: int) -> TensorElement:
    """Apply the coproduct to one leg of a tensor, splicing in the new pair."""
    system = t.system
    sums = ProductSums(system.ring)
    for key, c in t.terms.items():
        for pair, cc in _monomial_coproduct(system, key[leg]).items():
            sums.add(key[:leg] + pair + key[leg + 1:], c, cc)
    return TensorElement(system, sums.coefficients(), t.legs + 1)


def coassoc_defect(f: NCElement) -> TensorElement:
    """(Delta (x) id) Delta f - (id (x) Delta) Delta f; zero iff coassociative."""
    d = coproduct(f)
    return _expand_leg(d, 0) - _expand_leg(d, 1)


def counit(f: NCElement):
    """Counit: kills x1, x2, x3, sends all exponential letters to 1.

    Extended star-multiplicatively; on basis monomials it keeps exactly the
    pure-exponential ones.  The bialgebra axioms for this choice are
    established by the test suite, not assumed.
    """
    acc = f.system.ring.zero
    for mono, c in f.terms.items():
        if mono.n1 == 0 and mono.n2 == 0 and mono.n3 == 0:
            acc = acc + c
    return acc


def counit_contract(t: TensorElement, side: str) -> NCElement:
    """(ct (x) id) or (id (x) ct) applied to a 2-leg tensor."""
    out = {}
    for (left, right), c in t.terms.items():
        if side == "left":
            keep, kill = right, left
        else:
            keep, kill = left, right
        if kill.n1 == 0 and kill.n2 == 0 and kill.n3 == 0:
            add_term(out, keep, c)
    return NCElement(t.system, out)


def classical_coproduct(f: NCElement) -> TensorElement:
    """The undeformed coproduct: generator table extended with the
    commutative product on both legs."""
    system = f.system
    out = {}
    for mono, c in f.terms.items():
        t = tensor_unit(system)
        for letter in mono.word():
            letter_cop = system.coproduct_table[letter]
            acc = {}
            for key, cc in t.terms.items():
                for pair, c2 in letter_cop:
                    add_term(acc, tuple(a.classical_mul(b) for a, b in zip(key, pair)),
                             cc * c2)
            t = TensorElement(system, acc)
        for key, cc in t.terms.items():
            add_term(out, key, cc * c)
    return TensorElement(system, out)
