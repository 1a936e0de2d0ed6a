"""Noncommutative words, normal ordering, and the star product.

The algebra is generated by three polynomial letters and a pair of mutually
inverse exponential letters.  A fixed oriented rewrite system moves every
word into the ordered basis form ``x1^n1 x2^n2 x3^n3 e^(m x1)``; the star
product of two basis words is the normal form of their concatenation.  Both
algebras share one presentation (``pbw_rules``) with different scalars: the
one-parameter algebra (``x_algebra``), with even free parameter series A on
the x2-x3 relation, and the two-parameter variant built in
:mod:`sl2star.uhsl2`.  Elements and tensors are both sums of keys with
series coefficients, on the one base class ``Combination``.

Rewriting terminates because every rule strictly decreases the triple
(number of x2/x3 letters, word length, inversion count) lexicographically;
confluence is not assumed anywhere and is exercised by the test suite via
randomized strategies.
"""

from __future__ import annotations

import itertools
import random
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .series import (
    EpsSeriesRing,
    RationalLike,
    SeriesConfigError,
)


class Gen(IntEnum):
    """The five-letter alphabet; EP/EM are the exponential letters."""

    X1 = 1
    X2 = 2
    X3 = 3
    EP = 4
    EM = 5


X1, X2, X3, EP, EM = Gen.X1, Gen.X2, Gen.X3, Gen.EP, Gen.EM

# order used for sorting and inversion counting; the two exponential
# letters share a rank (their mixed pairs cancel instead of commuting)
_RANK = {X1: 1, X2: 2, X3: 3, EP: 4, EM: 4}

Word = tuple


class PbwMonomial(NamedTuple):
    """Ordered basis word x1^n1 x2^n2 x3^n3 e^(m x1); m may be negative."""

    n1: int
    n2: int
    n3: int
    m: int

    def word(self) -> Word:
        e = (EP,) * self.m if self.m >= 0 else (EM,) * (-self.m)
        return (X1,) * self.n1 + (X2,) * self.n2 + (X3,) * self.n3 + e

    def classical_mul(self, other: "PbwMonomial") -> "PbwMonomial":
        return PbwMonomial(self.n1 + other.n1, self.n2 + other.n2,
                           self.n3 + other.n3, self.m + other.m)


UNIT = PbwMonomial(0, 0, 0, 0)
M_X1 = PbwMonomial(1, 0, 0, 0)
M_X2 = PbwMonomial(0, 1, 0, 0)
M_X3 = PbwMonomial(0, 0, 1, 0)
M_EP = PbwMonomial(0, 0, 0, 1)
M_EM = PbwMonomial(0, 0, 0, -1)


def measure(word: Word) -> tuple:
    """Termination measure (#x2/x3 letters, length, inversion count).

    Every rewrite step strictly decreases this lexicographically.
    """
    n23 = sum(1 for g in word if g is X2 or g is X3)
    inv = 0
    n = len(word)
    for i in range(n):
        ri = _RANK[word[i]]
        for j in range(i + 1, n):
            if ri > _RANK[word[j]]:
                inv += 1
    return (n23, n, inv)


def word_to_monomial(word: Word) -> PbwMonomial:
    """Map an irreducible (ordered) word to its basis monomial."""
    n1 = n2 = n3 = m = 0
    for g in word:
        if g is X1:
            n1 += 1
        elif g is X2:
            n2 += 1
        elif g is X3:
            n3 += 1
        elif g is EP:
            m += 1
        else:
            m -= 1
    return PbwMonomial(n1, n2, n3, m)


def _choose_middle(positions, rng):
    return positions[len(positions) // 2]


def _choose_random(positions, rng):
    return positions[rng.randrange(len(positions))]


_NAMED_STRATEGIES = {
    "leftmost": lambda positions, rng: positions[0],
    "rightmost": lambda positions, rng: positions[-1],
    "middle": _choose_middle,
    "random": _choose_random,
}

#: strategies exercised by the confluence tests ("cycle" is added per call)
STRATEGY_NAMES = ("leftmost", "rightmost", "middle", "random", "cycle")


def add_term(out: dict, key, c) -> None:
    """Add the series ``c`` into ``out[key]``, dropping the key at zero."""
    cur = out.get(key)
    if cur is not None:
        c = cur + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


class Combination:
    """Finite sum of keys with series coefficients; zero terms are dropped.

    The arithmetic shared by elements (keys are basis monomials) and tensors
    (keys are tuples of them).  A subclass says which values it combines
    with (``_compatible``) and how to build one from a terms dict
    (``_new``).  Values are treated as immutable; arithmetic returns new
    values.
    """

    __slots__ = ("system", "terms")

    def __init__(self, system: "RewriteSystem", terms: Mapping):
        self.system = system
        self.terms = dict(terms)

    def _compatible(self, other) -> bool:
        return self.system is other.system

    def _check(self, other) -> None:
        if not self._compatible(other):
            raise SeriesConfigError(
                f"{type(self).__name__}s of different systems or legs "
                "do not combine")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._compatible(other) and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._new(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def map_coefficients(self, fn):
        out = {}
        for key, c in self.terms.items():
            s = fn(c)
            if not s.is_zero():
                out[key] = s
        return self._new(out)

    def scale(self, scalar):
        return self.map_coefficients(lambda c: c * scalar)

    __rmul__ = scale


class RewriteSystem:
    """Oriented two-letter rules plus the data shared by all elements.

    ``rules`` maps an out-of-order adjacent pair to its replacement, a list
    of ``(word, coefficient)`` terms.  The system also carries the scalar
    ring, display names, the generator coproduct table used by the coalgebra
    layer (the same for every instance, built from ``ring.one``), and a
    cache of basis-pair star products.  Instances are immutable after
    construction; the cache is fill-once and idempotent, so concurrent
    readers need no coordination.
    """

    def __init__(self, ring, rules: Mapping, symbols: Mapping,
                 a_series=None, label: str = ""):
        self.ring = ring
        self.rules = dict(rules)
        self.symbols = dict(symbols)
        one = ring.one
        # x1 primitive, the exponential letters group-like, x2 and x3
        # twisted-primitive with exponential legs
        self.coproduct_table = {
            X1: [((UNIT, M_X1), one), ((M_X1, UNIT), one)],
            X2: [((M_X2, M_EM), one), ((M_EP, M_X2), one)],
            X3: [((M_X3, M_EM), one), ((M_EP, M_X3), one)],
            EP: [((M_EP, M_EP), one)],
            EM: [((M_EM, M_EM), one)],
        }
        self.a_series = a_series
        self.label = label
        self._star_cache = {}
        self._coproduct_cache = {}

    # -- construction of elements --------------------------------------

    @property
    def one(self):
        return NCElement(self, {UNIT: self.ring.one})

    @property
    def zero(self):
        return NCElement(self, {})

    def generator(self, g: Gen) -> "NCElement":
        return self.monomial_element(word_to_monomial((g,)))

    def monomial_element(self, mono: PbwMonomial, coeff=None) -> "NCElement":
        c = self.ring.one if coeff is None else coeff
        if c.is_zero():
            return self.zero
        return NCElement(self, {mono: c})

    def element(self, terms: Mapping) -> "NCElement":
        out = {}
        for mono, c in terms.items():
            if not isinstance(mono, PbwMonomial):
                mono = PbwMonomial(*mono)
            if not c.is_zero():
                out[mono] = c
        return NCElement(self, out)

    # -- rewriting ------------------------------------------------------

    def reducible_positions(self, word: Word) -> list:
        rules = self.rules
        return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in rules]

    def normal_form(self, word: Word, strategy: str = "leftmost", rng=None,
                    check_termination: bool = False) -> "NCElement":
        """Reduce a word modulo the ideal.

        The result is independent of ``strategy``, one of ``STRATEGY_NAMES``
        (tested, not assumed); with ``check_termination`` every step asserts
        the measure decrease.
        """
        if strategy == "cycle":
            counter = itertools.count(1)

            def choose(positions, rng):
                return positions[next(counter) % len(positions)]
        else:
            try:
                choose = _NAMED_STRATEGIES[strategy]
            except KeyError:
                raise ValueError(f"unknown strategy {strategy!r}") from None
        if rng is None:
            rng = random.Random(0)

        rules = self.rules
        pending = [(tuple(word), self.ring.one)]
        out = {}
        while pending:
            word, coeff = pending.pop()
            positions = self.reducible_positions(word)
            if not positions:
                add_term(out, word_to_monomial(word), coeff)
                continue
            i = choose(positions, rng)
            if check_termination:
                before = measure(word)
            for repl, c in rules[(word[i], word[i + 1])]:
                new_word = word[:i] + repl + word[i + 2:]
                if check_termination:
                    after = measure(new_word)
                    if not after < before:
                        raise AssertionError(
                            f"measure did not decrease: {word} -> {new_word}")
                new_coeff = coeff if c is self.ring.one else coeff * c
                if not new_coeff.is_zero():
                    pending.append((new_word, new_coeff))
        return NCElement(self, out)

    # -- products ---------------------------------------------------------

    def _basis_star(self, a: PbwMonomial, b: PbwMonomial) -> dict:
        key = (a, b)
        cached = self._star_cache.get(key)
        if cached is None:
            cached = self.normal_form(a.word() + b.word()).terms
            self._star_cache[key] = cached
        return cached

    def star(self, f: "NCElement", g: "NCElement") -> "NCElement":
        """The associative product: normal form of concatenation, bilinear."""
        if f.system is not self or g.system is not self:
            raise SeriesConfigError("elements of another system do not combine")
        out = {}
        for ma, ca in f.terms.items():
            for mb, cb in g.terms.items():
                cab = ca * cb
                if cab.is_zero():
                    continue
                for mono, c in self._basis_star(ma, mb).items():
                    add_term(out, mono, cab if c is self.ring.one else cab * c)
        return NCElement(self, out)

    def commutator(self, f: "NCElement", g: "NCElement") -> "NCElement":
        return self.star(f, g) - self.star(g, f)

    # -- the ideal --------------------------------------------------------

    def relation_words(self) -> list:
        """The oriented relations as (name, {word: coefficient}) pairs.

        Each relation is (left-hand word) minus (its replacement); these are
        the ideal generators the coideal check runs over.
        """
        out = []
        one = self.ring.one
        for (l1, l2), expansion in sorted(self.rules.items()):
            name = f"{self.symbols[l1]}.{self.symbols[l2]}"
            rel = {(l1, l2): one}
            for word, c in expansion:
                add_term(rel, word, -c)
            out.append((name, rel))
        return out


class NCElement(Combination):
    """Finite linear combination of basis monomials with series coefficients.

    ``*`` is the star product between elements and scalar multiplication
    against series, ints, and Fractions.
    """

    __slots__ = ()

    def _new(self, terms) -> "NCElement":
        return NCElement(self.system, terms)

    def coefficient(self, mono) -> object:
        if not isinstance(mono, PbwMonomial):
            mono = PbwMonomial(*mono)
        return self.terms.get(mono, self.system.ring.zero)

    def monomials(self) -> list:
        return sorted(self.terms)

    def __mul__(self, other):
        if isinstance(other, NCElement):
            return self.system.star(self, other)
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative star powers are not defined")
        out = self.system.one
        for _ in range(n):
            out = self.system.star(out, self)
        return out

    def classical(self, other: "NCElement") -> "NCElement":
        """Pointwise commutative product: basis exponents add componentwise."""
        self._check(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                add_term(out, ma.classical_mul(mb), ca * cb)
        return NCElement(self.system, out)

    def eps_flip(self) -> "NCElement":
        """The eps-parity anti-involution: reverse each basis word, eps -> -eps.

        This realizes the opposite-product symmetry: the product of f and g
        equals the flip of (flip g) * (flip f).  Flipping only the stored
        coefficients would not be well defined modulo the ideal; the word
        reversal is part of the map.
        """
        system = self.system
        out = system.zero
        for mono, c in self.terms.items():
            nf = system.normal_form(tuple(reversed(mono.word())))
            out = out + nf.scale(c.eps_flip())
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            parts.append(_format_term(self.system, mono, c))
        sign0, body0 = parts[0]
        # the expression grammar has no unary minus, so a leading negative
        # term is written "0 - ..." to keep printed elements parseable
        out = body0 if sign0 == "+" else f"0 - {body0}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"<NCElement {self}>"

    def to_json(self) -> dict:
        out = []
        for mono in sorted(self.terms):
            entry = {"n1": mono.n1, "n2": mono.n2, "n3": mono.n3, "m": mono.m,
                     "coeff": self.terms[mono].to_json()}
            out.append(entry)
        return {"terms": out}


def monomial_str(system: RewriteSystem, mono: PbwMonomial) -> str:
    if mono == UNIT:
        return "1"
    parts = []
    for g, n in ((X1, mono.n1), (X2, mono.n2), (X3, mono.n3)):
        if n == 1:
            parts.append(system.symbols[g])
        elif n > 1:
            parts.append(f"{system.symbols[g]}^{n}")
    if mono.m > 0:
        parts.append(system.symbols[EP] if mono.m == 1
                     else f"{system.symbols[EP]}^{mono.m}")
    elif mono.m < 0:
        parts.append(system.symbols[EM] if mono.m == -1
                     else f"{system.symbols[EM]}^{-mono.m}")
    return "*".join(parts)


def _format_term(system, mono, coeff) -> tuple:
    """(sign, body) with the sign of the lowest coefficient term pulled out,
    so that printed elements stay inside the expression grammar (which has
    no unary minus)."""
    terms = coeff.terms
    lead_key = min(terms)
    negative = terms[lead_key][0] < 0
    mag = -coeff if negative else coeff
    sign = "-" if negative else "+"
    mono_s = monomial_str(system, mono)
    mag_s = str(mag)
    if mono_s == "1":
        body = mag_s if _is_atomic(mag_s) else f"({mag_s})"
    elif mag_s == "1":
        body = mono_s
    elif _is_atomic(mag_s):
        body = f"{mag_s}*{mono_s}"
    else:
        body = f"({mag_s})*{mono_s}"
    return sign, body


def _is_atomic(s: str) -> bool:
    return " " not in s


# ----------------------------------------------------------------------
# the one-parameter algebra
# ----------------------------------------------------------------------

X_SYMBOLS = {X1: "x1", X2: "x2", X3: "x3", EP: "e+", EM: "e-"}

DEFAULT_A = (4,)


def pbw_rules(one, shift, c, up, down) -> dict:
    """The eleven oriented relations of the presentation both algebras share.

    Moving x1 right past x2 (x3) leaves -shift x2 (+shift x3); x3 x2 leaves
    -c (e^{2x1} - e^{-2x1}); e^{+x1} moves past x2 with the scalar ``up``
    and past x3 with ``down``, e^{-x1} the other way round.  Unit terms are
    the ring's ``one`` itself, so rewriting can skip those products.
    """
    return {
        (X2, X1): [((X1, X2), one), ((X2,), -shift)],
        (X3, X1): [((X1, X3), one), ((X3,), shift)],
        (X3, X2): [((X2, X3), one), ((EP, EP), -c), ((EM, EM), c)],
        # exponential letters commute with x1
        (EP, X1): [((X1, EP), one)],
        (EM, X1): [((X1, EM), one)],
        (EP, X2): [((X2, EP), up)],
        (EM, X2): [((X2, EM), down)],
        (EP, X3): [((X3, EP), down)],
        (EM, X3): [((X3, EM), up)],
        # mutually inverse exponentials
        (EP, EM): [((), one)],
        (EM, EP): [((), one)],
    }


def x_algebra(order: int = 8, a_coeffs: Iterable[RationalLike] = DEFAULT_A,
              min_exp: int = 0) -> RewriteSystem:
    """The quantized function algebra on the dual group, at truncation ``order``.

    ``a_coeffs`` are the even-degree coefficients (constant, eps^2, ...) of
    the free parameter series multiplying sinh(2 x1) in the x2-x3 relation.
    The constant term 4 is the value forced by the first-order term of the
    underlying Poisson bivector; the tail is genuinely free and every
    bialgebra property holds for any choice.
    """
    ring = EpsSeriesRing(order, min_exp)
    a_series = ring.even(list(a_coeffs))
    # shift 2 eps, x2-x3 coefficient eps A, exponential scalars e^{+-2 eps}
    rules = pbw_rules(ring.one, ring.eps_power(2, 1),
                      ring.eps_power(1, 1) * a_series, ring.exp(2), ring.exp(-2))
    return RewriteSystem(ring, rules, X_SYMBOLS, a_series=a_series, label="x")


def random_word(rng: random.Random, max_len: int = 6) -> Word:
    letters = (X1, X2, X3, EP, EM)
    n = rng.randrange(0, max_len + 1)
    return tuple(rng.choice(letters) for _ in range(n))


def random_element(system: RewriteSystem, rng: random.Random,
                   max_terms: int = 3, max_word: int = 4) -> NCElement:
    """Random normal-formed element with small integer-rational coefficients."""
    out = system.zero
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = random_word(rng, max_word)
        num = rng.randrange(-4, 5) or 1
        den = rng.randrange(1, 4)
        exp = rng.randrange(0, 3)
        if system.ring.kind == "eps":
            c = system.ring.eps_power(Fraction(num, den), exp)
        else:
            c = system.ring.monomial(Fraction(num, den), exp, rng.randrange(0, 2))
        out = out + system.normal_form(word).scale(c)
    return out
