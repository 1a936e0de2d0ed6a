"""Noncommutative words, normal ordering, and the star product.

The algebra is generated by three polynomial letters and a pair of mutually
inverse exponential letters.  Its basis is the ordered words
``x1^n1 x2^n2 x3^n3 e^(m x1)``.  Both algebras share one presentation
(``pbw_rules``) with different scalars: the one-parameter algebra
(``x_algebra``), with even free parameter series A on the x2-x3 relation,
and the two-parameter variant built in :mod:`sl2star.uhsl2`.  Elements and
tensors are both sums of keys with series coefficients, on the one base
class ``Combination``.

Products are taken by multiplication tables, as for a G-algebra
(Levandovskyy and Schoenemann, ISSAC 2003): a basis monomial times one
letter has a closed form whose scalars are read from the rules, and are
cached as powers and geometric sums (``RewriteSystem._letter_row``).  The
normal form of a word folds its letters onto the unit, and the star product
of two basis monomials folds the letters of the right one onto the left.
The table scalars are interned on the system's ring when they are filled,
and a coefficient that is still one scalar object is multiplied by the
next one through the ring's pair table (``_SeriesRing._pair``): products
along a word keep landing on the same few values, so each is taken once.

Rewriting by the rules (``RewriteSystem.rewrite``) is kept as the
independent oracle of the tables.  It terminates because every rule strictly
decreases the triple (number of x2/x3 letters, word length, the word
itself), compared lexicographically (``measure``).  It is a merged
reduction: pending words are summed in one dict and taken in decreasing
measure, so no word comes back once it is reduced, and each is reduced
once, with its summed coefficient.  Confluence is not assumed anywhere: it
is checked on the overlaps of the rules (``unresolved_overlaps``), the
finite check of Bergman's diamond lemma, together with the measure decrease
of every rule (``rules_raising_measure``), and so is the flip that gives
the opposite-product symmetry (``unflipped_rules``).
"""

from __future__ import annotations

import heapq
import random
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .series import (
    EpsSeriesRing,
    ProductSums,
    RationalLike,
    SeriesConfigError,
    binary_power,
)


class Gen(IntEnum):
    """The five-letter alphabet; EP/EM are the exponential letters."""

    X1 = 1
    X2 = 2
    X3 = 3
    EP = 4
    EM = 5


X1, X2, X3, EP, EM = Gen.X1, Gen.X2, Gen.X3, Gen.EP, Gen.EM

# the basis-monomial exponent each letter counts towards (n1, n2, n3, and
# m up or down); plain ints 1..5 find their Gen letter here too
_LETTER_INDEX = {X1: 0, X2: 1, X3: 2, EP: 3, EM: 4}
_LETTERS = frozenset(_LETTER_INDEX)
# the Gen letter of a letter given as a Gen or a plain int: a dict lookup
# costs a tenth of a call of Gen
_GEN = {g: g for g in Gen}

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

#: The coproduct of each letter as key pairs, each with coefficient 1; at
#: eps = 0 it is the group law of the dual group.
GENERATOR_COPRODUCT = {
    X1: ((UNIT, M_X1), (M_X1, UNIT)), X2: ((M_X2, M_EM), (M_EP, M_X2)),
    X3: ((M_X3, M_EM), (M_EP, M_X3)), EP: ((M_EP, M_EP),), EM: ((M_EM, M_EM),)}


# A function on n copies of the group is {n-tuple of basis monomials: int},
# multiplied by ``classical_mul`` leg by leg.

def _sum(terms) -> dict:
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _mul(f: dict, g: dict, scale: int = 1) -> dict:
    return _sum((tuple(a.classical_mul(b) for a, b in zip(u, v)), scale * c * d)
                for u, c in f.items() for v, d in g.items())


def on_product(f: dict) -> dict:
    """f(y x) as a function of (y, x): each letter becomes its key pairs in
    ``GENERATOR_COPRODUCT``, the group law."""
    terms = []
    for (mono,), c in f.items():
        value = {(UNIT, UNIT): c}
        for letter in mono.word():
            value = _mul(value, dict.fromkeys(GENERATOR_COPRODUCT[letter], 1))
        terms += value.items()
    return _sum(terms)


def measure(word: Word) -> tuple:
    """Termination measure (#x2/x3 letters, length, the word itself).

    Every rewrite step strictly decreases this lexicographically: a swap
    moves a letter of larger ``Gen`` value to the right (x2 and x3 past x1,
    x3 past x2, e+- past every x), which lowers the word itself, and every
    other rule lowers the length or the number of x2/x3 letters.
    """
    return (word.count(X2) + word.count(X3), len(word), word)


def rules_raising_measure(rules: Mapping) -> list:
    """The rule pairs with a replacement word whose ``measure`` is not below
    the pair's own.  The measure is compatible with concatenation (u below v
    puts x u y below x v y), so an empty list means every rewrite step of
    every word lowers it, and rewriting terminates."""
    return [pair for pair, terms in sorted(rules.items())
            if not all(measure(word) < measure(pair) for word, _ in terms)]


# each byte b of a word maps to 255 - b, which reverses the order of equal-
# length words
_DESCENDING = bytes(range(255, -1, -1))


def _heap_key(word: Word) -> tuple:
    """``measure`` reversed, for a min-heap that pops the largest word first;
    the word rides along at the end and is never compared."""
    n23, length, _ = measure(word)
    return (-n23, -length, bytes(word).translate(_DESCENDING), word)


def _unknown_letter(word: Word) -> ValueError:
    bad = next(g for g in word if g not in _LETTERS)
    return ValueError(f"unknown letter {bad!r} in word {word!r}; the letters "
                      "are x1, x2, x3, e+, e- (the ints 1-5)")


def word_to_monomial(word: Word) -> PbwMonomial:
    """Map an irreducible (ordered) word to its basis monomial."""
    counts = [0, 0, 0, 0, 0]
    try:
        for g in word:
            counts[_LETTER_INDEX[g]] += 1
    except KeyError:
        raise _unknown_letter(word) from None
    n1, n2, n3, up, down = counts
    return PbwMonomial(n1, n2, n3, up - down)


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
    layer (``GENERATOR_COPRODUCT`` with coefficients ``ring.one``), the
    scalars of its multiplication tables, and a cache of basis-pair star
    products.  Instances are immutable after construction; the caches are
    fill-once and idempotent, so concurrent readers need no coordination.

    The scalars of the multiplication tables (``_powers``, ``_x1_shifts``,
    ``_x2_rows``) and of the basis-star and coproduct caches are
    hash-consed on the ring (``_SeriesRing._intern``) when they are filled,
    and its pair table keeps the product of two of them: the fold
    multiplies a scalar chain through ``_pair``, so a product of two table
    scalars is taken once per system; each system builds its own ring.
    Scalar arithmetic goes through the series API and ``ProductSums``;
    only ``series`` reaches the kernel and the lifted form.
    """

    def __init__(self, ring, rules: Mapping, symbols: Mapping,
                 label: str = ""):
        self.ring = ring
        self.rules = dict(rules)
        self.symbols = dict(symbols)
        one = ring.one
        self.coproduct_table = {g: [(pair, one) for pair in pairs]
                                for g, pairs in GENERATOR_COPRODUCT.items()}
        self.label = label
        self._star_cache = {}
        self._coproduct_cache = {}
        # the multiplication tables: rule scalars, their powers and sums,
        # filled on first use
        self._scalars = _table_scalars(self.rules, one)
        self._powers = {pair: [one] for pair in _E_PAST_X}
        self._sums = {EP: [ring.zero], EM: [ring.zero]}
        self._x1_shifts = {}
        self._x2_rows = {}

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

    # -- the multiplication tables -----------------------------------------

    def normal_form(self, word: Word) -> "NCElement":
        """The normal form of a word: its letters multiplied onto the unit
        one at a time, by the multiplication tables."""
        word = tuple(word)
        if not _LETTERS.issuperset(word):
            raise _unknown_letter(word)
        return NCElement(self, self._fold(UNIT, word))

    def _fold(self, mono: PbwMonomial, word: Word) -> dict:
        """``mono`` times the letters of ``word``, left to right, as basis
        monomial -> coefficient: one ``ProductSums.times_letter`` step per
        letter through ``_letter_row`` (a scalar chain through the ring's
        pair table), then each coefficient reduced once (a unit is
        ``ring.one`` itself)."""
        sums = ProductSums(self.ring)
        sums.add(mono, self.ring.one)
        times_letter, row = sums.times_letter, self._letter_row
        for g in word:
            times_letter(row, _GEN[g])
        return sums.coefficients()

    def _letter_row(self, mono: PbwMonomial, letter: Gen) -> list:
        """x1^a x2^b x3^c e^m times one letter, as (basis monomial, scalar)
        pairs:

        - times e+- it is x1^a x2^b x3^c e^(m +- 1);
        - times x1 it is x1^(a+1) x2^b x3^c e^m + (b s2 + c s3) x1^a x2^b
          x3^c e^m, where x2 x1 leaves s2 x2 and x3 x1 leaves s3 x3;
        - times x3 it is D^(m) x1^a x2^b x3^(c+1) e^m, with D^(m) the m-th
          power of the scalar of e+ past x3 (of e- past x3 for m < 0);
        - times x2 it is U^(m) times x1^a x2^(b+1) x3^c e^m
          + C+ sum_{k<c} D+^2k x1^a x2^b x3^(c-1) e^(m+2)
          + C- sum_{k<c} D-^2k x1^a x2^b x3^(c-1) e^(m-2),
          with U^(m) as D^(m) for e+- past x2 and C+- the scalars of e+-^2
          in the x3 x2 rule: each of the c letters x3 passes the new x2,
          and the e+-^2 that the one with k letters x3 to its right leaves
          moves past those k letters with the scalar D+-^2k.
        """
        a, b, c, m = mono
        if letter is EP:
            return [(PbwMonomial(a, b, c, m + 1), self.ring.one)]
        if letter is EM:
            return [(PbwMonomial(a, b, c, m - 1), self.ring.one)]
        if letter is X3:
            return [(PbwMonomial(a, b, c + 1, m), self._e_past(X3, m))]
        if letter is X1:
            row = [(PbwMonomial(a + 1, b, c, m), self.ring.one)]
            shift = self._x1_shifts.get((b, c))
            if shift is None:
                shift = self._x1_shifts[b, c] = self.ring._intern(
                    self._scalars[(X2, X1), (X2,)] * b
                    + self._scalars[(X3, X1), (X3,)] * c)
            if not shift.is_zero():
                row.append((mono, shift))
            return row
        scalars = self._x2_row(c, m)
        row = [(PbwMonomial(a, b + 1, c, m), scalars[0])]
        if c:
            row.append((PbwMonomial(a, b, c - 1, m + 2), scalars[1]))
            row.append((PbwMonomial(a, b, c - 1, m - 2), scalars[2]))
        return row

    def _x2_row(self, c: int, m: int) -> tuple:
        """The scalars of x3^c e^m times x2: U^(m), then for c > 0 those of
        the e^(m+2) and the e^(m-2) term."""
        row = self._x2_rows.get((c, m))
        if row is None:
            up = self._e_past(X2, m)
            row = (up,) if c == 0 else (up,) + tuple(
                self.ring._intern(up * self._scalars[(X3, X2), (e, e)]
                                  * self._d_sum(e, c))
                for e in (EP, EM))
            self._x2_rows[c, m] = row
        return row

    def _e_past(self, x: Gen, m: int):
        """The scalar of e^(m x1) moving right past the letter x: the |m|-th
        power of the scalar of e+ past x (of e- for m < 0); ``ring.one``
        itself for m = 0."""
        e = EP if m >= 0 else EM
        powers = self._powers[e, x]
        while len(powers) <= abs(m):
            powers.append(self.ring._intern(
                powers[-1] * self._scalars[(e, x), (x, e)]))
        return powers[abs(m)]

    def _d_sum(self, e: Gen, c: int):
        """sum_{k<c} of the 2k-th power of the scalar of e (e+ or e-) past
        x3."""
        sums = self._sums[e]
        sign = 1 if e == EP else -1
        while len(sums) <= c:
            sums.append(sums[-1] + self._e_past(X3, sign * 2 * (len(sums) - 1)))
        return sums[c]

    # -- rewriting, the oracle of the tables ----------------------------------

    def reducible_positions(self, word: Word) -> list:
        rules = self.rules
        return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in rules]

    def rewrite(self, word: Word) -> "NCElement":
        """Reduce a word modulo the ideal by the rewrite rules, at the
        leftmost redex of each word: the independent oracle of
        ``normal_form``.  Every rule lowers ``measure`` and every overlap of
        two rules resolves (``rules_raising_measure`` and
        ``unresolved_overlaps`` check both), so by Bergman's diamond lemma
        the reduced form does not depend on the redex taken."""
        word = tuple(word)
        if not _LETTERS.issuperset(word):
            raise _unknown_letter(word)
        return self._reduce({word: self.ring.one})

    def _reduce(self, pending: dict) -> "NCElement":
        """Reduce a sum of words (word -> coefficient).  Pending words are
        merged: a rule that produces a word already pending adds to its
        coefficient.  Words are taken in decreasing ``measure``, which every
        rule lowers, so each word is reduced once, with its summed
        coefficient."""
        rules = self.rules
        one = self.ring.one
        heap = [_heap_key(word) for word in pending]
        heapq.heapify(heap)
        out = {}
        while heap:
            word = heapq.heappop(heap)[-1]
            coeff = pending.pop(word)
            if coeff.is_zero():  # merged terms cancelled
                continue
            positions = self.reducible_positions(word)
            if not positions:
                add_term(out, word_to_monomial(word), coeff)
                continue
            i = positions[0]
            for repl, c in rules[(word[i], word[i + 1])]:
                new_word = word[:i] + repl + word[i + 2:]
                new_coeff = coeff if c is one else coeff * c
                cur = pending.get(new_word)
                if cur is not None:
                    pending[new_word] = cur + new_coeff
                elif not new_coeff.is_zero():
                    pending[new_word] = new_coeff
                    heapq.heappush(heap, _heap_key(new_word))
        return NCElement(self, out)

    def unresolved_overlaps(self) -> list:
        """The overlaps (a, b, c) of two rules, (a, b) and (b, c), that do
        not resolve: rewriting after the left rule and rewriting after the
        right rule give different results.  An empty list is the finite
        confluence check of Bergman's diamond lemma."""
        rules = self.rules
        return [(a, b, c) for a, b in sorted(rules) for b2, c in sorted(rules)
                if b2 == b
                and self._reduce({w + (c,): k for w, k in rules[a, b]})
                != self._reduce({(a,) + w: k for w, k in rules[b, c]})]

    def unflipped_rules(self) -> list:
        """The rule pairs whose relation the flip does not map into the
        ideal: its flip does not rewrite to zero.  The flip reverses each
        word and sends eps to -eps, an anti-automorphism of the free
        algebra.  An empty list means it maps the ideal into itself, so it
        descends to the quotient, where the product of f and g is the flip
        of (flip g) times (flip f) for every f and g."""
        out = []
        for pair, terms in sorted(self.rules.items()):
            flipped = {pair[::-1]: self.ring.one}
            for word, c in terms:
                add_term(flipped, word[::-1], -c.eps_flip())
            if not self._reduce(flipped).is_zero():
                out.append(pair)
        return out

    # -- products ---------------------------------------------------------

    def _basis_star(self, a: PbwMonomial, b: PbwMonomial) -> dict:
        key = (a, b)
        cached = self._star_cache.get(key)
        if cached is None:
            intern = self.ring._intern
            cached = {mono: intern(c) for mono, c
                      in self._fold(a, b.word()).items()}
            self._star_cache[key] = cached
        return cached

    def star(self, f: "NCElement", g: "NCElement") -> "NCElement":
        """The associative product: normal form of concatenation, bilinear."""
        if f.system is not self or g.system is not self:
            raise SeriesConfigError("elements of another system do not combine")
        sums = ProductSums(self.ring)
        for ma, ca in f.terms.items():
            for mb, cb in g.terms.items():
                cab = ca * cb
                if cab.is_zero():
                    continue
                for mono, c in self._basis_star(ma, mb).items():
                    sums.add(mono, cab, c)
        return NCElement(self, sums.coefficients())

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

    def __mul__(self, other):
        if isinstance(other, NCElement):
            return self.system.star(self, other)
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative star powers are not defined")
        return binary_power(self, n, self.system.one)

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
    e = (EP, mono.m) if mono.m >= 0 else (EM, -mono.m)
    letters = ((X1, mono.n1), (X2, mono.n2), (X3, mono.n3), e)
    return "*".join(system.symbols[g] if n == 1 else f"{system.symbols[g]}^{n}"
                    for g, n in letters if n)


def _format_term(system, mono, coeff) -> tuple:
    """(sign, body) with the sign of the lowest coefficient term pulled out,
    so that printed elements stay inside the expression grammar (which has
    no unary minus)."""
    negative = coeff.terms[min(coeff.terms)][0] < 0
    mono_s = monomial_str(system, mono)
    mag_s = str(-coeff if negative else coeff)
    atomic = " " not in mag_s
    if mono_s == "1":
        body = mag_s if atomic else f"({mag_s})"
    elif mag_s == "1":
        body = mono_s
    elif atomic:
        body = f"{mag_s}*{mono_s}"
    else:
        body = f"({mag_s})*{mono_s}"
    return "-" if negative else "+", body


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


# the rules of pbw_rules with its ``one`` marked: the layout that the
# multiplication tables are read from
_ONE = object()
_LAYOUT = pbw_rules(_ONE, 0, 0, 0, 0)

#: the rule pairs of an exponential letter moving past x2 or x3
_E_PAST_X = tuple((e, x) for e in (EP, EM) for x in (X2, X3))


def _table_scalars(rules: Mapping, one) -> dict:
    """The scalar of each (rule pair, replacement word) of ``rules``.

    The multiplication tables hold for the layout of ``pbw_rules`` only: its
    eleven pairs, their replacement words in order, and ``one`` itself
    wherever it puts ``one``.  Rules of any other layout are refused.
    """
    if set(rules) != set(_LAYOUT):
        raise ValueError("the rules must have the eleven pairs of pbw_rules; "
                         f"these differ: {sorted(set(rules) ^ set(_LAYOUT))}")
    for pair, layout in _LAYOUT.items():
        given = rules[pair]
        if [w for w, _ in given] != [w for w, _ in layout] or any(
                mark is _ONE and c is not one
                for (_, mark), (_, c) in zip(layout, given)):
            raise ValueError(f"rule {pair} is not laid out as in pbw_rules")
    return {(pair, word): c for pair, terms in rules.items()
            for word, c in terms}


def x_algebra(order: int = 8,
              a_coeffs: Iterable[RationalLike] = DEFAULT_A) -> RewriteSystem:
    """The quantized function algebra on the dual group, at truncation ``order``.

    ``a_coeffs`` are the even-degree coefficients (constant, eps^2, ...) of
    the parameter series A multiplying sinh(2 x1) in the x2-x3 relation.
    The constant term 4 is the value forced by the first-order term of the
    underlying Poisson bivector.  A itself, exact through ``order``, is kept
    as ``a_series`` on the system: the rule scalar eps A drops its
    eps^order coefficient.  Every tail, and every nonzero A(0), gives
    the same bialgebra up to x2 -> (A'/A) x2 (criterion 4 checks this
    isomorphism), so the CLI and the checks use ``DEFAULT_A``.
    """
    ring = EpsSeriesRing(order)
    a_series = ring.even(list(a_coeffs))
    # shift 2 eps, x2-x3 coefficient eps A, exponential scalars e^{+-2 eps}
    rules = pbw_rules(ring.one, ring.eps_power(2, 1),
                      ring.eps_power(1, 1) * a_series, ring.exp(2), ring.exp(-2))
    system = RewriteSystem(ring, rules, X_SYMBOLS, label="x")
    system.a_series = a_series
    return system


def random_word(rng: random.Random, max_len: int = 6) -> Word:
    letters = (X1, X2, X3, EP, EM)
    n = rng.randrange(0, max_len + 1)
    return tuple(rng.choice(letters) for _ in range(n))


def random_element(system: RewriteSystem, rng: random.Random,
                   max_terms: int = 3, max_word: int = 4) -> NCElement:
    """Random normal-formed element with small integer-rational coefficients."""
    out = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = random_word(rng, max_word)
        num = rng.randrange(-4, 5) or 1
        den = rng.randrange(1, 4)
        exp = rng.randrange(0, 3)
        if system.ring.kind == "eps":
            c = system.ring.eps_power(Fraction(num, den), exp)
        else:
            c = system.ring.monomial(Fraction(num, den), exp, rng.randrange(0, 2))
        for key, d in system.normal_form(word).terms.items():
            add_term(out, key, d * c)
    return NCElement(system, out)
