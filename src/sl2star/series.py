"""Exact truncated formal series in the deformation parameters.

There is one ring core, ``_Series``, with two key types.  ``EpsSeries``
keys its terms by a nonnegative ``int`` exponent: a sparse truncated power
series in one parameter ``eps`` over arbitrary-precision rationals, in which
every operation is exact through the truncation order (only units are
inverted, and no root is ever taken).  ``BiSeries`` keys them by an ``(i, j)``
exponent pair: the two-parameter variant in ``(eps, h)`` used by the
two-parameter algebra, truncated by total degree, Laurent in ``h`` (for
1/sinh(h)).  A value is its terms plus the one bound of its ring, nothing
else.  The constructor, the JSON form, sums, differences, negation,
rational multiples, products, equality, powers, the inverse and
eps -> -eps are the core's; every operation goes through the kernel's one
rational arithmetic (lift, one lifted step, reduce) for both key types, and
each key type adds how its keys are coded and its other substitutions.  The
standard series (exp, sinh, sinh/eps, the even A-series, sinh h) have one
constructor each, a method of the ring (``EpsSeriesRing``,
``BiSeriesRing``) that fixes the bound.

All values are immutable after construction and all operations are pure, so
instances are safe to share across threads.  Coefficients are stored as
reduced ``(num, den)`` int pairs and manipulated through the arithmetic
kernel ``_backend.kernel``; ``fractions.Fraction`` appears only at the API
boundary.  No other module of the package reaches the kernel.  A value
caches its kernel lift (``lifted()``, integer numerators over one
denominator, in tuples), and ``ProductSums``, the one place that multiplies
and sums lifted forms (with no gcd), runs the coalgebra's loops and the
normal-form fold of ``ncalg`` on those cached lifts, so inside them a
scalar used again and again is lifted once; a product ``a * b`` of two
values lifts both afresh.  A ring also hash-conses the scalars of its
rewrite system's tables and caches, and keeps the product of two of them
once, in a pair table that the fold and the coalgebra share.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Union

from ._backend import kernel

_q = kernel

RationalLike = Union[int, Fraction, tuple]

DEFAULT_ORDER = 8


def binary_power(base, n: int, one):
    """``base ** n`` for n >= 0 by square-and-multiply: about 2 log2(n)
    products, not n; ``one`` is the result for n = 0."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class SeriesConfigError(SeriesError):
    """Mismatched truncation bound between operands."""


class SeriesDomainError(SeriesError):
    """Operation not defined for the given series (non-unit inverse, ...)."""


def as_pair(x: RationalLike) -> tuple:
    """Coerce an int, a Fraction or a pair into a reduced (num, den) pair."""
    if isinstance(x, tuple):
        return _q.qnorm(x[0], x[1])
    if isinstance(x, int):
        return (x, 1)
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def pair_str(q: tuple) -> str:
    n, d = q
    return str(n) if d == 1 else f"{n}/{d}"


class _Series:
    """The ring core shared by ``EpsSeries`` and ``BiSeries``.

    A value is ``terms``, a sparse dict from an exponent key to a reduced
    rational pair with no stored zeros, plus the one bound of its ring: the
    truncation degree; ``lifted()`` caches the kernel's lift of ``terms``
    on first use.  Everything that is blind to the key type lives here:
    the one constructor and JSON form, sums through the kernel's ``s_add``,
    products through its ``s_mul``, and through those differences (a sum
    with the negation), negation and rational multiples (products with a
    constant); the constructors ``zero``/``one``/``constant`` (each taking
    the bound), coercion of ints and Fractions, equality, powers, the
    inverse, eps -> -eps and printing.  A subclass supplies its key type:
    ``_SPAN`` (how the kernel codes its keys), and ``_degree``,
    ``_neg_key``, ``_eps_of`` (the eps exponent, which the constructor
    refuses below 0) and ``_key_json`` of a key, and its other
    substitutions.
    """

    __slots__ = ("terms", "_bound", "_lifted")

    #: name of the bound, for display
    _BOUND_NAME = "hi"
    #: the key of the constant term
    _UNIT_KEY = None

    def __init__(self, terms: Mapping, bound: int):
        """Zero coefficients and keys of degree above ``bound`` are dropped;
        a negative eps exponent is refused, inside the bound or beyond it."""
        if bound < 1:
            raise SeriesConfigError(f"{self._BOUND_NAME} must be >= 1")
        clean = {}
        for key, c in terms.items():
            c = as_pair(c)
            if c[0] == 0:
                continue
            if self._eps_of(key) < 0:
                raise SeriesDomainError(
                    f"eps exponent {self._eps_of(key)} is negative: "
                    f"{type(self).__name__} is a power series in eps")
            if self._degree(key) <= bound:
                clean[key] = c
        self.terms = clean
        self._bound = bound

    def _wrap(self, terms: dict):
        """A value of this ring whose terms are already clean (not copied)."""
        out = object.__new__(type(self))
        out.terms = terms
        out._bound = self._bound
        return out

    @classmethod
    def zero(cls, bound: int):
        return cls({}, bound)

    @classmethod
    def constant(cls, value: RationalLike, bound: int):
        return cls({cls._UNIT_KEY: value}, bound)

    @classmethod
    def one(cls, bound: int):
        return cls.constant(1, bound)

    def lifted(self) -> tuple:
        """The kernel's lift of ``terms``, ``(codes, den)`` with the
        ``(code, numerator)`` pairs in a tuple that ascends by code, as
        ``convolve`` wants its second operand.  Computed once per value:
        values are immutable, so the lift is too."""
        try:
            return self._lifted
        except AttributeError:
            codes, den = _q.lift(self.terms, self._SPAN)
            self._lifted = p = tuple(sorted(codes)), den
            return p

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._bound == other._bound and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.constant(other, self._bound)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self!s}, "
                f"{self._BOUND_NAME}={self._bound})")

    def __str__(self) -> str:
        return format_terms(self.terms, self._power_str)

    def _check(self, other) -> None:
        if self._bound != other._bound:
            raise SeriesConfigError(
                f"truncation mismatch: {self._bound} vs {other._bound}")

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other, self._bound)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._wrap(_q.s_add(self.terms, other.terms, self._SPAN))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._wrap(_q.s_mul(self.terms, other.terms, self._bound,
                                   self._SPAN))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return binary_power(self, n, self.one(self._bound))

    def invert(self):
        """Inverse when the lowest-degree part is a single monomial c*m.

        The result is (1/c) m^-1 sum_k (-u)^k with u = s/(c m) - 1, whose
        terms all have positive degree.  m^-1 must be a key of the type, so
        an ``EpsSeries`` must be a unit.  For a ``BiSeries`` of leading
        degree v > 0 the result stores no degree above ``hi - v``; its terms
        above ``hi - 2v`` depend on coefficients of ``s`` beyond the
        truncation.
        """
        if not self.terms:
            raise SeriesDomainError("cannot invert the zero series")
        degree = self._degree
        dmin = min(degree(k) for k in self.terms)
        pivots = [k for k in self.terms if degree(k) == dmin]
        if len(pivots) != 1:
            raise SeriesDomainError(
                "inverse needs a unique lowest-total-degree monomial")
        bound = self._bound
        c = self.terms[pivots[0]]
        pivot_inv = type(self)({self._neg_key(pivots[0]): (c[1], c[0])}, bound)
        u = self * pivot_inv - 1
        acc = result = self.one(bound)
        for _ in range(bound + abs(dmin) + 1):
            acc = acc * (-u)
            if acc.is_zero():
                break
            result = result + acc
        return result * pivot_inv

    def eps_flip(self):
        """Substitute eps -> -eps: negate the terms of odd eps exponent."""
        eps_of = self._eps_of
        return self._wrap({k: ((-n, d) if eps_of(k) & 1 else (n, d))
                           for k, (n, d) in self.terms.items()})

    def to_json(self) -> dict:
        return {"terms": [[self._key_json(k), pair_str(c)]
                          for k, c in sorted(self.terms.items())],
                self._BOUND_NAME: self._bound}


class EpsSeries(_Series):
    """Truncated power series in eps with exact coefficients.

    Keys are ``int`` exponents in ``[0, order]``; a negative exponent is
    refused.  The bound of the constructors is ``order``.
    """

    __slots__ = ()

    _BOUND_NAME = "order"
    _UNIT_KEY = 0
    _SPAN = 0

    order = property(lambda self: self._bound)
    _degree = _eps_of = _key_json = staticmethod(lambda e: e)
    _neg_key = staticmethod(lambda e: -e)

    # -- misc queries ---------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        n, d = self.terms.get(k, (0, 1))
        return Fraction(n, d)

    @staticmethod
    def _power_str(e: int) -> str:
        if e == 0:
            return ""
        return "eps" if e == 1 else f"eps^{e}"


def format_terms(terms: Mapping, power_str) -> str:
    """Human-readable sum of rational-coefficient monomials, ascending key."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        n, d = terms[key]
        mono = power_str(key)
        sign = "-" if n < 0 else "+"
        mag = (abs(n), d)
        if not mono:
            body = pair_str(mag)
        elif mag == (1, 1):
            body = mono
        else:
            body = f"{pair_str(mag)}*{mono}"
        parts.append((sign, body))
    sign0, body0 = parts[0]
    out = body0 if sign0 == "+" else f"-{body0}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _exp_coefficients(value: RationalLike, count: int) -> list:
    """value^k / k! for 0 <= k < count, as reduced pairs."""
    n, d = as_pair(value)
    return [_q.qnorm(n ** k, d ** k * factorial(k)) for k in range(count)]


class ProductSums:
    """Sums of products of scalars of one ring, each sum reduced once; the
    one accumulator that knows the lifted form.

    ``times(p, c)`` is ``p`` (lifted or a scalar) times the scalar ``c``,
    lifted with no gcd; ``add(key, a, c)`` adds a * c, ``a`` lifted or a
    scalar, to the sum at ``key``: there a product is always a
    ``convolve`` of the two lifts.  ``times_letter(row, letter)`` moves
    each sum through one letter of a word: the sum at a key goes to every
    key of ``row(key, letter)`` times its scalar.  A sum stays a scalar
    object while it is ``ring.one``, a row scalar or a product of row
    scalars: the row scalars are interned on the ring, and such a sum is
    multiplied through the ring's pair table (``_SeriesRing._pair``), so
    its product is one interned object too and a chain of them is a chain
    of table lookups.  Only a sum merged from two paths is lifted; it is
    multiplied by ``convolve`` and drops its zeros and, past a machine-word
    denominator, its common factor (``cancel``), so the sums of a long
    word stay small.  ``coefficients()`` reduces each sum once; a sum
    equal to 1 is ``ring.one`` itself, and ``ring.one`` factors are skipped
    by identity.  Make one per call: nothing outlives it.
    """

    __slots__ = ("times", "add", "coefficients", "times_letter")

    def __init__(self, ring: "_SeriesRing"):
        one, span, lim, wrap = ring._sums_constants
        pair = ring._pair
        sums = {}
        convolve, add_lifted, cancel = _q.convolve, _q.add_lifted, _q.cancel

        def times(p, c):
            if type(p) is not tuple:
                p = p.lifted()
            return p if c is one else convolve(p, c.lifted(), lim)

        def add(key, a, c=one):
            if c is not one:
                a = times(a, c)
            cur = sums.get(key)
            sums[key] = a if cur is None else add_lifted(
                cur if type(cur) is tuple else cur.lifted(),
                a if type(a) is tuple else a.lifted())

        def times_letter(row, letter):
            nonlocal sums
            out = {}
            for key, coeff in sums.items():
                for key2, c in row(key, letter):
                    if type(coeff) is not tuple:
                        c = pair(coeff, c)
                    elif c is one:
                        c = coeff
                    else:
                        c = convolve(coeff, c.lifted(), lim)
                    cur = out.get(key2)
                    if cur is not None:
                        c = add_lifted(
                            cur if type(cur) is tuple else cur.lifted(),
                            c if type(c) is tuple else c.lifted())
                    out[key2] = c
            sums = {}
            for key, c in out.items():
                if type(c) is tuple:
                    c = cancel(c)
                    if c[0]:
                        sums[key] = c
                elif c.terms:
                    sums[key] = c

        def coefficients():
            out = {}
            for key, p in sums.items():
                if type(p) is tuple:
                    p = wrap(_q.reduce(p, span))
                if p.terms:
                    out[key] = one if p.terms == one.terms else p
            return out

        self.times, self.add, self.coefficients = times, add, coefficients
        self.times_letter = times_letter


class _SeriesRing:
    """Factory facade fixing the bound of one series type for one
    computation, and the hash-cons tables of its scalars.

    ``_intern`` maps a value, keyed by its canonical ``lifted()`` form, to
    one series object, a unit to ``one`` itself (Filliatre and Conchon, ML
    Workshop 2006); ``_pair`` keeps the interned product of two scalars in
    a table keyed by their ids, and each entry holds both factors, so no id
    is reused while it lives.  A rewrite system interns the scalars of its
    multiplication tables and of its caches on its own ring, and the
    normal-form fold and the coalgebra multiply them through ``_pair``, so
    each product of two of them is taken once.  ``_sums_constants`` holds
    what each ``ProductSums`` of the ring reads: ``one``, the key span, the
    truncation limit of a lifted product and ``one._wrap``.
    """

    series = _Series

    def __init__(self, bound: int):
        self._bound = bound
        self.one = one = self.series.one(bound)
        self.zero = self.series.zero(bound)
        self._interned = {one.lifted(): one}
        self._pairs = {}
        span = one._SPAN
        self._sums_constants = (one, span, _q.limit(bound, span), one._wrap)

    def constant(self, value: RationalLike):
        return self.series.constant(value, self._bound)

    def _intern(self, c):
        """The ring's one series object of the value of ``c``; a unit value
        is ``one``."""
        return self._interned.setdefault(c.lifted(), c)

    def _pair(self, c, c2):
        """The product of the scalars ``c`` and ``c2``, interned; taken once
        per pair of objects, ``c`` itself when ``c2`` is ``one`` and ``c2``
        when ``c`` is."""
        one = self.one
        if c2 is one:
            return c
        if c is one:
            return c2
        key = (id(c), id(c2))
        entry = self._pairs.get(key)
        if entry is None:
            entry = self._pairs[key] = (c, c2, self._intern(c * c2))
        return entry[2]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.series._BOUND_NAME}={self._bound})"


class EpsSeriesRing(_SeriesRing):
    """The ring of ``EpsSeries`` truncated at ``order``."""

    kind = "eps"
    series = EpsSeries

    def __init__(self, order: int = DEFAULT_ORDER):
        super().__init__(order)
        self.order = order

    def eps_power(self, value: RationalLike, k: int) -> EpsSeries:
        """The single-term series value * eps^k."""
        return EpsSeries({k: value}, self.order)

    def exp(self, k: RationalLike) -> EpsSeries:
        """exp(k*eps) = sum_j (k eps)^j / j!."""
        return EpsSeries(dict(enumerate(_exp_coefficients(k, self.order + 1))),
                         self.order)

    def sinh(self, k: RationalLike) -> EpsSeries:
        """sinh(k*eps), the odd part of exp(k*eps)."""
        return EpsSeries({j: c for j, c in self.exp(k).terms.items() if j % 2},
                         self.order)

    def sinh_over_eps(self, k: RationalLike) -> EpsSeries:
        """The unit sinh(k*eps)/eps = k + k^3 eps^2/6 + ..., exact through
        ``order`` (read from sinh(k*eps) through ``order + 1``)."""
        s = EpsSeriesRing(self.order + 1).sinh(k)
        return EpsSeries({j - 1: c for j, c in s.terms.items()}, self.order)

    def even(self, coeffs: Iterable[RationalLike]) -> EpsSeries:
        """The series with the given coefficients on eps^0, eps^2, eps^4, ...:
        how the free even parameters (the A-series of the x2-x3 relation)
        enter."""
        return EpsSeries({2 * i: c for i, c in enumerate(coeffs)}, self.order)


# ----------------------------------------------------------------------
# two-parameter series in (eps, h)
# ----------------------------------------------------------------------

class BiSeries(_Series):
    """Sparse series in (eps, h), truncated by total degree.

    Keys are ``(eps_exp, h_exp)`` pairs; ``eps_exp >= 0`` always, while
    ``h_exp`` may be any integer (Laurent in h only, for 1/sinh(h)).  The
    bound of the constructors is ``total``.

    Truncation is a window on total degree.  The windowed product is exact
    inside the window when every stored scalar has nonnegative total
    degree: then no dropped term can re-enter the window through a 1/h
    factor, which keeps multiplication associative.  Every scalar of the
    two-parameter rewrite system has that property; nothing enforces it.
    """

    __slots__ = ()

    _BOUND_NAME = "total"
    _UNIT_KEY = (0, 0)
    _SPAN = _q.SPAN

    total = property(lambda self: self._bound)
    _degree = staticmethod(lambda key: key[0] + key[1])
    _eps_of = staticmethod(lambda key: key[0])
    _neg_key = staticmethod(lambda key: (-key[0], -key[1]))
    _key_json = staticmethod(list)

    @classmethod
    def monomial(cls, value: RationalLike, i: int, j: int,
                 total: int) -> "BiSeries":
        return cls({(i, j): value}, total)

    def coefficient(self, i: int, j: int) -> Fraction:
        n, d = self.terms.get((i, j), (0, 1))
        return Fraction(n, d)

    @staticmethod
    def _power_str(key: tuple) -> str:
        i, j = key
        parts = []
        if i:
            parts.append("eps" if i == 1 else f"eps^{i}")
        if j:
            parts.append("h" if j == 1 else f"h^{j}")
        return "*".join(parts)

    # -- substitutions and slices --------------------------------------

    def h_pole_order(self) -> int:
        """Most negative h exponent present (0 if none)."""
        return min((j for (_, j) in self.terms), default=0)

    def eps_slice(self, i0: int) -> "BiSeries":
        """Terms with eps exponent exactly i0 (kept as a BiSeries)."""
        return self._wrap({k: c for k, c in self.terms.items() if k[0] == i0})


class BiSeriesRing(_SeriesRing):
    """The ring of ``BiSeries`` truncated at total degree ``total``."""

    kind = "bi"
    series = BiSeries

    def __init__(self, total: int = DEFAULT_ORDER):
        super().__init__(total)
        self.total = total

    def monomial(self, value: RationalLike, i: int, j: int) -> BiSeries:
        return BiSeries.monomial(value, i, j, self.total)

    def exp(self, value: RationalLike, i: int, j: int) -> BiSeries:
        """exp(value * eps^i h^j) for a monomial argument with i+j >= 1."""
        if i + j < 1 or i < 0 or j < 0:
            raise SeriesDomainError("exp argument must be a positive-degree monomial")
        coeffs = _exp_coefficients(value, self.total // (i + j) + 1)
        return BiSeries({(k * i, k * j): c for k, c in enumerate(coeffs)},
                        self.total)

    def sinh_h(self, value: RationalLike = 1) -> BiSeries:
        """sinh(value * h) as a BiSeries in h alone."""
        return BiSeries({k: c for k, c in self.exp(value, 0, 1).terms.items()
                         if k[1] % 2}, self.total)
