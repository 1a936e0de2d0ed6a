"""Exact truncated formal series in the deformation parameters.

There is one ring core, ``_Series``, with two key types.  ``EpsSeries``
keys its terms by a nonnegative ``int`` exponent: a sparse truncated power
series in one parameter ``eps`` over arbitrary-precision rationals, in which
every operation is exact through the truncation order (only units are
inverted, and no root is ever taken).  ``BiSeries`` keys them by an ``(i, j)``
exponent pair: the two-parameter variant in ``(eps, h)`` used by the
two-parameter algebra, truncated by total degree, Laurent in ``h`` (for
1/sinh(h)).  A value is its terms plus the one bound of its ring, nothing
else.  Sums, differences, negation, rational multiples, equality, powers
and the inverse are the core's; each key type has its own product and
substitutions.  The standard series (exp, sinh, sinh/eps, the even
A-series, sinh h) have one constructor each, a method of the ring
(``EpsSeriesRing``, ``BiSeriesRing``) that fixes the bound.

All values are immutable after construction and all operations are pure, so
instances are safe to share across threads.  Coefficients are stored as
reduced ``(num, den)`` int pairs and manipulated through the arithmetic
kernel ``_backend.kernel``; ``fractions.Fraction`` appears only at the API
boundary.  No other module of the package reaches the kernel.  A value
caches its kernel lift (``lifted()``, integer numerators over one
denominator, in tuples), and ``ProductSums``, the one place that multiplies
and sums lifted forms (with no gcd), runs the coalgebra's loops and the
normal-form fold of ``ncalg``, so a scalar used again and again is lifted
once.  A ring also hash-conses the scalars its rewrite system caches.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from ._backend import kernel

_q = kernel

RationalLike = Union[int, Fraction, tuple, str]

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
    """Coerce an int/Fraction/"p/q" string/pair into a reduced (num, den) pair."""
    if isinstance(x, tuple):
        return _q.qnorm(x[0], x[1])
    if isinstance(x, int):
        return (x, 1)
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return _q.qnorm(int(num), int(den) if den else 1)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def pair_str(q: tuple) -> str:
    n, d = q
    return str(n) if d == 1 else f"{n}/{d}"


class _Series:
    """The ring core shared by ``EpsSeries`` and ``BiSeries``.

    A value is ``terms``, a sparse dict from an exponent key to a reduced
    rational pair with no stored zeros, plus the one bound of its ring: the
    truncation degree; ``lifted()`` caches the kernel's lift of ``terms``
    on first use.  Everything that is blind to the key type lives
    here: sums, differences, negation and rational multiples through the
    kernel's ``s_add``/``s_sub``/``s_neg``/``s_scale``, the constructors
    ``zero``/``one``/``constant`` (each taking the bound), coercion of ints
    and Fractions, equality, powers, the inverse and printing.  A subclass
    supplies its key type: the key check of its constructor, ``_mul_terms``
    (the product of two payloads truncated at the bound, which ``__mul__``
    and ``ProductSums`` share), ``_SPAN`` (how the kernel codes its keys),
    ``_degree`` and ``_neg_key`` of a key, and its substitutions.
    """

    __slots__ = ("terms", "_bound", "_lifted")

    #: name of the bound, for display
    _BOUND_NAME = "hi"
    #: the key of the constant term
    _UNIT_KEY = None

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
        return self._wrap(_q.s_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._wrap(_q.s_sub(self.terms, other.terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._wrap(_q.s_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(_q.s_scale(self.terms, as_pair(other)))
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._wrap(self._mul_terms(self.terms, other.terms, self._bound))

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
        pivot_inv = type(self)({self._neg_key(pivots[0]): _q.qdiv((1, 1), c)}, bound)
        u = self * pivot_inv - 1
        acc = result = self.one(bound)
        for _ in range(bound + abs(dmin) + 1):
            acc = acc * (-u)
            if acc.is_zero():
                break
            result = result + acc
        return result * pivot_inv


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
    _degree = staticmethod(lambda e: e)
    _neg_key = staticmethod(lambda e: -e)

    def __init__(self, terms: Mapping[int, tuple], order: int):
        if order < 1:
            raise SeriesConfigError("truncation order must be >= 1")
        clean = {}
        for e, c in terms.items():
            c = as_pair(c)
            if c[0] == 0:
                continue
            if e > order:
                continue
            if e < 0:
                raise SeriesDomainError(
                    f"eps exponent {e} is negative: an EpsSeries is a power "
                    f"series (only units invert)")
            clean[e] = c
        self.terms = clean
        self._bound = order

    # -- misc queries ---------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        n, d = self.terms.get(k, (0, 1))
        return Fraction(n, d)

    @staticmethod
    def _power_str(e: int) -> str:
        if e == 0:
            return ""
        return "eps" if e == 1 else f"eps^{e}"

    # -- ring operations ------------------------------------------------

    #: the product of two payloads, truncated above degree ``hi``
    _mul_terms = staticmethod(lambda a, b, hi: _q.s_mul(a, b, hi))

    # -- substitutions ----------------------------------------------------

    def eps_flip(self) -> "EpsSeries":
        """Substitute eps -> -eps."""
        return self._wrap(_q.s_eps_flip(self.terms))

    def stretch(self, k: int) -> "EpsSeries":
        """Substitute eps -> eps^k for k >= 1 (exponents scale by k)."""
        if k < 1:
            raise SeriesDomainError("stretch factor must be >= 1")
        return self._wrap({e * k: c for e, c in self.terms.items()
                           if e * k <= self.order})

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [[e, pair_str(c)] for e, c in sorted(self.terms.items())],
            "order": self.order,
        }


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
    v = as_pair(value)
    out = [(1, 1)]
    for k in range(1, count):
        out.append(_q.qmul(out[-1], _q.qdiv(v, (k, 1))))
    return out


class ProductSums:
    """Sums of products of scalars of one ring, each sum reduced once; the
    one accumulator that knows the lifted form.

    ``times(p, c)`` is ``p`` (lifted or a scalar) times the scalar ``c``,
    lifted with no gcd; ``add(key, a, c)`` adds a * c, ``a`` lifted or a
    scalar, to the sum at ``key``.  Two scalars multiply reduced only when
    one of them has a single term.  ``times_letter(row, letter)`` moves each
    sum through one letter of a word: the sum at a key goes to every key of
    ``row(key, letter)`` times its scalar.  A sum stays a scalar while it is
    ``ring.one`` or one row scalar; a lifted sum then drops its zeros and,
    past a machine-word denominator, its common factor (``cancel``), so the
    sums of a long word stay small.  ``coefficients()`` reduces each sum
    once; a sum equal to 1 is ``ring.one`` itself, and ``ring.one`` factors
    are skipped by identity.  Make one per call: nothing outlives it.
    """

    def __init__(self, ring: "_SeriesRing"):
        one = ring.one
        hi, span = one._bound, one._SPAN
        lim = _q.limit(hi, span)
        sums = {}
        convolve, add_lifted, cancel = _q.convolve, _q.add_lifted, _q.cancel
        mul, wrap = one._mul_terms, one._wrap

        def times(p, c):
            if type(p) is not tuple:
                p = p.lifted()
            return p if c is one else convolve(p, c.lifted(), lim)

        def add(key, a, c=one):
            if c is not one:
                if type(a) is tuple:
                    a = convolve(a, c.lifted(), lim)
                elif len(a.terms) > 1 and len(c.terms) > 1:
                    a = convolve(a.lifted(), c.lifted(), lim)
                else:
                    a = wrap(mul(a.terms, c.terms, hi))
            cur = sums.get(key)
            sums[key] = a if cur is None else add_lifted(
                cur if type(cur) is tuple else cur.lifted(),
                a if type(a) is tuple else a.lifted())

        def times_letter(row, letter):
            nonlocal sums
            out = {}
            for key, coeff in sums.items():
                for key2, c in row(key, letter):
                    if c is one:
                        c = coeff
                    elif coeff is not one:
                        c = convolve(coeff if type(coeff) is tuple
                                     else coeff.lifted(), c.lifted(), lim)
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
    caches on its own ring, so each product of two of them is taken once.
    """

    series = _Series

    def __init__(self, bound: int):
        self._bound = bound
        self.one = one = self.series.one(bound)
        self.zero = self.series.zero(bound)
        self._interned = {one.lifted(): one}
        self._pairs = {}

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
    _neg_key = staticmethod(lambda key: (-key[0], -key[1]))

    def __init__(self, terms: Mapping[tuple, tuple], total: int):
        if total < 1:
            raise SeriesConfigError("total degree bound must be >= 1")
        clean = {}
        for (i, j), c in terms.items():
            c = as_pair(c)
            if c[0] == 0:
                continue
            if i < 0:
                raise SeriesDomainError("negative eps exponent in BiSeries")
            if i + j > total:
                continue
            clean[(i, j)] = c
        self.terms = clean
        self._bound = total

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

    #: the product of two payloads, truncated above total degree ``hi``
    _mul_terms = staticmethod(lambda a, b, hi: _q.s_mul_total(a, b, hi))

    # -- substitutions and slices --------------------------------------

    def eps_flip(self) -> "BiSeries":
        """Substitute eps -> -eps (h untouched)."""
        return self._wrap(
            {(i, j): ((-n, d) if i % 2 else (n, d))
             for (i, j), (n, d) in self.terms.items()})

    def h_pole_order(self) -> int:
        """Most negative h exponent present (0 if none)."""
        return min((j for (_, j) in self.terms), default=0)

    def eps_slice(self, i0: int) -> "BiSeries":
        """Terms with eps exponent exactly i0 (kept as a BiSeries)."""
        return self._wrap({k: c for k, c in self.terms.items() if k[0] == i0})

    def specialize_h(self, factor: RationalLike, order: int) -> EpsSeries:
        """Substitute h -> factor * eps, producing a one-parameter series
        (a term of negative total degree is refused)."""
        f = Fraction(*as_pair(factor))
        out = {}
        for (i, j), (n, d) in self.terms.items():
            out[i + j] = out.get(i + j, 0) + Fraction(n, d) * f ** j
        return EpsSeries(out, order)

    def to_json(self) -> dict:
        return {
            "terms": [[[i, j], pair_str(c)]
                      for (i, j), c in sorted(self.terms.items())],
            "total": self.total,
        }


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
