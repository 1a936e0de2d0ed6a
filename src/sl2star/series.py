"""Exact truncated formal series in the deformation parameters.

There is one ring core, ``_Series``, with two key types.  ``EpsSeries``
keys its terms by a nonnegative ``int`` exponent: a sparse truncated power
series in one parameter ``eps`` over arbitrary-precision rationals, in which
every operation is exact through the truncation order (only units are
inverted or square-rooted).  ``BiSeries`` keys them by an ``(i, j)``
exponent pair: the two-parameter variant in ``(eps, h)`` used by the
two-parameter algebra, truncated by total degree, Laurent in ``h`` (for
1/sinh(h)).  A value is its terms plus the one bound of its ring, nothing
else.  Sums, differences, negation, rational multiples, equality, powers
and the inverse are the core's; each key type has its own product and
substitutions.

All values are immutable after construction and all operations are pure, so
instances are safe to share across threads.  Coefficients are stored as
reduced ``(num, den)`` int pairs and manipulated through the arithmetic
kernel ``_backend.kernel``; ``fractions.Fraction`` appears only at the API
boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from ._backend import kernel

_q = kernel

RationalLike = Union[int, Fraction, tuple, str]

DEFAULT_ORDER = 8


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class SeriesConfigError(SeriesError):
    """Mismatched truncation bound between operands."""


class SeriesDomainError(SeriesError):
    """Operation not defined for the given series (non-unit inverse or sqrt, ...)."""


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
    truncation degree.  Everything that is blind to the key type lives
    here: sums, differences, negation and rational multiples through the
    kernel's ``s_add``/``s_sub``/``s_neg``/``s_scale``, the constructors
    ``zero``/``one``/``constant`` (each taking the bound), coercion of ints
    and Fractions, equality, powers, the inverse and printing.  A subclass
    supplies its key type: the key check of its constructor, ``_mul_terms``
    (the product of two payloads truncated at the bound, which ``__mul__``
    and the coalgebra loops share), ``_degree`` and ``_neg_key`` of a key,
    and its substitutions.
    """

    __slots__ = ("terms", "_bound")

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
        out = self.one(self._bound)
        for _ in range(n):
            out = out * self
        return out

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

    def items(self):
        return sorted((e, Fraction(n, d)) for e, (n, d) in self.terms.items())

    @staticmethod
    def _power_str(e: int) -> str:
        if e == 0:
            return ""
        return "eps" if e == 1 else f"eps^{e}"

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _mul_terms(a: dict, b: dict, hi: int) -> dict:
        """The product of two payloads, truncated above degree ``hi``."""
        if not a or not b:
            return {}
        return _q.s_mul(a, b, hi)

    def sqrt(self) -> "EpsSeries":
        """Square root of a unit whose constant term is the square of a
        positive rational; exact through the order."""
        c0 = self.terms.get(0)
        if c0 is None:
            raise SeriesDomainError("square root needs a nonzero constant term")
        r0 = _rational_sqrt(c0)
        if r0 is None:
            raise SeriesDomainError(
                f"constant term {pair_str(c0)} is not a rational square")
        out = {0: r0}
        two_r0 = _q.qmul((2, 1), r0)
        # b[n] = (a[n] - sum_{i=1..n-1} b[i]*b[n-i]) / (2 b[0])
        for n in range(1, self.order + 1):
            acc = self.terms.get(n, (0, 1))
            for i in range(1, n):
                bi, bj = out.get(i), out.get(n - i)
                if bi and bj:
                    acc = _q.qsub(acc, _q.qmul(bi, bj))
            if acc[0]:
                out[n] = _q.qdiv(acc, two_r0)
        return self._wrap(out)

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


def _rational_sqrt(q: tuple):
    """Exact square root of a positive rational pair, or None."""
    n, d = q
    if n < 0:
        return None
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return (rn, rd)


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


# ----------------------------------------------------------------------
# standard one-parameter series
# ----------------------------------------------------------------------

def exp_series(k: RationalLike, order: int) -> EpsSeries:
    """exp(k*eps) = sum_j (k eps)^j / j!, truncated at ``order``."""
    kq = as_pair(k)
    terms = {}
    c = (1, 1)
    for j in range(0, order + 1):
        if j:
            c = _q.qmul(c, _q.qdiv(kq, (j, 1)))
        terms[j] = c
    return EpsSeries(terms, order)


def sinh_series(k: RationalLike, order: int) -> EpsSeries:
    """Odd part of exp(k*eps)."""
    e = exp_series(k, order)
    return EpsSeries({j: c for j, c in e.terms.items() if j % 2 == 1}, order)


def sinh_over_eps_series(k: RationalLike, order: int) -> EpsSeries:
    """The unit sinh(k*eps)/eps = k + k^3 eps^2/6 + ..., exact through
    ``order`` (read from sinh(k*eps) through ``order + 1``)."""
    s = sinh_series(k, order + 1)
    return EpsSeries({j - 1: c for j, c in s.terms.items()}, order)


def even_series(coeffs: Iterable[RationalLike], order: int) -> EpsSeries:
    """Series with the given coefficients on eps^0, eps^2, eps^4, ...

    This is how the free even parameters (the A-series of the x2-x3 relation)
    enter configuration.
    """
    terms = {}
    for i, c in enumerate(coeffs):
        terms[2 * i] = c
    return EpsSeries(terms, order)


class _SeriesRing:
    """Factory facade fixing the bound of one series type for one
    computation."""

    series = _Series

    def __init__(self, bound: int):
        self._bound = bound
        self.one = self.series.one(bound)
        self.zero = self.series.zero(bound)

    def constant(self, value: RationalLike):
        return self.series.constant(value, self._bound)

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
        return exp_series(k, self.order)

    def sinh(self, k: RationalLike) -> EpsSeries:
        return sinh_series(k, self.order)

    def sinh_over_eps(self, k: RationalLike) -> EpsSeries:
        return sinh_over_eps_series(k, self.order)

    def even(self, coeffs: Iterable[RationalLike]) -> EpsSeries:
        return even_series(coeffs, self.order)


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

    @staticmethod
    def _mul_terms(a: dict, b: dict, hi: int) -> dict:
        """The product of two payloads, truncated above total degree ``hi``."""
        return _q.s_mul_total(a, b, hi)

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


def exp_bi(value: RationalLike, i: int, j: int, total: int) -> BiSeries:
    """exp(value * eps^i h^j) for a monomial argument with i+j >= 1."""
    if i + j < 1 or i < 0 or j < 0:
        raise SeriesDomainError("exp argument must be a positive-degree monomial")
    v = as_pair(value)
    terms = {}
    c = (1, 1)
    k = 0
    while k * (i + j) <= total:
        if k:
            c = _q.qmul(c, _q.qdiv(v, (k, 1)))
        terms[(k * i, k * j)] = c
        k += 1
    return BiSeries(terms, total)


def sinh_h(value: RationalLike, total: int) -> BiSeries:
    """sinh(value * h) as a BiSeries in h alone."""
    e = exp_bi(value, 0, 1, total)
    return BiSeries({k: c for k, c in e.terms.items() if k[1] % 2 == 1}, total)


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
        return exp_bi(value, i, j, self.total)

    def sinh_h(self, value: RationalLike = 1) -> BiSeries:
        return sinh_h(value, self.total)
