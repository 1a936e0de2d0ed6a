"""Exact truncated formal series in the deformation parameters.

There is one ring core, ``_Series``, with two key types.  ``EpsSeries``
keys its terms by an ``int`` exponent: a sparse truncated power series in
one parameter ``eps`` over arbitrary-precision rationals, optionally Laurent
with a finite lower exponent bound.  ``BiSeries`` keys them by an ``(i, j)``
exponent pair: the two-parameter variant in ``(eps, h)`` used by the
two-parameter algebra, truncated by total degree, with an ``h`` exponent
that may go below zero (for 1/sinh(h)).  A value is its terms plus the two
bounds of its ring, nothing else.  Sums, differences, negation, rational
multiples, equality, powers and the inverse are the core's; each key type
has its own product and substitutions.

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
    """Mismatched truncation order or Laurent bound between operands."""


class SeriesDomainError(SeriesError):
    """Operation not defined for the given series (zero inverse, odd sqrt, ...)."""


class HBoundError(SeriesDomainError):
    """A two-parameter result needs an h exponent below the ring's ``h_min``."""


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
    rational pair with no stored zeros, plus the two bounds of its ring:
    the truncation degree and the lowest admissible exponent.  Everything
    that is blind to the key type lives here: sums, differences, negation
    and rational multiples through the kernel's ``s_add``/``s_sub``/
    ``s_neg``/``s_scale``, the constructors ``zero``/``one``/``constant``
    (each taking the two bounds), coercion of ints and Fractions, equality
    (which ignores the lower bound), powers, the inverse and printing.  A
    subclass supplies its key type: the key check of its constructor,
    ``_mul_terms`` (the product of two payloads, with the bound check of
    the type, which ``__mul__`` and the coalgebra loops share), ``_degree``
    and ``_neg_key`` of a key, and its substitutions.
    """

    __slots__ = ("terms", "_bounds")

    #: names of the two bounds, for display
    _BOUND_NAMES = ("hi", "lo")
    #: the key of the constant term
    _UNIT_KEY = None

    def _wrap(self, terms: dict):
        """A value of this ring whose terms are already clean (not copied)."""
        out = object.__new__(type(self))
        out.terms = terms
        out._bounds = self._bounds
        return out

    @classmethod
    def zero(cls, hi: int, lo: int = 0):
        return cls({}, hi, lo)

    @classmethod
    def constant(cls, value: RationalLike, hi: int, lo: int = 0):
        return cls({cls._UNIT_KEY: value}, hi, lo)

    @classmethod
    def one(cls, hi: int, lo: int = 0):
        return cls.constant(1, hi, lo)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._bounds[0] == other._bounds[0] and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.constant(other, *self._bounds)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self!s}, "
                f"{self._BOUND_NAMES[0]}={self._bounds[0]})")

    def __str__(self) -> str:
        return format_terms(self.terms, self._power_str)

    def _check(self, other) -> None:
        if self._bounds != other._bounds:
            (hi, lo), (ohi, olo) = self._bounds, other._bounds
            if hi != ohi:
                raise SeriesConfigError(f"truncation mismatch: {hi} vs {ohi}")
            raise SeriesConfigError(f"Laurent bound mismatch: {lo} vs {olo}")

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other, *self._bounds)
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
        return self._wrap(self._mul_terms(self.terms, other.terms, self._bounds))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = self.one(*self._bounds)
        for _ in range(n):
            out = out * self
        return out

    def invert(self):
        """Inverse when the lowest-degree part is a single monomial c*m.

        The result is (1/c) m^-1 sum_k (-u)^k with u = s/(c m) - 1, whose
        terms all have positive degree.  m^-1 must lie inside the bounds.
        For a leading degree v > 0 the result stores no degree above
        ``hi - v``; its terms above ``hi - 2v`` depend on coefficients of
        ``s`` beyond the truncation.
        """
        if not self.terms:
            raise SeriesDomainError("cannot invert the zero series")
        degree = self._degree
        dmin = min(degree(k) for k in self.terms)
        pivots = [k for k in self.terms if degree(k) == dmin]
        if len(pivots) != 1:
            raise SeriesDomainError(
                "inverse needs a unique lowest-total-degree monomial")
        hi, lo = self._bounds
        c = self.terms[pivots[0]]
        pivot_inv = type(self)({self._neg_key(pivots[0]): _q.qdiv((1, 1), c)}, hi, lo)
        u = self * pivot_inv - 1
        acc = result = self.one(hi, lo)
        for _ in range(hi + abs(dmin) + 1):
            acc = acc * (-u)
            if acc.is_zero():
                break
            result = result + acc
        return result * pivot_inv


class EpsSeries(_Series):
    """Truncated (optionally Laurent) power series in eps with exact coefficients.

    Keys are ``int`` exponents in ``[min_exp, order]``; the two bounds of the
    constructors are ``(order, min_exp)``.
    """

    __slots__ = ()

    _BOUND_NAMES = ("order", "min_exp")
    _UNIT_KEY = 0

    order = property(lambda self: self._bounds[0])
    min_exp = property(lambda self: self._bounds[1])
    _degree = staticmethod(lambda e: e)
    _neg_key = staticmethod(lambda e: -e)

    def __init__(self, terms: Mapping[int, tuple], order: int, min_exp: int = 0):
        if order < 1:
            raise SeriesConfigError("truncation order must be >= 1")
        if min_exp > 0:
            raise SeriesConfigError("min_exp must be <= 0")
        clean = {}
        for e, c in terms.items():
            c = as_pair(c)
            if c[0] == 0:
                continue
            if e > order:
                continue
            if e < min_exp:
                raise SeriesDomainError(
                    f"exponent {e} below Laurent bound {min_exp}")
            clean[e] = c
        self.terms = clean
        self._bounds = (order, min_exp)

    @classmethod
    def eps_power(cls, value: RationalLike, k: int, order: int, min_exp: int = 0) -> "EpsSeries":
        """The single-term series value * eps^k."""
        return cls({k: value}, order, min_exp)

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
    def _mul_terms(a: dict, b: dict, bounds: tuple) -> dict:
        """The product of two payloads of one ring with these bounds."""
        if not a or not b:
            return {}
        order, min_exp = bounds
        # with min_exp == 0 every stored exponent is >= 0: no underflow
        if min_exp < 0 and min(a) + min(b) < min_exp:
            raise SeriesDomainError(
                f"product underflows the Laurent bound {min_exp}")
        return _q.s_mul(a, b, order)

    def sqrt(self) -> "EpsSeries":
        """Square root, exact on rationals, leading coefficient positive.

        The lowest exponent must be even and its coefficient a square of a
        rational.
        """
        if not self.terms:
            return self
        k0 = min(self.terms)
        if k0 % 2:
            raise SeriesDomainError("square root needs an even lowest exponent")
        c0 = self.terms[k0]
        r0 = _rational_sqrt(c0)
        if r0 is None:
            raise SeriesDomainError(
                f"leading coefficient {pair_str(c0)} is not a rational square")
        half = k0 // 2
        out = {half: r0}
        two_r0 = _q.qmul((2, 1), r0)
        # b[half+n] = (a[k0+n] - sum_{i=1..n-1} b[half+i]*b[half+n-i]) / (2 b[half])
        for n in range(1, self.order - half + 1):
            acc = self.terms.get(k0 + n, (0, 1))
            for i in range(1, n):
                bi = out.get(half + i)
                bj = out.get(half + n - i)
                if bi is None or bj is None:
                    continue
                acc = _q.qsub(acc, _q.qmul(bi, bj))
            if acc[0]:
                out[half + n] = _q.qdiv(acc, two_r0)
        return self._wrap(out)

    # -- substitutions ----------------------------------------------------

    def eps_flip(self) -> "EpsSeries":
        """Substitute eps -> -eps."""
        return self._wrap(_q.s_eps_flip(self.terms))

    def stretch(self, k: int) -> "EpsSeries":
        """Substitute eps -> eps^k for k >= 1 (exponents scale by k)."""
        if k < 1:
            raise SeriesDomainError("stretch factor must be >= 1")
        out = {}
        for e, c in self.terms.items():
            ek = e * k
            if ek > self.order:
                continue
            if ek < self.min_exp:
                raise SeriesDomainError(
                    f"stretched exponent {ek} below Laurent bound {self.min_exp}")
            out[ek] = c
        return self._wrap(out)

    def truncate(self, k: int) -> "EpsSeries":
        """Drop all terms of exponent above k (keeps the ring order)."""
        if k >= self.order:
            return self
        return self._wrap({e: c for e, c in self.terms.items() if e <= k})

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

def exp_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """exp(k*eps) = sum_j (k eps)^j / j!, truncated at ``order``."""
    kq = as_pair(k)
    terms = {}
    c = (1, 1)
    for j in range(0, order + 1):
        if j:
            c = _q.qmul(c, _q.qdiv(kq, (j, 1)))
        terms[j] = c
    return EpsSeries(terms, order, min_exp)


def sinh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Odd part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    return EpsSeries({j: c for j, c in e.terms.items() if j % 2 == 1},
                     order, min_exp)


def cosh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Even part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    return EpsSeries({j: c for j, c in e.terms.items() if j % 2 == 0},
                     order, min_exp)


def even_series(coeffs: Iterable[RationalLike], order: int, min_exp: int = 0) -> EpsSeries:
    """Series with the given coefficients on eps^0, eps^2, eps^4, ...

    This is how the free even parameters (the A-series of the x2-x3 relation)
    enter configuration.
    """
    terms = {}
    for i, c in enumerate(coeffs):
        terms[2 * i] = c
    return EpsSeries(terms, order, min_exp)


class _SeriesRing:
    """Factory facade fixing the two bounds of one series type for one
    computation."""

    series = _Series

    def __init__(self, hi: int, lo: int):
        self._bounds = (hi, lo)
        self.one = self.series.one(hi, lo)
        self.zero = self.series.zero(hi, lo)

    def constant(self, value: RationalLike):
        return self.series.constant(value, *self._bounds)

    def __repr__(self) -> str:
        (n_hi, n_lo), (hi, lo) = self.series._BOUND_NAMES, self._bounds
        return f"{type(self).__name__}({n_hi}={hi}, {n_lo}={lo})"


class EpsSeriesRing(_SeriesRing):
    """The ring of ``EpsSeries`` with fixed (order, min_exp)."""

    kind = "eps"
    series = EpsSeries

    def __init__(self, order: int = DEFAULT_ORDER, min_exp: int = 0):
        super().__init__(order, min_exp)
        self.order = order
        self.min_exp = min_exp

    def eps_power(self, value: RationalLike, k: int) -> EpsSeries:
        return EpsSeries.eps_power(value, k, self.order, self.min_exp)

    def exp(self, k: RationalLike) -> EpsSeries:
        return exp_series(k, self.order, self.min_exp)

    def sinh(self, k: RationalLike) -> EpsSeries:
        return sinh_series(k, self.order, self.min_exp)

    def even(self, coeffs: Iterable[RationalLike]) -> EpsSeries:
        return even_series(coeffs, self.order, self.min_exp)


# ----------------------------------------------------------------------
# two-parameter series in (eps, h)
# ----------------------------------------------------------------------

class BiSeries(_Series):
    """Sparse series in (eps, h), truncated by total degree.

    Keys are ``(eps_exp, h_exp)`` pairs; ``eps_exp >= 0`` always, while
    ``h_exp`` may go down to ``h_min`` (Laurent in h only, for 1/sinh(h)).
    The two bounds of the constructors are ``(total, h_min)``.

    Truncation is a window on total degree.  For operands whose stored
    terms all have nonnegative total degree the windowed product is exact
    inside the window (no dropped term can re-enter it through a 1/h
    factor), which keeps multiplication associative; all scalars produced
    by the two-parameter rewrite system have that property.
    """

    __slots__ = ()

    _BOUND_NAMES = ("total", "h_min")
    _UNIT_KEY = (0, 0)

    total = property(lambda self: self._bounds[0])
    h_min = property(lambda self: self._bounds[1])
    _degree = staticmethod(lambda key: key[0] + key[1])
    _neg_key = staticmethod(lambda key: (-key[0], -key[1]))

    def __init__(self, terms: Mapping[tuple, tuple], total: int, h_min: int = 0):
        if total < 1:
            raise SeriesConfigError("total degree bound must be >= 1")
        clean = {}
        for (i, j), c in terms.items():
            c = as_pair(c)
            if c[0] == 0:
                continue
            if i < 0:
                raise SeriesDomainError("negative eps exponent in BiSeries")
            if j < h_min:
                raise HBoundError(
                    f"h exponent {j} below Laurent bound {h_min}")
            if i + j > total:
                continue
            clean[(i, j)] = c
        self.terms = clean
        self._bounds = (total, h_min)

    @classmethod
    def monomial(cls, value: RationalLike, i: int, j: int, total: int,
                 h_min: int = 0) -> "BiSeries":
        return cls({(i, j): value}, total, h_min)

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
    def _mul_terms(a: dict, b: dict, bounds: tuple) -> dict:
        """The product of two payloads of one ring with these bounds."""
        total, h_min = bounds
        out = _q.s_mul_total(a, b, total)
        if out and min(j for _, j in out) < h_min:
            raise HBoundError(f"product underflows h Laurent bound {h_min}")
        return out

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

    def specialize_h(self, factor: RationalLike, order: int,
                     min_exp: int = 0) -> EpsSeries:
        """Substitute h -> factor * eps, producing a one-parameter series."""
        f = Fraction(*as_pair(factor))
        out = {}
        for (i, j), (n, d) in self.terms.items():
            out[i + j] = out.get(i + j, 0) + Fraction(n, d) * f ** j
        return EpsSeries(out, order, min_exp)

    def to_json(self) -> dict:
        return {
            "terms": [[[i, j], pair_str(c)]
                      for (i, j), c in sorted(self.terms.items())],
            "total": self.total,
            "h_min": self.h_min,
        }


def exp_bi(value: RationalLike, i: int, j: int, total: int, h_min: int = 0) -> BiSeries:
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
    return BiSeries(terms, total, h_min)


def sinh_h(value: RationalLike, total: int, h_min: int = 0) -> BiSeries:
    """sinh(value * h) as a BiSeries in h alone."""
    e = exp_bi(value, 0, 1, total, h_min)
    return BiSeries({k: c for k, c in e.terms.items() if k[1] % 2 == 1},
                    total, h_min)


class BiSeriesRing(_SeriesRing):
    """The ring of ``BiSeries`` with fixed (total, h_min)."""

    kind = "bi"
    series = BiSeries

    def __init__(self, total: int = DEFAULT_ORDER, h_min: int = -2):
        super().__init__(total, h_min)
        self.total = total
        self.h_min = h_min

    def monomial(self, value: RationalLike, i: int, j: int) -> BiSeries:
        return BiSeries.monomial(value, i, j, self.total, self.h_min)

    def exp(self, value: RationalLike, i: int, j: int) -> BiSeries:
        return exp_bi(value, i, j, self.total, self.h_min)

    def sinh_h(self, value: RationalLike = 1) -> BiSeries:
        return sinh_h(value, self.total, self.h_min)
