"""Exact truncated formal series in the deformation parameters.

There is one ring core, ``_Series``, with two key types.  ``EpsSeries``
keys its terms by an ``int`` exponent: a sparse truncated power series in
one parameter ``eps`` over arbitrary-precision rationals, optionally Laurent
with a finite lower exponent bound.  ``BiSeries`` keys them by an ``(i, j)``
exponent pair: the two-parameter variant in ``(eps, h)`` used by the
two-parameter algebra, truncated by total degree, with an ``h`` exponent
that may go below zero (for 1/sinh(h)).  Sums, differences, negation,
rational multiples, equality and powers are the core's; each key type has
its own product, inverse and substitutions.

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
    (each taking the two bounds), coercion of ints and Fractions, equality,
    powers and printing.  A subclass supplies its key type: the key check of
    its constructor, ``_mul``, ``invert`` and the rest.

    ``truncated`` records that terms beyond the truncation were discarded
    somewhere in the history of the value; it is informational and, like
    the lower bound, ignored by equality.
    """

    __slots__ = ("terms", "_bounds", "truncated")

    #: names of the two bounds, for display
    _BOUND_NAMES = ("hi", "lo")
    #: the key of the constant term
    _UNIT_KEY = None

    def _wrap(self, terms: dict, truncated: bool):
        """A value of this ring whose terms are already clean (not copied)."""
        out = object.__new__(type(self))
        out.terms = terms
        out._bounds = self._bounds
        out.truncated = truncated
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
        return self._wrap(_q.s_add(self.terms, other.terms),
                          self.truncated or other.truncated)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._wrap(_q.s_sub(self.terms, other.terms),
                          self.truncated or other.truncated)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._wrap(_q.s_neg(self.terms), self.truncated)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(_q.s_scale(self.terms, as_pair(other)),
                              self.truncated)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._mul(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = self.one(*self._bounds)
        for _ in range(n):
            out = out * self
        return out


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

    def __init__(self, terms: Mapping[int, tuple], order: int, min_exp: int = 0,
                 truncated: bool = False):
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
                truncated = True
                continue
            if e < min_exp:
                raise SeriesDomainError(
                    f"exponent {e} below Laurent bound {min_exp}")
            clean[e] = c
        self.terms = clean
        self._bounds = (order, min_exp)
        self.truncated = truncated

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

    def _mul(self, other: "EpsSeries") -> "EpsSeries":
        if not self.terms or not other.terms:
            return self._wrap({}, False)
        order, min_exp = self._bounds
        if min(self.terms) + min(other.terms) < min_exp:
            raise SeriesDomainError(
                f"product underflows the Laurent bound {min_exp}")
        flag = self.truncated or other.truncated \
            or (max(self.terms) + max(other.terms) > order)
        return self._wrap(_q.s_mul(self.terms, other.terms, order), flag)

    def invert(self) -> "EpsSeries":
        """Multiplicative inverse up to truncation.

        Requires a nonzero lowest coefficient and enough Laurent headroom for
        the reciprocal of the lowest term.
        """
        if not self.terms:
            raise SeriesDomainError("cannot invert the zero series")
        k0 = min(self.terms)
        if -k0 < self.min_exp:
            raise SeriesDomainError(
                f"inverse needs exponent {-k0}, below Laurent bound {self.min_exp}")
        c0 = self.terms[k0]
        inv0 = _q.qdiv((1, 1), c0)
        out = {-k0: inv0}
        # b[-k0+n] = -(1/c0) * sum_{j=1..n} a[k0+j] * b[-k0+n-j]
        for n in range(1, self.order + k0 + 1):
            acc = (0, 1)
            for j in range(1, n + 1):
                a_j = self.terms.get(k0 + j)
                if a_j is None:
                    continue
                b_prev = out.get(-k0 + n - j)
                if b_prev is None:
                    continue
                acc = _q.qadd(acc, _q.qmul(a_j, b_prev))
            if acc[0]:
                out[-k0 + n] = _q.qmul(_q.qneg(acc), inv0)
        exact = len(self.terms) == 1
        return self._wrap(out, self.truncated or not exact)

    def sqrt(self) -> "EpsSeries":
        """Square root, exact on rationals, leading coefficient positive.

        The lowest exponent must be even and its coefficient a square of a
        rational.
        """
        if not self.terms:
            return self._wrap({}, self.truncated)
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
        exact = len(self.terms) == 1
        return self._wrap(out, self.truncated or not exact)

    # -- substitutions ----------------------------------------------------

    def eps_flip(self) -> "EpsSeries":
        """Substitute eps -> -eps."""
        return self._wrap(_q.s_eps_flip(self.terms), self.truncated)

    def stretch(self, k: int) -> "EpsSeries":
        """Substitute eps -> eps^k for k >= 1 (exponents scale by k)."""
        if k < 1:
            raise SeriesDomainError("stretch factor must be >= 1")
        out = {}
        flag = self.truncated
        for e, c in self.terms.items():
            ek = e * k
            if ek > self.order:
                flag = True
                continue
            if ek < self.min_exp:
                raise SeriesDomainError(
                    f"stretched exponent {ek} below Laurent bound {self.min_exp}")
            out[ek] = c
        return self._wrap(out, flag)

    def truncate(self, k: int) -> "EpsSeries":
        """Drop all terms of exponent above k (keeps the ring order)."""
        if k >= self.order:
            return self
        out = {e: c for e, c in self.terms.items() if e <= k}
        return self._wrap(out, True)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [[e, pair_str(c)] for e, c in sorted(self.terms.items())],
            "order": self.order,
        }

    @classmethod
    def from_json(cls, data: dict, min_exp: int = None) -> "EpsSeries":
        terms = {int(e): as_pair(s) for e, s in data["terms"]}
        if min_exp is None:
            min_exp = min((e for e in terms), default=0)
            min_exp = min(min_exp, 0)
        return cls(terms, int(data["order"]), min_exp)


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
    return EpsSeries(terms, order, min_exp, truncated=kq[0] != 0)


def sinh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Odd part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    return EpsSeries({j: c for j, c in e.terms.items() if j % 2 == 1},
                     order, min_exp, e.truncated)


def cosh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Even part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    return EpsSeries({j: c for j, c in e.terms.items() if j % 2 == 0},
                     order, min_exp, e.truncated)


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

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._bounds == other._bounds


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

    def __init__(self, terms: Mapping[tuple, tuple], total: int, h_min: int = 0,
                 truncated: bool = False):
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
                truncated = True
                continue
            clean[(i, j)] = c
        self.terms = clean
        self._bounds = (total, h_min)
        self.truncated = truncated

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

    def _mul(self, other: "BiSeries") -> "BiSeries":
        total, h_min = self._bounds
        a, b = self.terms, other.terms
        out = _q.s_mul_total(a, b, total)
        if out and min(j for _, j in out) < h_min:
            raise HBoundError(f"product underflows h Laurent bound {h_min}")
        flag = self.truncated or other.truncated or (
            bool(a and b) and _top_degree(a) + _top_degree(b) > total)
        return self._wrap(out, flag)

    def invert(self) -> "BiSeries":
        """Inverse when the minimal-total-degree part is a single monomial."""
        if not self.terms:
            raise SeriesDomainError("cannot invert the zero series")
        dmin = min(i + j for i, j in self.terms)
        pivots = [k for k in self.terms if k[0] + k[1] == dmin]
        if len(pivots) != 1:
            raise SeriesDomainError(
                "inverse needs a unique lowest-total-degree monomial")
        (pi, pj) = pivots[0]
        if pi > 0:
            raise SeriesDomainError("cannot invert a positive power of eps")
        total, h_min = self._bounds
        if -pj < h_min:
            raise HBoundError(
                f"inverse needs h exponent {-pj}, below bound {h_min}")
        c0 = self.terms[(pi, pj)]
        pivot_inv = BiSeries.monomial(Fraction(c0[1], c0[0]), -pi, -pj,
                                      total, h_min)
        u = self * pivot_inv - 1
        acc = result = self.one(total, h_min)
        for _ in range(total + abs(dmin) + 1):
            acc = acc * (-u)
            if acc.is_zero():
                break
            result = result + acc
        out = result * pivot_inv
        return self._wrap(out.terms, self.truncated or len(self.terms) > 1)

    # -- substitutions and slices --------------------------------------

    def eps_flip(self) -> "BiSeries":
        """Substitute eps -> -eps (h untouched)."""
        return self._wrap(
            {(i, j): ((-n, d) if i % 2 else (n, d))
             for (i, j), (n, d) in self.terms.items()},
            self.truncated)

    def h_pole_order(self) -> int:
        """Most negative h exponent present (0 if none)."""
        return min((j for (_, j) in self.terms), default=0)

    def h_slice(self, j0: int, order: int = None, min_exp: int = 0) -> EpsSeries:
        """Coefficient of h^j0 as a one-parameter series in eps."""
        order = order if order is not None else self.total
        terms = {i: c for (i, j), c in self.terms.items() if j == j0}
        return EpsSeries(terms, order, min_exp, truncated=self.truncated)

    def eps_slice(self, i0: int) -> "BiSeries":
        """Terms with eps exponent exactly i0 (kept as a BiSeries)."""
        terms = {k: c for k, c in self.terms.items() if k[0] == i0}
        return self._wrap(terms, self.truncated)

    def specialize_h(self, factor: RationalLike, order: int,
                     min_exp: int = 0) -> EpsSeries:
        """Substitute h -> factor * eps, producing a one-parameter series."""
        f = Fraction(*as_pair(factor))
        out = EpsSeries({}, order, min_exp, self.truncated)
        for (i, j), (n, d) in self.terms.items():
            out = out + EpsSeries.eps_power(Fraction(n, d) * f ** j, i + j,
                                            order, min_exp)
        return out

    def to_json(self) -> dict:
        return {
            "terms": [[[i, j], pair_str(c)]
                      for (i, j), c in sorted(self.terms.items())],
            "total": self.total,
            "h_min": self.h_min,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BiSeries":
        terms = {(int(i), int(j)): as_pair(s) for (i, j), s in data["terms"]}
        return cls(terms, int(data["total"]), int(data.get("h_min", 0)))


def _top_degree(terms: Mapping[tuple, tuple]) -> int:
    return max(i + j for i, j in terms)


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
    return BiSeries(terms, total, h_min, truncated=v[0] != 0)


def sinh_h(value: RationalLike, total: int, h_min: int = 0) -> BiSeries:
    """sinh(value * h) as a BiSeries in h alone."""
    e = exp_bi(value, 0, 1, total, h_min)
    return BiSeries({k: c for k, c in e.terms.items() if k[1] % 2 == 1},
                    total, h_min, e.truncated)


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
