"""Exact truncated formal series in the deformation parameters.

``EpsSeries`` is a sparse truncated power series in one parameter ``eps``
over arbitrary-precision rationals, optionally Laurent with a finite lower
exponent bound.  ``BiSeries`` is the two-parameter variant in ``(eps, h)``
used by the two-parameter algebra; it is truncated by total degree and its
``h`` exponent may go below zero (for 1/sinh(h)).

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


class EpsSeries:
    """Truncated (optionally Laurent) power series in eps with exact coefficients.

    Invariants: no stored zero coefficients; all exponents lie in
    ``[min_exp, order]``.  ``truncated`` records that terms beyond ``order``
    were discarded somewhere in the history of the value; it is informational
    and ignored by equality.
    """

    __slots__ = ("order", "min_exp", "terms", "truncated")

    def __init__(self, terms: Mapping[int, tuple], order: int, min_exp: int = 0,
                 truncated: bool = False, _raw: bool = False):
        if order < 1:
            raise SeriesConfigError("truncation order must be >= 1")
        if min_exp > 0:
            raise SeriesConfigError("min_exp must be <= 0")
        self.order = order
        self.min_exp = min_exp
        if _raw:
            self.terms = dict(terms)
        else:
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
        self.truncated = truncated

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int, min_exp: int = 0) -> "EpsSeries":
        return cls({}, order, min_exp, _raw=True)

    @classmethod
    def constant(cls, value: RationalLike, order: int, min_exp: int = 0) -> "EpsSeries":
        return cls({0: value}, order, min_exp)

    @classmethod
    def one(cls, order: int, min_exp: int = 0) -> "EpsSeries":
        return cls.constant(1, order, min_exp)

    @classmethod
    def eps_power(cls, value: RationalLike, k: int, order: int, min_exp: int = 0) -> "EpsSeries":
        """The single-term series value * eps^k."""
        return cls({k: value}, order, min_exp)

    # -- misc queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def low(self) -> int:
        """Lowest exponent with a nonzero coefficient."""
        if not self.terms:
            raise SeriesDomainError("zero series has no lowest term")
        return min(self.terms)

    def high(self) -> int:
        if not self.terms:
            raise SeriesDomainError("zero series has no highest term")
        return max(self.terms)

    def coefficient(self, k: int) -> Fraction:
        n, d = self.terms.get(k, (0, 1))
        return Fraction(n, d)

    def items(self):
        return sorted((e, Fraction(n, d)) for e, (n, d) in self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, EpsSeries):
            return self.order == other.order and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == EpsSeries.constant(other, self.order, self.min_exp)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EpsSeries({self!s}, order={self.order})"

    def __str__(self) -> str:
        return format_terms(self.terms, lambda e: _eps_power_str(e))

    # -- ring operations ------------------------------------------------

    def _check(self, other: "EpsSeries") -> None:
        if self.order != other.order:
            raise SeriesConfigError(
                f"truncation mismatch: {self.order} vs {other.order}")
        if self.min_exp != other.min_exp:
            raise SeriesConfigError(
                f"Laurent bound mismatch: {self.min_exp} vs {other.min_exp}")

    def _wrap(self, terms: dict, truncated: bool) -> "EpsSeries":
        return EpsSeries(terms, self.order, self.min_exp, truncated, _raw=True)

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

    def _coerce(self, other):
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsSeries.constant(other, self.order, self.min_exp)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_pair(other)
            return self._wrap(_q.s_scale(self.terms, q), self.truncated)
        if not isinstance(other, EpsSeries):
            return NotImplemented
        self._check(other)
        if not self.terms or not other.terms:
            return self._wrap({}, False)
        if min(self.terms) + min(other.terms) < self.min_exp:
            raise SeriesDomainError(
                "product underflows the Laurent bound "
                f"{self.min_exp}")
        flag = self.truncated or other.truncated \
            or (max(self.terms) + max(other.terms) > self.order)
        return self._wrap(_q.s_mul(self.terms, other.terms, self.order), flag)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = EpsSeries.one(self.order, self.min_exp)
        for _ in range(n):
            out = out * self
        return out

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

    def with_min_exp(self, min_exp: int) -> "EpsSeries":
        """Same series viewed with a different Laurent bound."""
        return EpsSeries(self.terms, self.order, min_exp, self.truncated)

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


def _eps_power_str(e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "eps"
    return f"eps^{e}"


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
        if c[0]:
            terms[j] = c
    return EpsSeries(terms, order, min_exp, truncated=kq[0] != 0, _raw=True)


def sinh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Odd part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    terms = {j: c for j, c in e.terms.items() if j % 2 == 1}
    return EpsSeries(terms, order, min_exp, truncated=e.truncated, _raw=True)


def cosh_series(k: RationalLike, order: int, min_exp: int = 0) -> EpsSeries:
    """Even part of exp(k*eps)."""
    e = exp_series(k, order, min_exp)
    terms = {j: c for j, c in e.terms.items() if j % 2 == 0}
    return EpsSeries(terms, order, min_exp, truncated=e.truncated, _raw=True)


def even_series(coeffs: Iterable[RationalLike], order: int, min_exp: int = 0) -> EpsSeries:
    """Series with the given coefficients on eps^0, eps^2, eps^4, ...

    This is how the free even parameters (the A-series of the x2-x3 relation)
    enter configuration.
    """
    terms = {}
    for i, c in enumerate(coeffs):
        terms[2 * i] = c
    return EpsSeries(terms, order, min_exp)


class EpsSeriesRing:
    """Factory facade fixing (order, min_exp) for one computation."""

    kind = "eps"

    def __init__(self, order: int = DEFAULT_ORDER, min_exp: int = 0):
        self.order = order
        self.min_exp = min_exp
        self._one = EpsSeries.one(order, min_exp)
        self._zero = EpsSeries.zero(order, min_exp)

    @property
    def one(self) -> EpsSeries:
        return self._one

    @property
    def zero(self) -> EpsSeries:
        return self._zero

    def constant(self, value: RationalLike) -> EpsSeries:
        return EpsSeries.constant(value, self.order, self.min_exp)

    def eps_power(self, value: RationalLike, k: int) -> EpsSeries:
        return EpsSeries.eps_power(value, k, self.order, self.min_exp)

    def exp(self, k: RationalLike) -> EpsSeries:
        return exp_series(k, self.order, self.min_exp)

    def sinh(self, k: RationalLike) -> EpsSeries:
        return sinh_series(k, self.order, self.min_exp)

    def cosh(self, k: RationalLike) -> EpsSeries:
        return cosh_series(k, self.order, self.min_exp)

    def even(self, coeffs: Iterable[RationalLike]) -> EpsSeries:
        return even_series(coeffs, self.order, self.min_exp)

    def __repr__(self) -> str:
        return f"EpsSeriesRing(order={self.order}, min_exp={self.min_exp})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, EpsSeriesRing)
                and self.order == other.order and self.min_exp == other.min_exp)


# ----------------------------------------------------------------------
# two-parameter series in (eps, h)
# ----------------------------------------------------------------------

class BiSeries:
    """Sparse series in (eps, h), truncated by total degree.

    Keys are ``(eps_exp, h_exp)`` pairs; ``eps_exp >= 0`` always, while
    ``h_exp`` may go down to ``h_min`` (Laurent in h only, for 1/sinh(h)).

    Truncation is a window on total degree.  For operands whose stored
    terms all have nonnegative total degree the windowed product is exact
    inside the window (no dropped term can re-enter it through a 1/h
    factor), which keeps multiplication associative; all scalars produced
    by the two-parameter rewrite system have that property.
    """

    __slots__ = ("total", "h_min", "terms", "truncated")

    def __init__(self, terms: Mapping[tuple, tuple], total: int, h_min: int = 0,
                 truncated: bool = False, _raw: bool = False):
        if total < 1:
            raise SeriesConfigError("total degree bound must be >= 1")
        self.total = total
        self.h_min = h_min
        if _raw:
            self.terms = dict(terms)
        else:
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
        self.truncated = truncated

    @classmethod
    def zero(cls, total: int, h_min: int = 0) -> "BiSeries":
        return cls({}, total, h_min, _raw=True)

    @classmethod
    def constant(cls, value: RationalLike, total: int, h_min: int = 0) -> "BiSeries":
        return cls({(0, 0): value}, total, h_min)

    @classmethod
    def one(cls, total: int, h_min: int = 0) -> "BiSeries":
        return cls.constant(1, total, h_min)

    @classmethod
    def monomial(cls, value: RationalLike, i: int, j: int, total: int,
                 h_min: int = 0) -> "BiSeries":
        return cls({(i, j): value}, total, h_min)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int) -> Fraction:
        n, d = self.terms.get((i, j), (0, 1))
        return Fraction(n, d)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiSeries):
            return self.total == other.total and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == BiSeries.constant(other, self.total, self.h_min)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return format_terms(self.terms, _bi_power_str)

    def __repr__(self) -> str:
        return f"BiSeries({self!s}, total={self.total})"

    def _check(self, other: "BiSeries") -> None:
        if self.total != other.total:
            raise SeriesConfigError(
                f"truncation mismatch: {self.total} vs {other.total}")
        if self.h_min != other.h_min:
            raise SeriesConfigError(
                f"Laurent bound mismatch: {self.h_min} vs {other.h_min}")

    def _wrap(self, terms: dict, truncated: bool) -> "BiSeries":
        return BiSeries(terms, self.total, self.h_min, truncated, _raw=True)

    def _coerce(self, other):
        if isinstance(other, BiSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return BiSeries.constant(other, self.total, self.h_min)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            cur = out.get(k)
            s = c if cur is None else _q.qadd(cur, c)
            if s[0] == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return self._wrap(out, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: (-n, d) for k, (n, d) in self.terms.items()},
                          self.truncated)

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_pair(other)
            if q[0] == 0:
                return self._wrap({}, False)
            return self._wrap({k: _q.qmul(c, q) for k, c in self.terms.items()},
                              self.truncated)
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check(other)
        out = {}
        flag = self.truncated or other.truncated
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j > self.total:
                    flag = True
                    continue
                if j < self.h_min:
                    raise HBoundError(
                        f"product underflows h Laurent bound {self.h_min}")
                p = _q.qmul(c1, c2)
                cur = out.get((i, j))
                s = p if cur is None else _q.qadd(cur, p)
                if s[0] == 0:
                    out.pop((i, j), None)
                else:
                    out[(i, j)] = s
        return self._wrap(out, flag)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = BiSeries.one(self.total, self.h_min)
        for _ in range(n):
            out = out * self
        return out

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
        if -pj < self.h_min:
            raise HBoundError(
                f"inverse needs h exponent {-pj}, below bound {self.h_min}")
        c0 = self.terms[(pi, pj)]
        pivot_inv = BiSeries.monomial(Fraction(c0[1], c0[0]), -pi, -pj,
                                      self.total, self.h_min)
        u = self * pivot_inv - 1
        acc = BiSeries.one(self.total, self.h_min)
        result = BiSeries.one(self.total, self.h_min)
        for _ in range(self.total + abs(dmin) + 1):
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
        f = as_pair(factor)
        out = {}
        flag = self.truncated
        for (i, j), c in self.terms.items():
            e = i + j
            if e > order:
                flag = True
                continue
            if e < min_exp:
                raise SeriesDomainError(
                    f"specialized exponent {e} below Laurent bound {min_exp}")
            fj = _q.qdiv((1, 1), f) if j < 0 else f
            scale = (1, 1)
            for _ in range(abs(j)):
                scale = _q.qmul(scale, fj)
            p = _q.qmul(c, scale)
            cur = out.get(e)
            s = p if cur is None else _q.qadd(cur, p)
            if s[0] == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return EpsSeries(out, order, min_exp, flag, _raw=True)

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


def _bi_power_str(key: tuple) -> str:
    i, j = key
    parts = []
    if i:
        parts.append("eps" if i == 1 else f"eps^{i}")
    if j:
        parts.append("h" if j == 1 else f"h^{j}")
    return "*".join(parts)


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
        if c[0]:
            terms[(k * i, k * j)] = c
        k += 1
    return BiSeries(terms, total, h_min, truncated=v[0] != 0, _raw=True)


def sinh_h(value: RationalLike, total: int, h_min: int = 0) -> BiSeries:
    """sinh(value * h) as a BiSeries in h alone."""
    e = exp_bi(value, 0, 1, total, h_min)
    terms = {k: c for k, c in e.terms.items() if k[1] % 2 == 1}
    return BiSeries(terms, total, h_min, truncated=e.truncated, _raw=True)


class BiSeriesRing:
    """Factory facade fixing (total, h_min) for the two-parameter algebra."""

    kind = "bi"

    def __init__(self, total: int = DEFAULT_ORDER, h_min: int = -2):
        self.total = total
        self.h_min = h_min
        self._one = BiSeries.one(total, h_min)
        self._zero = BiSeries.zero(total, h_min)

    @property
    def one(self) -> BiSeries:
        return self._one

    @property
    def zero(self) -> BiSeries:
        return self._zero

    def constant(self, value: RationalLike) -> BiSeries:
        return BiSeries.constant(value, self.total, self.h_min)

    def monomial(self, value: RationalLike, i: int, j: int) -> BiSeries:
        return BiSeries.monomial(value, i, j, self.total, self.h_min)

    def exp(self, value: RationalLike, i: int, j: int) -> BiSeries:
        return exp_bi(value, i, j, self.total, self.h_min)

    def sinh_h(self, value: RationalLike = 1) -> BiSeries:
        return sinh_h(value, self.total, self.h_min)

    def __repr__(self) -> str:
        return f"BiSeriesRing(total={self.total}, h_min={self.h_min})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeriesRing)
                and self.total == other.total and self.h_min == other.h_min)
