"""Numeric representation oracle for the two rewrite systems of sl2star.

The oracle is written from the defining relations alone and imports nothing
from sl2star.  It realizes both algebras on a weight module with basis
v_0 .. v_{d-1}:

- X1 is diagonal with weights lam_k = LAM_MID + 2 eps (k - k_mid), so that
  [X1, X2] = 2 eps X2 and [X1, X3] = -2 eps X3;
- the exponential letters are the matching diagonal exponentials,
  E+- = GAMMA^(+-1) exp(+-(X1 - LAM_MID)) for the x algebra and
  E+- = GAMMA^(+-1) exp(+-h (X1 - LAM_MID) / 2) for the xi algebra.  The
  relations fix only the ratio of neighbouring entries, so the factor GAMMA
  is free; a rational one keeps every entry of every letter rational;
- X2 shifts v_k to v_{k+1};
- X3 sends v_k to mu_k v_{k-1}, with mu_k fixed by the x2-x3 relation:
  mu_k - mu_{k+1} is the k-th weight of [X2, X3], which is
  eps A (E+^2 - E-^2) for the x algebra and s (E+^2 - E-^2) with
  s = eps / (2 sinh h) for the xi algebra.

Every matrix is a power series in one parameter t, truncated after the
program's order N and held as an array of shape (N + 1, d, d) whose entry n
is the coefficient of t^n.  The x algebra's eps is ALPHA t; the xi algebra's
(eps, h) are (ALPHA t, BETA t), so a term eps^i h^j of a series truncated by
total degree becomes ALPHA^i BETA^j t^(i+j).  The program's series are exact
up to their truncation, so a normal form must reproduce the matrix of its
word at every order 0 .. N, each order to round-off: a wrong coefficient of
any order shows at its own order.

The module is cut off at both ends, so the relations hold only away from the
edges.  A word with n shift letters, applied to v_k, stays inside the module
when n <= k <= d - 1 - n; every comparison is therefore made on the middle
columns ``window(n)`` only.

Letters are the ints 1..5 for x1 (xi1), x2 (xi2), x3 (xi3), e+ (E+), e- (E-).
Coefficients are read from their ``terms`` dicts: ``{k: (num, den)}`` for
one-parameter series, ``{(i, j): (num, den)}`` for two-parameter series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

X1, X2, X3, EP, EM = 1, 2, 3, 4, 5
SHIFT_LETTERS = (X2, X3)

#: the program's truncation order of both rewrite systems
ORDER = 8
#: the highest order at which the program's xi series are exact: its
#: eps / (2 sinh h) is wrong at eps h^7, because 2 sinh h is inverted after
#: truncation at total degree 8, without its h^9 term
XI_EXACT_ORDER = 7

#: relative mismatch, in any one entry of any one order, above which an
#: output is rejected; the mismatches of correct outputs are below 1e-15
TOLERANCE = 1e-12

#: eps = ALPHA t and h = BETA t
ALPHA = Fraction(1, 10)
BETA = Fraction(3, 10)
#: the constant A of the x algebra's x2-x3 relation (x_algebra's default)
A0 = 4
#: the middle weight, the factor of E+ and the value of mu mid-module; all
#: three are free, and values of order 1 keep every basis monomial's matrix
#: of order 1
LAM_MID = Fraction(1, 2)
GAMMA = Fraction(3, 2)
MU_MID = Fraction(7, 10)
#: columns compared beyond the margins
WINDOW = 3
#: terms summed in one step; bounds the memory of a sum
CHUNK = 64


class OutsideOrders(ValueError):
    """A coefficient has a term of total degree outside 0 .. ORDER."""


# -- truncated series ----------------------------------------------------
# A series is an array whose first axis holds the coefficients of t^0 .. t^N.

def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series along axis 0, entry by entry."""
    return np.array([sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))])


def _exp(a: np.ndarray) -> np.ndarray:
    """exp of a series without constant term along axis 0, entry by entry:
    n e_n = sum k a_k e_{n-k}."""
    out = np.zeros_like(a)
    out[0] = 1
    for n in range(1, len(a)):
        out[n] = sum(k * a[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def _inverse(q: np.ndarray) -> np.ndarray:
    """1 / q of a scalar series with q_0 != 0."""
    out = np.zeros_like(q)
    out[0] = 1 / q[0]
    for n in range(1, len(q)):
        out[n] = -sum(q[k] * out[n - k] for k in range(1, n + 1)) / q[0]
    return out


def _toeplitz(a: np.ndarray) -> np.ndarray:
    """The array T[n, m] = a[n - m] for n >= m, 0 above the diagonal, of a
    series a along axis 0."""
    n = len(a)
    index = np.subtract.outer(np.arange(n), np.arange(n))
    padded = np.concatenate([a, np.zeros_like(a[:1])])
    return padded[np.where(index >= 0, index, n)]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series of matrices, arrays (N + 1, d, d), as one
    block-triangular matrix product."""
    n, rows, inner = a.shape
    blocks = _toeplitz(a).transpose(0, 2, 1, 3).reshape(n * rows, n * inner)
    return (blocks @ b.reshape(n * inner, -1)).reshape(n, rows, -1)


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_t c_t m_t of scalar series coeffs (T, N + 1) and series of
    matrices mats (T, N + 1, d, d)."""
    count, n = coeffs.shape
    toeplitz = _toeplitz(coeffs.T)                     # (n, n, T)
    return np.tensordot(toeplitz.transpose(0, 2, 1).reshape(n, count * n),
                        mats.reshape(count * n, -1), axes=1).reshape(mats.shape[1:])


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _mismatch(a: np.ndarray, b: np.ndarray, magnitude: np.ndarray) -> float:
    """Largest mismatch of two series, each entry of each order relative to
    its magnitude (the sum of the sizes of the terms summed into it)."""
    diff = np.abs(a - b)
    if np.any(diff[magnitude == 0.0] > 0.0):
        return math.inf
    return float(np.max(diff / np.where(magnitude > 0.0, magnitude, 1.0)))


def _guarded(method):
    """A coefficient outside the orders is a mismatch, not a crash."""
    def wrapper(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except OutsideOrders:
            return math.inf
    wrapper.__doc__ = method.__doc__
    return wrapper


class WeightModule:
    """Series matrices of the five letters on a cut-off weight module.

    ``max_shift`` is the most shift letters (x2, x3) a compared word or
    monomial may have; the module has that margin on both sides.  ``order``
    is the highest order compared; the program's terms above it, up to its
    own truncation ORDER, are left out.
    """

    def __init__(self, kind: str, max_shift: int, order: int = ORDER):
        if kind not in ("x", "xi"):
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind = kind
        self.order = order
        self.max_shift = max_shift
        d = 2 * max_shift + WINDOW
        self.dim = d
        # the letters are built in exact rationals and rounded once, so that
        # their entrywise sizes bound the round-off of every product
        offset = np.full((order + 1, d), Fraction(0), dtype=object)
        offset[1] = [2 * ALPHA * (k - d // 2) for k in range(d)]
        lam = offset.copy()
        lam[0] = LAM_MID
        if kind == "x":
            exponent = offset
            s = np.full(order + 1, Fraction(0), dtype=object)
            s[1] = ALPHA * A0                      # eps A
        else:
            exponent = np.zeros_like(offset)       # h (X1 - LAM_MID) / 2
            exponent[1:] = BETA / 2 * offset[:-1]
            # s = eps / (2 sinh h) = ALPHA / (2 BETA) / (sinh(BETA t) / (BETA t))
            sinhc = np.full(order + 1, Fraction(0), dtype=object)
            sinhc[0::2] = [BETA ** m / math.factorial(m + 1) for m in range(0, order + 1, 2)]
            s = ALPHA / (2 * BETA) * _inverse(sinhc)
        ep, em = GAMMA * _exp(exponent), _exp(-exponent) / GAMMA
        bracket = _conv(s[:, None], GAMMA ** 2 * _exp(2 * exponent)
                        - _exp(-2 * exponent) / GAMMA ** 2)
        # mu_k - mu_{k+1} = bracket_k, shifted so that mu is MU_MID mid-module
        mu = np.zeros_like(lam)
        mu[:, 1:] = -np.cumsum(bracket[:, :-1], axis=1)
        mu -= mu[:, d // 2:d // 2 + 1]
        mu[0] += MU_MID
        # each letter moves row k to row k + shift, then scales row k by the
        # k-th entry of a series of diagonals
        one = np.zeros_like(lam)
        one[0] = 1
        lowered = np.zeros_like(mu)
        lowered[:, :-1] = mu[:, 1:]
        self.letters = {}
        for g, shift, diagonal in ((X1, 0, lam), (X2, 1, one), (X3, -1, lowered),
                                   (EP, 0, ep), (EM, 0, em)):
            diagonal = diagonal.astype(float)
            self.letters[g] = (shift, _toeplitz(diagonal), _toeplitz(np.abs(diagonal)))
        self.identity = np.zeros((order + 1, d, d))
        self.identity[0] = np.eye(d)
        self._powers = {}

    # -- scalars ---------------------------------------------------------

    def scalar(self, coeff) -> tuple:
        """(value, magnitude) of a program series as a series in t; the
        magnitude sums the sizes of the terms of each order."""
        value = np.zeros(self.order + 1)
        size = np.zeros(self.order + 1)
        for key, (num, den) in coeff.terms.items():
            i, j = (key, 0) if self.kind == "x" else key
            if not 0 <= i + j <= ORDER:
                raise OutsideOrders(f"term eps^{i} h^{j} outside orders 0..{ORDER}")
            if i + j <= self.order:
                power = self._powers.get((i, j))
                if power is None:
                    power = self._powers[(i, j)] = float(ALPHA ** i * BETA ** j)
                term = num / den * power
                value[i + j] += term
                size[i + j] += abs(term)
        return value, size

    # -- matrices --------------------------------------------------------

    def window(self, shifts: int) -> slice:
        """Columns on which words with at most ``shifts`` shift letters are exact."""
        if shifts > self.max_shift:
            raise ValueError(f"{shifts} shift letters exceed the module's "
                             f"margin {self.max_shift}")
        return slice(shifts, self.dim - shifts)

    def apply(self, g: int, w: tuple) -> tuple:
        """rho(g) applied to the rows of a (matrix, magnitude) pair of series
        (N + 1, d, c); the magnitude goes through the entrywise absolute
        values of rho(g), so it bounds the round-off."""
        shift, value, size = self.letters[g]
        out = []
        for toeplitz, m in ((value, w[0]), (size, w[1])):
            if shift:
                moved = np.zeros_like(m)
                if shift > 0:
                    moved[:, shift:] = m[:, :-shift]
                else:
                    moved[:, :shift] = m[:, -shift:]
                m = moved
            out.append(np.einsum("nmr,mrc->nrc", toeplitz, m))
        return tuple(out)

    def apply_right(self, g: int, w: tuple) -> tuple:
        """w rho(g)^T, for a (matrix, magnitude) pair."""
        turned = self.apply(g, (_transpose(w[0]), _transpose(w[1])))
        return _transpose(turned[0]), _transpose(turned[1])

    def word(self, letters) -> tuple:
        """(matrix, magnitude) of a word."""
        w = (self.identity, self.identity)
        for g in reversed(letters):
            w = self.apply(int(g), w)
        return w

    def monomial(self, mono) -> tuple:
        """(matrix, magnitude) of the ordered word x1^n1 x2^n2 x3^n3 e^(m x1)."""
        return self.word(_letters(mono))

    def combination(self, pairs) -> tuple:
        """(matrix, magnitude) of sum c rho(w) over (word matrices, coefficient)."""
        value = np.zeros_like(self.identity)
        size = np.zeros_like(self.identity)
        pairs = list(pairs)
        for start in range(0, len(pairs), CHUNK):
            chunk = pairs[start:start + CHUNK]
            scalars = [self.scalar(coeff) for _, coeff in chunk]
            value += _combine(np.array([c for c, _ in scalars]),
                              np.array([mat for (mat, _), _ in chunk]))
            size += _combine(np.array([c for _, c in scalars]),
                             np.array([mag for (_, mag), _ in chunk]))
        return value, size

    def element(self, terms) -> tuple:
        """(matrix, magnitude) of a {monomial: coefficient} map."""
        return self.combination((self.monomial(mono), c) for mono, c in terms.items())

    # -- checks ----------------------------------------------------------

    def _word_error(self, letters, pairs) -> float:
        shifts = sum(1 for g in letters if int(g) in SHIFT_LETTERS)
        cols = self.window(shifts)
        lhs, lhs_size = self.word(letters)
        rhs, rhs_size = self.combination(pairs)
        return _mismatch(lhs[..., cols], rhs[..., cols],
                         lhs_size[..., cols] + rhs_size[..., cols])

    @_guarded
    def normal_form_error(self, letters, terms) -> float:
        """Relative mismatch between a word and its claimed normal form."""
        return self._word_error(letters, ((self.monomial(mono), c)
                                          for mono, c in terms.items()))

    @_guarded
    def relation_error(self, letters, expansion) -> float:
        """Relative mismatch between a word and sum c w over its expansion,
        a list of (word, coefficient) pairs."""
        return self._word_error(letters, ((self.word(w), c) for w, c in expansion))

    @_guarded
    def product_error(self, f_terms, g_terms, fg_terms) -> float:
        """Relative mismatch between rho(f) rho(g) and rho(f * g)."""
        cols = self.window(_shifts(f_terms) + _shifts(g_terms))
        rf, sf = self.element(f_terms)
        rg, sg = self.element(g_terms)
        rfg, sfg = self.element(fg_terms)
        return _mismatch(_mul(rf, rg)[..., cols], rfg[..., cols],
                         _mul(sf, sg)[..., cols] + sfg[..., cols])

    # -- the tensor-product representation ----------------------------------

    def _coproduct_letter(self, g: int, v: tuple) -> tuple:
        """Apply (rho (x) rho)(Delta g) to a (matrix, magnitude) pair.

        An elementary tensor A (x) B acts on a matrix V as A V B^T.  The
        generator coproducts are: x1 primitive, x2 and x3 twisted by the
        exponential letters, e+- group-like.
        """
        if g == X1:
            terms = (self.apply(X1, v), self.apply_right(X1, v))
        elif g in (X2, X3):
            terms = (self.apply_right(EM, self.apply(g, v)),
                     self.apply_right(g, self.apply(EP, v)))
        else:
            return self.apply_right(g, self.apply(g, v))
        return terms[0][0] + terms[1][0], terms[0][1] + terms[1][1]

    def coproduct_apply(self, terms, v: tuple) -> tuple:
        """(rho (x) rho)(Delta f) applied to a (matrix, magnitude) pair, built
        letter by letter from the generator formulas."""
        value = np.zeros_like(self.identity)
        size = np.zeros_like(self.identity)
        pairs = []
        for mono, coeff in terms.items():
            w = v
            for g in reversed(_letters(mono)):
                w = self._coproduct_letter(g, w)
            pairs.append((w, coeff))
        return self.combination(pairs)

    @_guarded
    def coproduct_error(self, f_terms, g_terms, tensor_terms) -> float:
        """Relative mismatch between Delta(f) Delta(g) from the generator
        formulas and a claimed Delta(f * g) given as {(left, right): coeff}.

        Both sides act on one probe V = x y^T with x and y random on the
        window: two different operators differ on it with probability 1.
        On the probe, a tensor term c a (x) b gives c (rho(a) x) (rho(b) y)^T.
        """
        cols = self.window(_shifts(f_terms) + _shifts(g_terms))
        x, y = np.zeros((2, self.dim))
        x[cols], y[cols] = np.random.default_rng(0).standard_normal((2, self.dim))[:, cols]
        probe = np.zeros_like(self.identity)
        probe[0] = np.outer(x, y)
        dg = self.coproduct_apply(g_terms, (probe, np.abs(probe)))
        lhs, lhs_size = self.coproduct_apply(f_terms, dg)
        rhs = np.zeros_like(self.identity)
        rhs_size = np.zeros_like(self.identity)
        images = {}
        terms = list(tensor_terms.items())
        for start in range(0, len(terms), CHUNK):
            chunk = terms[start:start + CHUNK]
            scalars = [self.scalar(coeff) for _, coeff in chunk]
            lefts = [self._image(a, x, images) for (a, _), _ in chunk]
            rights = [self._image(b, y, images) for (_, b), _ in chunk]
            for k, total in ((0, rhs), (1, rhs_size)):
                total += _outer_sum(np.array([c[k] for c in scalars]),
                                    np.array([u[k] for u in lefts]),
                                    np.array([w[k] for w in rights]))
        return _mismatch(lhs, rhs, lhs_size + rhs_size)

    def _image(self, mono, vector, cache: dict) -> tuple:
        """(value, magnitude) series (N + 1, d) of rho(mono) applied to a
        vector that is constant in t, kept in ``cache``."""
        key = (tuple(mono), id(vector))
        found = cache.get(key)
        if found is None:
            w = np.zeros((self.order + 1, self.dim, 1))
            w[0, :, 0] = vector
            w = (w, np.abs(w))
            for g in reversed(_letters(key[0])):
                w = self.apply(g, w)
            found = cache[key] = (w[0][..., 0], w[1][..., 0])
        return found


def _outer_sum(coeffs: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """sum_t c_t u_t w_t^T of scalar series coeffs (T, N + 1) and series of
    vectors lefts, rights (T, N + 1, d)."""
    cu = np.einsum("nmt,tmr->tnr", _toeplitz(coeffs.T), lefts)
    tw = _toeplitz(rights.transpose(1, 0, 2))          # (n, k, T, d)
    return np.einsum("tkr,nktc->nrc", cu, tw, optimize=True)


def _letters(mono) -> tuple:
    n1, n2, n3, m = mono
    return (X1,) * n1 + (X2,) * n2 + (X3,) * n3 + ((EP,) * m if m >= 0 else (EM,) * -m)


def _shifts(terms) -> int:
    return max((mono[1] + mono[2] for mono in terms), default=0)


# ----------------------------------------------------------------------
# the closed-form Poisson bivector
# ----------------------------------------------------------------------

def group_coords(x) -> tuple:
    """Coordinates (ln a, -b, c) of exp of the tangent vector x.

    The exponential of the triangular pair has the closed form
    a = e^{x1}, -b = x2 sinh(x1)/x1, c = x3 sinh(x1)/x1.
    """
    x1, x2, x3 = (float(v) for v in x)
    f = math.sinh(x1) / x1 if x1 != 0.0 else 1.0
    return (x1, x2 * f, x3 * f)


def alpha_upper(y) -> tuple:
    """Upper components (12, 13, 23) of x2 d1^d2 - x3 d1^d3 + 4 sinh(2 x1) d2^d3."""
    y1, y2, y3 = y
    return (y2, -y3, 4.0 * math.sinh(2.0 * y1))
