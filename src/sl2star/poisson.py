"""Lie bialgebra data for sl(2,R), and the Poisson-Lie bivector of the dual
group, checked exactly and by numeric integration.

The structure constants of sl(2,R) and the r-matrix r = X+ (wedge) X- are
integer tensors; from them come the cobracket (the coboundary of r), the
dual bracket and cobracket (their transposes) and the 1-cocycle condition.
The bivector alpha = x2 d1^d2 - x3 d1^d3 + 4 sinh(2 x1) d2^d3, in the
coordinates (x1, x2, x3) = (ln a, -b, c), is held once as exact basis data
(``BIVECTOR``) and checked in integers: the Jacobi identity, multiplicativity
for the group law ``ncalg.GENERATOR_COPRODUCT`` (Drinfeld 1983), and that its
linear part is the cobracket, which on the simply connected dual group fixes
it (Lu and Weinstein 1990).

The numeric half realizes the dual group as pairs of triangular 2x2
matrices, integrates the cobracket along one-parameter subgroups,

    w(e^X) = integral_0^1 (Ad_{e^{sX}} (x) Ad_{e^{sX}}) delta(X) ds,

pushes the result forward by the right-translation Jacobian, and compares
against alpha in floating point.  Duality leaves one overall normalization
free; it enters as the single constant ``kappa`` scaling the cobracket
component of the torus direction, is fitted from the samples, and must come
out 8 everywhere.  ad_X is triangular on the coordinate basis, so the group
exponential and the integral are in closed form, with no matrix
exponential.  The exact algebra never imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ncalg import M_X1, M_X2, M_X3, PbwMonomial, UNIT, _mul, _sum, on_product

#: duality normalization matching the closed-form bivector's sinh coefficient
DEFAULT_KAPPA = 8.0

#: largest spread of the kappa fitted at the samples of the integration
#: lemma, and largest distance of their median from ``DEFAULT_KAPPA``
KAPPA_SPREAD_TOL = 1e-10

#: size and pass bound (largest relative residual) of the integration lemma
LEMMA_SAMPLES, LEMMA_TOL = 50, 1e-10


# ----------------------------------------------------------------------
# exact structure data
# ----------------------------------------------------------------------

def sl2_bracket_constants() -> np.ndarray:
    """c[i, j] = coefficient vector of [e_i, e_j] in the basis (H, X+, X-)."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1, 1] = 2     # [H, X+] = 2 X+
    c[0, 2, 2] = -2    # [H, X-] = -2 X-
    c[1, 2, 0] = 1     # [X+, X-] = H
    return c - c.transpose(1, 0, 2)


def r_matrix() -> np.ndarray:
    """r = X+ (x) X-  -  X- (x) X+ as a 3x3 integer matrix."""
    r = np.zeros((3, 3), dtype=np.int64)
    r[1, 2] = 1
    return r - r.T


def _ad_tensor_action(bracket: np.ndarray, x_index: int,
                      tensor: np.ndarray) -> np.ndarray:
    """(ad_x (x) 1 + 1 (x) ad_x) applied to a 3x3 tensor."""
    ad = bracket[x_index].T
    return ad @ tensor + tensor @ ad.T


def coboundary_of_r() -> np.ndarray:
    """Cobracket components d[i] = delta(e_i) = (ad_{e_i} (x) 1 + 1 (x) ad_{e_i}) r."""
    bracket = sl2_bracket_constants()
    r = r_matrix()
    return np.stack([_ad_tensor_action(bracket, i, r) for i in range(3)])


@dataclass(frozen=True, eq=False)
class LieBialgebraData:
    """Bracket and cobracket structure constants as integer tensors, dimension 3.

    ``bracket[i, j, k]`` is the e_k coefficient of [e_i, e_j];
    ``cobracket[i, j, k]`` the (e_j (x) e_k) coefficient of delta(e_i).
    """

    bracket: np.ndarray
    cobracket: np.ndarray

    def validate(self) -> None:
        if not np.array_equal(self.bracket, -self.bracket.transpose(1, 0, 2)):
            raise ValueError("bracket is not antisymmetric")
        if not np.array_equal(self.cobracket, -self.cobracket.transpose(0, 2, 1)):
            raise ValueError("cobracket is not antisymmetric")


def standard_sl2_data() -> LieBialgebraData:
    data = LieBialgebraData(sl2_bracket_constants(), coboundary_of_r())
    data.validate()
    return data


def dual_bracket(data: LieBialgebraData) -> np.ndarray:
    """Structure constants of the dual bracket on the dual basis (f1, f2, f3).

    <[f_i, f_j]*, e_k> = <f_i (x) f_j, delta(e_k)>, so the e_k-cobracket
    matrix transposes into the (i, j) slot.
    """
    return data.cobracket.transpose(1, 2, 0)


def dual_cobracket(data: LieBialgebraData) -> np.ndarray:
    """Cobracket on the dual: <delta*(f_k), e_i (x) e_j> = <f_k, [e_i, e_j]>."""
    return data.bracket.transpose(2, 0, 1)


def cocycle_check(data: LieBialgebraData) -> int:
    """Largest violation of the 1-cocycle condition, exact.

    delta([x, y]) = (ad_x (x) 1 + 1 (x) ad_x) delta(y)
                  - (ad_y (x) 1 + 1 (x) ad_y) delta(x)
    evaluated on all basis pairs; zero for a Lie bialgebra.
    """
    lhs = np.einsum("ijk,kpq->ijpq", data.bracket, data.cobracket)
    act = np.array([[_ad_tensor_action(data.bracket, i, data.cobracket[j])
                     for j in range(3)] for i in range(3)])
    return int(np.abs(lhs - act + act.transpose(1, 0, 2, 3)).max())


# ----------------------------------------------------------------------
# the bivector, exactly
# ----------------------------------------------------------------------

#: The bivector as basis data over Q[x1, x2, x3, e^{+-x1}]: (i, j) ->
#: {PbwMonomial: int} for i < j, with 4 sinh(2 x1) = 2 e^{2x1} - 2 e^{-2x1}.
BIVECTOR = {(1, 2): {M_X2: 1}, (1, 3): {M_X3: -1},
            (2, 3): {PbwMonomial(0, 0, 0, 2): 2, PbwMonomial(0, 0, 0, -2): -2}}

# A function on n copies of the group is {n-tuple of basis monomials: int}.
COORDINATES = {i: {(mono,): 1} for i, mono in enumerate((M_X1, M_X2, M_X3), 1)}


def partial(f: dict, copy: int, i: int) -> dict:
    """d/dx_i on one copy; d/dx1 also brings down the m of e^{m x1}."""
    terms = [(key, key[copy].m * c) for key, c in f.items()] if i == 1 else []
    for key, c in f.items():
        n = key[copy][i - 1]
        if n:
            lowered = key[copy]._replace(**{f"n{i}": n - 1})
            terms.append((key[:copy] + (lowered,) + key[copy + 1:], n * c))
    return _sum(terms)


def poisson_bracket(pi: dict, f: dict, g: dict, copies: int = 1) -> dict:
    """{f, g} = sum over i < j of pi^{ij} (d_i f d_j g - d_j f d_i g), on
    each of ``copies`` copies (the product Poisson structure)."""
    terms = []
    for copy in range(copies):
        for (i, j), p in pi.items():
            p = {tuple(m if k == copy else UNIT for k in range(copies)): c
                 for m, c in p.items()}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                df_dg = _mul(partial(f, copy, a), partial(g, copy, b))
                terms += _mul(p, df_dg, sign).items()
    return _sum(terms)


def jacobiator(pi: dict) -> dict:
    """{x1, {x2, x3}} + cyclic, the one component of [pi, pi] in dimension 3."""
    x = COORDINATES
    return _sum(term for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
                for term in poisson_bracket(
                    pi, x[i], poisson_bracket(pi, x[j], x[k])).items())


def multiplicativity_failures(pi: dict) -> list:
    """The pairs (i, j) where the pullback of {x_i, x_j} by the group law is
    not the bracket on two copies of the pullbacks (Drinfeld 1983)."""
    x = COORDINATES
    return [(i, j) for i, j in sorted(pi)
            if on_product(poisson_bracket(pi, x[i], x[j]))
            != poisson_bracket(pi, on_product(x[i]), on_product(x[j]), 2)]


def linear_part(pi: dict) -> dict:
    """The degree <= 1 Taylor parts at x = 0, with e^{m x1} = 1 + m x1 + ..."""
    def terms(p):
        for mono, c in p.items():
            degree = mono.n1 + mono.n2 + mono.n3
            if degree == 0:
                yield from ((UNIT, c), (M_X1, mono.m * c))
            elif degree == 1:
                yield mono._replace(m=0), c
    return {pair: _sum(terms(p)) for pair, p in pi.items()}


def linearization_failures(pi: dict, cobracket) -> list:
    """The pairs (i, j) where the linear part of pi^{ij} is not
    sum_k x_k delta(G_k)^{ij}, with ``cobracket[k - 1]`` = delta(G_k)."""
    return [(i, j) for (i, j), p in sorted(linear_part(pi).items()) if p != {
        mono: c for k, mono in enumerate((M_X1, M_X2, M_X3))
        if (c := cobracket[k][i - 1][j - 1])}]


# ----------------------------------------------------------------------
# the dual group as matrix pairs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DualGroupPoint:
    """Group element ([[1/a, 0], [b, a]], [[a, c], [0, 1/a]]), a > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("the diagonal parameter a must be positive")

    def coords(self) -> np.ndarray:
        return np.array([math.log(self.a), -self.b, self.c])


# tangent basis at the identity, in the coordinate directions d/dx1, d/dx2, d/dx3
_G_LOWER = (
    np.array([[-1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, 0.0], [-1.0, 0.0]]),
    np.zeros((2, 2)),
)
_G_UPPER = (
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.zeros((2, 2)),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
)


def pair_tangent(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.array([upper[0, 0], -lower[1, 0], upper[0, 1]])


def coord_structure_constants() -> np.ndarray:
    """cc[i, j, :] = coordinates of [G_i, G_j] for the tangent basis above."""
    cc = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            lower = _G_LOWER[i] @ _G_LOWER[j] - _G_LOWER[j] @ _G_LOWER[i]
            upper = _G_UPPER[i] @ _G_UPPER[j] - _G_UPPER[j] @ _G_UPPER[i]
            cc[i, j] = pair_tangent(lower, upper)
    return cc


_CC = coord_structure_constants()


def ad_matrix(x: Sequence[float]) -> np.ndarray:
    """Matrix of ad_X on the coordinate tangent basis: ad[i, j] = ([X, G_j])_i."""
    x = np.asarray(x, dtype=float)
    return np.einsum("k,kji->ij", x, _CC)


def exp_point(x: Sequence[float]) -> DualGroupPoint:
    """Group exponential of the tangent vector with coordinates x, in closed
    form: the exponential of the triangular pair sum_i x_i (G_lower_i,
    G_upper_i) has a = e^{x1}, b = -x2 sinh(x1)/x1 and c = x3 sinh(x1)/x1,
    the factor sinh(x1)/x1 being 1 at x1 = 0."""
    x1, x2, x3 = (float(v) for v in x)
    f = math.sinh(x1) / x1 if x1 != 0.0 else 1.0
    return DualGroupPoint(math.exp(x1), -x2 * f, x3 * f)


# ----------------------------------------------------------------------
# cobracket on the coordinate basis and its integration
# ----------------------------------------------------------------------

#: The identification f1 -> -G1/2, f2 -> G3, f3 -> G2 (rows of _T express the
#: dual basis in the coordinate basis; _S is the inverse of _T) is the Lie
#: isomorphism from the dual bracket onto the coordinate algebra of the matrix
#: realization, unique up to scalings; the residual scaling freedom is the
#: single constant kappa applied by ``coordinate_cobracket``.
_T = np.array([[-0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_S = np.array([[-2, 0, 0], [0, 0, 1], [0, 1, 0]])

#: the dual cobracket transported onto the coordinate basis, at kappa = 2
_COORD_COBRACKET = np.einsum("ji,ikl,kp,lq->jpq", _S,
                             dual_cobracket(standard_sl2_data()), _T, _T)


def coordinate_cobracket(kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """delta(G_i) as antisymmetric 3x3 matrices in the coordinate basis.

    The dual cobracket (the transpose of the sl2 bracket) transported through
    the basis identification; kappa rescales the G1 component, which is where
    the free duality normalization lives.  Each call returns a new array.
    """
    out = _COORD_COBRACKET.copy()
    out[0] *= kappa / 2.0
    return out


#: the coordinate cobracket as delta = _DELTA_FIXED + kappa _DELTA_PER_KAPPA
_DELTA_FIXED = coordinate_cobracket(0.0)
_DELTA_PER_KAPPA = coordinate_cobracket(1.0) - _DELTA_FIXED


def integrate_cobracket(x: Sequence[float]) -> tuple:
    """(w0, w1) with w(e^X) = w0 + kappa w1, where
    w = integral_0^1 A(s) delta(X) A(s)^T ds and A(s) = e^{s ad_X}.

    ad_X = [[0, 0, 0], [u, lam, 0], [v, 0, lam]] with lam = 2 x1, so A(s) =
    [[1, 0, 0], [u g, E, 0], [v g, 0, E]] with E = e^{lam s}, g = (E - 1)/lam.
    For D = x . delta, either kappa part, the integrand above the diagonal is
    d01 E, d02 E and (u d02 - v d01) g E + d12 E^2, and E, g E = (E^2 - E)/lam
    and E^2 integrate to phi1 = expm1(lam)/lam, phi1^2/2 and
    phi2 = expm1(2 lam)/(2 lam), all without cancellation near lam = 0.
    """
    x = np.asarray(x, dtype=float)
    M = ad_matrix(x)
    u, lam, v = float(M[1, 0]), float(M[1, 1]), float(M[2, 0])
    try:
        phi1, phi2 = (math.expm1(t) / t if t else 1.0 for t in (lam, 2.0 * lam))
    except OverflowError:      # refused below: w is then not finite
        phi1 = phi2 = math.inf

    def part(delta):
        (_, d01, d02), (_, _, d12), _ = np.einsum("i,ijk->jk", x, delta).tolist()
        w01, w02 = d01 * phi1, d02 * phi1
        w12 = (u * d02 - v * d01) * phi1 * phi1 / 2.0 + d12 * phi2
        if not all(map(math.isfinite, (w01, w02, w12))):
            raise FloatingPointError("non-finite value in cobracket integration"
                                     f" at x = {x.tolist()}")
        return np.array([[0.0, w01, w02], [-w01, 0.0, w12], [-w02, -w12, 0.0]])

    return part(_DELTA_FIXED), part(_DELTA_PER_KAPPA)


@dataclass(frozen=True)
class BivectorSample:
    """Bivector components at a point, antisymmetry enforced exactly."""

    point: tuple
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        comp = 0.5 * (comp - comp.T)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "point", tuple(float(p) for p in self.point))

    def upper(self) -> tuple:
        c = self.components
        return (c[0, 1], c[0, 2], c[1, 2])


def right_translation_jacobian(g: DualGroupPoint) -> np.ndarray:
    """J[i, k] = d coords_i(h g) / d coords_k(h) at h = identity, in closed
    form from the group law ``ncalg.GENERATOR_COPRODUCT``.

    ``bivector_at`` uses it: the kappa fit of the integration lemma needs the
    bivector to machine precision.
    """
    x1, x2, x3 = g.coords()
    s = math.exp(-x1)
    return np.array([[1.0, 0.0, 0.0], [x2, s, 0.0], [x3, 0.0, s]])


def bivector_at(x: Sequence[float]) -> tuple:
    """(base, per_kappa): the integrated Poisson bivector at the group point
    e^X, in coordinates, is base + kappa per_kappa."""
    w0, w1 = integrate_cobracket(x)
    g = exp_point(x)
    point = tuple(g.coords())
    J = right_translation_jacobian(g)
    return BivectorSample(point, J @ w0 @ J.T), BivectorSample(point, J @ w1 @ J.T)


def alpha_reference(x: Sequence[float]) -> BivectorSample:
    """Closed-form bivector x2 d1^d2 - x3 d1^d3 + 4 sinh(2 x1) d2^d3, in
    floating point: ``BIVECTOR`` evaluated at the point x."""
    x1, x2, x3 = (float(v) for v in x)
    comp = np.zeros((3, 3))
    for (i, j), p in BIVECTOR.items():
        comp[i - 1, j - 1] = sum(c * x1 ** n1 * x2 ** n2 * x3 ** n3
                                 * math.exp(m * x1)
                                 for (n1, n2, n3, m), c in p.items())
    return BivectorSample((x1, x2, x3), comp - comp.T)


# ----------------------------------------------------------------------
# verification drivers
# ----------------------------------------------------------------------

def fit_kappa_at(x: Sequence[float], reference: BivectorSample):
    """Least-squares kappa at one sample; None when the kappa direction
    vanishes there (x1 = 0 kills it)."""
    b0, b1 = bivector_at(x)
    base = np.array(b0.upper())
    mult = np.array(b1.upper())
    denom = float(mult @ mult)
    if denom < 1e-10:
        return None, base, mult
    ref = np.array(reference.upper())
    return float((ref - base) @ mult / denom), base, mult


def verify_integration_lemma(seed: int = 0) -> dict:
    """Compare the integrated bivector with the closed form at random points.

    Draws ``LEMMA_SAMPLES`` tangent vectors uniformly in the cube
    |x_i| <= 1, fits the single kappa, and reports the fitted value, its
    spread across samples and the largest relative residual.  It passes
    when the residual is below ``LEMMA_TOL`` and the fitted kappa is
    ``DEFAULT_KAPPA`` at every point, both to ``KAPPA_SPREAD_TOL``.
    """
    rng = np.random.default_rng(seed)
    samples = []
    fitted = []
    for _ in range(LEMMA_SAMPLES):
        x = rng.uniform(-1.0, 1.0, size=3)
        ref = alpha_reference(exp_point(x).coords())
        k, base, mult = fit_kappa_at(x, ref)
        samples.append((np.array(ref.upper()), base, mult))
        if k is not None:
            fitted.append(k)
    if not fitted:
        raise FloatingPointError("no sample point constrains kappa")
    kappa_hat = float(np.median(fitted))
    spread = float(np.max(fitted) - np.min(fitted)) if len(fitted) > 1 else 0.0
    max_rel = max(float(np.linalg.norm(base + kappa_hat * mult - refv)
                        / max(1.0, float(np.linalg.norm(refv))))
                  for refv, base, mult in samples)
    return {
        "kappa": kappa_hat,
        "kappa_spread": spread,
        "max_residual": max_rel,
        "passed": (max_rel < LEMMA_TOL and spread <= KAPPA_SPREAD_TOL
                   and abs(kappa_hat - DEFAULT_KAPPA) <= KAPPA_SPREAD_TOL),
    }
