"""Lie bialgebra data for sl(2,R) and numeric Poisson-Lie verification.

The exact half of this module holds the sl(2,R) structure constants and the
r-matrix r = X+ (wedge) X- as integer tensors, and computes from them the
cobracket as the coboundary of r, the induced dual bracket and cobracket
(transposes of these tensors), and the 1-cocycle condition.  The dual
cobracket, transported onto the coordinate basis of the dual group, is built
once, at import.

The numeric half realizes the dual group as pairs of triangular 2x2
matrices, integrates the cobracket along one-parameter subgroups,

    w(e^X) = integral_0^1 (Ad_{e^{sX}} (x) Ad_{e^{sX}}) delta(X) ds,

in closed form, from one exponential of a 6x6 block matrix (Van Loan),
pushes the result forward by the right-translation Jacobian, and compares
against the closed-form bivector

    alpha = x2 d1^d2 - x3 d1^d3 + 4 sinh(2 x1) d2^d3

in the coordinates (x1, x2, x3) = (ln a, -b, c).  Duality leaves one
overall normalization free; it enters as the single constant ``kappa``
scaling the cobracket component of the torus direction, is fitted from the
samples, and must come out identical everywhere (the expected value against
the closed form above is 8).  This module is deliberately floating point;
the exact algebra never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import expm

BASIS_LABELS = ("H", "X+", "X-")

#: duality normalization matching the closed-form bivector's sinh coefficient
DEFAULT_KAPPA = 8.0

#: largest spread of the kappa fitted at the samples of the integration lemma
KAPPA_SPREAD_TOL = 1e-9


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
    labels: tuple = BASIS_LABELS

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


def classical_bracket_table() -> dict:
    """Poisson brackets of the coordinate functions under the closed-form
    bivector, as {(n1, n2, n3, m): coefficient} basis data.

    {x1,x2} = x2, {x1,x3} = -x3, {x2,x3} = 4 sinh(2 x1); the sinh is written
    in the exponential generators: 2 e^{2x1} - 2 e^{-2x1}.
    """
    return {
        (1, 2): {(0, 1, 0, 0): Fraction(1)},
        (1, 3): {(0, 0, 1, 0): Fraction(-1)},
        (2, 3): {(0, 0, 0, 2): Fraction(2), (0, 0, 0, -2): Fraction(-2)},
    }


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

    def pair(self) -> tuple:
        a, b, c = self.a, self.b, self.c
        lower = np.array([[1.0 / a, 0.0], [b, a]])
        upper = np.array([[a, c], [0.0, 1.0 / a]])
        return lower, upper

    def coords(self) -> np.ndarray:
        return np.array([math.log(self.a), -self.b, self.c])


IDENTITY = DualGroupPoint(1.0, 0.0, 0.0)


def point_from_pair(lower: np.ndarray, upper: np.ndarray) -> DualGroupPoint:
    return DualGroupPoint(float(upper[0, 0]), float(lower[1, 0]), float(upper[0, 1]))


def point_from_coords(x: Sequence[float]) -> DualGroupPoint:
    return DualGroupPoint(math.exp(x[0]), -x[1], x[2])


def group_mul(g: DualGroupPoint, h: DualGroupPoint) -> DualGroupPoint:
    gl, gu = g.pair()
    hl, hu = h.pair()
    return point_from_pair(gl @ hl, gu @ hu)


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


def tangent_pair(v: Sequence[float]) -> tuple:
    lower = sum(float(v[i]) * _G_LOWER[i] for i in range(3))
    upper = sum(float(v[i]) * _G_UPPER[i] for i in range(3))
    return lower, upper


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
    """Group exponential of the tangent vector with coordinates x."""
    lower, upper = tangent_pair(x)
    return point_from_pair(expm(lower), expm(upper))


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


def integrate_cobracket(x: Sequence[float],
                        kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """w(e^X) = integral_0^1 A(s) delta(X) A(s)^T ds with A(s) = e^{s ad_X}.

    Van Loan's block exponential (IEEE TAC 23, 1978): the exponential of
    [[M, D], [0, -M^T]] with M = ad_X and D = delta(X) is
    [[e^M, F12], [0, e^{-M^T}]] with
    F12 = integral_0^1 e^{(1-s) M} D e^{-s M^T} ds, so F12 e^{M^T} is w.
    """
    x = np.asarray(x, dtype=float)
    delta = coordinate_cobracket(kappa)
    M = ad_matrix(x)
    block = np.zeros((6, 6))
    block[:3, :3] = M
    block[:3, 3:] = np.einsum("i,ijk->jk", x, delta)
    block[3:, 3:] = -M.T
    F = expm(block)
    w = F[:3, 3:] @ F[:3, :3].T
    if not np.all(np.isfinite(w)):
        raise FloatingPointError("non-finite value in cobracket integration")
    return w


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


def right_translation_jacobian_exact(g: DualGroupPoint) -> np.ndarray:
    """J[i, k] = d coords_i(h g) / d coords_k(h) at h = identity, in closed
    form from the coordinate multiplication law

        (y1, y2, y3) . (x1, x2, x3)
            = (y1 + x1, y2 e^{-x1} + e^{y1} x2, e^{y1} x3 + y3 e^{-x1}).

    ``bivector_at`` and ``w_reference`` use it: the kappa fit of the
    integration lemma needs the bivector to machine precision.
    """
    x1, x2, x3 = g.coords()
    s = math.exp(-x1)
    return np.array([[1.0, 0.0, 0.0], [x2, s, 0.0], [x3, 0.0, s]])


def bivector_at(x: Sequence[float],
                kappa: float = DEFAULT_KAPPA) -> BivectorSample:
    """The integrated Poisson bivector at the group point e^X, in coordinates."""
    w = integrate_cobracket(x, kappa)
    g = exp_point(x)
    J = right_translation_jacobian_exact(g)
    return BivectorSample(tuple(g.coords()), J @ w @ J.T)


def alpha_reference(x: Sequence[float], linearized: bool = False) -> BivectorSample:
    """Closed-form bivector x2 d1^d2 - x3 d1^d3 + 4 sinh(2 x1) d2^d3.

    With ``linearized`` the sinh factor is replaced by its linear part 8 x1
    (the Lie-Poisson structure), which is Poisson as well.
    """
    x1, x2, x3 = (float(v) for v in x)
    c23 = 8.0 * x1 if linearized else 4.0 * math.sinh(2.0 * x1)
    comp = np.array([
        [0.0, x2, -x3],
        [-x2, 0.0, c23],
        [x3, -c23, 0.0],
    ])
    return BivectorSample((x1, x2, x3), comp)


def w_reference(g: DualGroupPoint) -> np.ndarray:
    """Pullback of the closed-form bivector by right translation: w(g)."""
    J = right_translation_jacobian_exact(g)
    Jinv = np.linalg.inv(J)
    alpha = alpha_reference(g.coords()).components
    return Jinv @ alpha @ Jinv.T


def ad_point(g: DualGroupPoint) -> np.ndarray:
    """Adjoint action of the group element g on the coordinate tangent basis."""
    gl, gu = g.pair()
    gl_inv = np.linalg.inv(gl)
    gu_inv = np.linalg.inv(gu)
    out = np.zeros((3, 3))
    for j in range(3):
        lower = gl @ _G_LOWER[j] @ gl_inv
        upper = gu @ _G_UPPER[j] @ gu_inv
        out[:, j] = pair_tangent(lower, upper)
    return out


def multiplicativity_check(g: DualGroupPoint, h: DualGroupPoint) -> float:
    """Residual of w(gh) = (Ad_g (x) Ad_g) w(h) + w(g) for the reference w."""
    lhs = w_reference(group_mul(g, h))
    A = ad_point(g)
    rhs = A @ w_reference(h) @ A.T + w_reference(g)
    return float(np.max(np.abs(lhs - rhs)))


def jacobi_check(point: Sequence[float], step: float = 1e-5,
                 linearized: bool = False) -> float:
    """Schouten bracket [alpha, alpha] at the point via central differences.

    In dimension 3 the bracket has the single independent component
    2 * sum_l cyclic( alpha^{1l} d_l alpha^{23} ); its absolute value is
    returned and must vanish for a Poisson bivector.
    """
    x = np.asarray(point, dtype=float)

    def comp(y):
        return alpha_reference(y, linearized).components

    grad = np.zeros((3, 3, 3))  # grad[l, i, j] = d_l alpha^{ij}
    for l in range(3):
        e = np.zeros(3)
        e[l] = step
        grad[l] = (comp(x + e) - comp(x - e)) / (2.0 * step)
    a = comp(x)
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    total = 0.0
    for (i, j, k) in cyc:
        total += sum(a[i, l] * grad[l, j, k] for l in range(3))
    return abs(2.0 * total)


# ----------------------------------------------------------------------
# verification drivers
# ----------------------------------------------------------------------

def fit_kappa_at(x: Sequence[float], reference: BivectorSample):
    """Least-squares kappa at one sample; None when the kappa direction
    vanishes there (x1 = 0 kills it)."""
    b0 = bivector_at(x, kappa=0.0)
    b1 = bivector_at(x, kappa=1.0)
    base = np.array(b0.upper())
    mult = np.array(b1.upper()) - base
    denom = float(mult @ mult)
    if denom < 1e-10:
        return None, base, mult
    ref = np.array(reference.upper())
    return float((ref - base) @ mult / denom), base, mult


def verify_integration_lemma(samples: int = 50, tol: float = 1e-6,
                             seed: int = 0) -> dict:
    """Compare the integrated bivector with the closed form at random points.

    Draws tangent vectors uniformly in the cube |x_i| <= 1, fits the single
    kappa, and reports per-point relative residuals plus the fitted value
    and its spread across samples.
    """
    rng = np.random.default_rng(seed)
    points = []
    fitted = []
    for _ in range(samples):
        x = rng.uniform(-1.0, 1.0, size=3)
        ref = alpha_reference(exp_point(x).coords())
        k, base, mult = fit_kappa_at(x, ref)
        points.append((x, ref, base, mult))
        if k is not None:
            fitted.append(k)
    if not fitted:
        raise FloatingPointError("no sample point constrains kappa")
    kappa_hat = float(np.median(fitted))
    spread = float(np.max(fitted) - np.min(fitted)) if len(fitted) > 1 else 0.0

    per_point = []
    max_rel = 0.0
    for x, ref, base, mult in points:
        approx = base + kappa_hat * mult
        refv = np.array(ref.upper())
        rel = float(np.linalg.norm(approx - refv)
                    / max(1.0, float(np.linalg.norm(refv))))
        max_rel = max(max_rel, rel)
        per_point.append({
            "x": [float(v) for v in x],
            "point": list(ref.point),
            "residual": rel,
        })
    return {
        "samples": samples,
        "kappa": kappa_hat,
        "kappa_spread": spread,
        "kappa_consistent": spread <= KAPPA_SPREAD_TOL,
        "max_residual": max_rel,
        "tolerance": tol,
        "passed": max_rel < tol and spread <= KAPPA_SPREAD_TOL,
        "points": per_point,
    }


def verify_multiplicativity(pairs: int = 50, tol: float = 1e-8,
                            seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(pairs):
        g = point_from_coords(rng.uniform(-1.0, 1.0, size=3))
        h = point_from_coords(rng.uniform(-1.0, 1.0, size=3))
        residuals.append(multiplicativity_check(g, h))
    worst = float(np.max(residuals))
    return {"pairs": pairs, "max_residual": worst, "tolerance": tol,
            "passed": worst < tol}


def verify_jacobi(points: int = 20, tol: float = 1e-6, seed: int = 0,
                  linearized: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    residuals = [jacobi_check(rng.uniform(-1.0, 1.0, size=3),
                              linearized=linearized)
                 for _ in range(points)]
    worst = float(np.max(residuals))
    return {"points": points, "max_residual": worst, "tolerance": tol,
            "passed": worst < tol}
