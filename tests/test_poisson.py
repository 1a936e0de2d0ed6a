"""Lie bialgebra data and the numeric Poisson-Lie verification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from sl2star import poisson as P


def test_sl2_bracket_antisymmetry_and_jacobi():
    c = P.sl2_bracket_constants()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert c[i][j][k] == -c[j][i][k]
    # Jacobi: [[ei,ej],ek] + cyclic = 0 on all triples
    for i in range(3):
        for j in range(3):
            for k in range(3):
                total = [Fraction(0)] * 3
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    for p in range(3):
                        cab = c[a][b][p]
                        if cab:
                            for q in range(3):
                                total[q] += cab * c[p][cc][q]
                assert total == [0, 0, 0]


def test_coboundary_of_r_values():
    d = P.coboundary_of_r()
    # delta(H) = 0
    assert all(v == 0 for row in d[0] for v in row)
    # delta(X+) = X+ (x) H - H (x) X+
    assert d[1][1][0] == 1 and d[1][0][1] == -1
    assert sum(1 for row in d[1] for v in row if v) == 2
    # delta(X-) = X- (x) H - H (x) X-
    assert d[2][2][0] == 1 and d[2][0][2] == -1
    # linearity: delta(0) = 0 trivially by construction


def test_dual_bracket_values():
    data = P.standard_sl2_data()
    db = P.dual_bracket(data)
    # [f1,f2]* = -f2, [f1,f3]* = -f3, [f2,f3]* = 0
    assert db[0][1].tolist() == [0, -1, 0]
    assert db[0][2].tolist() == [0, 0, -1]
    assert db[1][2].tolist() == [0, 0, 0]


def test_double_dual_is_involutive():
    data = P.standard_sl2_data()
    dual_data = P.LieBialgebraData(P.dual_bracket(data), P.dual_cobracket(data))
    assert np.array_equal(P.dual_bracket(dual_data), data.bracket)
    assert np.array_equal(P.dual_cobracket(dual_data), data.cobracket)


def test_cocycle_check_zero_and_perturbed():
    data = P.standard_sl2_data()
    assert P.cocycle_check(data) == 0
    zero_cob = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    assert P.cocycle_check(P.LieBialgebraData(data.bracket, zero_cob)) == 0
    perturbed = data.cobracket.copy()
    perturbed[0][1][2] += 1
    perturbed[0][2][1] -= 1
    assert P.cocycle_check(P.LieBialgebraData(data.bracket, perturbed)) > 0


def test_validate_refuses_non_antisymmetric_structure_constants():
    data = P.standard_sl2_data()
    bracket = data.bracket.copy()
    bracket[0, 1, 1] += 1
    with pytest.raises(ValueError, match="^bracket is not antisymmetric"):
        P.LieBialgebraData(bracket, data.cobracket).validate()
    cobracket = data.cobracket.copy()
    cobracket[1, 1, 0] += 1
    with pytest.raises(ValueError, match="^cobracket is not antisymmetric"):
        P.LieBialgebraData(data.bracket, cobracket).validate()


def test_dual_group_point_validation():
    with pytest.raises(ValueError):
        P.DualGroupPoint(-1.0, 0.0, 0.0)
    p = P.point_from_coords([0.5, 0.25, -0.75])
    assert np.allclose(p.coords(), [0.5, 0.25, -0.75])


def test_group_mul_matches_coordinate_law():
    g = P.point_from_coords([0.3, -0.4, 0.9])
    h = P.point_from_coords([-0.6, 1.1, 0.2])
    prod = P.group_mul(h, g).coords()
    y, x = h.coords(), g.coords()
    expected = [y[0] + x[0],
                y[1] * math.exp(-x[0]) + math.exp(y[0]) * x[1],
                math.exp(y[0]) * x[2] + y[2] * math.exp(-x[0])]
    assert np.allclose(prod, expected, atol=1e-14)


def test_coordinate_structure_constants():
    cc = P.coord_structure_constants()
    assert np.allclose(cc[0, 1], [0, 2, 0])   # [G1, G2] = 2 G2
    assert np.allclose(cc[0, 2], [0, 0, 2])   # [G1, G3] = 2 G3
    assert np.allclose(cc[1, 2], [0, 0, 0])


def test_coordinate_cobracket_shape():
    d = P.coordinate_cobracket(8.0)
    assert np.allclose(d[0], [[0, 0, 0], [0, 0, 8], [0, -8, 0]])
    assert np.allclose(d[1], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert np.allclose(d[2], [[0, 0, -1], [0, 0, 0], [1, 0, 0]])
    # the transported cobracket is a cocycle for the coordinate brackets
    cc = P.coord_structure_constants()
    for i in range(3):
        for j in range(3):
            lhs = np.einsum("k,kpq->pq", cc[i, j], d)
            ad_i = P.ad_matrix(np.eye(3)[i])
            ad_j = P.ad_matrix(np.eye(3)[j])
            rhs = (ad_i @ d[j] + d[j] @ ad_i.T) - (ad_j @ d[i] + d[i] @ ad_j.T)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_coordinate_cobracket_hands_out_a_copy():
    x = [0.4, -0.3, 0.8]
    delta = P.coordinate_cobracket(8.0)
    w = P.integrate_cobracket(x, 8.0)
    expected = delta.copy()
    delta[:] = 0.0
    assert np.array_equal(P.coordinate_cobracket(8.0), expected)
    assert np.array_equal(P.integrate_cobracket(x, 8.0), w)


def test_integrate_cobracket_closed_form():
    """For X along the torus direction the integrand is kappa x1 e^{4 s x1}
    on the (2,3) slot; integral kappa (e^{4 x1} - 1)/4."""
    x1 = 0.8
    w = P.integrate_cobracket([x1, 0, 0], kappa=8.0)
    expected = 8.0 * (math.exp(4 * x1) - 1) / 4.0
    assert abs(w[1, 2] - expected) < 1e-10
    assert abs(w[2, 1] + expected) < 1e-10
    assert np.allclose(w - np.diag(np.diag(w)),
                       [[0, 0, 0], [0, 0, expected], [0, -expected, 0]],
                       atol=1e-10)


def test_integrate_cobracket_zero_cases():
    assert np.allclose(P.integrate_cobracket([0, 0, 0]), 0.0)
    # X along the torus direction with kappa = 0 has delta(X) = 0, so the
    # integrand vanishes identically
    w = P.integrate_cobracket([0.7, 0.0, 0.0], kappa=0.0)
    assert np.allclose(w, 0.0, atol=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 8.0])
def test_integrate_cobracket_matches_quadrature(kappa):
    """At general points the block exponential agrees with adaptive
    quadrature of the integrand e^{s ad_X} delta(X) e^{s ad_X}^T."""
    delta = P.coordinate_cobracket(kappa)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=3)
        M = P.ad_matrix(x)
        D = np.einsum("i,ijk->jk", x, delta)

        def integrand(s):
            A = expm(s * M)
            return A @ D @ A.T

        expected, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-13)
        assert np.allclose(P.integrate_cobracket(x, kappa), expected,
                           rtol=0.0, atol=1e-10)


def test_bivector_exact_on_x1_zero_plane():
    """At x1 = 0 the lemma value and the closed form agree to round-off,
    component by component (derived: the pushforward is exact
    there)."""
    b = P.bivector_at([0.0, 0.7, -0.4], kappa=8.0)
    ref = P.alpha_reference(P.exp_point([0.0, 0.7, -0.4]).coords())
    assert np.allclose(b.components, ref.components, atol=1e-10)
    assert np.allclose(b.point, ref.point, atol=1e-12)


def test_bivector_at_origin_is_zero():
    b = P.bivector_at([0.0, 0.0, 0.0])
    assert np.allclose(b.components, 0.0, atol=1e-14)


def test_alpha_reference_values():
    b = P.alpha_reference([0.0, 1.0, 1.0])
    assert b.components[0, 1] == 1.0
    assert b.components[0, 2] == -1.0
    assert b.components[1, 2] == 0.0
    assert np.allclose(P.alpha_reference([0, 0, 0]).components, 0.0)
    c = P.alpha_reference([0.5, 0.0, 0.0])
    assert c.components[1, 2] == pytest.approx(4 * math.sinh(1.0))
    lin = P.alpha_reference([0.5, 0.0, 0.0], linearized=True)
    assert lin.components[1, 2] == pytest.approx(4.0)


def test_bivector_sample_antisymmetry():
    s = P.BivectorSample((0, 0, 0), np.arange(9.0).reshape(3, 3))
    assert np.allclose(s.components + s.components.T, 0.0)


def test_exact_jacobian_matches_finite_differences():
    """Central differences of group_mul: J[:, k] = d coords(h g) / d h_k."""
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(20):
        g = P.exp_point(rng.uniform(-1.0, 1.0, size=3))
        fd = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = step
            plus = P.group_mul(P.point_from_coords(e), g).coords()
            minus = P.group_mul(P.point_from_coords(-e), g).coords()
            fd[:, k] = (plus - minus) / (2.0 * step)
        assert np.allclose(P.right_translation_jacobian_exact(g), fd,
                           rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_lemma_verification_report(seed):
    rep = P.verify_integration_lemma(samples=50, tol=1e-6, seed=seed)
    assert rep["passed"]
    assert rep["kappa"] == pytest.approx(8.0, abs=1e-6)
    assert rep["kappa_spread"] < 1e-9
    assert rep["max_residual"] < 1e-6
    assert len(rep["points"]) == 50


def test_multiplicativity():
    g = P.point_from_coords([0.5, 0.2, -0.7])
    assert P.multiplicativity_check(g, P.IDENTITY) == 0.0
    assert P.multiplicativity_check(P.IDENTITY, g) == 0.0
    rep = P.verify_multiplicativity(pairs=50, tol=1e-8, seed=1)
    assert rep["passed"]
    assert rep["max_residual"] < 1e-8


def test_jacobi():
    assert P.jacobi_check([0.0, 0.0, 0.0]) < 1e-12
    assert P.jacobi_check([0.3, 1.2, -0.7]) < 1e-6
    assert P.jacobi_check([0.3, 1.2, -0.7], linearized=True) < 1e-6
    rep = P.verify_jacobi(points=20, tol=1e-6, seed=2)
    assert rep["passed"]


def test_jacobi_negative_control(monkeypatch):
    """Breaking the x2 coefficient must produce a visible Schouten residual
    (guards the finite-difference formula itself)."""
    orig = P.alpha_reference

    def broken(y, linearized=False):
        b = orig(y, linearized)
        comp = b.components.copy()
        comp[0, 1] = y[1] ** 2 + 1.0
        comp[1, 0] = -comp[0, 1]
        return P.BivectorSample(b.point, comp)

    monkeypatch.setattr(P, "alpha_reference", broken)
    assert P.jacobi_check([0.4, 0.8, -0.2]) > 1e-3
