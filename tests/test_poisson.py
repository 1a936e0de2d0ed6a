"""Lie bialgebra data, the exact bivector checks and the numeric
integration lemma."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from sl2star import checks, poisson as P
from sl2star.config import Config
from sl2star.ncalg import PbwMonomial as M


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
    p = P.DualGroupPoint(math.exp(0.5), -0.25, -0.75)
    assert np.allclose(p.coords(), [0.5, 0.25, -0.75])


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
    w0, w1 = P.integrate_cobracket(x)
    expected = delta.copy()
    delta[:] = 0.0
    assert np.array_equal(P.coordinate_cobracket(8.0), expected)
    v0, v1 = P.integrate_cobracket(x)
    assert np.array_equal(v0, w0) and np.array_equal(v1, w1)


def test_integrate_cobracket_closed_form():
    """For X along the torus direction the integrand is kappa x1 e^{4 s x1}
    on the (2,3) slot; integral kappa (e^{4 x1} - 1)/4."""
    x1 = 0.8
    w0, w1 = P.integrate_cobracket([x1, 0, 0])
    w = w0 + 8.0 * w1
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
    w0, _ = P.integrate_cobracket([0.7, 0.0, 0.0])
    assert np.allclose(w0, 0.0, atol=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 8.0])
def test_integrate_cobracket_matches_quadrature(kappa):
    """At general points, and beside and on x1 = 0, the closed form agrees
    with adaptive quadrature of the integrand e^{s ad_X} delta(X)
    e^{s ad_X}^T.  Its premise holds at the seeded points: ad_X has a zero
    first row and the triangular shape [[0, 0, 0], [u, 2 x1, 0], [v, 0, 2 x1]]."""
    delta = P.coordinate_cobracket(kappa)
    rng = np.random.default_rng(5)
    seeded = [rng.uniform(-1.0, 1.0, size=3) for _ in range(10)]
    for x in seeded:
        M = P.ad_matrix(x)
        assert M[0].tolist() == [0.0, 0.0, 0.0]
        assert M[1, 2] == M[2, 1] == 0.0
        assert np.diag(M).tolist() == [0.0, 2.0 * x[0], 2.0 * x[0]]
    near_zero = [np.array([x1, 0.6, -0.9]) for x1 in (0.0, 1e-8, -1e-8, 1e-3)]
    for x in seeded + near_zero:
        M = P.ad_matrix(x)
        D = np.einsum("i,ijk->jk", x, delta)

        def integrand(s):
            A = expm(s * M)
            return A @ D @ A.T

        expected, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-13)
        w0, w1 = P.integrate_cobracket(x)
        assert np.allclose(w0 + kappa * w1, expected, rtol=0.0, atol=1e-10), x


def test_integrate_cobracket_names_the_point_where_it_overflows():
    """e^{2 lam} with lam = 2 x1 = 800 overflows a float: the integration
    refuses the point by name instead of returning inf or nan."""
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite value in cobracket integration "
                             r"at x = \[400\.0, 0\.1, 0\.1\]$"):
        P.integrate_cobracket([400.0, 0.1, 0.1])


def test_bivector_exact_on_x1_zero_plane():
    """At x1 = 0 the lemma value and the closed form agree to round-off,
    component by component (derived: the pushforward is exact
    there)."""
    base, per_kappa = P.bivector_at([0.0, 0.7, -0.4])
    ref = P.alpha_reference(P.exp_point([0.0, 0.7, -0.4]).coords())
    assert np.allclose(base.components + 8.0 * per_kappa.components,
                       ref.components, atol=1e-10)
    assert np.allclose(base.point, ref.point, atol=1e-12)
    assert per_kappa.point == base.point


def test_bivector_at_origin_is_zero():
    base, per_kappa = P.bivector_at([0.0, 0.0, 0.0])
    b = base.components + P.DEFAULT_KAPPA * per_kappa.components
    assert np.allclose(b, 0.0, atol=1e-14)


def test_fit_kappa_takes_no_matrix_exponential():
    """One kappa fit integrates once, in closed form: with scipy blocked
    from import, the fit at a point gives kappa = 8."""
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from sl2star import poisson as P
        calls = []
        integrate = P.integrate_cobracket

        def counted(x):
            calls.append(x)
            return integrate(x)

        P.integrate_cobracket = counted
        x = [0.5, -0.25, 0.75]
        kappa, _, _ = P.fit_kappa_at(x, P.alpha_reference(P.exp_point(x).coords()))
        print(repr(kappa), len(calls))
    """)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    kappa, calls = proc.stdout.split()
    assert float(kappa) == pytest.approx(8.0, abs=1e-10)
    assert calls == "1"


def test_exp_point_is_the_matrix_exponential():
    """The closed-form group point is the matrix exponential of the
    triangular pair sum_i x_i (G_lower_i, G_upper_i), at seeded points of
    the cube and beside x1 = 0, where sinh(x1)/x1 is taken as 1."""
    rng = np.random.default_rng(11)
    points = [rng.uniform(-1.0, 1.0, size=3) for _ in range(20)]
    points += [np.array([x1, 0.6, -0.9]) for x1 in (0.0, 1e-8, -1e-8)]
    for x in points:
        g = P.exp_point(x)
        lower = np.array([[1.0 / g.a, 0.0], [g.b, g.a]])
        upper = np.array([[g.a, g.c], [0.0, 1.0 / g.a]])
        for pair, basis in ((lower, P._G_LOWER), (upper, P._G_UPPER)):
            expected = expm(sum(x[i] * basis[i] for i in range(3)))
            assert np.allclose(pair, expected, rtol=1e-13, atol=1e-15), x


def test_alpha_reference_values():
    b = P.alpha_reference([0.0, 1.0, 1.0])
    assert b.components[0, 1] == 1.0
    assert b.components[0, 2] == -1.0
    assert b.components[1, 2] == 0.0
    assert np.allclose(P.alpha_reference([0, 0, 0]).components, 0.0)
    c = P.alpha_reference([0.5, 0.0, 0.0])
    assert c.components[1, 2] == pytest.approx(4 * math.sinh(1.0))


def test_bivector_sample_antisymmetry():
    s = P.BivectorSample((0, 0, 0), np.arange(9.0).reshape(3, 3))
    assert np.allclose(s.components + s.components.T, 0.0)


def _value(f, points):
    """A function on copies of the group at one point of each copy."""
    return sum(c * math.prod(x[0] ** m.n1 * x[1] ** m.n2 * x[2] ** m.n3
                             * math.exp(m.m * x[0])
                             for m, x in zip(key, points))
               for key, c in f.items())


def test_jacobian_is_the_derivative_of_the_group_law():
    """J[i, k] = d coords_i(h g) / d h_k at h = e: the group law of the
    generator table differentiated exactly on the left copy, then evaluated
    at (e, g)."""
    rng = np.random.default_rng(3)
    derivative = [[P.partial(P.on_product(P.COORDINATES[i]), 0, k)
                   for k in (1, 2, 3)] for i in (1, 2, 3)]
    for _ in range(20):
        g = P.exp_point(rng.uniform(-1.0, 1.0, size=3))
        points = ([0.0, 0.0, 0.0], g.coords())
        expected = [[_value(d, points) for d in row] for row in derivative]
        assert np.allclose(P.right_translation_jacobian(g), expected,
                           rtol=1e-14, atol=1e-14)


def test_the_benchmark_tracer_finds_every_span(capsys):
    """The benchmark's tracer (loaded read-only by path) patches its spans
    by name, and says "not found" for a name the program lacks: only for
    ``poisson.expm``."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    captured = capsys.readouterr()
    assert captured.out == ""
    # the frozen benchmark still lists the matrix exponential that the
    # closed-form integral replaced; every other span must be found
    assert captured.err.splitlines() == [
        "trace: sl2star.poisson.expm not found; its metrics read 0"]


@pytest.mark.parametrize("seed", range(20))
def test_lemma_verification_report(seed):
    rep = P.verify_integration_lemma(seed=seed)
    assert rep["passed"]
    assert rep["kappa"] == pytest.approx(8.0, abs=1e-6)
    assert rep["kappa_spread"] <= P.KAPPA_SPREAD_TOL == 1e-10
    assert rep["max_residual"] < P.LEMMA_TOL == 1e-10


# -- the bivector, exactly --------------------------------------------------

def test_on_product_is_the_coordinate_group_law():
    y, x = [-0.6, 1.1, 0.2], [0.3, -0.4, 0.9]
    expected = [y[0] + x[0],
                y[1] * math.exp(-x[0]) + math.exp(y[0]) * x[1],
                math.exp(y[0]) * x[2] + y[2] * math.exp(-x[0])]
    got = [_value(P.on_product(P.COORDINATES[i]), (y, x)) for i in (1, 2, 3)]
    assert np.allclose(got, expected, rtol=0.0, atol=1e-14)
    assert P.on_product({(M(1, 0, 0, 2),): 3}) == {
        (M(1, 0, 0, 2), M(0, 0, 0, 2)): 3, (M(0, 0, 0, 2), M(1, 0, 0, 2)): 3}


def test_partial_brings_down_the_exponent_of_x1():
    f = {(M(2, 1, 0, -3),): 5}
    assert P.partial(f, 0, 1) == {(M(1, 1, 0, -3),): 10, (M(2, 1, 0, -3),): -15}
    assert P.partial(f, 0, 2) == {(M(2, 0, 0, -3),): 5}
    assert P.partial(f, 0, 3) == {}
    two = {(M(0, 0, 0, 1), M(0, 0, 1, 0)): 1}
    assert P.partial(two, 1, 3) == {(M(0, 0, 0, 1), M(0, 0, 0, 0)): 1}
    assert P.partial(two, 1, 1) == {}


def test_coordinate_brackets_are_the_bivector():
    x = P.COORDINATES
    for (i, j), p in P.BIVECTOR.items():
        assert P.poisson_bracket(P.BIVECTOR, x[i], x[j]) == {
            (mono,): c for mono, c in p.items()}
        assert P.poisson_bracket(P.BIVECTOR, x[j], x[i]) == {
            (mono,): -c for mono, c in p.items()}


def test_linear_part_is_the_lie_poisson_structure():
    assert P.linear_part(P.BIVECTOR) == {
        (1, 2): {M(0, 1, 0, 0): 1}, (1, 3): {M(0, 0, 1, 0): -1},
        (2, 3): {M(1, 0, 0, 0): 8}}


def test_the_exact_checks_pass():
    pi = P.BIVECTOR
    assert P.jacobiator(pi) == {}
    assert P.jacobiator(P.linear_part(pi)) == {}
    assert P.multiplicativity_failures(pi) == []
    cobracket = P.coordinate_cobracket(P.DEFAULT_KAPPA)
    assert P.linearization_failures(pi, cobracket) == []


MULT = "Poisson-Lie multiplicativity of w"
JAC = "Jacobi identity of the closed-form bivector"
JAC_LIN = "Jacobi identity of the linearized bivector"
LIN = "linear part of the bivector is the coordinate cobracket at kappa = 8"
LEMMA = "integrated bivector matches closed form"
TWO_SINH = {M(0, 0, 0, 2): 2, M(0, 0, 0, -2): -2}


@pytest.mark.parametrize("p23, failing", [
    ({**TWO_SINH, M(0, 1, 0, 0): 1}, {MULT, JAC, JAC_LIN, LIN, LEMMA}),
    ({M(0, 0, 0, 3): 2, M(0, 0, 0, -3): -2}, {MULT, LIN, LEMMA}),
    ({M(0, 0, 0, 2): Fraction(3, 2), M(0, 0, 0, -2): Fraction(-3, 2)},
     {LIN, LEMMA}),
], ids=["plus-x2", "4-sinh-3x1", "3-sinh-2x1"])
def test_criterion_10_sees_a_perturbed_bivector(monkeypatch, p23, failing):
    """pi^{23} + x2, 4 sinh(3 x1) and 3 sinh(2 x1) in place of 4 sinh(2 x1):
    each fails exactly the lines it breaks, and the exact ones name (x2,
    x3).  The numeric lemma fits 3 sinh(2 x1) with kappa = 6, and refuses
    it as it does every kappa but 8."""
    monkeypatch.setattr(P, "BIVECTOR", {**P.BIVECTOR, (2, 3): p23})
    report = checks.poisson_lemma(Config())
    assert {c.name for c in report if not c.passed} == failing
    for c in report:
        if not c.passed and c.name in (MULT, LIN):
            assert c.detail == "fails first on {x2, x3}"
        if not c.passed and c.name in (JAC, JAC_LIN):
            assert c.detail == "fails on (x1, x2, x3)"
