"""The kill table: named mutants of the program's data, each with the exact
set of check names that ``check all`` fails on it (mutation analysis:
DeMillo, Lipton and Sayward, *IEEE Computer* 11, 1978).

A mutant is applied with pytest's ``monkeypatch`` and undone after its
test; the program has no option for it.  The rows change the scalars that
``x_algebra`` and ``uhsl2.xi_algebra`` hand to ``pbw_rules``, the letter
coproducts of
``ncalg.GENERATOR_COPRODUCT``, two helpers of the multiplication tables
(``RewriteSystem._d_sum`` and the x1 shift of ``_letter_row``) and the
entries of ``poisson.BIVECTOR``.  A check that goes vacuous shows here as a
mutant that no longer fails it.  A mutant that fails no check stays in the
table, with the reason why its change is invisible.  No suite but ``uh``
builds the xi algebra, so the xi rows run ``check uh`` alone, which keeps
the table fast; the other rows run ``check all``.
"""

import math
from fractions import Fraction

import pytest

from sl2star import checks, ncalg, poisson, uhsl2
from sl2star.config import Config
from sl2star.ncalg import (
    M_EM, M_EP, M_X2, UNIT, PbwMonomial, RewriteSystem, X1, X2,
)
from sl2star.series import BiSeries, EpsSeries

ORDER = 8


def _eps(one, k):
    """eps^k in the ring of the x-algebra scalar ``one``."""
    return EpsSeries({k: 1}, one.order)


def _eps_cubed(ring):
    """eps^3 in ``ring``, of either algebra."""
    return (ring.eps_power(1, 3) if ring.kind == "eps"
            else ring.monomial(1, 3, 0))


def _exp_eps_cubed(one):
    """e^{eps^3} in the ring of ``one``."""
    return EpsSeries({3 * k: Fraction(1, math.factorial(k))
                      for k in range(one.order // 3 + 1)}, one.order)


def _x_scalars(change):
    """The mutant that hands ``pbw_rules`` ``change(one, shift, c, up,
    down)`` in place of the scalars of ``x_algebra``."""
    def apply(monkeypatch):
        pbw_rules = ncalg.pbw_rules
        monkeypatch.setattr(ncalg, "pbw_rules",
                            lambda *scalars: pbw_rules(*change(*scalars)))
    return apply


def _xi_scalars(change):
    """The mutant that hands ``pbw_rules`` ``change(one, shift, c, up,
    down)`` in place of the scalars of ``uhsl2.xi_algebra``."""
    def apply(monkeypatch):
        pbw_rules = uhsl2.pbw_rules
        monkeypatch.setattr(uhsl2, "pbw_rules",
                            lambda *scalars: pbw_rules(*change(*scalars)))
    return apply


def _bi(one, i, j):
    """eps^i h^j in the ring of the xi-algebra scalar ``one``."""
    return BiSeries.monomial(1, i, j, one.total)


def _up_times(one, shift, c, up, down):
    return one, shift, c, up * (one + _eps(one, 3)), down


def _down_times(one, shift, c, up, down):
    return one, shift, c, up, down * (one + _eps(one, 3))


def _moved_up(one, shift, c, up, down):
    up = up * _exp_eps_cubed(one)
    return one, shift, c, up, up.invert()


def _moved_shift(one, shift, c, up, down):
    return one, shift + _eps(one, 3), c, up, down


def _moved_shift_and_up(one, shift, c, up, down):
    up = up * _exp_eps_cubed(one)
    return one, shift + _eps(one, 3), c, up, up.invert()


def _c_plus(k):
    return lambda one, shift, c, up, down: (one, shift, c + _eps(one, k),
                                            up, down)


def _xi_shift_plus(one, shift, c, up, down):
    return one, shift + _bi(one, 3, 0), c, up, down


def _xi_up_times(one, shift, c, up, down):
    return one, shift, c, up * (one + _bi(one, 1, 2)), down


def _xi_c_times(i, j):
    return lambda one, shift, c, up, down: (one, shift,
                                            c * (one + _bi(one, i, j)),
                                            up, down)


def _x2_coproduct(pairs):
    def apply(monkeypatch):
        monkeypatch.setitem(ncalg.GENERATOR_COPRODUCT, X2, pairs)
    return apply


def _d_sum_from_c3(monkeypatch):
    d_sum = RewriteSystem._d_sum

    def mutated(self, e, c):
        s = d_sum(self, e, c)
        return s + _eps_cubed(self.ring) if c >= 3 else s
    monkeypatch.setattr(RewriteSystem, "_d_sum", mutated)


def _x1_shift_from_b3(monkeypatch):
    letter_row = RewriteSystem._letter_row

    def mutated(self, mono, letter):
        row = letter_row(self, mono, letter)
        if letter is not X1 or mono.n2 < 3:
            return row
        shift = row[1][1] if len(row) > 1 else self.ring.zero
        return [row[0], (mono, shift + _eps_cubed(self.ring))]
    monkeypatch.setattr(RewriteSystem, "_letter_row", mutated)


def _pi23(p23):
    def apply(monkeypatch):
        monkeypatch.setattr(poisson, "BIVECTOR",
                            {**poisson.BIVECTOR, (2, 3): p23})
    return apply


def _e(m):
    return PbwMonomial(0, 0, 0, m)


MUTANTS = {
    "up * (1 + eps^3)": _x_scalars(_up_times),
    "down * (1 + eps^3)": _x_scalars(_down_times),
    "up = e^{2 eps + eps^3}, down = 1/up": _x_scalars(_moved_up),
    "shift + eps^3": _x_scalars(_moved_shift),
    "shift + eps^3, up = e^shift, down = 1/up": _x_scalars(_moved_shift_and_up),
    "c + eps^2": _x_scalars(_c_plus(2)),
    "c + eps^3": _x_scalars(_c_plus(3)),
    "Delta x2 = x2 (x) e+ + e- (x) x2":
        _x2_coproduct(((M_X2, M_EP), (M_EM, M_X2))),
    "Delta x2 = x2 (x) 1 + 1 (x) x2":
        _x2_coproduct(((M_X2, UNIT), (UNIT, M_X2))),
    "_d_sum + eps^3 from c = 3": _d_sum_from_c3,
    "x1 shift + eps^3 from b = 3": _x1_shift_from_b3,
    "pi^23 + x2": _pi23({_e(2): 2, _e(-2): -2, M_X2: 1}),
    "pi^23 = 4 sinh(3 x1)": _pi23({_e(3): 2, _e(-3): -2}),
    "pi^23 = 3 sinh(2 x1)":
        _pi23({_e(2): Fraction(3, 2), _e(-2): Fraction(-3, 2)}),
    "xi shift + eps^3": _xi_scalars(_xi_shift_plus),
    "xi up * (1 + eps h^2)": _xi_scalars(_xi_up_times),
    "xi c * (1 + h^2)": _xi_scalars(_xi_c_times(0, 2)),
    "xi c * (1 + eps^2)": _xi_scalars(_xi_c_times(2, 0)),
}

OVERLAPS = "every overlap of two rules resolves"
TABLES = "table normal form equals rewriting (200 words)"
ASSOC = "star associativity (100 random triples)"
XI_ASSOC = "xi star associativity (15 random triples)"
COIDEAL = "coideal property (A = 4)"
DEFORMATION = "coproduct deformation order of x2*x2 is 2"
DEFECT = "Delta(x2*x2) defect is (2 cosh(2 eps) - 2) x2 e+ (x) x2 e-"
FLIP = "the flip maps each rule into the ideal"
Z_SHIFT = {"[z1,z2] = 2 z2", "[z1,z2] = 2 z2 (explicit)",
           "[z1,z3] = -2 z3", "[z1,z3] = -2 z3 (explicit)"}
EP_Z2 = "e^{+h z1/2} z2 = e^{+h} z2 e^{+h z1/2}"
EP_Z3 = "e^{+h z1/2} z3 = e^{-h} z3 e^{+h z1/2}"
EM_Z2 = "e^{-h z1/2} z2 = e^{-h} z2 e^{-h z1/2}"
EM_Z3 = "e^{-h z1/2} z3 = e^{+h} z3 e^{-h z1/2}"
DELTA_Z2 = "Delta z2 = z2 (x) e^{-h z1/2} + e^{+h z1/2} (x) z2"
MULT = "Poisson-Lie multiplicativity of w"
JAC = "Jacobi identity of the closed-form bivector"
JAC_LIN = "Jacobi identity of the linearized bivector"
LIN = "linear part of the bivector is the coordinate cobracket at kappa = 8"
LEMMA = "integrated bivector matches closed form"
BASE_CHANGE = ("x -> xi base change is a bialgebra isomorphism "
               "(11 rules, 5 letters)")
C_VS_A = {"[z2,z3] = sinh(h z1)/sinh(h)",
          "[z2,z3] = sinh(h z1)/sinh(h) (explicit)",
          "x2 -> (A'/A) x2 is a bialgebra isomorphism (10 random tails)"}
XI_SHIFT = {"[xi1,xi2] = 2 eps xi2", "[xi1,xi3] = -2 eps xi3",
            "h->0: [xi1,xi2] -> 2 eps xi2 (unchanged)"}
XI_BRACKET = "[xi2,xi3] = eps sinh(h xi1)/sinh(h)"

#: the checks each mutant fails, at seed 0 and order ``ORDER``
KILLS = {
    "up * (1 + eps^3)":
        {OVERLAPS, ASSOC, FLIP, DEFECT, EP_Z2, EM_Z3, BASE_CHANGE},
    "down * (1 + eps^3)":
        {OVERLAPS, ASSOC, FLIP, DEFECT, EP_Z3, EM_Z2, BASE_CHANGE},
    "up = e^{2 eps + eps^3}, down = 1/up":
        {DEFECT, EP_Z2, EP_Z3, EM_Z2, EM_Z3, BASE_CHANGE},
    "shift + eps^3": Z_SHIFT | {BASE_CHANGE},
    "shift + eps^3, up = e^shift, down = 1/up":
        Z_SHIFT | {DEFECT, EP_Z2, EP_Z3, EM_Z2, EM_Z3, BASE_CHANGE},
    # the z lines and the rescaling line read A from the system, not from c
    "c + eps^2": {FLIP, BASE_CHANGE} | C_VS_A,
    # an A-tail, the same bialgebra up to x2 -> (A'/A) x2 (criterion 4),
    # but not the A the system keeps; the base change fixes A = DEFAULT_A
    "c + eps^3": {BASE_CHANGE} | C_VS_A,
    "Delta x2 = x2 (x) e+ + e- (x) x2": {COIDEAL, DEFECT, DELTA_Z2, MULT},
    "Delta x2 = x2 (x) 1 + 1 (x) x2":
        {COIDEAL, DEFORMATION, DEFECT, DELTA_Z2, MULT},
    "_d_sum + eps^3 from c = 3": {TABLES, ASSOC},
    "x1 shift + eps^3 from b = 3": {TABLES, ASSOC, XI_ASSOC},
    "pi^23 + x2": {MULT, JAC, JAC_LIN, LIN, LEMMA},
    "pi^23 = 4 sinh(3 x1)": {MULT, LIN, LEMMA},
    "pi^23 = 3 sinh(2 x1)": {LIN, LEMMA},
    "xi shift + eps^3": XI_SHIFT | {BASE_CHANGE},
    "xi up * (1 + eps h^2)":
        {"E+ xi2 = e^{+eps h} xi2 E+", XI_ASSOC, BASE_CHANGE},
    "xi c * (1 + h^2)": {XI_BRACKET, BASE_CHANGE},
    "xi c * (1 + eps^2)":
        {XI_BRACKET, "h->0: [xi2,xi3] -> eps xi1", BASE_CHANGE},
}

#: the mutants that fail no check, each with the reason
EQUIVALENT = {}


def failing_checks(config: Config, suite: str = "all") -> set:
    report = checks.run_suite(suite, config)
    return {c["name"] for suite in report["suites"] for c in suite["checks"]
            if not c["passed"]}


def test_the_table_lists_every_mutant_once():
    assert sorted(MUTANTS) == sorted(KILLS.keys() | EQUIVALENT.keys())
    assert not KILLS.keys() & EQUIVALENT.keys()
    assert all(KILLS.values())


def test_the_unmutated_program_fails_nothing():
    assert failing_checks(Config(order=ORDER)) == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_exactly_its_checks(monkeypatch, name):
    MUTANTS[name](monkeypatch)
    suite = "uh" if name.startswith("xi ") else "all"
    assert failing_checks(Config(order=ORDER), suite) \
        == KILLS.get(name, set())
