"""Acceptance criteria, one test per criterion.

Each test runs that criterion's checks from ``sl2star.checks`` on the
default ``Config()``; the sizes, seeds and tolerances live there, once, and
``sl2star check`` runs the same code.  Each check prints a PASS/FAIL line
(run with ``pytest -s`` to see them on success).
"""

import time

from sl2star import checks
from sl2star.config import Config


def _accept(number, criterion, seconds=None):
    start = time.monotonic()
    results = criterion(Config())
    elapsed = time.monotonic() - start
    for c in results:
        line = f"{'PASS' if c.passed else 'FAIL'} criterion {number}: {c.name}"
        print(line + (f" [{c.detail}]" if c.detail else ""))
    assert [c.name for c in results if not c.passed] == []
    if seconds is not None:
        print(f"criterion {number}: {elapsed:.1f}s (target < {seconds:g}s)")
        assert elapsed < seconds


def test_criterion_01_rewriting_soundness():
    _accept(1, checks.rewriting_soundness, seconds=30.0)


def test_criterion_02_associativity():
    _accept(2, checks.associativity)


def test_criterion_03_pbw_flatness():
    _accept(3, checks.pbw_flatness)


def test_criterion_04_coideal():
    _accept(4, checks.coideal)


def test_criterion_05_coassociativity_and_counit():
    _accept(5, checks.coassociativity_and_counit)


def test_criterion_06_nontrivial_deformation():
    _accept(6, checks.nontrivial_deformation)


def test_criterion_07_gauge_solver():
    _accept(7, checks.gauge_solver)


def test_criterion_08_bernoulli_suite():
    _accept(8, checks.bernoulli_suite)


def test_criterion_09_uh_sl2():
    _accept(9, checks.uh_sl2)


def test_criterion_10_poisson_lemma():
    _accept(10, checks.poisson_lemma, seconds=10.0)


def test_criterion_11_opposite_product_symmetry():
    _accept(11, checks.opposite_product_symmetry)


def test_every_suite_check_is_a_criterion():
    """A check added to a suite must get its criterion test above."""
    tested = {name.split("_", 3)[3] for name in globals()
              if name.startswith("test_criterion_")}
    in_suites = [fn.__name__ for fns in checks.SUITES.values() for fn in fns]
    assert sorted(in_suites) == sorted(tested)
