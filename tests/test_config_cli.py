"""Flag parsers, the Config defaults and the command-line surface."""

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from sl2star import cli, gauge
from sl2star.config import Config, int_at_least, parse_b_coeffs
from sl2star.expr import evaluate, parse
from sl2star.ncalg import EM, X1, X2, X3, x_algebra

SRC = str(pathlib.Path(__file__).parents[1] / "src")


def test_parse_helpers():
    assert parse_b_coeffs("2:1/4,4:1/8") == {2: Fraction(1, 4),
                                             4: Fraction(1, 8)}
    assert int_at_least(1)("12") == 12 and int_at_least(0)("0") == 0
    with pytest.raises(argparse.ArgumentTypeError):
        parse_b_coeffs("2=1/4")


def test_defaults():
    """A run of the checks has two settings; A, b and the gauge bound are
    none (criteria 4 and 7 cover every A, every b and every n)."""
    cfg = Config()
    assert [f.name for f in dataclasses.fields(cfg)] == ["order", "seed"]
    assert cfg.order == 8
    assert cfg.seed == 0


def test_validation():
    """The flag parsers refuse the values a Config cannot hold."""
    for parser, text in ((int_at_least(1), "0"), (int_at_least(0), "-1"),
                         (parse_b_coeffs, "3:1"), (parse_b_coeffs, "0:1"),
                         (parse_b_coeffs, "2:1/0")):
        with pytest.raises(argparse.ArgumentTypeError):
            parser(text)


@pytest.mark.parametrize("text", ["", "2:1/4,,4:1/8", "2:1/4,", ","])
def test_an_empty_b_entry_is_refused(text):
    """An empty entry is not skipped: "" is not the zero model, and
    "2:1/4,,4:1/8" is not two pairs; the message names the zero model."""
    with pytest.raises(argparse.ArgumentTypeError, match="2:0"):
        parse_b_coeffs(text)
    assert parse_b_coeffs("2:0") == {2: Fraction(0)}


# -- CLI ---------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_normalize(capsys):
    code, out = run_cli(capsys, "normalize", "x2*x1")
    assert code == 0
    assert out.strip() == "0 - 2*eps*x2 + x1*x2"


def test_cli_normalizes_a_long_word(capsys):
    """x3^6 x2^6 x1^6 e-^2 has 28 terms; the printed form reparses to them."""
    code, out = run_cli(capsys, "normalize", "x3^6*x2^6*x1^6*e-^2")
    assert code == 0
    config = Config()
    system = x_algebra(config.order)
    expected = system.normal_form((X3,) * 6 + (X2,) * 6 + (X1,) * 6 + (EM, EM))
    assert len(expected.terms) == 28
    assert evaluate(parse(out.strip()), system) == expected


def test_cli_normalizes_a_large_power(capsys):
    """x1^100000 takes about 2 log2(n) star products, not n."""
    code, out = run_cli(capsys, "normalize", "x1^100000")
    assert code == 0
    assert out.strip() == "x1^100000"


@pytest.mark.parametrize("op, printed", [("+", "3001*x1"), ("*", "x1^3001")])
def test_cli_normalizes_a_long_flat_expression(capsys, op, printed):
    """A sum or a product of 3,001 letters, deeper than the recursion
    limit, is normalized."""
    code, out = run_cli(capsys, "normalize", op.join(["x1"] * 3001))
    assert code == 0
    assert out.strip() == printed


def test_importing_the_cli_loads_no_numeric_library():
    """numpy, scipy and the module that needs them load only for the
    Poisson-Lie commands."""
    code = ("import sys, sl2star.cli; print(sorted("
            "{'numpy', 'scipy', 'sl2star.poisson'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_normalize_json(capsys):
    code, out = run_cli(capsys, "normalize", "e+*e-", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"n1": 0, "n2": 0, "n3": 0, "m": 0,
                              "coeff": {"terms": [[0, "1"]], "order": 8}}]


def test_cli_product_and_commutator(capsys):
    """A product or commutator is an expression; the output is pinned."""
    for argv, expected in (
            (["(x1)*(x2)"], "x1*x2"),
            (["(x1)*(x2) - (x2)*(x1)"], "2*eps*x2"),
            (["(x2)*(x1)", "--order", "10"], "0 - 2*eps*x2 + x1*x2"),
            (["(x2)*(x3) - (x3)*(x2)"], "0 - 4*eps*e-^2 + 4*eps*e+^2")):
        code, out = run_cli(capsys, "normalize", *argv)
        assert code == 0 and out.strip() == expected


def test_cli_coproduct(capsys):
    code, out = run_cli(capsys, "coproduct", "x1")
    assert code == 0
    assert "1 (x) x1" in out and "x1 (x) 1" in out


def test_cli_order_flag(capsys):
    code, out = run_cli(capsys, "normalize", "e+*x2", "--order", "2")
    assert code == 0
    assert out.strip() == "(1 + 2*eps + 2*eps^2)*x2*e+"


def test_cli_check_suite(capsys):
    code, out = run_cli(capsys, "check", "gauge")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_json(capsys):
    code, out = run_cli(capsys, "check", "gauge", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suites"][0]["suite"] == "gauge"


def test_cli_gauge(capsys):
    code, out = run_cli(capsys, "gauge", "--b", "2:1/4,4:1/8",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["a"]["2"] == "1/8"
    assert data["a"]["4"] == "5/128"


def test_cli_check_takes_no_gauge_flags(capsys):
    """Criterion 7 passes for every b and every n, so check takes no --b and
    no --nmax; the gauge command reads its own --b."""
    assert cli.main(["check", "gauge", "--b", "2:1/3"]) == 2
    assert "--b" in capsys.readouterr().err
    code, out = run_cli(capsys, "gauge", "--b", "2:1/3", "--format", "json")
    assert code == 0 and json.loads(out)["b"] == {"2": "1/3"}


def test_cli_gauge_solves_through_nmax_rounded_up_to_even(capsys):
    """The solve runs through the first even k >= nmax, and the solution
    is compared with the c^n_k table for n <= 12."""
    for nmax, last in (("12", "12"), ("7", "8")):
        code, out = run_cli(capsys, "gauge", "--nmax", nmax, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True and "kmax" not in data
        assert list(data["a"]) == [str(k) for k in range(0, int(last) + 1, 2)]


def test_cli_check_uh_prints_the_notes(capsys):
    """A check's note follows its line in text output."""
    code, out = run_cli(capsys, "check", "uh")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "(sign opposite to the printed relation" in out


def test_cli_gauge_builds_the_table_only_to_n_12(capsys, monkeypatch):
    """--nmax bounds only the a_k solved and printed: the c^n_k table that
    checks them stops at n = 12, so its cost does not grow with nmax."""
    bounds = []
    cnk_from_b = gauge.cnk_from_b
    monkeypatch.setattr(gauge, "cnk_from_b", lambda model, nmax: (
        bounds.append(nmax) or cnk_from_b(model, nmax)))
    code, out = run_cli(capsys, "gauge", "--nmax", "400", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True and len(data["a"]) == 201
    assert bounds == [12]


def test_cli_check_bialgebra_at_order_1(capsys):
    """At order 1 the coproduct deformation of x2*x2 (at eps^2) is not yet
    visible, and criterion 6 expects none."""
    code, out = run_cli(capsys, "check", "bialgebra", "--order", "1")
    assert code == 0 and "FAIL" not in out
    assert "above the truncation order 1" in out


def test_cli_check_poisson_json(capsys):
    code, out = run_cli(capsys, "check", "poisson", "--format", "json")
    assert code == 0
    report = json.loads(out)
    checks = report["suites"][0]["checks"]
    assert report["passed"] is True and all(c["passed"] for c in checks)
    assert any(c["detail"].startswith("kappa=8 ") for c in checks)


def test_cli_help_returns_zero(capsys):
    """main returns the code argparse exits with, here 0, and never raises."""
    assert cli.main(["--help"]) == 0
    assert "check" in capsys.readouterr().out


@pytest.mark.parametrize("setting, argv, env", [
    # a flag that no longer exists is an unknown name, refused as such
    ("samples", ["check", "poisson", "--samples", "50"], {}),
    # settings come only from flags: any set SL2STAR_* variable is refused
    ("SL2STAR_TOL", ["check", "poisson"], {"SL2STAR_TOL": "1e-6"}),
    ("SL2STAR_LAURENT_MIN", ["normalize", "x1"], {"SL2STAR_LAURENT_MIN": "-2"}),
    ("SL2STAR_XI_TOTAL", ["normalize", "xi1"], {"SL2STAR_XI_TOTAL": "8"}),
    ("SL2STAR_XI_H_MIN", ["normalize", "xi1"], {"SL2STAR_XI_H_MIN": "-3"}),
    ("SL2STAR_GAUGE_KMAX", ["check", "gauge"], {"SL2STAR_GAUGE_KMAX": "11"}),
    ("--nmax", ["gauge", "--nmax", "0"], {}),
    ("SL2STAR_GAUGE_KMAX", ["gauge"], {"SL2STAR_GAUGE_KMAX": "12"}),
    ("SL2STAR_ORDER", ["normalize", "x1"], {"SL2STAR_ORDER": "abc"}),
    # --A is gone: every A is isomorphic to A = 4 (criterion 4)
    ("--A", ["normalize", "x1", "--A", "0"], {}),
    ("--A", ["normalize", "x1", "--A", ","], {}),
    ("--A", ["normalize", "x3*x2", "--A", "-4,1"], {}),
    ("SL2STAR_ODRER", ["normalize", "e+*x2"], {"SL2STAR_ODRER": "3"}),
    ("--kmax", ["gauge", "--kmax", "12"], {}),
    # argparse's refusals come back as the exit code, not as SystemExit
    ("--tol", ["check", "poisson", "--tol", "1e-6"], {}),
    ("nosuch", ["check", "nosuch"], {}),
    ("command", ["--version"], {}),
    ("--order", ["normalize", "x1", "--order", "0"], {}),
    ("--order", ["check", "bialgebra", "--order", "ten"], {}),
    ("--nmax", ["check", "gauge", "--nmax", "-2"], {}),
    ("--b", ["gauge", "--b", "3:1"], {}),
    ("--b", ["check", "gauge", "--b", "2=1/4"], {}),
    ("--A", ["coproduct", "x1", "--A", "4,1/0"], {}),
    ("--format", ["gauge", "--format", "yaml"], {}),
    ("--config", ["normalize", "x1", "--config", "run.cfg"], {}),
    ("SL2STAR_ORDER", ["normalize", "x1", "--order", "3"],
     {"SL2STAR_ORDER": "10"}),
    # each subcommand takes exactly the flags it reads
    ("--order", ["gauge", "--order", "8"], {}),
    ("--seed", ["gauge", "--seed", "1"], {}),
    ("--seed", ["normalize", "x1", "--seed", "1"], {}),
    ("--seed", ["check", "poisson", "--seed", "-1"], {}),
    ("--b", ["coproduct", "x1", "--b", "2:1"], {}),
    ("product", ["product", "x1", "x2"], {}),
    ("commutator", ["commutator", "x1", "x2"], {}),
    ("--A", ["normalize", "x3*x2", "--A", "4,,1", "--order", "4"], {}),
    ("--A", ["check", "uh", "--A", "4,"], {}),
    ("--b", ["gauge", "--b", "2:1/4,2:1/2"], {}),
    # an empty entry is refused, not skipped: "" is not b = 0
    ("--b", ["gauge", "--b", "2:1/4,,4:1/8"], {}),
    ("--b", ["gauge", "--b", ""], {}),
    ("--A", ["check", "all", "--A", "2"], {}),
    ("--A", ["gauge", "--A", "4"], {}),
    # check takes no --nmax: the gauge holds for every n (criterion 7)
    ("--nmax", ["check", "gauge", "--nmax", "1"], {}),
    # nor --b: the gauge holds for every b (criterion 7)
    ("--b", ["check", "gauge", "--b", "2:1/3"], {}),
    ("--b", ["check", "all", "--b", "2:1/4"], {}),
])
def test_cli_refuses_a_bad_setting_by_name(capsys, monkeypatch, setting, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert setting in captured.err
    assert captured.out == ""


def test_cli_error_exit_code(capsys):
    code = cli.main(["normalize", "x1*(("])
    assert code == 2


def test_cli_refuses_deep_nesting(capsys):
    """Parentheses 400 deep are refused by name, not by a RecursionError."""
    assert cli.main(["normalize", "(" * 400 + "x1" + ")" * 400]) == 2
    captured = capsys.readouterr()
    assert "nests too deeply" in captured.err and captured.out == ""


def test_cli_names_a_zero_denominator(capsys):
    assert cli.main(["normalize", "1/0*x1"]) == 2
    captured = capsys.readouterr()
    assert "zero denominator in '1/0' (column 1)" in captured.err
    assert captured.out == ""


def test_cli_mixed_alphabet_error(capsys):
    code = cli.main(["normalize", "x1*xi1"])
    assert code == 2


def test_cli_xi_expression(capsys):
    code, out = run_cli(capsys, "normalize", "(xi1)*(xi2) - (xi2)*(xi1)")
    assert code == 0
    assert out.strip() == "2*eps*xi2"


def test_cli_normalizes_words_with_deep_h_poles(capsys):
    """Three xi3 letters moved past three xi2 letters leave h^-3 in the
    normal form; the coefficients carry their total degree and no h bound."""
    for text in ("xi3^3*xi2^3", "xi3^2*xi2*xi3*xi2^2"):
        code, out = run_cli(capsys, "normalize", text, "--format", "json")
        assert code == 0
        coeffs = [t["coeff"] for t in json.loads(out)["terms"]]
        assert all(set(c) == {"terms", "total"} for c in coeffs)
        assert min(j for c in coeffs for (_, j), _ in c["terms"]) == -3


def test_cli_order_truncates_the_xi_algebra(capsys):
    code, out = run_cli(capsys, "normalize", "xi3*xi2", "--order", "3",
                        "--format", "json")
    assert code == 0
    coeffs = [t["coeff"] for t in json.loads(out)["terms"]]
    assert {c["total"] for c in coeffs} == {3}
    assert max(i + j for c in coeffs for (i, j), _ in c["terms"]) <= 3
