"""Configuration layering and the command-line surface."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from sl2star import cli
from sl2star.config import (
    Config,
    load_config,
    parse_a_coeffs,
    parse_b_coeffs,
    read_config_file,
)
from sl2star.expr import evaluate, parse
from sl2star.ncalg import EM, X1, X2, X3, x_algebra

SRC = str(pathlib.Path(__file__).parents[1] / "src")


def test_parse_helpers():
    assert parse_a_coeffs("4,0,1/3") == (Fraction(4), Fraction(0),
                                         Fraction(1, 3))
    assert parse_b_coeffs("2:1/4,4:1/8") == {2: Fraction(1, 4),
                                             4: Fraction(1, 8)}
    with pytest.raises(ValueError):
        parse_b_coeffs("2=1/4")


def test_defaults():
    cfg = load_config(environ={})
    assert cfg.order == 8
    assert cfg.a_coeffs == (Fraction(4),)
    assert cfg.b_coeffs == {2: Fraction(1, 4)}
    assert cfg.fmt == "text"


def test_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("order = 6\nA = 4,1/2  # free tail\nformat = json\n")
    values = read_config_file(str(path))
    assert values == {"order": 6, "a_coeffs": (Fraction(4), Fraction(1, 2)),
                      "fmt": "json"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 3\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


def test_precedence_env_and_cli(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("order = 6\nseed = 9\n")
    env = {"SL2STAR_ORDER": "10", "SL2STAR_TOL": "1e-7"}
    cfg = load_config(str(path), environ=env)
    assert cfg.order == 10           # env beats file
    assert cfg.seed == 9             # file survives where env is silent
    assert cfg.tol == 1e-7
    cfg = load_config(str(path), cli_overrides={"order": 12}, environ=env)
    assert cfg.order == 12           # CLI beats env


def test_validation():
    with pytest.raises(ValueError):
        Config(order=0).validate()
    with pytest.raises(ValueError):
        Config(a_coeffs=(Fraction(0),)).validate()
    with pytest.raises(ValueError):
        Config(fmt="yaml").validate()


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
    system = x_algebra(config.order, config.a_coeffs)
    expected = system.normal_form((X3,) * 6 + (X2,) * 6 + (X1,) * 6 + (EM, EM))
    assert len(expected.terms) == 28
    assert evaluate(parse(out.strip()), system) == expected


def test_cli_normalizes_a_large_power(capsys):
    """x1^100000 takes about 2 log2(n) star products, not n."""
    code, out = run_cli(capsys, "normalize", "x1^100000")
    assert code == 0
    assert out.strip() == "x1^100000"


def test_importing_the_cli_loads_no_numeric_library():
    """numpy and scipy load only for the Poisson-Lie commands."""
    code = ("import sys, sl2star.cli; "
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
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
    code, out = run_cli(capsys, "product", "x1", "x2")
    assert code == 0 and out.strip() == "x1*x2"
    code, out = run_cli(capsys, "commutator", "x1", "x2")
    assert code == 0 and out.strip() == "2*eps*x2"


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


def test_cli_gauge_solves_through_nmax_rounded_up_to_even(capsys):
    """The solve runs through the first even k >= nmax and the solution is
    verified up to nmax."""
    for nmax, last in (("12", "12"), ("7", "8")):
        code, out = run_cli(capsys, "gauge", "--nmax", nmax, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True and "kmax" not in data
        assert list(data["a"]) == [str(k) for k in range(0, int(last) + 1, 2)]


def test_cli_uh(capsys):
    code, out = run_cli(capsys, "uh", "verify-z")
    assert code == 0
    assert "FAIL" not in out


def test_cli_poisson_verify(capsys):
    code, out = run_cli(capsys, "poisson", "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["integration_lemma"]["kappa"] == pytest.approx(8.0, abs=1e-6)


@pytest.mark.parametrize("setting, argv, env", [
    ("samples", ["poisson", "verify", "--samples", "0"], {}),
    ("tol", ["poisson", "verify", "--tol", "-1"], {}),
    # settings that no longer exist are unknown names, refused as such
    ("laurent_min", ["normalize", "x1"], {"SL2STAR_LAURENT_MIN": "-2"}),
    ("xi_total", ["normalize", "xi1"], {"SL2STAR_XI_TOTAL": "8"}),
    ("xi_h_min", ["normalize", "xi1"], {"SL2STAR_XI_H_MIN": "-3"}),
    ("gauge_kmax", ["check", "gauge"], {"SL2STAR_GAUGE_KMAX": "11"}),
    ("gauge_nmax", ["gauge", "--nmax", "0"], {}),
    ("gauge_kmax", ["gauge"], {"SL2STAR_GAUGE_KMAX": "12"}),
    ("order", ["normalize", "x1"], {"SL2STAR_ORDER": "abc"}),
    ("a_coeffs", ["normalize", "x1", "--A", "0"], {}),
    ("a_coeffs", ["normalize", "x1", "--A", ","], {}),
    ("a_coeffs", ["check", "uh", "--A", "2"], {}),
    ("SL2STAR_ODRER", ["normalize", "e+*x2"], {"SL2STAR_ODRER": "3"}),
    ("--kmax", ["gauge", "--kmax", "12"], {}),
])
def test_cli_refuses_a_bad_setting_by_name(capsys, monkeypatch, setting, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert setting in captured.err
    assert captured.out == ""


def test_cli_names_a_bad_config_file_line(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    for line, setting in (("order = ten", "order"), ("b = 2:1/0", "b_coeffs")):
        path.write_text(f"# first line\n{line}\n")
        assert cli.main(["normalize", "x1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err and setting in err


def test_cli_error_exit_code(capsys):
    code = cli.main(["normalize", "x1*(("])
    assert code == 2


def test_cli_names_a_zero_denominator(capsys):
    assert cli.main(["normalize", "1/0*x1"]) == 2
    captured = capsys.readouterr()
    assert "zero denominator in '1/0' (column 1)" in captured.err
    assert captured.out == ""


def test_cli_mixed_alphabet_error(capsys):
    code = cli.main(["normalize", "x1*xi1"])
    assert code == 2


def test_cli_xi_expression(capsys):
    code, out = run_cli(capsys, "commutator", "xi1", "xi2")
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
