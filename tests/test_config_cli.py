"""Configuration layering and the command-line surface."""

import json
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
    ("laurent_min", ["normalize", "x1", "--laurent-min", "1"], {}),
    ("xi_total", ["normalize", "xi1"], {"SL2STAR_XI_TOTAL": "0"}),
    ("xi_h_min", ["normalize", "xi1"], {"SL2STAR_XI_H_MIN": "1"}),
    ("gauge_kmax", ["check", "gauge"], {"SL2STAR_GAUGE_KMAX": "11"}),
    ("gauge_nmax", ["gauge", "--nmax", "0"], {}),
    ("gauge_kmax", ["gauge", "--kmax", "4"], {}),
    ("order", ["normalize", "x1"], {"SL2STAR_ORDER": "abc"}),
    ("a_coeffs", ["normalize", "x1", "--A", "0"], {}),
    ("a_coeffs", ["normalize", "x1", "--A", ","], {}),
    ("a_coeffs", ["check", "uh", "--A", "2"], {}),
])
def test_cli_refuses_a_bad_setting_by_name(capsys, monkeypatch, setting, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv) == 2
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


def test_cli_mixed_alphabet_error(capsys):
    code = cli.main(["normalize", "x1*xi1"])
    assert code == 2


def test_cli_xi_expression(capsys):
    code, out = run_cli(capsys, "commutator", "xi1", "xi2")
    assert code == 0
    assert out.strip() == "2*eps*xi2"


def test_cli_h_underflow_names_the_setting(capsys, monkeypatch):
    monkeypatch.delenv("SL2STAR_XI_H_MIN", raising=False)
    assert cli.main(["normalize", "xi3^3*xi2^3"]) == 2
    err = capsys.readouterr().err
    assert "h Laurent bound -2" in err
    assert "xi_h_min" in err and "SL2STAR_XI_H_MIN" in err
    monkeypatch.setenv("SL2STAR_XI_H_MIN", "-3")
    assert cli.main(["normalize", "xi3^3*xi2^3"]) == 0
