"""Command-line interface.

Subcommands: normalize, product, commutator, coproduct, check, gauge,
poisson verify, uh verify-z|verify-xi|limits.  Global flags (order,
A-series, seed, tolerance, output format) may also come from a config file
(--config) or SL2STAR_* environment variables; explicit flags win.  The
exit code is 0 exactly when every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import checks as checks_mod
from . import coalg, gauge, uhsl2
from .config import Config, load_config, parse_a_coeffs, parse_b_coeffs
from .expr import choose_alphabet, evaluate, parse
from .ncalg import x_algebra
from .uhsl2 import xi_algebra


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, default=None,
                        help="series truncation order of both algebras "
                             "(default 8)")
    parser.add_argument("--A", dest="a_coeffs", type=parse_a_coeffs,
                        default=None, metavar="c0,c2,...",
                        help="even coefficients of the free A-series")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--config", dest="config_path", default=None,
                        help="flat key=value configuration file")


def _config_from(args: argparse.Namespace) -> Config:
    keys = ("order", "a_coeffs", "fmt", "seed", "tol", "samples",
            "b_coeffs", "gauge_nmax")
    overrides = {k: getattr(args, k, None) for k in keys}
    return load_config(getattr(args, "config_path", None), overrides)


def _system_for(text: str, config: Config):
    ast = parse(text)
    if choose_alphabet(ast) == "xi":
        return ast, xi_algebra(config.order)
    return ast, x_algebra(config.order, config.a_coeffs)


def _emit(payload, config: Config, text_fn) -> None:
    if config.fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        text_fn()


def cmd_normalize(args) -> int:
    config = _config_from(args)
    ast, system = _system_for(args.expr, config)
    result = evaluate(ast, system)
    _emit(result.to_json(), config, lambda: print(result))
    return 0


def cmd_product(args) -> int:
    config = _config_from(args)
    ast1, system = _system_for(f"({args.expr1})*({args.expr2})", config)
    result = evaluate(ast1, system)
    _emit(result.to_json(), config, lambda: print(result))
    return 0


def cmd_commutator(args) -> int:
    config = _config_from(args)
    combined = f"({args.expr1})*({args.expr2}) - ({args.expr2})*({args.expr1})"
    ast, system = _system_for(combined, config)
    result = evaluate(ast, system)
    _emit(result.to_json(), config, lambda: print(result))
    return 0


def cmd_coproduct(args) -> int:
    config = _config_from(args)
    ast, system = _system_for(args.expr, config)
    result = coalg.coproduct(evaluate(ast, system))
    _emit(result.to_json(), config, lambda: print(result))
    return 0


def _print_checks(report: dict) -> None:
    for suite in report["suites"]:
        print(f"suite {suite['suite']}:")
        for c in suite["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            line = f"  {status}  {c['name']}"
            if c.get("detail") and c["detail"] != "exact":
                line += f"  [{c['detail']}]"
            print(line)
    print("all passed" if report["passed"] else "FAILURES present")


def cmd_check(args) -> int:
    config = _config_from(args)
    report = checks_mod.run_suite(args.suite, config)
    _emit(report, config, lambda: _print_checks(report))
    return 0 if report["passed"] else 1


def cmd_gauge(args) -> int:
    config = _config_from(args)
    nmax = config.gauge_nmax
    model = gauge.RawX1Model(dict(config.b_coeffs))
    solution = gauge.solve_gauge(model, nmax + nmax % 2)
    verdict = gauge.verify_gauge(model, solution, nmax)
    payload = {
        "b": {str(k): str(v) for k, v in sorted(model.b.items())},
        "a": {str(k): str(v) for k, v in sorted(solution.a.items())},
        "nmax": nmax,
        "verified": verdict,
    }
    def text():
        for k, v in sorted(solution.a.items()):
            print(f"a_{k} = {v}")
        print(f"verified up to n = {nmax}: {verdict}")
    _emit(payload, config, text)
    return 0 if verdict else 1


def cmd_poisson(args) -> int:
    from . import poisson  # numpy and scipy stay off the exact commands

    config = _config_from(args)
    lemma = poisson.verify_integration_lemma(
        samples=config.samples, tol=config.tol, seed=config.seed)
    mult = poisson.verify_multiplicativity(pairs=config.samples,
                                           seed=config.seed + 1)
    jac = poisson.verify_jacobi(points=20, tol=config.tol, seed=config.seed + 2)
    passed = lemma["passed"] and mult["passed"] and jac["passed"]
    payload = {"integration_lemma": lemma, "multiplicativity": mult,
               "jacobi": jac, "passed": passed}

    def text():
        print(f"fitted kappa: {lemma['kappa']:.12g} "
              f"(spread {lemma['kappa_spread']:.3e})")
        print(f"bivector residual: {lemma['max_residual']:.3e} "
              f"(tol {lemma['tolerance']:g}) -> "
              f"{'PASS' if lemma['passed'] else 'FAIL'}")
        print(f"multiplicativity residual: {mult['max_residual']:.3e} -> "
              f"{'PASS' if mult['passed'] else 'FAIL'}")
        print(f"jacobi residual: {jac['max_residual']:.3e} -> "
              f"{'PASS' if jac['passed'] else 'FAIL'}")
    _emit(payload, config, text)
    return 0 if passed else 1


def _print_report(checks) -> None:
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status}  {c.name}"
        if c.note:
            line += f"  ({c.note})"
        print(line)


def cmd_uh(args) -> int:
    config = _config_from(args)
    if args.mode == "verify-z":
        z_sys = x_algebra(config.order, config.a_coeffs)
        checks = uhsl2.z_commutators(z_sys) + uhsl2.z_coproducts(z_sys)
    elif args.mode == "verify-xi":
        checks = uhsl2.xi_relation_checks(xi_algebra(config.order))
    else:
        checks = uhsl2.limits_report(xi_algebra(config.order))
        checks += uhsl2.specialization_report(config.order)
    payload = {"mode": args.mode, "checks": [c.to_json() for c in checks],
               "passed": uhsl2.report_passed(checks)}
    _emit(payload, config, lambda: _print_report(checks))
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2star",
        description="normal-ordering star products and bialgebra checks for "
                    "the quantized dual of sl(2,R)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("product", help="star product of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    _add_common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("commutator", help="star commutator of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    _add_common(p)
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("coproduct", help="deformed coproduct of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(checks_mod.SUITES) + ["all"])
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gauge", help="solve and verify the gauge recursion")
    p.add_argument("--b", dest="b_coeffs", type=parse_b_coeffs, default=None,
                   metavar="k:p/q,...", help="raw even b coefficients")
    p.add_argument("--nmax", dest="gauge_nmax", type=int, default=None,
                   help="solve for a_k up to the even k >= nmax and verify "
                        "the solution up to n = nmax")
    _add_common(p)
    p.set_defaults(fn=cmd_gauge)

    p = sub.add_parser("poisson", help="numeric Poisson-Lie checks")
    psub = p.add_subparsers(dest="mode", required=True)
    pv = psub.add_parser("verify", help="integration lemma, multiplicativity, "
                                        "Jacobi")
    _add_common(pv)
    pv.set_defaults(fn=cmd_poisson)

    p = sub.add_parser("uh", help="enveloping-algebra change of variables")
    usub = p.add_subparsers(dest="mode", required=True)
    for mode, desc in (("verify-z", "z-generator relations and coproducts"),
                       ("verify-xi", "two-parameter relations"),
                       ("limits", "h->0 / eps->0 limits and h=2eps "
                                  "specialization")):
        pu = usub.add_parser(mode, help=desc)
        _add_common(pu)
        pu.set_defaults(fn=cmd_uh, mode=mode)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
