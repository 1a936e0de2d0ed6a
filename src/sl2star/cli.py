"""Command-line interface.

Subcommands: normalize, coproduct, check, gauge.  A product or commutator
is an expression: ``normalize "(a)*(b) - (b)*(a)"``.  Every verification
suite runs through ``check <suite>``.  Settings come only from flags, and
each subcommand takes exactly the flags it reads.  The exit code is 0
exactly when every requested check passed; a bad flag value, a set
``SL2STAR_*`` variable, an unparsable expression or a command line that
argparse refuses gives 2, with a message that names the culprit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional

from . import checks as checks_mod
from . import coalg, gauge
from .config import Config, int_at_least, parse_b_coeffs
from .expr import choose_alphabet, evaluate, parse
from .ncalg import x_algebra
from .uhsl2 import xi_algebra

#: settings come only from flags; a set variable with this prefix is refused
#: by name, so a stale one cannot change what a run did unseen
ENV_PREFIX = "SL2STAR_"


def _add_order_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int_at_least(1),
                        help="series truncation order of both algebras "
                             "(default 8)")


def _config_from(args: argparse.Namespace) -> Config:
    """The Config of the flags given; a flag left out keeps its default."""
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config)
                     if getattr(args, f.name, None) is not None})


def _emit(payload, args: argparse.Namespace, text_fn) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        text_fn()


def cmd_expression(args) -> int:
    """``args.op`` (the normal form itself, or its coproduct) of ``args.expr``."""
    config = _config_from(args)
    ast = parse(args.expr)
    if choose_alphabet(ast) == "xi":
        system = xi_algebra(config.order)
    else:
        system = x_algebra(config.order)
    result = args.op(evaluate(ast, system))
    _emit(result.to_json(), args, lambda: print(result))
    return 0


def _print_checks(report: dict) -> None:
    for suite in report["suites"]:
        print(f"suite {suite['suite']}:")
        for c in suite["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            line = f"  {status}  {c['name']}"
            if c.get("detail") and c["detail"] != "exact":
                line += f"  [{c['detail']}]"
            if c.get("note"):
                line += f"  ({c['note']})"
            print(line)
    print("all passed" if report["passed"] else "FAILURES present")


def cmd_check(args) -> int:
    config = _config_from(args)
    report = checks_mod.run_suite(args.suite, config)
    _emit(report, args, lambda: _print_checks(report))
    return 0 if report["passed"] else 1


def cmd_gauge(args) -> int:
    model = gauge.RawX1Model(args.b_coeffs)
    solution = gauge.solve_gauge(model, args.nmax)
    verdict = gauge.verify_gauge(model, solution)
    payload = {
        "b": {str(k): str(v) for k, v in sorted(model.b.items())},
        "a": {str(k): str(v) for k, v in sorted(solution.a.items())},
        "nmax": args.nmax,
        "verified": verdict,
    }
    def text():
        for k, v in sorted(solution.a.items()):
            print(f"a_{k} = {v}")
        print(f"verified against c^n_k for n <= {gauge.TABLE_NMAX}: {verdict}")
    _emit(payload, args, text)
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2star",
        description="normal-ordering star products and bialgebra checks for "
                    "the quantized dual of sl(2,R)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, op, what in (
            ("normalize", lambda result: result, "normal form"),
            ("coproduct", coalg.coproduct, "deformed coproduct")):
        p = sub.add_parser(name, help=f"{what} of an expression")
        p.add_argument("expr")
        _add_order_flag(p)
        p.set_defaults(fn=cmd_expression, op=op)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(checks_mod.SUITES) + ["all"])
    _add_order_flag(p)
    p.add_argument("--seed", type=int_at_least(0),
                   help="moves every random draw of the checks (default 0)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gauge", help="solve and verify the gauge recursion")
    p.add_argument("--b", dest="b_coeffs", type=parse_b_coeffs,
                   default="2:1/4", metavar="k:p/q,...",
                   help="raw even b coefficients (default 2:1/4)")
    p.add_argument("--nmax", type=int_at_least(1), default=12, metavar="N",
                   help="solve for and print a_k up to the even k >= N "
                        "(default 12); the gauge holds for every n")
    p.set_defaults(fn=cmd_gauge)

    for p in sub.choices.values():
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
    return parser


def main(argv: Optional[list] = None) -> int:
    leftover = sorted(name for name in os.environ
                      if name.startswith(ENV_PREFIX))
    if leftover:
        print(f"error: {', '.join(leftover)}: settings come only from "
              f"command-line flags; unset the environment variable",
              file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage or help
        return exc.code
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
