"""Committed command-line outputs, compared byte for byte.

``expected_outputs.txt`` holds the standard output of each command in
``COMMANDS``, each after a line ``$ sl2star <arguments>``.  A change to the
scalar arithmetic, the rewriting tables or the coproduct that moves any
value shows here as a diff.  After a change that is meant to move a value,
rewrite the file with ``PYTHONPATH=src python tests/test_expected_outputs.py``
and review the diff.

One part of the file is floating point: the spread and residual of the
numeric Poisson-Lie fit in ``check all``, which sit at round-off (1e-14)
and move with the BLAS build.  Both are masked on both sides; everything
else, that check's kappa included, is compared exactly.
"""

import contextlib
import io
import pathlib
import re
import sys

from sl2star.cli import main

EXPECTED = pathlib.Path(__file__).with_name("expected_outputs.txt")

COMMANDS = [
    ["normalize", "--format", "json", "--order", order, expr]
    for order in ("8", "16")
    for expr in ("(x1+x2+x3+e+)^5", "x3^8*x2^8*x1^8*e-^4", "(x2+x3+e-)^6")
] + [
    ["normalize", "--format", "json", "xi3^3*xi2^3*xi1^2*E+"],
    ["coproduct", "--format", "json", "x2^3*x3^3*e-"],
    ["check", "all", "--format", "json", "--seed", "0"],
    ["check", "all", "--format", "json", "--order", "1"],
]

_ROUND_OFF = re.compile(r"(spread|max_residual)=[-+.0-9e]+")


def run_commands() -> str:
    """The text of ``expected_outputs.txt``, from a fresh run of each command."""
    parts = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        assert code == 0, argv
        parts.append(f"$ sl2star {' '.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def _masked(text: str) -> str:
    return _ROUND_OFF.sub(r"\1=<round-off>", text)


def test_outputs_match_the_committed_file():
    fresh = run_commands()
    # the mask hides only the fit's two numbers, in each of the two checks
    assert len(_ROUND_OFF.findall(fresh)) == 4
    assert _masked(fresh) == _masked(EXPECTED.read_text())


if __name__ == "__main__":
    EXPECTED.write_text(run_commands())
    sys.exit(0)
