"""Run configuration and the parsers of the command-line flags that set it.

A run of the checks has two settings: the truncation order and the seed of
the random checks.  A is no setting, as every nonzero A gives the same
bialgebra (criterion 4), nor are the b-coefficients of the x1-line model or
a gauge bound, as the gauge holds for every b and every n (criterion 7);
the checks' sizes and pass bounds are fixed in the check code.  The
``gauge`` command reads its b from its own flag (the default 2:1/4 is an
arbitrary nonzero placeholder, not a derived value).  Every value comes from
a flag, through a parser below: an argparse ``type=`` function that refuses
a bad value with ``ArgumentTypeError``, so argparse names the flag.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict

from .gauge import RawX1Model


def int_at_least(least: int) -> Callable[[str], int]:
    """The parser of an integer flag whose value must be >= ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < least:
            raise ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise ArgumentTypeError(
            f"expected p or p/q with q nonzero, got {text.strip()!r}") from None


def parse_b_coeffs(text: str) -> Dict[int, Fraction]:
    """Comma list of "k:p/q" pairs for the raw x1-line model.  An empty
    entry is refused, not skipped: "2:1/4,,4:1/8" must not read as two
    pairs, nor "" as the zero model."""
    out: Dict[int, Fraction] = {}
    for part in (p.strip() for p in text.split(",")):
        if not part:
            raise ArgumentTypeError(
                f"empty entry in {text!r}; write k:p/q pairs, and 2:0 for "
                f"the zero model")
        key, _, value = part.partition(":")
        try:
            k, v = int(key), parse_fraction(value)
        except (ValueError, ArgumentTypeError):
            raise ArgumentTypeError(f"expected k:p/q, got {part!r}") from None
        if k in out:
            raise ArgumentTypeError(f"b_{k} is given twice in {text!r}")
        out[k] = v
    try:
        RawX1Model(out)  # the model holds the rule on the keys
    except ValueError as exc:
        raise ArgumentTypeError(str(exc)) from None
    return out


@dataclass(frozen=True)
class Config:
    order: int = 8
    seed: int = 0
