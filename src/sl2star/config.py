"""Run configuration and the parsers of the command-line flags that set it.

The free parameters the construction leaves open live here: the even
A-series on the x2-x3 relation (constant term 4), the raw b-coefficients of
the x1-line model (the default 1/4 is an arbitrary nonzero placeholder, not
a derived value), the gauge bound, and the seed of the random checks.  The
checks' sizes and pass bounds are fixed in the check code, not settings.
Every value comes from a command-line flag.  The parsers below are argparse
``type=`` functions that refuse a bad value with ``ArgumentTypeError``, so
argparse names the flag.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple

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


def parse_a_coeffs(text: str) -> Tuple[Fraction, ...]:
    """Comma list of even-degree coefficients: "4,0,1/3" -> A = 4 + eps^4/3.
    An empty entry is refused, not skipped: "4,,1" must not read as "4,1"."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ArgumentTypeError(
            f"empty entry in {text!r}; write 0 for a zero coefficient")
    coeffs = tuple(parse_fraction(part) for part in parts)
    if coeffs[0] == 0:
        raise ArgumentTypeError(
            f"must start with a nonzero constant, got {text!r}")
    return coeffs


def parse_b_coeffs(text: str) -> Dict[int, Fraction]:
    """Comma list of "k:p/q" pairs for the raw x1-line model."""
    out: Dict[int, Fraction] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
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
    a_coeffs: Tuple[Fraction, ...] = (Fraction(4),)
    b_coeffs: Mapping[int, Fraction] = field(
        default_factory=lambda: {2: Fraction(1, 4)})
    gauge_nmax: int = 12
    seed: int = 0
