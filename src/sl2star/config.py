"""Run configuration: defaults, flat config files, environment, CLI flags.

Precedence (low to high): built-in defaults, config file, environment
variables with the ``SL2STAR_`` prefix, explicit CLI values.  An unknown
key is refused by name, in a config file and in an environment name alike.
The free parameters the construction leaves open live here: the even
A-series on the x2-x3 relation (constant term 4), the raw b-coefficients of
the x1-line model (the default 1/4 is an arbitrary nonzero placeholder, not
a derived value), and the numeric tolerances and seeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

ENV_PREFIX = "SL2STAR_"


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.strip().partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    return Fraction(int(num), den)


def parse_a_coeffs(text: str) -> Tuple[Fraction, ...]:
    """Comma list of even-degree coefficients: "4,0,1/3" -> A = 4 + eps^4/3."""
    return tuple(parse_fraction(part) for part in text.split(",") if part.strip())


def parse_b_coeffs(text: str) -> Dict[int, Fraction]:
    """Comma list of "k:p/q" pairs for the raw x1-line model."""
    out: Dict[int, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition(":")
        if not value:
            raise ValueError(f"expected k:p/q, got {part!r}")
        out[int(key)] = parse_fraction(value)
    return out


@dataclass(frozen=True)
class Config:
    order: int = 8
    a_coeffs: Tuple[Fraction, ...] = (Fraction(4),)
    b_coeffs: Mapping[int, Fraction] = field(
        default_factory=lambda: {2: Fraction(1, 4)})
    gauge_nmax: int = 12
    samples: int = 50
    tol: float = 1e-6
    seed: int = 0
    fmt: str = "text"

    def validate(self) -> "Config":
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.gauge_nmax < 1:
            raise ValueError("gauge_nmax must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.fmt not in ("text", "json"):
            raise ValueError("format must be text or json")
        if not self.a_coeffs or self.a_coeffs[0] == 0:
            raise ValueError("a_coeffs must start with a nonzero constant")
        return self


_PARSERS = {
    "order": int,
    "a_coeffs": parse_a_coeffs,
    "b_coeffs": parse_b_coeffs,
    "gauge_nmax": int,
    "samples": int,
    "tol": float,
    "seed": int,
    "fmt": str,
}

#: aliases accepted in config files and environment names
_ALIASES = {"a": "a_coeffs", "b": "b_coeffs", "format": "fmt"}


def _canon(key: str) -> str:
    key = key.strip().lower().replace("-", "_")
    return _ALIASES.get(key, key)


def _parse(key: str, value: str, where: str) -> object:
    """``_PARSERS[key](value)``; an error names the key, value and source."""
    try:
        return _PARSERS[key](value)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value {value!r} for {key}: {exc}") from exc


def read_config_file(path: str) -> Dict[str, object]:
    """Flat "key = value" lines; '#' starts a comment."""
    out: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = _canon(key)
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _parse(key, value.strip(), f"{path}:{lineno}")
    return out


def env_overrides(environ: Mapping[str, str] = None) -> Dict[str, object]:
    environ = os.environ if environ is None else environ
    out: Dict[str, object] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = _canon(name[len(ENV_PREFIX):])
        if key not in _PARSERS:
            raise ValueError(f"{name}: unknown key {key!r}")
        out[key] = _parse(key, value, name)
    return out


def load_config(path: Optional[str] = None,
                cli_overrides: Optional[Mapping[str, object]] = None,
                environ: Mapping[str, str] = None) -> Config:
    values: Dict[str, object] = {}
    if path:
        values.update(read_config_file(path))
    values.update(env_overrides(environ))
    if cli_overrides:
        values.update({k: v for k, v in cli_overrides.items() if v is not None})
    return Config(**values).validate()
