"""Star-product quantization of the dual Poisson-Lie group of sl(2,R).

Subpackages:

- :mod:`sl2star.series`: exact truncated (Laurent) series scalars.
- :mod:`sl2star.ncalg`: words, PBW normal ordering, star products.
- :mod:`sl2star.coalg`: deformed coproduct and bialgebra verifications.
- :mod:`sl2star.gauge`: gauge-operator recursions and Bernoulli series.
- :mod:`sl2star.poisson`: numeric Poisson-Lie integration checks.
- :mod:`sl2star.uhsl2`: quantum-enveloping-algebra change of variables.
- :mod:`sl2star.expr` / :mod:`sl2star.cli`: expression language and CLI.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
