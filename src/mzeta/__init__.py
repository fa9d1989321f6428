"""Multiple Stieltjes constants and multiple zeta functions near integer points.

Library layout:

- :mod:`mzeta.exact` -- exact rational arithmetic, Bernoulli tables, weak
  compositions.
- :mod:`mzeta.scale` -- truncated Laurent series in 1/N and log N whose
  coefficients are linear in tagged transcendental constants.
- :mod:`mzeta.partial_sums` -- Euler-Maclaurin summation of scale sequences.
- :mod:`mzeta.stieltjes` -- multiple Stieltjes constants and regularised
  power series around integer points.
- :mod:`mzeta.mzv` -- numeric multiple zeta values, truncations and tails.
- :mod:`mzeta.stuffle` -- stufflings, shuffle identities and the exact
  rational-function inversion calculus.
- :mod:`mzeta.harness` -- executable verification of the identities.
- :mod:`mzeta.cli` -- command-line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .exact import bernoulli
from .scale import Coeff, ScaleSeries

__all__ = [
    "__version__",
    "bernoulli",
    "Coeff",
    "ScaleSeries",
]
