"""Exact Cantor-distribution moments and their certified series constant.

Library layout:

* :mod:`cantor_moments.exact` — Bernoulli numbers from tangent numbers,
  exact harmonic numbers, decimal fixed point (exact fractions on the
  10**-p grid, rounded half away from zero);
* :mod:`cantor_moments.moments` — the moment tables by two independent
  exact methods, remainder-decay fit;
* :mod:`cantor_moments.constant` — certified evaluation of the series
  constant -1/3 + (2/3) sum (2/3)**k H(2**k);
* :mod:`cantor_moments.cantor` — Cantor function values and the
  quadrature oracle for the defining integral;
* :mod:`cantor_moments.contour` — double-precision verification of the
  vertical-line integral identities;
* :mod:`cantor_moments.cli` — the ``cantor-moments`` command.
"""

import importlib

from .constant import (
    ConstantResult,
    double_sum_check,
    euler_gamma,
    ln2,
    ln2_alt,
    moment_series_constant,
    weighted_harmonic_sum_exact,
)
from .exact import bernoulli_numbers, harmonic_exact
from .moments import DecayFit, bernoulli_moments, decay_fit, recursive_moments

__version__ = "0.1.0"

# The numpy-backed modules load on first use of one of their names (PEP 562),
# so the exact and certified paths never import numpy.
_LAZY = {
    "cantor": (
        "cantor_value",
        "integral_quadrature",
        "self_similarity_residuals",
    ),
    "contour": (
        "QuadratureError",
        "QuadratureSpec",
        "perron_kernel",
        "zeta_contours",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "ConstantResult",
    "DecayFit",
    "QuadratureError",
    "QuadratureSpec",
    "bernoulli_moments",
    "bernoulli_numbers",
    "cantor_value",
    "decay_fit",
    "double_sum_check",
    "euler_gamma",
    "harmonic_exact",
    "integral_quadrature",
    "self_similarity_residuals",
    "ln2",
    "ln2_alt",
    "moment_series_constant",
    "perron_kernel",
    "recursive_moments",
    "weighted_harmonic_sum_exact",
    "zeta_contours",
]
