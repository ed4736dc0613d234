"""Exact Cantor-distribution moments and their certified series constant.

Library layout:

* :mod:`cantor_moments.exact` — Bernoulli numbers from tangent numbers,
  binary splitting of rational sums, decimal fixed point (exact fractions
  on the 10**-p grid, rounded half away from zero);
* :mod:`cantor_moments.moments` — the moment tables by two independent
  exact methods, remainder-decay fit on partial sums taken from the
  Cantor function's middle-third values;
* :mod:`cantor_moments.constant` — certified evaluation of the series
  constant -1/3 + (2/3) sum (2/3)**k H(2**k), with every exact H(2**k)
  from one prefix walk, and the double-sum identity's two forms;
* :mod:`cantor_moments.cantor` — Cantor function values by an exact
  ternary-interval walk and the quadrature oracle for the defining
  integral;
* :mod:`cantor_moments.contour` — double-precision verification of the
  vertical-line integral identities;
* :mod:`cantor_moments.cli` — the ``cantor-moments`` command.

The package root exports the exact and certified API; ``contour`` and
``cantor`` are imported by their path
(``from cantor_moments.contour import zeta_contours``).  ``contour`` is
the only numpy-backed module, so importing the package never imports
numpy.
"""

from .constant import (
    ConstantResult,
    euler_gamma,
    ln2,
    moment_series_constant,
)
from .exact import bernoulli_numbers
from .moments import DecayFit, bernoulli_moments, decay_fit, recursive_moments

__version__ = "0.1.0"

__all__ = [
    "ConstantResult",
    "DecayFit",
    "bernoulli_moments",
    "bernoulli_numbers",
    "decay_fit",
    "euler_gamma",
    "ln2",
    "moment_series_constant",
    "recursive_moments",
]
