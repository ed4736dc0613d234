"""Cantor function evaluation and a quadrature oracle for the moments.

One evaluator, ``_values``, gives C on a grid of rationals num/den with
one denominator, by exact ternary digit extraction on int64 numerators:
the digits involve no floating-point rounding at all.  Every grid the
checks use is of that form: the quadrature's midpoints (2i+1)/(2*10**6),
and the identity grids i/10**4 and i/(3*10**4).

``integral_quadrature`` ties the exact moment machinery to its
integral origin: a midpoint rule for integral_0^1 C(x)**n dx, for
several n on one grid.  C is Hoelder continuous with exponent
log 2 / log 3 ~ 0.6309, so the deterministic midpoint error at 10**6
cells is ~10**-3.8 — no RNG, no seeds, reproducible.
"""

from __future__ import annotations

import numpy as np

# Ternary digits examined per evaluation.  The truncation after them is at
# most 2**-64, below the float accumulator's own error of up to 2**-53 (it
# keeps 53 significant bits of C(x) < 1).
_DEPTH = 64

# The identity checks run at x = i / _GRID, i = 0.._GRID.
_GRID = 10**4

# Cells of the quadrature's midpoint grid.
_POINTS = 10**6


def _values(num: np.ndarray, den: int) -> np.ndarray:
    """C(num[i] / den) for an int64 array 0 <= num <= den, each to 2**-53.

    ``num`` is overwritten; 3 * den must fit in int64.  Ternary digits
    accumulate as binary ones (digit/2) until the first digit 1, which
    contributes 2**-position and ends the expansion — exactly the standard
    construction.  The float accumulator keeps 53 significant bits of
    C(x) < 1, so the error is at most 2**-53 (1365 * 2**-64 at x = 11/12),
    and zero when the expansion ends within 53 digits.
    """
    values = np.zeros(len(num), dtype=np.float64)
    # C(1) = 1; its numerator is cleared so that it reads no digits.
    values[num == den] = 1.0
    num[num == den] = 0
    # Only the points whose expansion is still running are carried on:
    # idx[i] is the grid index of the i-th of them, num[i] its remainder.
    idx = np.arange(len(num))
    scale = 0.5
    for _ in range(_DEPTH):
        num *= 3
        digit = num // den
        num -= digit * den
        values[idx[digit != 0]] += scale
        running = (digit != 1) & (num != 0)
        idx = idx[running]
        num = num[running]
        scale *= 0.5
        if not len(idx):
            break
    return values


def integral_quadrature(orders: tuple[int, ...]) -> tuple[float, ...]:
    """Midpoint-rule estimates of integral_0^1 C(x)**n dx, one per n in orders.

    All orders share one grid of 10**6 cells.  Error budget: the Hoelder
    modulus gives ~n * N**-0.6309 for the n-th power on N cells, which
    keeps n <= 5 within 10**-3 at N = 10**6.

    Raises:
        ValueError: if an order is below 1.
    """
    if not all(n >= 1 for n in orders):
        raise ValueError("moment order must be positive")
    den = 2 * _POINTS
    values = _values(np.arange(1, den, 2, dtype=np.int64), den)
    # One power at a time: a (len(orders), points) array would hold every
    # power at once.
    return tuple(float(np.mean(values**n)) for n in orders)


def self_similarity_residuals():
    """Max residuals of the defining identities over a uniform grid.

    Returns (monotone_ok, symmetry_max, self_similar_max) where the
    residuals test C(x) + C(1-x) = 1 and C(x/3) = C(x)/2 at the exact
    rational grid points x = i/10**4.
    """
    vals = _values(np.arange(_GRID + 1, dtype=np.int64), _GRID)
    # x/3 = i / (3 * 10**4); and 1 - x is the grid reversed.
    thirds = _values(np.arange(_GRID + 1, dtype=np.int64), 3 * _GRID)
    monotone_ok = bool(np.all(vals[1:] >= vals[:-1]))
    symmetry_max = float(np.max(np.abs(vals + vals[::-1] - 1.0)))
    self_similar_max = float(np.max(np.abs(thirds - vals / 2.0)))
    return monotone_ok, symmetry_max, self_similar_max
