"""Cantor function evaluation and a quadrature oracle for the moments.

The Cantor function C is evaluated through exact ternary digit
extraction: the input is taken as an exact rational (every float is
one), so digit extraction involves no floating-point rounding at all.
The value is accumulated in a float, so |error| <= 2**-53: C(x) < 1 and
the accumulator keeps 53 significant bits, so what it rounds or drops
past them (the truncation after 64 digits included) is at most one unit
of the 53rd bit.  The caller adds whatever error it accepted when
representing the input in binary.

``integral_quadrature`` ties the exact moment machinery to its
integral origin: a midpoint rule for integral_0^1 C(x)**n dx, for
several n on one grid.  C is Hoelder continuous with exponent
log 2 / log 3 ~ 0.6309, so the deterministic midpoint error at 10**6
cells is ~10**-3.8 — no RNG, no seeds, reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Ternary digits examined per evaluation.  The truncation after them is at
# most 2**-64, below the float accumulator's own error of up to 2**-53 (it
# keeps 53 significant bits of C(x) < 1).
_DEPTH = 64

# The identity checks run at x = i / _GRID, i = 0.._GRID.
_GRID = 10**4


def cantor_value(x) -> float:
    """Cantor function C(x) for x in [0, 1], to within 2**-53.

    Accepts floats, Fractions, and ints (anything with
    ``as_integer_ratio``); the input rational is processed exactly.
    Ternary digits accumulate as binary ones (digit/2) until the first
    digit 1, which contributes 2**-position and ends the expansion —
    exactly the standard construction.  The float accumulator keeps 53
    significant bits of C(x) < 1, so the error is at most 2**-53
    (1365 * 2**-64 at x = 11/12), and zero when the expansion ends within
    53 digits.

    Raises:
        ValueError: if x is outside [0, 1] or is NaN.
    """
    if not 0 <= x <= 1:
        raise ValueError("input outside [0, 1]")
    num, den = x.as_integer_ratio()
    if num == den:
        return 1.0
    value = 0.0
    scale = 0.5
    for _ in range(_DEPTH):
        num *= 3
        digit, num = divmod(num, den)
        if digit == 1:
            value += scale
            break
        if digit == 2:
            value += scale
        scale *= 0.5
        if num == 0:
            break
    return value


def _grid_values(points: int) -> np.ndarray:
    """C at the midpoints (2i+1)/(2*points), i = 0..points-1, vectorized.

    The common denominator 2*points and all numerators stay below
    3 * 2 * points, safely inside int64 for the supported grid sizes, so
    the digit extraction is exact integer arithmetic throughout.
    """
    if points > 10**8:
        raise ValueError("grid too large")
    den = 2 * points
    num = np.arange(1, den, 2, dtype=np.int64)
    values = np.zeros(points, dtype=np.float64)
    # Only the points whose expansion is still running are carried on:
    # idx[i] is the grid index of the i-th of them, num[i] its remainder.
    idx = np.arange(points)
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


def integral_quadrature(orders: tuple[int, ...], points: int) -> tuple[float, ...]:
    """Midpoint-rule estimates of integral_0^1 C(x)**n dx, one per n in orders.

    All orders share one grid of ``points`` cells.  Error budget: the
    Hoelder modulus gives ~n * points**-0.6309 for the n-th power;
    10**6 points keeps n <= 5 within 10**-3.

    Raises:
        ValueError: if an order is below 1 or points < 10**4.
    """
    if not all(n >= 1 for n in orders):
        raise ValueError("moment order must be positive")
    if points < 10**4:
        raise ValueError("need at least 10**4 points")
    values = _grid_values(points)
    # One power at a time: a (len(orders), points) array would hold every
    # power at once.
    return tuple(float(np.mean(values**n)) for n in orders)


def self_similarity_residuals():
    """Max residuals of the defining identities over a uniform grid.

    Returns (monotone_ok, symmetry_max, self_similar_max) where the
    residuals test C(x) + C(1-x) = 1 and C(x/3) = C(x)/2 at the exact
    rational grid points x = i/10**4.
    """
    xs = [Fraction(i, _GRID) for i in range(_GRID + 1)]
    vals = [cantor_value(x) for x in xs]
    monotone_ok = all(b >= a for a, b in zip(vals, vals[1:]))
    symmetry_max = max(
        abs(v + cantor_value(1 - x) - 1.0) for x, v in zip(xs, vals)
    )
    self_similar_max = max(
        abs(cantor_value(x / 3) - v / 2.0) for x, v in zip(xs, vals)
    )
    return monotone_ok, symmetry_max, self_similar_max
