"""Cantor function evaluation and a quadrature oracle for the moments.

One evaluator, ``_runs``, gives C on a uniform grid of rationals
(start + step*i)/den by one in-order recursion over ternary intervals,
in exact integers.  On [a/3**l, (a+1)/3**l], C(x) = b/2**l +
C(3**l*x - a)/2**l, so every grid point in the closed middle third takes
the one value (2b+1)/2**(l+1), which two floor divisions count, and a
point alone in its interval reads its own ternary digits.  So 10**6
quadrature midpoints take some 13,000 intervals, not 10**6 evaluations.

``integral_quadrature`` ties the exact moment machinery to its
integral origin: a midpoint rule for integral_0^1 C(x)**n dx, for
several n on one grid, summed exactly and rounded once: within
1/N + n * 2**-64 of the integral on N cells, with no RNG and no seeds.
"""

from __future__ import annotations

from .exact import _as_int

# Ternary digits read per point: C(x) to 64 of them is below it by <= 2**-64.
_DEPTH = 64

# The identity checks run at x = i / _GRID, i = 0.._GRID.
_GRID = 10**4

# Cells of the quadrature's midpoint grid.
_POINTS = 10**6


def _runs(start: int, step: int, den: int, count: int) -> list[tuple[int, int]]:
    """C on the grid x_i = (start + step*i) / den, i < count, as runs.

    The grid must lie in [0, 1], and unless it is the point 1 alone, start
    below its step (x_-1 < 0); a single point num/den is the grid
    (num, den, den, 1).  Its spacing step/den must exceed 3**-63, or
    ValueError is raised.  Returns (points, value) pairs in increasing x,
    the points of a run being consecutive, from one in-order walk whose
    lone points read their own digits: value * 2**-64 is C(x) to 64
    ternary digits, exact when the expansion ends within them, and C(1) = 1.
    """
    if step * 3 ** (_DEPTH - 1) <= den:
        raise ValueError("grid spacing at or below 3**-63")
    runs = []

    def walk(base: int, spacing: int, depth: int, b: int, lo: int, hi: int) -> None:
        # Points lo <= i < hi, at (base + spacing*i)/den along an interval of
        # level depth on which C starts at b/2**depth.
        if hi - lo == 1:
            y = base + spacing * lo
            for m in range(depth + 1, _DEPTH + 1):
                digit, y = divmod(3 * y, den)
                b = 2 * b + (digit > 0)
                if digit == 1:
                    b <<= _DEPTH - m
                    break
            runs.append((1, b))
            return
        # Two points or more, so depth < 63.  The first points at or past
        # 1/3 of the interval and past 2/3, or hi; neither is below lo, as
        # the points before lo lie below the interval and start < step.
        base, spacing = 3 * base, 3 * spacing
        i1 = -((base - den) // spacing)
        i2 = (2 * den - base) // spacing + 1
        if i2 > hi:
            i1, i2 = min(i1, hi), hi
        if i1 > lo:
            walk(base, spacing, depth + 1, 2 * b, lo, i1)
        if i2 > i1:
            runs.append((i2 - i1, (2 * b + 1) << (_DEPTH - depth - 1)))
        if hi > i2:
            walk(base - 2 * den, spacing, depth + 1, 2 * b + 1, i2, hi)

    # x = 1, only ever last, takes C(1) = 1, not the walk's 1 - 2**-64.
    end = count - (count > 0 and start + step * (count - 1) == den)
    if end:
        walk(start, step, 0, 0, 0, end)
    del walk  # its closure holds it, and runs, in a reference cycle
    if end < count:
        runs.append((1, 1 << _DEPTH))
    return runs


def _power_sums(cells: int, top: int) -> list[int]:
    """Exact sums of v**n, n = 0..top, over the midpoints (2i+1)/(2*cells).

    v is the grid's value of C as an integer over 2**64, so the n-th sum
    over cells * 2**(64*n) is the midpoint rule for integral C(x)**n dx.
    """
    sums = [0] * (top + 1)
    for points, value in _runs(1, 2, 2 * cells, cells):
        term = points
        sums[0] += term
        for n in range(1, top + 1):
            term *= value
            sums[n] += term
    return sums


def integral_quadrature(orders: tuple[int, ...]) -> tuple[float, ...]:
    """Midpoint-rule estimates of integral_0^1 C(x)**n dx, one per n in orders.

    All orders share one grid of 10**6 cells.  Each estimate is an exact
    integer sum divided once, so it is the correctly rounded mean of the
    grid's 64-digit values, within 1/N + n * 2**-64 of the integral on N
    cells: C**n is nondecreasing, so a cell [a, b] of width h errs by at
    most h * (C**n(b) - C**n(a)), which sum to 1/N, and a 64-digit value
    is below C(x) by at most 2**-64, its n-th power by n * 2**-64.

    Raises:
        ValueError: "moment order not an integer" or "moment order must
            be >= 1", from :func:`~cantor_moments.exact._as_int`.
    """
    orders = tuple(_as_int(n, "moment order", 1) for n in orders)
    sums = _power_sums(_POINTS, max(orders, default=0))
    return tuple(sums[n] / (_POINTS << (_DEPTH * n)) for n in orders)


def _grid_floats(den: int) -> list[float]:
    """C(i / den) for i = 0.._GRID, each correctly rounded to a float."""
    values = []
    for points, value in _runs(0, 1, den, _GRID + 1):
        values += [value / 2**_DEPTH] * points
    return values


def self_similarity_residuals():
    """Max residuals of the defining identities over a uniform grid.

    Returns (monotone_ok, symmetry_max, self_similar_max) where the
    residuals test C(x) + C(1-x) = 1 and C(x/3) = C(x)/2 at the exact
    rational grid points x = i/10**4, in float arithmetic on the grid's
    values rounded to floats.
    """
    vals = _grid_floats(_GRID)
    # x/3 = i / (3 * 10**4); and 1 - x is the grid reversed.
    thirds = _grid_floats(3 * _GRID)
    monotone_ok = all(a <= b for a, b in zip(vals, vals[1:]))
    symmetry_max = max(abs(x + y - 1.0) for x, y in zip(vals, reversed(vals)))
    self_similar_max = max(abs(t - v / 2.0) for t, v in zip(thirds, vals))
    return monotone_ok, symmetry_max, self_similar_max
