"""Cantor function evaluation and a quadrature oracle for the moments.

One evaluator, ``_runs``, gives C on a uniform grid of rationals
(start + step*i)/den by walking ternary intervals in exact integer
arithmetic.  On [a/3**l, (a+1)/3**l], C(x) = b/2**l + C(3**l*x - a)/2**l,
so every grid point in the closed middle third takes the one value
(2b+1)/2**(l+1): two floor divisions count those points, and only the
outer thirds are walked further.  C is a step function on the removed
middle thirds, so a grid of 10**6 points takes some 23,000 intervals,
not 10**6 evaluations.  Every grid the checks use is of that form: the
quadrature's midpoints (2i+1)/(2*10**6), and the identity grids i/10**4
and i/(3*10**4).

``integral_quadrature`` ties the exact moment machinery to its
integral origin: a midpoint rule for integral_0^1 C(x)**n dx, for
several n on one grid, summed exactly and rounded once.  C is Hoelder
continuous with exponent log 2 / log 3 ~ 0.6309, so the deterministic
midpoint error at 10**6 cells is ~10**-3.8 — no RNG, no seeds,
reproducible.
"""

from __future__ import annotations

from numbers import Integral

# Ternary digits examined per point: the walk stops at intervals of
# length 3**-64, and a point still in play there gets the value of its 64
# digits, b/2**64, below C(x) by at most 2**-64.
_DEPTH = 64

# The identity checks run at x = i / _GRID, i = 0.._GRID.
_GRID = 10**4

# Cells of the quadrature's midpoint grid.
_POINTS = 10**6


def _runs(start: int, step: int, den: int, count: int) -> list[tuple[int, int]]:
    """C on the grid x_i = (start + step*i) / den, i < count, as runs.

    The grid must lie in [0, 1], and unless it is the point 1 alone, start
    below its step (x_-1 < 0); a single point num/den is the grid
    (num, den, den, 1).  Returns (points, value) pairs in increasing x,
    the points of a run being consecutive; value * 2**-64 is C(x) to 64
    ternary digits, exact when the expansion ends within them, and
    C(1) = 1 exactly.
    """
    runs = []
    # x = 1 can only be the last point; C(1) = 1 is not the limit of the
    # walk's right-hand thirds, which would give 1 - 2**-64.
    end = count - (count > 0 and start + step * (count - 1) == den)
    # At level m the grid's numerators, scaled by 3**m, are offset[m] +
    # spacing[m]*i, over den * 3**m.
    spacing = [step * 3**m for m in range(_DEPTH + 1)]
    offset = [start * 3**m for m in range(_DEPTH + 1)]
    # Pending work, last first: a finished (points, value) run, or an
    # interval [a, a+1]/3**level on which C starts at b/2**level, kept as
    # (a*den, level, b, lo, hi) with its points lo <= i < hi.
    stack: list[tuple[int, ...]] = [(0, 0, 0, 0, end)] if end else []
    while stack:
        item = stack.pop()
        if len(item) == 2:
            runs.append(item)
            continue
        left, level, b, lo, hi = item
        m = level + 1
        s = spacing[m]
        t = offset[m] - 3 * left
        # The first points at or past (3a+1)/3**m and past (3a+2)/3**m, or
        # hi.  Neither is below lo: the points before lo lie below the
        # interval, and those before i = 0 below 0, as start < step.
        i1 = -((t - den) // s)
        if i1 > hi:
            i1 = hi
        i2 = (2 * den - t) // s + 1
        if i2 > hi:
            i2 = hi
        if m == _DEPTH:
            # The 64th digit: 0 in the left third, 1 or 2 in the others.
            if i1 > lo:
                runs.append((i1 - lo, 2 * b))
            if hi > i1:
                runs.append((hi - i1, 2 * b + 1))
            continue
        if hi > i2:
            stack.append((3 * left + 2 * den, m, 2 * b + 1, i2, hi))
        if i2 > i1:
            stack.append((i2 - i1, (2 * b + 1) << (_DEPTH - m)))
        if i1 > lo:
            stack.append((3 * left, m, 2 * b, lo, i1))
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
    grid's 64-digit values.  Error budget: the Hoelder modulus gives
    ~n * N**-0.6309 for the n-th power on N cells, which keeps n <= 5
    within 10**-3 at N = 10**6.

    Raises:
        ValueError: if an order is not an integer, or is below 1.
    """
    if not all(isinstance(n, Integral) for n in orders):
        raise ValueError("moment order must be an integer")
    orders = tuple(map(int, orders))  # a numpy integer would shift as an int64
    if not all(n >= 1 for n in orders):
        raise ValueError("moment order must be positive")
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
