"""Unit tests for the Cantor-function module."""

from __future__ import annotations

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_moments import bernoulli_moments
from cantor_moments.cantor import (
    _power_sums,
    _runs,
    integral_quadrature,
    self_similarity_residuals,
)

_ONE = 2**64  # the evaluator's values are integers over 2**64


def _grid(start: int, step: int, den: int, count: int) -> list[int]:
    """The evaluator's values on a grid, one per point."""
    return [value for points, value in _runs(start, step, den, count) for _ in range(points)]


def _c(x) -> Fraction:
    """C(x) from the library's evaluator, on a one-point grid."""
    num, den = x.as_integer_ratio()
    (value,) = _grid(num, den, den, 1)
    return Fraction(value, _ONE)


def test_endpoints():
    assert _c(0.0) == 0
    assert _c(1.0) == 1
    assert _c(0) == 0
    assert _c(1) == 1


def test_middle_third_plateau():
    # C = 1/2 on [1/3, 2/3]; Fraction inputs are processed exactly
    assert _c(Fraction(1, 3)) == Fraction(1, 2)
    assert _c(Fraction(1, 2)) == Fraction(1, 2)
    assert _c(Fraction(2, 3)) == Fraction(1, 2)
    # float(1/3) is merely close to 1/3; the value is within depth error
    assert abs(_c(1 / 3) - Fraction(1, 2)) <= 1e-9


def test_known_values():
    # 1/4 = 0.020202...(3) -> 0.0101...(2) = 1/3, truncated after 64 digits
    assert 0 <= Fraction(1, 3) - _c(0.25) <= Fraction(1, _ONE)
    assert 0 <= Fraction(2, 3) - _c(0.75) <= Fraction(1, _ONE)
    # dyadic ternary rationals are exact: C(1/9) = 1/4, C(7/9) = 3/4
    assert _c(Fraction(1, 9)) == Fraction(1, 4)
    assert _c(Fraction(7, 9)) == Fraction(3, 4)


def test_self_similar_identities_exact():
    # C(x/3) = C(x)/2 and C(2/3 + x/3) = 1/2 + C(x)/2 at exact points
    for num in range(0, 28):
        x = Fraction(num, 27)
        assert _c(x / 3) == _c(x) / 2
        assert _c(Fraction(2, 3) + x / 3) == Fraction(1, 2) + _c(x) / 2


def test_grid_properties():
    mono, sym, selfsim = self_similarity_residuals()
    assert mono
    assert sym <= 2 * 2.0**-64
    assert selfsim <= 2 * 2.0**-64
    # The same residuals in exact arithmetic, on the values before rounding
    # to floats: each is within 2**-64.
    vals = _grid(0, 1, 10**4, 10**4 + 1)
    thirds = _grid(0, 1, 3 * 10**4, 10**4 + 1)
    assert all(abs(v + w - _ONE) <= 1 for v, w in zip(vals, reversed(vals)))
    # |C(x/3) - C(x)/2| = |2t - v| / 2**65
    assert all(abs(2 * t - v) <= 2 for t, v in zip(thirds, vals))


def _cantor_exact(x: Fraction) -> Fraction:
    """C(x) as an exact rational, from the eventually periodic ternary digits.

    The digits are read until a digit 1 ends the expansion or a remainder
    repeats; the repeating binary block then sums as a geometric series.
    """
    num, den = x.numerator, x.denominator
    if num == den:
        return Fraction(1)
    seen = {}  # remainder -> number of digits read before it
    bits, n = 0, 0
    while num not in seen:
        seen[num] = n
        digit, num = divmod(3 * num, den)
        bits, n = 2 * bits + (digit != 0), n + 1
        if digit == 1:
            return Fraction(bits, 2**n)
    start = seen[num]
    period = n - start
    head, cycle = divmod(bits, 2**period)
    return Fraction(head, 2**start) + Fraction(cycle, 2**start * (2**period - 1))


def _truncated(x: Fraction) -> int:
    """floor(C(x) * 2**64): C to 64 ternary digits, an integer over 2**64.

    The binary digits after the 64th sum to less than 2**-64: an expansion
    that ends in a digit 1 is finite, and one of digits 0 and 2 never ends
    in repeating 2s, since num // den gives terminating expansions.
    """
    return floor(_cantor_exact(x) * _ONE)


# Rationals in [0, 1]; a denominator 4k gives expansions such as 1/4 =
# 0.0202...(3), which never reach a digit 1 and run to the full depth.
_RATIONALS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
    st.integers(1, 2500).flatmap(
        lambda k: st.integers(0, 4 * k).map(lambda j: Fraction(j, 4 * k))
    ),
)


def test_cantor_exact_reference():
    assert _cantor_exact(Fraction(1, 4)) == Fraction(1, 3)
    assert _cantor_exact(Fraction(1, 3)) == Fraction(1, 2)
    assert _cantor_exact(Fraction(7, 9)) == Fraction(3, 4)
    assert _cantor_exact(Fraction(0)) == 0
    assert _truncated(Fraction(1, 4)) == (_ONE - 1) // 3
    assert _truncated(Fraction(1)) == _ONE


def test_grid_matches_scalar_evaluation():
    # Every point of the grids the library evaluates, against the exact
    # oracle: i/10**4 (whose reversal serves as C(1 - x)), i/(3*10**4) up
    # to x = 1, and the 257-cell midpoints.
    for start, step, den, count in (
        (0, 1, 10**4, 10**4 + 1),
        (0, 1, 3 * 10**4, 3 * 10**4 + 1),
        (1, 2, 2 * 257, 257),
    ):
        values = _grid(start, step, den, count)
        assert len(values) == count
        for i, value in enumerate(values):
            assert value == _truncated(Fraction(start + step * i, den))


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_value_within_2_pow_64(x):
    assert _c(x) == Fraction(_truncated(x), _ONE)
    assert 0 <= _cantor_exact(x) - _c(x) < Fraction(1, _ONE)


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_identities_at_random_rationals(x):
    # Each side is within 2**-64 of the exact value, so each residual,
    # taken in exact arithmetic, is within 2 * 2**-64.
    bound = Fraction(2, _ONE)
    assert abs(_c(x) + _c(1 - x) - 1) <= bound
    assert abs(_c(x / 3) - _c(x) / 2) <= bound
    assert abs(_c(Fraction(2, 3) + x / 3) - (Fraction(1, 2) + _c(x) / 2)) <= bound


def _pointwise_power_sums(cells: int, top: int) -> list[int]:
    values = [_truncated(Fraction(2 * i + 1, 2 * cells)) for i in range(cells)]
    return [sum(v**n for v in values) for n in range(top + 1)]


@pytest.mark.parametrize("cells", [1, 2, 3, 9, 257, 3**7, 10**4])
def test_power_sums_match_pointwise(cells):
    assert _power_sums(cells, 5) == _pointwise_power_sums(cells, 5)


@settings(deadline=None)
@given(st.integers(1, 2000))
def test_power_sums_match_pointwise_random(cells):
    assert _power_sums(cells, 5) == _pointwise_power_sums(cells, 5)


def test_grid_monotone_large():
    grid = _grid(1, 2, 2 * 10**5, 10**5)
    assert len(grid) == 10**5
    assert all(a <= b for a, b in zip(grid, grid[1:]))


def test_integral_examples():
    table = bernoulli_moments(5)
    estimates = integral_quadrature((1, 2, 5))
    for n, estimate in zip((1, 2, 5), estimates):
        assert abs(estimate - float(table[n])) <= 5e-3
    # The correctly rounded means of the 10**6 grid's values.
    assert estimates == (0.5, 0.2999999999267885, 0.1086956520832356)


def test_integral_converges_with_points():
    exact = float(bernoulli_moments(2)[2])
    coarse = abs(_power_sums(10**4, 2)[2] / (10**4 * _ONE**2) - exact)
    fine = abs(integral_quadrature((2,))[0] - exact)
    assert fine <= coarse


def test_integral_preconditions():
    with pytest.raises(ValueError):
        integral_quadrature((1, 0))


def test_integral_integer_orders():
    # A fractional order is refused; a numpy integer is an order like any other.
    with pytest.raises(ValueError, match="moment order must be an integer"):
        integral_quadrature((2, 1.5))
    np = pytest.importorskip("numpy")
    assert integral_quadrature((np.int64(2),)) == integral_quadrature((2,))
