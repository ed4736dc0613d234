"""Unit tests for the Cantor-function module."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_moments import bernoulli_moments
from cantor_moments.cantor import (
    _grid_values,
    cantor_value,
    integral_quadrature,
    self_similarity_residuals,
)


def test_endpoints():
    assert cantor_value(0.0) == 0.0
    assert cantor_value(1.0) == 1.0
    assert cantor_value(0) == 0.0
    assert cantor_value(1) == 1.0


def test_middle_third_plateau():
    # C = 1/2 on [1/3, 2/3]; Fraction inputs are processed exactly
    assert cantor_value(Fraction(1, 3)) == 0.5
    assert cantor_value(Fraction(1, 2)) == 0.5
    assert cantor_value(Fraction(2, 3)) == 0.5
    # float(1/3) is merely close to 1/3; the value is within depth error
    assert abs(cantor_value(1 / 3) - 0.5) <= 1e-9


def test_known_values():
    # 1/4 = 0.020202...(3) -> 0.0101...(2) = 1/3
    assert abs(cantor_value(0.25) - 1 / 3) <= 2.0**-64 * 4
    assert abs(cantor_value(0.75) - 2 / 3) <= 2.0**-64 * 4
    # dyadic ternary rationals are exact: C(1/9) = 1/4, C(7/9) = 3/4
    assert cantor_value(Fraction(1, 9)) == 0.25
    assert cantor_value(Fraction(7, 9)) == 0.75


def test_self_similar_identities_exact():
    # C(x/3) = C(x)/2 and C(2/3 + x/3) = 1/2 + C(x)/2 at exact points
    for num in range(0, 28):
        x = Fraction(num, 27)
        assert cantor_value(x / 3) == cantor_value(x) / 2
        assert cantor_value(Fraction(2, 3) + x / 3) == 0.5 + cantor_value(x) / 2


def test_domain_errors():
    for x in (-0.1, 1.1, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="input outside"):
            cantor_value(x)


def test_grid_matches_scalar_evaluation():
    points = 257
    grid = _grid_values(points)
    for i in (0, 1, 100, 256):
        x = Fraction(2 * i + 1, 2 * points)
        assert grid[i] == cantor_value(x)


def test_grid_properties():
    mono, sym, selfsim = self_similarity_residuals()
    assert mono
    assert sym <= 2 * 2.0**-64
    assert selfsim <= 2 * 2.0**-64


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


# Rationals in [0, 1]; a denominator 4k gives expansions such as 1/4 =
# 0.0202...(3), which never reach a digit 1 and run to the full depth.
_RATIONALS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
    st.integers(1, 2500).flatmap(
        lambda k: st.integers(0, 4 * k).map(lambda j: Fraction(j, 4 * k))
    ),
)
_ULP = Fraction(1, 2**53)


def test_cantor_exact_reference():
    assert _cantor_exact(Fraction(1, 4)) == Fraction(1, 3)
    assert _cantor_exact(Fraction(1, 3)) == Fraction(1, 2)
    assert _cantor_exact(Fraction(7, 9)) == Fraction(3, 4)
    assert _cantor_exact(Fraction(0)) == 0


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_value_within_2_pow_53(x):
    assert abs(Fraction(cantor_value(x)) - _cantor_exact(x)) <= _ULP


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_identities_at_random_rationals(x):
    # Each side is within 2**-53 of the exact value, so each residual,
    # taken in exact arithmetic, is within 2 * 2**-53.
    def c(y):
        return Fraction(cantor_value(y))

    assert abs(c(x) + c(1 - x) - 1) <= 2 * _ULP
    assert abs(c(x / 3) - c(x) / 2) <= 2 * _ULP
    assert abs(c(Fraction(2, 3) + x / 3) - (Fraction(1, 2) + c(x) / 2)) <= 2 * _ULP


def test_grid_monotone_large():
    grid = _grid_values(10**5)
    assert np.all(np.diff(grid) >= 0)


def test_integral_examples():
    table = bernoulli_moments(5)
    estimates = integral_quadrature((1, 2, 5), 10**6)
    for n, estimate in zip((1, 2, 5), estimates):
        assert abs(estimate - float(table[n])) <= 5e-3


def test_integral_converges_with_points():
    exact = float(bernoulli_moments(2)[2])
    coarse = abs(integral_quadrature((2,), 10**4)[0] - exact)
    fine = abs(integral_quadrature((2,), 10**6)[0] - exact)
    assert fine <= coarse


def test_integral_preconditions():
    with pytest.raises(ValueError):
        integral_quadrature((1, 0), 10**6)
    with pytest.raises(ValueError):
        integral_quadrature((1,), 10**3)
