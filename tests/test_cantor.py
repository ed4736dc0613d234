"""Unit tests for the Cantor-function module."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from cantor_moments import (
    cantor_value,
    integral_quadrature,
    moment_bernoulli,
    self_similarity_residuals,
)
from cantor_moments.cantor import _grid_values


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
    with pytest.raises(ValueError):
        cantor_value(-0.1)
    with pytest.raises(ValueError):
        cantor_value(1.1)


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


def test_grid_monotone_large():
    grid = _grid_values(10**5)
    assert np.all(np.diff(grid) >= 0)


def test_integral_examples():
    for n in (1, 2, 5):
        estimate = integral_quadrature(n, 10**6)
        assert abs(estimate - float(moment_bernoulli(n))) <= 5e-3


def test_integral_converges_with_points():
    exact = float(moment_bernoulli(2))
    coarse = abs(integral_quadrature(2, 10**4) - exact)
    fine = abs(integral_quadrature(2, 10**6) - exact)
    assert fine <= coarse


def test_integral_preconditions():
    with pytest.raises(ValueError):
        integral_quadrature(0, 10**6)
    with pytest.raises(ValueError):
        integral_quadrature(1, 10**3)
