"""Unit tests for the Cantor-function module."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_moments import bernoulli_moments, cantor
from cantor_moments.cantor import (
    _values,
    integral_quadrature,
    self_similarity_residuals,
)


def _c(x) -> float:
    """C(x) from the library's evaluator, on a one-element grid."""
    num, den = x.as_integer_ratio()
    return float(_values(np.array([num], dtype=np.int64), den)[0])


def test_endpoints():
    assert _c(0.0) == 0.0
    assert _c(1.0) == 1.0
    assert _c(0) == 0.0
    assert _c(1) == 1.0


def test_middle_third_plateau():
    # C = 1/2 on [1/3, 2/3]; Fraction inputs are processed exactly
    assert _c(Fraction(1, 3)) == 0.5
    assert _c(Fraction(1, 2)) == 0.5
    assert _c(Fraction(2, 3)) == 0.5
    # float(1/3) is merely close to 1/3; the value is within depth error
    assert abs(_c(1 / 3) - 0.5) <= 1e-9


def test_known_values():
    # 1/4 = 0.020202...(3) -> 0.0101...(2) = 1/3
    assert abs(_c(0.25) - 1 / 3) <= 2.0**-64 * 4
    assert abs(_c(0.75) - 2 / 3) <= 2.0**-64 * 4
    # dyadic ternary rationals are exact: C(1/9) = 1/4, C(7/9) = 3/4
    assert _c(Fraction(1, 9)) == 0.25
    assert _c(Fraction(7, 9)) == 0.75


def test_self_similar_identities_exact():
    # C(x/3) = C(x)/2 and C(2/3 + x/3) = 1/2 + C(x)/2 at exact points
    for num in range(0, 28):
        x = Fraction(num, 27)
        assert _c(x / 3) == _c(x) / 2
        assert _c(Fraction(2, 3) + x / 3) == 0.5 + _c(x) / 2


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


def test_grid_matches_scalar_evaluation():
    # Every point of the grids the library evaluates, against the exact
    # oracle: i/10**4 (whose reversal serves as C(1 - x)), i/(3*10**4) up
    # to x = 1, and the 257-cell midpoints.
    for start, stop, step, den in (
        (0, 10**4 + 1, 1, 10**4),
        (0, 3 * 10**4 + 1, 1, 3 * 10**4),
        (1, 2 * 257, 2, 2 * 257),
    ):
        nums = range(start, stop, step)
        vals = _values(np.array(nums, dtype=np.int64), den)
        for num, v in zip(nums, vals):
            assert abs(Fraction(v) - _cantor_exact(Fraction(num, den))) <= _ULP
    mirrored = _values(np.arange(10**4 + 1, dtype=np.int64), 10**4)[::-1]
    for i, v in enumerate(mirrored):
        assert abs(Fraction(v) - _cantor_exact(1 - Fraction(i, 10**4))) <= _ULP


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_value_within_2_pow_53(x):
    assert abs(Fraction(_c(x)) - _cantor_exact(x)) <= _ULP


@settings(deadline=None)
@given(_RATIONALS)
def test_cantor_identities_at_random_rationals(x):
    # Each side is within 2**-53 of the exact value, so each residual,
    # taken in exact arithmetic, is within 2 * 2**-53.
    def c(y):
        return Fraction(_c(y))

    assert abs(c(x) + c(1 - x) - 1) <= 2 * _ULP
    assert abs(c(x / 3) - c(x) / 2) <= 2 * _ULP
    assert abs(c(Fraction(2, 3) + x / 3) - (Fraction(1, 2) + c(x) / 2)) <= 2 * _ULP


def test_grid_monotone_large():
    grid = _values(np.arange(1, 2 * 10**5, 2, dtype=np.int64), 2 * 10**5)
    assert np.all(np.diff(grid) >= 0)


def test_integral_examples():
    table = bernoulli_moments(5)
    estimates = integral_quadrature((1, 2, 5))
    for n, estimate in zip((1, 2, 5), estimates):
        assert abs(estimate - float(table[n])) <= 5e-3


def test_integral_converges_with_points():
    exact = float(bernoulli_moments(2)[2])
    coarse_grid = _values(np.arange(1, 2 * 10**4, 2, dtype=np.int64), 2 * 10**4)
    coarse = abs(float(np.mean(coarse_grid**2)) - exact)
    fine = abs(integral_quadrature((2,))[0] - exact)
    assert fine <= coarse


def test_integral_grid_is_evaluated_in_blocks(monkeypatch):
    # The 10**6 midpoints reach the evaluator at most one block at a time,
    # so its int64 work arrays stay small, and the means are those of the
    # grid evaluated in one piece.
    sizes = []

    def recording(num, den):
        sizes.append(len(num))
        return _values(num, den)

    monkeypatch.setattr(cantor, "_values", recording)
    estimates = integral_quadrature((1, 2, 5))
    assert max(sizes) <= cantor._BLOCK
    assert sum(sizes) == 10**6
    grid = _values(np.arange(1, 2 * 10**6, 2, dtype=np.int64), 2 * 10**6)
    assert estimates == tuple(float(np.mean(grid**n)) for n in (1, 2, 5))


def test_integral_preconditions():
    with pytest.raises(ValueError):
        integral_quadrature((1, 0))
