"""Unit tests for the moment computations and the decay fit."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cantor_moments import (
    decay_fit,
    default_budget,
    moment_bernoulli,
    moment_recursive,
    moment_series_constant,
    partial_sum,
)
from cantor_moments import moments
from cantor_moments.moments import clear_memos, log_moments


KNOWN = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(3, 10),
    3: Fraction(1, 5),
    4: Fraction(33, 230),
    5: Fraction(5, 46),
}


@pytest.mark.parametrize("n", sorted(KNOWN))
def test_known_values_both_methods(n):
    assert moment_bernoulli(n) == KNOWN[n]
    assert moment_recursive(n) == KNOWN[n]


def test_methods_agree_exactly_to_64():
    clear_memos()
    for n in range(65):
        assert moment_bernoulli(n) == moment_recursive(n)


def test_recursive_memo_threadsafe(race):
    # Four threads grow a cold recursion table at once; a check-then-append
    # memo appended duplicate and misplaced entries here.
    clear_memos()
    expected = [moment_recursive(n) for n in range(121)]
    clear_memos()
    assert race(lambda: moment_recursive(120)) == [expected[120]] * 4
    assert moments._MEMO_RECURSIVE == expected


def test_positivity_and_monotonicity():
    values = [moment_bernoulli(n) for n in range(65)]
    assert all(0 < v <= 1 for v in values)
    # strictly decreasing from n = 1 onward
    assert all(values[n + 1] < values[n] for n in range(1, 64))


def test_moments_in_unit_interval_to_512():
    values = [moment_bernoulli(n) for n in range(513)]
    assert all(0 < v <= 1 for v in values)
    assert all(values[n + 1] < values[n] for n in range(1, 512))


def test_partial_sum_examples():
    assert partial_sum(0) == 1
    assert partial_sum(1) == Fraction(3, 2)
    assert partial_sum(3) == 2  # 1 + 1/2 + 3/10 + 1/5 exactly


def test_partial_sum_strictly_increasing_to_512():
    # Incremental: partial_sum(n) - partial_sum(n-1) = M_n > 0, so the
    # running sum is strictly increasing; spot-check partial_sum itself
    # at every power of two.
    checkpoints = {2**j for j in range(10)} | {512}
    running = moment_bernoulli(0)
    prev = running
    for n in range(1, 513):
        running += moment_bernoulli(n)
        assert running > prev
        if n in checkpoints:
            assert partial_sum(n) == running
        prev = running


def test_partial_sums_below_constant():
    result = moment_series_constant(default_budget(30))
    limit = result.value.to_fraction() - Fraction(result.certified_error)
    for n in (1, 16, 64, 256, 512):
        assert partial_sum(n) < limit


def test_log_moments_match_exact_values():
    import math

    logs = log_moments(64)
    for n in range(65):
        exact = float(moment_bernoulli(n))
        assert abs(math.exp(logs[n]) - exact) <= 1e-7 * exact


# ---------------------------------------------------------------------------
# decay_fit
# ---------------------------------------------------------------------------

NS = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


def test_decay_fit_slope_band(constant_d30):
    fit = decay_fit(NS, constant_d30.value)
    assert -0.75 <= fit.slope <= -0.45
    assert all(r > 0 for r in fit.remainders)
    assert all(a > b for a, b in zip(fit.remainders, fit.remainders[1:]))


def test_decay_fit_preconditions(constant_d30):
    good = constant_d30.value
    with pytest.raises(ValueError, match="too few points"):
        decay_fit([16, 32], good)
    with pytest.raises(ValueError, match="strictly increasing"):
        decay_fit([16, 32, 32, 64, 128, 256], good)
    with pytest.raises(ValueError, match=">= 16"):
        decay_fit([8, 16, 32, 64, 128, 256], good)
    with pytest.raises(ValueError, match="octaves"):
        decay_fit([16, 20, 24, 28, 32], good)
    low_precision = good.rescale(10)
    with pytest.raises(ValueError, match="insufficient constant precision"):
        decay_fit(NS, low_precision)
