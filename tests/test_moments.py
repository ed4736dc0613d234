"""Unit tests for the moment computations and the decay fit."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_moments import (
    bernoulli_moments,
    bernoulli_numbers,
    decay_fit,
    moment_series_constant,
    recursive_moments,
)
from cantor_moments import exact, moments
from cantor_moments.moments import DECAY_NS, float_moments


@pytest.fixture(scope="module")
def table_512():
    """The closed-form table M_0..M_512, built once for the tests that read it."""
    return bernoulli_moments(512)


@pytest.fixture(scope="module")
def partial_sums_512(table_512):
    """The exact partial sums sum_{n<=N} M_n for N = 0..512."""
    return list(accumulate(table_512))


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
    assert bernoulli_moments(n)[n] == KNOWN[n]
    assert recursive_moments(n)[n] == KNOWN[n]


def _direct_closed_form(n, B):
    """Test-only reference: M_n as one direct Fraction sum per n.

    M_n = (2 / (3(n+1))) * sum_{j<=n} C(n+1, j) * B_j / ((3*2**j - 2)/2)
    for n >= 1, with M_0 = 1, term by term with a gcd per addition.
    """
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n + 1):
        if B[j]:
            acc += comb(n + 1, j) * B[j] / Fraction(3 * 2**j - 2, 2)
    return Fraction(2, 3 * (n + 1)) * acc


def test_closed_form_table_matches_direct_sum(table_512):
    B = bernoulli_numbers(513)
    for n in [*range(65), 127, 128, 255, 256, 511, 512]:
        expected = _direct_closed_form(n, B)
        assert (table_512[n].numerator, table_512[n].denominator) == (
            expected.numerator,
            expected.denominator,
        ), n


def test_recursion_table_equals_closed_form_to_128():
    assert recursive_moments(128) == bernoulli_moments(128)


def test_table_512_is_in_lowest_terms(table_512):
    # The full-size gcd that the table itself no longer runs.
    for n, value in enumerate(table_512):
        assert value.denominator > 0, n
        assert gcd(value.numerator, value.denominator) == 1, n


@settings(deadline=None)
@given(st.integers(1, 96).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N))))
def test_closed_form_entry_is_reduced_for_every_table_size(N_and_n):
    # The lonely primes, and so the reduction, depend on N.
    N, n = N_and_n
    value = bernoulli_moments(N)[n]
    expected = _direct_closed_form(n, bernoulli_numbers(N + 1))
    assert value.numerator == expected.numerator
    assert value.denominator == expected.denominator
    assert gcd(value.numerator, value.denominator) == 1


def test_shared_parts_meet_the_lonely_prime_lemma():
    # 7 is shared by d_1 = 7**2 * 5 and d_2 = 7, so all of 7**2 stays in v_1;
    # 5 > N + 2 = 3 divides d_1 alone, so it is lonely.
    assert moments._shared_parts([1, 7**2 * 5, 7], 1) == [1, 7**2, 7]
    N = 512
    d = [
        (2 * b / (3 * 2**j - 2)).denominator
        for j, b in enumerate(bernoulli_numbers(N + 1))
    ]
    v = moments._shared_parts(d, N)
    assert all(dj % vj == 0 for dj, vj in zip(d, v))
    u = [dj // vj for dj, vj in zip(d, v)]
    U = prod(u)
    shared = prod(v) * factorial(N + 2)
    assert any(uj > 1 for uj in u)
    for uj in u:
        assert gcd(uj, U // uj) == 1  # pairwise coprime
        assert gcd(uj, shared) == 1  # coprime to every v_k and to (N+2)!


def test_tables_are_pure():
    # Interleaved calls with different N agree on their common prefix.
    for table in (bernoulli_moments, recursive_moments, bernoulli_numbers):
        long = table(40)
        short = table(17)
        assert table(40) == long
        assert short == long[:18]
    assert list(moments.iter_bernoulli_moments(40)) == bernoulli_moments(40)
    # No module-level container of results (a memo) in the exact modules.
    for module in (exact, moments):
        held = [
            name
            for name, value in vars(module).items()
            if not name.startswith("__")
            and isinstance(value, (list, dict, set))
        ]
        assert held == [], (module.__name__, held)


def test_table_domain_errors():
    for fn in (bernoulli_moments, recursive_moments):
        with pytest.raises(ValueError, match="moment index"):
            fn(-1)


def test_positivity_and_monotonicity():
    values = bernoulli_moments(64)
    assert all(0 < v <= 1 for v in values)
    # strictly decreasing from n = 1 onward
    assert all(values[n + 1] < values[n] for n in range(1, 64))


def test_moments_in_unit_interval_to_512(table_512):
    values = table_512
    assert all(0 < v <= 1 for v in values)
    assert all(values[n + 1] < values[n] for n in range(1, 512))


def test_partial_sum_examples():
    assert sum(bernoulli_moments(0)) == 1
    assert sum(bernoulli_moments(1)) == Fraction(3, 2)
    assert sum(bernoulli_moments(3)) == 2  # 1 + 1/2 + 3/10 + 1/5 exactly


def test_partial_sum_strictly_increasing_to_512(partial_sums_512):
    # Each step adds M_n > 0.
    assert len(partial_sums_512) == 513
    assert all(b > a for a, b in zip(partial_sums_512, partial_sums_512[1:]))


def test_partial_sums_below_constant(constant_d30, partial_sums_512):
    limit = constant_d30.value - Fraction(constant_d30.certified_error)
    for n in (1, 16, 64, 256, 512):
        assert partial_sums_512[n] < limit


def test_float_moments_match_exact_values(table_512):
    floats = float_moments(256)
    for n, value in enumerate(table_512[:257]):
        expected = float(value)
        assert abs(floats[n] - expected) <= 1e-12 * expected


# ---------------------------------------------------------------------------
# decay_fit
# ---------------------------------------------------------------------------

def test_decay_fit_slope_band(constant_d30):
    fit = decay_fit(constant_d30)
    assert DECAY_NS == (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    assert len(fit.remainders) == len(DECAY_NS)
    assert -0.75 <= fit.slope <= -0.45
    assert all(r > 0 for r in fit.remainders)
    assert all(a > b for a, b in zip(fit.remainders, fit.remainders[1:]))


def test_decay_fit_preconditions():
    # The certified error must be <= 1e-20: 5.0e-20 at D = 7, 5.0e-21 at D = 8.
    with pytest.raises(ValueError, match="insufficient constant precision"):
        decay_fit(moment_series_constant(7))
    decay_fit(moment_series_constant(8))
