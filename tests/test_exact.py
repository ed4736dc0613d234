"""Unit tests for the exact-arithmetic primitives."""

from __future__ import annotations

import decimal
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantor_moments import (
    bernoulli_moments,
    bernoulli_numbers,
    euler_gamma,
    ln2,
    moment_series_constant,
    recursive_moments,
)
from cantor_moments.cantor import integral_quadrature
from cantor_moments.constant import _harmonic_prefixes
from cantor_moments.exact import (
    _balanced_sum,
    decimal_string,
    divround,
    round_decimal,
)
from cantor_moments.moments import closed_form_rows, partial_sum


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_examples():
    B = bernoulli_numbers(12)
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[3] == 0
    assert B[12] == Fraction(-691, 2730)
    assert bernoulli_numbers(0) == [1]
    assert bernoulli_numbers(1) == [1, Fraction(-1, 2)]


def test_bernoulli_odd_vanish():
    B = bernoulli_numbers(60)
    assert all(B[j] == 0 for j in range(3, 61, 2))


def _primes_up_to(n):
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    return [p for p, is_p in enumerate(sieve) if is_p]


def test_bernoulli_von_staudt_clausen():
    # denominator of B_{2n} is the product of primes p with (p-1) | 2n,
    # and B_{2n} + sum of 1/p over those primes is an integer
    table = bernoulli_numbers(512)
    primes = _primes_up_to(513)
    for two_n in range(2, 513, 2):
        divisors = [p for p in primes if two_n % (p - 1) == 0]
        expected = 1
        for p in divisors:
            expected *= p
        assert table[two_n].denominator == expected
        assert (table[two_n] + sum(Fraction(1, p) for p in divisors)).denominator == 1


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{m} binom(m+1, k) B_k = 0 for m >= 1
    table = bernoulli_numbers(120)
    for m in range(1, 121):
        total = sum(comb(m + 1, k) * table[k] for k in range(m + 1))
        assert total == 0
    with pytest.raises(ValueError, match="bernoulli index must be >= 0"):
        bernoulli_numbers(-1)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------


def test_harmonic_examples():
    h2, h4, h8 = islice(_harmonic_prefixes(), 3)
    assert h2 == Fraction(3, 2)
    assert h4 == Fraction(25, 12)
    assert h8 == Fraction(761, 280)


_RANGES = st.integers(1, 400).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 400)))


@given(_RANGES, st.integers(-1000, 1000))
def test_balanced_sum_pairs_match_a_plain_sum(bounds, c):
    lo, hi = bounds
    ks = range(lo, hi + 1)
    assert Fraction(*_balanced_sum(lambda k: (1, k), lo, hi)) == sum(
        Fraction(1, k) for k in ks
    )
    assert Fraction(*_balanced_sum(lambda k: (c - k, k), lo, hi)) == sum(
        Fraction(c - k, k) for k in ks
    )


def test_harmonic_matches_a_naive_sum(harmonic_powers):
    # Every H(2**k) the walk yields, k = 1..14, against the plain sum.
    assert list(islice(_harmonic_prefixes(), 14)) == harmonic_powers[1:]


# ---------------------------------------------------------------------------
# Decimal rounding and rendering
# ---------------------------------------------------------------------------


def test_to_fixed_examples():
    assert decimal_string(Fraction(1, 2), 3) == "0.500"
    assert decimal_string(Fraction(3, 10), 2) == "0.30"
    assert decimal_string(Fraction(761, 280), 10) == "2.7178571429"
    assert round_decimal(Fraction(761, 280), 10) == Fraction(27178571429, 10**10)
    # a value on the grid is returned unchanged
    assert round_decimal(Fraction(3, 10), 5) == Fraction(3, 10)


def test_to_fixed_error_bound():
    for frac in (Fraction(1, 3), Fraction(761, 280), Fraction(-22, 7)):
        for p in (1, 5, 12):
            rounded = round_decimal(frac, p)
            assert (rounded * 10**p).denominator == 1
            assert abs(rounded - frac) <= Fraction(1, 2 * 10**p)


def test_to_fixed_precision_stability():
    # P+10 digits rounded back to P agree with direct P within 1 ulp.
    for frac in (Fraction(761, 280), Fraction(2, 3), Fraction(355, 113)):
        for p in (5, 10, 20):
            direct = round_decimal(frac, p)
            refined = round_decimal(round_decimal(frac, p + 10), p)
            assert abs(direct - refined) <= Fraction(1, 10**p)


def test_divround_half_away_from_zero():
    assert divround(1, 2) == 1  # 0.5 rounds away to 1
    assert divround(-1, 2) == -1
    assert divround(3, 2) == 2
    assert divround(7, 3) == 2
    assert divround(-7, 3) == -2


def test_decimal_string_rounding():
    x = Fraction(2718281828, 10**9)
    assert decimal_string(x, 3) == "2.718"
    assert decimal_string(x, 4) == "2.7183"  # 2.71828... rounds up
    assert decimal_string(Fraction(-5, 1000), 2) == "-0.01"  # half away from zero
    assert round_decimal(Fraction(-5, 1000), 2) == Fraction(-1, 100)
    assert decimal_string(Fraction(-4, 1000), 2) == "0.00"  # no signed zero
    with pytest.raises(ValueError):
        decimal_string(x, 0)


def test_round_decimal_fixed_point_steps():
    # The steps of the certified constant: round each part at W digits,
    # add on the grid exactly, scale by a rational, round the sum to P.
    a = round_decimal(Fraction(1, 3), 20)
    b = round_decimal(Fraction(1, 6), 10)
    half = round_decimal(a + b, 10)
    assert (half * 10**10).denominator == 1
    assert abs(half - Fraction(1, 2)) <= Fraction(2, 10**10)
    assert a - a == 0
    assert abs(3 * a - 1) <= Fraction(3, 10**20)
    assert abs(round_decimal(a / 2, 20) - Fraction(1, 6)) <= Fraction(1, 10**20)


def _quantized(x: Fraction, digits: int) -> str:
    """x rounded half away from zero by the ``decimal`` module.

    The quotient is truncated toward zero at a precision that holds every
    tie k * 10**-digits / 2 of the tested range exactly, so truncation
    never moves a value across a tie and the one ROUND_HALF_UP step sees
    the same side of it as the exact value.
    """
    ctx = decimal.Context(prec=digits + 40, rounding=decimal.ROUND_DOWN)
    quotient = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    q = quotient.quantize(decimal.Decimal(1).scaleb(-digits), decimal.ROUND_HALF_UP, ctx)
    # decimal keeps the sign of a negative value that rounds to zero.
    return format(q.copy_abs() if q == 0 else q, "f")


_NUMERATORS = st.integers(-(10**12), 10**12)
_DIGITS = st.integers(1, 30)


@given(_NUMERATORS, st.integers(1, 10**12), _DIGITS)
def test_decimal_string_matches_decimal_module(num, den, digits):
    x = Fraction(num, den)
    assert decimal_string(x, digits) == _quantized(x, digits)
    assert abs(round_decimal(x, digits) - x) <= Fraction(1, 2 * 10**digits)


@given(_NUMERATORS, _DIGITS)
def test_decimal_string_ties_round_away_from_zero(k, digits):
    tie = Fraction(2 * k + 1, 2 * 10**digits)
    assert decimal_string(tie, digits) == _quantized(tie, digits)
    assert abs(round_decimal(tie, digits)) == abs(tie) + Fraction(1, 2 * 10**digits)


# ---------------------------------------------------------------------------
# Integer counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, value",
    [
        ("moment_series_constant", 30),
        ("ln2", 2),
        ("euler_gamma", 10),
        ("partial_sum", 16),
        ("bernoulli_numbers", 2),
        ("recursive_moments", 2),
        ("bernoulli_moments", 2),
    ],
)
def test_integer_counts_follow_one_rule(name, value):
    # Every count of the exact API takes any integer type as int(n) and
    # refuses anything else, a whole float included, with one ValueError.
    import cantor_moments
    from cantor_moments import moments

    np = pytest.importorskip("numpy")
    call = getattr(cantor_moments, name, None) or getattr(moments, name)
    assert call(np.int64(value)) == call(value)
    for bad in (value + 0.5, float(value), Fraction(value)):
        with pytest.raises(ValueError, match="not an integer"):
            call(bad)


@pytest.mark.parametrize(
    "call, digits", [(decimal_string, 20), (round_decimal, 25)]
)
def test_decimal_digit_counts_follow_one_rule(call, digits):
    # The same rule for the digit count of the decimal helpers: a numpy
    # integer is taken whole, where 10**digits would overflow int64.
    np = pytest.importorskip("numpy")
    x = Fraction(1, 3)
    assert call(x, np.int64(digits)) == call(x, digits)
    for bad in (digits + 0.5, float(digits), Fraction(digits)):
        with pytest.raises(ValueError, match="not an integer"):
            call(x, bad)


# Every entry point that takes an integer count or order: a call on one
# such integer, its floor, and the name its messages give it.
_FLOORS = {
    "round_decimal": (lambda n: round_decimal(Fraction(1, 3), n), 0, "precision"),
    "decimal_string": (lambda n: decimal_string(Fraction(1, 3), n), 1, "digits"),
    "bernoulli_numbers": (bernoulli_numbers, 0, "bernoulli index"),
    "closed_form_rows": (lambda n: list(closed_form_rows(n, int)), 0, "moment index"),
    "bernoulli_moments": (bernoulli_moments, 0, "moment index"),
    "recursive_moments": (recursive_moments, 0, "moment index"),
    "partial_sum": (partial_sum, 0, "moment index"),
    "ln2": (ln2, 1, "precision"),
    "euler_gamma": (euler_gamma, 1, "precision"),
    "moment_series_constant": (moment_series_constant, 1, "target digits"),
    "integral_quadrature": (lambda n: integral_quadrature((n,)), 1, "moment order"),
    "zeta_contours": (
        lambda n: pytest.importorskip("cantor_moments.contour").zeta_contours(
            (n,), T=100.0
        ),
        1,
        "moment order",
    ),
}


@pytest.mark.parametrize("name", _FLOORS)
def test_integer_counts_have_one_floor_rule(name):
    # Each takes its count at the floor, and refuses one below it or a
    # non-integer with the one rule's message.
    call, least, what = _FLOORS[name]
    call(least)
    with pytest.raises(ValueError, match=f"^{what} must be >= {least}$"):
        call(least - 1)
    with pytest.raises(ValueError, match=f"^{what} not an integer$"):
        call(least + 0.5)


def test_a_bool_is_an_integer_count():
    # A bool is an Integral, so the rule takes True as the count 1.
    assert bernoulli_moments(True) == bernoulli_moments(1)


def test_round_decimal_refuses_a_negative_precision():
    # p = 0 rounds to an integer; below it, 10**p would be a float.
    assert round_decimal(Fraction(5, 2), 0) == 3
    for p in (-1, -5):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            round_decimal(Fraction(1234), p)
