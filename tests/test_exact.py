"""Unit tests for the exact-arithmetic primitives."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from cantor_moments import BigFixed, bernoulli, bernoulli_numbers, harmonic_exact
from cantor_moments.exact import HARMONIC_CAP, divround


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(j) == 0 for j in range(3, 61, 2))


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
    assert [bernoulli(j) for j in range(31)] == table[:31]
    with pytest.raises(ValueError, match="invalid bernoulli index"):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------


def test_harmonic_examples():
    assert harmonic_exact(1) == 1
    assert harmonic_exact(4) == Fraction(25, 12)
    assert harmonic_exact(8) == Fraction(761, 280)


def test_harmonic_difference_property():
    prev = harmonic_exact(1)
    for m in range(2, 1001):
        cur = harmonic_exact(m)
        assert cur - prev == Fraction(1, m)
        prev = cur


def test_harmonic_domain_errors():
    with pytest.raises(ValueError):
        harmonic_exact(0)
    with pytest.raises(ValueError):
        harmonic_exact(HARMONIC_CAP + 1)


# ---------------------------------------------------------------------------
# BigFixed
# ---------------------------------------------------------------------------


def test_to_fixed_examples():
    assert BigFixed.from_fraction(Fraction(1, 2), 3).decimal_string(3) == "0.500"
    assert BigFixed.from_fraction(Fraction(3, 10), 2).decimal_string(2) == "0.30"
    third = BigFixed.from_fraction(Fraction(761, 280), 10)
    assert third.decimal_string(10) == "2.7178571429"


def test_to_fixed_error_bound():
    for frac in (Fraction(1, 3), Fraction(761, 280), Fraction(-22, 7)):
        for p in (1, 5, 12):
            fixed = BigFixed.from_fraction(frac, p)
            assert abs(fixed.to_fraction() - frac) <= Fraction(1, 10**p)


def test_to_fixed_precision_stability():
    # P+10 digits truncated back to P agree with direct P within 1 ulp.
    for frac in (Fraction(761, 280), Fraction(2, 3), Fraction(355, 113)):
        for p in (5, 10, 20):
            direct = BigFixed.from_fraction(frac, p)
            refined = BigFixed.from_fraction(frac, p + 10).rescale(p)
            gap = abs(direct.to_fraction() - refined.to_fraction())
            assert gap <= Fraction(1, 10**p)


def test_divround_half_away_from_zero():
    assert divround(1, 2) == 1  # 0.5 rounds away to 1
    assert divround(-1, 2) == -1
    assert divround(3, 2) == 2
    assert divround(7, 3) == 2
    assert divround(-7, 3) == -2


def test_bigfixed_arithmetic_and_precision():
    a = BigFixed.from_fraction(Fraction(1, 3), 20)
    b = BigFixed.from_fraction(Fraction(1, 6), 10)
    # results carry the minimum precision of the operands
    assert (a + b).precision_digits == 10
    half = (a + b).to_fraction()
    assert abs(half - Fraction(1, 2)) <= Fraction(2, 10**10)
    assert (a - a).mantissa == 0
    third_scaled = a.mul_int(3)
    assert abs(third_scaled.to_fraction() - 1) <= Fraction(3, 10**20)
    assert abs(a.div_int(2).to_fraction() - Fraction(1, 6)) <= Fraction(1, 10**20)


def test_bigfixed_decimal_string_rounding():
    x = BigFixed.from_fraction(Fraction(2718281828, 10**9), 9)
    assert x.decimal_string(3) == "2.718"
    assert x.decimal_string(4) == "2.7183"  # 2.71828... rounds up
    neg = BigFixed.from_fraction(Fraction(-5, 1000), 5)
    assert neg.decimal_string(2) == "-0.01"  # half away from zero

