"""Unit tests for the certified constant evaluation machinery."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import accumulate, islice

import pytest

from cantor_moments import (
    bernoulli_numbers,
    cli,
    constant,
    euler_gamma,
    ln2,
    moment_series_constant,
)
from cantor_moments.cli import main
from cantor_moments.constant import GUARD_DIGITS, K0
from cantor_moments.exact import decimal_string, divround, round_decimal

PRINTED_CONSTANT = Fraction("3.36465072810092516083893496289")

# The constant to 90 fractional digits (last digit rounded), computed
# outside constant.py with mpmath at 100 dps as
#   -1/3 + (2/3) * sum_{1 <= k < 600} (2/3)**k * (psi(2**k + 1) + gamma),
# using H(m) = psi(m + 1) + gamma; the omitted terms are below 1e-100.
# test_reference_constant_from_mpmath regenerates it.
REFERENCE_CONSTANT = (
    "3.364650728100925160838934962887373253727134954323464040527649623407567027066"
    "119975744847891"
)


def series_tail_bound(K: int) -> Fraction:
    """Exact upper bound for the weighted harmonic series tail after K.

    Bound: sum_{k>K} (2/3)**k * H(2**k) <= (2/3)**(K+1) * (3(K+2) + 6),
    using H(2**k) <= 1 + k and the closed form of sum_{k>K} (k+1) x**k
    at x = 2/3.
    """
    return Fraction(2**(K + 1) * (3 * (K + 2) + 6), 3**(K + 1))


def ln2_alt(precision: int) -> Fraction:
    """Independent ln 2 oracle: sum_{k>=1} 1/(k * 2**k).

    Same certification pattern as :func:`cantor_moments.constant.ln2`;
    the two series share no structure beyond big-integer division, so
    30-digit agreement is a strong implementation check.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    work = precision + 6
    scale = 10**work
    acc = 0
    k = 1
    while True:
        term = divround(scale, k * 2**k)
        if term == 0:
            break
        acc += term
        k += 1
    return round_decimal(Fraction(acc, 10**work), precision)


def gamma_alt(precision: int, q: int, h_m: Fraction) -> Fraction:
    """Second gamma oracle: Euler-Maclaurin at m = 2**q, from h_m = H(m).

    gamma = H_m - q ln 2 - 1/(2m) + sum_{j>=1} B_{2j} / (2j * m**(2j)),
    summed exactly and rounded once, with ln 2 from :func:`ln2_alt` and
    H_m from the ``harmonic_powers`` fixture's plain running sum.  The
    series stops at its first term below 10**-(precision+6), which bounds
    the omitted remainder; with ln2_alt's q * 10**-(precision+6) and the
    final rounding the error stays below 10**-precision for q <= 14.
    """
    m = 2**q
    work = precision + 6
    bern = bernoulli_numbers(40)
    acc = h_m - q * ln2_alt(work) - Fraction(1, 2 * m)
    for j in range(1, 20):
        term = bern[2 * j] / (2 * j * Fraction(m) ** (2 * j))
        if abs(term) < Fraction(1, 10**work):
            break
        acc += term
    return round_decimal(acc, precision)


# ---------------------------------------------------------------------------
# ln 2 and Euler gamma
# ---------------------------------------------------------------------------


def test_ln2_examples():
    assert decimal_string(ln2(15), 15) == "0.693147180559945"
    assert decimal_string(ln2(1), 1) == "0.7"


def test_ln2_dual_oracle_agreement():
    gap = abs(ln2(40) - ln2_alt(40))
    assert gap <= Fraction(1, 10**30)


def test_ln2_prefix_stability():
    assert decimal_string(ln2(50), 30) == decimal_string(ln2(30), 30)


def test_euler_gamma_examples():
    assert decimal_string(euler_gamma(15), 15) == "0.577215664901533"
    assert decimal_string(euler_gamma(5), 5) == "0.57722"


def test_euler_gamma_dual_parameters(harmonic_powers):
    # The library's expansion at m = 2**8 against the tests' own at
    # m = 2**12 and 2**14, and those two against each other.
    a = gamma_alt(40, 12, harmonic_powers[12])
    b = gamma_alt(40, 14, harmonic_powers[14])
    assert abs(a - b) <= Fraction(1, 10**30)
    assert abs(euler_gamma(40) - b) <= Fraction(1, 10**30)
    # m = 2**8 and m = 2**12 give an identical prefix at P = 30
    c = euler_gamma(30)
    d = gamma_alt(30, 12, harmonic_powers[12])
    assert decimal_string(c, 30) == decimal_string(d, 30)


def test_euler_gamma_precision_cap():
    # The cap's edge: p = 187 needs J = 60, the highest order, and p = 188
    # needs more.
    assert abs(euler_gamma(187) - euler_gamma(186)) <= Fraction(1, 10**186)
    for p in (188, 2000):
        with pytest.raises(ValueError, match="precision beyond supported range"):
            euler_gamma(p)


def test_euler_gamma_against_mpmath():
    # Every certified value exactly, not only to its tolerance: the
    # SHA-256 of repr(euler_gamma(p)) for p = 1..120, one per line.
    reprs = "\n".join(repr(euler_gamma(p)) for p in range(1, 121))
    assert hashlib.sha256(reprs.encode()).hexdigest() == (
        "28d1188982cca04c83eb4b1647184d504554deed32a92e8fa9d36acbd7f4180b"
    )
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(140):
        # 135 digits of gamma: its own error, below 10**-134, is far inside
        # the smallest tolerance checked, 10**-120.
        reference = Fraction(mpmath.nstr(mpmath.euler, 135))
    for p in range(1, 121):
        assert abs(euler_gamma(p) - reference) <= Fraction(1, 10**p), p


# ---------------------------------------------------------------------------
# Euler-Maclaurin harmonic numbers past the exact switch
# ---------------------------------------------------------------------------


def test_tail_expansion_matches_exact_harmonic_numbers_past_k0(harmonic_powers):
    # The closed-form tail sums the expansion
    #   H(2**k) = k ln 2 + gamma + 2**-(k+1) - sum_j B_2j / (2j 4**(jk))
    # for k > K0 with the production order J, ln 2 and gamma.  Just past
    # the switch it must agree with the exact rational H(2**k) within the
    # first omitted term plus the ln 2 and gamma errors.
    assert K0 == 8
    exact = {k: harmonic_powers[k] for k in range(K0 + 1, 15)}
    for digits in (1, 30, 60):
        J = moment_series_constant(digits).em_order
        W = digits + GUARD_DIGITS + 6
        log2 = ln2(W)
        gamma = euler_gamma(W)
        j2 = 2 * J + 2
        B = bernoulli_numbers(j2)
        for k, h in exact.items():
            expansion = k * log2 + gamma + Fraction(1, 2 ** (k + 1)) - sum(
                B[2 * j] / (2 * j * Fraction(4) ** (j * k))
                for j in range(1, J + 1)
            )
            remainder = abs(B[j2]) / (j2 * Fraction(4) ** ((J + 1) * k))
            assert abs(expansion - h) <= remainder + Fraction(k + 1, 10**W)


# ---------------------------------------------------------------------------
# tail bound, budgets
# ---------------------------------------------------------------------------


def test_series_tail_bound_values():
    # tail(K) = (2/3)**(K+1) * (3(K+2) + 6) is decreasing and explicit
    assert series_tail_bound(170) < Fraction(1, 10**27)
    # NOTE: the bound at K = 170 is ~4.04e-28, i.e. NOT below 1e-28.
    assert series_tail_bound(170) > Fraction(1, 10**28)
    assert series_tail_bound(197) < Fraction(1, 10**32)
    for K in range(5, 100, 10):
        assert series_tail_bound(K + 1) < series_tail_bound(K)


def test_series_tail_bound_dominates_true_tail(harmonic_powers):
    # The bound is sum_{k>K} (2/3)**k (k+1) in closed form, resting on
    # H(2**k) <= k+1; check the per-term inequality exactly for small k
    # and the partial-tail domination for two cutoffs.
    for k in range(1, 13):
        assert harmonic_powers[k] <= k + 1
    for K in (5, 8):
        partial_tail = sum(
            Fraction(2, 3) ** k * harmonic_powers[k] for k in range(K + 1, 14)
        )
        assert series_tail_bound(K) > partial_tail


def test_constant_computes_each_input_once(monkeypatch):
    # One D = 60 call walks the harmonic prefixes once, to H(2**K0), takes
    # ln 2 once, and builds Bernoulli tables only in gamma's order search,
    # growing to J = 19: the tail's search (J = 14) reads gamma's table.
    # Each search weighs every Bernoulli index once: B_1 and the even
    # indices up to 2J + 2, 21 for gamma and 16 for the tail.
    calls = []
    for name in ("_harmonic_prefixes", "ln2", "bernoulli_numbers"):
        real = getattr(constant, name)

        def counted(*args, real=real, name=name):
            calls.append((name, *args))
            return real(*args)

        monkeypatch.setattr(constant, name, counted)
    searches = []
    real_em_sum = constant._em_sum

    def em_sum(precision, factor, *bern):
        indices = []
        searches.append(indices)

        def weighed(i):
            indices.append(i)
            return factor(i)

        return real_em_sum(precision, weighed, *bern)

    monkeypatch.setattr(constant, "_em_sum", em_sum)
    result = moment_series_constant(60)
    assert searches == [[1, *range(2, 2 * J + 3, 2)] for J in (19, 14)]
    W = 60 + GUARD_DIGITS + 6
    assert sorted(calls) == [
        ("_harmonic_prefixes",),
        ("bernoulli_numbers", 8),
        ("bernoulli_numbers", 20),
        ("bernoulli_numbers", 44),
        ("ln2", W + 8),
    ]
    assert result.em_order == 14


def test_default_budget_30(constant_d30):
    assert constant_d30.digits == 30
    assert GUARD_DIGITS == 12
    assert constant_d30.em_order == 7
    assert K0 == 8
    assert (constant_d30.value * 10**48).denominator == 1


def test_default_budget_range():
    for d, J in ((1, 2), (20, 5), (60, 14)):
        res = moment_series_constant(d)
        assert res.em_order == J
        assert (res.value * 10 ** (d + GUARD_DIGITS + 6)).denominator == 1
    for d in (0, 61):
        with pytest.raises(ValueError, match="must be >= 1|out of supported range"):
            moment_series_constant(d)


# ---------------------------------------------------------------------------
# the weighted series and the constant
# ---------------------------------------------------------------------------


def weighted_sums(n):
    """sum_{k<=K} (2/3)**k * H(2**k) for K = 1..n, over the walk's first n prefixes."""
    prefixes = islice(constant._harmonic_prefixes(), n)
    return list(accumulate(Fraction(2, 3) ** k * h for k, h in enumerate(prefixes, 1)))


def test_weighted_sum_truncations_within_tail_bound_of_constant():
    assert weighted_sums(2)[-1] == Fraction(52, 27)
    # exact truncation vs the full series recovered from the certified
    # constant, S = (3/2)(L + 1/3): the gap must be below the tail bound
    # at the truncation
    exact_10 = weighted_sums(10)[-1]
    res = moment_series_constant(30)
    series = Fraction(3, 2) * (res.value + Fraction(1, 3))
    gap = abs(series - exact_10)
    assert gap < series_tail_bound(10)


def test_constant_matches_printed_value(constant_d30):
    gap = abs(constant_d30.value - PRINTED_CONSTANT)
    assert gap <= Fraction(1, 10**28)
    assert constant_d30.certified_error <= 1e-30


def test_constant_certified_bound_honesty():
    r20 = moment_series_constant(20)
    r40 = moment_series_constant(40)
    gap = abs(r40.value - r20.value)
    assert gap < Fraction(r20.certified_error)


def test_constant_prefix_stability():
    r20 = moment_series_constant(20)
    r40 = moment_series_constant(40)
    assert decimal_string(r40.value, 20) == decimal_string(r20.value, 20)


def test_constant_default_budget(constant_d30):
    assert moment_series_constant() == constant_d30


def test_certified_bound_holds_for_every_digit_count():
    # Every supported D against the D = 60 value: the gap lies within the
    # two certified errors, and the D-digit rendering is the 60-digit
    # value rounded to D digits.  Against the outside reference, the
    # working value lies within its certified error of the truth, counting
    # the reference's own rounding (at most 1/2 * 10**-90) against it.
    # Every result is pinned exactly too, guard digits and error parts
    # included: the SHA-256 of repr(tuple(result)) for D = 1..60, one per
    # line.
    results = [moment_series_constant(d) for d in range(1, 61)]
    reprs = "\n".join(repr(tuple(res)) for res in results)
    assert hashlib.sha256(reprs.encode()).hexdigest() == (
        "41f85e9f0b7bcc835dd33f7b58b4a9e56c620aa0472b53a4dc26483f0217625f"
    )
    ref = results[-1]
    ref_value = ref.value
    truth = Fraction(REFERENCE_CONSTANT)
    for digits, res in enumerate(results, 1):
        gap = abs(res.value - ref_value)
        assert gap <= Fraction(res.certified_error) + Fraction(ref.certified_error)
        assert decimal_string(res.value, digits) == decimal_string(ref_value, digits)
        truth_gap = abs(res.value - truth) + Fraction(1, 2 * 10**90)
        assert truth_gap <= Fraction(res.certified_error)


def test_printed_constant_within_certified_error_plus_rounding(capsys):
    # The printed certified_error bounds the unrounded working value; the
    # printed D-digit string adds up to 1/2 * 10**-D on top.  The
    # reference's own rounding (1/2 * 10**-90) is counted against it.
    truth = Fraction(REFERENCE_CONSTANT)
    for digits in range(1, 61):
        assert main(["constant", "--digits", str(digits), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        gap = abs(Fraction(payload["constant"]) - truth) + Fraction(1, 2 * 10**90)
        bound = Fraction(payload["certified_error"]) + Fraction(1, 2 * 10**digits)
        assert gap <= bound, digits


def test_reference_constant_from_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        series = mpmath.fsum(
            (mpmath.mpf(2) / 3) ** k * (mpmath.digamma(2**k + 1) + mpmath.euler)
            for k in range(1, 600)
        )
        value = -mpmath.mpf(1) / 3 + 2 * series / 3
        assert mpmath.nstr(value, 91) == REFERENCE_CONSTANT


def test_certified_error_is_the_sum_of_its_parts():
    for digits in (1, 30, 60):
        res = moment_series_constant(digits)
        parts = (res.em_remainder, res.ln2_error, res.gamma_error, res.rounding_error)
        assert all(p > 0 for p in parts)
        assert sum(parts) == pytest.approx(res.certified_error, rel=1e-12)
        # the one rounding, to W = P + 6 digits
        assert res.rounding_error >= 0.5 * 10.0 ** -(digits + GUARD_DIGITS + 6)


def test_constant_result_refuses_a_bad_error(monkeypatch):
    # The refusal lives in moment_series_constant, before any result is
    # built: with W = D - 1 the rounding alone is 5e-5 at D = 5.
    monkeypatch.setattr(constant, "GUARD_DIGITS", -7)
    too_large = r"budget insufficient for target: certified error 5\.520e-05 exceeds 10\^-5"
    with pytest.raises(ValueError, match=too_large):
        moment_series_constant(5)


def test_constant_five_digits():
    res = moment_series_constant(5)
    assert decimal_string(res.value, 5) == "3.36465"


def test_constant_agrees_with_exact_truncation():
    # -1/3 + (2/3) * S_exact(14) must agree with the certified value to
    # within tail(14) + certified error
    exact = -Fraction(1, 3) + Fraction(2, 3) * weighted_sums(14)[-1]
    res = moment_series_constant(30)
    gap = abs(res.value - exact)
    assert gap < Fraction(2, 3) * series_tail_bound(14) + Fraction(res.certified_error)


# ---------------------------------------------------------------------------
# the double-sum identity
# ---------------------------------------------------------------------------


def identity_values(*Ks):
    """The common value of the two forms at each K, after checking they agree."""
    forms = list(islice(constant._identity_forms(), max(Ks)))
    for double_form, harmonic_form in forms:
        assert double_form == harmonic_form
    return [forms[K - 1][0] for K in Ks]


def test_double_sum_examples():
    # K = 2: harmonic form with H2 = 3/2, H4 = 25/12
    expected = 1 + Fraction(2, 3) * (
        Fraction(2, 3) * (Fraction(3, 2) - 1) + Fraction(4, 9) * (Fraction(25, 12) - 1)
    )
    assert identity_values(1, 2) == [Fraction(11, 9), expected]


def test_double_sum_full_range():
    for value in identity_values(*range(1, 13)):
        assert value.denominator > 0
        assert 1 < value < Fraction(PRINTED_CONSTANT)


def test_double_sum_approaches_constant(constant_d30):
    # the truncations increase toward the constant
    values = identity_values(4, 8, 12)
    assert values[0] < values[1] < values[2]
    limit = constant_d30.value
    gaps = [limit - v for v in values]
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_weighted_sum_matches_harmonic_numbers_from_scratch(harmonic_powers):
    # The cumulative pass against each H(2**k) of the plain reference sum.
    scratch = Fraction(0)
    for K, walked in enumerate(weighted_sums(14), 1):
        scratch += Fraction(2, 3) ** K * harmonic_powers[K]
        assert walked == scratch


def test_identity_forms_match_harmonic_reference(harmonic_powers):
    # Both forms of every truncation K = 1..14 against the harmonic form
    # built from the plain reference sum.
    reference = Fraction(1)
    forms = islice(constant._identity_forms(), 14)
    for K, (double_form, harmonic_form) in enumerate(forms, 1):
        reference += Fraction(2, 3) * Fraction(2, 3) ** K * (harmonic_powers[K] - 1)
        assert double_form == harmonic_form == reference
    assert K == 14


def test_identity_detects_a_planted_fault(monkeypatch):
    # The harmonic side off by 10**-40 from k = 7 on: the suite reports
    # K >= 7 unequal and the rest equal.
    prefixes = constant._harmonic_prefixes

    def off_from_k7():
        for k, h in enumerate(prefixes(), 1):
            yield h + Fraction(1, 10**40) if k >= 7 else h

    monkeypatch.setattr(constant, "_harmonic_prefixes", off_from_k7)
    checks = list(cli._suite_identity())
    assert [name for name, *_ in checks] == [f"double_sum_K{K}" for K in range(1, 13)]
    assert [(passed, measured) for _, passed, measured, _ in checks] == (
        [(True, "equal")] * 6 + [(False, "unequal")] * 6
    )
