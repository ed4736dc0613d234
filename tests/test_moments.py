"""Unit tests for the moment computations and the decay fit."""

from __future__ import annotations

import copy
import decimal
import hashlib
import json
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, prod
from pathlib import Path

import numpy as np
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
from cantor_moments import cli, contour, exact, moments
from cantor_moments.moments import DECAY_NS


@pytest.fixture(scope="module")
def decimal_rows_512():
    """The CLI's view of the same table: closed_form_rows(512, Decimal)."""
    return list(moments.closed_form_rows(512, Decimal))


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
    # The CLI's view, in lowest terms.  At N = 1 and 2 the 5 of d_2 = 30 is a
    # lonely prime that also lies in the base's part of L, so it cancels
    # through W_n.
    num, den = list(moments.closed_form_rows(n, Decimal))[-1]
    assert (int(num), int(den)) == (KNOWN[n].numerator, KNOWN[n].denominator)


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


def test_coprime_fractions_behave_as_fractions(table_512):
    # _coprime_fraction writes Fraction's private slots; on each supported
    # Python the result must be indistinguishable from Fraction(num, den).
    rows = [*bernoulli_moments(64), *(table_512[n] for n in (65, 127, 256, 511, 512))]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # repr of the 512 rows' 19,600 digits
    try:
        reprs = [(repr(f), repr(Fraction(f.numerator, f.denominator))) for f in rows]
    finally:
        sys.set_int_max_str_digits(previous)
    assert all(a == b for a, b in reprs)
    for f in rows:
        g = Fraction(f.numerator, f.denominator)
        assert type(f) is Fraction
        assert f == g and hash(f) == hash(g)
        for other in (Fraction(1, 3), 2, g):
            for a, b in ((f + other, g + other), (f * other, g * other)):
                assert type(a) is Fraction
                assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
            assert (f < other) == (g < other) and (other < f) == (other < g)
        assert f.limit_denominator(1000) == g.limit_denominator(1000)
        for h in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert type(h) is Fraction
            assert (h.numerator, h.denominator) == (g.numerator, g.denominator)
            assert h == g and hash(h) == hash(g)


def test_recursion_table_equals_closed_form_to_128():
    assert recursive_moments(128) == bernoulli_moments(128)


def test_table_512_is_in_lowest_terms(table_512):
    # The full-size gcd that the table itself no longer runs.
    for n, value in enumerate(table_512):
        assert value.denominator > 0, n
        assert gcd(value.numerator, value.denominator) == 1, n


def test_every_small_table_matches_direct_sum():
    # Every N from 0 to 40, both lifts: the sampled test below may miss
    # N = 1 and 2, where the 5 of d_2 = 30 is lonely and lies in P.
    B = bernoulli_numbers(41)
    expected = [_direct_closed_form(n, B) for n in range(41)]
    for N in range(41):
        want = [(f.numerator, f.denominator) for f in expected[: N + 1]]
        for lift in (int, Decimal):
            got = [(int(num), int(den)) for num, den in moments.closed_form_rows(N, lift)]
            assert got == want, (N, lift)


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
    # The CLI's Decimal view prints the same text as the Fraction table.
    assert _text(moments.closed_form_rows(N, Decimal)) == _text(
        (f.numerator, f.denominator) for f in bernoulli_moments(N)
    )


def _text(rows):
    return [(str(num), str(den)) for num, den in rows]


def test_decimal_view_matches_table_512(table_512, decimal_rows_512):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got = _text(decimal_rows_512)
        want = _text((f.numerator, f.denominator) for f in table_512)
    finally:
        sys.set_int_max_str_digits(previous)
    assert len(got) == 513
    assert got == want


# The CLI's stdout digests for every (N, format) the benchmark runs.
REFERENCE_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)["moments_sha256"]


@pytest.mark.parametrize("lift", [int, Decimal])
def test_both_views_print_the_reference_tables(
    lift, decimal_rows_512, monkeypatch, capsys
):
    # Every row n >= 1 is divided from the low digits, in base 2 for int
    # and base 10 for Decimal.  The int rows at N = 512 print as the
    # Decimal ones (test_decimal_view_matches_table_512).
    closed_form_rows = moments.closed_form_rows
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for key, digest in REFERENCE_DIGESTS.items():
            max_n, fmt = key.split("/")
            N = int(max_n)
            if N == 512 and lift is int:
                continue
            rows = decimal_rows_512 if N == 512 else list(closed_form_rows(N, lift))
            monkeypatch.setattr(moments, "closed_form_rows", lambda n, _: iter(rows))
            assert cli.cmd_moments(N, fmt) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, key
    finally:
        sys.set_int_max_str_digits(previous)


@settings(deadline=None)
@given(
    # K up to 20,000 decimal digits, or the 66,439 bits as many, against
    # the 19,600 digits of L at N = 512.
    st.sampled_from([(moments._Base2, int, 66_439), (moments._Base10, Decimal, 20_000)])
    .flatmap(lambda case: st.tuples(st.just(case[:2]), st.integers(1, case[2]))),
    st.randoms(use_true_random=False),
)
def test_hensel_inverse_inverts_modulo_a_power_of_the_base(case_and_K, rng):
    (digits, lift), K = case_and_K
    B = digits.base
    r = rng.randrange(B ** rng.randint(0, K + 5)) * B + rng.choice(
        [u for u in range(1, B) if gcd(u, B) == 1]
    )
    with decimal.localcontext(moments.EXACT):
        x = moments._hensel_inverse(lift(r), K, digits)
    assert type(x) is lift
    assert 0 <= int(x) < B**K
    assert r * int(x) % B**K == 1


@pytest.mark.parametrize("lift", [int, Decimal])
def test_an_inexact_division_raises(lift):
    # L + 10 P in place of L, P the part of L in 2s and 5s: the same 2s
    # and 5s, so the rows run through the low-digit division, but
    # L + 10 P is not a multiple of d_2 = 30.  Row 1 subtracts the
    # misrounded c_2 term it added, so row 2 is the first wrong head, and
    # the check of q * L = L A_n * L_n modulo a prime refuses it.
    def corrupt(x):
        rest = moments._strip(x, (2, 5))
        return lift(x + 10 * (x // rest))

    with pytest.raises(ArithmeticError, match=r"row 2: L \* A_n is not divisible"):
        list(moments.closed_form_rows(64, corrupt))


RECURSION_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)


def _recursion_failures(rows, p):
    """The n in 1..N where the rows break the recursion modulo the prime p.

    Each row (num, den) is reduced to num * den**-1 mod p, and
    M_n (3*2**n - 2) = 1 + sum_{k<n} C(n, k) M_k is tested with one
    Pascal row kept modulo p.  Nothing is shared with the closed form.
    Raises ValueError if p divides a denominator.
    """
    M = []
    with decimal.localcontext(moments.EXACT):
        for n, (num, den) in enumerate(rows):
            d = int(den % p)
            if d == 0:
                raise ValueError(f"{p} divides the denominator of row {n}")
            M.append(int(num % p) * pow(d, -1, p) % p)
    failures = []
    pascal = [1]  # C(n, k) mod p for k <= n
    for n in range(1, len(M)):
        pascal = [1, *((a + b) % p for a, b in zip(pascal, pascal[1:])), 1]
        rhs = 1 + sum(c * m for c, m in zip(pascal, M[:n]))
        if (M[n] * (3 * 2**n - 2) - rhs) % p:
            failures.append(n)
    return failures


def test_table_512_meets_the_recursion_modulo_primes(table_512, decimal_rows_512):
    fractions = [(f.numerator, f.denominator) for f in table_512]
    for p in RECURSION_PRIMES:
        assert _recursion_failures(fractions, p) == [], p
        assert _recursion_failures(decimal_rows_512, p) == [], p


def test_recursion_check_finds_the_first_wrong_row(table_512):
    rows = [(f.numerator, f.denominator) for f in table_512]
    rows[400] = (rows[400][0] + 1, rows[400][1])
    for p in RECURSION_PRIMES:
        assert _recursion_failures(rows, p)[0] == 400
    with pytest.raises(ValueError, match="divides the denominator of row 1"):
        _recursion_failures([(1, 1), (1, RECURSION_PRIMES[0])], RECURSION_PRIMES[0])


def test_decimal_view_keeps_the_callers_context():
    # Each row runs in the exact context and leaves it before the yield:
    # a 5-digit caller context neither rounds the table nor is changed.
    expected = bernoulli_moments(40)
    with decimal.localcontext(decimal.Context(prec=5)) as caller:
        rows = moments.closed_form_rows(40, Decimal)
        for n in range(12):
            num, den = next(rows)
            assert decimal.getcontext() is caller
            assert caller.prec == 5
            assert not any(caller.flags.values())
            assert Fraction(int(num), int(den)) == expected[n]
        assert bernoulli_moments(40) == expected
    assert not any(moments.EXACT.flags.values())


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


def _shared_parts_by_long_division(denominators, N):
    """Test-only reference for moments._shared_parts: prod_{k != j} d_k mod d_j
    as one long division of the whole product per d_j."""
    total = prod(denominators)
    small = factorial(N + 2)
    shared = []
    for d in denominators:
        g = gcd(d, total // d % d * small)
        v = 1
        while g > 1:
            d //= g
            v *= g
            g = gcd(d, g)
        shared.append(v)
    return shared


def test_shared_parts_match_long_division():
    for N in [*range(1, 97), 512]:
        d = [
            (2 * b / (3 * 2**j - 2)).denominator
            for j, b in enumerate(bernoulli_numbers(N + 1))
        ]
        assert moments._shared_parts(d, N) == _shared_parts_by_long_division(d, N), N


@pytest.mark.parametrize(
    "moduli", [[], [1], [5], [1, 1], [4, 6, 9], [7, 1, 12, 35, 1, 2, 3], list(range(1, 40))]
)
def test_cofactors_are_products_of_the_others(moduli):
    total = prod(moduli)
    assert moments._cofactors(moduli) == [total // m % m for m in moduli]


def test_tables_are_pure():
    # Interleaved calls with different N agree on their common prefix.
    for table in (bernoulli_moments, recursive_moments, bernoulli_numbers):
        long = table(40)
        short = table(17)
        assert table(40) == long
        assert short == long[:18]
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


# Residue-series constants.  The poles of the Mellin integrand are
# s_k = 1 - log2(3) + ikP, P = 2pi/ln 2.  |zeta(1 - s_k)| <= zeta(log2(3))
# < 2.4, and for n >= 16 |w_n(s_k)| <= |w_16(s_k)| <= 16!/(|k|P)**17, as
# |R_n| falls with n on Re s < 0.  Bounding the sum over k > K by an
# integral, the poles with |k| > K add at most RESIDUE_TAIL / K**16 to
# M_n, and for K >= 2 less than that to R_n.
P = 2 * math.pi / math.log(2)
RESIDUE_TAIL = 2 * (2 / 3) * 2.4 / math.log(2) * factorial(16) / P**17 / 16


def _residue_series(orders, tolerance):
    """The poles s_k, k = 0..K, and (2/3) times each order's residue there
    (contour._residues), for the least K that keeps the poles |k| > K
    1e-3 below tolerance; the pole -k carries the conjugate of pole k's."""
    K = math.ceil((RESIDUE_TAIL / (1e-3 * tolerance)) ** (1 / 16))
    assert K >= 2
    s = 1 - math.log2(3) + 1j * np.arange(K + 1) * P
    return s, 2 / 3 * contour._residues(orders, K)[:-1]


def _over_all_poles(r):
    """The sum over k = -K..K of residues r given for k = 0..K: r_0 + 2 Re sum_{k>=1} r_k."""
    return r[0].real + 2 * r[1:].sum().real


def test_table_512_meets_the_residue_series(table_512, partial_sums_512, constant_d30):
    # M_n is the sum of the residues at the poles s_k of the Mellin
    # integrand (Grabner & Prodinger, Statist. Probab. Lett. 26, 1996):
    #     M_n = (2/3) sum_k w_n(s_k) zeta(1 - s_k) / ln 2,
    #     w_n(s) = n! / prod_{j=1..n+1} (j - s),
    # with the residues from contour._residues and those of
    # R_n = sum_{m>n} w_m as (n + 1) / -s times them.  The smallest
    # tolerance is 1e-12 M_512.
    orders = tuple(range(16, 513))
    s, series = _residue_series(orders, 1e-12 * float(table_512[512]))
    for n, r in zip(orders, series):
        M_n = float(table_512[n])
        assert abs(_over_all_poles(r) - M_n) <= 1e-12 * M_n, n
        if n in (16, 64, 128, 512):
            # C - S_n, the residues of R_n.
            remainder = _over_all_poles((n + 1) * r / -s)
            exact = float(constant_d30.value - partial_sums_512[n])
            assert abs(remainder - exact) <= 1e-13, n


def test_partial_sums_match_exact_values(partial_sums_512):
    # Within a few units in the last place (measured: one, 4.4e-16).
    for N, exact in enumerate(partial_sums_512):
        expected = float(exact)
        assert abs(moments.partial_sum(N) - expected) <= 1e-15 * expected, N


@pytest.mark.parametrize("N", [0, 1, 2, 3, 7, 8, 16, 21])
def test_fine_levels_are_exact(partial_sums_512, N):
    # With every j <= (N+1)/2 the closed form of the levels l >= L, added
    # to the levels l < L summed term by term, is S_N exactly, for any L.
    def level(l):
        ys = [Fraction(2 * b + 1, 2 ** (l + 1)) for b in range(2**l)]
        return Fraction(1, 3 ** (l + 1)) * sum(sum(y**n for n in range(N + 1)) for y in ys)

    for L in sorted({0, 1, 2, 4, N.bit_length()}):
        closed = moments._fine_levels(N, L, (N + 1) // 2, Fraction(1))
        assert sum(map(level, range(L))) + sum(closed) == partial_sums_512[N], L


def test_decay_remainders_meet_the_residue_series(constant_d30):
    # decay_fit's float remainders C - S_N beyond the 512 table, against
    # the residue series of R_N (as in the test above).  Measured: within
    # 5.6e-14 relative.
    fit = decay_fit(constant_d30)
    tolerance = 1e-12
    orders = (1024, 2048, 4096)
    got = [fit.remainders[DECAY_NS.index(N)] for N in orders]
    s, series = _residue_series(orders, tolerance * min(got))
    for N, residues, r in zip(orders, series, got):
        remainder = _over_all_poles((N + 1) * residues / -s)
        assert abs(remainder - r) <= tolerance * r, N


def _far_poles(N, target, weight):
    """The least K whose poles |k| > K add at most ``target``, and their bound.

    With f_N(k) = prod_{j<=N+1} j / sqrt(j**2 + (kP)**2), Re(j - s_k) > j
    gives |w_N(s_k)| <= f_N(k) / (N+1) and |R_N(s_k)| <= f_N(k) / (|k|P),
    and |zeta(1 - s_k)| <= zeta(log2(3)) < 2.4, so the residue at s_k is
    at most (2/3) 2.4 / ln 2 * f_N(k) * weight(k), weight(k) <= 1 being
    1/(N+1) for M_N and 1/(kP) for R_N.  f_N falls with k; it is summed
    in floats to k = 1024, and past it f_N(k) <= (N+1)! / (kP)**(N+1)
    bounds the rest by an integral.
    """
    k = np.arange(1, 1025)
    j = np.arange(1, N + 2)
    log_f = np.sum(np.log(j) - 0.5 * np.log(j**2 + (k[:, None] * P) ** 2), axis=1)
    rest = math.exp(math.lgamma(N + 2) - (N + 1) * math.log(P) - N * math.log(1024)) / N
    scale = 2 * (2 / 3) * 2.4 / math.log(2)  # both signs of k
    tails = scale * (np.cumsum((np.exp(log_f) * weight(k))[::-1])[::-1] + rest)
    K = int(np.argmax(tails <= target))
    assert tails[K] <= target
    return K, float(tails[K])


def test_series_identity_and_rows_to_90_digits(table_512, partial_sums_512):
    # The paper's identity sum_n M_n = C through the residue series at 90
    # digits: C = S_128 + (2/3) sum_k R_128(s_k) zeta(1 - s_k) / ln 2
    # against the D = 60 constant within its certified error, the far
    # poles' bound and 1e-85 for the 90-digit arithmetic (measured near
    # 1e-89); and rows n = 128, 256, 512 of the table within 1e-70
    # relative.  The poles -k are the conjugates of the poles k.
    mpmath = pytest.importorskip("mpmath")
    reference = moment_series_constant(60)
    K_C, tail_C = _far_poles(128, 1e-3 * reference.certified_error, lambda k: 1 / (k * P))
    K_rows = {
        n: _far_poles(n, 1e-73 * float(table_512[n]), lambda k, n=n: 1 / (n + 1))[0]
        for n in (128, 256, 512)
    }
    with mpmath.workdps(90):
        log2_3 = mpmath.log(3, 2)
        period = 2 * mpmath.pi / mpmath.ln2
        factor = mpmath.mpf(2) / 3 / mpmath.ln2
        remainder = 0
        series = dict.fromkeys(K_rows, 0)
        for k in range(max(K_C, *K_rows.values()) + 1):
            s = 1 - log2_3 + 1j * k * period
            residue = (1 if k == 0 else 2) * factor * mpmath.zeta(log2_3 - 1j * k * period)
            # After factor j: prod_{i<=j} i / (i - s) = j w_{j-1}(s) = -s R_{j-1}(s).
            product = mpmath.mpf(1)
            for j in range(1, 514):
                product *= j / (j - s)
                if j == 129 and k <= K_C:
                    remainder += (residue * product / -s).real
                if k <= K_rows.get(j - 1, -1):
                    series[j - 1] += (residue * product / j).real
        S_128 = partial_sums_512[128]
        gap = mpmath.mpf(S_128.numerator) / S_128.denominator + remainder
        gap -= mpmath.mpf(reference.value.numerator) / reference.value.denominator
        assert abs(gap) <= reference.certified_error + tail_C + 1e-85
        for n in K_rows:
            M_n = mpmath.mpf(table_512[n].numerator) / table_512[n].denominator
            assert abs(series[n] - M_n) <= 1e-70 * M_n, n


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
    # The certified error must be <= 1e-20: 5.9e-20 at D = 1, 9.4e-21 at D = 2.
    with pytest.raises(ValueError, match="insufficient constant precision"):
        decay_fit(moment_series_constant(1))
    decay_fit(moment_series_constant(2))
