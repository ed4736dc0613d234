"""Acceptance criteria, one test per criterion.

Each test measures what the criterion states, records a single
"PASS/FAIL — <criterion>: measured … vs tolerance …" line (printed in the
terminal summary), and asserts.  Tolerances and runtime bounds are the
ones stated in the package contract; see README.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest
from test_constant import gamma_alt, ln2_alt

from cantor_moments import (
    bernoulli_moments,
    decay_fit,
    euler_gamma,
    ln2,
    moment_series_constant,
    recursive_moments,
)
from cantor_moments.cantor import integral_quadrature
from cantor_moments.constant import _identity_forms
from cantor_moments.contour import perron_kernel, zeta_contours

# The reference constant as printed (29 fractional digits, last rounded).
PRINTED_CONSTANT = Fraction("3.36465072810092516083893496289")


@pytest.mark.criterion("constant reproduction (CLI, 30 digits, < 10 s)")
def test_constant_cli_30_digits(acceptance):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from cantor_moments.cli import main; "
            "sys.exit(main(['constant', '--digits', '30', '--json']))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    value = Fraction(payload["constant"])
    gap = abs(value - PRINTED_CONSTANT)
    ok = gap <= Fraction(1, 10**28) and elapsed < 10.0
    acceptance(
        ok,
        f"measured |value - printed| = {float(gap):.3e} vs tolerance 1e-28; "
        f"runtime {elapsed:.2f} s vs bound 10 s",
    )


@pytest.mark.criterion("oracle equivalence n <= 64 (exact, < 5 s)")
def test_oracle_equivalence(acceptance):
    t0 = time.perf_counter()
    closed_form = bernoulli_moments(64)
    recursion = recursive_moments(64)
    mismatches = [n for n in range(65) if closed_form[n] != recursion[n]]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 5.0
    acceptance(
        ok,
        f"measured {65 - len(mismatches)}/65 exact rational equalities "
        f"vs tolerance zero (exact); runtime {elapsed:.2f} s vs bound 5 s",
    )


@pytest.mark.criterion("truncation identity K = 1..12 (exact)")
def test_truncation_identity(acceptance, harmonic_powers):
    # Each truncation's double form and harmonic form, against the
    # harmonic form built from the plain reference sum of harmonic numbers.
    failures = []
    reference = Fraction(1)
    for K, (double_form, harmonic_form) in enumerate(islice(_identity_forms(), 12), 1):
        reference += Fraction(2, 3) * Fraction(2, 3) ** K * (harmonic_powers[K] - 1)
        if not double_form == harmonic_form == reference:
            failures.append(K)
    ok = not failures
    acceptance(
        ok,
        f"measured {12 - len(failures)}/12 exact equalities vs tolerance "
        "zero (exact rational identity)",
    )


@pytest.mark.criterion("decay exponent in [-0.75, -0.45], remainders shrinking")
def test_decay_exponent(acceptance, constant_d30):
    fit = decay_fit(constant_d30)
    in_band = -0.75 <= fit.slope <= -0.45
    positive = all(r > 0 for r in fit.remainders)
    decreasing = all(
        a > b for a, b in zip(fit.remainders, fit.remainders[1:])
    )
    ok = in_band and positive and decreasing
    acceptance(
        ok,
        f"measured slope {fit.slope:.4f} vs tolerance band [-0.75, -0.45]; "
        f"remainders positive: {positive}, decreasing at each doubling: "
        f"{decreasing}",
    )


@pytest.mark.criterion("Perron kernel step values at T = 1e4")
def test_perron_kernel_steps(acceptance):
    cases = [
        (0.5, 0.0, 1e-3),
        (1.0, 0.0, 1e-2),
        (1.5, 0.5, 1e-3),
        (2.0, 1.0, 1e-3),
        (4.0, 3.0, 1e-3),
    ]
    details = []
    ok = True
    for t, want, tol in cases:
        got = perron_kernel(t, T=1.0e4)
        err = abs(got - want)
        ok = ok and err <= tol
        details.append(f"t={t}: {err:.2e} (tol {tol:g})")
    acceptance(ok, "measured errors " + ", ".join(details))


@pytest.mark.criterion("contour representation of moments and constant")
def test_contour_representation(acceptance, constant_d30):
    details = []
    ok = True
    got_moments, got_constant = zeta_contours((1, 2, 5), T=1.0e4)
    table = bernoulli_moments(5)
    for n, got in zip((1, 2, 5), got_moments):
        err = abs(got - float(table[n]))
        ok = ok and err <= 1e-3
        details.append(f"n={n}: {err:.2e} (tol 1e-03)")
    err = abs(got_constant - float(constant_d30.value))
    ok = ok and err <= 5e-3
    details.append(f"constant: {err:.2e} (tol 5e-03)")
    acceptance(ok, "measured errors " + ", ".join(details))


@pytest.mark.criterion("Cantor-integral consistency at 1e6 points")
def test_cantor_integral_consistency(acceptance):
    details = []
    ok = True
    table = bernoulli_moments(5)
    for n, got in zip((1, 2, 5), integral_quadrature((1, 2, 5))):
        err = abs(got - float(table[n]))
        ok = ok and err <= 5e-3
        details.append(f"n={n}: {err:.2e}")
    acceptance(ok, "measured errors " + ", ".join(details) + " vs tolerance 5e-03")


@pytest.mark.criterion("high-precision self-consistency (dual oracles)")
def test_high_precision_self_consistency(acceptance, harmonic_powers):
    bound = Fraction(1, 10**30)
    ln2_gap = abs(ln2(40) - ln2_alt(40))
    gamma_gap = abs(euler_gamma(40) - gamma_alt(40, 14, harmonic_powers[14]))
    r20 = moment_series_constant(20)
    r40 = moment_series_constant(40)
    const_gap = abs(r40.value - r20.value)
    certified = Fraction(r20.certified_error)
    ok = ln2_gap <= bound and gamma_gap <= bound and const_gap <= certified
    acceptance(
        ok,
        f"measured ln2 dual gap {float(ln2_gap):.1e}, gamma dual gap "
        f"{float(gamma_gap):.1e} vs tolerance 1e-30; D=40 vs D=20 gap "
        f"{float(const_gap):.1e} vs certified error {float(certified):.1e}",
    )
