"""Unit tests for the double-precision contour-verification module."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from cantor_moments import (
    QuadratureError,
    QuadratureSpec,
    constant_contour,
    gamma_complex,
    loggamma_complex,
    moment_bernoulli,
    moment_contour,
    perron_kernel,
    zeta_complex,
)
from cantor_moments.contour import (
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    _dirichlet_sum,
    _em_cutoff,
    _spf_sieve,
    constant_contour_integrand,
    moment_contour_integrand,
    perron_integrand,
)


# ---------------------------------------------------------------------------
# gamma_complex
# ---------------------------------------------------------------------------


def test_gamma_examples():
    assert abs(gamma_complex(1.0) - 1.0) <= 1e-12
    assert abs(gamma_complex(4.0) - 6.0) <= 6 * 1e-12
    assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) <= 2e-12


def test_gamma_poles():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(ValueError, match="gamma pole"):
            gamma_complex(z)


def test_gamma_recurrence_random_strip():
    # Gamma(z+1) = z Gamma(z) to relative 1e-10 at 100 seeded points in
    # the strip 1/2 <= Re z <= 5, |Im z| <= 100.
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 5.0), rng.uniform(-100.0, 100.0))
        lhs = gamma_complex(z + 1)
        rhs = z * gamma_complex(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_gamma_conjugate_symmetry():
    for z in (1.3 + 2.1j, 0.5 + 30.0j, 3.0 - 7.5j):
        a = gamma_complex(z.conjugate())
        b = gamma_complex(z).conjugate()
        assert abs(a - b) <= 1e-12 * abs(b)


def test_gamma_reflection_against_reference():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z) on the left half-plane path
    for z in (-0.5 + 1.0j, -2.3 + 4.0j, -1.5 - 0.25j):
        product = gamma_complex(z) * gamma_complex(1 - z)
        reference = math.pi / cmath.sin(math.pi * z)
        assert abs(product - reference) <= 1e-10 * abs(reference)


def test_loggamma_consistent_with_gamma():
    for z in (2.5 + 1.0j, 5.0 - 3.0j, 0.75 + 12.0j):
        assert abs(cmath.exp(loggamma_complex(z)) - gamma_complex(z)) <= 1e-10 * abs(
            gamma_complex(z)
        )
    # log-differences exponentiate to exact ratios even at large |Im z|
    z = 0.5 + 300.0j
    ratio = cmath.exp(loggamma_complex(z + 1) - loggamma_complex(z))
    assert abs(ratio - z) <= 1e-9 * abs(z)


# ---------------------------------------------------------------------------
# zeta_complex
# ---------------------------------------------------------------------------


def _zeta_dirichlet_oracle(s: complex, terms: int = 10**5) -> complex:
    """Direct Dirichlet summation plus Euler-Maclaurin tail estimate.

    The tail keeps the B_2 and B_4 terms: on Re s = 1/2 at height 1e4 the
    B_4 term is ~4e-9, the next one ~1e-12.
    """
    m = np.arange(1, terms + 1, dtype=float)
    head = np.sum(m ** (-s))
    tail = (
        terms ** (1 - s) / (s - 1)
        - 0.5 * terms ** (-s)
        + s / 12 * terms ** (-s - 1)
        - s * (s + 1) * (s + 2) / 720 * terms ** (-s - 3)
    )
    return complex(head + tail)


def _height_with_cutoff(sigma: float, M: int) -> float:
    """Lowest height on Re s = sigma whose Euler-Maclaurin cutoff is M."""
    lo, hi = 8.0, 1.0e5
    for _ in range(60):
        mid = (lo + hi) / 2
        if _em_cutoff(np.array([complex(sigma, mid)]))[0] >= M:
            hi = mid
        else:
            lo = mid
    assert _em_cutoff(np.array([complex(sigma, hi)]))[0] == M
    return hi


def test_zeta_examples():
    assert abs(zeta_complex(2.0 + 0j) - math.pi**2 / 6) <= 1e-10
    assert abs(zeta_complex(1.5 + 0j) - 2.6123753486854883) <= 1e-10


def test_zeta_pole_and_domain():
    with pytest.raises(ValueError, match="zeta pole"):
        zeta_complex(1.0 + 0j)
    for s in (0.0 + 2j, -1.0 + 0j, -0.5 + 10j):
        with pytest.raises(ValueError, match="out of implemented domain"):
            zeta_complex(s)


def test_zeta_against_dirichlet_oracle():
    # 20 seeded points on Re s = 3/2, |Im s| <= 50, tolerance 1e-6
    rng = np.random.default_rng(987654321)
    for _ in range(20):
        s = complex(1.5, rng.uniform(-50.0, 50.0))
        assert abs(zeta_complex(s) - _zeta_dirichlet_oracle(s)) <= 1e-6
    # Heights 63..1e4 on Re s = 3/2 and on the critical line (the cutoff
    # must grow as sigma falls), tolerance 1e-9
    for sigma in (1.5, 0.5):
        for tau in np.geomspace(63.0, 1.0e4, 9):
            s = complex(sigma, tau)
            assert abs(zeta_complex(s) - _zeta_dirichlet_oracle(s)) <= 1e-9
    # Cutoffs just at and past a power of two, and prime cutoffs, where
    # the Dirichlet table's last level is nearly empty or ends in a prime
    for M in (1024, 1025, 2048, 2049, 2053, 3067):
        s = complex(1.5, _height_with_cutoff(1.5, M))
        assert abs(zeta_complex(s) - _zeta_dirichlet_oracle(s)) <= 1e-9


def test_zeta_cutoff_follows_sigma():
    # The remainder bound, solved for M, needs more terms at lower sigma
    # and fewer than |Im s| / 2.7 on Re s = 3/2 at height 1e4.
    M = _em_cutoff(np.array([1.5 + 1e4j, 0.5 + 1e4j, 0.25 + 1e4j]))
    assert M[0] < M[1] < M[2]
    assert M[0] < 1e4 / 2.7
    for s in (0.25 + 61j, 0.25 + 1e4j):
        zeta_complex(s)  # used to raise "cutoff too small"


def test_zeta_methods_agree_across_cutoff():
    # Borwein (|Im| <= 8) and Euler-Maclaurin (above) must agree with the
    # oracle on both sides of the internal switch.
    for t in (7.5, 7.99, 8.01, 9.0, 25.0):
        s = 1.5 + 1j * t
        assert abs(zeta_complex(s) - _zeta_dirichlet_oracle(s)) <= 1e-9


def test_zeta_conjugate_symmetry():
    for s in (1.5 + 3.7j, 0.5 + 21.0j, 2.0 - 14.0j):
        assert abs(zeta_complex(s.conjugate()) - zeta_complex(s).conjugate()) <= 1e-12


def test_zeta_critical_strip_accuracy():
    s = 0.5 + 14.134725j  # near the first nontrivial zero
    value = zeta_complex(s)
    assert abs(value - _zeta_dirichlet_oracle(s)) <= 1e-9
    assert abs(value) <= 1e-5


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


def test_kronrod_rule_degrees():
    # K15 integrates monomials on [-1, 1] exactly through degree 23 and
    # its embedded G7 through degree 13; neither is exact at the next even
    # degree (odd monomials are exact for any symmetric rule).
    g7_nodes = _K15_NODES[1::2]

    def errors(k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        k15 = float(_K15_WEIGHTS @ _K15_NODES**k)
        g7 = float(_G7_WEIGHTS @ g7_nodes**k)
        return abs(k15 - exact), abs(g7 - exact)

    for k in range(24):
        k15_err, g7_err = errors(k)
        assert k15_err <= 1e-14
        assert (g7_err <= 1e-14) == (k <= 13 or k % 2 == 1)
    assert errors(24)[0] > 1e-10


def test_gauss_nodes_are_odd_kronrod_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.all(np.abs(_K15_NODES[1::2] - nodes) <= 1e-15)
    assert np.all(np.abs(_G7_WEIGHTS - weights) <= 1e-15)
    assert np.all(np.diff(_K15_NODES) > 0)


def test_spf_sieve_small():
    spf = _spf_sieve(500)
    for n in range(2, 501):
        assert spf[n] == min(d for d in range(2, n + 1) if n % d == 0)


@pytest.mark.parametrize("M", [2, 3, 4, 5, 64, 1024, 1025, 2053])
def test_dirichlet_sum_against_direct_powers(M):
    # 150 nodes span two full blocks and a partial one
    rng = np.random.default_rng(M)
    s = rng.choice([0.5, 1.5], 150) + 1j * rng.uniform(-1.0e4, 1.0e4, 150)
    n = np.arange(1, M + 1, dtype=float)
    direct = (n[None, :] ** -s[:, None]).sum(axis=1)
    scale = (n[None, :] ** -s.real[:, None]).sum(axis=1)
    assert np.all(np.abs(_dirichlet_sum(s, M) - direct) <= 1e-12 * scale)


def test_quadrature_spec_validation():
    QuadratureSpec()  # defaults valid
    with pytest.raises(ValueError):
        QuadratureSpec(T=5.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-12)
    with pytest.raises(ValueError):
        QuadratureSpec(max_evals=10)


def test_quadrature_error_carries_diagnostics():
    # Starve the budget so bisection cannot reach the tolerance.
    spec = QuadratureSpec(T=10_000.0, abs_tol=1e-10, max_evals=1_000)
    with pytest.raises(QuadratureError) as excinfo:
        perron_kernel(2.0, spec)
    err = excinfo.value
    assert err.estimate is not None
    assert err.achieved_error > 0


def test_integrand_conjugate_symmetry():
    # f(s) at -tau equals conj(f(s)) at +tau for all three integrands
    # (the property the [0, T] folding rests on).
    taus = np.array([0.3, 2.0, 11.0])
    for f in (
        lambda tau: perron_integrand(2.0, tau),
        constant_contour_integrand,
        lambda tau: moment_contour_integrand(3, tau),
    ):
        lo = f(-taus)
        hi = f(taus)
        assert np.all(np.abs(lo - np.conjugate(hi)) <= 1e-12)


def test_constant_integrand_at_origin():
    # real and finite at tau = 0: zeta(3/2) / ((3/2)(1/2)(3*2^(-3/2)-1))
    s = 1.5 + 0j
    expected = zeta_complex(s) / (s * (s - 1) * (3 * 2**-s - 1))
    got = complex(constant_contour_integrand(np.array([0.0]))[0])
    assert abs(got - expected) <= 1e-12 * abs(expected)
    assert abs(got.imag) <= 1e-12


# ---------------------------------------------------------------------------
# the three identities at reduced T (fast variants)
# ---------------------------------------------------------------------------

FAST = QuadratureSpec(T=500.0, abs_tol=1e-4)


def test_perron_step_values_fast():
    assert abs(perron_kernel(0.5, FAST) - 0.0) <= 1e-3
    assert abs(perron_kernel(2.0, FAST) - 1.0) <= 1e-3
    assert abs(perron_kernel(4.0, FAST) - 3.0) <= 1e-3


def test_perron_truncation_error_shrinks():
    coarse = abs(perron_kernel(2.0, QuadratureSpec(T=100.0)) - 1.0)
    fine = abs(perron_kernel(2.0, QuadratureSpec(T=2000.0)) - 1.0)
    assert fine < coarse


def test_perron_domain():
    with pytest.raises(ValueError):
        perron_kernel(0.0, FAST)
    with pytest.raises(ValueError):
        perron_kernel(-1.0, FAST)


def test_moment_contour_fast():
    for n in (1, 2):
        got = moment_contour(n, QuadratureSpec(T=1000.0))
        assert abs(got - float(moment_bernoulli(n))) <= 1e-3


def test_moment_contour_domain():
    with pytest.raises(ValueError):
        moment_contour(0, FAST)
    with pytest.raises(ValueError):
        moment_contour(17, FAST)


def test_constant_contour_truncation_scaling(constant_d30):
    # O(1/T): the T = 1e3 truncation error is ~10x the T = 1e4 error;
    # also covers the fast-path accuracy claim at moderate T.
    limit = constant_d30.value.to_float()
    err_coarse = abs(constant_contour(QuadratureSpec(T=1000.0)) - limit)
    err_fine = abs(constant_contour(QuadratureSpec(T=4000.0)) - limit)
    assert err_coarse <= 5e-3
    assert err_fine < err_coarse
    ratio = err_coarse / err_fine
    assert 2.0 <= ratio <= 20.0
