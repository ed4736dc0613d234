"""Unit tests for the double-precision contour-verification module."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from test_constant import REFERENCE_CONSTANT

from cantor_moments import contour
from cantor_moments.contour import (
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    QuadratureError,
    _dirichlet_sum,
    _em_cutoff,
    _spf_sieve,
    _weights,
    _zeta_em,
    _zeta_integrands,
    _zeta_line,
    _zeta_rs,
    constant_contour_integrand,
    perron_integrand,
    perron_kernel,
    zeta_contours,
)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

ZETA_3_2 = 2.6123753486854883
LOG2_3 = math.log2(3.0)


def zeta(s: complex) -> complex:
    """_zeta_line at a single point."""
    return complex(_zeta_line(np.array([s]))[0])


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


def _rs_heights(s: np.ndarray) -> np.ndarray:
    """The heights of s that _zeta_line hands to Riemann-Siegel."""
    seen = [np.empty(0)]
    real = contour._zeta_rs

    def spy(x, *bounds):
        seen.append(x.imag.copy())
        return real(x, *bounds)

    with mock.patch.object(contour, "_zeta_rs", spy):
        _zeta_line(s)
    return np.concatenate(seen)


def _crossover(sigma: float) -> float:
    """Lowest height on Re s = sigma, on a grid of step 0.1, served by Riemann-Siegel."""
    tau = _rs_heights(sigma + 1j * np.arange(1000.0, 4000.0, 0.1))
    assert len(tau)
    return float(tau.min())


def test_zeta_examples():
    assert abs(zeta(2.0 + 0j) - math.pi**2 / 6) <= 1e-10
    assert abs(zeta(1.5 + 0j) - ZETA_3_2) <= 1e-10


def test_zeta_against_dirichlet_oracle():
    # 20 seeded points on Re s = 3/2, |Im s| <= 50, tolerance 1e-6
    rng = np.random.default_rng(987654321)
    for _ in range(20):
        s = complex(1.5, rng.uniform(-50.0, 50.0))
        assert abs(zeta(s) - _zeta_dirichlet_oracle(s)) <= 1e-6
    # Heights 63..1e4 on Re s = 3/2 and on the critical line (the cutoff
    # must grow as sigma falls), tolerance 1e-9
    for sigma in (1.5, 0.5):
        for tau in np.geomspace(63.0, 1.0e4, 9):
            s = complex(sigma, tau)
            assert abs(zeta(s) - _zeta_dirichlet_oracle(s)) <= 1e-9
    # Cutoffs just at and past a power of two, and prime cutoffs, where
    # the Dirichlet table's last level is nearly empty or ends in a prime.
    # These heights lie above the crossover, where zeta is Riemann-Siegel,
    # so Euler-Maclaurin is also called at each cutoff directly.
    for M in (1024, 1025, 2048, 2049, 2053, 3067):
        s = complex(1.5, _height_with_cutoff(1.5, M))
        want = _zeta_dirichlet_oracle(s)
        assert abs(zeta(s) - want) <= 1e-9
        assert abs(complex(_zeta_em(np.array([s]), np.array([M]))[0]) - want) <= 1e-9


def test_zeta_cutoff_follows_sigma():
    # The remainder bound, solved for M, needs more terms at lower sigma
    # and fewer than |Im s| / 2.7 on Re s = 3/2 at height 1e4.
    M = _em_cutoff(np.array([1.5 + 1e4j, 0.5 + 1e4j, 0.25 + 1e4j]))
    assert M[0] < M[1] < M[2]
    assert M[0] < 1e4 / 2.7
    for s in (0.25 + 61j, 0.25 + 1e4j):
        zeta(s)  # used to raise "cutoff too small"


def test_zeta_methods_agree_across_cutoff():
    # Low heights, on both sides of |Im s| = 8, against the oracle.
    for t in (7.5, 7.99, 8.01, 9.0, 25.0):
        s = 1.5 + 1j * t
        assert abs(zeta(s) - _zeta_dirichlet_oracle(s)) <= 1e-9


def test_zeta_conjugate_symmetry():
    for s in (1.5 + 3.7j, 0.5 + 21.0j, 2.0 - 14.0j):
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) <= 1e-12
    # Exact on Re s = 3/2, where the moment integrands take
    # zeta(3/2 - i*tau) as the conjugate of the constant's zeta value.
    tau = np.linspace(0.0, 1.0e4, 10_001)
    assert np.array_equal(
        _zeta_line(1.5 - 1j * tau), np.conjugate(_zeta_line(1.5 + 1j * tau))
    )


def test_zeta_against_mpmath():
    # An outside reference: 50 heights up to 1e4 on Re s = 3/2, on the
    # near-pole line Re s = log2(3) and on the critical line, and heights
    # either side of each line's Riemann-Siegel crossover, within the
    # 1e-10 remainder guard.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for sigma in (1.5, LOG2_3, 0.5):
            cross = _crossover(sigma)
            straddle = cross + np.array([-5.0, -0.1, 0.0, 0.1, 5.0])
            assert list(np.isin(straddle, _rs_heights(sigma + 1j * straddle))) == [
                False, False, True, True, True
            ]
            taus = np.concatenate([np.geomspace(0.5, 1.0e4, 50), straddle])
            got = _zeta_line(sigma + 1j * taus)
            for tau, value in zip(taus, got):
                want = complex(mpmath.zeta(mpmath.mpc(sigma, tau)))
                assert abs(value - want) <= 1e-10


def test_zeta_riemann_siegel_against_euler_maclaurin():
    # Two independent methods on 1,200 seeded heights above the crossover,
    # on Re s = 3/2 (every node) and Re s = log2(3) (the near-pole residues).
    rng = np.random.default_rng(20111)
    for sigma in (1.5, LOG2_3):
        tau = np.sort(rng.uniform(_crossover(sigma), 1.0e4, 1200))
        s = sigma + 1j * tau
        M = np.maximum.reduceat(_em_cutoff(s), np.arange(0, len(s), 64))
        assert np.all(np.abs(_zeta_rs(s, *contour._rs_bound(s)) - _zeta_em(s, M)) <= 2e-10)


def test_zeta_paths_follow_the_bounds():
    # Riemann-Siegel takes exactly the points whose truncation bound is
    # below target and whose 2N terms undercut the Euler-Maclaurin cutoff;
    # on Re s = 3/2 that is everything from the theorem's lowest height
    # tau = 2*pi * 37.5 * K up.
    tau = np.linspace(0.0, 1.0e4, 20_001)
    s = 1.5 + 1j * tau
    served = np.isin(tau, _rs_heights(s))
    bound = contour._rs_bound(s)[0]
    terms = 2 * np.floor(np.sqrt(tau / (2 * math.pi)))
    assert np.array_equal(served, (bound < contour._EM_TARGET) & (terms < _em_cutoff(s)))
    lowest = 2 * math.pi * 37.5 * contour._RS_TERMS
    assert np.array_equal(served, tau > lowest)


def test_riemann_siegel_guard(monkeypatch):
    # Forced above tolerance, the Riemann-Siegel path raises rather than
    # return a value: with K = 2 terms, and below the theorem's range.
    s = 1.5 + 1j * np.array([2000.0, 5000.0, 1.0e4])
    want = _zeta_rs(s, *contour._rs_bound(s))
    low = np.array([1.5 + 1000j])
    with pytest.raises(ValueError, match="Riemann-Siegel remainder above tolerance"):
        _zeta_rs(low, *contour._rs_bound(low))
    monkeypatch.setattr(contour, "_RS_TERMS", 2)
    with pytest.raises(ValueError, match="Riemann-Siegel remainder above tolerance"):
        _zeta_rs(s, *contour._rs_bound(s))
    # _zeta_line then leaves every point to Euler-Maclaurin.
    assert len(_rs_heights(s)) == 0
    assert np.all(np.abs(_zeta_line(s) - want) <= 2e-10)


def test_riemann_siegel_bound_holds(monkeypatch):
    # With K = 3 and 5 correction terms the truncation error is far above
    # rounding; against mpmath it stays below the bound, with the guard
    # lifted so that the value comes back.
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(contour, "_EM_TOL", 1.0)
    for sigma in (1.5, LOG2_3, 0.5):
        s = sigma + 1j * np.geomspace(1300.0, 1.0e4, 10)
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.zeta(mpmath.mpc(x.real, x.imag))) for x in s])
        for K in (3, 5):
            monkeypatch.setattr(contour, "_RS_TERMS", K)
            bound = contour._rs_bound(s)[0]
            assert np.all(bound < 1e-4)
            assert np.all(np.abs(_zeta_rs(s, *contour._rs_bound(s)) - want) <= bound)


def test_riemann_siegel_taylor_coefficients():
    # F(z) = (exp(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2)) / (2 cos(pi z)),
    # expanded at 0 by mpmath, against the FFT table: within 1e-14 * 2**-n.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):

        def F(z):
            wave = mpmath.expjpi(z * z / 2 + mpmath.mpf(3) / 8)
            return (wave - 1j * mpmath.sqrt(2) * mpmath.cospi(z / 2)) / (2 * mpmath.cospi(z))

        want = np.array([complex(c) for c in mpmath.taylor(F, 0, 47)])
    got = contour._RS_DERIVATIVES[0]
    assert np.all(np.abs(got - want) <= 1e-14 * 2.0 ** -np.arange(48))


def test_zeta_critical_strip_accuracy():
    s = 0.5 + 14.134725j  # near the first nontrivial zero
    value = zeta(s)
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
    # One cutoff per block of 64 nodes, the middle block summed to fewer terms
    short = max(M // 3, 1)
    cut = np.where((np.arange(150) >= 64) & (np.arange(150) < 128), short, M)
    terms = n[None, :] <= cut[:, None]
    direct = np.where(terms, n[None, :] ** -s[:, None], 0).sum(axis=1)
    scale = np.where(terms, n[None, :] ** -s.real[:, None], 0).sum(axis=1)
    got = _dirichlet_sum(s, np.array([M, short, M]))
    assert np.all(np.abs(got - direct) <= 1e-12 * scale)


def test_truncation_height_validation():
    for T in (5.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="truncation height must be >= 10"):
            perron_kernel(2.0, T=T)
        with pytest.raises(ValueError, match="truncation height must be >= 10"):
            zeta_contours((1,), T=T)


def test_quadrature_error_carries_diagnostics(monkeypatch):
    # Starve the budget so bisection cannot reach the tolerance: the
    # starting mesh (1,104 panels, 16,560 nodes) fits, its refinement to
    # 1e-10 (about 24,120 nodes) does not.
    monkeypatch.setattr(contour, "_ABS_TOL", 1e-10)
    monkeypatch.setattr(contour, "_MAX_EVALS", 16_600)
    with pytest.raises(QuadratureError) as excinfo:
        perron_kernel(2.0, T=10_000.0)
    err = excinfo.value
    assert err.estimate is not None
    assert math.isfinite(err.estimate)
    assert 0 < err.achieved_error < math.inf


def test_starting_mesh_over_budget_evaluates_nothing(monkeypatch):
    # A starting mesh larger than the budget is refused before the
    # integrand is called: 1,104 pole-aligned panels at T = 1e4 for
    # either line integral, one node short of the budget.
    calls = []
    real_perron, real_zeta = contour.perron_integrand, contour._zeta_integrands
    monkeypatch.setattr(
        contour, "perron_integrand", lambda *a: (calls.append(1), real_perron(*a))[1]
    )
    monkeypatch.setattr(
        contour, "_zeta_integrands", lambda *a: (calls.append(1), real_zeta(*a))[1]
    )
    for budget, run in (
        (15 * 1104 - 1, lambda: perron_kernel(2.0, T=1.0e4)),
        (15 * 1104 - 1, lambda: zeta_contours((1, 2), T=1.0e4)),
    ):
        monkeypatch.setattr(contour, "_MAX_EVALS", budget)
        with pytest.raises(QuadratureError) as excinfo:
            run()
        assert math.isnan(excinfo.value.estimate)
        assert excinfo.value.achieved_error == math.inf
    assert calls == []


@pytest.mark.parametrize(
    "run",
    [
        # 1.1 million one-period panels at t = 1e-300.
        lambda: perron_kernel(1e-300),
        # 110 million pole-aligned panels at T = 1e9.
        lambda: zeta_contours((1,), T=1.0e9),
    ],
    ids=["perron", "zeta"],
)
def test_oversized_mesh_is_refused_before_it_is_built(run):
    # The budget gate refuses the mesh from T and the panel width alone.
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="starting mesh exceeds") as excinfo:
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isnan(excinfo.value.estimate)
    assert excinfo.value.achieved_error == math.inf
    assert peak < 1_000_000


def test_integrand_conjugate_symmetry():
    # f(s) at -tau equals conj(f(s)) at +tau for all three integrands
    # (the property the [0, T] folding rests on).
    taus = np.array([0.3, 2.0, 11.0])
    for f in (
        lambda tau: perron_integrand(2.0, tau),
        constant_contour_integrand,
        lambda tau: _zeta_integrands((3,), tau)[0],
    ):
        lo = f(-taus)
        hi = f(taus)
        assert np.all(np.abs(lo - np.conjugate(hi)) <= 1e-12)


def test_constant_integrand_at_origin():
    # real and finite at tau = 0: zeta(3/2) / ((3/2)(1/2)(3*2^(-3/2)-1))
    s = 1.5 + 0j
    expected = ZETA_3_2 / (s * (s - 1) * (3 * 2**-s - 1))
    got = complex(constant_contour_integrand(np.array([0.0]))[0])
    assert abs(got - expected) <= 1e-12 * abs(expected)
    assert abs(got.imag) <= 1e-12


def test_constant_integrand_against_its_own_line():
    # The constant's integrand, computed as the conjugate of its row on
    # Re s = -1/2, against zeta(s) / (s(s-1)(3*2**(-s) - 1)) built
    # directly on Re s = 3/2, at heights up to 1e4 and at near-poles.
    tau = np.array([0.0, 0.5, 3.0, PERIOD, 100.0, 1103 * PERIOD, 1.0e3, 1.0e4])
    s = 1.5 + 1j * tau
    want = _zeta_line(s) / (s * (s - 1) * (3.0 * 2.0**-s - 1.0))
    got = constant_contour_integrand(tau)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_weights_telescope_to_the_constant_weight():
    # w_n(s) = n! / prod_{j=1..n+1} (j - s) is R_{n-1}(s) - R_n(s) with
    # R_n(s) = prod_{j=1..n+1} j/(j - s) / (-s), and R_0(s) = 1/(s(s-1)):
    # the moment weights for n = 1..512 plus R_512 give the constant's
    # weight, on the line and at the near-poles s_k.  R_512 is built here
    # independently, as the reference.
    orders = tuple(range(1, 513))
    tau = np.concatenate([[0.0], np.geomspace(0.1, 1.0e4, 40)])
    k = np.arange(1105)
    for s in (-0.5 + 1j * tau, 1.0 - math.log2(3.0) + 1j * k * PERIOD):
        w = _weights(orders, s)
        rest = 1.0 / -s
        for j in range(1, 514):
            rest = rest * j / (j - s)
        assert np.all(np.abs(w[:-1].sum(axis=0) + rest - w[-1]) <= 1e-13 * np.abs(w[-1]))


def test_moment_integrand_gamma_ratio_at_origin():
    # At tau = 0 (s = -1/2) the product form of the Gamma ratio must equal
    # n! Gamma(3/2) / Gamma(n + 5/2), taken from math.gamma, up to
    # n = 169, the largest order whose Gamma(n + 5/2) is a finite float.
    orders = tuple(range(1, 170))
    assert math.isfinite(math.gamma(orders[-1] + 2.5))
    rows = _zeta_integrands(orders, np.array([0.0]))[:-1]
    for n, (got,) in zip(orders, rows):
        expected = (
            math.factorial(n)
            * math.gamma(1.5)
            / math.gamma(n + 2.5)
            * ZETA_3_2
            / (3 * 2**-1.5 - 1)
        )
        assert abs(got - expected) <= 1e-13 * abs(expected), n


# ---------------------------------------------------------------------------
# the three identities at reduced T (fast variants)
# ---------------------------------------------------------------------------

FAST_T = 500.0


def test_perron_step_values_fast():
    assert abs(perron_kernel(0.5, T=FAST_T) - 0.0) <= 1e-3
    assert abs(perron_kernel(2.0, T=FAST_T) - 1.0) <= 1e-3
    assert abs(perron_kernel(4.0, T=FAST_T) - 3.0) <= 1e-3


def test_perron_truncation_error_shrinks():
    coarse = abs(perron_kernel(2.0, T=100.0) - 1.0)
    fine = abs(perron_kernel(2.0, T=2000.0) - 1.0)
    assert fine < coarse


def test_perron_domain():
    for t in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            perron_kernel(t, T=FAST_T)


def test_perron_starts_on_one_period_panels(monkeypatch):
    # At T = 1e4 the starting panels are min(P, 2*pi/|ln t|) wide, P the
    # zeta rows' period 2*pi/ln 2: P for |ln t| <= ln 2, one period of
    # t**(i*tau) beyond.
    starts = []
    real_adaptive_line = contour._adaptive_line

    def spy(f, edges):
        starts.append(len(edges) - 1)
        return real_adaptive_line(f, edges)

    monkeypatch.setattr(contour, "_adaptive_line", spy)
    for t, panels in ((0.5, 1104), (1.0, 1104), (2.0, 1104), (4.0, 2207), (1e3, 10995)):
        perron_kernel(t)
        period = 2.0 * math.pi / abs(math.log(t)) if t != 1.0 else math.inf
        assert starts[-1] == math.ceil(1.0e4 / min(PERIOD, period)) == panels


def test_perron_step_values_away_from_the_cli_points():
    # The CLI checks t in 0.5..4; far below and far above, the kernel still
    # meets max(t - 1, 0) at the default T = 1e4.
    for t in (1e-3, 8.0, 1e3):
        assert abs(perron_kernel(t) - max(t - 1.0, 0.0)) <= 1e-3


SHARED_T = 1000.0
PERIOD = 2.0 * math.pi / math.log(2.0)
DELTA = math.log2(3.0) - 1.5  # distance of the near-poles from the line


@pytest.mark.parametrize("k", [0, 552, 1000, 1103, 1104])
def test_near_pole_integrals_closed_form(k, monkeypatch):
    # Pole k is subtracted on the panels either side of tau_k = k*P: its
    # closed-form integral there must match quadrature of the principal
    # part 1/(s - s_k) = 1/(DELTA + i*u), one for every row.  k = 0 is
    # the tau = 0 panel alone, and k = 1104 the partial last panel [kP, T].
    T = 1.0e4
    edges = contour._edges(T, PERIOD)
    assert len(edges) == 1105 and edges[-2] < T < 1104 * PERIOD
    window = edges[max(k - 1, 0) : k + 2]
    _, integrals = contour._near_poles((1,), edges)
    assert integrals.shape == (1105,)
    monkeypatch.setattr(contour, "_ABS_TOL", 1e-10)
    (want,), _, _ = contour._adaptive_line(
        lambda tau: 1.0 / (DELTA + 1j * (tau - k * PERIOD)), window
    )
    assert abs(integrals[k] - want) <= 1e-12


def test_near_pole_residues():
    # Against (1/2*pi*i) times the integral of each integrand, as a function
    # of s, around a circle of radius 0.02 about the pole s_k (trapezoid
    # rule, 16 points; the nearest other singularity is over 1.5 away), in
    # mpmath.  The constant's row is zeta(1-s) / (s(s-1)(3*2**(s-1) - 1)).
    mpmath = pytest.importorskip("mpmath")
    orders = (1, 5)
    residues, _ = contour._near_poles(orders, contour._edges(1.0e4, PERIOD))

    def integrands(s):
        zeta_den = mpmath.zeta(1 - s) / (3 * mpmath.power(2, s - 1) - 1)
        return [
            mpmath.factorial(n) * mpmath.gamma(1 - s) / mpmath.gamma(n + 2 - s) * zeta_den
            for n in orders
        ] + [zeta_den / (s * (s - 1))]

    def residue(f, pole, points=16, radius=0.02):
        total = 0
        for j in range(points):
            step = radius * mpmath.expjpi(2 * mpmath.mpf(j) / points)
            total += np.array(f(pole + step)) * step
        return np.array([complex(v / points) for v in total])

    with mpmath.workdps(20):
        for k in (0, 1, 100):
            tau_k = k * 2 * mpmath.pi / mpmath.log(2)
            log2_3 = mpmath.log(3, 2)
            want = residue(integrands, mpmath.mpc(1 - log2_3, tau_k))
            assert np.all(np.abs(residues[:, k] - want) <= 1e-9 * np.abs(want))


def test_zeta_contours_subtract_the_tail_to_2e_8():
    # The n = 1 and constant checks carry a truncation tail of 1/(3*pi*T);
    # what is left at T = 1e4 is the O(1/T**2) rest and quadrature error.
    T = 1.0e4
    tail = 1.0 / (3.0 * math.pi * T)
    (n1,), const = zeta_contours((1,), T=T)
    assert abs(n1 - 0.5 - tail) <= 2e-8
    assert abs(const - float(Fraction(REFERENCE_CONSTANT)) - tail) <= 2e-8


def test_zeta_contours_match_the_views():
    # Each row integrated together with the others agrees with the same
    # row integrated alone, on its own mesh.
    (n1, n2, n5), const = zeta_contours((1, 2, 5), T=SHARED_T)
    assert n1 == zeta_contours((1,), T=SHARED_T)[0][0]
    assert abs(const - zeta_contours((), T=SHARED_T)[1]) <= 1e-15
    assert abs(n2 - zeta_contours((2,), T=SHARED_T)[0][0]) <= 1e-9
    assert abs(n5 - zeta_contours((5,), T=SHARED_T)[0][0]) <= 1e-9


def test_zeta_contours_evaluate_zeta_once_per_node(monkeypatch):
    heights = []
    nodes = []
    real_zeta = contour._zeta_line
    real_integrands = contour._zeta_integrands

    def counted_zeta(s):
        heights.append(np.asarray(s).imag.copy())
        return real_zeta(s)

    def counted_integrands(orders, tau):
        nodes.append(len(tau))
        return real_integrands(orders, tau)

    monkeypatch.setattr(contour, "_zeta_line", counted_zeta)
    monkeypatch.setattr(contour, "_zeta_integrands", counted_integrands)
    zeta_contours((1, 2, 5), T=SHARED_T)
    # One height per integrand node, plus one per near-pole tau_k = k*P,
    # k = 0..ceil(T/P), for the principal parts; all distinct.
    poles = math.ceil(SHARED_T / PERIOD) + 1
    tau = np.concatenate(heights)
    assert sum(nodes) > 0
    assert len(tau) == sum(nodes) + poles
    assert len(np.unique(tau)) == len(tau)
    assert any(np.array_equal(h, np.arange(poles) * PERIOD) for h in heights)


def test_moment_contour_fast(table_512):
    # Any order n >= 1 is accepted: 17 is the first the cap used to
    # refuse, and 512 the end of the table.
    for n in (1, 2, 17, 64, 512):
        (got,), _ = zeta_contours((n,), T=1000.0)
        assert abs(got - float(table_512[n])) <= 1e-3, n


def test_moment_contour_domain():
    for n in (0, -1):
        with pytest.raises(ValueError, match="moment order below 1"):
            zeta_contours((n,), T=FAST_T)


def test_constant_contour_truncation_scaling(constant_d30):
    # O(1/T): the T = 1e3 truncation error is ~10x the T = 1e4 error;
    # also covers the fast-path accuracy claim at moderate T.
    limit = float(constant_d30.value)
    err_coarse = abs(zeta_contours((), T=1000.0)[1] - limit)
    err_fine = abs(zeta_contours((), T=4000.0)[1] - limit)
    assert err_coarse <= 5e-3
    assert err_fine < err_coarse
    ratio = err_coarse / err_fine
    assert 2.0 <= ratio <= 20.0
