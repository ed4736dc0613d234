"""Unit tests for the double-precision contour-verification module."""

from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from test_constant import REFERENCE_CONSTANT

from cantor_moments import cli, contour
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


def zeta_points(s) -> np.ndarray:
    """zeta at each point s, Re s > 0, s != 1: one _zeta_grid call with the one offset 0.

    Each point is taken at |Im s| and conjugated back where Im s < 0, so
    zeta(conj s) is conj zeta(s) bit for bit.
    """
    s = np.asarray(s, dtype=np.complex128)
    below = s.imag < 0
    out = contour._zeta_grid(np.where(below, s.conj(), s), 0.0)
    return np.where(below, out.conj(), out)


def zeta(s: complex) -> complex:
    """zeta_points at a single point."""
    return complex(zeta_points(np.array([s]))[0])


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


def _rs_heights(s: np.ndarray, offsets=None) -> np.ndarray:
    """The heights of the points s that zeta_points hands to Riemann-Siegel,
    or, given node offsets, of the centres s of the panels that _zeta_grid does."""
    seen = [np.empty(0)]
    real = contour._zeta_rs

    def spy(x, *rest):
        seen.append(x.imag.copy())
        return real(x, *rest)

    with mock.patch.object(contour, "_zeta_rs", spy):
        if offsets is None:
            zeta_points(s)
        else:
            contour._zeta_grid(s, offsets)
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
    # so Euler-Maclaurin is also called there directly, and solves the
    # cutoff that _height_with_cutoff pins.
    for M in (1024, 1025, 2048, 2049, 2053, 3067):
        s = complex(1.5, _height_with_cutoff(1.5, M))
        want = _zeta_dirichlet_oracle(s)
        assert abs(zeta(s) - want) <= 1e-9
        assert abs(complex(_zeta_em(np.array([s]), np.zeros(1))[0, 0]) - want) <= 1e-9


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
    # Euler-Maclaurin at both signs of the height.
    for s in (1.5 + 3.7j, 0.5 + 21.0j, 2.0 - 14.0j):
        below, above = _zeta_em(np.array([s.conjugate(), s]), np.zeros(1))[:, 0]
        assert abs(below - above.conjugate()) <= 1e-12
    # Exact on Re s = 3/2, where the moment integrands take
    # zeta(3/2 - i*tau) as the conjugate of the constant's zeta value, and
    # where constant_contour_integrand takes negative heights that way.
    tau = np.linspace(0.0, 1.0e4, 10_001)
    assert np.array_equal(
        constant_contour_integrand(-tau), np.conjugate(constant_contour_integrand(tau))
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
            got = zeta_points(sigma + 1j * taus)
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
        assert np.all(np.abs(_zeta_rs(s, np.zeros(1)) - _zeta_em(s, np.zeros(1))) <= 2e-10)


def test_both_zeta_paths_at_every_node_of_the_contract_mesh(monkeypatch):
    # Every node zeta_contours((1, 2, 5)) evaluates at T = 1e4: 19,500 on
    # the panels and 1,110 on the near-pole grid (the 1,105 poles, padded
    # to 74 centres of 15), each call on one real part and with the 15
    # offsets of a panel.  Every centre Riemann-Siegel serves is taken
    # again by Euler-Maclaurin on the same offsets, within the two guards'
    # sum (measured: 1.0e-12).
    grids, served = [], []
    real_grid = contour._zeta_grid
    real_rs = contour._zeta_rs

    def spied_grid(s, offsets):
        grids.append((np.asarray(s), np.size(offsets)))
        return real_grid(s, offsets)

    def spied_rs(s, d):
        out = real_rs(s, d)
        served.append((s, d, out))
        return out

    monkeypatch.setattr(contour, "_zeta_grid", spied_grid)
    monkeypatch.setattr(contour, "_zeta_rs", spied_rs)
    zeta_contours((1, 2, 5))
    assert all(width == 15 for _, width in grids)
    assert sum(s.size for s, _ in grids if s.real[0] == LOG2_3) * 15 == 1_110
    assert sum(s.size for s, _ in grids) * 15 == 20_610
    assert sum(s.size * d.size for s, d, _ in served) == 14_745
    for s, _ in grids:
        assert len(set(s.real)) == 1 and s.real[0] in (1.5, LOG2_3)
    for s, d, out in served:
        assert np.all(np.abs(_zeta_em(s, d) - out) <= 2e-10)


def test_zeta_paths_follow_the_bounds():
    # Riemann-Siegel takes exactly the points whose truncation bound is
    # below target; on Re s = 3/2 and log2(3) that is everything from the
    # theorem's lowest height tau = 2*pi * 37.5 * K up.
    tau = np.linspace(0.0, 1.0e4, 20_001)
    lowest = 2 * math.pi * 37.5 * contour._RS_TERMS
    for sigma in (1.5, LOG2_3):
        s = sigma + 1j * tau
        served = np.isin(tau, _rs_heights(s))
        assert np.array_equal(served, contour._rs_bound(s) < contour._EM_TARGET)
        assert np.array_equal(served, tau > lowest)


def test_riemann_siegel_guard(monkeypatch):
    # Forced above tolerance, the Riemann-Siegel path raises rather than
    # return a value: with K = 2 terms, and below the theorem's range.
    s = 1.5 + 1j * np.array([2000.0, 5000.0, 1.0e4])
    want = _zeta_rs(s, np.zeros(1))[:, 0]
    with pytest.raises(ValueError, match="Riemann-Siegel remainder above tolerance"):
        _zeta_rs(np.array([1.5 + 1000j]), np.zeros(1))
    monkeypatch.setattr(contour, "_RS_TERMS", 2)
    with pytest.raises(ValueError, match="Riemann-Siegel remainder above tolerance"):
        _zeta_rs(s, np.zeros(1))
    # _zeta_grid then leaves every point to Euler-Maclaurin.
    assert len(_rs_heights(s)) == 0
    assert np.all(np.abs(zeta_points(s) - want) <= 2e-10)


def test_riemann_siegel_refuses_two_real_parts():
    # Riemann-Siegel sums both sides of one real part; every caller hands
    # it centres on one, and centres on two are refused, whether directly,
    # as a list of points or as a grid, while each real part alone serves.
    s = np.array([1.5 + 5000j, LOG2_3 + 6000j])
    offsets = PERIOD / 2 * _K15_NODES
    for call in (
        lambda: _zeta_rs(s, np.zeros(1)),
        lambda: zeta_points(s),
        lambda: contour._zeta_grid(s, offsets),
    ):
        with pytest.raises(ValueError, match="Riemann-Siegel centres on more than one real part"):
            call()
    for one in s[:, None]:
        assert np.all(np.abs(_zeta_rs(one, offsets) - _zeta_em(one, offsets)) <= 2e-10)


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
            bound = contour._rs_bound(s)
            assert np.all(bound < 1e-4)
            assert np.all(np.abs(_zeta_rs(s, np.zeros(1))[:, 0] - want) <= bound)


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


def test_zeta_grid_matches_points():
    # A grid of Kronrod panels against zeta at each node alone, for three
    # widths and three real parts: panels across the heights 2*pi*n**2
    # where N steps (Riemann-Siegel adds a node's last term on its own),
    # across the Riemann-Siegel crossover, and low (Euler-Maclaurin).
    rng = np.random.default_rng(1988)
    n = np.arange(16, 40)
    for sigma in (1.5, LOG2_3, 0.5):
        mids = np.concatenate([
            2 * math.pi * n**2 + 0.25,
            2 * math.pi * n**2 - 0.25,
            _crossover(sigma) + np.linspace(-5.0, 5.0, 21),
            np.linspace(5.0, 200.0, 7),
        ])
        s = sigma + 1j * mids
        for half in (PERIOD / 2, PERIOD / 8, (1.0e4 - 1103 * PERIOD) / 2):
            offsets = half * _K15_NODES
            nodes = s[:, None] + 1j * offsets
            served = _rs_heights(s, offsets)
            grid = contour._zeta_grid(s, offsets)
            alone = zeta_points(nodes.ravel()).reshape(grid.shape)
            assert np.all(np.abs(grid - alone) <= 2e-10)
            # Riemann-Siegel serves exactly the panels where every node's
            # bound is below target, though it is taken at the lowest node
            # alone; some panels have only some nodes below, and among the
            # served are panels whose N steps.
            below = contour._rs_bound(nodes) < contour._EM_TARGET
            rs = np.isin(mids, served)
            assert np.array_equal(rs, below.all(axis=1))
            assert np.any(below.any(axis=1) & ~rs)
            N = np.floor(np.sqrt(nodes.imag / (2 * math.pi)))
            assert np.any(N[rs, 0] < N[rs, -1])
            # Euler-Maclaurin, here on every centre (two runs of the
            # Dirichlet kernel), returns them in input order, bit for bit
            # whatever that order.
            perm = rng.permutation(len(s))
            assert np.array_equal(_zeta_em(s[perm], offsets), _zeta_em(s, offsets)[perm])


def test_zeta_values_do_not_depend_on_batching(monkeypatch):
    # Every centre is summed to its own cutoff, so no value depends on
    # which centres share a call: the Dirichlet kernel and both zeta paths
    # give a centre the same bits alone, in a subset or in a permuted
    # batch, and the contour values are the same under any block sizes.
    rng = np.random.default_rng(1988)
    x = rng.choice([0.5, 1.5], 150) + 1j * rng.uniform(-1.0e4, 1.0e4, 150)
    sides, offsets = np.array([0.0, 0.25]), np.array([-1.5, 0.0, 2.0])
    cutoffs = rng.integers(1, 2054, 150)
    sums = _dirichlet_sum(x, sides, cutoffs, offsets)
    for p in rng.choice(150, 10, replace=False):
        alone = _dirichlet_sum(x[p : p + 1], sides, cutoffs[p : p + 1], offsets)
        assert np.array_equal(alone, sums[:, p : p + 1])
    offsets = PERIOD / 2 * _K15_NODES
    for sigma in (1.5, LOG2_3, 0.5):
        # 150 centres, so the kernel runs them in three runs.
        for path, low in ((_zeta_em, 10.0), (_zeta_rs, 2000.0)):
            s = sigma + 1j * rng.uniform(low, 1.0e4, 150)
            full = path(s, offsets)
            for p in rng.choice(150, 3, replace=False):
                assert np.array_equal(path(s[p : p + 1], offsets), full[p : p + 1])
            subset = rng.choice(150, 40, replace=False)
            assert np.array_equal(path(s[subset], offsets), full[subset])
            perm = rng.permutation(150)
            assert np.array_equal(path(s[perm], offsets), full[perm])
    values = set()
    for block, run in itertools.product((7, 128, 10**6), (5, 64, 10**4)):
        monkeypatch.setattr(contour, "_BLOCK", block)
        monkeypatch.setattr(contour, "_DIRICHLET_BLOCK", run)
        moments, constant = zeta_contours((1, 2, 5), T=2000.0)
        kernel = perron_kernel(2.0, T=500.0)
        values.add(tuple(v.hex() for v in (*moments, constant, kernel)))
    assert len(values) == 1


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
    # 150 centres x span two full runs of 64 and a partial one, on mixed
    # real parts; two sides and three node offsets are summed at once.
    rng = np.random.default_rng(M)
    x = rng.choice([0.5, 1.5], 150) + 1j * rng.uniform(-1.0e4, 1.0e4, 150)
    sides = np.array([0.0, 0.25])
    offsets = np.array([-1.5, 0.0, 2.0])
    n = np.arange(1, M + 1, dtype=float)
    # One cutoff for all; one per run, the middle run summed to fewer
    # terms; and one per centre, differing inside every run, so that each
    # run's table is filled to its largest and masked to each centre's own.
    short = max(M // 3, 1)
    per_centre = rng.integers(1, M + 1, 150)
    assert all(run.min() < run.max() for run in np.split(per_centre, [64, 128]))
    cases = [
        np.full(150, M),
        np.where((np.arange(150) >= 64) & (np.arange(150) < 128), short, M),
        per_centre,
    ]
    got = [_dirichlet_sum(x, sides, c, offsets) for c in cases]
    assert all(sums.shape == (2, 150, 3) for sums in got)
    for k, side in enumerate(sides):
        for j, offset in enumerate(offsets):
            s = x + side + 1j * offset
            powers, moduli = n ** -s[:, None], n ** -s.real[:, None]
            for cutoffs, sums in zip(cases, got):
                terms = n <= cutoffs[:, None]
                direct = np.where(terms, powers, 0).sum(axis=1)
                scale = np.where(terms, moduli, 0).sum(axis=1)
                assert np.all(np.abs(sums[k, :, j] - direct) <= 1e-12 * scale)


def test_non_finite_integrand_is_refused():
    # A nan or an infinite part at any node stops the quadrature: on a
    # one-block mesh at T = 100, and on the 1,104 panels at T = 1e4, which
    # the integrand sees in several blocks, at the last panel only, in
    # the last block.
    for T in (100.0, 1.0e4):
        edges = contour._edges(T, PERIOD)
        for bad in (math.nan, complex(0.0, math.inf), complex(-math.inf, 1.0)):
            blocks = []

            def f(mid, half, bad=bad, edges=edges):
                blocks.append(len(mid))
                y = np.ones((len(mid), 15), dtype=np.complex128)
                y[mid > edges[-2], 7] = bad
                return y

            with pytest.raises(ValueError, match="integrand produced a non-finite value"):
                contour._adaptive_line(f, edges)
            assert sum(blocks) == len(edges) - 1
            assert len(blocks) == math.ceil((len(edges) - 1) / contour._BLOCK)
        assert (len(blocks) > 1) == (T == 1.0e4)


def test_contour_working_set_does_not_grow_with_T():
    # tracemalloc counts numpy's buffers.  The quadrature holds one block
    # of panels' values at a time and otherwise O(panels) bookkeeping, so
    # at T = 1e4 the peaks stay small, and quadrupling T does not
    # quadruple the zeta rows' peak, as a wave evaluated in one piece would.
    # The sieves cached across blocks are cleared first, so each call
    # counts its own whatever ran before.
    def peak(run):
        contour._factorization.cache_clear()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    zeta = peak(lambda: zeta_contours((1, 2, 5)))
    assert zeta <= 2_000_000
    assert peak(lambda: perron_kernel(4.0)) <= 500_000
    assert peak(lambda: zeta_contours((1, 2, 5), T=4.0e4)) <= 1.5 * zeta


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
        lambda tau: _zeta_integrands((3,), tau, zeta_points(1.5 + 1j * tau))[0],
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
    want = zeta_points(s) / (s * (s - 1) * (3.0 * 2.0**-s - 1.0))
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
    tau = np.array([0.0])
    rows = _zeta_integrands(orders, tau, zeta_points(1.5 + 1j * tau))[:-1]
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


CLI_T = (0.5, 1.0, 1.5, 2.0, 4.0)


def _perron_exact(t: float, T: float = 1.0e4) -> float:
    """perron_kernel(t, T=T) without quadrature: the truncated integral in closed form.

    1/(s(s-1)) = 1/(s-1) - 1/s, so the integral over [-T, T] is the step
    max(t - 1, 0) less the two conjugate tails |tau| > T of
    t**s / (b + i*tau), s = 3/2 + i*tau, b = 1/2 and 3/2.  For t != 1,
    x = ln t, each upper tail is by parts
    -t**(3/2) e**(iTx) sum_k i**k k! / ((b + iT)(ix))**(k+1): its ratio
    is at most k/(T|x|), and at T|x| >= 1000 the first omitted term,
    k = 8, is below 8!/1000**8 ~ 4e-20 of the first.  At t = 1 the integral is
    2 Re int_0^T 1/(b + i*tau) = 2 atan(T/b) for each b.
    """
    if t == 1.0:
        return (math.atan(T / 0.5) - math.atan(T / 1.5)) / math.pi
    x = math.log(t)
    tail = 0
    for b, sign in ((0.5, 1), (1.5, -1)):
        z = (b + 1j * T) * 1j * x
        tail += sign * sum(1j**k * math.factorial(k) / z ** (k + 1) for k in range(8))
    tail *= -(t**1.5) * cmath.exp(1j * T * x)
    return max(t - 1.0, 0.0) - tail.real / math.pi


def _perron_exact_mpmath(mpmath, t: float, T: float = 1.0e4):
    """The same integral at the working precision: each tail by the exponential integral.

    int_T^inf t**(3/2 + i*tau) / (b + i*tau) dtau = -i t**(3/2 - b) E1(-x (b + iT)),
    x = ln t, and at t = 1 the integral of 1/(s(s-1)) by quadrature.
    """
    t, T = mpmath.mpf(t), mpmath.mpf(T)
    if t == 1:

        def f(tau):
            return mpmath.re(1 / ((1.5 + 1j * tau) * (0.5 + 1j * tau)))

        return mpmath.quad(f, [0, 1, 10, 100, 1000, T]) / mpmath.pi
    x = mpmath.log(t)
    tail = sum(
        sign * -1j * t ** (mpmath.mpf(1.5) - b) * mpmath.e1(-x * (b + 1j * T))
        for b, sign in ((mpmath.mpf(0.5), 1), (mpmath.mpf(1.5), -1))
    )
    return max(t - 1, 0) - mpmath.re(tail) / mpmath.pi


def _perron_gaps() -> list[float]:
    """|perron_kernel(t) - the closed form| at the CLI's five t."""
    return [abs(perron_kernel(t) - _perron_exact(t)) for t in CLI_T]


def test_perron_closed_form_against_mpmath():
    # The float closed form against the exponential integral at 30 digits,
    # at the CLI's five t and eight seeded t in [0.25, 8], |ln t| >= 0.1.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1999)
    seeded = []
    while len(seeded) < 8:
        t = float(rng.uniform(0.25, 8.0))
        if abs(math.log(t)) >= 0.1:
            seeded.append(t)
    with mpmath.workdps(30):
        for t in CLI_T + tuple(seeded):
            want = _perron_exact_mpmath(mpmath, t)
            assert abs(_perron_exact(t) - want) <= 2e-16 * max(1.0, t)


def test_perron_kernel_against_the_exact_truncated_integral():
    # The contract's perron_t_* checks compare the quadrature with the step
    # max(t - 1, 0), so their measured errors are truncation; against the
    # truncated integral itself the quadrature's own error shows.
    assert max(_perron_gaps()) <= 1e-13


def test_perron_exact_check_catches_a_fault_the_contract_misses(monkeypatch):
    # A relative fault of 1e-9 in the integrand moves perron_kernel(t) by
    # about 1e-9 * (t - 1): past the closed-form check, and far inside
    # every perron_t_* check's tolerance.
    real = contour.perron_integrand
    monkeypatch.setattr(contour, "perron_integrand", lambda t, tau: real(t, tau) * (1 + 1e-9))
    assert max(_perron_gaps()) > 1e-13
    perron_checks = list(itertools.islice(cli._suite_mellin(), len(CLI_T)))
    assert [name for name, *_ in perron_checks] == [f"perron_t_{t}" for t in CLI_T]
    assert all(ok for _, ok, *_ in perron_checks)


SHARED_T = 1000.0
PERIOD = 2.0 * math.pi / math.log(2.0)
DELTA = math.log2(3.0) - 1.5  # distance of the near-poles from the line


@pytest.mark.parametrize("k", [0, 552, 1000, 1103, 1104])
def test_near_pole_integrals_closed_form(k, monkeypatch):
    # Pole k is subtracted on the panels either side of tau_k = k*P: its
    # closed-form integral there must match quadrature of the principal
    # part 1/(s - s_k) = 1/(DELTA + i*u), one for every row.  k = 0 is
    # the tau = 0 panel alone, and k = 1104 the partial last panel [kP, T].
    # The quadrature runs on the window moved to start at 0 (the move and
    # the moved edges are exact differences): at tau ~ 1e4 a panel's
    # midpoint is rounded to 1e-12, which against 1/DELTA ~ 12 would
    # limit the reference to about 1e-11.
    T = 1.0e4
    edges = contour._edges(T, PERIOD)
    assert len(edges) == 1105 and edges[-2] < T < 1104 * PERIOD
    window = edges[max(k - 1, 0) : k + 2]
    _, integrals = contour._near_poles((1,), edges)
    assert integrals.shape == (1105,)
    monkeypatch.setattr(contour, "_ABS_TOL", 1e-10)
    start = window[0] - k * PERIOD
    (want,), _, _ = contour._adaptive_line(
        lambda mid, half: 1.0 / (DELTA + 1j * (contour._nodes(mid, half) + start)),
        window - window[0],
    )
    assert abs(integrals[k] - want) <= 1e-12


def test_near_pole_residues():
    # Against (1/2*pi*i) times the integral of each integrand, as a function
    # of s, around a circle of radius 0.02 about the pole s_k (trapezoid
    # rule, 16 points; the nearest other singularity is over 1.5 away), in
    # mpmath.  The constant's row is zeta(1-s) / (s(s-1)(3*2**(s-1) - 1)).
    # At k = 1000 and 1104, which the near-pole grid sends through
    # Riemann-Siegel, against each weight at the exact pole times mpmath's
    # zeta(1 - s_k) / ln 2 instead (two zeta calls, not 32).
    mpmath = pytest.importorskip("mpmath")
    orders = (1, 5)
    residues, _ = contour._near_poles(orders, contour._edges(1.0e4, PERIOD))

    def weights(s):
        return [
            mpmath.factorial(n) * mpmath.gamma(1 - s) / mpmath.gamma(n + 2 - s) for n in orders
        ] + [1 / (s * (s - 1))]

    def integrands(s):
        zeta_den = mpmath.zeta(1 - s) / (3 * mpmath.power(2, s - 1) - 1)
        return [w * zeta_den for w in weights(s)]

    def residue(f, pole, points=16, radius=0.02):
        total = 0
        for j in range(points):
            step = radius * mpmath.expjpi(2 * mpmath.mpf(j) / points)
            total += np.array(f(pole + step)) * step
        return np.array([complex(v / points) for v in total])

    with mpmath.workdps(20):
        log2_3 = mpmath.log(3, 2)
        for k in (0, 1, 100, 1000, 1104):
            pole = mpmath.mpc(1 - log2_3, k * 2 * mpmath.pi / mpmath.ln2)
            if k < 1000:
                want = residue(integrands, pole)
            else:
                zeta = mpmath.zeta(1 - pole) / mpmath.ln2
                want = np.array([complex(w * zeta) for w in weights(pole)])
            assert np.all(np.abs(residues[:, k] - want) <= 1e-9 * np.abs(want)), k


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
    # Every zeta value, at the quadrature's panels and at the near-poles,
    # comes from _zeta_grid.  The near-poles tau_k = k*P, k = 0..ceil(T/P),
    # are one grid on Re s = log2(3), centres (15m + 7)P and offsets
    # (j - 7)P: its first heights lie within one spacing of k*P, and the
    # rest of its last centre's pad it to a multiple of 15.
    heights = []
    poles = []
    nodes = []
    real_zeta = contour._zeta_grid
    real_integrands = contour._zeta_integrands

    def counted_zeta(s, offsets):
        heights.append((s[:, None] + 1j * np.ravel(offsets)).imag.ravel())
        if s.real[0] == LOG2_3:
            poles.append(heights[-1])
        return real_zeta(s, offsets)

    def counted_integrands(orders, tau, zeta):
        nodes.append(np.size(tau))
        assert zeta.shape == tau.shape
        return real_integrands(orders, tau, zeta)

    monkeypatch.setattr(contour, "_zeta_grid", counted_zeta)
    monkeypatch.setattr(contour, "_zeta_integrands", counted_integrands)
    zeta_contours((1, 2, 5), T=SHARED_T)
    # One height per integrand node, plus the near-pole grid; all distinct.
    k = np.arange(math.ceil(SHARED_T / PERIOD) + 1)
    m = np.arange(0, len(k), 15)
    grid = (((m + 7) * PERIOD)[:, None] + (np.arange(15) - 7) * PERIOD).ravel()
    tau = np.concatenate(heights)
    assert sum(nodes) > 0
    assert len(tau) == sum(nodes) + len(grid)
    assert len(np.unique(tau)) == len(tau)
    assert np.array_equal(np.concatenate(poles), grid)
    assert np.all(np.abs(grid[: len(k)] - k * PERIOD) <= np.spacing(k * PERIOD))


def test_moment_contour_fast(table_512):
    # Any order n >= 1 is accepted: 17 is the first the cap used to
    # refuse, and 512 the end of the table.
    for n in (1, 2, 17, 64, 512):
        (got,), _ = zeta_contours((n,), T=1000.0)
        assert abs(got - float(table_512[n])) <= 1e-3, n


def test_moment_contour_domain():
    for n in (0, -1):
        with pytest.raises(ValueError, match="moment order must be >= 1"):
            zeta_contours((n,), T=FAST_T)


def test_moment_contour_integer_orders():
    # A fractional order is refused before zeta is evaluated (its weight
    # row would otherwise be left unfilled); a numpy integer is accepted.
    with mock.patch.object(contour, "_zeta_grid", side_effect=AssertionError):
        with pytest.raises(ValueError, match="moment order not an integer"):
            zeta_contours((2, 1.5), T=100.0)
    assert zeta_contours((np.int64(2),), T=FAST_T) == zeta_contours((2,), T=FAST_T)


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


def test_mellin_suite_mesh_is_pinned(monkeypatch):
    # The node counts of the suite's contours at T = 1e4, counted through
    # the integrands and summed per refinement wave (one _panel_integrals
    # call, which hands the integrand its panels block by block):
    # zeta_contours((1, 2, 5)) evaluates 1,104 starting panels (16,560
    # nodes) in ceil(1104 / _BLOCK) blocks and 2,940 refinement nodes,
    # with 1,105 near-poles; the five Perron kernels 100,005 nodes.
    waves, blocks, poles, perron_nodes = [], [], [], []
    real_panel_integrals = contour._panel_integrals
    real_integrands = contour._zeta_integrands
    real_near_poles = contour._near_poles
    real_perron = contour.perron_integrand

    def counted_panel_integrals(f, mid, half):
        waves.append(0)
        blocks.append(0)
        return real_panel_integrals(f, mid, half)

    def counted_integrands(orders, tau, *rest):
        waves[-1] += np.size(tau)
        blocks[-1] += 1
        return real_integrands(orders, tau, *rest)

    def counted_near_poles(orders, edges):
        residues, integrals = real_near_poles(orders, edges)
        poles.append(residues.shape[1])
        return residues, integrals

    def counted_perron(t, tau):
        perron_nodes.append(np.size(tau))
        return real_perron(t, tau)

    monkeypatch.setattr(contour, "_panel_integrals", counted_panel_integrals)
    monkeypatch.setattr(contour, "_zeta_integrands", counted_integrands)
    monkeypatch.setattr(contour, "_near_poles", counted_near_poles)
    monkeypatch.setattr(contour, "perron_integrand", counted_perron)
    zeta_contours((1, 2, 5))
    assert waves[0] == 16_560
    assert blocks[0] == math.ceil(1104 / contour._BLOCK) > 1
    assert sum(waves[1:]) == 2_940
    assert poles == [1_105]
    for t in (0.5, 1.0, 1.5, 2.0, 4.0):
        perron_kernel(t)
    assert sum(perron_nodes) == 100_005
