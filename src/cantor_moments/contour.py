"""Double-precision verification of the vertical-line integral identities.

Three identities are checked numerically:

* the Perron kernel (1/2*pi*i) int t**s/(s(s-1)) ds over Re s = 3/2,
  which equals max(t - 1, 0);
* the line-integral representation of the n-th moment on Re s = -1/2;
* the line-integral representation of the moment-series constant on
  Re s = 3/2.

Verification targets 3-4 digits, so everything here runs in ordinary
double precision — the high-precision decimal arithmetic stays in
:mod:`cantor_moments.constant`.

All integrands satisfy f(conj s) = conj f(s), so integrals over
[-T, T] are evaluated as twice the real part over [0, T]; the symmetry
itself is asserted in the test suite.  The quadrature is adaptive
Gauss-Kronrod 7-15 with all panels of a refinement wave evaluated in one
vectorized batch, for one integrand or several sharing one mesh.

The moment and constant integrands all reduce to zeta(3/2 + i*tau), or
its conjugate, times elementary factors of tau, so :func:`zeta_contours`
integrates the constant's integrand together with the moment integrands
of any orders: one zeta evaluation per node serves them all, and a panel
is bisected while any of them misses its share of the tolerance.
Its starting panels are one period P = 2*pi/ln 2 of the denominators
3*2**(s-1) - 1 and 3*2**(-s) - 1 wide, so their zeros, which sit
delta = log2(3) - 3/2 ~ 0.085 off the lines at every height k*P, fall
on panel edges.  On each starting panel the principal parts
residue / (s - pole) of the two near-poles at its edges are subtracted
before quadrature and integrated in closed form (a logarithm) instead,
so the mesh only resolves what is smooth; the residues take one zeta
call at the poles.  Zeta, on arrays of points, is one Euler-Maclaurin
path with a cutoff solved from its remainder bound at every height and
applied per block of 64 points; the Dirichlet powers n**(-s) are built
multiplicatively from a smallest-prime-factor sieve, with exp taken only
at primes.  The Gamma ratio of the moment integrand is a finite product.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from .exact import bernoulli_numbers

# Verification-line constant: min |3*2**(sigma-1) - 1| on both lines
# (sigma = -1/2 and 3/2 give the same modulus floor 3*2**-1.5 - 1).
_DENOM_FLOOR = 3.0 * 2.0**-1.5 - 1.0  # ~0.06066


# Default truncation height of the line integrals, and the quadrature's
# absolute tolerance and evaluation budget.
_T = 1.0e4
_ABS_TOL = 1.0e-4
_MAX_EVALS = 2_000_000


class QuadratureError(ValueError):
    """Budget exhausted before reaching tolerance.

    Carries the best estimate and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, achieved_error: float):
        super().__init__(f"{message}: best estimate {estimate!r}, achieved error "
                         f"{achieved_error:.3e}")
        self.estimate = estimate
        self.achieved_error = achieved_error


# ---------------------------------------------------------------------------
# Riemann zeta on Re s > 0
# ---------------------------------------------------------------------------

_EM_ORDER = 12
_B_OVER_FACT = tuple(
    float(b / factorial(2 * j))
    for j, b in enumerate(bernoulli_numbers(2 * _EM_ORDER + 2)[::2])
)
_EM_TOL = 1.0e-10
# Cutoffs are solved for half the guarded tolerance, so rounding in the
# closed form can never trip the remainder guard.
_EM_TARGET = _EM_TOL / 2
_DIRICHLET_BLOCK = 64


def _spf_sieve(M: int) -> np.ndarray:
    """Smallest prime factor of every n <= M (spf[n] = n for primes)."""
    spf = np.arange(M + 1)
    for p in range(2, math.isqrt(M) + 1):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return spf


def _dirichlet_sum(s: np.ndarray, M) -> np.ndarray:
    """sum_{n=1..M} n**(-s), with exp taken only at the primes.

    M is one cutoff for all of s, or one per block of _DIRICHLET_BLOCK
    consecutive points; the sieve is built once, for the largest.  Every
    composite n = p * (n/p), p = spf(n), gets n**(-s) as
    p**(-s) * (n/p)**(-s); both factors are below 2**j when n lies in
    [2**j, 2**(j+1)), so one gather-and-multiply per such level fills the
    table, a block of nodes at a time and only up to that block's cutoff.
    """
    cutoffs = np.broadcast_to(M, (-(-len(s) // _DIRICHLET_BLOCK),))
    top = int(cutoffs.max())
    spf = _spf_sieve(top)
    n = np.arange(top + 1)
    primes = np.flatnonzero(spf[2:] == n[2:]) + 2
    log_p = np.log(primes)[:, None]
    levels = []
    for j in range(2, top.bit_length()):
        lo, hi = 2**j, min(2 ** (j + 1), top + 1)
        c = n[lo:hi][spf[lo:hi] != n[lo:hi]]
        levels.append((c, spf[c], c // spf[c]))
    out = np.empty(s.shape, dtype=np.complex128)
    table = np.empty((top + 1, _DIRICHLET_BLOCK), dtype=np.complex128)
    for lo, cutoff in zip(range(0, len(s), _DIRICHLET_BLOCK), cutoffs):
        block = s[lo : lo + _DIRICHLET_BLOCK]
        w = table[: cutoff + 1, : len(block)]
        w[1] = 1.0
        k = np.searchsorted(primes, cutoff, side="right")
        w[primes[:k]] = np.exp(-log_p[:k] * block[None, :])
        for c, p, q in levels:
            k = np.searchsorted(c, cutoff, side="right")
            w[c[:k]] = w[p[:k]] * w[q[:k]]
        out[lo : lo + len(block)] = w[1:].sum(axis=0)
    return out


def _zeta_em(s: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta, each block of _DIRICHLET_BLOCK points at its cutoff in M."""
    acc = _dirichlet_sum(s, M)
    logM = np.log(np.repeat(M, _DIRICHLET_BLOCK)[: len(s)])
    acc += np.exp(-(s - 1) * logM) / (s - 1)
    acc -= np.exp(-s * logM) / 2.0
    rising = s.copy()
    for j in range(1, _EM_ORDER + 1):
        acc += _B_OVER_FACT[j] * rising * np.exp(-(s + (2 * j - 1)) * logM)
        rising = rising * (s + (2 * j - 1)) * (s + 2 * j)
    # Remainder bound: first omitted term times |s + 2J + 1| / (sigma + 2J + 1).
    sigma = s.real
    rem = (
        abs(_B_OVER_FACT[_EM_ORDER + 1])
        * np.abs(rising)
        * np.exp(-(sigma + 2 * _EM_ORDER + 1) * logM)
        * np.abs(s + 2 * _EM_ORDER + 1)
        / (sigma + 2 * _EM_ORDER + 1)
    )
    if not np.all(rem < _EM_TOL):
        raise ValueError(
            "zeta Euler-Maclaurin remainder above tolerance — cutoff too small"
        )
    return acc


def _em_cutoff(s: np.ndarray) -> np.ndarray:
    """Smallest M whose Euler-Maclaurin remainder bound is below target.

    The bound checked in :func:`_zeta_em` is
    C(s) * M**-(sigma + 2J + 1) with
    C(s) = |B_{2J+2}| / (2J+2)! * |s (s+1) ... (s+2J+1)| / (sigma + 2J + 1),
    so M follows in closed form.
    """
    exponent = s.real + 2 * _EM_ORDER + 1
    log_c = math.log(abs(_B_OVER_FACT[_EM_ORDER + 1])) - np.log(exponent)
    for k in range(2 * _EM_ORDER + 2):
        log_c += np.log(np.abs(s + k))
    M = np.ceil(np.exp((log_c - math.log(_EM_TARGET)) / exponent))
    return np.maximum(24, M).astype(np.int64)


def _zeta_line(s: np.ndarray) -> np.ndarray:
    """Vectorized zeta for arrays with Re s > 0, s != 1; error under 1e-10.

    Points are sorted by the cutoff M solved for each; every block of
    _DIRICHLET_BLOCK sorted points is evaluated at its largest M and its
    remainder bound checked there.
    """
    s = np.asarray(s, dtype=np.complex128)
    out = np.empty(s.shape, dtype=np.complex128)
    if not len(s):
        return out
    M = _em_cutoff(s)
    order = np.argsort(M, kind="stable")
    starts = np.arange(0, len(s), _DIRICHLET_BLOCK)
    out[order] = _zeta_em(s[order], np.maximum.reduceat(M[order], starts))
    return out


# ---------------------------------------------------------------------------
# Adaptive vertical-line quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7-15 (QUADPACK QK15, Piessens et al. 1983): the positive
# Kronrod nodes in decreasing order with their Kronrod weights, and the
# Gauss weights of _XK[1], _XK[3], _XK[5]; the centre weights come below.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
# All 15 nodes in increasing order; the 7 Gauss nodes are the odd-index
# ones, so one batch of 15 evaluations yields both rules.
_K15_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_K15_WEIGHTS = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_G7_WEIGHTS = np.concatenate([_WG, [0.417959183673469387755102040816327], _WG[::-1]])


def _panel_integrals(f, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod 7-15 on each panel [a_i, b_i], one batch eval.

    f maps an array of nodes to one row of values per integrand (a 1-D
    result is one row).  Returns the K15 values and the error estimates
    |K15 - G7|, each of shape (rows, panels).
    """
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    x = (mid[:, None] + half[:, None] * _K15_NODES[None, :]).ravel()
    y = f(x)
    if not np.all(np.isfinite(y.real) & np.isfinite(y.imag)):
        raise ValueError("integrand produced a non-finite value")
    y = y.reshape(-1, len(a), 15)
    k15 = half * (y @ _K15_WEIGHTS)
    g7 = half * (y[..., 1::2] @ _G7_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _adaptive_line(f, edges: np.ndarray):
    """Adaptive quadrature of every row of f over [0, T], T = edges[-1].

    Starts from the caller's panels [edges[i], edges[i+1]] (fitted to the
    integrand: a fraction of its oscillation period, or a mesh whose
    edges sit at its near-poles), then bisects every panel where any
    row's Gauss-Kronrod error estimate |K15 - G7| exceeds its share
    _ABS_TOL * width / (2T) of the budget, re-evaluating only split
    panels, until all pass or the _MAX_EVALS budget runs out.  All rows
    share one mesh, so each node is evaluated once for all of them.

    Returns (integrals, error_estimates, evaluations), one integral and
    one estimate per row.  A QuadratureError carries the estimate and
    error of the row with the largest error.
    """
    T = float(edges[-1])
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals, errs = _panel_integrals(f, a, b)
    evals = 15 * len(a)

    while True:
        allowance = _ABS_TOL * (b - a) / (2.0 * T)
        bad = (errs > allowance).any(axis=0)
        if not bad.any():
            break
        if evals + 30 * int(bad.sum()) > _MAX_EVALS:
            worst = int(np.argmax(errs.sum(axis=1)))
            raise QuadratureError(
                "quadrature budget exhausted before tolerance",
                float(vals[worst].sum().real),
                float(errs[worst].sum()),
            )
        keep = ~bad
        ba, bb = a[bad], b[bad]
        mids = (ba + bb) / 2.0
        new_a = np.concatenate([a[keep], ba, mids])
        new_b = np.concatenate([b[keep], mids, bb])
        split_vals, split_errs = _panel_integrals(
            f, np.concatenate([ba, mids]), np.concatenate([mids, bb])
        )
        evals += 30 * len(ba)
        a, b = new_a, new_b
        # compress keeps the rows C-contiguous, so each row's final sum is
        # numpy's pairwise sum, as for a single integrand.
        vals = np.concatenate([vals.compress(keep, axis=1), split_vals], axis=1)
        errs = np.concatenate([errs.compress(keep, axis=1), split_errs], axis=1)

    return vals.sum(axis=1), errs.sum(axis=1), evals


# The line denominators 3*2**(s-1) - 1 (Re s = -1/2) and 3*2**(-s) - 1
# (Re s = 3/2) have zeros 0.085 off the line at every tau_k = k * P,
# P = 2*pi/ln 2 ~ 9.06.  Panels exactly P wide from tau = 0 put each of
# these near-poles on a panel edge, where the Kronrod nodes cluster.
_POLE_PERIOD = 2.0 * math.pi / math.log(2.0)


def _pole_aligned_edges(T: float) -> np.ndarray:
    """Panel edges 0, P, 2P, ... below T, then T."""
    return np.append(np.arange(0.0, T, _POLE_PERIOD), T)


# The near-poles themselves are the zeros s_k = 1 - log2(3) + i*tau_k of
# 3*2**(s-1) - 1 and s'_k = log2(3) + i*tau_k of 3*2**(-s) - 1, each
# delta = log2(3) - 3/2 ~ 0.085 off its line: on it, s - s_k = delta + i*u
# and s - s'_k = -delta + i*u, u = tau - tau_k.
_LOG2_3 = math.log2(3.0)
_POLE_OFFSET = _LOG2_3 - 1.5


# ---------------------------------------------------------------------------
# The three identities
# ---------------------------------------------------------------------------


def perron_integrand(t: float, tau: np.ndarray) -> np.ndarray:
    """t**s / (s(s-1)) on s = 3/2 + i*tau."""
    s = 1.5 + 1j * np.asarray(tau, dtype=np.float64)
    return t**s / (s * (s - 1))


def perron_kernel(t: float, *, T: float = _T) -> float:
    """(1/2*pi) int_{-T}^{T} t**(3/2+i*tau) / ((3/2+i*tau)(1/2+i*tau)) dtau.

    Converges to max(t - 1, 0) as T grows, with truncation error
    O(t**(3/2) / T).

    Raises:
        ValueError: t <= 0, or T < 10.
        QuadratureError: evaluation budget exhausted before tolerance.
    """
    if t <= 0:
        raise ValueError("kernel argument must be positive")
    if T < 10:
        raise ValueError("truncation height must be >= 10")
    # Quarter-period panels against the e^{i tau ln t} oscillation
    # (evaluations are cheap here — no zeta).
    period = 2 * math.pi / abs(math.log(t)) if t != 1.0 else math.inf
    width = min(2.0, period / 4)
    edges = np.linspace(0.0, T, max(8, math.ceil(T / width)) + 1)
    integrals, _, _ = _adaptive_line(lambda tau: perron_integrand(t, tau), edges)
    integral = complex(integrals[0])
    return 2.0 * integral.real / (2.0 * math.pi)


def _zeta_integrands(orders: tuple[int, ...], tau: np.ndarray) -> np.ndarray:
    """The moment integrand for each n in orders, then the constant's.

    One row per integrand, all from one zeta evaluation at
    3/2 + i*tau: the moment integrand on s = -1/2 + i*tau needs
    zeta(1 - s) = zeta(3/2 - i*tau) = conj zeta(3/2 + i*tau) (bit for bit
    in :func:`_zeta_line`), and the constant's denominator 3*2**(-s) - 1 on
    s = 3/2 + i*tau is the conjugate of the moments' 3*2**(s-1) - 1 on
    s = -1/2 + i*tau.

    The Gamma ratio Gamma(n+1)Gamma(1-s)/Gamma(n+2-s) of the moment
    integrand collapses exactly to n! / prod_{j=1..n+1} (j - s) — an
    overflow-free form for n <= 16 at any height.
    """
    tau = np.asarray(tau, dtype=np.float64)
    s = 1.5 + 1j * tau
    zeta = _zeta_line(s)
    moment_s = -0.5 + 1j * tau
    den = 3.0 * 2.0 ** (moment_s - 1) - 1.0
    if np.abs(den).min() < 0.9 * _DENOM_FLOOR:
        raise ValueError("verification line drifted: denominator below floor")
    out = np.empty((len(orders) + 1,) + tau.shape, dtype=np.complex128)
    zeta_conj = np.conj(zeta)
    for row, n in enumerate(orders):
        out[row] = _gamma_ratio(n, moment_s) * zeta_conj / den
    out[-1] = zeta / (s * (s - 1) * np.conj(den))
    return out


def _gamma_ratio(n: int, s: np.ndarray) -> np.ndarray:
    """Gamma(n+1)Gamma(1-s)/Gamma(n+2-s) as n! / prod_{j=1..n+1} (j - s)."""
    ratio = np.full(s.shape, float(factorial(n)), dtype=np.complex128)
    for j in range(1, n + 2):
        ratio = ratio / (j - s)
    return ratio


def constant_contour_integrand(tau: np.ndarray) -> np.ndarray:
    """zeta(s) / (s(s-1)(3*2**(-s) - 1)) on s = 3/2 + i*tau."""
    return _zeta_integrands((), tau)[0]


def _near_poles(orders: tuple[int, ...], edges: np.ndarray):
    """Residues at the near-poles tau_k = k*P, k = 0..K, and their panel integrals.

    Rows as in :func:`_zeta_integrands`.  Pole k is subtracted on the
    starting panels k - 1 and k (see :func:`_principal_parts`), so its
    principal part residue / (side*delta + i*u) is integrated in closed
    form over [edges[k-1], edges[k+1]] clipped to [0, T]: the integral is
    -i * [log(delta + i*side*u)], whose argument keeps real part
    delta > 0, so the principal branch is continuous.  One zeta call at
    the s'_k serves every row: zeta(1 - s_k) = conj zeta(s'_k).

    Returns (residues, integrals, side), the first two of shape
    (rows, K + 1), and side = +1 for the moment rows, -1 for the constant.
    """
    K = len(edges) - 1
    k = np.arange(K + 1)
    tau_k = k * _POLE_PERIOD
    constant_pole = _LOG2_3 + 1j * tau_k  # 3*2**(-s) - 1 has derivative -ln 2 here
    moment_pole = 1.0 - np.conj(constant_pole)  # 3*2**(s-1) - 1: derivative ln 2
    zeta = _zeta_line(constant_pole)
    ln2 = math.log(2.0)
    residues = np.empty((len(orders) + 1, K + 1), dtype=np.complex128)
    for row, n in enumerate(orders):
        residues[row] = _gamma_ratio(n, moment_pole) * np.conj(zeta) / ln2
    residues[-1] = zeta / (constant_pole * (constant_pole - 1) * -ln2)
    side = np.ones((len(orders) + 1, 1))
    side[-1] = -1.0
    lo = edges[np.maximum(k - 1, 0)] - tau_k
    hi = edges[np.minimum(k + 1, K)] - tau_k
    integrals = -1j * (
        np.log(_POLE_OFFSET + 1j * side * hi) - np.log(_POLE_OFFSET + 1j * side * lo)
    )
    return residues, integrals, side


def _principal_parts(residues: np.ndarray, side: np.ndarray, tau: np.ndarray):
    """Every row's principal parts at the two near-poles bounding tau's starting panel.

    Nodes are interior to their panels, so the panel index floor(tau/P)
    is constant on each, and what is left after subtraction is smooth.
    """
    k = np.floor(tau / _POLE_PERIOD).astype(np.intp)
    parts = np.zeros(residues.shape[:1] + tau.shape, dtype=np.complex128)
    for j in (k, k + 1):
        parts += residues[:, j] / (side * _POLE_OFFSET + 1j * (tau - j * _POLE_PERIOD))
    return parts


def zeta_contours(
    orders: tuple[int, ...], *, T: float = _T
) -> tuple[tuple[float, ...], float]:
    """The moment and constant line integrals, integrated as one.

    Returns, for each n in orders, the numerical moment
    (2/3) * (1/2*pi) int_{-T}^{T} of the moment integrand on Re s = -1/2,
    and the numerical constant 1 + (2/3) * (1/2*pi) int_{-T}^{T} of the
    constant integrand on Re s = 3/2; to be compared against the exact
    moments and the certified constant.  Truncation decays like O(1/T).
    ``zeta_contours(())[1]`` is the constant alone and
    ``zeta_contours((n,))[0][0]`` one moment alone.

    All integrands share the pole-aligned mesh, refined wherever any of
    them needs it, so zeta is evaluated once per node for all of them.
    On each starting panel [kP, min((k+1)P, T)] the principal parts of
    the near-poles at k and k+1 are subtracted from every row before
    quadrature, and their exact integrals added back: what the mesh then
    resolves is smooth, so it needs about 7x fewer nodes at T = 1e4.
    The mesh depends on which rows are integrated together, so a value
    can differ in its last digits between calls with different orders.

    Raises:
        ValueError: an order outside [1, 16], or T < 10.
        QuadratureError: evaluation budget exhausted before tolerance
            (its estimate is of the integral with the principal parts
            subtracted).
    """
    if not all(1 <= n <= 16 for n in orders):
        raise ValueError("moment order out of [1, 16]")
    if T < 10:
        raise ValueError("truncation height must be >= 10")
    edges = _pole_aligned_edges(T)
    residues, pole_integrals, side = _near_poles(orders, edges)
    integrals, _, _ = _adaptive_line(
        lambda tau: _zeta_integrands(orders, tau)
        - _principal_parts(residues, side, tau),
        edges,
    )
    integrals = integrals + (residues * pole_integrals).sum(axis=1)
    moments = (2.0 / 3.0) * 2.0 * integrals[:-1].real / (2.0 * math.pi)
    constant = 1.0 + (2.0 / 3.0) * 2.0 * integrals[-1].real / (2.0 * math.pi)
    return tuple(float(m) for m in moments), float(constant)

