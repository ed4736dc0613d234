"""Double-precision verification of the vertical-line integral identities.

Three identities are checked numerically:

* the Perron kernel (1/2*pi*i) int t**s/(s(s-1)) ds over Re s = 3/2,
  which equals max(t - 1, 0);
* the line-integral representation of the n-th moment on Re s = -1/2;
* the line-integral representation of the moment-series constant,
  whose integrand on Re s = 3/2 becomes, under s -> 1 - s, the moment
  integrand on Re s = -1/2 with the weight n! / prod_{j=1..n+1} (j - s)
  replaced by 1/(s(s-1)), the sum of those weights over n >= 1.

Verification targets 3-4 digits, so everything here runs in ordinary
double precision — the high-precision decimal arithmetic stays in
:mod:`cantor_moments.constant`.

All integrands satisfy f(conj s) = conj f(s), so integrals over
[-T, T] are evaluated as twice the real part over [0, T]; the symmetry
itself is asserted in the test suite.  The quadrature is adaptive
Gauss-Kronrod 7-15, for one integrand or several sharing one mesh.  A
refinement wave streams its panels through the integrand in vectorized
blocks of at most _BLOCK panels, each reduced to its per-panel K15 and G7
sums before the next is built, so the working set is one block plus the
wave's per-panel bookkeeping, and does not grow with T.  Both
line integrals start from equal panels built by one function,
:func:`_edges`, which also checks T and the evaluation budget: P wide
(below) for the zeta rows, and for the Perron kernel no wider than P nor
than one period 2*pi/|ln t| of its t**(i*tau) oscillation.  A panel is
carried as its midpoint and half-width: the half-width starts at exactly
half the starting width and is halved exactly at each bisection, so the
panels of one refinement level share it to the last bit (a width taken
from rounded edges would differ from panel to panel).

Every row of :func:`zeta_contours`, each moment and the constant, is
weight * zeta(1 - s) / (3*2**(s-1) - 1) on Re s = -1/2, so one zeta
evaluation per node serves them all, and a panel is bisected while any
of them misses its share of the tolerance.  Its starting panels are one
period P = 2*pi/ln 2 of the denominator wide, so its zeros s_k, which
sit delta = log2(3) - 3/2 ~ 0.085 off the line at every height k*P,
fall on panel edges.  On each starting panel the principal parts
residue / (s - s_k) of the two near-poles at its edges are subtracted
before quadrature and integrated in closed form (a logarithm) instead,
so the mesh only resolves what is smooth.  The weights are finite
products.

Zeta is evaluated on grids: zeta(s_p + i*d_j) for centres s_p and node
offsets d_j (:func:`_zeta_grid`).  The quadrature's panels of one width
are one grid, their midpoints with the offsets half*x_j of the 15
Kronrod nodes, and so are the near-poles k*P on Re s = log2(3): centres
(15m + 7)P with the offsets (j - 7)P, j < 15 (:func:`_residues`).  Every
Dirichlet term factors as n**(-x_p) * n**(-side - i*d_j), so the
Dirichlet sums of a run of 64 centres are one product of a table per
centre with a table per side and node offset, not a table per node: the
grid factorization behind Odlyzko and Schoenhage's multi-evaluation of
zeta (Trans. AMS 309, 1988).  One function, :func:`_dirichlet_sum`,
forms it for both paths: Euler-Maclaurin with x = s_p and the one side
0, Riemann-Siegel with x = i*Im s_p and the sides sigma and 1 - sigma
of its two main sums.  Each table is built multiplicatively from a
smallest-prime-factor sieve, with exp taken only at primes.  What a
block's tables share with the rest of its wave (the sieve, and per real
part the correction coefficients) is cached, so it is built once, not
once per block.

Each centre takes one of two paths, chosen from one error bound, at its
lowest node.  Riemann-Siegel, in Arias de Reyna's form for any real
part, serves a centre where its truncation bound with 7 correction terms
is below target there.  Every term of that bound is proportional to
a**(-sigma - K), a = sqrt(tau/2pi), so it falls with the height, and
the theorem's conditions only get easier as a grows: below target at
the lowest node, it is below target at every node, so it is checked
there alone.  On Re s = 3/2 and log2(3) that is every height from about
1650 up, with N = floor(a) <= 39 at 1e4.  Its main sums run to each
centre's smallest N, and each node whose N is larger (N changes at most
once across a centre's nodes there) adds its last term alone; its
correction series are polynomials in p**2, since C_k(p) has the parity
of k.  chi(s) is built in logarithms, with Stirling's series for
log Gamma(1 - s), whose remainder is bounded on the served nodes.
Euler-Maclaurin serves the rest, each centre summed to its own cutoff,
solved from its remainder bound at the centre's highest node, and checks
that bound at every node.  Each path solves its own cutoffs or bounds
from the centres and offsets alone, and raises above 1e-10, so no value
depends on which centres share a call, nor on _BLOCK or _DIRICHLET_BLOCK.
"""

from __future__ import annotations

import functools
import math
from math import factorial

import numpy as np

from .exact import _as_int, bernoulli_numbers

# Verification-line constant: min |3*2**(s-1) - 1| on Re s = -1/2.
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


@functools.lru_cache(maxsize=None)
def _factorization(bits: int):
    """The primes below 2**bits with their logarithms, and the composites by level.

    Level j holds the composites c in [2**j, 2**(j+1)) with p = spf(c)
    and c/p, both below 2**j.  Cached by bit length (a few dozen at
    most), so the blocks of a quadrature wave or of a line share one
    sieve instead of building one each; the arrays are read-only.
    """
    top = 2**bits - 1
    spf = _spf_sieve(top)
    n = np.arange(top + 1)
    primes = np.flatnonzero(spf[2:] == n[2:]) + 2
    levels = []
    for j in range(2, bits):
        lo, hi = 2**j, 2 ** (j + 1)
        c = n[lo:hi][spf[lo:hi] != n[lo:hi]]
        levels.append((c, spf[c], c // spf[c]))
    arrays = (primes, np.log(primes)[:, None])
    for a in arrays + sum(levels, ()):
        a.flags.writeable = False
    return *arrays, levels


def _powers(x: np.ndarray, cutoff: int) -> np.ndarray:
    """The table w[n, j] = n**(-x[j]) for 1 <= n <= cutoff; row 0 is unset.

    exp is taken only at the primes.  Every composite n = p * (n/p),
    p = spf(n), gets n**(-x) as p**(-x) * (n/p)**(-x); both factors are
    below 2**j when n lies in [2**j, 2**(j+1)), so one gather-and-multiply
    per such level of :func:`_factorization` fills the table.
    """
    primes, log_p, levels = _factorization(cutoff.bit_length())
    w = np.empty((cutoff + 1, len(x)), dtype=np.complex128)
    w[1] = 1.0
    k = np.searchsorted(primes, cutoff, side="right")
    w[primes[:k]] = np.exp(-log_p[:k] * x[None, :])
    for c, p, q in levels:
        k = np.searchsorted(c, cutoff, side="right")
        w[c[:k]] = w[p[:k]] * w[q[:k]]
    return w


def _product(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_n w[n, p] * table[n, j] for complex w and table, indexed [j, p].

    One real einsum on the (real, imaginary) views of both: its loop runs
    along p, contiguous in w and in the product, several times faster
    than a complex einsum or the other layouts.  einsum, not @: with
    threaded BLAS on 2 cores, zeta_contours took 0.4 s instead of 0.1 s
    in 5 of 14 runs (numpy 2.4, OpenBLAS).  The CLI starts BLAS on one
    thread, but library callers, the tests and perfbench/tracer.py load
    numpy first and keep the pool.
    """
    out = np.einsum("np,nj->jp", w.view(np.float64), table.view(np.float64))
    product = np.empty((table.shape[1], w.shape[1]), dtype=np.complex128)
    np.subtract(out[0::2, 0::2], out[1::2, 1::2], out=product.real)
    np.add(out[1::2, 0::2], out[0::2, 1::2], out=product.imag)
    return product


def _dirichlet_sum(x, sides, cutoffs, offsets) -> np.ndarray:
    """sum_{n <= cutoffs_p} n**(-x_p - sides_k - i*offsets_j), indexed [k, p, j].

    The one place the grid factorization is formed, for both zeta paths:
    each term is n**(-x_p) times n**(-sides_k - i*offsets_j), so the sums
    of a run of _DIRICHLET_BLOCK consecutive centres x_p are one
    :func:`_product` of the run's table of n**(-x_p) with the call's one
    table of n**(-sides_k - i*offsets_j), every side at once.  The runs
    are formed here alone: each run's table comes from :func:`_powers`,
    filled to the run's largest cutoff, and is masked to each centre's
    own by setting the terms past it to 0, so a centre's sums do not
    depend on which centres share its run.
    """
    top = int(cutoffs.max())
    n = np.arange(1, top + 1)
    phases = _powers(1j * offsets, top)[1:]
    table = np.exp(-np.outer(np.log(n), sides))[:, :, None] * phases[:, None, :]
    table = table.reshape(top, -1)
    out = np.empty((len(sides), len(x), len(offsets)), dtype=np.complex128)
    for lo in range(0, len(x), _DIRICHLET_BLOCK):
        cut = cutoffs[lo : lo + _DIRICHLET_BLOCK]
        w = _powers(x[lo : lo + _DIRICHLET_BLOCK], int(cut.max()))[1:]
        w[n[: len(w), None] > cut] = 0
        sums = _product(w, table[: len(w)]).reshape(len(sides), len(offsets), -1)
        out[:, lo : lo + len(cut)] = sums.transpose(0, 2, 1)
    return out


def _zeta_em(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta at s_p + i*d_j for 1-D centres s and offsets d, indexed [p, j].

    Each centre's cutoff M_p is solved at its highest node
    (:func:`_em_cutoff`; it grows with the height), and both its Dirichlet
    sums (:func:`_dirichlet_sum`, x = s_p, side 0) and its tail terms stop
    at M_p.  The remainder bound is checked at every node.
    """
    x = s[:, None] + 1j * d
    M = _em_cutoff(x[np.arange(len(s)), np.abs(x.imag).argmax(axis=1)])
    acc = _dirichlet_sum(s, np.zeros(1), M, d)[0]
    cutoff = M[:, None].astype(np.float64)
    # M**-x once per node; each later term is M**-(x + 2j - 1), a real step.
    power = np.exp(-x * np.log(cutoff))
    acc += power * (cutoff / (x - 1) - 0.5)
    power = power / cutoff
    rising = x.copy()
    for j in range(1, _EM_ORDER + 1):
        acc += _B_OVER_FACT[j] * rising * power
        rising = rising * (x + (2 * j - 1)) * (x + 2 * j)
        power = power / (cutoff * cutoff)
    # Remainder bound: first omitted term times |s + 2J + 1| / (sigma + 2J + 1).
    sigma = x.real
    rem = (
        abs(_B_OVER_FACT[_EM_ORDER + 1])
        * np.abs(rising)
        * np.abs(power)
        * np.abs(x + 2 * _EM_ORDER + 1)
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


# Riemann-Siegel, in the general-sigma form of Arias de Reyna ("High
# precision computation of Riemann's zeta function by the Riemann-Siegel
# formula", Math. Comp. 80, 2011): zeta(s) = R(s) + chi(s) conj R(1 - conj s)
# with, for Im s = tau > 0, a = sqrt(tau/2pi), N = floor(a), p = 1 - 2(a - N),
#   R(s) = sum_{n<=N} n**-s + (-1)**(N-1) U a**-sigma sum_{k<K} C_k(p)/a**k + RS_K,
#   U = exp(-i(tau/2 ln(tau/2pi) - tau/2 - pi/8)),
#   C_k(p) = sum_l d_kl(sigma) F^(3k-2l)(p) / (pi**(2k-l) (2i)**l),
# F(z) = (exp(pi*i*(z**2/2 + 3/8)) - i*sqrt(2)*cos(pi*z/2)) / (2*cos(pi*z)).
# _RS_TERMS = K = 7 serves the lowest heights on Re s = 3/2: the theorem
# holds from tau = 2pi * 37.5K ~ 236K up (3K < 2a**2/25), and at K = 6
# the bound first meets the target near tau = 3040, at K = 7 from 1650.
_RS_TERMS = 7
# Panels per block of a quadrature wave: the integrand, and so zeta, sees
# at most _BLOCK panels (15 * _BLOCK nodes) at a time, and the near-pole
# grid as many centres, so the working set does not grow with T.  Chosen by
# measurement: 68 panels pay their fixed per-block work about 17 times a
# wave at T = 1e4, and 256 panels raise the peak.  No value depends on it.
_BLOCK = 128


def _rs_derivatives() -> np.ndarray:
    """Row m: Taylor coefficients at 0 of F^(m), m <= 3(K - 1), degree < 48.

    F is entire and even.  Cauchy's formula on |z| = 2 by the trapezoid
    rule on 128 points is one discrete Fourier transform (a product with
    its 64 x 128 matrix, which costs less than importing numpy.fft), and
    gives coefficient n of F within about 1e-15 * 2**-n (|F| <= 10 on the
    circle); the odd ones are zero.
    Cut at degree 48, no C_k(p) moves by 1e-18 on |p| <= 1.
    """
    z = 2.0 * np.exp(2j * np.pi * np.arange(128) / 128)
    f = (
        np.exp(1j * np.pi * (z * z / 2 + 3 / 8)) - 1j * math.sqrt(2) * np.cos(np.pi * z / 2)
    ) / (2 * np.cos(np.pi * z))
    n = np.arange(64)
    dft = np.exp(-2j * np.pi * (np.outer(n, np.arange(128)) % 128) / 128)
    c = np.einsum("nj,j->n", dft, f) / 128 / 2.0**n
    c[1::2] = 0
    rows = [c]
    for _ in range(3 * (_RS_TERMS - 1)):
        rows.append(np.append(rows[-1][1:] * np.arange(1, 64), 0))
    return np.array(rows)[:, :48]


_RS_DERIVATIVES = _rs_derivatives()


def _rs_coefficients(sigma: float, terms: int) -> np.ndarray:
    """C_k(p), k < terms, as rows of polynomial coefficients in p**2.

    F^(m) has the parity of m, so C_k(p) has the parity of k: row k holds
    c_km with C_k(p) = p**(k mod 2) * sum_m c_km p**(2m).

    d_00 = 1 and, with m = 3k - 2l (Arias de Reyna's recursion),
    d_kl = d_{k-1,l}/(4m) + (1 - 2 sigma) d_{k-1,l-1}/(2m) - (m+1) d_{k-1,l-2}
    for m != 0, and d_kl = -sum_{r<l} (-1)**(l-r) (2l-2r)!/(l-r)! d_kr.
    """
    d = {(0, 0): 1.0}
    for k in range(1, terms):
        for l in range(3 * k // 2 + 1):
            m = 3 * k - 2 * l
            if m:
                d[k, l] = (
                    d.get((k - 1, l), 0.0) / (4 * m)
                    + (1 - 2 * sigma) * d.get((k - 1, l - 1), 0.0) / (2 * m)
                    - (m + 1) * d.get((k - 1, l - 2), 0.0)
                )
            else:
                d[k, l] = -sum(
                    (-1) ** (l - r) * factorial(2 * (l - r)) / factorial(l - r) * d[k, r]
                    for r in range(l)
                )
    weights = np.zeros((terms, len(_RS_DERIVATIVES)), dtype=np.complex128)
    for (k, l), d_kl in d.items():
        weights[k, 3 * k - 2 * l] = d_kl / (math.pi ** (2 * k - l) * (2j) ** l)
    out = np.einsum("km,mn->kn", weights, _RS_DERIVATIVES)
    return np.array([row[k % 2 :: 2] for k, row in enumerate(out)])


@functools.lru_cache(maxsize=8)
def _rs_series(sigma: float, terms: int) -> np.ndarray:
    """C_k(p), k < terms, of the sides sigma and 1 - sigma as real columns.

    Cached per real part, so a wave or a line builds them once, not once
    per block; read-only.
    """
    C = np.concatenate([_rs_coefficients(x, terms) for x in (sigma, 1.0 - sigma)])
    C = np.concatenate([C.real, C.imag]).T  # real columns, for one real product
    C.flags.writeable = False
    return C


def _rs_side_bound(sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Bound on |RS_K| for one side of the formula, real part sigma.

    3 c Gamma(K/2) / (b a)**K, with b = 2 and c = 9**sigma / (sqrt(2) pi)
    for sigma > 0, b = sqrt((3 - 2 ln 2) pi) and c = 2**-sigma / (sqrt(2) pi)
    otherwise: b and c as in Arias de Reyna's Theorem 2 (part I, eq. 26),
    and the factor 3 as his own implementation (mpmath's rszeta) applies.
    """
    b = np.where(sigma > 0, 2.0, math.sqrt((3.0 - 2.0 * math.log(2.0)) * math.pi))
    c = np.where(sigma > 0, 9.0**sigma, 2.0**-sigma) / (math.sqrt(2.0) * math.pi)
    return 3.0 * c * math.gamma(_RS_TERMS / 2) / (b * a) ** _RS_TERMS


def _log_chi(s: np.ndarray) -> np.ndarray:
    """log chi(s) for Im s = tau > 0.

    log chi(s) = s ln 2 + (s - 1) ln pi + log sin(pi s/2) + log Gamma(1 - s),
    in logarithms, since sin(pi s/2) alone overflows and Gamma(1 - s)
    underflows by tau ~ 450.  Here log sin(pi s/2) =
    log((i/2) exp(-i pi s/2)) + log(1 - exp(i pi s)), less its last term:
    that is log1p(0) = 0 wherever chi is taken (tau > 1649, see
    :func:`_rs_bound`), as exp(-pi tau) underflows from tau ~ 238.  log Gamma(w),
    w = 1 - s = -i tau (1 + i e), e = (1 - sigma)/tau, is Stirling's
    series to the 1/(360 w**3) term; its remainder, at most
    sec(arg(w)/2)**6 / (1260 |w|**5), is bounded by :func:`_zeta_rs` on
    the nodes it serves.  Their terms of size tau cancel in closed form
    to -i tau (ln(tau/2pi) - 1); the rest is of order one, so the phase
    is rounded once, not term by term.
    """
    sigma, tau = s.real, s.imag
    e = (1.0 - sigma) / tau
    log_w = 0.5 * np.log1p(e * e) + 1j * np.arctan(e)  # log(w / (-i tau))
    log_t = np.log(tau / (2.0 * math.pi))
    w = 1.0 - s
    return (
        (0.5 - sigma) * (log_t + log_w) - 1j * tau * log_w - (1.0 - sigma) + 0.25j * math.pi
        + 1.0 / (12.0 * w) - 1.0 / (360.0 * w**3)
        - 1j * tau * (log_t - 1.0)
    )


def _rs_bound(s: np.ndarray):
    """Riemann-Siegel truncation bound at each s with Im s > 0.

    The bound is a**-sigma |RS_K(s)| + |chi(s)| a**(sigma-1) |RS_K(1 - conj s)|,
    each |RS_K| as in :func:`_rs_side_bound`, and inf wherever the
    theorem's conditions fail: 3K < 2a**2/25, |sigma| and |1 - sigma| at
    most a/2, 3K + 2 + sigma and 3K + 3 - sigma at least 0.  chi is only
    taken where they hold, so |1 - s| > 2pi * 37.5K there.

    On a line of fixed sigma every term is proportional to a**(-sigma-K),
    |chi| being a**(1 - 2 sigma) up to a factor 1 + O(1/tau), so the
    bound falls as the height grows, and each condition, once met, holds
    higher up: the bound at a centre's lowest node bounds all of its
    nodes, the one value per centre that :func:`_zeta_grid` chooses the
    path by and :func:`_zeta_rs` checks.
    """
    sigma = s.real
    a = np.sqrt(s.imag / (2.0 * math.pi))
    K = _RS_TERMS
    ok = (
        (3 * K < 2 * a * a / 25)
        & (np.abs(sigma) <= a / 2)
        & (np.abs(1.0 - sigma) <= a / 2)
        & (3 * K + 2 + sigma >= 0)
        & (3 * K + 3 - sigma >= 0)
    )
    bound = np.full(s.shape, np.inf)
    a, sigma = a[ok], sigma[ok]
    bound[ok] = a**-sigma * _rs_side_bound(sigma, a) + np.exp(
        _log_chi(s[ok]).real + (sigma - 1.0) * np.log(a)
    ) * _rs_side_bound(1.0 - sigma, a)
    return bound


def _zeta_rs(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Riemann-Siegel zeta at s_p + i*d_j for 1-D centres s and offsets d, indexed [p, j].

    All heights > 0, error under 1e-10; the centres s_p share one real
    part sigma, and centres on two are refused.  The truncation bound is
    :func:`_rs_bound` once per centre, at its lowest node, where it
    bounds every node; log chi is :func:`_log_chi` at the nodes.  R(s)
    and R(1 - conj s) are built side by side: both main sums are one
    :func:`_dirichlet_sum` with x = i Im s_p and the sides sigma and
    1 - sigma, each centre summed to the smallest N of its nodes; a node
    whose N is larger adds its last terms one by one (above tau ~ 1650 N
    changes at most once across a panel or a near-pole centre's 14P).
    The correction series, each C_k a polynomial in p**2, are one
    product with the powers of p**2.  The bound is checked before, and
    with the Stirling error of chi (see :func:`_log_chi`) times
    |chi conj R(1 - conj s)| added at every node, after.
    """
    sigma = float(s.real[0])
    if np.any(s.real != sigma):
        raise ValueError("zeta Riemann-Siegel centres on more than one real part")
    bound = _rs_bound(s + 1j * d.min())
    if not np.all(bound < _EM_TOL):
        raise ValueError("zeta Riemann-Siegel remainder above tolerance")
    tau = s.imag[:, None] + d
    a = np.sqrt(tau / (2.0 * math.pi))
    log_a = np.log(a)
    N = np.floor(a).astype(np.int64)
    p = 1.0 - 2.0 * (a - N)
    K = _RS_TERMS
    # (-1)**(N-1) U, the phase of both correction series
    rotation = np.where(N % 2, 1.0, -1.0) * np.exp(-1j * (tau * (log_a - 0.5) - math.pi / 8))
    sides = np.array([sigma, 1.0 - sigma])
    low = N.min(axis=1)
    sums = _dirichlet_sum(1j * s.imag, sides, low, d)
    past = N - low[:, None]
    for step in range(1, int(past.max()) + 1):
        i, j = np.nonzero(past >= step)
        m = low[i] + step
        sums[:, i, j] += np.exp(-np.log(m) * (sides[:, None] + 1j * tau[i, j]))
    # The series: C_k in p**2 for both sides, real and imaginary parts
    # apart, then summed over k by Horner's rule in 1/a, odd k times p.
    C = _rs_series(sigma, K)
    q = p.ravel()
    square = q * q
    powers = np.empty((C.shape[0], q.size))
    powers[0] = 1.0
    for e in range(1, C.shape[0]):
        np.multiply(powers[e - 1], square, out=powers[e])
    series = np.einsum("dp,dc->cp", powers, C).reshape(2, 2, K, -1)
    inverse = 1.0 / a.ravel()
    total = 0.0
    for k in range(K - 1, -1, -1):
        total = series[:, :, k] * (q if k % 2 else 1.0) + inverse * total
    total *= np.exp(-sides[:, None] * log_a.ravel())  # a**-sigma, a**(sigma-1)
    R = sums + rotation * (total[0] + 1j * total[1]).reshape(2, *tau.shape)
    nodes = s[:, None] + 1j * d
    reflected = np.exp(_log_chi(nodes)) * R[1].conj()
    w = 1.0 - nodes
    stirling = 1.0 / (1260.0 * np.abs(w) ** 5 * np.cos(np.angle(w) / 2) ** 6)
    if not np.all(bound[:, None] + 2.0 * stirling * np.abs(reflected) < _EM_TOL):
        raise ValueError("zeta Riemann-Siegel remainder above tolerance")
    return R[0] + reflected


def _zeta_grid(s: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """zeta(s_p + i*offsets_j), indexed [p, j]; error under 1e-10.

    For 1-D centres s_p and 1-D offsets_j, with Re s > 0 and nodes of
    height >= 0.  A grid of Kronrod panels is its centres mid_p with the
    nodes' offsets half*x_j, and the near-poles are one of the same shape
    (:func:`_residues`).
    Riemann-Siegel (:func:`_zeta_rs`) serves a centre where its
    truncation bound with K = _RS_TERMS terms is below _EM_TARGET at the
    lowest node: the bound falls with the height (:func:`_rs_bound`), so
    it then holds at every node.  On Re s = 3/2 that is from Im s ~ 1650
    up.  Euler-Maclaurin (:func:`_zeta_em`) serves the rest, and runs
    first.  Each path maps its centres and the offsets to a table, and
    solves and checks each centre's own cutoff or bound.
    """
    s = np.asarray(s, dtype=np.complex128)
    d = np.asarray(offsets, dtype=np.float64)
    rs = _rs_bound(s + 1j * d.min()) < _EM_TARGET
    out = np.empty((len(s), len(d)), dtype=np.complex128)
    if not rs.all():
        out[~rs] = _zeta_em(s[~rs], d)
    if rs.any():
        out[rs] = _zeta_rs(s[rs], d)
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


def _nodes(mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes mid + half*x of each panel, one row per panel."""
    return mid[:, None] + half[:, None] * _K15_NODES


def _panel_integrals(f, mid: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod 7-15 on each panel [mid_i - half_i, mid_i + half_i], block by block.

    f maps panels (mid, half) to one row of values per integrand at
    their :func:`_nodes`, of shape (rows, panels, 15) (one row may drop
    the first axis, or come flattened).  It is called on consecutive
    blocks of at most _BLOCK panels, and each block is reduced to its
    K15 sums and |K15 - G7| before the next is evaluated, so the values
    of one block are all that is held at a time.  Returns the K15 values
    and the error estimates |K15 - G7|, each of shape (rows, panels).
    """
    k15 = err = None
    for lo in range(0, len(mid), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        sums, g7 = _kronrod(f(mid[block], half[block]), half[block])
        if k15 is None:
            k15 = np.empty((len(sums), len(mid)), dtype=sums.dtype)
            err = np.empty((len(sums), len(mid)))
        k15[:, block] = sums
        np.abs(sums - g7, out=err[:, block])
    return k15, err


def _kronrod(y: np.ndarray, half: np.ndarray):
    """The K15 and G7 sums of one block's values y at its panels' nodes.

    Refuses a non-finite value.  y is dropped on return, before the next
    block is evaluated.
    """
    if not np.isfinite(y).all():
        raise ValueError("integrand produced a non-finite value")
    y = y.reshape(-1, len(half), 15)
    # einsum, not @, as in _product: no BLAS threads for these products,
    # also where numpy was loaded before the CLI could set one thread.
    k15 = half * np.einsum("rpn,n->rp", y, _K15_WEIGHTS)
    return k15, half * np.einsum("rpn,n->rp", y[..., 1::2], _G7_WEIGHTS)


def _adaptive_line(f, edges: np.ndarray):
    """Adaptive quadrature of every row of f over [0, T], T = edges[-1].

    Starts from the caller's panels [edges[i], edges[i+1]], all as wide
    as the first but the last (in the program always a mesh from
    :func:`_edges`, which has checked T and the budget), then bisects
    every panel where any row's Gauss-Kronrod error estimate |K15 - G7|
    exceeds its share _ABS_TOL * half / T of the budget, re-evaluating
    only split panels, until all pass or the _MAX_EVALS budget runs out.
    Each wave calls f on blocks of at most _BLOCK panels
    (:func:`_panel_integrals`), so what is held is one block's values
    and, per panel, its midpoint, half-width, K15 sums and estimates.
    A panel is carried as its midpoint and half-width; the half-width
    starts at exactly half the starting width (half its own on the last
    panel) and is halved exactly at each bisection, so the panels of one
    width share it to the last bit and f can share work between them.
    All rows share one mesh, so each node is evaluated once for all of
    them.

    Returns (integrals, error_estimates, evaluations), one integral and
    one estimate per row.  A QuadratureError carries the estimate and
    error of the row with the largest error.
    """
    T = float(edges[-1])
    half = np.full(len(edges) - 1, (edges[1] - edges[0]) / 2.0)
    half[-1] = (edges[-1] - edges[-2]) / 2.0
    mid = edges[:-1] + half
    vals, errs = _panel_integrals(f, mid, half)
    evals = 15 * len(mid)

    while True:
        bad = (errs > _ABS_TOL * half / T).any(axis=0)
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
        quarter = half[bad] / 2.0
        split_mid = np.concatenate([mid[bad] - quarter, mid[bad] + quarter])
        split_half = np.concatenate([quarter, quarter])
        split_vals, split_errs = _panel_integrals(f, split_mid, split_half)
        evals += 15 * len(split_mid)
        mid = np.concatenate([mid[keep], split_mid])
        half = np.concatenate([half[keep], split_half])
        # compress keeps the rows C-contiguous, so each row's final sum is
        # numpy's pairwise sum, as for a single integrand.
        vals = np.concatenate([vals.compress(keep, axis=1), split_vals], axis=1)
        errs = np.concatenate([errs.compress(keep, axis=1), split_errs], axis=1)

    return vals.sum(axis=1), errs.sum(axis=1), evals


# The line denominator 3*2**(s-1) - 1 on Re s = -1/2 has zeros 0.085 off
# the line at every tau_k = k * P, P = 2*pi/ln 2 ~ 9.06.  Panels exactly
# P wide from tau = 0 put each of these near-poles on a panel edge, where
# the Kronrod nodes cluster.
_POLE_PERIOD = 2.0 * math.pi / math.log(2.0)


def _edges(T: float, width: float) -> np.ndarray:
    """Starting panel edges 0, width, 2*width, ... below T, then T.

    The one mesh builder of both line integrals.  T is checked to lie
    in [10, inf), and a mesh whose 15 Kronrod nodes a panel alone exceed
    the _MAX_EVALS budget is refused from T and width, before any array
    exists; that QuadratureError carries estimate nan and error inf.
    """
    if not 10 <= T < math.inf:
        raise ValueError("truncation height must be >= 10")
    if 15 * math.ceil(T / width) > _MAX_EVALS:
        raise QuadratureError(
            "starting mesh exceeds the evaluation budget", math.nan, math.inf
        )
    return np.append(np.arange(0.0, T, width), T)


# The near-poles themselves are the zeros s_k = 1 - log2(3) + i*tau_k of
# 3*2**(s-1) - 1, delta = log2(3) - 3/2 ~ 0.085 off the line: on it,
# s - s_k = delta + i*u, u = tau - tau_k.
_LOG2_3 = math.log2(3.0)
_POLE_OFFSET = _LOG2_3 - 1.5


# ---------------------------------------------------------------------------
# The three identities
# ---------------------------------------------------------------------------


def perron_integrand(t: float, tau: np.ndarray) -> np.ndarray:
    """t**s / (s(s-1)) on s = 3/2 + i*tau, with t**s as t**1.5 * exp(i*tau*ln t)."""
    tau = np.asarray(tau, dtype=np.float64)
    s = 1.5 + 1j * tau
    return t**1.5 * np.exp(1j * math.log(t) * tau) / (s * (s - 1))


def perron_kernel(t: float, *, T: float = _T) -> float:
    """(1/2*pi) int_{-T}^{T} t**(3/2+i*tau) / ((3/2+i*tau)(1/2+i*tau)) dtau.

    Converges to max(t - 1, 0) as T grows, with truncation error
    O(t**(3/2) / T).

    Raises:
        ValueError: t not in (0, inf), or T not in [10, inf).
        QuadratureError: the starting mesh alone exceeds the evaluation
            budget (refused by :func:`_edges` before it is built), or the
            budget is exhausted before tolerance.
    """
    if not 0 < t < math.inf:
        raise ValueError("kernel argument must be positive and finite")
    # Panels as wide as the zeta rows', P = 2*pi/ln 2, or as one period
    # 2*pi/|ln t| of the t**(i*tau) oscillation if that is shorter.
    edges = _edges(T, 2.0 * math.pi / max(abs(math.log(t)), math.log(2.0)))
    integrals, _, _ = _adaptive_line(
        lambda mid, half: perron_integrand(t, _nodes(mid, half).ravel()), edges
    )
    integral = complex(integrals[0])
    return 2.0 * integral.real / (2.0 * math.pi)


def _weights(orders: tuple[int, ...], s: np.ndarray) -> np.ndarray:
    """n! / prod_{j=1..n+1} (j - s) for each n >= 1 in orders, then 1/(s(s-1)).

    The moment weight w_n is Gamma(n+1)Gamma(1-s)/Gamma(n+2-s) collapsed
    exactly to a product, taken from one running product:
    R_0 = 1/(s(s-1)), R_n = R_{n-1} (n+1)/(n+1-s) and w_n = R_n (-s)/(n+1),
    so R_{n-1} - R_n = w_n and on Re s < 0 the moment weights sum over
    n >= 1 to the constant's, R_0.  There (on the line and at every
    near-pole) each factor has modulus below 1, so no order overflows.
    """
    out = np.empty((len(orders) + 1,) + s.shape, dtype=np.complex128)
    R = out[-1] = 1.0 / (s * (s - 1))
    for n in range(1, max(orders, default=0) + 1):
        R = R * (n + 1) / (n + 1 - s)
        if n in orders:
            out[[row for row, m in enumerate(orders) if m == n]] = R * -s / (n + 1)
    return out


def _zeta_integrands(orders: tuple[int, ...], tau: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Each weight times zeta(1 - s) / (3*2**(s-1) - 1) on s = -1/2 + i*tau.

    Rows as in :func:`_weights`: the moment integrand for each n in
    orders, then the constant's.  zeta is zeta(3/2 + i*tau) at the same
    tau, and zeta(1 - s) = zeta(3/2 - i*tau) is taken as its conjugate,
    zeta(conj s) being conj zeta(s).
    """
    s = -0.5 + 1j * tau
    den = 3.0 * 2.0 ** (s - 1) - 1.0
    if np.abs(den).min() < 0.9 * _DENOM_FLOOR:
        raise ValueError("verification line drifted: denominator below floor")
    rows = _weights(orders, s)
    rows *= np.conj(zeta)
    rows /= den
    return rows


def _zeta_panels(mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """zeta(3/2 + i*tau) at the :func:`_nodes` of each panel.

    The panels of one half-width are one :func:`_zeta_grid`, so they
    share one table of Dirichlet terms at the node offsets half*x.
    """
    out = np.empty((len(mid), 15), dtype=np.complex128)
    widths, group = np.unique(half, return_inverse=True)
    for g, width in enumerate(widths):
        at = np.flatnonzero(group == g)
        out[at] = _zeta_grid(1.5 + 1j * mid[at], width * _K15_NODES)
    return out


def _residues(orders: tuple[int, ...], K: int) -> np.ndarray:
    """weight_r(s_k) * zeta(1 - s_k) / ln 2 at s_k = 1 - log2(3) + i*k*P, k = 0..K.

    Rows as in :func:`_weights`, shape (rows, K + 1): the residues of the
    rows of :func:`_zeta_integrands` at their near-poles (3*2**(s-1) - 1
    has derivative ln 2 there), and at -k their conjugates.
    zeta(1 - s_k) is the conjugate of zeta(log2(3) + i*k*P), taken as one
    grid shaped like the first wave's panels: centres (15m + 7)P and
    offsets (j - 7)P, j < 15, so node j of centre m is pole 15m + j.  The
    centres go to :func:`_zeta_grid` _BLOCK at a time, and the at most 14
    nodes past pole K are dropped.
    """
    offsets = (np.arange(15) - 7) * _POLE_PERIOD
    centres = _LOG2_3 + 1j * (np.arange(0, K + 1, 15) + 7) * _POLE_PERIOD
    zeta = np.concatenate([
        _zeta_grid(centres[lo : lo + _BLOCK], offsets).ravel()
        for lo in range(0, len(centres), _BLOCK)
    ])[: K + 1]
    pole = 1.0 - _LOG2_3 + 1j * np.arange(K + 1) * _POLE_PERIOD
    return _weights(orders, pole) * np.conj(zeta) / math.log(2.0)


def _near_poles(orders: tuple[int, ...], edges: np.ndarray):
    """Residues at the near-poles s_k, tau_k = k*P, k = 0..K, and their panel integrals.

    Rows as in :func:`_zeta_integrands`; the residues are
    :func:`_residues`, zeta on the near-pole grid once for all rows.
    Pole k is subtracted on the starting panels k - 1 and k (see
    :func:`_principal_parts`), so its principal part
    residue / (delta + i*u) is integrated in closed form over
    [edges[k-1], edges[k+1]] clipped to [0, T]: the integral is
    -i * [log(delta + i*u)], whose argument keeps real part delta > 0,
    so the principal branch is continuous.

    Returns (residues, integrals), of shapes (rows, K + 1) and (K + 1,).
    """
    K = len(edges) - 1
    k = np.arange(K + 1)
    tau_k = k * _POLE_PERIOD
    residues = _residues(orders, K)
    lo = edges[np.maximum(k - 1, 0)] - tau_k
    hi = edges[np.minimum(k + 1, K)] - tau_k
    integrals = -1j * (np.log(_POLE_OFFSET + 1j * hi) - np.log(_POLE_OFFSET + 1j * lo))
    return residues, integrals


def _principal_parts(residues: np.ndarray, mid: np.ndarray, tau: np.ndarray):
    """Every row's principal parts at the two near-poles bounding each panel's starting panel.

    At the panels' :func:`_nodes` tau, one row per midpoint in mid.
    Every panel lies in one starting panel, [kP, (k+1)P] with
    k = floor(mid/P), so what is left after subtraction is smooth.
    """
    k = np.floor(mid / _POLE_PERIOD).astype(np.intp)
    parts = np.zeros(residues.shape[:1] + tau.shape, dtype=np.complex128)
    for j in (k, k + 1):
        parts += residues[:, j, None] / (_POLE_OFFSET + 1j * (tau - (j * _POLE_PERIOD)[:, None]))
    return parts


def zeta_contours(
    orders: tuple[int, ...], *, T: float = _T
) -> tuple[tuple[float, ...], float]:
    """The moment and constant line integrals, integrated as one.

    Returns, for each n in orders, the numerical moment
    (2/3) * (1/2*pi) int_{-T}^{T} of the moment integrand on Re s = -1/2,
    and the numerical constant 1 + (2/3) * (1/2*pi) int_{-T}^{T} of the
    constant integrand, taken on the same line; to be compared against
    the exact moments and the certified constant.  Truncation decays
    like O(1/T).
    ``zeta_contours(())[1]`` is the constant alone and
    ``zeta_contours((n,))[0][0]`` one moment alone.

    All integrands share the pole-aligned mesh, refined wherever any of
    them needs it, so zeta is evaluated once per node for all of them.
    On each starting panel [kP, min((k+1)P, T)] the principal parts of
    the near-poles at k and k+1 are subtracted from every row before
    quadrature, and their exact integrals added back: what the mesh then
    resolves is smooth, so it needs about 7x fewer nodes at T = 1e4.
    The mesh depends on which rows are integrated together, so a value
    can differ in its last digits between calls with different orders;
    it does not depend on the block sizes _BLOCK and _DIRICHLET_BLOCK.

    Raises:
        ValueError: "moment order not an integer" or "moment order must
            be >= 1", from :func:`~cantor_moments.exact._as_int`, or T
            not in [10, inf).
        QuadratureError: the starting mesh alone exceeds the evaluation
            budget (refused by :func:`_edges` before it is built), or the
            budget is exhausted before tolerance (its estimate is then of
            the integral with the principal parts subtracted).
    """
    orders = tuple(_as_int(n, "moment order", 1) for n in orders)
    edges = _edges(T, _POLE_PERIOD)
    residues, pole_integrals = _near_poles(orders, edges)
    # Only their sum is needed, so the per-pole integrals go before the mesh.
    principal = (residues * pole_integrals).sum(axis=1)
    del pole_integrals

    def integrands(mid, half):
        tau = _nodes(mid, half)
        rows = _zeta_integrands(orders, tau, _zeta_panels(mid, half))
        rows -= _principal_parts(residues, mid, tau)
        return rows

    integrals, _, _ = _adaptive_line(integrands, edges)
    integrals = integrals + principal
    moments = (2.0 / 3.0) * 2.0 * integrals[:-1].real / (2.0 * math.pi)
    constant = 1.0 + (2.0 / 3.0) * 2.0 * integrals[-1].real / (2.0 * math.pi)
    return tuple(float(m) for m in moments), float(constant)

