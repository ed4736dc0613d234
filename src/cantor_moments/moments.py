"""Singular moments of the Cantor distribution, exactly, two ways.

``moment_bernoulli`` evaluates the closed-form Bernoulli-number sum;
``moment_recursive`` evaluates a recursion derived independently from
the self-similarity of the Cantor function.  The two share no code path
beyond integer primitives, and agreeing exactly for n <= 64 is the
package's core correctness oracle.

``decay_fit`` checks the remainder of the moment series empirically:
the gap between the series' limit and its partial sums should shrink
like N**(1 - log2(3)) ~ N**-0.585.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lgamma
from typing import TYPE_CHECKING

from .exact import BigFixed, bernoulli

if TYPE_CHECKING:
    import numpy as np


# Memo tables, one per method so the oracles stay independent.  The
# dict takes one idempotent store per n; the list grows like the
# Bernoulli table in :mod:`cantor_moments.exact`: compute from the
# published prefix, then append under the lock only if still missing.
_MEMO_BERNOULLI: dict[int, Fraction] = {0: Fraction(1)}
_MEMO_RECURSIVE: list[Fraction] = [Fraction(1)]
_MEMO_LOCK = threading.Lock()


def moment_bernoulli(n: int) -> Fraction:
    """n-th singular moment via the Bernoulli-number closed form.

    For n >= 1:

        M_n = (2 / (3(n+1))) * sum_{j=0}^{n} C(n+1, j) * B_j / (3*2**(j-1) - 1)

    with M_0 = 1.  The j = 0 denominator is 3/2 - 1 = 1/2 (so that term
    doubles); it is kept in exact rational arithmetic with no special
    casing: 3*2**(j-1) - 1 = (3*2**j - 2)/2 for every j >= 0.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    cached = _MEMO_BERNOULLI.get(n)
    if cached is not None:
        return cached
    acc = Fraction(0)
    for j in range(n + 1):
        bj = bernoulli(j)
        if bj:
            acc += comb(n + 1, j) * bj / Fraction(3 * 2**j - 2, 2)
    value = Fraction(2, 3 * (n + 1)) * acc
    _MEMO_BERNOULLI[n] = value
    return value


def moment_recursive(n: int) -> Fraction:
    """n-th singular moment via the self-similarity recursion (oracle).

    Derivation (independent of the closed form): write the moment as
    M_n = integral_0^1 C(x)**n dx for the Cantor function C, split the
    integral at 1/3 and 2/3, and use C(x/3) = C(x)/2, C ident 1/2 on the
    middle third, and C((2+x)/3) = (1 + C(x))/2.  Substituting u = 3x on
    each third:

        M_n = (1/3) * 2**-n * M_n                     (left third)
            + (1/3) * 2**-n                           (middle third)
            + (1/3) * 2**-n * sum_k C(n,k) M_k        (right third,
                                                       binomial expansion
                                                       of (1 + C)**n)

    where the right-third sum runs over 0 <= k <= n.  Moving the k = n
    term and the left third to the left-hand side and clearing 3*2**n:

        M_n = (1 + sum_{k=0}^{n-1} C(n, k) * M_k) / (3*2**n - 2).

    All lower moments are memoized.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    while len(_MEMO_RECURSIVE) <= n:
        m = len(_MEMO_RECURSIVE)
        acc = Fraction(1)
        for k in range(m):
            acc += comb(m, k) * _MEMO_RECURSIVE[k]
        value = acc / (3 * 2**m - 2)
        with _MEMO_LOCK:
            if len(_MEMO_RECURSIVE) == m:
                _MEMO_RECURSIVE.append(value)
    return _MEMO_RECURSIVE[n]


def partial_sum(N: int) -> Fraction:
    """Exact sum of the first N+1 moments, sum_{n=0}^{N} M_n.

    Uses the Bernoulli closed form.  Exact rational arithmetic: cost
    grows quickly with N (N = 512 takes about 7 s from a cold start on a
    2-core x86_64 machine); the decay diagnostics use
    :func:`log_moments` instead.
    """
    if N < 0:
        raise ValueError("partial sum index must be >= 0")
    return sum((moment_bernoulli(n) for n in range(1, N + 1)), Fraction(1))


# ---------------------------------------------------------------------------
# Remainder decay
# ---------------------------------------------------------------------------


def log_moments(N: int) -> np.ndarray:
    """Natural logs of moments 0..N via the recursion, in float64.

    Every term of the recursion is positive, so the whole computation
    stays in the log domain (logsumexp rows, lgamma-based log-binomials)
    and never overflows even though the binomial weights reach 10**1232
    at n = 4096.  Relative accuracy is ~1e-8 at n = 4096 — far below the
    >= 1e-2 remainders it is used to measure.
    """
    import numpy as np

    lg = np.array([lgamma(i + 1) for i in range(N + 2)])
    out = np.empty(N + 1)
    out[0] = 0.0
    log3 = math.log(3.0)
    log2 = math.log(2.0)
    for n in range(1, N + 1):
        k = np.arange(n)
        terms = lg[n] - lg[k] - lg[n - k] + out[:n]
        top = max(terms.max(), 0.0)
        row = top + math.log(np.exp(terms - top).sum() + math.exp(-top))
        log_den = log3 + n * log2 + math.log1p(-2.0 / (3.0 * 2.0 ** min(n, 1020)))
        out[n] = row - log_den
    return out


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log-remainder against log-N."""

    slope: float
    intercept: float
    residual_norm: float
    remainders: tuple[float, ...]


def decay_fit(Ns: list[int], constant: BigFixed) -> DecayFit:
    """Fit the remainder decay exponent of the moment series.

    For each N the remainder is ``constant - sum_{n<=N} M_n``; the fit
    is ordinary least squares of log(remainder) against log(N).  The
    expected slope is 1 - log2(3) ~ -0.585 up to multiplicatively
    periodic fluctuation.

    Preconditions: Ns strictly increasing, each >= 16, at least 5
    entries spanning at least 3 octaves; ``constant`` must carry an
    error bound <= 1e-20 (precision >= 20 digits).

    Raises:
        ValueError: on precondition violations, or if a remainder is too
            small to be resolved ("insufficient constant precision").
    """
    if len(Ns) < 5:
        raise ValueError("too few points (need at least 5)")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    if Ns[0] < 16:
        raise ValueError("Ns entries must be >= 16")
    if Ns[-1] < 8 * Ns[0]:
        raise ValueError("Ns must span at least 3 octaves")
    if constant.precision_digits < 20:
        raise ValueError("insufficient constant precision")

    import numpy as np

    limit = constant.to_float()
    sums = np.cumsum(np.exp(log_moments(Ns[-1])))
    # Float path carries ~1e-8 relative error; anything under 1e-6
    # cannot be attributed to the true remainder.
    floor = 1e-6
    remainders = []
    for N in Ns:
        r = limit - float(sums[N])
        if r <= floor:
            raise ValueError("insufficient constant precision")
        remainders.append(r)

    x = np.log(np.asarray(Ns, dtype=float))
    y = np.log(np.asarray(remainders))
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual_norm = float(np.sqrt(res[0])) if res.size else 0.0
    return DecayFit(float(slope), float(intercept), residual_norm, tuple(remainders))


def clear_memos() -> None:
    """Reset both moment memo tables (used by tests)."""
    with _MEMO_LOCK:
        _MEMO_BERNOULLI.clear()
        _MEMO_BERNOULLI[0] = Fraction(1)
        del _MEMO_RECURSIVE[1:]
