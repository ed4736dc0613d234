"""Singular moments of the Cantor distribution, exactly, two ways.

:func:`bernoulli_moments` evaluates the closed-form Bernoulli-number sum
for every n <= N at once, as one binomial transform over a common
denominator; :func:`recursive_moments` evaluates a recursion derived
independently from the self-similarity of the Cantor function.  The two
share no code path beyond integer primitives, and agreeing exactly for
n <= 64 is the package's core correctness oracle.  Both are pure
functions of N; ``moment_bernoulli(n)`` and ``moment_recursive(n)`` are
views of their last entry.

``decay_fit`` checks the remainder of the moment series empirically:
the gap between the series' limit and its partial sums, at the fixed
grid N = 16, 32, ..., 4096, should shrink like
N**(1 - log2(3)) ~ N**-0.585.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, lgamma
from typing import TYPE_CHECKING

from .exact import BigFixed, bernoulli_numbers

if TYPE_CHECKING:
    import numpy as np


def _closed_form_terms(N: int) -> list[Fraction]:
    """c_j = 2 B_j / (3 * 2**j - 2) = B_j / (3 * 2**(j-1) - 1) for j <= N + 1."""
    return [2 * b / (3 * 2**j - 2) for j, b in enumerate(bernoulli_numbers(N + 1))]


def _scaled_sums(terms: list[Fraction], L: int) -> Iterator[int]:
    """Yield L * sum_{j<=n} C(n+1, j) * c_j for n = 1 .. len(terms) - 2.

    ``L`` is a common denominator of the terms c_j.  The binomial
    transform b_m = sum_j C(m, j) c_j is the head of row m of the table
    r_{i+1}[j] = r_i[j] + r_i[j+1] started from r_0[j] = L * c_j, so
    every row costs additions only.  One row is kept and updated in
    place, and each head is yielded as soon as its row exists.
    """
    row = [c.numerator * (L // c.denominator) for c in terms]
    for m in range(1, len(terms)):
        for j in range(len(row) - 1):
            row[j] += row[j + 1]
        row.pop()
        if m >= 2:
            c = terms[m]
            yield row[0] - c.numerator * (L // c.denominator)


def iter_bernoulli_moments(N: int) -> Iterator[Fraction]:
    """Yield the singular moments M_0..M_N via the Bernoulli closed form.

    For n >= 1:

        M_n = (2 / (3(n+1))) * sum_{j=0}^{n} C(n+1, j) * c_j,
        c_j = 2 B_j / (3*2**j - 2),

    with M_0 = 1; the j = 0 term is c_0 = 2.  The sums come from
    :func:`_scaled_sums` over the lcm L of all the denominators.  The
    n-th sum is L * A_n, and A_n already has the denominator L_n, the lcm
    of those of c_j for j <= n, so it is divided exactly by L / L_n
    before the one gcd that reduces 2 A_n / (3(n+1)).  Each M_n is
    yielded as soon as it is known, so a caller that streams the table
    never holds all of it.
    """
    if N < 0:
        raise ValueError("moment index must be >= 0")
    yield Fraction(1)
    if N == 0:
        return
    terms = _closed_form_terms(N)
    L = lcm(*(c.denominator for c in terms))
    L_n, ratio = 1, L  # c_0 = 2 has denominator 1
    for n, scaled in enumerate(_scaled_sums(terms, L), start=1):
        den = terms[n].denominator
        step = den // gcd(L_n, den)
        L_n *= step
        ratio //= step
        yield Fraction(2 * (scaled // ratio), 3 * (n + 1) * L_n)


def bernoulli_moments(N: int) -> list[Fraction]:
    """The table M_0..M_N of :func:`iter_bernoulli_moments`."""
    return list(iter_bernoulli_moments(N))


def moment_bernoulli(n: int) -> Fraction:
    """n-th singular moment via the Bernoulli-number closed form.

    The last entry of :func:`bernoulli_moments`; callers that need many
    n take the table.
    """
    return bernoulli_moments(n)[n]


def recursive_moments(N: int) -> list[Fraction]:
    """Singular moments M_0..M_N via the self-similarity recursion (oracle).

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

    Each moment is built from the lower entries of the same table; no
    Bernoulli number is involved.
    """
    if N < 0:
        raise ValueError("moment index must be >= 0")
    table = [Fraction(1)]
    for m in range(1, N + 1):
        acc = Fraction(1)
        for k in range(m):
            acc += comb(m, k) * table[k]
        table.append(acc / (3 * 2**m - 2))
    return table


def moment_recursive(n: int) -> Fraction:
    """n-th singular moment via the self-similarity recursion: the last
    entry of :func:`recursive_moments`."""
    return recursive_moments(n)[n]


# ---------------------------------------------------------------------------
# Remainder decay
# ---------------------------------------------------------------------------

# The N of the decay fit: nine doublings, 8 octaves from 16 to 4096.
DECAY_NS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


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


def decay_fit(constant: BigFixed) -> DecayFit:
    """Fit the remainder decay exponent of the moment series.

    For each N in :data:`DECAY_NS` the remainder is
    ``constant - sum_{n<=N} M_n``; the fit is ordinary least squares of
    log(remainder) against log(N).  The expected slope is
    1 - log2(3) ~ -0.585 up to multiplicatively periodic fluctuation.

    Precondition: ``constant`` must carry an error bound <= 1e-20
    (precision >= 20 digits).

    Raises:
        ValueError: "insufficient constant precision" if the constant has
            fewer than 20 digits or a remainder is too small to be
            resolved.
    """
    if constant.precision_digits < 20:
        raise ValueError("insufficient constant precision")

    import numpy as np

    limit = constant.to_float()
    sums = np.cumsum(np.exp(log_moments(DECAY_NS[-1])))
    # Float path carries ~1e-8 relative error; anything under 1e-6
    # cannot be attributed to the true remainder.
    floor = 1e-6
    remainders = []
    for N in DECAY_NS:
        r = limit - float(sums[N])
        if r <= floor:
            raise ValueError("insufficient constant precision")
        remainders.append(r)

    x = np.log(np.asarray(DECAY_NS, dtype=float))
    y = np.log(np.asarray(remainders))
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual_norm = float(np.sqrt(res[0])) if res.size else 0.0
    return DecayFit(float(slope), float(intercept), residual_norm, tuple(remainders))

