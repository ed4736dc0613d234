"""Singular moments of the Cantor distribution, exactly, two ways.

:func:`bernoulli_moments` evaluates the closed-form Bernoulli-number sum
for every n <= N at once, as one binomial transform over a common
denominator; :func:`recursive_moments` evaluates a recursion derived
independently from the self-similarity of the Cantor function.  The two
share no code path beyond integer primitives, and agreeing exactly for
n <= 64 is the package's core correctness oracle.  Both are pure
functions of N that return the whole table M_0..M_N; a caller that needs
M_n indexes it.

The closed-form table reduces each M_n by a gcd with the small part of
its denominator only.  A prime p > N + 2 that divides the denominator of
exactly one c_j = 2 B_j / (3*2**j - 2), j <= N + 1, cannot cancel from
any M_n: every other term of the sum is p-integral, and p divides
neither that term's binomial coefficient nor 6(n+1).  Stripped of those
lonely primes, the denominators' lcm is 762 bits at N = 512, against
65,061.

``decay_fit`` checks the remainder of the moment series empirically:
the gap between the series' limit and its partial sums, at the fixed
grid N = 16, 32, ..., 4096, should shrink like
N**(1 - log2(3)) ~ N**-0.585.  Its moments come from
:func:`float_moments`, the same recursion in float64.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import TYPE_CHECKING

from .exact import bernoulli_numbers

if TYPE_CHECKING:
    import numpy as np

    from .constant import ConstantResult


def iter_bernoulli_moments(N: int) -> Iterator[Fraction]:
    """Yield the singular moments M_0..M_N via the Bernoulli closed form.

    For n >= 1:

        M_n = (2 / (3(n+1))) * sum_{j=0}^{n} C(n+1, j) * c_j,
        c_j = 2 B_j / (3*2**j - 2),

    with M_0 = 1; the j = 0 term is c_0 = 2.  Over the lcm L of the
    denominators of c_0..c_{N+1}, the binomial transform
    b_m = sum_{j<=m} C(m, j) c_j is the head of row m of the table
    r_{i+1}[j] = r_i[j] + r_i[j+1] started from r_0[j] = L * c_j, so
    every row costs additions only; one row is kept and updated in
    place.  The n-th sum A_n = sum_{j<=n} C(n+1, j) c_j is b_{n+1} less
    its j = n+1 term, and A_n already has the denominator L_n, the lcm of
    those of c_j for j <= n, so L * A_n is divided exactly by L / L_n.
    Each M_n is yielded as soon as its row exists, so a caller that
    streams the table never holds all of it.

    Reducing 2 L_n A_n / (3(n+1) L_n) needs no gcd with the whole
    denominator.  Call a prime p *lonely* if p > N + 2 and p divides
    exactly one denominator d_{j0} of c_0..c_{N+1}.  If j0 <= n, every
    other term of A_n is p-integral, and p divides neither C(n+1, j0)
    nor 6(n+1), since p > n + 1 and p > 3; so v_p(M_n) = v_p(c_{j0}) =
    -v_p(L_n), and p never cancels.  With d_j = u_j v_j, u_j the lonely
    part (:func:`_shared_parts`), the gcd is therefore the one with
    V_n = 3(n+1) W_n, W_n = lcm_{j<=n} v_j, kept beside L_n: 772 bits
    against the 65,071 of 3(n+1) L_n at n = N = 512.
    """
    if N < 0:
        raise ValueError("moment index must be >= 0")
    yield Fraction(1)
    if N == 0:
        return
    terms = [2 * b / (3 * 2**j - 2) for j, b in enumerate(bernoulli_numbers(N + 1))]
    denominators = [c.denominator for c in terms]
    L = lcm(*denominators)
    shared = _shared_parts(denominators, N)
    row = [c.numerator * (L // c.denominator) for c in terms]
    L_n, W_n, ratio = 1, 1, L  # c_0 = 2 has denominator 1
    for n in range(N + 1):
        for j in range(len(row) - 1):
            row[j] += row[j + 1]
        row.pop()  # row[0] = L * b_{n+1}
        if n == 0:
            continue
        c = terms[n + 1]
        scaled = row[0] - c.numerator * (L // c.denominator)
        den = terms[n].denominator
        step = den // gcd(L_n, den)
        L_n *= step
        ratio //= step
        W_n = lcm(W_n, shared[n])
        num = 2 * (scaled // ratio)
        V_n = 3 * (n + 1) * W_n
        g = gcd(num % V_n, V_n)
        yield _coprime_fraction(num // g, 3 * (n + 1) * L_n // g)


def _shared_parts(denominators: list[int], N: int) -> list[int]:
    """The part v_j of each d_j in primes that are not lonely.

    A prime p is lonely if p > N + 2 and p divides exactly one of the
    denominators d_0..d_{N+1}; v_j is d_j stripped of the full powers of
    its lonely primes, that is, of the primes of d_j that divide no
    other d_k and not (N+2)!.
    """
    total = prod(denominators)
    small = factorial(N + 2)
    shared = []
    for d in denominators:
        # The primes of d that divide prod_{k != j} d_k or (N+2)!.
        g = gcd(d, total // d % d * small)
        v = 1
        while g > 1:
            d //= g
            v *= g
            g = gcd(d, g)
        shared.append(v)
    return shared


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator of a coprime pair, denominator > 0.

    ``Fraction(a, b)`` runs a gcd even on a coprime pair; this sets the
    two slots directly, as CPython 3.12's ``Fraction._from_coprime_ints``
    does.
    """
    f = object.__new__(Fraction)
    f._numerator = numerator
    f._denominator = denominator
    return f


def bernoulli_moments(N: int) -> list[Fraction]:
    """The table M_0..M_N of :func:`iter_bernoulli_moments`."""
    return list(iter_bernoulli_moments(N))


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


# ---------------------------------------------------------------------------
# Remainder decay
# ---------------------------------------------------------------------------

# The N of the decay fit: nine doublings, 8 octaves from 16 to 4096.
DECAY_NS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def float_moments(N: int) -> np.ndarray:
    """Moments 0..N via the recursion, in float64, divided through by 2**n.

    The recursion of :func:`recursive_moments` over 2**n reads

        M_n = (2**-n + sum_{k<n} p_n(k) * M_k) / (3 - 2**(1-n)),

    where p_n is the Binomial(n, 1/2) pmf, built in place from p_{n-1}
    by Pascal's rule halved.  Every weight lies in [0, 1] and every term
    is positive, so nothing overflows and nothing cancels: against the
    exact table the relative error is below 1e-15 for n <= 512, far
    below the >= 1e-2 remainders the table is used to measure.
    """
    import numpy as np

    M = np.empty(N + 1)
    M[0] = 1.0
    p = np.zeros(N + 1)
    p[0] = 1.0
    for n in range(1, N + 1):
        p[1 : n + 1] = 0.5 * (p[1 : n + 1] + p[:n])
        p[0] *= 0.5
        M[n] = (2.0**-n + p[:n] @ M[:n]) / (3.0 - 2.0 ** (1 - n))
    return M


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log-remainder against log-N."""

    slope: float
    remainders: tuple[float, ...]


def decay_fit(constant: ConstantResult) -> DecayFit:
    """Fit the remainder decay exponent of the moment series.

    For each N in :data:`DECAY_NS` the remainder is
    ``constant - sum_{n<=N} M_n``; the slope is that of the ordinary
    least-squares line through log(remainder) against log(N).  The
    expected slope is 1 - log2(3) ~ -0.585 up to multiplicatively
    periodic fluctuation.

    Precondition: ``constant`` must carry a certified error <= 1e-20,
    which :func:`~cantor_moments.constant.moment_series_constant` meets
    for D >= 8 digits.

    Raises:
        ValueError: "insufficient constant precision" if the certified
            error exceeds 1e-20 or a remainder is too small to be
            resolved.
    """
    if constant.certified_error > 1e-20:
        raise ValueError("insufficient constant precision")

    import numpy as np

    limit = float(constant.value)
    sums = np.cumsum(float_moments(DECAY_NS[-1]))
    # The float sums and the float limit each carry rounding error; a
    # remainder under 1e-6 is too close to it to be attributed to the
    # true remainder.
    floor = 1e-6
    remainders = []
    for N in DECAY_NS:
        r = limit - float(sums[N])
        if r <= floor:
            raise ValueError("insufficient constant precision")
        remainders.append(r)

    slope = np.polyfit(np.log(DECAY_NS), np.log(remainders), 1)[0]
    return DecayFit(float(slope), tuple(remainders))
