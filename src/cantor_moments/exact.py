"""Exact integer/rational arithmetic primitives.

This module supplies the exact building blocks used everywhere else:
Bernoulli numbers (``B1 = -1/2`` convention), exact harmonic numbers,
and decimal rounding: :func:`round_decimal` puts an exact rational on
the grid of multiples of 10**-p, and :func:`decimal_string` prints it.

All values are exact rationals (``fractions.Fraction``); a
high-precision real is a ``Fraction`` whose denominator divides 10**p.
No binary floating point is involved, so decimal digit claims are
direct.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

# Hard cap for exact harmonic numbers, and through its exponent the
# largest K of the exact weighted sum (constant._K_CAP = 14).  Beyond it
# the asymptotic path in cantor_moments.constant is used (the exact
# denominator of H_{2^14} has about 7,100 digits).
HARMONIC_CAP = 2**14

# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------


def divround(num: int, den: int) -> int:
    """Nearest integer to num/den, rounding half away from zero.

    ``den`` must be positive.  This is the single rounding primitive for
    all decimal arithmetic, so every rounding step's error is at most
    half a unit in the last place.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def round_decimal(x: Fraction, p: int) -> Fraction:
    """The multiple of 10**-p nearest to x, rounding half away from zero.

    The error is at most 1/2 * 10**-p, and a value already on the grid is
    returned unchanged.
    """
    scale = 10**p
    return Fraction(divround(x.numerator * scale, x.denominator), scale)


def decimal_string(x: Fraction, digits: int) -> str:
    """x rounded by :func:`round_decimal` and printed with ``digits``
    fractional digits; a value that rounds to zero prints without a sign.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    mantissa = int(round_decimal(x, digits) * 10**digits)
    sign = "-" if mantissa < 0 else ""
    whole, frac = divmod(abs(mantissa), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def bernoulli_numbers(N: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_N under the convention B1 = -1/2.

    Built from the tangent numbers T_k, as Brent & Harvey propose ("Fast
    computation of Bernoulli, tangent and secant numbers", 2011), by
    their in-place triangle: integers only, small multiples and
    additions, about N**2/8 steps.  Then

        B_{2k} = (-1)**(k-1) * 2k * T_k / (4**k * (4**k - 1)),

    one gcd each, and the odd-index Bernoulli numbers vanish for j >= 3.
    The convention is validated downstream: only B1 = -1/2 makes the
    moment formula agree with the independent self-similarity recursion.
    """
    if N < 0:
        raise ValueError("invalid bernoulli index")
    K = N // 2
    # tangent[k] = T_k for 1 <= k <= K once the triangle is done.
    tangent = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    table = [Fraction(1), Fraction(-1, 2)][: N + 1]
    for j in range(2, N + 1):
        if j % 2:
            table.append(Fraction(0))
        else:
            k = j // 2
            sign = 1 if k % 2 else -1
            table.append(Fraction(sign * j * tangent[k], 4**k * (4**k - 1)))
    return table


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------


def _balanced_sum(
    term: Callable[[int], tuple[int, int]], lo: int, hi: int
) -> tuple[int, int]:
    """Sum of term(k) for lo <= k <= hi as an unreduced pair (p, q) = p/q.

    Binary splitting on integer pairs (Haible & Papanikolaou, "Fast
    multiprecision evaluation of series of rational numbers", 1998):
    ``term(k)`` returns ``(num, den)`` with den > 0, and each merge of
    two halves is (p1*q2 + p2*q1, q1*q2), with no gcd.  The halves are
    balanced, so each product multiplies operands of about equal size,
    where CPython's Karatsuba multiplication pays off.  The caller
    reduces once, with ``Fraction(p, q)``.  No list of terms is built.
    """
    if lo == hi:
        return term(lo)
    mid = (lo + hi) // 2
    p1, q1 = _balanced_sum(term, lo, mid)
    p2, q2 = _balanced_sum(term, mid + 1, hi)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic_exact(m: int) -> Fraction:
    """Exact harmonic number H_m = sum_{k=1..m} 1/k.

    Summed in dyadic blocks (2**(j-1), 2**j] cut at m: each block is one
    binary-splitting pass of :func:`_balanced_sum` over the pairs (1, k),
    reduced once, and the reduced blocks are added as fractions.  One
    reduction per block keeps the pairs small: an unreduced pair over all
    of [1, 2**14] reaches about 210k bits before its single gcd.  The cap
    is the largest index the exact weighted sum uses; high-precision
    consumers use the asymptotic path in :mod:`cantor_moments.constant`
    instead.

    Raises:
        ValueError: if m < 1 or m exceeds the 2**14 cap.
    """
    if m < 1:
        raise ValueError("harmonic index must be positive")
    if m > HARMONIC_CAP:
        raise ValueError("harmonic index above cap")
    h = Fraction(1)
    for j in range(1, (m - 1).bit_length() + 1):
        h += Fraction(*_balanced_sum(lambda k: (1, k), 2 ** (j - 1) + 1, min(2**j, m)))
    return h
