"""Exact integer/rational arithmetic primitives.

This module supplies the exact building blocks used everywhere else:
Bernoulli numbers (``B1 = -1/2`` convention), the binary-splitting sum
of rational terms behind every exact harmonic number (those are built
in :mod:`cantor_moments.constant`), and decimal rounding:
:func:`round_decimal` puts an exact rational on the grid of multiples
of 10**-p, and :func:`decimal_string` prints it.

All values are exact rationals (``fractions.Fraction``); a
high-precision real is a ``Fraction`` whose denominator divides 10**p.
No binary floating point is involved, so decimal digit claims are
direct.

Every integer count or order of the package passes one rule,
:func:`_as_int`, with a floor stated at each call.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from numbers import Integral


def _as_int(value, what: str, least: int) -> int:
    """value as an int if it is an integer of any type and >= ``least``.

    Else ValueError "<what> not an integer" (a whole float included;
    numpy's integers and bools are integers) or "<what> must be >= <least>".
    """
    if not isinstance(value, Integral):
        raise ValueError(f"{what} not an integer")
    n = int(value)
    if n < least:
        raise ValueError(f"{what} must be >= {least}")
    return n


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
    returned unchanged.  p = 0 rounds to an integer; p < 0 is refused.
    """
    scale = 10 ** _as_int(p, "precision", 0)
    return Fraction(divround(x.numerator * scale, x.denominator), scale)


def decimal_string(x: Fraction, digits: int) -> str:
    """x rounded as by :func:`round_decimal` and printed with ``digits``
    fractional digits (at least 1); a value that rounds to zero prints
    without a sign.
    """
    return _fixed(x.numerator, x.denominator, _as_int(digits, "digits", 1))


def _fixed(num, den, digits: int) -> str:
    """num/den, den > 0, rounded half away from zero to ``digits`` places.

    The one fixed-point renderer, for :func:`decimal_string` and the
    CLI's moment column: num and den are ints, or integral Decimals
    under a context exact enough for the products.
    """
    mantissa = divround(num * 10**digits, den)
    sign = "-" if mantissa < 0 else ""
    whole, frac = divmod(abs(mantissa), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}}"


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
    N = _as_int(N, "bernoulli index", 0)
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
# Binary splitting
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
