"""Exact integer/rational arithmetic primitives.

This module supplies the exact building blocks used everywhere else:
Bernoulli numbers (``B1 = -1/2`` convention), exact harmonic numbers,
and :class:`BigFixed` — a decimal fixed-point carrier for
high-precision real values.

All values are exact rationals (``fractions.Fraction``) or scaled big
integers; no binary floating point is involved, so decimal digit claims
are direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Hard cap for exact harmonic numbers; beyond this the asymptotic path in
# cantor_moments.constant must be used (the exact denominator of H_{2^22}
# has ~1.8 million digits).
HARMONIC_CAP = 2**22

# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------


def divround(num: int, den: int) -> int:
    """Nearest integer to num/den, rounding half away from zero.

    ``den`` must be positive.  This is the single rounding primitive for
    all fixed-point arithmetic, so every operation's rounding error is
    at most half a unit in the last place.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


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


def _harmonic_range(lo: int, hi: int) -> Fraction:
    """Exact sum of 1/k for lo <= k <= hi by balanced divide & conquer.

    Balanced splitting keeps intermediate denominators near the lcm of
    the range instead of the full factorial product, and the final gcd
    per merge is far cheaper than one gcd per term.
    """
    if lo == hi:
        return Fraction(1, lo)
    mid = (lo + hi) // 2
    return _harmonic_range(lo, mid) + _harmonic_range(mid + 1, hi)


def harmonic_exact(m: int) -> Fraction:
    """Exact harmonic number H_m = sum_{k=1..m} 1/k.

    The cap guards against pathological memory use: at the cap the
    reduced denominator already has about 1.8 million digits.  Calls
    near the cap are *slow* (minutes); high-precision consumers use the
    asymptotic path in :mod:`cantor_moments.constant` instead.

    Raises:
        ValueError: if m < 1 or m exceeds the 2**22 cap.
    """
    if m < 1:
        raise ValueError("harmonic index must be positive")
    if m > HARMONIC_CAP:
        raise ValueError("harmonic index above cap")
    return _harmonic_range(1, m)


# ---------------------------------------------------------------------------
# Decimal fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigFixed:
    """High-precision real as a scaled big integer.

    The represented value is ``mantissa * 10**(-precision_digits)``.
    The base is decimal, not binary, so rendering to
    ``precision_digits`` decimal digits is exact — digit-count claims
    against printed reference constants need no conversion argument.

    Arithmetic contract: results carry the *minimum* precision of the
    operands; every operation rounds half away from zero and is
    accurate to <= 1/2 unit in the last place (exactly 0 for add,
    subtract, and small-integer multiply).  Callers count operations to
    bound total rounding error.
    """

    mantissa: int
    precision_digits: int

    def __post_init__(self) -> None:
        if self.precision_digits < 1:
            raise ValueError("precision must be >= 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction, precision: int) -> "BigFixed":
        """Round the exact rational x to ``precision`` decimal digits."""
        if precision < 1:
            raise ValueError("precision must be >= 1")
        num = x.numerator * 10**precision
        return BigFixed(divround(num, x.denominator), precision)

    # -- precision plumbing -------------------------------------------------

    def rescale(self, precision: int) -> "BigFixed":
        """Re-express at a different precision (rounds when narrowing)."""
        if precision == self.precision_digits:
            return self
        if precision > self.precision_digits:
            shift = 10 ** (precision - self.precision_digits)
            return BigFixed(self.mantissa * shift, precision)
        shift = 10 ** (self.precision_digits - precision)
        return BigFixed(divround(self.mantissa, shift), precision)

    def _common(self, other: "BigFixed") -> tuple[int, int, int]:
        p = min(self.precision_digits, other.precision_digits)
        return self.rescale(p).mantissa, other.rescale(p).mantissa, p

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BigFixed") -> "BigFixed":
        a, b, p = self._common(other)
        return BigFixed(a + b, p)

    def __sub__(self, other: "BigFixed") -> "BigFixed":
        a, b, p = self._common(other)
        return BigFixed(a - b, p)

    def __neg__(self) -> "BigFixed":
        return BigFixed(-self.mantissa, self.precision_digits)

    def mul_int(self, k: int) -> "BigFixed":
        """Exact multiplication by an integer (no rounding)."""
        return BigFixed(self.mantissa * k, self.precision_digits)

    def div_int(self, k: int) -> "BigFixed":
        """Division by a nonzero integer, <= 1/2 ulp rounding."""
        if k == 0:
            raise ZeroDivisionError("division by zero")
        if k < 0:
            return (-self).div_int(-k)
        return BigFixed(divround(self.mantissa, k), self.precision_digits)

    # -- conversions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.precision_digits)

    def to_float(self) -> float:
        return self.mantissa / 10**self.precision_digits

    def decimal_string(self, digits: int | None = None) -> str:
        """Render with ``digits`` fractional digits (default: full precision).

        Narrowing rounds half away from zero, matching every other
        rounding step in this module.
        """
        if digits is None:
            digits = self.precision_digits
        x = self.rescale(digits)
        mant, p = x.mantissa, x.precision_digits
        sign = "-" if mant < 0 else ""
        mant = abs(mant)
        whole, frac = divmod(mant, 10**p)
        return f"{sign}{whole}.{frac:0{p}d}"

    def __str__(self) -> str:
        return self.decimal_string()

