"""Certified high-precision evaluation of the moment-series constant.

The moment series sums to

    L = -1/3 + (2/3) * S,    S = sum_{k>=1} w**k * H(2**k),    w = 2/3,

where H(m) is the m-th harmonic number.  The head k <= K0 = 8 is summed
in exact rationals.  Beyond it the Euler-Maclaurin expansion

    H(2**k) = k ln 2 + gamma + 2**-(k+1)
              - sum_{j=1..J} B_{2j} / (2j * 4**(jk)) + R_J(k)

is geometric in k once weighted by w**k, so the whole infinite tail
sums in closed form to A ln 2 + B gamma + (exact rational), with
A = sum_{k>K0} k w**k and B = sum_{k>K0} w**k.  Its remainder
sum_{k>K0} w**k |R_J(k)| is one more geometric sum.  There is no series
cutoff: the rational parts fold into one exact Q that is rounded once,
and only ln 2 and Euler's gamma are computed to working precision, each
with a dual-method oracle.  Every high-precision value is an exact
``Fraction`` on the grid of multiples of 10**-p, put there by
:func:`~cantor_moments.exact.round_decimal`, and the certified error
is the sum of named parts: the Euler-Maclaurin remainder, the ln 2 and
gamma errors scaled by their coefficients, and the roundings.

The requested digit count D is the only input.  The working precision
is P = D + GUARD_DIGITS, and the order J is the smallest whose remainder
is below 10**-(P+2); euler_gamma picks its own order by the same search.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from .exact import (
    HARMONIC_CAP,
    _balanced_sum,
    bernoulli_numbers,
    divround,
    harmonic_exact,
    round_decimal,
)

# Exponents k <= K0 are summed as exact rationals; the closed-form tail
# covers k > K0.
K0 = 8

# Weight of the k-th term of S.
_W = Fraction(2, 3)

# The supported digit counts D are 1..MAX_DIGITS.
MAX_DIGITS = 60

# Guard digits: D requested digits are computed at working precision
# P = D + GUARD_DIGITS.
GUARD_DIGITS = 12

# Digits carried beyond the working precision P until the final rounding.
_PAD = 6

# Highest Euler-Maclaurin order either expansion may use.
_MAX_ORDER = 60

# gamma comes from Euler-Maclaurin at m = 2**8: a 256-term direct sum plus
# the order that euler_gamma picks for the precision.
_GAMMA_Q = 8

# Largest q for euler_gamma's direct sum H(2**q): the dual gamma oracle
# uses q = 18 and 20.  The sum is fixed-point, so the exact harmonic cap
# does not bind it; 2**20 terms take about 0.2 s.
_Q_CAP = 20

# Largest K for the exact weighted sum and the double-sum identity, the
# exponent of exact.HARMONIC_CAP: the constant uses K0 and the identity
# suite K <= 12.
_K_CAP = HARMONIC_CAP.bit_length() - 1


# ---------------------------------------------------------------------------
# Euler-Maclaurin order
# ---------------------------------------------------------------------------


def _geometric_tail(x: Fraction) -> Fraction:
    """sum_{k>K0} x**k, exactly (|x| < 1)."""
    return x ** (K0 + 1) / (1 - x)


def _em_order(
    precision: int, scale: Callable[[int], Fraction]
) -> tuple[int, Fraction, list[Fraction]]:
    """The smallest Euler-Maclaurin order J, its remainder bound, B_0..B_{2J+2}.

    The bound is |B_{2J+2}| / (2J+2) * scale(J): the first omitted
    Bernoulli term times the factor the expansion applies to it, which is
    1 / m**(2J+2) for H_m itself and a geometric sum over k > K0 for the
    constant's tail.  J is the smallest order that brings the bound
    below 10**-(precision+2); the constant's tail and :func:`euler_gamma`
    both pick their order here and sum with the table it returns.

    Raises:
        ValueError: "precision beyond supported range" when no J <= 60
            meets the bound.
    """
    target = Fraction(1, 10 ** (precision + 2))
    bern: list[Fraction] = []
    for order in range(1, _MAX_ORDER + 1):
        j2 = 2 * order + 2
        if j2 >= len(bern):
            # Grow the table geometrically; the constant's searches stop by J = 19.
            bern = bernoulli_numbers(2 * j2)
        bound = abs(bern[j2]) / j2 * scale(order)
        if bound < target:
            return order, bound, bern
    raise ValueError("precision beyond supported range")


class ConstantResult(NamedTuple):
    """A certified value: exact decimal, total error bound, its parts.

    ``value`` is the exact ``Fraction`` m / 10**P, P = ``digits`` +
    :data:`GUARD_DIGITS`, and ``em_order`` is the Euler-Maclaurin order J
    of the closed-form tail.
    ``certified_error`` is the sum of ``em_remainder`` (the tail's
    Euler-Maclaurin remainder), ``ln2_error`` and ``gamma_error`` (each
    constant's error times its coefficient) and ``rounding_error``; every
    float is rounded up from a nonnegative exact bound.
    :func:`moment_series_constant` refuses to build a result whose error
    is above 10**-digits.
    """

    value: Fraction
    certified_error: float
    digits: int
    em_order: int
    em_remainder: float
    ln2_error: float
    gamma_error: float
    rounding_error: float


# ---------------------------------------------------------------------------
# ln 2
# ---------------------------------------------------------------------------


def ln2(precision: int) -> Fraction:
    """ln 2 with error <= 10**-precision, a multiple of 10**-precision.

    Series: ln 2 = 2 * atanh(1/3) = 2 * sum_{j>=0} (1/3)**(2j+1) / (2j+1).
    Terms shrink by at least 9x, so once a rounded term reaches zero the
    remaining true tail is below (9/8) * (1/2) ulp.  Total error at the
    padded precision: <= (terms * 1/2 + 2) ulp, well under the final ulp
    after narrowing.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    work = precision + 6
    scale = 2 * 10**work
    acc = 0
    j = 0
    while True:
        term = divround(scale, (2 * j + 1) * 3 ** (2 * j + 1))
        if term == 0:
            break
        acc += term
        j += 1
    return round_decimal(Fraction(acc, 10**work), precision)


# ---------------------------------------------------------------------------
# Euler-Mascheroni constant
# ---------------------------------------------------------------------------


def _harmonic_direct_fixed(m: int, precision: int) -> Fraction:
    """H_m by direct summation of fixed-point terms.

    Each term is one exact floor division 10**P' // i (error < 1 ulp,
    one-sided), so the result's total error is < m ulp at the padded
    precision P' = precision + digits(m) + 2 — i.e. < 10**-(precision+2)
    after narrowing.  :func:`euler_gamma` uses it for H(2**q).
    """
    pad = len(str(m)) + 2
    scale = 10 ** (precision + pad)
    total = sum(scale // i for i in range(1, m + 1))
    return round_decimal(Fraction(total, scale), precision)


def euler_gamma(precision: int, q: int = _GAMMA_Q) -> Fraction:
    """Euler's gamma with error <= 10**-precision, a multiple of 10**-precision.

    Euler-Maclaurin at m = 2**q:

        gamma = H_m - ln m - 1/(2m) + sum_{j=1..J} B_{2j} / (2j * m**(2j))

    with J the smallest order whose remainder bound
    |B_{2J+2}| / ((2J+2) * m**(2J+2)) is below 10**-(precision+2), found
    by the same search as the constant's tail order.  H_m comes from the
    certified direct summation.  The default q = 8 serves every precision
    the constant needs; a second q gives the dual-method oracle.

    Raises:
        ValueError: "precision beyond supported range" when q is outside
            [1, 20] or no J <= 60 meets the remainder bound.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if not (1 <= q <= _Q_CAP):
        raise ValueError("precision beyond supported range")
    m = 2**q
    order, _, bern = _em_order(precision, lambda J: Fraction(1, m ** (2 * J + 2)))

    # Every term is rounded once at `work` digits; sums on that grid are exact.
    work = precision + 6
    acc = _harmonic_direct_fixed(m, work)
    acc -= q * round_decimal(ln2(work + 2), work)
    acc -= round_decimal(Fraction(1, 2 * m), work)
    for j in range(1, order + 1):
        acc += round_decimal(bern[2 * j] / (2 * j * Fraction(m) ** (2 * j)), work)
    return round_decimal(acc, precision)


# ---------------------------------------------------------------------------
# The weighted harmonic series and the constant
# ---------------------------------------------------------------------------


def weighted_harmonic_sum_exact(K: int) -> Fraction:
    """Exact rational truncation sum_{k=1..K} (2/3)**k * H(2**k).

    The exact head of the constant (K = K0), the double-sum identity and
    the tests use it; K is capped where exact harmonic numbers stay cheap.
    """
    if not (1 <= K <= _K_CAP):
        raise ValueError(f"exact weighted sum supports 1 <= K <= {_K_CAP}")
    return sum(
        Fraction(2, 3) ** k * harmonic_exact(2**k) for k in range(1, K + 1)
    )


def _float_up(x: Fraction) -> float:
    """The nearest float at or above the exact nonnegative x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def moment_series_constant(digits: int = 30) -> ConstantResult:
    """The limit of the moment series: -1/3 + (2/3) * S, certified to D digits.

    D = ``digits`` (1 <= D <= :data:`MAX_DIGITS`) is the only input.  The
    working precision is P = D + :data:`GUARD_DIGITS`, and the tail's
    order J is the smallest whose remainder is below 10**-(P+2): J = 2 at
    D = 1, 7 at D = 30, 14 at D = 60.  The value is Q + (2/3)A ln 2 +
    (2/3)B gamma (see the module docstring), each part rounded once at
    W = P + 6 digits and the sum rounded to P.  The certified error is
    (2/3) times the tail remainder, plus the ln 2 and gamma errors times
    (2/3)A and (2/3)B, plus 1/2 ulp at W for each of the three roundings
    and 1/2 * 10**-P for the last; above 10**-D no result is built and
    ValueError "budget insufficient for target" is raised.
    """
    if not (1 <= digits <= MAX_DIGITS):
        raise ValueError(f"target digits out of supported range [1, {MAX_DIGITS}]")
    P = digits + GUARD_DIGITS
    W = P + _PAD
    J, tail_remainder, bern = _em_order(
        P, lambda j: _geometric_tail(_W / 4 ** (j + 1))
    )
    two_thirds = Fraction(2, 3)

    # Tail over k > K0: A = sum k w**k, B = sum w**k; w**k 2**-(k+1) is
    # (1/3)**k / 2, and each Bernoulli term is geometric with ratio w/4**j.
    A = _W ** (K0 + 1) * ((K0 + 1) - K0 * _W) / (1 - _W) ** 2
    B = _geometric_tail(_W)
    tail_rational = _geometric_tail(_W / 2) / 2 - sum(
        bern[2 * j] / (2 * j) * _geometric_tail(_W / 4**j)
        for j in range(1, J + 1)
    )
    Q = -Fraction(1, 3) + two_thirds * (weighted_harmonic_sum_exact(K0) + tail_rational)
    ln2_coeff = two_thirds * A
    gamma_coeff = two_thirds * B

    value = round_decimal(
        round_decimal(Q, W)
        + round_decimal(ln2_coeff * ln2(W), W)
        + round_decimal(gamma_coeff * euler_gamma(W), W),
        P,
    )

    ulp = Fraction(1, 10**W)
    em = two_thirds * tail_remainder
    ln2_err = ln2_coeff * ulp
    gamma_err = gamma_coeff * ulp
    rounding = 3 * ulp / 2 + Fraction(1, 2 * 10**P)
    certified = _float_up(em + ln2_err + gamma_err + rounding)
    if certified > 10.0**-digits:
        raise ValueError(
            f"budget insufficient for target: certified error "
            f"{certified:.3e} exceeds 10^-{digits}"
        )
    return ConstantResult(
        value,
        certified,
        digits,
        J,
        em_remainder=_float_up(em),
        ln2_error=_float_up(ln2_err),
        gamma_error=_float_up(gamma_err),
        rounding_error=_float_up(rounding),
    )


# ---------------------------------------------------------------------------
# Double-sum identity
# ---------------------------------------------------------------------------


def double_sum_check(K: int) -> Fraction:
    """Exact truncation of the double-sum form, checked against the
    harmonic-number form.

    Evaluates 1 + (2/3) * sum_{k=1..K} 3**-k * sum_{m=1..2**k} (2**k/m - 1)
    term by term in exact rationals (the inner sum is *not* collapsed
    into harmonic numbers — the point is structural independence), then
    verifies exact equality with

        1 + (2/3) * sum_{k=1..K} ((2/3)**k * H(2**k) - (2/3)**k),

    whose harmonic part is :func:`weighted_harmonic_sum_exact`, the exact
    head of the constant, and returns the common value.

    Raises:
        ValueError: K out of [1, 14] ("inner sum too large for exact mode").
    """
    if not (1 <= K <= _K_CAP):
        raise ValueError("inner sum too large for exact mode")
    outer = Fraction(0)
    for k in range(1, K + 1):
        two_k = 2**k
        inner = _balanced_sum(lambda m: Fraction(two_k - m, m), 1, two_k)
        outer += Fraction(1, 3**k) * inner
    double_form = 1 + Fraction(2, 3) * outer

    harmonic_form = 1 + Fraction(2, 3) * (
        weighted_harmonic_sum_exact(K) - sum(_W**k for k in range(1, K + 1))
    )
    if double_form != harmonic_form:
        raise AssertionError(
            "double-sum and harmonic-form truncations disagree — "
            "exact identity violated"
        )
    return double_form
