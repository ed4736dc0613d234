"""Certified high-precision evaluation of the moment-series constant.

The moment series sums to

    L = -1/3 + (2/3) * S,    S = sum_{k>=1} w**k * H(2**k),    w = 2/3,

where H(m) is the m-th harmonic number.  Every exact harmonic number
comes from one walk, :func:`_harmonic_prefixes`, which yields H(2**k)
for k = 1, 2, ..., block by block; each caller takes the prefixes it
needs.  The head k <= K0 = 8 is summed in exact rationals.  Beyond it
the Euler-Maclaurin expansion

    H(2**k) = k ln 2 + gamma + 2**-(k+1)
              - sum_{j=1..J} B_{2j} / (2j * 4**(jk)) + R_J(k)

is geometric in k once weighted by w**k, so the whole infinite tail
sums in closed form to A ln 2 + B gamma + (exact rational), with
A = sum_{k>K0} k w**k and B = sum_{k>K0} w**k.  Its remainder
sum_{k>K0} w**k |R_J(k)| is one more geometric sum.  There is no series
cutoff: the rational parts fold into one exact Q, and only ln 2 and
Euler's gamma are computed to working precision, each with a dual-method
oracle.  Each certified value is summed exactly from its inputs and
rounded once, by :func:`~cantor_moments.exact.round_decimal`, to an
exact ``Fraction`` on the grid of multiples of 10**-p, and the certified
error is the sum of named parts: the Euler-Maclaurin remainder, the ln 2
and gamma errors scaled by their coefficients, and that one rounding.

The requested digit count D is the only input.  The working precision
is P = D + GUARD_DIGITS, and the order J is the smallest whose remainder
is below 10**-(P+2).  One call walks the harmonic prefixes once, takes
ln 2 once and builds one Bernoulli table: gamma shares all three.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple

from .exact import _as_int, _balanced_sum, bernoulli_numbers, divround, round_decimal

# Exponents k <= K0 are summed as exact rationals; the closed-form tail
# covers k > K0, and gamma is Euler-Maclaurin at m = 2**K0.
K0 = 8

# Weight of the k-th term of S.
_W = Fraction(2, 3)

# The supported digit counts D are 1..MAX_DIGITS.
MAX_DIGITS = 60

# Guard digits: D requested digits are computed at working precision
# P = D + GUARD_DIGITS.
GUARD_DIGITS = 12

# Digits carried beyond P: the constant is summed and rounded at W = P + _PAD.
_PAD = 6

# Highest Euler-Maclaurin order either expansion may use.
_MAX_ORDER = 60


# ---------------------------------------------------------------------------
# Euler-Maclaurin order
# ---------------------------------------------------------------------------


def _geometric_tail(x: Fraction) -> Fraction:
    """sum_{k>K0} x**k, exactly (|x| < 1)."""
    return x ** (K0 + 1) / (1 - x)


def _em_order(
    precision: int, scale: Callable[[int], Fraction], bern: Sequence[Fraction] = ()
) -> tuple[int, Fraction, Sequence[Fraction]]:
    """The smallest Euler-Maclaurin order J, its remainder bound, B_0..B_{2J+2}.

    The bound is |B_{2J+2}| / (2J+2) * scale(J): the first omitted
    Bernoulli term times the factor the expansion applies to it, which is
    1 / m**(2J+2) for H_m itself and a geometric sum over k > K0 for the
    constant's tail.  J is the smallest order that brings the bound
    below 10**-(precision+2).  gamma and the constant's tail both pick
    their order here; the tail starts from gamma's table ``bern``, which
    grows only if the search outruns it.

    Raises:
        ValueError: "precision beyond supported range" when no J <= 60
            meets the bound.
    """
    target = Fraction(1, 10 ** (precision + 2))
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

    ``value`` is the exact ``Fraction`` m / 10**W, on the grid of the
    working precision W = ``digits`` + :data:`GUARD_DIGITS` + 6, and
    ``em_order`` is the Euler-Maclaurin order J of the closed-form tail.
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
    precision = _as_int(precision, "precision")
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


def _gamma(precision: int, h_m: Fraction) -> tuple[Fraction, Fraction, Sequence[Fraction]]:
    """gamma from h_m = H(2**K0), and the ln 2 and Bernoulli table it used.

    See :func:`euler_gamma`; the expansion is summed exactly and rounded once.
    """
    m = 2**K0
    order, _, bern = _em_order(precision, lambda J: Fraction(1, m ** (2 * J + 2)))
    log2 = ln2(precision + 8)
    acc = h_m - K0 * log2 - Fraction(1, 2 * m) + sum(
        bern[2 * j] / (2 * j * m ** (2 * j)) for j in range(1, order + 1)
    )
    return round_decimal(acc, precision), log2, bern


def euler_gamma(precision: int) -> Fraction:
    """Euler's gamma with error <= 10**-precision, a multiple of 10**-precision.

    Euler-Maclaurin at m = 2**K0 = 256:

        gamma = H_m - ln m - 1/(2m) + sum_{j=1..J} B_{2j} / (2j * m**(2j))

    with J the smallest order whose remainder bound
    |B_{2J+2}| / ((2J+2) * m**(2J+2)) is below 10**-(precision+2), found
    by the same search as the constant's tail order.  H_m is the exact
    H(2**K0) of :func:`_harmonic_prefixes` and ln 2 is :func:`ln2` at
    precision + 8 digits; the sum is exact but for that ln 2 and is
    rounded once, so the error is at most 10**-(precision+2) +
    8 * 10**-(precision+8) + 1/2 * 10**-precision.  The tests hold the
    dual-method oracle, the same expansion at m = 2**14.

    Raises:
        ValueError: "precision beyond supported range" when no J <= 60
            meets the remainder bound.
    """
    precision = _as_int(precision, "precision")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return _gamma(precision, next(islice(_harmonic_prefixes(), K0 - 1, None)))[0]


# ---------------------------------------------------------------------------
# The weighted harmonic series and the constant
# ---------------------------------------------------------------------------


def _harmonic_prefixes() -> Iterator[Fraction]:
    """H(2**k) for k = 1, 2, ..., without end, prefix by prefix.

    The package's one exact harmonic-number routine:
    H(2**k) = H(2**(k-1)) + sum_{2**(k-1) < m <= 2**k} 1/m, the block
    summed by binary splitting and reduced once.  One reduction per block
    keeps the pairs small: an unreduced pair over all of [1, 2**14]
    reaches about 210k bits before its single gcd.
    """
    h = Fraction(1)
    for k in count(1):
        h += Fraction(*_balanced_sum(lambda m: (1, m), 2 ** (k - 1) + 1, 2**k))
        yield h


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
    (2/3)B gamma (see the module docstring), summed exactly with ln 2 at
    W + 8 and gamma at W = P + 6 digits, and rounded once to W.  The
    exact head sum_{k<=K0} (2/3)**k H(2**k) reads the first K0 prefixes
    of :func:`_harmonic_prefixes`, and gamma takes the last of them.  The
    certified error is (2/3) times the tail remainder, plus the ln 2 and
    gamma errors times (2/3)A and (2/3)B, plus 1/2 * 10**-W for the
    rounding; above 10**-D no result is built and ValueError "budget
    insufficient for target" is raised.
    """
    digits = _as_int(digits, "target digits")
    if not (1 <= digits <= MAX_DIGITS):
        raise ValueError(f"target digits out of supported range [1, {MAX_DIGITS}]")
    P = digits + GUARD_DIGITS
    W = P + _PAD
    prefixes = list(islice(_harmonic_prefixes(), K0))
    head = sum(_W**k * h for k, h in enumerate(prefixes, 1))
    gamma, log2, bern = _gamma(W, prefixes[-1])
    J, tail_remainder, bern = _em_order(
        P, lambda j: _geometric_tail(_W / 4 ** (j + 1)), bern
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
    Q = -Fraction(1, 3) + two_thirds * (head + tail_rational)
    ln2_coeff = two_thirds * A
    gamma_coeff = two_thirds * B

    value = round_decimal(Q + ln2_coeff * log2 + gamma_coeff * gamma, W)

    ulp = Fraction(1, 10**W)
    em = two_thirds * tail_remainder
    ln2_err = ln2_coeff * ulp / 10**8
    gamma_err = gamma_coeff * ulp
    rounding = ulp / 2
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


def _identity_forms() -> Iterator[tuple[Fraction, Fraction]]:
    """(double_form, harmonic_form) of the truncation for K = 1, 2, ...

    The double form is 1 + (2/3) * sum_{k<=K} 3**-k * sum_{m<=2**k}
    (2**k - m)/m, each inner sum built once, term by term, by binary
    splitting: it is *not* collapsed into harmonic numbers, so the two
    forms stay structurally independent.  The harmonic form is
    1 + (2/3) * sum_{k<=K} ((2/3)**k * H(2**k) - (2/3)**k), a running
    sum over the H(2**k) of :func:`_harmonic_prefixes`.  One pass yields
    every K, without end; the ``identity`` suite of
    :mod:`cantor_moments.cli` takes K = 1..12 and compares each pair.
    """
    outer = Fraction(0)
    harmonic = Fraction(0)
    for k, h in enumerate(_harmonic_prefixes(), 1):
        two_k = 2**k
        inner = Fraction(*_balanced_sum(lambda m: (two_k - m, m), 1, two_k))
        outer += Fraction(1, 3**k) * inner
        harmonic += _W**k * (h - 1)
        yield 1 + Fraction(2, 3) * outer, 1 + Fraction(2, 3) * harmonic
