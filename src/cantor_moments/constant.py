"""Certified high-precision evaluation of the moment-series constant.

The moment series sums to

    L = -1/3 + (2/3) * S,    S = sum_{k>=1} w**k * H(2**k),    w = 2/3,

where H(m) is the m-th harmonic number.  Every exact harmonic number
comes from one walk, :func:`_harmonic_prefixes`, which yields H(2**k)
for k = 1, 2, ..., block by block; each caller takes the prefixes it
needs.  The head k <= K0 = 8 is summed in exact rationals.  Beyond it
the Euler-Maclaurin expansion

    H(2**k) = k ln 2 + gamma - sum_{i=1..2J} B_i / (i * 2**(ik)) + R_J(k)

(with the package's B_1 = -1/2 its i = 1 term is 2**-(k+1), and the odd
B_i vanish past it) is geometric in k once weighted by w**k.  With
B = sum_{k>K0} w**k, and sum_{k>K0} k w**k = (K0 + 3) B, the whole tail
sums in closed form to

    B (gamma + (K0 + 3) ln 2) - sum_i B_i / i * sum_{k>K0} (w / 2**i)**k,

and its remainder sum_{k>K0} w**k |R_J(k)| is one more geometric sum.
gamma is the same expansion at m = 2**K0; :func:`_em_sum` sums the
Bernoulli terms of both in one pass.  There is no series cutoff: the
rational parts fold into one exact Q, and only ln 2 and Euler's gamma
are computed to working precision, each with a dual-method oracle.
Each certified value is summed exactly from its inputs and rounded
once, by :func:`~cantor_moments.exact.round_decimal`, to an exact
``Fraction`` on the grid of multiples of 10**-p, and the certified error
is the sum of named parts: the Euler-Maclaurin remainder, the ln 2 and
gamma errors scaled by their coefficients, and that one rounding.

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
# Euler-Maclaurin sum
# ---------------------------------------------------------------------------


def _geometric_tail(x: Fraction) -> Fraction:
    """sum_{k>K0} x**k, exactly (|x| < 1)."""
    return x ** (K0 + 1) / (1 - x)


def _em_sum(
    precision: int, factor: Callable[[int], Fraction], bern: Sequence[Fraction] = ()
) -> tuple[int, Fraction, Fraction, Sequence[Fraction]]:
    """Order J, remainder bound, sum_i B_i * factor(i), and B_0..B_{2J+2}.

    ``factor(i)`` is the whole weight of the i-th Bernoulli term:
    1 / (i * m**i) for H_m itself, a geometric sum over k > K0 divided
    by i for the constant's tail.  One pass over i = 1 (B_1 = -1/2) and
    the even i >= 2 weighs each term once and adds it to the exact sum
    until the next, i = 2J + 2 with J >= 1, is below 10**-(precision+2);
    that term's magnitude is the bound.  The tail starts from gamma's
    table ``bern``, which grows only if the pass outruns it.

    Raises:
        ValueError: "precision beyond supported range" when no J <= 60
            meets the bound.
    """
    target = Fraction(1, 10 ** (precision + 2))
    terms = Fraction(0)
    for i in (1, *range(2, 2 * _MAX_ORDER + 3, 2)):
        if i >= len(bern):
            # Grow the table geometrically; the constant's searches stop by J = 19.
            bern = bernoulli_numbers(2 * max(i, 4))
        term = bern[i] * factor(i)
        if i > 2 and abs(term) < target:
            return i // 2 - 1, abs(term), terms, bern
        terms += term
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
    precision = _as_int(precision, "precision", 1)
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
    _, _, terms, bern = _em_sum(precision, lambda i: Fraction(1, i * m**i))
    log2 = ln2(precision + 8)
    return round_decimal(h_m - K0 * log2 + terms, precision), log2, bern


def euler_gamma(precision: int) -> Fraction:
    """Euler's gamma with error <= 10**-precision, a multiple of 10**-precision.

    Euler-Maclaurin at m = 2**K0 = 256:

        gamma = H_m - ln m + sum_{i=1..2J} B_i / (i * m**i)

    (B_1 = -1/2 gives the -1/(2m) term) with J the smallest order whose
    remainder bound |B_{2J+2}| / ((2J+2) * m**(2J+2)) is below
    10**-(precision+2), found and summed as the constant's tail is.  H_m
    is the exact H(2**K0) of :func:`_harmonic_prefixes` and ln 2 is
    :func:`ln2` at precision + 8 digits; the sum is exact but for that
    ln 2 and is rounded once, so the error is at most 10**-(precision+2)
    + 8 * 10**-(precision+8) + 1/2 * 10**-precision.  The tests hold the
    dual-method oracle, the same expansion at m = 2**14.

    Raises:
        ValueError: "precision beyond supported range" when no J <= 60
            meets the remainder bound.
    """
    precision = _as_int(precision, "precision", 1)
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
    D = 1, 7 at D = 30, 14 at D = 60.  The value is Q + (2/3)(K0 + 3)B ln 2
    + (2/3)B gamma, B = sum_{k>K0} (2/3)**k and Q exact (see the module
    docstring), summed exactly with ln 2 at W + 8 and gamma at W = P + 6
    digits, and rounded once to W.  The exact head
    sum_{k<=K0} (2/3)**k H(2**k) reads the first K0 prefixes of
    :func:`_harmonic_prefixes`, and gamma takes the last of them.  The
    certified error is (2/3) times the tail remainder, plus the ln 2 and
    gamma errors times (2/3)(K0 + 3)B and (2/3)B, plus 1/2 * 10**-W for
    the rounding; above 10**-D no result is built and ValueError "budget
    insufficient for target" is raised.
    """
    digits = _as_int(digits, "target digits", 1)
    if digits > MAX_DIGITS:
        raise ValueError(f"target digits out of supported range [1, {MAX_DIGITS}]")
    P = digits + GUARD_DIGITS
    W = P + _PAD
    prefixes = list(islice(_harmonic_prefixes(), K0))
    head = sum(_W**k * h for k, h in enumerate(prefixes, 1))
    gamma, log2, bern = _gamma(W, prefixes[-1])
    # Tail over k > K0: the i-th Bernoulli term is geometric with ratio w/2**i.
    J, tail_remainder, terms, _ = _em_sum(
        P, lambda i: _geometric_tail(_W / 2**i) / i, bern
    )
    two_thirds = Fraction(2, 3)
    # B = sum_{k>K0} w**k, and sum_{k>K0} k w**k = (K0 + 1/(1 - w)) B.
    B = _geometric_tail(_W)
    Q = -Fraction(1, 3) + two_thirds * (head - terms)
    ln2_coeff = two_thirds * (K0 + 1 / (1 - _W)) * B
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

    The double form is 1 + (2/3) * sum_{k<=K} 3**-k * I_k with
    I_k = sum_{m<=2**k} (2**k - m)/m.  Its even terms m = 2j are
    (2**(k-1) - j)/j, the terms of I_{k-1}, so I_k = I_{k-1} +
    sum_{odd m<2**k} (2**k - m)/m, the odd part summed term by term by
    binary splitting.  No harmonic number enters it, so the two forms
    stay structurally independent.  The harmonic form is
    1 + (2/3) * sum_{k<=K} ((2/3)**k * H(2**k) - (2/3)**k), a running
    sum over the H(2**k) of :func:`_harmonic_prefixes`.  One pass yields
    every K, without end; the ``identity`` suite of
    :mod:`cantor_moments.cli` takes K = 1..12 and compares each pair.
    """
    inner = outer = harmonic = Fraction(0)
    for k, h in enumerate(_harmonic_prefixes(), 1):
        two_k = 2**k
        odd = _balanced_sum(lambda i: (two_k + 1 - 2 * i, 2 * i - 1), 1, two_k // 2)
        inner += Fraction(*odd)
        outer += Fraction(1, 3**k) * inner
        harmonic += _W**k * (h - 1)
        yield 1 + Fraction(2, 3) * outer, 1 + Fraction(2, 3) * harmonic
