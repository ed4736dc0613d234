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

The table body, :func:`closed_form_rows`, runs over ``int`` for the
Fraction API and over ``decimal.Decimal`` for the CLI, which prints
every integer in full.  CPython 3.11 renders a binary int in decimal in
quadratic time, about half of the N = 512 command's run time; libmpdec,
CPython's C ``decimal``, stores integers in base 10**19 and renders them
in linear time, and its exact + - * // % cost no more than int's.  The
one body serves both types because every operand in it is nonnegative
and every ``//`` is an exact division, where Decimal's truncating
division and int's floor division agree; its rows run in the
trapping context :data:`EXACT`, so a Decimal step that would round
raises instead.  The Fraction API stays on int: converting the 1,026
Decimals back would cost more than the rendering saves.

Each row's exact division L A_n / (L / L_n) is read off the low digits,
as in Jebelean's exact division (J. Symbolic Comput. 15, 1993): the
quotient is the dividend times an inverse of the divisor modulo a power
of the base, which Newton-Hensel doubling finds once per table and one
short product updates per row.  That needs a divisor prime to the base,
so the running lcm L_n starts at the part of L made of the base's
primes, not at 1; the factor it adds to each row cancels in the
reduction.  The base is 2 for int, where the low digits are a mask
(base 10 would take a long division), and 10 for Decimal, where they are
an exponent shift.  Every quotient is checked modulo a 61-bit prime, and
a division that is not exact raises ArithmeticError.

``decay_fit`` checks the remainder of the moment series empirically:
the gap between the series' limit and its partial sums, at the fixed
grid N = 16, 32, ..., 4096, should shrink like
N**(1 - log2(3)) ~ N**-0.585.  Its partial sums come from the law of
C(U), not from the moments: :func:`partial_sum` adds the Cantor
function's values on its middle thirds in float, the coarse levels one
by one and the fine ones through an Euler-Maclaurin expansion that is
finite and exact.  No moment is computed on the way.
"""

from __future__ import annotations

import decimal
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import comb, factorial, fsum, gcd, lcm, log, pi, prod
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from .exact import _as_int, bernoulli_numbers

if TYPE_CHECKING:
    from .constant import ConstantResult

_Z = TypeVar("_Z", int, decimal.Decimal)
_Q = TypeVar("_Q", float, Fraction)


# The context of every row of closed_form_rows: integer arithmetic in it
# never rounds, and an operation that would round raises.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.DivisionByZero,
    ],
)

# The prime modulo which closed_form_rows checks each exact division.
_CHECK_PRIME = 2**61 - 1


def closed_form_rows(N: int, lift: Callable[[int], _Z]) -> Iterator[tuple[_Z, _Z]]:
    """Yield M_0..M_N as reduced pairs (num, den) in the type lift makes.

    ``lift`` is ``int`` or ``decimal.Decimal``; it is applied to 1 and to
    the lcm L below, and everything else follows L's type.  For n >= 1:

        M_n = (2 / (3(n+1))) * sum_{j=0}^{n} C(n+1, j) * c_j,
        c_j = 2 B_j / (3*2**j - 2),

    with M_0 = 1; the j = 0 term is c_0 = 2.  Over the lcm L of the
    denominators of c_0..c_{N+1}, the binomial transform
    b_m = sum_{j<=m} C(m, j) c_j is the head of row m of the table
    r_{i+1}[j] = r_i[j] + r_i[j+1] started from r_0[j] = L * c_j, so
    every row costs additions only; one row is kept and updated in
    place.  The n-th sum A_n = sum_{j<=n} C(n+1, j) c_j is b_{n+1} less
    its j = n+1 term, L c_{n+1}, which is read from row 0: the sweep
    rebinds the row's entries, so a copy of the list keeps the row-0
    values, and each is dropped once its row has used it.  A_n already
    has the denominator L_n, the lcm of those of c_j for j <= n, so
    L * A_n is divided exactly by L / L_n.
    Each M_n is yielded as soon as its row exists, so a caller that
    streams the table never holds all of it.

    The exact division q = L A_n / (L / L_n) = L_n A_n is Jebelean's: in
    a base B, q = L A_n * (L / L_n)**-1 mod B**k for any B**k > q, which
    needs a divisor prime to B.  So L_n starts at P, the part of L made
    of B's primes, instead of at 1; every L / L_n is then prime to B.
    P is 4 in base 2, for ``int`` (d_1 = 4 holds all of L's 2s, every
    other d_j at most one), and 4 * 5**e in base 10, for ``Decimal``.
    The inverse of L / P is found once, modulo B**K with K = len(L) +
    len(3(N+1)) + 3, by Newton-Hensel doubling (:func:`_hensel_inverse`),
    and multiplied by each factor L_n grows by, so each row costs one
    product of two k-digit numbers, k = len(L A_n) - len(L) + len(L_n) + 2,
    and len(q) + 1 <= k <= len(q) + 3 <= K, as L A_n = q L / L_n and
    M_n <= 1/2 bounds q = L_n A_n by 3(N+1) L / 4.  The low digits are a
    mask for ``int`` and a ``scaleb`` and an integral part for
    ``Decimal``.  Every quotient is checked: q * L = L A_n * L_n modulo
    the prime :data:`_CHECK_PRIME`, and a row that fails raises
    ArithmeticError, so a division that is not exact cannot pass unseen.

    Reducing 2 L_n A_n / (3(n+1) L_n) needs no gcd with the whole
    denominator.  Call a prime p *lonely* if p > N + 2 and p divides
    exactly one denominator d_{j0} of c_0..c_{N+1}.  If j0 <= n, every
    other term of A_n is p-integral, and p divides neither C(n+1, j0)
    nor 6(n+1), since p > n + 1 and p > 3; so v_p(M_n) = v_p(c_{j0}) =
    -v_p(L_n), and p never cancels.  With d_j = u_j v_j, u_j the lonely
    part (:func:`_shared_parts`), the gcd is therefore the one with
    V_n = 3(n+1) W_n, W_n = lcm(P, v_0..v_n), kept beside L_n: 772 bits
    against the 65,071 of 3(n+1) L_n at n = N = 512.  W_n starts at P
    too, so the part of P that L_n adds beyond lcm_{j<=n} d_j, and any
    lonely 5 in P, divide V_n, and the gcd removes them.

    The same split puts two more steps on small integers.  The u_j are
    pairwise coprime and prime to every v_k, so L, the lcm of the d_j,
    is lcm(v_0..v_{N+1}) times the product of the u_j.  L_n grows by
    d_n / gcd(L_{n-1}, d_n), and gcd(L_{n-1}, d_n) = gcd(W_{n-1}, d_n).
    L_{n-1} and W_{n-1} are both lcms with P.
    For a prime p that is not lonely, v_p(v_j) = v_p(d_j) for every j,
    so L_{n-1} and W_{n-1} hold the same power of p.  A lonely p of d_j
    divides no other denominator: if j < n, it may divide L_{n-1} and
    not W_{n-1}, but it does not divide d_n; if j >= n, each of
    L_{n-1} and W_{n-1} holds it to the power it has in P.  So the two
    gcds agree, and the one with W_{n-1} is a gcd of small integers.

    Every operand is nonnegative and every ``//`` is an exact division,
    so int floor division and Decimal truncation agree.  Each row runs in
    ``decimal.localcontext(EXACT)``, entered and left between two yields,
    so the caller's context never reaches the arithmetic and EXACT never
    reaches the caller.
    """
    N = _as_int(N, "moment index", 0)
    one = lift(1)
    yield one, one
    if N == 0:
        return
    terms = [2 * b / (3 * 2**j - 2) for j, b in enumerate(bernoulli_numbers(N + 1))]
    denominators = [c.denominator for c in terms]
    shared = _shared_parts(denominators, N)
    # The lonely parts d_j / v_j are pairwise coprime and prime to every v_k.
    L = lift(lcm(*shared) * prod(d // v for d, v in zip(denominators, shared)))
    digits = _Base10 if isinstance(L, decimal.Decimal) else _Base2
    length, low = digits.length, digits.low
    K = length(L) + length(lift(3 * (N + 1))) + 3
    with decimal.localcontext(EXACT):
        row = [c.numerator * (L // c.denominator) for c in terms]
        # L c_j for j = N+1 down to 2, popped by row n = j - 1: the sweep
        # rebinds the row's entries, so these stay the row-0 values.
        heads = row[:1:-1]
        # ratio = L / P, prime to the base, and inverse = ratio**-1 mod B**K.
        ratio = _strip(L, digits.primes)
        inverse = _hensel_inverse(ratio, K, digits)
        L_n = L // ratio  # P; c_0 = 2 has denominator 1
        L_check = int(L % _CHECK_PRIME)
    W_n = L_n_check = int(L_n)
    for n in range(N + 1):
        with decimal.localcontext(EXACT):
            for j in range(len(row) - 1):
                row[j] += row[j + 1]
            row.pop()  # row[0] = L * b_{n+1}
            if n == 0:
                continue
            scaled = row[0] - heads.pop()
            den = denominators[n]
            step = den // gcd(W_n, den)  # gcd(L_{n-1}, d_n) = gcd(W_{n-1}, d_n)
            L_n *= step
            L_n_check = L_n_check * step % _CHECK_PRIME
            if step > 1:
                inverse = low(inverse * step, K)
            k = length(scaled) - length(L) + length(L_n) + 2
            quotient = low(low(scaled, k) * low(inverse, k), k)
            if (
                int(quotient % _CHECK_PRIME) * L_check
                - int(scaled % _CHECK_PRIME) * L_n_check
            ) % _CHECK_PRIME:
                raise ArithmeticError(f"row {n}: L * A_n is not divisible by L / L_n")
            W_n = lcm(W_n, shared[n])
            num = 2 * quotient
            V_n = 3 * (n + 1) * W_n
            g = gcd(int(num % V_n), V_n)
            pair = num // g, 3 * (n + 1) * L_n // g
        yield pair


class _Base2:
    """Low digits of a nonnegative ``int`` in base 2."""

    base = 2
    primes = (2,)

    @staticmethod
    def length(x: int) -> int:
        return x.bit_length()

    @staticmethod
    def low(x: int, k: int) -> int:
        """x mod 2**k."""
        return x & ((1 << k) - 1)

    @staticmethod
    def power(k: int) -> int:
        return 1 << k


class _Base10:
    """Low digits of a nonnegative integral ``Decimal`` in base 10.

    ``scaleb`` moves the exponent without touching the coefficient, and
    ``to_integral_value`` truncates without signalling Inexact or
    Rounded, so both run under :data:`EXACT`; ``x % 10**k`` would be a
    full long division.
    """

    base = 10
    primes = (2, 5)

    @staticmethod
    def length(x: decimal.Decimal) -> int:
        return x.adjusted() + 1

    @staticmethod
    def low(x: decimal.Decimal, k: int) -> decimal.Decimal:
        """x mod 10**k."""
        return x - x.scaleb(-k).to_integral_value(decimal.ROUND_DOWN).scaleb(k)

    @staticmethod
    def power(k: int) -> decimal.Decimal:
        return decimal.Decimal(1).scaleb(k)


def _strip(x: _Z, primes: tuple[int, ...]) -> _Z:
    """x > 0 divided by every factor of it among the given primes."""
    for p in primes:
        while x % p == 0:
            x //= p
    return x


def _hensel_inverse(r: _Z, K: int, digits: type[_Base2] | type[_Base10]) -> _Z:
    """r**-1 mod B**K for r > 0 prime to the base B, by Newton-Hensel doubling.

    If r x = 1 mod B**m, then t = r x mod B**p, p <= 2m, is 1 mod B**m,
    and r x (2 - t) = 1 - (1 - t)**2 = 1 mod B**p.  The factor is taken
    as B**p + 2 - t, so no operand is ever negative.  Decimal operands
    must run under :data:`EXACT`.
    """
    low = digits.low
    precisions = [K]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    x = pow(int(low(r, 1)), -1, digits.base)  # the p = 1 step lifts it to r's type
    for p in reversed(precisions):
        t = low(low(r, p) * x, p)
        x = low(x * (digits.power(p) + 2 - t), p)
    return x


def _shared_parts(denominators: list[int], N: int) -> list[int]:
    """The part v_j of each d_j in primes that are not lonely.

    A prime p is lonely if p > N + 2 and p divides exactly one of the
    denominators d_0..d_{N+1}; v_j is d_j stripped of the full powers of
    its lonely primes, that is, of the primes of d_j that divide no
    other d_k and not (N+2)!.  The products prod_{k != j} d_k mod d_j
    come from :func:`_cofactors`, a remainder tree.
    """
    small = factorial(N + 2)
    shared = []
    for d, others in zip(denominators, _cofactors(denominators)):
        # The primes of d that divide prod_{k != j} d_k or (N+2)!.
        g = gcd(d, others * small)
        v = 1
        while g > 1:
            d //= g
            v *= g
            g = gcd(d, g)
        shared.append(v)
    return shared


def _cofactors(moduli: list[int]) -> list[int]:
    """prod_{k != j} m_k mod m_j for each m_j > 0, by a remainder tree.

    The product tree pairs neighbours up to the whole product.  Going
    back down (Bernstein, "Fast multiplication and its applications",
    2008), each node holds the product of every modulus outside it,
    modulo its own product: the root holds 1, and a child holds its
    parent's residue times its sibling's product, modulo the child.  At
    the leaves that is prod_{k != j} m_k mod m_j.  Each step reduces a
    number about three times the child's size modulo the child, in place
    of one long division of the whole product per m_j (514 of about
    70,000 bits at N = 512).
    """
    tree = [moduli]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([prod(level[i : i + 2]) for i in range(0, len(level), 2)])
    residues = [1 % m for m in tree[-1]]  # the root's, if there is one
    for level in reversed(tree[:-1]):
        # The parent's residue times the sibling's product (1 for a node
        # without one), modulo the node.
        residues = [
            residues[i // 2] * (level[i ^ 1] if i ^ 1 < len(level) else 1) % m
            for i, m in enumerate(level)
        ]
    return residues


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
    """The singular moments M_0..M_N, from :func:`closed_form_rows` over int."""
    return [_coprime_fraction(num, den) for num, den in closed_form_rows(N, int)]


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
    Bernoulli number is involved.  The sum runs over integers: M_k * D
    over D, the lcm of the denominators so far, so each row takes one
    integer sum, one gcd with (3*2**m - 2) * D, and a rescale only when
    D grows.
    """
    N = _as_int(N, "moment index", 0)
    table = [Fraction(1)]
    scaled, D = [1], 1  # scaled[k] = M_k * D
    for m in range(1, N + 1):
        total = D + sum(comb(m, k) * scaled[k] for k in range(m))
        q = (3 * 2**m - 2) * D
        g = gcd(total, q)
        num, den = total // g, q // g
        table.append(_coprime_fraction(num, den))
        grown = lcm(D, den)
        if grown != D:
            scaled = [x * (grown // D) for x in scaled]
            D = grown
        scaled.append(num * (D // den))
    return table


# ---------------------------------------------------------------------------
# Remainder decay
# ---------------------------------------------------------------------------

# The N of the decay fit: nine doublings, 8 octaves from 16 to 4096.
DECAY_NS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


# The bound partial_sum's Euler-Maclaurin tail is truncated at: 1/256 of
# the unit in the last place of a partial sum, all of them >= M_0 = 1.
_TAIL_TOLERANCE = 2.0**-60


def partial_sum(N: int) -> float:
    """S_N = sum_{n<=N} M_n in float64, from the law of Y = C(U).

    The Cantor function takes the value (2b+1)/2**(l+1) on a middle third
    of length 3**-(l+1), for l >= 0 and 0 <= b < 2**l (as in
    :func:`cantor_moments.cantor._runs`), and those thirds fill [0, 1] up
    to a null set.  So with g_N(y) = sum_{n<=N} y**n = (1 - y**(N+1))/(1 - y),

        S_N = E g_N(Y) = sum_l 3**-(l+1) sum_b g_N((2b+1)/2**(l+1)).

    The levels l < L, 2**L > N, are summed term by term, 2**L - 1 terms;
    the levels l >= L come in closed form from :func:`_fine_levels`,
    whose Euler-Maclaurin series is cut at the order
    :func:`_tail_order` derives from its bound.  ``math.fsum`` adds the
    terms with one rounding: against the exact partial sums the result
    is within 4.4e-16, a unit in its last place, for every N <= 512.
    """
    N = _as_int(N, "moment index", 0)
    L = N.bit_length()
    e = N + 1
    terms = []
    for level in range(L):
        w, h = 3.0 ** -(level + 1), 0.5 ** (level + 1)
        ys = [b * h for b in range(1, 2 ** (level + 1), 2)]
        terms += [w * (1 - y**e) / (1 - y) for y in ys]
    terms += _fine_levels(N, L, _tail_order(N, L), 1.0)
    return fsum(terms)


def _fine_levels(N: int, L: int, J: int, one: _Q) -> list[_Q]:
    """The levels l >= L of :func:`partial_sum`'s sum, as terms in one's type.

    ``one`` is ``1.0`` or ``Fraction(1)``.  Level l is 3**-(l+1) 2**l
    times the midpoint rule with step h = 2**-l on [0, 1], applied to
    g_N, a polynomial of degree N.  Its Euler-Maclaurin expansion is
    finite and exact:

        midpoint_h(g) = int_0^1 g + sum_{1<=j<=(N+1)/2} h**(2j) B_{2j}(1/2)
                        / (2j)! * (g^(2j-1)(1) - g^(2j-1)(0)),

    with B_{2j}(1/2) = (2**(1-2j) - 1) B_{2j}, int_0^1 g_N = H_{N+1} and
    g_N^(m)(1) - g_N^(m)(0) = m! (C(N+1, m+1) - 1) for m <= N.  The
    levels' weights sum geometrically, sum_{l>=L} (2/3)**l / 3 =
    (2/3)**L, and with r_j = (2/3) 4**-j the levels l >= L are

        (2/3)**L H_{N+1} + sum_j r_j**L / (3(1 - r_j)) (2**(1-2j) - 1)
                                 B_{2j} / (2j) (C(N+1, 2j) - 1).

    The terms are those of H_{N+1}, scaled, then j = 1..J; the terms
    j > (N+1)/2 vanish, so with J >= (N+1)/2 they are exact, for any
    L >= 0.
    """
    J = min(J, (N + 1) // 2)
    q = 2 * one / 3
    terms = [q**L / k for k in range(1, N + 2)]
    B = bernoulli_numbers(2 * J)
    for j in range(1, J + 1):
        r = q / 4**j
        terms.append(
            r**L / (3 * (1 - r)) * (2 * one / 4**j - 1) * B[2 * j] / (2 * j)
            * (comb(N + 1, 2 * j) - 1)
        )
    return terms


def _tail_order(N: int, L: int) -> int:
    """The least J at which the terms j > J of :func:`_fine_levels` are
    below :data:`_TAIL_TOLERANCE`, for 2**L > N.

    With r_j <= 1/6, |2**(1-2j) - 1| < 1, |B_{2j}| <= 2 zeta(2) (2j)! /
    (2 pi)**(2j) and C(N+1, 2j) <= (N+1)**(2j) / (2j)!, term j is at most

        (2/5) (2/3)**L (pi**2/3) / (2j) * ((N+1) / (2**L 2 pi))**(2j),

    and (N+1)/2**L <= 1; each bound is below (2 pi)**-2 times the one
    before, so the terms j > J sum to at most the bound on term J + 1
    over 1 - (2 pi)**-2.
    """
    ratio = (2 * pi) ** -2
    scale = 0.4 * (2 / 3) ** L * pi**2 / 3 / (1 - ratio)
    J = 0
    while scale * ratio ** (J + 1) / (2 * (J + 1)) > _TAIL_TOLERANCE:
        J += 1
    return J


class DecayFit(NamedTuple):
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
    for D >= 2 digits.

    Raises:
        ValueError: "insufficient constant precision" if the certified
            error exceeds 1e-20; "remainder at N = ..." if a partial sum
            comes within 1e-6 of the limit or passes it.
    """
    if constant.certified_error > 1e-20:
        raise ValueError("insufficient constant precision")

    limit = float(constant.value)
    # The float sums and the float limit each carry rounding error; a
    # remainder under 1e-6 is too close to it to be attributed to the
    # true remainder.
    floor = 1e-6
    remainders = []
    for N in DECAY_NS:
        r = limit - partial_sum(N)
        if r <= floor:
            raise ValueError(f"remainder at N = {N} is {r:.3e}, not above {floor:g}")
        remainders.append(r)

    x = [log(N) for N in DECAY_NS]
    y = [log(r) for r in remainders]
    x_mean, y_mean = fsum(x) / len(x), fsum(y) / len(y)
    slope = fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / fsum(
        (a - x_mean) ** 2 for a in x
    )
    return DecayFit(slope, tuple(remainders))
