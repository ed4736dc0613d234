"""Command-line front end: computation, verification, and export.

Commands
--------

``cantor-moments constant --digits D [--json]``
    The series constant to D fractional digits with certified error; the
    error and its parts are printed rounded up.  The error bounds the
    unrounded working value, so the printed D-digit string is within it
    plus 1/2 * 10**-D of the true constant.

``cantor-moments moments --max-n N --format json|csv``
    Exact moments 0..N as numerator/denominator plus a 20-digit decimal.

``cantor-moments verify --suite S [--json]``
    Run a named check suite (oracle, identity, decay, mellin, cantor,
    all); exit 1 if any check fails.

The numpy-backed code, ``contour``, is imported only by the suite that
uses it (``mellin``), so ``constant``, ``moments`` and the other suites
never load numpy.  Unless ``OPENBLAS_NUM_THREADS`` is set, :func:`main`
sets it to 1 before numpy loads: no product in the program is large
enough for BLAS threads, and starting OpenBLAS's worker pool cost about
70 ms of each numpy-backed run on 2 cores.  Library callers keep
numpy's default.

Exit codes: 0 all-pass, 1 check failure or an output that cannot be
written (one ``error: cannot write output`` line on stderr, as on a full
disk), 2 usage error, 141 when the reader closes the output pipe early
(as ``| head`` does).  JSON output is byte-deterministic for identical
invocations (fixed field order and rendering; wall time is reported only
on stderr in human mode).
"""

from __future__ import annotations

import argparse
import decimal
import itertools
import json
import os
import sys
import time
from collections.abc import Iterator

from . import constant, exact, moments

_MAX_MOMENT_INDEX = 512


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _print_wall_time(start: float) -> None:
    # Flush stdout first: output that cannot be written then fails here,
    # and no time is printed for it.
    sys.stdout.flush()
    print(f"wall time: {int((time.monotonic() - start) * 1000)} ms", file=sys.stderr)


def _fmt(x: float) -> str:
    """Stable scientific rendering for measured values and tolerances."""
    return f"{x:.6e}"


def _fmt_up(x: float) -> str:
    """Like :func:`_fmt`, but rounded toward +infinity, for error bounds.

    The printed 7 significant digits are never below x, so a printed
    certified error still bounds the true error.
    """
    up = decimal.Context(prec=7, rounding=decimal.ROUND_CEILING)
    return _fmt(float(up.plus(decimal.Decimal(x))))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_constant(digits: int, json_mode: bool) -> int:
    start = time.monotonic()
    result = constant.moment_series_constant(digits)
    rendered = exact.decimal_string(result.value, digits)
    if json_mode:
        payload = {
            "constant": rendered,
            "digits": digits,
            "certified_error": _fmt_up(result.certified_error),
            "budget": {
                "target_digits": digits,
                "guard_digits": constant.GUARD_DIGITS,
                "exact_switch": constant.K0,
                "em_order": result.em_order,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"constant = {rendered}")
    print(f"certified error <= {_fmt_up(result.certified_error)}")
    print(
        f"error terms: Euler-Maclaurin remainder {_fmt_up(result.em_remainder)}, "
        f"ln 2 {_fmt_up(result.ln2_error)}, gamma {_fmt_up(result.gamma_error)}, "
        f"rounding {_fmt_up(result.rounding_error)}"
    )
    print(
        f"budget: K0 = {constant.K0}, J = {result.em_order}, "
        f"guard = {constant.GUARD_DIGITS}"
    )
    _print_wall_time(start)
    return 0


def cmd_moments(max_n: int, fmt: str) -> int:
    # The table runs on Decimal integers, which str() renders in linear
    # time, and each row is printed as it is computed, so the table is
    # never held.  The JSON rows are written by hand, byte for byte as
    # json.dumps(rows, indent=2) prints them.
    if fmt == "csv":
        print("n,num,den,decimal")
    for n, (num, den) in enumerate(moments.closed_form_rows(max_n, decimal.Decimal)):
        with decimal.localcontext(moments.EXACT):
            rendered = exact._fixed(num, den, 20)
        if fmt == "csv":
            print(f"{n},{num},{den},{rendered}")
        else:
            # Each row closes the one before it; the last is closed below.
            print("  }," if n else "[")
            print(
                f'  {{\n    "n": {n},\n    "num": {num},\n    "den": {den},\n'
                f'    "decimal": "{rendered}"'
            )
    if fmt == "json":
        print("  }\n]")
    return 0


# -- verify suites -----------------------------------------------------------
#
# Each suite yields its checks as (name, passed, measured, tolerance).

_Check = tuple[str, bool, str, str]


def _suite_oracle() -> Iterator[_Check]:
    closed_form = moments.bernoulli_moments(64)
    recursion = moments.recursive_moments(64)
    for n, (a, b) in enumerate(zip(closed_form, recursion)):
        equal = a == b
        yield f"moment_oracle_n{n}", equal, "equal" if equal else "unequal", "exact"


def _suite_identity() -> Iterator[_Check]:
    # One cumulative pass yields the double sum and the harmonic form of
    # every truncation K = 1..12; each pair is compared here.
    forms = itertools.islice(constant._identity_forms(), 12)
    for K, (double_form, harmonic_form) in enumerate(forms, 1):
        equal = double_form == harmonic_form
        yield f"double_sum_K{K}", equal, "equal" if equal else "unequal", "exact"


def _suite_decay() -> Iterator[_Check]:
    names = ("decay_slope_band", "remainders_positive", "remainders_decreasing")
    tolerances = ("[-0.75, -0.45]", "> 0", "decreasing at each doubling")
    try:
        fit = moments.decay_fit(constant.moment_series_constant())
    except ValueError as exc:
        # As in the Mellin suite, a failure inside the fit fails its checks
        # with the message as measured; the report is still printed.
        for name, tolerance in zip(names, tolerances):
            yield name, False, str(exc), tolerance
        return
    in_band = -0.75 <= fit.slope <= -0.45
    positive = all(r > 0 for r in fit.remainders)
    decreasing = all(b < a for a, b in zip(fit.remainders, fit.remainders[1:]))
    measured = (
        f"{fit.slope:.4f}",
        "all positive" if positive else "sign violation",
        "strictly decreasing" if decreasing else "non-monotone",
    )
    yield from zip(names, (in_band, positive, decreasing), measured, tolerances)


def _suite_mellin() -> Iterator[_Check]:
    from . import contour

    # A contour that fails inside the layer (a quadrature that does not
    # converge, a guard on zeta or on the line) is a failing check, not a
    # usage error: the affected checks fail with the layer's message, and
    # the report is still printed.
    for t, expected, tol in (
        (0.5, 0.0, 1.0e-3),
        (1.0, 0.0, 1.0e-2),
        (1.5, 0.5, 1.0e-3),
        (2.0, 1.0, 1.0e-3),
        (4.0, 3.0, 1.0e-3),
    ):
        try:
            err = abs(contour.perron_kernel(t) - expected)
        except ValueError as exc:
            yield f"perron_t_{t}", False, str(exc), _fmt(tol)
        else:
            yield f"perron_t_{t}", err <= tol, _fmt(err), _fmt(tol)
    orders = (1, 2, 5)
    try:
        got_moments, got_constant = contour.zeta_contours(orders)
    except ValueError as exc:
        for n in orders:
            yield f"moment_contour_n{n}", False, str(exc), _fmt(1.0e-3)
        yield "constant_contour", False, str(exc), _fmt(5.0e-3)
        return
    table = moments.bernoulli_moments(max(orders))
    for n, got in zip(orders, got_moments):
        err = abs(got - float(table[n]))
        yield f"moment_contour_n{n}", err <= 1.0e-3, _fmt(err), _fmt(1.0e-3)
    reference = constant.moment_series_constant()
    err = abs(got_constant - float(reference.value))
    yield "constant_contour", err <= 5.0e-3, _fmt(err), _fmt(5.0e-3)


def _suite_cantor() -> Iterator[_Check]:
    from . import cantor

    orders = (1, 2, 5)
    table = moments.bernoulli_moments(max(orders))
    for n, got in zip(orders, cantor.integral_quadrature(orders)):
        err = abs(got - float(table[n]))
        yield f"cantor_integral_n{n}", err <= 5.0e-3, _fmt(err), _fmt(5.0e-3)
    monotone_ok, symmetry_max, self_similar_max = cantor.self_similarity_residuals()
    yield (
        "cantor_monotone",
        monotone_ok,
        "nondecreasing" if monotone_ok else "violation",
        "nondecreasing on grid",
    )
    bound = 2.0 * 2.0**-64
    yield "cantor_symmetry", symmetry_max <= bound, _fmt(symmetry_max), _fmt(bound)
    yield (
        "cantor_self_similarity",
        self_similar_max <= bound,
        _fmt(self_similar_max),
        _fmt(bound),
    )


# The suites in the order that ``--suite all`` runs them.
_SUITES = {
    "oracle": _suite_oracle,
    "identity": _suite_identity,
    "decay": _suite_decay,
    "mellin": _suite_mellin,
    "cantor": _suite_cantor,
}


def cmd_verify(suite: str, json_mode: bool) -> int:
    start = time.monotonic()
    selected = list(_SUITES) if suite == "all" else [suite]
    checks = [
        {
            "name": name,
            "status": "pass" if passed else "fail",
            "measured": measured,
            "tolerance": tolerance,
        }
        for runner in selected
        for name, passed, measured, tolerance in _SUITES[runner]()
    ]
    all_pass = all(c["status"] == "pass" for c in checks)
    if json_mode:
        # No wall time here: identical invocations must produce
        # byte-identical JSON.
        report = {
            "command": "verify",
            "parameters": {"suite": suite},
            "checks": checks,
            "all_pass": all_pass,
        }
        print(json.dumps(report, indent=2))
    else:
        passed = sum(c["status"] == "pass" for c in checks)
        print(f"suite '{suite}': {passed}/{len(checks)} checks passed")
        for c in checks:
            print(
                f"[{c['status'].upper():4}] {c['name']}: "
                f"measured {c['measured']}, tolerance {c['tolerance']}"
            )
        _print_wall_time(start)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-moments",
        description="Exact Cantor-distribution moments, their certified "
        "series constant, and numerical verification suites.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_const = sub.add_parser("constant", help="evaluate the series constant")
    p_const.add_argument(
        "--digits",
        type=int,
        required=True,
        help=f"fractional digits, 1..{constant.MAX_DIGITS}; the certified error "
        "bounds the unrounded value, and rounding it to D digits adds up to "
        "1/2*10^-D",
    )
    p_const.add_argument("--json", action="store_true")

    p_mom = sub.add_parser("moments", help="tabulate exact moments")
    p_mom.add_argument("--max-n", type=int, required=True)
    p_mom.add_argument("--format", choices=("json", "csv"), default="csv")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p_ver.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Before numpy loads, so OpenBLAS starts no worker pool: about 70 ms
    # of each numpy-backed run on 2 cores, for products too small to use it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "constant":
            if not (1 <= args.digits <= constant.MAX_DIGITS):
                print(
                    f"error: --digits must be in [1, {constant.MAX_DIGITS}]",
                    file=sys.stderr,
                )
                return 2
            code = cmd_constant(args.digits, args.json)
        elif args.subcommand == "moments":
            if not (0 <= args.max_n <= _MAX_MOMENT_INDEX):
                print(
                    f"error: --max-n must be in [0, {_MAX_MOMENT_INDEX}]",
                    file=sys.stderr,
                )
                return 2
            code = cmd_moments(args.max_n, args.format)
        else:
            code = cmd_verify(args.suite, args.json)
        # Flush here, so that an output that cannot be written is caught
        # below and not in the interpreter's final flush.
        sys.stdout.flush()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        # Point stdout at the null device so that the final flush of what
        # is still buffered stays silent.  A reader that closed the pipe
        # early gets the status a shell reports for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(err, BrokenPipeError):
            return 141
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
