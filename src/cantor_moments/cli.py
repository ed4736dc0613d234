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

The numpy-backed modules (``contour``, ``cantor``) are imported only by
the suites that use them, so ``constant`` and ``moments`` never load
numpy.

Exit codes: 0 all-pass, 1 check failure, 2 usage error, 141 when the
reader closes the output pipe early (as ``| head`` does).  JSON output is
byte-deterministic for identical invocations (fixed field order and
rendering; wall time is reported only on stderr in human mode).
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import constant, exact, moments

_MAX_DIGITS = 60
_MAX_MOMENT_INDEX = 512
_SUITES = ("oracle", "identity", "decay", "mellin", "cantor", "all")


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Outcome of one ``verify`` run."""

    command: str
    parameters: dict
    checks: list = field(default_factory=list)

    def add_check(self, name: str, passed: bool, measured: str, tolerance: str) -> None:
        self.checks.append(
            {
                "name": name,
                "status": "pass" if passed else "fail",
                "measured": measured,
                "tolerance": tolerance,
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_json_dict(self) -> dict:
        # No wall time here: identical invocations must produce
        # byte-identical JSON.
        out = {"command": self.command, "parameters": self.parameters}
        if self.checks:
            out["checks"] = self.checks
            out["all_pass"] = self.all_pass
        return out


def _print_wall_time(start: float) -> None:
    print(f"wall time: {int((time.monotonic() - start) * 1000)} ms", file=sys.stderr)


def _emit(
    report: RunReport, json_mode: bool, human_lines: list[str], start: float
) -> None:
    if json_mode:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in human_lines:
            print(line)
        for check in report.checks:
            print(
                f"[{check['status'].upper():4}] {check['name']}: "
                f"measured {check['measured']}, tolerance {check['tolerance']}"
            )
        _print_wall_time(start)


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
    rendered = result.value.decimal_string(digits)
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
    rows = (
        {
            "n": n,
            "num": value.numerator,
            "den": value.denominator,
            "decimal": exact.BigFixed.from_fraction(value, 20).decimal_string(),
        }
        for n, value in enumerate(moments.iter_bernoulli_moments(max_n))
    )
    # CPython refuses to render ints above 4300 digits by default, and
    # large tables exceed that: lift the limit for this output only.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps(list(rows), indent=2))
        else:
            # Rows are printed as they are computed, so the table is never held.
            print("n,num,den,decimal")
            for row in rows:
                print(f"{row['n']},{row['num']},{row['den']},{row['decimal']}")
    finally:
        sys.set_int_max_str_digits(previous)
    return 0


# -- verify suites -----------------------------------------------------------


def _suite_oracle(report: RunReport) -> None:
    closed_form = moments.bernoulli_moments(64)
    recursion = moments.recursive_moments(64)
    for n, (a, b) in enumerate(zip(closed_form, recursion)):
        equal = a == b
        report.add_check(
            f"moment_oracle_n{n}",
            equal,
            "equal" if equal else "unequal",
            "exact",
        )


def _suite_identity(report: RunReport) -> None:
    # double_sum_check raises if the double sum and the harmonic form of
    # the truncation disagree.
    for K in range(1, 13):
        try:
            constant.double_sum_check(K)
            equal = True
        except AssertionError:
            equal = False
        report.add_check(
            f"double_sum_K{K}",
            equal,
            "equal" if equal else "unequal",
            "exact",
        )


def _suite_decay(report: RunReport) -> None:
    fit = moments.decay_fit(constant.moment_series_constant().value)
    in_band = -0.75 <= fit.slope <= -0.45
    report.add_check(
        "decay_slope_band", in_band, f"{fit.slope:.4f}", "[-0.75, -0.45]"
    )
    positive = all(r > 0 for r in fit.remainders)
    report.add_check(
        "remainders_positive",
        positive,
        "all positive" if positive else "sign violation",
        "> 0",
    )
    decreasing = all(b < a for a, b in zip(fit.remainders, fit.remainders[1:]))
    report.add_check(
        "remainders_decreasing",
        decreasing,
        "strictly decreasing" if decreasing else "non-monotone",
        "decreasing at each doubling",
    )


def _suite_mellin(report: RunReport) -> None:
    from . import contour

    # A quadrature that does not converge is a failing check, not a usage
    # error: the affected checks fail and the report is still printed.
    not_converged = "quadrature not converged"
    spec = contour.QuadratureSpec()
    for t, expected, tol in (
        (0.5, 0.0, 1.0e-3),
        (1.0, 0.0, 1.0e-2),
        (1.5, 0.5, 1.0e-3),
        (2.0, 1.0, 1.0e-3),
        (4.0, 3.0, 1.0e-3),
    ):
        try:
            err = abs(contour.perron_kernel(t, spec) - expected)
        except contour.QuadratureError:
            report.add_check(f"perron_t_{t}", False, not_converged, _fmt(tol))
        else:
            report.add_check(f"perron_t_{t}", err <= tol, _fmt(err), _fmt(tol))
    orders = (1, 2, 5)
    try:
        got_moments, got_constant = contour.zeta_contours(orders, spec)
    except contour.QuadratureError:
        for n in orders:
            report.add_check(
                f"moment_contour_n{n}", False, not_converged, _fmt(1.0e-3)
            )
        report.add_check("constant_contour", False, not_converged, _fmt(5.0e-3))
        return
    for n, got in zip(orders, got_moments):
        err = abs(got - float(moments.moment_bernoulli(n)))
        report.add_check(f"moment_contour_n{n}", err <= 1.0e-3, _fmt(err), _fmt(1.0e-3))
    reference = constant.moment_series_constant()
    err = abs(got_constant - reference.value.to_float())
    report.add_check("constant_contour", err <= 5.0e-3, _fmt(err), _fmt(5.0e-3))


def _suite_cantor(report: RunReport) -> None:
    from . import cantor

    for n in (1, 2, 5):
        got = cantor.integral_quadrature(n, 10**6)
        err = abs(got - float(moments.moment_bernoulli(n)))
        report.add_check(
            f"cantor_integral_n{n}", err <= 5.0e-3, _fmt(err), _fmt(5.0e-3)
        )
    monotone_ok, symmetry_max, self_similar_max = cantor.self_similarity_residuals()
    report.add_check(
        "cantor_monotone",
        monotone_ok,
        "nondecreasing" if monotone_ok else "violation",
        "nondecreasing on grid",
    )
    bound = 2.0 * 2.0**-64
    report.add_check(
        "cantor_symmetry", symmetry_max <= bound, _fmt(symmetry_max), _fmt(bound)
    )
    report.add_check(
        "cantor_self_similarity",
        self_similar_max <= bound,
        _fmt(self_similar_max),
        _fmt(bound),
    )


def cmd_verify(suite: str, json_mode: bool) -> int:
    start = time.monotonic()
    report = RunReport(command="verify", parameters={"suite": suite})
    runners = {
        "oracle": _suite_oracle,
        "identity": _suite_identity,
        "decay": _suite_decay,
        "mellin": _suite_mellin,
        "cantor": _suite_cantor,
    }
    selected = list(runners) if suite == "all" else [suite]
    for name in selected:
        runners[name](report)
    passed = sum(1 for c in report.checks if c["status"] == "pass")
    human = [f"suite '{suite}': {passed}/{len(report.checks)} checks passed"]
    _emit(report, json_mode, human, start)
    return 0 if report.all_pass else 1


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
        help="fractional digits, 1..60; the certified error bounds the "
        "unrounded value, and rounding it to D digits adds up to 1/2*10^-D",
    )
    p_const.add_argument("--json", action="store_true")

    p_mom = sub.add_parser("moments", help="tabulate exact moments")
    p_mom.add_argument("--max-n", type=int, required=True)
    p_mom.add_argument("--format", choices=("json", "csv"), default="csv")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=_SUITES, required=True)
    p_ver.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "constant":
            if not (1 <= args.digits <= _MAX_DIGITS):
                print(
                    f"error: --digits must be in [1, {_MAX_DIGITS}]",
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
        # Flush here, so that a reader that closed the pipe early is caught
        # below and not in the interpreter's final flush.
        sys.stdout.flush()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at the null device so that the final flush of what
        # is still buffered stays silent, and exit as a shell reports SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
