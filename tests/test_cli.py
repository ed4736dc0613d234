"""Unit tests for the command-line interface."""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import cantor_moments
from cantor_moments import moment_series_constant, moments
from cantor_moments.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------


def test_constant_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["constant", "--digits", "10", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["constant", "digits", "certified_error", "budget"]
    assert payload["digits"] == 10
    assert payload["constant"] == "3.3646507281"
    assert set(payload["budget"]) == {
        "target_digits",
        "guard_digits",
        "exact_switch",
        "em_order",
    }


def test_constant_human_mode(capsys):
    code, out, err = run_cli(capsys, ["constant", "--digits", "5"])
    assert code == 0
    assert "constant = 3.36465" in out
    assert "certified error" in out
    assert "error terms: Euler-Maclaurin remainder" in out
    assert "wall time" in err  # stderr only, keeping stdout deterministic


def test_constant_digit_range_errors(capsys):
    for digits in ("0", "61", "-3"):
        code, _, err = run_cli(capsys, ["constant", "--digits", digits])
        assert code == 2
        assert "--digits must be in [1, 60]" in err


def test_certified_error_printed_rounded_up(capsys):
    # A printed bound must never be below the computed one: the D = 30
    # bound 5.003468159758599e-43 rounded to nearest prints 5.003468e-43.
    for digits in range(1, 61):
        result = moment_series_constant(digits)
        _, out, _ = run_cli(capsys, ["constant", "--digits", str(digits), "--json"])
        printed = Decimal(json.loads(out)["certified_error"])
        assert printed >= Decimal(result.certified_error), digits
    result = moment_series_constant(30)
    _, out, _ = run_cli(capsys, ["constant", "--digits", "30"])
    printed = [Decimal(x) for x in re.findall(r"\d\.\d{6}e[-+]\d+", out)]
    exact = [
        result.certified_error,
        result.em_remainder,
        result.ln2_error,
        result.gamma_error,
        result.rounding_error,
    ]
    assert len(printed) == len(exact)
    assert all(p >= Decimal(x) for p, x in zip(printed, exact))


# SHA-256 of the stdout of `constant --digits D` for D = 1..60, concatenated
# in order, in JSON and in human mode (human mode prints its wall time on
# stderr only).
CONSTANT_STDOUT_SHA256 = {
    "json": "9d4aa04fab98a6d49b71ae3516e4c99ed4fa9d01f82fd41b959e568e7f5ddd7f",
    "human": "708c9af3ea88ebed5f8e0834519e0f5348ccf355831299c811f451fc6bf97684",
}


@pytest.mark.parametrize("mode", sorted(CONSTANT_STDOUT_SHA256))
def test_constant_stdout_pinned_for_every_digit_count(capsys, mode):
    flags = ["--json"] if mode == "json" else []
    digest = hashlib.sha256()
    for digits in range(1, 61):
        code, out, _ = run_cli(capsys, ["constant", "--digits", str(digits), *flags])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == CONSTANT_STDOUT_SHA256[mode]


def test_constant_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["constant", "--digits", "15", "--json"])
    _, second, _ = run_cli(capsys, ["constant", "--digits", "15", "--json"])
    assert first == second


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_csv_rows(capsys):
    code, out, _ = run_cli(capsys, ["moments", "--max-n", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,num,den,decimal"
    assert lines[1] == "0,1,1,1.00000000000000000000"
    assert lines[2] == "1,1,2,0.50000000000000000000"
    assert lines[3] == "2,3,10,0.30000000000000000000"


def test_moments_zero_gives_single_row(capsys):
    code, out, _ = run_cli(capsys, ["moments", "--max-n", "0", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + the n = 0 row
    assert lines[1].startswith("0,1,1,")


def test_moments_json_fields(capsys):
    code, out, _ = run_cli(capsys, ["moments", "--max-n", "5", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert rows[5] == {
        "n": 5,
        "num": 5,
        "den": 46,
        "decimal": "0.10869565217391304348",
    }
    for row in rows:
        assert Fraction(row["num"], row["den"]) == moments.moment_bernoulli(row["n"])


# SHA-256 of the 256 table's stdout, as pinned in perfbench/reference.json.
MOMENTS_256_SHA256 = {
    "csv": "a85ba546cd62bf234d2482b235b98b464735f8e76639dd6c366fd406e196a2ce",
    "json": "f573b7fac119de4c70f9c4160a1bf94fde0e35d14c941c3acaaed667c9310644",
}


@pytest.mark.parametrize("fmt", sorted(MOMENTS_256_SHA256))
def test_moments_256_stdout_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, ["moments", "--max-n", "256", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MOMENTS_256_SHA256[fmt]


def test_moments_range_error(capsys):
    code, _, err = run_cli(capsys, ["moments", "--max-n", "513", "--format", "csv"])
    assert code == 2
    assert "--max-n must be in [0, 512]" in err


def test_moments_csv_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["moments", "--max-n", "8", "--format", "csv"])
    _, second, _ = run_cli(capsys, ["moments", "--max-n", "8", "--format", "csv"])
    assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_oracle_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "oracle", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 65
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "measured", "tolerance"}
        assert check["status"] == "pass"


def test_verify_identity_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "identity", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 12


def test_verify_decay_suite_human(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "decay"])
    assert code == 0
    assert "[PASS] decay_slope_band" in out
    assert "3/3 checks passed" in out


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["verify", "--suite", "decay", "--json"])
    _, second, _ = run_cli(capsys, ["verify", "--suite", "decay", "--json"])
    assert first == second


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Sabotage one entry of the recursion table so the suite records a
    # failing check.
    real = moments.recursive_moments

    def broken(N):
        table = real(N)
        table[3] = Fraction(1, 7)
        return table

    monkeypatch.setattr(moments, "recursive_moments", broken)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "oracle", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    failing = [c for c in payload["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failing] == ["moment_oracle_n3"]


def test_quadrature_non_convergence_fails_checks(capsys, monkeypatch):
    # A starved budget is a check failure (exit 1, report printed), not a
    # usage error (exit 2, no report).
    from cantor_moments import contour

    starved = functools.partial(contour.QuadratureSpec, max_evals=1000)
    monkeypatch.setattr(contour, "QuadratureSpec", starved)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "mellin", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    checks = {c["name"]: (c["status"], c["measured"]) for c in payload["checks"]}
    for name in (
        "perron_t_4.0",
        "moment_contour_n1",
        "moment_contour_n2",
        "moment_contour_n5",
        "constant_contour",
    ):
        assert checks[name] == ("fail", "quadrature not converged")


def test_closed_pipe_exits_quietly():
    # A reader that stops early (`moments | head -1`) closes the pipe; the
    # command exits with the shell's SIGPIPE status and no traceback.
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cantor_moments.cli", "moments", "--max-n", "512"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,num,den,decimal\n"
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == 141


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["moments", "--max-n", "2", "--format", "xml"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# package surface and process state
# ---------------------------------------------------------------------------


def test_public_names_resolve():
    # __all__ is exactly the eagerly imported names plus the lazy ones,
    # the two sets are disjoint, each lazy name is defined in the module
    # it maps to, and every name in __all__ resolves.
    eager = {
        name
        for name, value in vars(cantor_moments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    lazy = cantor_moments._LAZY_MODULE
    names = cantor_moments.__all__
    assert len(names) == len(set(names))
    assert eager.isdisjoint(lazy)
    assert set(names) == eager | set(lazy)
    for name, module in lazy.items():
        value = getattr(importlib.import_module(f"cantor_moments.{module}"), name)
        assert value.__module__ == f"cantor_moments.{module}", name
    for name in names:
        assert getattr(cantor_moments, name) is not None


def test_constant_and_moments_do_not_import_numpy():
    code = (
        "import sys\n"
        "from cantor_moments import cli\n"
        "assert cli.main(['constant', '--digits', '5', '--json']) == 0\n"
        "assert cli.main(['moments', '--max-n', '8']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "from cantor_moments import constant_contour, cantor_value\n"
        "assert callable(constant_contour) and callable(cantor_value)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "3.36465" in run.stdout


def test_moments_restores_int_str_limit(capsys):
    # The n = 120 denominator has 1047 digits, above a 640-digit limit.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, ["moments", "--max-n", "120", "--format", "csv"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    n, num, den, _ = out.strip().splitlines()[-1].split(",")
    assert Fraction(int(num), int(den)) == moments.moment_bernoulli(int(n))
