"""Unit tests for the command-line interface."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantor_moments
from cantor_moments import contour, moment_series_constant, moments
from cantor_moments.cantor import integral_quadrature
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
    "json": "a4a68c83dac0e3b2f9c4e4db05b399246dff46a7efce794fec32bd3f7bbce382",
    "human": "d9899030b1175d390d8bf7e76c66c1fe3f2550ccc92f17ba6d8882158e1dc190",
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
    table = moments.bernoulli_moments(5)
    for row in rows:
        assert Fraction(row["num"], row["den"]) == table[row["n"]]


@pytest.mark.parametrize("max_n", [0, 1, 5])
def test_moments_json_is_json_dumps_output(capsys, max_n):
    # The rows are written by hand; they read as json.dumps(rows, indent=2).
    code, out, _ = run_cli(capsys, ["moments", "--max-n", str(max_n), "--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)) == max_n + 1


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


# SHA-256 of `verify --suite S --json` stdout for the suites computed without
# numpy.  Their output comes from exact arithmetic and correctly rounded
# divisions, or for decay from float sums accurate to a few units in the
# last place whose slope is printed to 4 decimals, so unlike the mellin
# suite's it does not depend on the platform.  The CI workflow checks the
# installed command against this table, read from this file's source with
# ast.literal_eval, so it stays one literal assignment.
EXACT_SUITE_SHA256 = {
    "cantor": "aaa64a453c64c7e225c5021d28c9968ca8c76913104edba0c00a6fafb2b74521",
    "decay": "bc87955164740c6a5c47caec795bff4bc57db2f4563fc4b28e49991daee29b4e",
    "identity": "7de76765801acbe9c9759874a252c960aa93f0ab8270507ac3106f923f67ab9f",
    "oracle": "b170ee03cb0c7fcb3c438727439addf855df503dff1b837097015d6c73dbd205",
}


@pytest.mark.parametrize("suite", sorted(EXACT_SUITE_SHA256))
def test_exact_suite_stdout_pinned(capsys, suite):
    code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SUITE_SHA256[suite]


def test_verify_decay_suite_human(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "decay"])
    assert code == 0
    assert "[PASS] decay_slope_band" in out
    assert "3/3 checks passed" in out


def test_verify_all_report_contract(capsys):
    # The full report: every check's name and tolerance, in order, and the
    # measured values of the exact suites (oracle, identity, decay).  The
    # mellin suite's measured values depend on numpy's SIMD and BLAS; the
    # cantor suite's are pinned by EXACT_SUITE_SHA256.
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all", "--json"])
    assert code == 0
    payload = json.loads(out)
    checks = payload["checks"]
    assert payload["parameters"] == {"suite": "all"}
    assert payload["all_pass"] is True
    assert all(c["status"] == "pass" for c in checks)
    exact = [(f"moment_oracle_n{n}", "equal", "exact") for n in range(65)]
    exact += [(f"double_sum_K{K}", "equal", "exact") for K in range(1, 13)]
    exact += [
        ("decay_slope_band", "-0.5759", "[-0.75, -0.45]"),
        ("remainders_positive", "all positive", "> 0"),
        ("remainders_decreasing", "strictly decreasing", "decreasing at each doubling"),
    ]
    floats = [
        ("perron_t_0.5", "1.000000e-03"),
        ("perron_t_1.0", "1.000000e-02"),
        ("perron_t_1.5", "1.000000e-03"),
        ("perron_t_2.0", "1.000000e-03"),
        ("perron_t_4.0", "1.000000e-03"),
        ("moment_contour_n1", "1.000000e-03"),
        ("moment_contour_n2", "1.000000e-03"),
        ("moment_contour_n5", "1.000000e-03"),
        ("constant_contour", "5.000000e-03"),
        ("cantor_integral_n1", "5.000000e-03"),
        ("cantor_integral_n2", "5.000000e-03"),
        ("cantor_integral_n5", "5.000000e-03"),
        ("cantor_monotone", "nondecreasing on grid"),
        ("cantor_symmetry", "1.084202e-19"),
        ("cantor_self_similarity", "1.084202e-19"),
    ]
    assert len(checks) == len(exact) + len(floats) == 95
    assert [(c["name"], c["measured"], c["tolerance"]) for c in checks[:80]] == exact
    assert [(c["name"], c["tolerance"]) for c in checks[80:]] == floats


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
    # usage error (exit 2, no report), and each check reports the contour
    # layer's own message.
    from cantor_moments import contour

    def measured(budget):
        monkeypatch.setattr(contour, "_MAX_EVALS", budget)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "mellin", "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["all_pass"] is False
        return {c["name"]: c["measured"] for c in payload["checks"] if c["status"] == "fail"}

    refused = "starting mesh exceeds the evaluation budget"
    # 1,000 nodes: every starting mesh is refused before any evaluation.
    failing = measured(1000)
    assert len(failing) == 9
    assert set(failing.values()) == {refused}
    # 16,600 nodes: the P-wide meshes fit and run out while refining; the
    # t = 4 mesh, half as wide, is still refused.
    failing = measured(16_600)
    assert len(failing) == 9
    assert failing.pop("perron_t_4.0") == refused
    exhausted = "quadrature budget exhausted before tolerance: best estimate "
    for message in failing.values():
        assert message.startswith(exhausted) and "nan" not in message


def test_contour_guard_failure_fails_checks(capsys, monkeypatch):
    # The contour layer's other ValueErrors, here the zeta remainder guard,
    # are check failures too: exit 1, report printed, message as measured.
    from cantor_moments import contour

    monkeypatch.setattr(contour, "_EM_TOL", 1e-30)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "mellin", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    failing = {c["name"]: c["measured"] for c in payload["checks"] if c["status"] == "fail"}
    assert sorted(failing) == [
        "constant_contour",
        "moment_contour_n1",
        "moment_contour_n2",
        "moment_contour_n5",
    ]
    for measured in failing.values():
        assert measured.startswith("zeta Euler-Maclaurin remainder above tolerance")


def test_decay_fit_failure_fails_checks(capsys, monkeypatch):
    # A ValueError inside the decay fit, here from partial sums 1 % too
    # large, fails the three decay checks; the other 92 checks still run.
    real = moments.partial_sum
    monkeypatch.setattr(moments, "partial_sum", lambda N: 1.01 * real(N))
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all", "--json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 95
    failing = [c for c in checks if c["status"] == "fail"]
    assert [(c["name"], c["tolerance"]) for c in failing] == [
        ("decay_slope_band", "[-0.75, -0.45]"),
        ("remainders_positive", "> 0"),
        ("remainders_decreasing", "decreasing at each doubling"),
    ]
    # The partial sum at N = 4096 passes the limit; the constant is not blamed.
    expected = "remainder at N = 4096 is -7.082e-03, not above 1e-06"
    assert all(c["measured"] == expected for c in failing)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--max-n", "64"],
        ["constant", "--digits", "10", "--json"],
        ["verify", "--suite", "oracle", "--json"],
        # Human mode prints the wall time to stderr, after stdout is flushed.
        ["constant", "--digits", "10"],
        ["verify", "--suite", "oracle"],
    ],
)
def test_unwritable_output_is_one_error_line(argv, unbuffered):
    # Every write to /dev/full fails with ENOSPC, at the first print when
    # stdout is unbuffered and at the flush in main when it is not: one
    # line on stderr, exit 1, and nothing from the interpreter's final
    # flush, even with warnings as errors.
    env = {
        **os.environ,
        "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        "PYTHONWARNINGS": "error",
        "PYTHONUNBUFFERED": unbuffered,
    }
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "cantor_moments.cli", *argv],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"
    ]


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


# Option values at the edges of what argparse's int() and the range checks
# take.  Valid counts stay at or below 64, and the suites leave out mellin
# and all, so each drawn run is fast.
_ARGV_VALUES = (
    "0", "-1", "1", "5", "61", "64", "1e3", "3.5", "0x10", "1_0", "07", "+5",
    "\u0663", "12345678901234567890", "", "json", "csv", "xml",
    "oracle", "identity", "decay", "cantor", "bogus",
)
_ARGV_OPTIONS = ("--digits", "--max-n", "--format", "--suite", "--json", "--bogus")
_REQUIRED = {"constant": "--digits", "moments": "--max-n", "verify": "--suite"}


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(("constant", "moments", "verify", "bogus")),
    st.sampled_from(_ARGV_VALUES),
    st.lists(st.sampled_from(_ARGV_OPTIONS + _ARGV_VALUES), max_size=3),
)
def test_any_argv_exits_0_or_2_with_one_error_line(command, value, extra):
    # The command's required option with a drawn value, then up to three
    # more options or values in any order.
    argv = [command, _REQUIRED.get(command, "--json"), value, *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 2), argv
    assert not any("Traceback" in line for line in lines), argv
    if code == 2:
        assert sum("error:" in line for line in lines) == 1, argv


def test_library_results_do_not_depend_on_threads():
    # Exact and float results alike do not depend on thread interleaving:
    # the jobs run twice each in a pool of 4 threads, the zeta caches
    # cleared first, and every result's repr is the serial one.
    jobs = [
        functools.partial(contour.zeta_contours, (1, 2, 5)),
        *(functools.partial(contour.perron_kernel, t) for t in (0.5, 1.0, 2.0)),
        functools.partial(moments.bernoulli_moments, 128),
        functools.partial(moments.recursive_moments, 64),
        functools.partial(moment_series_constant, 60),
        functools.partial(integral_quadrature, (1, 2, 5)),
        lambda: moments.decay_fit(moment_series_constant(30)),
    ]
    serial = [repr(job()) for job in jobs]
    contour._factorization.cache_clear()
    contour._rs_series.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda job: repr(job()), jobs * 2))
    assert threaded == serial * 2


# ---------------------------------------------------------------------------
# package surface and process state
# ---------------------------------------------------------------------------


def test_public_names_resolve():
    # __all__ is exactly the package's public names, without repeats, and
    # every name in it resolves.
    public = {
        name
        for name, value in vars(cantor_moments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    names = cantor_moments.__all__
    assert len(names) == len(set(names))
    assert set(names) == public
    for name in names:
        assert getattr(cantor_moments, name) is not None


def test_readme_library_example_runs():
    # The README's library example runs as printed, so removing or
    # renaming a public name it uses fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})


def test_constant_and_moments_do_not_import_numpy():
    code = (
        "import sys\n"
        "from cantor_moments import cli\n"
        "assert cli.main(['constant', '--digits', '5', '--json']) == 0\n"
        "assert cli.main(['moments', '--max-n', '8']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
        "assert 'inspect' not in sys.modules, 'inspect was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "3.36465" in run.stdout


def test_numpy_free_commands_run_without_numpy():
    # With numpy unimportable, every command that needs no numpy still
    # succeeds: every suite but mellin, the constant and the table.
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from cantor_moments import cli\n"
        "for argv in (\n"
        "    ['verify', '--suite', 'cantor', '--json'],\n"
        "    ['verify', '--suite', 'decay', '--json'],\n"
        "    ['verify', '--suite', 'oracle', '--json'],\n"
        "    ['verify', '--suite', 'identity', '--json'],\n"
        "    ['constant', '--digits', '60', '--json'],\n"
        "    ['moments', '--max-n', '64'],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr


def _blas_env(threads: str | None) -> dict[str, str]:
    # In-process main() calls by other tests leave OPENBLAS_NUM_THREADS
    # set here, so the child's value is set or dropped explicitly.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _after_mellin_suite(threads: str | None, expression: str) -> str:
    """What a child prints of ``expression`` after main() ran the mellin suite,
    the only one that loads numpy."""
    code = (
        "import contextlib, io, os, sys\n"
        "from cantor_moments import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'mellin', '--json']) == 0\n"
        "assert 'numpy' in sys.modules, 'the mellin suite loaded no numpy'\n"
        f"print({expression})\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=_blas_env(threads),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_runs_openblas_on_one_thread():
    # numpy loads inside the suite, after main() has asked OpenBLAS for
    # one thread, so no worker pool is started: one thread in the process.
    assert _after_mellin_suite(None, "len(os.listdir('/proc/self/task'))") == "1\n"


def test_cli_keeps_a_set_blas_thread_count():
    assert _after_mellin_suite("2", "os.environ['OPENBLAS_NUM_THREADS']") == "2\n"


def test_verify_output_does_not_depend_on_blas_threads():
    # mellin, the only suite that loads numpy, takes its products with
    # einsum: one OpenBLAS thread or two, the report is the same bytes.
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "cantor_moments.cli", "verify", "--suite", "mellin", "--json"],
            env=_blas_env(threads),
            capture_output=True,
            timeout=120,
            check=True,
        ).stdout
        for threads in (None, "2")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["all_pass"] is True


def test_moments_prints_past_a_low_int_str_limit(capsys):
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
    assert Fraction(int(num), int(den)) == moments.bernoulli_moments(120)[int(n)]


def test_mellin_suite_does_not_import_numpy_ma():
    # numpy.ma costs about 30 ms of a cold run; numpy imports it lazily,
    # from np.unique on an integer array, for one.
    assert _after_mellin_suite(None, "'numpy.ma' in sys.modules") == "False\n"
