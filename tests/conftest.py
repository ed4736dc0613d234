"""Shared fixtures and the acceptance-criteria summary report.

Each test in tests/test_acceptance.py carries a ``criterion`` marker and
records exactly one PASS/FAIL line through the ``acceptance`` fixture;
``pytest_terminal_summary`` prints the collected lines at the end of the
run so the tee'd output always contains one line per criterion, with the
measured value and the tolerance side by side.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction

import pytest

from cantor_moments import bernoulli_moments, moment_series_constant

_LINES: "OrderedDict[str, str]" = OrderedDict()


def _record(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    _LINES[name] = f"{status} — {name}: {detail}"


@pytest.fixture(scope="session")
def constant_d30():
    """The 30-digit certified constant, shared across tests."""
    return moment_series_constant(30)


@pytest.fixture(scope="session")
def harmonic_powers():
    """H(2**k) for k = 0..14, by one plain running sum of 1/m to 2**14.

    The reference for the package's exact harmonic numbers: it shares no
    code with the prefix walk (no binary splitting, no dyadic blocks), and
    takes about 0.3 s once per session.
    """
    h = Fraction(0)
    powers = []
    for m in range(1, 2**14 + 1):
        h += Fraction(1, m)
        if m & (m - 1) == 0:
            powers.append(h)
    return powers


@pytest.fixture(scope="session")
def table_512():
    """The closed-form table M_0..M_512, built once for the tests that read it."""
    return bernoulli_moments(512)


@pytest.fixture
def acceptance(request):
    """Record a PASS/FAIL line for this test's criterion, then assert.

    Usage: ``acceptance(ok, detail)`` — records first, asserts second, so
    a failing criterion still leaves its FAIL line in the summary.
    """
    marker = request.node.get_closest_marker("criterion")
    assert marker is not None, "acceptance tests need @pytest.mark.criterion"
    name = marker.args[0]

    def _check(ok: bool, detail: str) -> None:
        _record(name, bool(ok), detail)
        assert ok, f"{name}: {detail}"

    return _check


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    name = marker.args[0]
    if report.failed and name not in _LINES:
        # The test crashed before it could record its measurement.
        _record(name, False, f"errored before measurement ({report.longreprtext.splitlines()[-1][:120]})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance criteria", sep="=")
    for line in _LINES.values():
        tr.line(line)
    passed = sum(1 for line in _LINES.values() if line.startswith("PASS"))
    tr.line(f"{passed}/{len(_LINES)} acceptance criteria passed")
