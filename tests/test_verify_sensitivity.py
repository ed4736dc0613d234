"""What ``verify`` can see: planted faults that its checks must catch.

Each row of :data:`ROWS` plants one fault with a monkeypatch, an output
scaled by (1 + size) or shifted by size, runs the named suites in process
through ``cli._SUITES`` and asserts that the named checks are among those
that fail.  A size is the smallest decade at which some check failed when
the row was written; one decade below it, every check of the row's suites
passed.  So the table measures the report's sensitivity as well as
pinning it.  A later check that sees smaller faults adds rows at the
sizes it makes visible; no row is removed or enlarged.

Faults that ``verify`` missed when the table was written, and so have no
row: ln 2 or Euler's gamma + 1e-20 inside the certified constant, and the
Cantor power sums scaled by (1 + 1e-6).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cantor_moments import cantor, cli, constant, contour, moments


def _scaled(module, name):
    """A fault that multiplies the output of module.name by (1 + size)."""

    def plant(monkeypatch, size):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: real(*args) * (1 + size))

    return plant


def _shifted_constant(monkeypatch, size):
    real = constant.moment_series_constant

    def shifted(*args):
        result = real(*args)
        return result._replace(value=result.value + Fraction(size))

    monkeypatch.setattr(constant, "moment_series_constant", shifted)


def _scaled_power_sums(monkeypatch, size):
    # Sums n >= 1 only, kept exact integers: s * (1 + size), rounded down.
    real = cantor._power_sums
    ratio = Fraction(str(size))

    def scaled(cells, top):
        sums = real(cells, top)
        return sums[:1] + [s + s * ratio.numerator // ratio.denominator for s in sums[1:]]

    monkeypatch.setattr(cantor, "_power_sums", scaled)


CONTOURS = {"moment_contour_n1", "moment_contour_n2", "moment_contour_n5", "constant_contour"}
DECAY = {"decay_slope_band", "remainders_positive", "remainders_decreasing"}

# (target, fault, size, suites run, checks that must fail)
ROWS = [
    ("contour._zeta_grid", _scaled(contour, "_zeta_grid"), 1e-2, ("mellin",), CONTOURS),
    ("contour.perron_integrand", _scaled(contour, "perron_integrand"), 1e-3, ("mellin",),
     {"perron_t_4.0"}),
    ("moments.partial_sum", _scaled(moments, "partial_sum"), 1e-2, ("decay",), DECAY),
    ("constant.moment_series_constant", _shifted_constant, 1e-2, ("mellin",),
     {"constant_contour"}),
    ("cantor._power_sums", _scaled_power_sums, 1e-2, ("cantor",), {"cantor_integral_n1"}),
]


@pytest.mark.parametrize(
    "target, plant, size, suites, must_fail", ROWS, ids=[row[0] for row in ROWS]
)
def test_planted_fault_fails_its_checks(monkeypatch, target, plant, size, suites, must_fail):
    plant(monkeypatch, size)
    failed = {
        name
        for suite in suites
        for name, passed, _, _ in cli._SUITES[suite]()
        if not passed
    }
    assert must_fail <= failed, (target, size, sorted(failed))
