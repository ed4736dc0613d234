"""Tests of the benchmark's own logic: checkers, the tail rule and span arithmetic.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import pytest

import checks
import run
import stats


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def _constant_stdout(value: str, digits: int, error: str = "5.460000e-33") -> bytes:
    payload = {"constant": value, "digits": digits, "certified_error": error, "budget": {}}
    return json.dumps(payload, indent=2).encode()


def test_reference_matches_printed_constant(reference):
    assert abs(reference.constant - checks.PRINTED_CONSTANT) <= Fraction(1, 10**28)


def test_constant_checker_accepts_the_right_value(reference):
    ok, margin = checks.check_constant(
        _constant_stdout("3.364650728100925160838934962887", 30), 30, reference
    )
    assert ok
    assert margin == pytest.approx(-math.log10(5.46e-33) - 30)


@pytest.mark.parametrize(
    "stdout",
    [
        _constant_stdout("3.364650728100925160838934962897", 30),  # one digit off
        _constant_stdout("3.36465072810092516083893496289", 30),  # too few digits
        _constant_stdout("3.364650728100925160838934962887", 30, "2.0e-30"),  # loose bound
        b'{"constant": "3.36"',  # truncated
        b"",
    ],
)
def test_tampered_constant_output_fails(reference, stdout):
    assert not checks.check_constant(stdout, 30, reference)[0]


def test_op_checker_counts_tampered_output_and_bad_exit_as_failed(reference):
    checker = run.Checker()
    op = run.constant_op(30)
    good = _constant_stdout("3.364650728100925160838934962887", 30)
    assert checker(op, 0, good)[0]
    assert not checker(op, 0, good.replace(b"62887", b"62888"))[0]
    assert not checker(op, 1, good)[0]
    tally = run.Tally()
    for stdout in (good, good.replace(b"3.36", b"3.37")):
        tally.add(checker(op, 0, stdout)[0])
    assert (tally.attempted, tally.failed) == (2, 1)


def _moments_csv(rows):
    lines = ["n,num,den,decimal"] + [f"{n},{v.numerator},{v.denominator},0" for n, v in rows]
    return ("\n".join(lines) + "\n").encode()


ORACLE = checks.recursion_moments(65)


def _digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def test_recursion_oracle_first_moments():
    assert ORACLE[:4] == [Fraction(1), Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]


def test_moments_checker_digest_and_rows():
    good = _moments_csv(enumerate(ORACLE[:3]))
    ref = checks.Reference(Fraction(0), Fraction(0), {"2/csv": _digest(good)})
    assert checks.check_moments(good, _digest(good), 2, "csv", ref, ORACLE)[0]

    tampered = good.replace(b"3,10", b"3,11")
    assert not checks.check_moments(tampered, _digest(tampered), 2, "csv", ref, ORACLE)[0]

    # A digest that matches bad rows still fails on the recursion oracle.
    wrong = _moments_csv([(0, Fraction(1)), (1, Fraction(1, 2)), (2, Fraction(1, 3))])
    ref_wrong = checks.Reference(Fraction(0), Fraction(0), {"2/csv": _digest(wrong)})
    assert not checks.check_moments(wrong, _digest(wrong), 2, "csv", ref_wrong, ORACLE)[0]
    # No stored digest for this (N, format) pair.
    assert not checks.check_moments(good, _digest(good), 2, "json", ref, ORACLE)[0]


def test_moments_checker_reads_json_rows():
    rows = [{"n": n, "num": v.numerator, "den": v.denominator, "decimal": "0"}
            for n, v in enumerate(ORACLE[:66])]
    good = json.dumps(rows, indent=2).encode()
    ref = checks.Reference(Fraction(0), Fraction(0), {"65/json": _digest(good)})
    assert checks.check_moments(good, _digest(good), 65, "json", ref, ORACLE)[0]
    rows[64]["num"] += 1
    bad = json.dumps(rows, indent=2).encode()
    ref_bad = checks.Reference(Fraction(0), Fraction(0), {"65/json": _digest(bad)})
    assert not checks.check_moments(bad, _digest(bad), 65, "json", ref_bad, ORACLE)[0]


def _verify_stdout(checks_list, all_pass=True) -> bytes:
    payload = {"command": "verify", "parameters": {}, "checks": checks_list, "all_pass": all_pass}
    return json.dumps(payload).encode()


def _check(name, measured, tolerance, status="pass"):
    return {"name": name, "status": status, "measured": measured, "tolerance": tolerance}


def test_verify_checker_accepts_passing_suite():
    good = [
        _check("perron_t_0.5", "1.200000e-05", "1.000000e-03"),
        _check("decay_slope_band", "-0.5850", "[-0.75, -0.45]"),
        _check("moment_oracle_n3", "equal", "exact"),
        _check("remainders_positive", "all positive", "> 0"),
    ]
    assert checks.check_verify(_verify_stdout(good))[0]


@pytest.mark.parametrize(
    "tampered",
    [
        [_check("perron_t_0.5", "2.000000e-03", "1.000000e-03")],  # status lies
        [_check("decay_slope_band", "-0.3000", "[-0.75, -0.45]")],
        [_check("moment_oracle_n3", "unequal", "exact")],
        [_check("remainders_positive", "sign violation", "> 0", status="fail")],
        [],
    ],
)
def test_tampered_verify_output_fails(tampered):
    assert not checks.check_verify(_verify_stdout(tampered))[0]


def test_verify_checker_requires_all_pass():
    good = [_check("perron_t_0.5", "1.200000e-05", "1.000000e-03")]
    assert not checks.check_verify(_verify_stdout(good, all_pass=False))[0]


@pytest.mark.parametrize(
    "samples, expected",
    [(1, None), (10, None), (11, 100 / 11), (12, 100 / 6), (20, 50.0), (50, 80.0), (100, 90.0)],
)
def test_tail_percentile_rule(samples, expected):
    assert stats.tail_percentile(samples) == (None if expected is None else pytest.approx(expected))


@pytest.mark.parametrize("samples", [11, 12, 20, 37, 100, 1000])
def test_tail_percentile_leaves_ten_beyond(samples):
    values = list(range(samples))
    p = stats.tail_percentile(samples)
    rank = stats.percentile_rank(samples, p)
    assert samples - rank == 10
    assert stats.percentile(values, p) == values[samples - 11]


def test_tail_at_fixed_percentile_keeps_ten_beyond_with_more_samples():
    p = stats.tail_percentile(12)
    for samples in (12, 13, 24, 100):
        assert samples - stats.percentile_rank(samples, p) >= 10


def _span(op, span_id, name, start, end, parent=0):
    return {"op": op, "id": span_id, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_on_synthetic_tree():
    # cli.main [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7];
    # a second op reuses the ids, and its root must not see the first op's children.
    spans = [
        _span(1, 1, "cli.main", 0.0, 10.0),
        _span(1, 2, "a", 1.0, 4.0, parent=1),
        _span(1, 3, "b", 5.0, 9.0, parent=1),
        _span(1, 4, "c", 6.0, 7.0, parent=3),
        _span(2, 1, "cli.main", 0.0, 2.0),
    ]
    self_time = stats.self_times(spans)
    assert self_time["cli.main"] == pytest.approx((10 - 3 - 4) + 2)
    assert self_time["a"] == pytest.approx(3.0)
    assert self_time["b"] == pytest.approx(3.0)
    assert self_time["c"] == pytest.approx(1.0)


def test_self_time_clips_overlapping_children():
    spans = [
        _span(1, 1, "p", 0.0, 10.0),
        _span(1, 2, "x", 2.0, 6.0, parent=1),
        _span(1, 3, "y", 4.0, 12.0, parent=1),  # overlaps x and overhangs p
    ]
    assert stats.self_times(spans)["p"] == pytest.approx(2.0)


def test_span_totals_count_nested_same_name_once():
    spans = [
        _span(1, 1, "f", 0.0, 5.0),
        _span(1, 2, "g", 1.0, 4.0, parent=1),
        _span(1, 3, "f", 2.0, 3.0, parent=2),
        _span(2, 1, "f", 0.0, 1.0),
    ]
    totals = stats.span_totals(spans)
    assert totals == {"f": pytest.approx(6.0), "g": pytest.approx(3.0)}
