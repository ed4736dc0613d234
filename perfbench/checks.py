"""Correctness checks on the stdout of one ``cantor-moments`` invocation.

Every checker takes the raw stdout bytes and returns ``(ok, detail)``;
a malformed output is a failed check, never an exception.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The constant as printed in the source paper's abstract (29 fractional digits).
PRINTED_CONSTANT = Fraction("3.36465072810092516083893496289")
PRINTED_TOLERANCE = Fraction(1, 10**28)

# Moment rows up to this index are compared with the self-similarity recursion.
ORACLE_ROWS = 64


@dataclass(frozen=True)
class Reference:
    constant: Fraction
    constant_error: Fraction
    digests: dict[str, str]


def load_reference(path: Path = REFERENCE_FILE) -> Reference:
    """Read the stored reference and check it against the printed constant."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    ref = Reference(
        constant=Fraction(Decimal(raw["constant"]["value"])),
        constant_error=Fraction(Decimal(raw["constant"]["certified_error"])),
        digests=dict(raw["moments_sha256"]),
    )
    if abs(ref.constant - PRINTED_CONSTANT) > PRINTED_TOLERANCE:
        raise ValueError("stored reference constant disagrees with the printed value")
    return ref


def check_constant(stdout: bytes, digits: int, ref: Reference):
    """``constant --digits D --json``: within both certified errors + ½·10^-D of the reference.

    The detail is the certified margin -log10(certified_error) - D.
    """
    try:
        payload = json.loads(stdout)
        text = payload["constant"]
        error = Fraction(Decimal(payload["certified_error"]))
        value = Fraction(Decimal(text))
    except (ValueError, KeyError, TypeError, ArithmeticError) as err:
        return False, f"unreadable output: {err}"
    if payload.get("digits") != digits or not re.fullmatch(rf"-?\d+\.\d{{{digits}}}", text):
        return False, "wrong digit count"
    if not 0 < error < Fraction(1, 10**digits):
        return False, f"certified error {float(error):.3e} not in (0, 1e-{digits})"
    allowed = error + ref.constant_error + Fraction(1, 2 * 10**digits)
    if abs(value - ref.constant) > allowed:
        return False, f"off the reference by {float(abs(value - ref.constant)):.3e}"
    return True, -math.log10(error) - digits


def recursion_moments(count: int) -> list[Fraction]:
    """M_0 .. M_{count-1} by the self-similarity recursion, independent of the program.

    M_n = (1 + sum_{k<n} C(n, k) M_k) / (3 * 2**n - 2), with M_0 = 1.
    """
    m = [Fraction(1)]
    for n in range(1, count):
        m.append((1 + sum(comb(n, k) * m[k] for k in range(n))) / (3 * 2**n - 2))
    return m


_JSON_ROW = re.compile(r'"n": (\d+),\s+"num": (\d+),\s+"den": (\d+),')


def _head_rows(head: str, fmt: str, count: int):
    """The first ``count`` (n, num, den) rows, read from the start of the output only."""
    if fmt == "csv":
        lines = head.split("\n", count + 1)
        if lines[0] != "n,num,den,decimal":
            raise ValueError("bad csv header")
        return [tuple(line.split(",")[:3]) for line in lines[1 : count + 1]]
    return [m.groups() for m, _ in zip(_JSON_ROW.finditer(head), range(count))]


def check_moments(head: bytes, sha256: str, max_n: int, fmt: str, ref: Reference, oracle):
    """``moments --max-n N --format F``: stored SHA-256, and rows n <= 64 equal the recursion.

    ``head`` is the start of stdout (at least the first 65 rows) and ``sha256``
    the digest of all of it; ``oracle`` lists M_0 .. M_64.
    """
    key = f"{max_n}/{fmt}"
    if key not in ref.digests:
        return False, f"no stored digest for {key}"
    if sha256 != ref.digests[key]:
        return False, f"digest mismatch for {key}"
    count = min(max_n, ORACLE_ROWS) + 1
    try:
        rows = _head_rows(head.decode("utf-8", errors="replace"), fmt, count)
        got = [(int(n), Fraction(int(num), int(den))) for n, num, den in rows]
    except (ValueError, ZeroDivisionError) as err:
        return False, f"unreadable rows: {err}"
    if got != list(enumerate(oracle[:count])):
        return False, "rows disagree with the recursion"
    return True, None


def _within(check: dict) -> bool:
    measured, tolerance = check["measured"], check["tolerance"]
    interval = re.fullmatch(r"\[(\S+), (\S+)\]", tolerance)
    try:
        if interval:
            return float(interval[1]) <= float(measured) <= float(interval[2])
        return float(measured) <= float(tolerance)
    except ValueError:
        pass
    if tolerance == "exact":
        return measured == "equal"
    # A qualitative check (sign, monotonicity): its status is the verdict.
    return check["status"] == "pass"


def check_verify(stdout: bytes):
    """``verify --suite S --json``: ``all_pass`` and every check within its tolerance."""
    try:
        payload = json.loads(stdout)
        checks = payload["checks"]
        ok = payload["all_pass"] is True and bool(checks)
        bad = [c["name"] for c in checks if c["status"] != "pass" or not _within(c)]
    except (ValueError, KeyError, TypeError) as err:
        return False, f"unreadable output: {err}"
    if not ok or bad:
        return False, f"failed checks: {bad or 'all_pass false'}"
    return True, None
