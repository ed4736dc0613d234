"""Regenerate ``perfbench/reference.json`` from the CLI of this checkout.

Run from the repository root:

    python3 perfbench/make_reference.py

The 60-digit constant must agree with the printed constant to 1e-28, and
every stored moment table must match the self-similarity recursion for
n <= 64, before anything is written.  Only regenerate when an output
format changes on purpose.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from fractions import Fraction

import checks
import run


def main() -> int:
    const = run.spawn(run.cli_args(run.constant_op(60)), timeout=60)
    payload = json.loads(const.stdout)
    value = Fraction(Decimal(payload["constant"]))
    if const.exit != 0 or abs(value - checks.PRINTED_CONSTANT) > checks.PRINTED_TOLERANCE:
        raise SystemExit("constant --digits 60 disagrees with the printed constant")

    sizes = run.MOMENT_SIZES
    outputs = {}
    for n in sizes:
        for fmt in ("csv", "json"):
            out = run.spawn(run.cli_args(run.moments_op(n, fmt)), timeout=120)
            if out.exit != 0:
                raise SystemExit(f"moments --max-n {n} --format {fmt} failed")
            outputs[(n, fmt)] = out
    digests = {f"{n}/{fmt}": out.sha256 for (n, fmt), out in outputs.items()}

    loaded = checks.Reference(
        Fraction(Decimal(payload["constant"])),
        Fraction(Decimal(payload["certified_error"])),
        digests,
    )
    oracle = checks.recursion_moments(checks.ORACLE_ROWS + 1)
    for (n, fmt), out in outputs.items():
        ok, detail = checks.check_moments(out.stdout, out.sha256, n, fmt, loaded, oracle)
        if not ok:
            raise SystemExit(f"moments --max-n {n} --format {fmt}: {detail}")

    reference = {
        "constant": {
            "value": payload["constant"],
            "certified_error": payload["certified_error"],
        },
        "moments_sha256": digests,
    }
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
