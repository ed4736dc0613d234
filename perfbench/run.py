"""Benchmark for the ``cantor-moments`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload constant_cli --seed 1 --seconds 10 --trace 0

Each workload is a seeded closed loop with one client: the seed fixes a
list of operations (a round), and the round repeats for about
``--seconds``.  Every operation is one ``cantor-moments`` invocation in a
fresh interpreter running this checkout's ``src/``, and its stdout is
checked for correctness after it exits.  With ``--trace 1`` the round
runs once untraced and once under ``perfbench/tracer.py``, and per-layer
metrics replace the end-to-end ones.  See ``perfbench/README.md``.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it records the machine, versions and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from time import perf_counter

import checks
import stats

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
NODE_PROBE_REPS = 3
NODE_PROBE_HEIGHTS = {"tau1e2": 1.0e2, "tau1e3": 1.0e3, "tau1e4": 1.0e4}
# The constant digits every run outside constant_cli probes for cert_margin_digits.
CERT_PROBE_DIGITS = 60

CONTOUR_CHECKS = (
    "perron_t_0.5",
    "perron_t_1.0",
    "perron_t_1.5",
    "perron_t_2.0",
    "perron_t_4.0",
    "moment_contour_n1",
    "moment_contour_n2",
    "moment_contour_n5",
    "constant_contour",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to check its stdout."""

    argv: tuple[str, ...]
    kind: str  # constant | moments | verify
    digits: int = 0
    max_n: int = 0
    fmt: str = ""

    def label(self) -> str:
        return " ".join(self.argv)


def constant_op(digits: int) -> Op:
    return Op(("constant", "--digits", str(digits), "--json"), "constant", digits=digits)


def moments_op(max_n: int, fmt: str) -> Op:
    return Op(("moments", "--max-n", str(max_n), "--format", fmt), "moments", max_n=max_n, fmt=fmt)


def verify_op(suite: str) -> Op:
    return Op(("verify", "--suite", suite, "--json"), "verify")


# -- workloads ----------------------------------------------------------------
#
# A round's cost must not depend on the seed, or the spread between seeds
# would swamp the bounds: draws are stratified so that every round holds a
# fixed number of operations of each cost class, and the seed picks within
# a class and the order.


# cert_margin_digits is read at these D only, so that it does not depend on the seed.
MARGIN_DIGITS = (30, 60)


def constant_round(rng: random.Random) -> list[Op]:
    """D = 30 and 60, plus one D from each quarter of 1..60."""
    digits = list(MARGIN_DIGITS) + [rng.randint(lo, lo + 14) for lo in (1, 16, 31, 46)]
    rng.shuffle(digits)
    return [constant_op(d) for d in digits]


# Sizes by cost class: N <= 64 all cost about the same (interpreter start
# and imports dominate), 96 and 128 are close, 256 and 512 are fixed.
MOMENT_SMALL = (16, 32, 48, 64)
MOMENT_MID = (96, 128)
MOMENT_LARGE = 256
MOMENT_BIG = 512
MOMENT_SIZES = MOMENT_SMALL + MOMENT_MID + (MOMENT_LARGE, MOMENT_BIG)


def moments_round(rng: random.Random) -> list[Op]:
    """N = 512 as CSV, N = 256, one N from {96, 128} and seven from 16..64.

    The seed picks N within each class, the formats of all but N = 512,
    and the order.  Seven small tables put ``latency_p50_s`` in the middle
    of one cost class rather than on the edge between two.  Ten ops keep
    the round below the eleven samples a tail percentile needs, so
    ``latency_tail_s`` is the N = 512 op.  N = 512 is always CSV: its JSON
    rendering peaks 13 MB higher, and a seeded format would make
    ``peak_rss_mb`` depend on the seed.
    """
    formats = ("csv", "json")
    small = [moments_op(rng.choice(MOMENT_SMALL), formats[i % 2]) for i in range(7)]
    ops = small + [
        moments_op(rng.choice(MOMENT_MID), rng.choice(formats)),
        moments_op(MOMENT_LARGE, rng.choice(formats)),
        moments_op(MOMENT_BIG, "csv"),
    ]
    rng.shuffle(ops)
    return ops


def quick_round(rng: random.Random) -> list[Op]:
    suites = ["oracle", "identity", "decay", "cantor"]
    rng.shuffle(suites)
    return [verify_op(s) for s in suites]


def mellin_round(rng: random.Random) -> list[Op]:
    return [verify_op("mellin")]


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[Op]]
    min_rounds: int
    timeout_s: float

    def tail_percentile(self, round_len: int) -> float | None:
        """Fixed per workload from the minimum sample count, so commits compare alike."""
        return stats.tail_percentile(self.min_rounds * round_len)


WORKLOADS = {
    "constant_cli": Workload(constant_round, min_rounds=3, timeout_s=60),
    "moments_table": Workload(moments_round, min_rounds=1, timeout_s=90),
    "verify_quick": Workload(quick_round, min_rounds=3, timeout_s=60),
    # One ~66 s op: the timeout keeps an untraced run well inside 180 s.
    "verify_mellin": Workload(mellin_round, min_rounds=1, timeout_s=120),
}


# -- child processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    """Children run this checkout's src/ with no disk cache and with bytecode caching."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("CANTOR_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# Stdout kept in memory per op; the digest covers all of it.  Keeping the
# benchmark process small matters: a child's ru_maxrss starts from the
# high-water mark of the process that spawned it.
STDOUT_KEEP = 2 << 20


@dataclass
class Run:
    seconds: float
    exit: int
    stdout: bytes  # the first STDOUT_KEEP bytes, or all of it when keep is None
    sha256: str
    stderr: bytes
    rss_mb: float


def spawn(args: list[str], timeout: float, keep: int | None = STDOUT_KEEP) -> Run:
    """Run one child to completion; time it from spawn to exit and read its rusage."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    digest, head, kept = hashlib.sha256(), [], 0
    try:
        for chunk in iter(lambda: proc.stdout.read1(1 << 16), b""):
            digest.update(chunk)
            if keep is None or kept < keep:
                head.append(chunk if keep is None else chunk[: keep - kept])
                kept += len(head[-1])
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        reader.join()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Run(elapsed, proc.returncode, b"".join(head), digest.hexdigest(), err[0],
               usage.ru_maxrss / 1024.0)


def cli_args(op: Op) -> list[str]:
    return ["-m", "cantor_moments.cli", *op.argv]


# -- correctness ----------------------------------------------------------------


class Checker:
    """Checks op outputs against the stored reference and the recursion oracle."""

    def __init__(self) -> None:
        self.reference = checks.load_reference()
        self.oracle = checks.recursion_moments(checks.ORACLE_ROWS + 1)

    def __call__(self, op: Op, exit_code: int, stdout: bytes, sha256: str | None = None):
        """Return (ok, certified margin or None); ``sha256`` defaults to that of ``stdout``."""
        if exit_code != 0:
            return False, None
        if op.kind == "constant":
            ok, detail = checks.check_constant(stdout, op.digits, self.reference)
            return ok, detail if ok else None
        if op.kind == "moments":
            digest = sha256 or hashlib.sha256(stdout).hexdigest()
            ok, _ = checks.check_moments(
                stdout, digest, op.max_n, op.fmt, self.reference, self.oracle
            )
            return ok, None
        ok, _ = checks.check_verify(stdout)
        return ok, None


# -- measurement ----------------------------------------------------------------


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cantor_moments; "
    "print(time.perf_counter() - t); print(cantor_moments.__file__)"
)


def measure_setup() -> list[float]:
    """Fresh-interpreter ``import cantor_moments`` times; the first import warms bytecode."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        run = spawn(["-c", IMPORT_PROBE], timeout=60)
        lines = run.stdout.decode().split()
        if run.exit != 0 or len(lines) != 2:
            raise SystemExit(f"import probe failed: {run.stderr.decode()[-500:]}")
        if Path(lines[1]).resolve().parent != (SRC / "cantor_moments").resolve():
            raise SystemExit(f"children import cantor_moments from {lines[1]}, not {SRC}")
        if i:
            samples.append(float(lines[0]))
    return samples


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_untraced(workload: Workload, ops: list[Op], seconds: float, check: Checker):
    tally = Tally()
    setup = measure_setup()
    margins = []
    if ops[0].kind != "constant":
        probe = constant_op(CERT_PROBE_DIGITS)
        run = spawn(cli_args(probe), workload.timeout_s)
        ok, margin = check(probe, run.exit, run.stdout, run.sha256)
        tally.add(ok)
        if ok:
            margins.append(margin)
        else:
            print(f"FAILED probe {probe.label()}: exit {run.exit}", file=sys.stderr)

    latencies, round_walls, rss = [], [], []
    by_op: dict[str, list[float]] = {}
    started = perf_counter()
    # Another round starts only if at least half of it fits in ``seconds``, so
    # a round that takes about ``seconds`` does not double the run.
    while len(round_walls) < workload.min_rounds or (
        perf_counter() - started + round_walls[-1] / 2 < seconds
    ):
        wall = 0.0
        for op in ops:
            run = spawn(cli_args(op), workload.timeout_s)
            ok, margin = check(op, run.exit, run.stdout, run.sha256)
            tally.add(ok)
            if not ok:
                print(f"FAILED {op.label()}: exit {run.exit} {run.stderr.decode()[-300:]}",
                      file=sys.stderr)
            if margin is not None and op.digits in MARGIN_DIGITS:
                margins.append(margin)
            latencies.append(run.seconds)
            by_op.setdefault(op.label(), []).append(run.seconds)
            rss.append(run.rss_mb)
            wall += run.seconds
        round_walls.append(wall)

    p = workload.tail_percentile(len(ops))
    tail = stats.percentile(latencies, p) if p is not None else max(latencies)
    metrics = {
        "wall_s": (statistics.median(round_walls), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        # No passing constant output leaves no margin; the failure is counted above.
        "cert_margin_digits": (statistics.median(margins) if margins else 0.0, "digits"),
    }
    samples = {
        "ops": len(latencies),
        "rounds": len(round_walls),
        "round_len": len(ops),
        "setup": len(setup),
        "latency_tail_percentile": p if p is not None else 100.0,
        "latency_tail_beyond": (
            len(latencies) - stats.percentile_rank(len(latencies), p) if p is not None else 0
        ),
        "latency_median_by_op_s": {k: statistics.median(v) for k, v in sorted(by_op.items())},
        "cert_margin_from": (
            f"ops at D in {MARGIN_DIGITS}" if ops[0].kind == "constant"
            else f"probe at D = {CERT_PROBE_DIGITS}"
        ),
    }
    return tally, metrics, samples


# "import time: <self us> | <cumulative us> | <indent><module>"
_IMPORTTIME_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)")


def measure_importtime() -> tuple[float, float]:
    """Cumulative import seconds of numpy and of cantor_moments, from ``-X importtime``."""
    numpy_s, package_s = [], []
    for i in range(IMPORTTIME_SAMPLES + 1):
        run = spawn(["-X", "importtime", "-c", "import cantor_moments"], timeout=60)
        found = {}
        for m in _IMPORTTIME_LINE.finditer(run.stderr.decode()):
            found.setdefault(m[2], int(m[1]) / 1e6)
        if run.exit != 0 or "cantor_moments" not in found:
            raise SystemExit(f"importtime probe failed: {run.stderr.decode()[-500:]}")
        if i:  # the first import warms bytecode
            # A package that defers numpy does not import it here.
            numpy_s.append(found.get("numpy", 0.0))
            package_s.append(found["cantor_moments"])
    return statistics.median(numpy_s), statistics.median(package_s)


def measure_node_cost() -> dict[str, float]:
    """Microseconds per node of ``constant_contour_integrand`` on a 1000-node block."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    try:
        from cantor_moments.contour import constant_contour_integrand
    except ImportError:  # a later version without this integrand: the probe reads 0
        return dict.fromkeys(NODE_PROBE_HEIGHTS, 0.0)

    constant_contour_integrand(np.linspace(10.0, 11.0, 1000))  # warm numpy
    cost = {}
    for name, height in NODE_PROBE_HEIGHTS.items():
        tau = np.linspace(height, height + 1.0, 1000)
        times = []
        for _ in range(NODE_PROBE_REPS):
            start = perf_counter()
            constant_contour_integrand(tau)
            times.append(perf_counter() - start)
        cost[name] = statistics.median(times) / len(tau) * 1e6
    return cost


# Span names whose total time is a per-layer metric (<layer>.<function>_s[.<variant>]).
SPAN_METRICS = (
    "exact.bernoulli",
    "exact.harmonic_exact",
    "moments.moment_bernoulli",
    "moments.moment_recursive",
    "moments.decay_fit",
    "constant.moment_series_constant",
    "constant.harmonic_fixed.k1-12",
    "constant.harmonic_fixed.k13-20",
    "constant.harmonic_fixed.k21-up",
    "constant.euler_gamma",
    "constant.double_sum_check",
    "contour.perron_kernel",
    "contour.moment_contour.n1",
    "contour.moment_contour.n2",
    "contour.moment_contour.n5",
    "contour.constant_contour",
    "cantor.integral_quadrature",
    "cantor.self_similarity_residuals",
)


def run_traced(workload: Workload, ops: list[Op], check: Checker, spans_path: Path):
    tally = Tally()
    numpy_s, package_s = measure_importtime()

    untraced = 0.0
    for op in ops:
        run = spawn(cli_args(op), workload.timeout_s)
        tally.add(check(op, run.exit, run.stdout, run.sha256)[0])
        untraced += run.seconds

    traced, spans, counts, output_bytes = 0.0, [], {}, 0
    tracer = str(BENCH / "tracer.py")
    for op_id, op in enumerate(ops, start=1):
        run = spawn([tracer, *op.argv], workload.timeout_s, keep=None)
        traced += run.seconds
        try:
            result = json.loads(run.stdout)
        except ValueError:
            print(f"FAILED traced {op.label()}: {run.stderr.decode()[-300:]}", file=sys.stderr)
            tally.add(False)
            continue
        stdout = result["stdout"].encode("utf-8")
        output_bytes += len(stdout)
        tally.add(run.exit == 0 and check(op, result["exit"], stdout)[0])
        for span_id, name, start, end, parent in result["spans"]:
            spans.append({"op": op_id, "id": span_id, "name": name,
                          "start": start, "end": end, "parent": parent})
        for key, value in result["counts"].items():
            counts[key] = counts.get(key, 0) + value

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")

    totals = stats.span_totals(spans)
    names = [s["name"] for s in spans]
    metrics = {
        "cli.import_numpy_s": (numpy_s, "s"),
        "cli.import_package_s": (package_s, "s"),
        "cli.self_s": (stats.self_times(spans).get("cli.main", 0.0), "s"),
        "cli.output_bytes": (output_bytes, "count"),
        "exact.bernoulli_calls": (names.count("exact.bernoulli"), "count"),
        "moments.moment_bernoulli_calls": (names.count("moments.moment_bernoulli"), "count"),
        "constant.series_terms": (
            sum(n.startswith("constant.harmonic_fixed.") for n in names), "count"
        ),
        "cantor.cantor_value_calls": (counts.get("cantor.cantor_value_calls", 0), "count"),
    }
    for name in SPAN_METRICS:
        layer, fn, *variant = name.split(".", 2)
        metric = f"{layer}.{fn}_s" + "".join(f".{v}" for v in variant)
        metrics[metric] = (totals.get(name, 0.0), "s")
    for check_name in CONTOUR_CHECKS:
        for kind in ("evals", "waves"):
            key = f"contour.{kind}.{check_name}"
            metrics[key] = (counts.get(key, 0), "count")
    for name, us in measure_node_cost().items():
        metrics[f"contour.node_us.{name}"] = (us, "us")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(spans), "count")
    samples = {"ops": len(ops), "spans_file": str(spans_path.relative_to(ROOT)),
               "untraced_wall_s": untraced, "traced_wall_s": traced}
    return tally, metrics, samples


# -- provenance -----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cantor-moments CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cantor_moments" / "cli.py").is_file():
        print(f"error: no cantor_moments package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ops = workload.build(random.Random(args.seed))
    check = Checker()
    if args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tally, metrics, samples = run_traced(workload, ops, check, spans_path)
    else:
        tally, metrics, samples = run_untraced(workload, ops, args.seconds, check)

    meta = dict(machine(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, round=[op.label() for op in ops], samples=samples)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
