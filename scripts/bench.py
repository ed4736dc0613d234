"""Before/after timings of the ``cantor-moments`` command and its exact layers.

Run from the repository root, with another checkout of the repository
(the parent commit, say ``git clone . DIR && git -C DIR checkout REV``)
to compare against:

    python3 scripts/bench.py PARENT_CHECKOUT --out BENCH_<n>.json

Both trees run their own ``src/``; "change" is the tree this script lives
in.  Every comparison is made round by round: a round runs each tree
once, back to back, and gives one change/parent ratio.  A comparison
reports the median of its rounds' ratios with their quartiles, the
number of rounds and the number the change won (a smaller value);
per-tree figures are kept only under ``samples``.  On a shared machine
one child's time can differ from the next one's by half on identical
code, and two trees' medians taken apart can then show a change of a
quarter that the paired ratios do not.  The figures are:

* ``end_to_end``: each CLI command in a fresh interpreter, ``RUNS``
  rounds in alternating order (parent first in even rounds, change
  first in odd ones), timed from spawn to exit, and whether the two
  trees' stdout agreed byte for byte.  Peak RSS comes from ``RSS_RUNS``
  further, untimed rounds, in which the child reads its own ``VmHWM``
  from ``/proc/self/status`` after the command: exec resets it, whereas
  a child's ``ru_maxrss`` starts from its parent's peak, so it would
  read this script's floor for every command smaller than the script.
* ``in_process``: the best of 5 calls of the exact layers, Euler's
  gamma, the decay fit, the moment table at N = 512 with its Bernoulli
  numbers, shared parts and row 0, the recursion at N = 64, the Cantor
  grid, the ``mellin`` suite's five Perron kernels, zeta per node of one
  block-shaped grid (128 panels tiling [tau, tau + 1], 15 Kronrod nodes
  each) at heights 10 to 1e4 on Re s = 3/2 (in seconds per node), and
  the near-pole residues and integrals of ``zeta_contours`` at T = 1e4;
  the first call of the decay fit, which loads what it imports, and of
  ``zeta_contours((1, 2, 5))``, which builds its coefficient tables, at
  T = 1e4 and at T = 1e5; the
  warm ``zeta_contours((1, 2, 5))``, the median of calls 2 to 11 in one
  child; and the time to import the ``cantor`` module.  The contour
  figures import ``contour``, and so numpy, untimed in their own
  children.  Each figure is timed on its own, in ``IN_PROCESS_RUNS``
  rounds of one fresh child
  interpreter per tree run back to back, which tree goes first
  alternating from round to round and from figure to figure.
* ``traced_peak_mb``: the peak of the memory that ``tracemalloc``
  traces, numpy's buffers included, for ``zeta_contours((1, 2, 5))`` at
  T = 1e4 and 1e5 and for the five Perron kernels in a row, each in a
  fresh child per tree, ``TRACE_RUNS`` rounds in alternating order.

The record also holds the machine, the Python and numpy versions, and
each tree's commit, source digest and digest per source file.  A figure
whose modules have the same digests in both trees times identical code,
so its ratio, whatever it reads, is the session's noise, not the
change's.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections.abc import Iterator
from importlib import metadata
from pathlib import Path
from time import perf_counter

CHANGE = Path(__file__).resolve().parents[1]
RUNS = 10
RSS_RUNS = 3
IN_PROCESS_RUNS = 15
TRACE_RUNS = 2

COMMANDS = (
    ("constant --digits 30 --json", ["constant", "--digits", "30", "--json"]),
    ("constant --digits 60 --json", ["constant", "--digits", "60", "--json"]),
    ("moments --max-n 256", ["moments", "--max-n", "256"]),
    ("moments --max-n 512", ["moments", "--max-n", "512"]),
    ("verify --suite oracle --json", ["verify", "--suite", "oracle", "--json"]),
    ("verify --suite identity --json", ["verify", "--suite", "identity", "--json"]),
    ("verify --suite decay --json", ["verify", "--suite", "decay", "--json"]),
    ("verify --suite mellin --json", ["verify", "--suite", "mellin", "--json"]),
    ("verify --suite cantor --json", ["verify", "--suite", "cantor", "--json"]),
    ("verify --suite all --json", ["verify", "--suite", "all", "--json"]),
)

# Run in a child interpreter on one tree's src/: with a figure's name as
# its argument, prints that figure's seconds (its setup untimed); with
# none, prints the figures' names as a JSON list.
IN_PROCESS = r"""
import decimal, itertools, json, math, statistics, sys, time
from cantor_moments import cantor, cli, constant, exact, moments

def best(call, reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)

def decay_fit(reps):
    C = constant.moment_series_constant()
    return best(lambda: moments.decay_fit(C), reps)

# The moment table's c_j at N = 512 and their denominators.
def table_512():
    terms = [2 * b / (3 * 2**j - 2) for j, b in enumerate(exact.bernoulli_numbers(513))]
    return terms, [c.denominator for c in terms]

def shared_parts():
    _, denominators = table_512()
    return best(lambda: moments._shared_parts(denominators, 512))

def row_0(lift):
    terms, denominators = table_512()
    L = lift(math.lcm(*denominators))

    def call():
        with decimal.localcontext(moments.EXACT):
            return [c.numerator * (L // c.denominator) for c in terms]

    return best(call)

FIGURES = {
    # The first call loads what the fit imports.
    "decay_fit(C), first call": lambda: decay_fit(1),
    "decay_fit(C)": lambda: decay_fit(5),
    "bernoulli_numbers(513)": lambda: best(lambda: exact.bernoulli_numbers(513)),
    "recursive_moments(64)": lambda: best(lambda: moments.recursive_moments(64)),
    "_shared_parts(d, 512)": shared_parts,
}
for lift in (int, decimal.Decimal):
    FIGURES[f"row 0 at N = 512, {lift.__name__}"] = lambda lift=lift: row_0(lift)
    FIGURES[f"closed_form_rows(512, {lift.__name__})"] = lambda lift=lift: best(
        lambda: sum(1 for _ in moments.closed_form_rows(512, lift))
    )
for K in (8, 12, 14):
    FIGURES[f"_harmonic_prefixes() to k = {K}"] = lambda K=K: best(
        lambda: list(itertools.islice(constant._harmonic_prefixes(), K))
    )
FIGURES["identity suite"] = lambda: best(lambda: list(cli._suite_identity()))
FIGURES["euler_gamma(78)"] = lambda: best(lambda: constant.euler_gamma(78))
for D in (30, 60):
    FIGURES[f"moment_series_constant({D})"] = lambda D=D: best(
        lambda: constant.moment_series_constant(D)
    )
FIGURES["cantor.integral_quadrature((1, 2, 5))"] = lambda: best(
    lambda: cantor.integral_quadrature((1, 2, 5))
)
FIGURES["cantor.self_similarity_residuals()"] = lambda: best(
    cantor.self_similarity_residuals
)

# The contour layer, each figure importing it (and numpy) untimed.
def zeta_contours_first_call():
    from cantor_moments import contour

    start = time.perf_counter()
    contour.zeta_contours((1, 2, 5))
    return time.perf_counter() - start

# The median of calls 2 to 11, once the first has built the cached tables.
def zeta_contours_warm():
    from cantor_moments import contour

    times = []
    for _ in range(11):
        start = time.perf_counter()
        contour.zeta_contours((1, 2, 5))
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])

def perron_kernels():
    from cantor_moments import contour

    return best(lambda: [contour.perron_kernel(t) for t in (0.5, 1.0, 1.5, 2.0, 4.0)])

# Seconds per node of zeta on Re s = 3/2, on one grid shaped like a
# quadrature block: 128 panels tiling [tau, tau + 1], 15 Kronrod nodes each.
def zeta_per_node(tau):
    import numpy as np
    from cantor_moments import contour

    half = 1.0 / 256
    s = 1.5 + 1j * (tau + half * np.arange(1, 256, 2))
    offsets = half * contour._K15_NODES
    contour._zeta_grid(s, offsets)
    return best(lambda: contour._zeta_grid(s, offsets)) / (len(s) * len(offsets))

# The residues and closed-form integrals of the 1,105 near-poles at T = 1e4.
def near_poles():
    from cantor_moments import contour

    edges = contour._edges(1.0e4, contour._POLE_PERIOD)
    contour._near_poles((1, 2, 5), edges)
    return best(lambda: contour._near_poles((1, 2, 5), edges))

def zeta_contours_1e5():
    from cantor_moments import contour

    start = time.perf_counter()
    contour.zeta_contours((1, 2, 5), T=1.0e5)
    return time.perf_counter() - start

FIGURES["zeta_contours((1, 2, 5)), first call"] = zeta_contours_first_call
FIGURES["zeta_contours((1, 2, 5)), warm"] = zeta_contours_warm
FIGURES["zeta_contours((1, 2, 5), T = 1e5), first call"] = zeta_contours_1e5
FIGURES["perron_kernel(t), t = 0.5, 1, 1.5, 2, 4"] = perron_kernels
for tau in (10, 100, 1000, 10000):
    FIGURES[f"_zeta_grid per node, 128 panels x 15, tau = {tau}"] = (
        lambda tau=tau: zeta_per_node(tau)
    )
FIGURES["_near_poles((1, 2, 5), _edges(1e4, P))"] = near_poles

print(json.dumps(FIGURES[sys.argv[1]]() if len(sys.argv) > 1 else list(FIGURES)))
"""

# Run in a fresh interpreter per sample: the command given as arguments, as
# ``python -m cantor_moments.cli`` runs it, then the process's own peak RSS
# in kB, VmHWM, as stderr's last line.
RSS_PROBE = r"""
import runpy, sys
try:
    runpy.run_module("cantor_moments.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    if exit.code:
        raise
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
"""

# Run in a fresh interpreter per sample: with a figure's name as its
# argument, prints that contour call's traced peak in MB (numpy imported
# untraced); with none, prints the figures' names as a JSON list.
TRACED_PEAK = r"""
import json, sys, tracemalloc
from cantor_moments import contour

FIGURES = {
    "zeta_contours((1, 2, 5)), T = 1e4": lambda: contour.zeta_contours((1, 2, 5)),
    "zeta_contours((1, 2, 5)), T = 1e5": lambda: contour.zeta_contours((1, 2, 5), T=1.0e5),
    "perron_kernel(t), t = 0.5, 1, 1.5, 2, 4": lambda: [
        contour.perron_kernel(t) for t in (0.5, 1.0, 1.5, 2.0, 4.0)
    ],
}
if len(sys.argv) > 1:
    tracemalloc.start()
    FIGURES[sys.argv[1]]()
    print(json.dumps(tracemalloc.get_traced_memory()[1] / 2**20))
else:
    print(json.dumps(list(FIGURES)))
"""

# Run in a fresh interpreter per sample: the import loads the package and
# the Cantor walk, all standard library (neither imports numpy), which one
# process caches.
IMPORT_CANTOR = r"""
import time
start = time.perf_counter()
from cantor_moments import cantor
print(time.perf_counter() - start)
"""


def alternating(
    parent: Path, rounds: int, first: int = 0
) -> Iterator[tuple[str, Path]]:
    """(name, tree) for each run of ``rounds`` rounds, numbered from ``first``.

    The parent runs first in even rounds and the change in odd ones.
    """
    order = (("parent", parent), ("change", CHANGE))
    for i in range(first, first + rounds):
        yield from order if i % 2 == 0 else order[::-1]


def child_env(tree: Path) -> dict[str, str]:
    """The tree's src/ on the path and no other PYTHON* setting."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def timed_run(tree: Path, argv: list[str]) -> tuple[float, str]:
    """Seconds from spawn to exit of one CLI run, and its stdout's SHA-256."""
    start = perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "cantor_moments.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(tree),
        cwd=tree,
        check=True,
    )
    return perf_counter() - start, hashlib.sha256(run.stdout).hexdigest()


def rss_run(tree: Path, argv: list[str]) -> float:
    """The peak RSS in MB of one CLI run, as the child reports it."""
    run = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=child_env(tree),
        cwd=tree,
        check=True,
        text=True,
    )
    # VmHWM is in kB.
    return int(run.stderr.splitlines()[-1]) / 1024


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(parent: list[float], change: list[float]) -> dict:
    """One comparison: the rounds' change/parent ratios, and each tree's samples."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "change_over_parent": {"median": median, "q1": q1, "q3": q3},
        "rounds": len(ratios),
        "change_won": sum(c < p for p, c in zip(parent, change)),
        "samples": {"parent": summary(parent), "change": summary(change)},
    }


def report(label: str, comparison: dict) -> None:
    ratio = comparison["change_over_parent"]
    print(
        f"{label}: change/parent {ratio['median']:.3f} "
        f"({ratio['q1']:.3f}-{ratio['q3']:.3f}), change won "
        f"{comparison['change_won']} of {comparison['rounds']}",
        file=sys.stderr,
    )


def end_to_end(parent: Path) -> dict:
    results = {}
    for label, argv in COMMANDS:
        times: dict[str, list[float]] = {"parent": [], "change": []}
        rss: dict[str, list[float]] = {"parent": [], "change": []}
        digests: dict[str, set[str]] = {"parent": set(), "change": set()}
        for name, tree in alternating(parent, RUNS):
            seconds, digest = timed_run(tree, argv)
            times[name].append(seconds)
            digests[name].add(digest)
        for name, tree in alternating(parent, RSS_RUNS):
            rss[name].append(rss_run(tree, argv))
        results[label] = {
            "wall_s": compare(times["parent"], times["change"]),
            "peak_rss_mb": compare(rss["parent"], rss["change"]),
            "stdout_identical": len(digests["parent"] | digests["change"]) == 1,
        }
        report(f"{label}, wall", results[label]["wall_s"])
        report(f"{label}, VmHWM", results[label]["peak_rss_mb"])
    return results


def child_stdout(tree: Path, code: str, *args: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        env=child_env(tree),
        cwd=tree,
        check=True,
        text=True,
    ).stdout


def in_process(parent: Path) -> dict:
    """Each in-process figure over its own rounds of alternating children."""
    figures = json.loads(child_stdout(CHANGE, IN_PROCESS))
    jobs = [(figure, IN_PROCESS, figure) for figure in figures]
    jobs.append(("import cantor_moments.cantor", IMPORT_CANTOR))
    results = {}
    for f, (figure, *child) in enumerate(jobs):
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for name, tree in alternating(parent, IN_PROCESS_RUNS, f):
            times[name].append(json.loads(child_stdout(tree, *child)))
        results[figure] = compare(times["parent"], times["change"])
        report(figure, results[figure])
    return results


def traced_peaks(parent: Path) -> dict:
    """Each contour figure's traced peak in MB, per tree, over alternating rounds."""
    results = {}
    for figure in json.loads(child_stdout(CHANGE, TRACED_PEAK)):
        peaks: dict[str, list[float]] = {"parent": [], "change": []}
        for name, tree in alternating(parent, TRACE_RUNS):
            peaks[name].append(json.loads(child_stdout(tree, TRACED_PEAK, figure)))
        results[figure] = compare(peaks["parent"], peaks["change"])
        report(f"{figure}, traced", results[figure])
    return results


def provenance(tree: Path) -> dict:
    """The tree's git commit (None outside a repository), a digest of its src/ and one per file."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            ).stdout
        )
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = None, None
    digest, files = hashlib.sha256(), {}
    src = tree / "src"
    for path in sorted(src.rglob("*.py")):
        name, data = str(path.relative_to(src)), path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        files[name] = hashlib.sha256(data).hexdigest()
    return {
        "commit": commit,
        "src_uncommitted": dirty,
        "src_sha256": digest.hexdigest(),
        "src_file_sha256": files,
    }


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "cantor_moments" / "cli.py").is_file():
        parser.error(f"{parent} is not a checkout of cantor-moments")

    record = {
        "machine": machine(),
        "trees": {"parent": provenance(parent), "change": provenance(CHANGE)},
        "method": (
            f"{RUNS} rounds per command, parent and change alternating in "
            "fresh interpreters, timed from spawn to exit; peak RSS from "
            f"{RSS_RUNS} further untimed rounds, each child's own VmHWM; "
            "each in-process figure is "
            f"timed alone in {IN_PROCESS_RUNS} rounds of one fresh child per tree, "
            "run back to back in alternating order, each child's time the best "
            "of 5 calls (one for a first call or the import, the median of "
            "calls 2-11 for the warm zeta_contours); traced peaks from "
            f"tracemalloc in {TRACE_RUNS} rounds of one fresh child per tree and "
            "figure.  Every comparison is the median of its rounds' "
            "change/parent ratios with their quartiles (statistics.quantiles, "
            "n=4) and the rounds the change won; per-tree medians, quartiles "
            "and raw values only under samples"
        ),
        "end_to_end": end_to_end(parent),
        "in_process": in_process(parent),
        "traced_peak_mb": traced_peaks(parent),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
