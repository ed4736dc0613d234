"""Replay one ``cantor-moments`` invocation in-process with a span around each layer call.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py constant --digits 30 --json

The program is not modified: the public functions of each module are
rebound, in the modules that call them, to wrappers that record a span
(name, start, end, parent).  ``cli.main(argv)`` then runs with its stdout
captured.  Spans stay in memory until the invocation ends; the tracer
then prints one JSON object with the exit code, the captured stdout, the
spans and the plain counters.  Each invocation runs in a fresh
interpreter, so memo tables start cold as they do for a CLI user.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

from cantor_moments import cantor, cli, constant, contour, exact, moments

_spans: list[tuple] = []
_stack = [0]
_ids = itertools.count(1)
_counts: Counter = Counter()
_checks = ["none"]


def _traced(fn, name_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(*args, **kwargs) if callable(name_of) else name_of
        span_id = next(_ids)
        parent = _stack[-1]
        _stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _stack.pop()
            _spans.append((span_id, name, start, end, parent))

    return wrapper


def _charged_to(fn, check_of):
    """Name the contour check that integrand evaluations are charged to."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _checks.append(check_of(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            _checks.pop()

    return wrapper


def _integrand(fn, tau_arg):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _counts[f"contour.evals.{_checks[-1]}"] += len(args[tau_arg])
        _counts[f"contour.waves.{_checks[-1]}"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _harmonic_band(k, *args, **kwargs):
    band = "k1-12" if k <= 12 else "k13-20" if k <= 20 else "k21-up"
    return f"constant.harmonic_fixed.{band}"


def _replace(modules, name, make):
    """Rebind ``name`` to ``make(original)`` in every module that has it.

    A function that a later version of the program removed is skipped, and
    its metrics read 0.
    """
    present = [m for m in modules if hasattr(m, name)]
    if present:
        wrapped = make(getattr(present[0], name))
        for module in present:
            setattr(module, name, wrapped)


def install() -> None:
    """Wrap every traced function in the modules that look it up at call time."""
    _replace((exact, moments, constant), "bernoulli", lambda f: _traced(f, "exact.bernoulli"))
    _replace((exact, constant), "harmonic_exact", lambda f: _traced(f, "exact.harmonic_exact"))
    for name in ("moment_bernoulli", "moment_recursive", "decay_fit"):
        _replace((moments,), name, lambda f, n=name: _traced(f, f"moments.{n}"))
    for name in ("moment_series_constant", "euler_gamma", "double_sum_check"):
        _replace((constant,), name, lambda f, n=name: _traced(f, f"constant.{n}"))
    _replace((constant,), "harmonic_fixed", lambda f: _traced(f, _harmonic_band))

    _replace(
        (contour,),
        "perron_kernel",
        lambda f: _charged_to(
            _traced(f, "contour.perron_kernel"), lambda t, *a, **k: f"perron_t_{t}"
        ),
    )
    _replace(
        (contour,),
        "moment_contour",
        lambda f: _charged_to(
            _traced(f, lambda n, *a, **k: f"contour.moment_contour.n{n}"),
            lambda n, *a, **k: f"moment_contour_n{n}",
        ),
    )
    _replace(
        (contour,),
        "constant_contour",
        lambda f: _charged_to(
            _traced(f, "contour.constant_contour"), lambda *a, **k: "constant_contour"
        ),
    )
    _replace((contour,), "perron_integrand", lambda f: _integrand(f, 1))
    _replace((contour,), "moment_contour_integrand", lambda f: _integrand(f, 1))
    _replace((contour,), "constant_contour_integrand", lambda f: _integrand(f, 0))

    for name in ("integral_quadrature", "self_similarity_residuals"):
        _replace((cantor,), name, lambda f, n=name: _traced(f, f"cantor.{n}"))
    # cantor_value runs about 3·10**4 times per cantor suite: counted, not spanned.
    _replace((cantor,), "cantor_value", lambda f: _counted(f, "cantor.cantor_value_calls"))


def run(argv: list[str]) -> dict:
    install()
    main = _traced(cli.main, "cli.main")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    return {
        "exit": code,
        "stdout": captured.getvalue(),
        "spans": _spans,
        "counts": dict(_counts),
    }


if __name__ == "__main__":
    json.dump(run(sys.argv[1:]), sys.stdout)
