"""The sources parse under the oldest Python the package supports.

``pyproject.toml`` promises Python 3.10.7 and up.  This checks syntax
only: a 3.11-only standard-library call or behaviour is not caught.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import cantor_moments

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    paths = sorted(
        path
        for folder in ("src", "tests", "scripts")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert any(path.name == "constant.py" for path in paths)
    failures = []
    for path in paths:
        try:
            source = path.read_text(encoding="utf-8")
            ast.parse(source, filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures


def _top_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The names a module's top-level statements define, each with its statement."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.append((leaf.id, node))
    return names


def _loads(node: ast.AST) -> set[str]:
    """The names node reads, as a bare name or as an attribute of something."""
    return {
        leaf.id if isinstance(leaf, ast.Name) else leaf.attr
        for leaf in ast.walk(node)
        if isinstance(leaf, (ast.Name, ast.Attribute)) and isinstance(leaf.ctx, ast.Load)
    }


def test_every_top_level_name_in_src_is_package_api_or_has_a_caller_in_src():
    # Library code that only the tests use belongs with the tests: every
    # top-level name of src/ that is not a dunder and not exported by the
    # package root's __all__, public or private, must be read by src/ code
    # outside its own definition.  Names are matched by name alone, across
    # modules, since the package imports its helpers by name or reads them
    # as module attributes.
    modules = {
        path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    definitions = [
        (path, name, node)
        for path, tree in modules.items()
        for name, node in _top_level_names(tree)
        if not name.startswith("__") and name not in cantor_moments.__all__
    ]
    assert any(name == "_dirichlet_sum" for _, name, _ in definitions)
    assert any(name == "zeta_contours" for _, name, _ in definitions)
    unread = []
    for path, name, own in definitions:
        readers = (
            stmt
            for other, tree in modules.items()
            for stmt in tree.body
            if not (other == path and stmt is own)
        )
        if not any(name in _loads(stmt) for stmt in readers):
            unread.append(f"{path}: {name}")
    assert not unread, unread


def test_bench_probe_programs_parse_and_read_existing_names():
    # scripts/bench.py runs four programs held in strings in child
    # processes, where a syntax error or a name the package no longer has
    # shows only as a failed or empty figure.  Each must parse as Python
    # 3.10, and every attribute it reads from a cantor_moments module must
    # exist.  The strings come from the script's syntax tree; the script
    # itself is not imported.
    script = ast.parse((ROOT / "scripts" / "bench.py").read_text(encoding="utf-8"))
    programs = {
        target.id: node.value.value
        for node in script.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id in {"IN_PROCESS", "RSS_PROBE", "TRACED_PEAK", "IMPORT_CANTOR"}
    }
    assert len(programs) == 4
    read = set()
    missing = []
    for name, source in programs.items():
        tree = ast.parse(source, filename=name, feature_version=(3, 10))
        modules = {
            alias.asname or alias.name: importlib.import_module(f"cantor_moments.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "cantor_moments"
            for alias in node.names
        }
        for leaf in ast.walk(tree):
            if isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name):
                module = modules.get(leaf.value.id)
                if module is not None:
                    read.add(f"{module.__name__}.{leaf.attr}")
                    if not hasattr(module, leaf.attr):
                        missing.append(f"{name}: {module.__name__}.{leaf.attr}")
    assert "cantor_moments.contour._zeta_grid" in read
    assert not missing, missing
