"""The sources parse under the oldest Python the package supports.

``pyproject.toml`` promises Python 3.10.7 and up.  This checks syntax
only: a 3.11-only standard-library call or behaviour is not caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
