"""Every Python file of the project parses at the oldest Python version
that pyproject.toml accepts, so a newer-only syntax is caught on any
interpreter that runs the suite."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_floor_is_pyprojects():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == tuple(
        str(part) for part in FLOOR
    )


def test_sources_parse_at_the_floor():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
    # the check refuses what only a newer Python accepts
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
