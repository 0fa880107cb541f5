"""Rules on the package source, checked by parsing it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "skewlie").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Internal invariants are explicit checks: ``python -O`` strips ``assert``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def test_classify_imports_neither_echelonize_nor_inverse():
    """Dimension-3 classification eliminates integer rows with ``_eliminate`` only."""
    path = next(p for p in SOURCES if p.name == "classify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"echelonize", "inverse"}, sorted(names & {"echelonize", "inverse"})


def test_sources_found():
    assert len(SOURCES) >= 8
