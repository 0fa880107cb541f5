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


INTEGER_CORE = {"_eliminate", "_full_rank_mod_p", "_pack", "_reduce", "_M_rows", "_HL_rows",
                "_M_packed", "_HL_packed", "_table", "_flat", "_exact_blocks", "_packed",
                "_search_pairs", "_series", "inverse", "rank",
                "transport", "subspace_product", "_subspace", "build_M", "build_HL",
                "killing_matrix", "_kernel_endos", "_matrix_rows"}


def test_integer_core_names_no_fraction():
    """The elimination, the operator rows and their reduction, the pair search, the
    series, and the producers and readers of ``ExactMatrix`` inside the package carry
    integers only: ``Fraction``s are made where a public value leaves."""
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_CORE:
                found[fn.name] = sorted({node.lineno for node in ast.walk(fn)
                                         if isinstance(node, ast.Name) and node.id == "Fraction"
                                         or isinstance(node, ast.Attribute)
                                         and node.attr == "Fraction"})
    assert found == dict.fromkeys(INTEGER_CORE, []), found


# the functions that take or give public 1-based basis indices
BOUNDARY = {("algebra.py", name) for name in ("__new__", "product", "products", "basis_vec")}
BOUNDARY |= {("cli.py", "parse_algebra"), ("cli.py", "serialize_algebra")}


def _plus_or_minus_one(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _indexed_by_plus_or_minus_one(node) -> bool:
    """t[i - 1], t[i + 1], or d[i - 1, j - 1]."""
    if not isinstance(node, ast.Subscript):
        return False
    keys = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(map(_plus_or_minus_one, keys))


def test_indices_are_0_based_inside_the_public_boundary():
    """Inside the package a basis index is its position in the tensor, and pairs and
    triples come from ``itertools.combinations``: only the boundary functions index
    by i ± 1, and no loop starts at ``range(i + 1, ...)``."""
    shifted, loops = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) not in BOUNDARY:
                shifted += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                            if _indexed_by_plus_or_minus_one(node)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range" and len(node.args) > 1
                    and _plus_or_minus_one(node.args[0])):
                loops.append(f"{path.name}:{node.lineno}")
    assert (shifted, loops) == ([], [])


def test_the_mersenne_exponent_is_named_in_qlinalg_alone():
    """The prime p = 2^17 - 1 and its folds are ``qlinalg._FOLD``: a literal 17 elsewhere
    would fold or reduce the packed rows with an exponent that ``qlinalg`` may not share."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is int
                  and node.value == 17]
    assert [site for site in found if not site.startswith("qlinalg.py:")] == []
    assert found  # the check would pass vacuously if qlinalg lost its literal too


def test_sources_found():
    assert len(SOURCES) >= 8
