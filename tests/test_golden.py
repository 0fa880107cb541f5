"""The golden corpus: every report in ``tests/golden/``, ``--json`` (``.json``)
and plain text (``.txt``), is replayed and compared byte for byte. The files are
written only by ``scripts/make_golden.py``, never by a test run."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from skewlie.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text(encoding="utf-8"))


def test_manifest_covers_the_corpus():
    listed = {entry["expected"] for entry in MANIFEST}
    listed |= {arg for entry in MANIFEST for arg in entry["argv"] if arg.endswith(".json")}
    files = [p for p in GOLDEN.rglob("*") if p.suffix in (".json", ".txt")]
    assert {p.relative_to(GOLDEN).as_posix() for p in files} - {"MANIFEST.json"} == listed
    assert len(MANIFEST) == 310
    assert sum(p.stat().st_size for p in files) < 1_000_000


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["expected"] for e in MANIFEST])
def test_report_is_byte_identical(entry):
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in entry["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().encode("utf-8") == (GOLDEN / entry["expected"]).read_bytes()
