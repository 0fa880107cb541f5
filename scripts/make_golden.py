#!/usr/bin/env python3
"""Write the golden corpus of reports under ``tests/golden/``.

The corpus holds one document per case (named fixtures, seeded random
algebras of dimensions 2-6, the same moved to a rational basis) with the
``--json`` report (``<command>.json``) and the plain-text report
(``<command>.txt``) of every subcommand that applies to it, plus four ``sample``
runs in both forms. ``MANIFEST.json`` lists each command line and the file
holding its expected stdout; ``tests/test_golden.py`` replays it and compares
byte for byte. That test never writes the corpus: regenerating it is a
deliberate act, committed on its own with the reason for the change.

    PYTHONPATH=src python scripts/make_golden.py
"""

import contextlib
import io
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from helpers import (counterexample4, gamma2_family, rand_algebra,  # noqa: E402
                     rand_fraction, rigid_dim4)
from skewlie import (ExactMatrix, SkewAlgebra, abelian, algebra3,  # noqa: E402
                     determinant, filiform5, heisenberg, ns2_family, sol_family,
                     transport)
from skewlie.cli import main, serialize_algebra  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
EVERY_DIM = ("analyze", "derivations", "homlie", "killing")
DIM3_ONLY = ("classify", "lietype")
SAMPLES = {
    "sample-d3": ["sample", "--dim", "3", "--trials", "200", "--seed", "42"],
    "sample-d4": ["sample", "--dim", "4", "--trials", "200", "--seed", "42"],
    "sample-d5": ["sample", "--dim", "5", "--trials", "100", "--seed", "42"],
    "sample-d6": ["sample", "--dim", "6", "--trials", "50", "--seed", "42"],
}
REPORTS = ((".json", ["--json"]), (".txt", []))  # file suffix, extra arguments


def rational_basis(rng, n: int) -> ExactMatrix:
    """An invertible n x n matrix with small rational entries, some den > 1."""
    while True:
        p = ExactMatrix([[rand_fraction(rng, num=3, den=4) for _ in range(n)]
                         for _ in range(n)])
        if determinant(p) != 0:
            return p


def cases() -> dict[str, tuple[SkewAlgebra, tuple[str, ...]]]:
    """Case name -> (algebra, subcommands run on it)."""
    out = {
        "abelian3": abelian(3),
        "heisenberg": heisenberg(),
        "sol-line": SkewAlgebra(3, {(1, 3): (0, 0, 1)}),
        "sol-plane": SkewAlgebra(3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 2)}),
        "sol-nonlie": sol_family(1, Fraction(1, 2), 0, -1),
        "ns2": ns2_family(1, 0, 2, -1, Fraction(1, 3)),
        "so3": algebra3(0, 0, 1, 0, -1, 0, 1, 0, 0),
        "gamma2-minus1": gamma2_family(-1),
        "gamma2-half": gamma2_family(Fraction(1, 2)),
        "counterexample4": counterexample4(),
        "rigid4": rigid_dim4(),
        "abelian4": abelian(4),
        "filiform5": filiform5(1, 0, 0, 1),
        "filiform5-rational": filiform5(Fraction(1, 2), -1, Fraction(2, 3), 0),
        "sparse6": SkewAlgebra(6, {(1, 2): (0, 0, 1, 0, 0, 0),
                                   (1, 3): (0, 0, 0, 1, 0, 0),
                                   (2, 5): (0, 0, 0, 0, 0, 1),
                                   (4, 6): (1, 0, 0, 0, 2, 0)}),
    }
    for dim in range(2, 7):
        rng = random.Random(1000 + dim)
        for k in range(2 if dim <= 4 else 1):
            a = rand_algebra(rng, dim=dim, height=3)
            out[f"random{dim}-{k}"] = a
            out[f"random{dim}-{k}-rational"] = transport(a, rational_basis(rng, dim))
    table = {name: (a, EVERY_DIM + (DIM3_ONLY if a.dim == 3 else ()))
             for name, a in out.items()}
    # the abelian dim-6 reports are the largest (57 KB for analyze): once only
    table["abelian6"] = (abelian(6), ("analyze",))
    return table


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0 or err.getvalue():
        raise SystemExit(f"{argv}: exit {code}, stderr {err.getvalue()!r}")
    return out.getvalue()


def main_() -> int:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    manifest = []
    for name, (a, commands) in cases().items():
        case_dir = GOLDEN / name
        case_dir.mkdir(parents=True)
        doc = case_dir / "input.json"
        doc.write_text(json.dumps(serialize_algebra(a), indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        for cmd in commands:
            for suffix, flags in REPORTS:
                rel = f"{name}/{cmd}{suffix}"
                (GOLDEN / rel).write_text(run([cmd, str(doc), *flags]), encoding="utf-8")
                manifest.append({"argv": [cmd, f"{name}/input.json", *flags],
                                 "expected": rel})
    (GOLDEN / "sample").mkdir()
    for name, argv in SAMPLES.items():
        for suffix, flags in REPORTS:
            rel = f"sample/{name}{suffix}"
            (GOLDEN / rel).write_text(run(argv + flags), encoding="utf-8")
            manifest.append({"argv": argv + flags, "expected": rel})
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                          encoding="utf-8")
    size = sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file())
    print(f"{len(manifest)} reports, {size} bytes under {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
