"""Output checks, run outside the timed region.

Every op must exit 0 with nothing on stderr. At the default seed each op's
stdout must match the SHA-256 table frozen in ``digests.json``, for the inputs
the table covers. At any seed, the first output of each input must satisfy
the invariants below, and every repeat of that input must reproduce it byte
for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str, seed: int) -> list[str] | None:
    """The frozen table for this workload, or None when seed is not the frozen one.

    digests.json was made once, from the source this benchmark was added
    against: each input of seed 1 in index order, run once through
    ``cli.main`` and checked against the invariants below. The program's
    ``--json`` output must stay byte-identical, so the table is data, not
    something a run rewrites.
    """
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if seed != table["seed"]:
        return None
    return table["workloads"].get(workload)


def _mod(name: str):
    # the package attribute skewlie.classify is the function, not the module
    return sys.modules[f"skewlie.{name}"]


def _algebra(doc: dict):
    return _mod("algebra").SkewAlgebra(doc["dim"], {
        (p["i"], p["j"]): [Fraction(x) for x in p["c"]] for p in doc["products"]})


def _endo(rows: list[list[str]]):
    return _mod("qlinalg").ExactMatrix([[Fraction(x) for x in row] for row in rows])


def _normal_form(tag: str, params: dict):
    alg, cl = _mod("algebra"), _mod("classify")
    p = {k: Fraction(v) for k, v in params.items()}
    if tag == cl.ABELIAN:
        return alg.abelian(3)
    if tag == cl.HEISENBERG:
        return alg.heisenberg()
    if tag == cl.SOLVABLE_LIE_LINE:
        return alg.SkewAlgebra(3, {(1, 3): (0, 0, 1)})
    if tag == cl.SOLVABLE_LIE_PLANE:
        return alg.SkewAlgebra(3, {(1, 2): (0, p["beta1"], p["gamma1"]),
                                   (1, 3): (0, p["beta2"], p["gamma2"])})
    if tag == cl.SOLVABLE_NON_LIE:
        return cl.sol_family(p["beta1"], p["gamma1"], p["beta2"], p["gamma2"])
    if tag == cl.NS1:
        return cl.ns1_family(p["beta2"], p["gamma2"], p["alpha3"], p["beta3"], p["gamma3"])
    if tag == cl.NS2:
        return cl.ns2_family(p["alpha2"], p["beta2"], p["gamma2"], p["beta3"], p["gamma3"])
    raise ValueError(f"unknown tag {tag!r}")


def _check_analyze(doc: dict, report: dict) -> list[str]:
    alg, sm = _mod("algebra"), _mod("structmats")
    problems = []
    if report.get("command") != "analyze":
        return ["command is not 'analyze'"]
    if report["input"] != doc:
        problems.append("input echo differs from the document sent")
    n = doc["dim"]
    a = _algebra(doc)
    res = report["result"]
    ders = res["derivations"]
    if ders["matrix_shape"] != [n * (n * (n - 1) // 2), n * n]:
        problems.append(f"derivation matrix shape {ders['matrix_shape']}")
    if ders["rank"] + ders["derivation_dim"] != n * n:
        problems.append("rank + derivation_dim != n^2")
    if ders["aut_dim"] != ders["derivation_dim"] or ders["orbit_dim"] != ders["rank"]:
        problems.append("aut_dim/orbit_dim disagree with derivation_dim/rank")
    if len(ders["basis"]) != ders["derivation_dim"]:
        problems.append("derivation basis length != derivation_dim")
    zero = (Fraction(0),) * n
    basis = [alg.basis_vec(n, i) for i in range(1, n + 1)]
    for f in map(_endo, ders["basis"]):
        if any(sm.derivation_defect(a, f, basis[i], basis[j]) != zero
               for i in range(n) for j in range(i + 1, n)):
            problems.append("a derivation basis map fails derivation_defect")
            break
    hl = res["homlie"]
    if len(hl["basis"]) != hl["kernel_dim"] or hl["is_homlie"] != (hl["kernel_dim"] >= 1):
        problems.append("Hom-Lie basis length or decision inconsistent")
    if n >= 3 and (hl["matrix_shape"] != [n * (n * (n - 1) * (n - 2) // 6), n * n]
                   or hl["rank"] + hl["kernel_dim"] != n * n):
        problems.append("Hom-Lie operator shape or rank-nullity wrong")
    if not all(sm.hom_check(a, f) for f in map(_endo, hl["basis"])):
        problems.append("a Hom-Lie basis map fails hom_check")
    if n == 3:
        cl = res["classify"]
        if alg.transport(a, _endo(cl["witness"])) != _normal_form(cl["tag"], cl["params"]):
            problems.append("transport(input, witness) != normal form of tag/params")
    return problems


def _check_sample(argv: tuple[str, ...], report: dict) -> list[str]:
    res = report.get("result", {})
    trials = int(argv[argv.index("--trials") + 1])
    problems = []
    if report.get("command") != "sample" or res.get("trials") != trials:
        problems.append("wrong command or trial count")
    elif sum(res["rank_histogram"].values()) != trials:
        problems.append("rank histogram does not sum to the trial count")
    elif not (0 <= res["homlie_count"] <= trials and 0 <= res["lie_count"] <= trials):
        problems.append("Hom-Lie or Lie count outside 0..trials")
    return problems


def check_output(op, stdout: str) -> list[str]:
    """Invariant problems of one op's --json output (empty list: passes)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON: {e}"]
    try:
        if op.doc is None:
            return _check_sample(op.argv, report)
        return _check_analyze(op.doc, report)
    except Exception as e:  # a report the checker cannot evaluate fails the op
        return [f"check raised {type(e).__name__}: {e}"]


class Checker:
    """The verdict on every op of one run, given outside the timed region.

    All runs of one input are checked together, so nothing is kept between
    inputs and memory does not grow with the number of ops.
    """

    def __init__(self, frozen: list[str] | None):
        self.frozen = frozen
        self.attempted = self.failed = self.against_table = 0
        self.problems: list[str] = []

    def check(self, op, results) -> None:
        """``results``: (exit code, stdout, stderr) of each run of ``op``."""
        first = None
        for rc, out, err in results:
            self.attempted += 1
            why = []
            if rc != 0 or err:
                why.append(f"exit {rc!r}, stderr {err.strip()[:200]!r}")
            dig = digest(out)
            if first is None:
                first = dig
                why += check_output(op, out)
            elif dig != first:
                why.append("output differs from an earlier run of the same input")
            if self.frozen is not None and op.index < len(self.frozen):
                self.against_table += 1
                if dig != self.frozen[op.index]:
                    why.append("digest differs from the frozen table")
            if why:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"op {self.attempted - 1} (input {op.index}): "
                                         + "; ".join(why))
