"""Seeded inputs for the three workloads.

Every input is a pure function of (workload, seed, op index), built with the
standard library only, so the program under test never generates its own
benchmark inputs. An op is one argv list for ``skewlie.cli.main``; analyze ops
point at a document written to the run's work directory.

Op k of a run uses input k, so no input repeats inside a timed run and a
cache across calls has nothing to hit, as in real use with one process per
call. Only the traced run repeats an input, once untraced and once traced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

NAMES = ("sample-d4", "analyze-d4", "analyze-d3")

# trials per `sample` op: a seeded batch that a worker pool could split, yet
# short enough (0.1-0.25 s) that a 30 s run has ten samples beyond its p90
SAMPLE_TRIALS = 4

# analyze-d3 cycles through generators of all seven normal-form families;
# ns2 inputs still admit a first-family basis, so they report NonSolvableNS1
D3_FAMILIES = ("abelian", "heisenberg", "line", "plane", "sol", "ns1", "ns2")


@dataclass(frozen=True)
class Op:
    index: int          # the input's number within the seed
    argv: tuple[str, ...]
    doc: dict | None    # the canonical document for analyze ops


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"skewbench/{workload}/{seed}/{index}")


# --- exact helpers, independent of the package under test -----------------

def _table(dim: int, products: dict) -> dict:
    """Canonical document: nonzero pairs only, sorted, exact literals."""
    return {"dim": dim, "products": [
        {"i": i, "j": j, "c": [str(Fraction(x)) for x in c]}
        for (i, j), c in sorted(products.items()) if any(x != 0 for x in c)]}


def _product(n: int, products: dict, x, y):
    out = [Fraction(0)] * n
    for (i, j), c in products.items():
        coeff = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if coeff:
            for k in range(n):
                out[k] += coeff * c[k]
    return out


def _inverse(p: list[list[Fraction]]) -> list[list[Fraction]] | None:
    n = len(p)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _transport(n: int, products: dict, p: list[list[Fraction]],
               pinv: list[list[Fraction]]) -> dict:
    """Structure constants in the basis given by the columns of p."""
    cols = [[p[r][c] for r in range(n)] for c in range(n)]
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            prod = _product(n, products, cols[i - 1], cols[j - 1])
            out[(i, j)] = [sum((pinv[r][k] * prod[k] for k in range(n)), Fraction(0))
                           for r in range(n)]
    return out


def _random_basis(n: int, draw) -> tuple[list, list]:
    while True:
        p = [[draw() for _ in range(n)] for _ in range(n)]
        pinv = _inverse(p)
        if pinv is not None:
            return p, pinv


def _nonzero(rng: random.Random, h: int) -> int:
    return rng.choice([v for v in range(-h, h + 1) if v])


# --- workload inputs ------------------------------------------------------

def _d3_normal_form(rng: random.Random, family: str) -> dict:
    r = lambda: rng.randint(-3, 3)  # noqa: E731
    nz = lambda: _nonzero(rng, 3)  # noqa: E731
    if family == "abelian":
        return {}
    if family == "heisenberg":
        return {(1, 2): (0, 0, nz())}
    if family == "line":
        return {(1, 3): (0, 0, nz())}
    if family == "plane":
        while True:
            b1, g1, b2, g2 = r(), r(), r(), r()
            if b1 * g2 - b2 * g1:
                return {(1, 2): (0, b1, g1), (1, 3): (0, b2, g2)}
    if family == "sol":
        return {(1, 2): (0, nz(), r()), (1, 3): (0, r(), r()), (2, 3): (0, 0, 1)}
    if family == "ns1":
        return {(1, 2): (0, 0, 1), (1, 3): (0, nz(), r()),
                (2, 3): (nz(), r(), r())}
    return {(1, 2): (0, 0, 1), (1, 3): (nz(), r(), r()), (2, 3): (0, nz(), r())}


def _d3_doc(rng: random.Random, index: int) -> dict:
    family = D3_FAMILIES[(index // 2) % len(D3_FAMILIES)]
    products = _d3_normal_form(rng, family)
    if index % 2:  # dense: transported to a random rational basis
        p, pinv = _random_basis(
            3, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        products = _transport(3, products, p, pinv)
    return _table(3, products)


def _dense_doc(rng: random.Random, index: int, n: int) -> dict:
    products = {(i, j): [rng.randint(-2, 2) for _ in range(n)]
                for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    if index % 2:
        # transported by a basis of determinant +-2: diag(2, 1, ..., 1) mixed
        # by row additions and swaps, so constants get denominator 2 at most
        # and generating one costs the same at every seed
        p = [[Fraction(2 if r == c == 0 else int(r == c)) for c in range(n)]
             for r in range(n)]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            if rng.random() < 0.2:
                p[i], p[j] = p[j], p[i]
            else:
                sign = rng.choice((-1, 1))
                p[i] = [x + sign * y for x, y in zip(p[i], p[j])]
        products = _transport(n, products, p, _inverse(p))
    return _table(n, products)


class Workload:
    """The ops of one workload and seed, each made when it is needed.

    Making an input is the benchmark's own work, so it happens between timed
    ops instead of during set-up, where it would swamp the program's start-up.
    Nothing is kept, so memory does not grow with the number of ops.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(NAMES)}")
        self.name, self.seed, self.workdir = name, seed, workdir

    def make(self, index: int) -> Op:
        """Op ``index`` without writing its document."""
        rng = _rng(self.name, self.seed, index)
        if self.name == "sample-d4":
            argv = ("sample", "--dim", "4", "--height", "2",
                    "--trials", str(SAMPLE_TRIALS),
                    "--seed", str(rng.getrandbits(63)), "--json")
            return Op(index, argv, None)
        doc = (_dense_doc(rng, index, 4) if self.name == "analyze-d4"
               else _d3_doc(rng, index))
        path = self.workdir / f"{self.name}-{index:05d}.json"
        return Op(index, ("analyze", str(path), "--json"), doc)

    def op(self, index: int) -> Op:
        """Op ``index`` with its document written; ``discard`` removes it."""
        op = self.make(index)
        if op.doc is not None:
            Path(op.argv[1]).write_text(json.dumps(op.doc), encoding="utf-8")
        return op

    @staticmethod
    def discard(op: Op) -> None:
        if op.doc is not None:
            Path(op.argv[1]).unlink(missing_ok=True)


def warmup_argv(workload: str, workdir: Path) -> list[str]:
    """A tiny op of the same subcommand, run once before timing starts."""
    if workload == "sample-d4":
        return ["sample", "--dim", "4", "--trials", "1", "--json"]
    path = workdir / "warmup.json"
    path.write_text(json.dumps(_table(3, {(1, 2): (0, 0, 1)})), encoding="utf-8")
    return ["analyze", str(path), "--json"]
