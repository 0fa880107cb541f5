"""Shared test utilities: independent oracles, seeded generators, and frozen
reference tables used across the suite."""

from fractions import Fraction

import argparse
import contextlib
import copy
import io
import itertools
import pickle

from skewlie import (EchelonResult, ExactMatrix, SkewAlgebra, Subspace, algebra3,
                     basis_vec, determinant, echelonize, inverse, left_mult,
                     multiply)
from skewlie.algebra import Vec
from skewlie.classify import LieTypeSolution
from skewlie.cli import _COMMANDS
from skewlie.errors import UnsupportedDimError


# ---------------------------------------------------------------------------
# Fraction tools on ExactMatrix entries, which the package does not need
# ---------------------------------------------------------------------------

def rows_of(m: ExactMatrix) -> list[list[Fraction]]:
    """The entries of m as mutable rows."""
    return [list(m.row(i)) for i in range(m.rows)]


def fraction_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The matrix product a b, summed over Fraction entries."""
    cols = [b.column(j) for j in range(b.cols)]
    return ExactMatrix([[sum((x * y for x, y in zip(a.row(i), c)), Fraction(0)) for c in cols]
                        for i in range(a.rows)], cols=b.cols)


# ---------------------------------------------------------------------------
# reference elimination: plain rational Gauss-Jordan on Fraction entries,
# independent of the package's fraction-free integer routine
# ---------------------------------------------------------------------------

def fraction_rref(m: ExactMatrix) -> EchelonResult:
    """Reduce to RREF by rational Gauss-Jordan elimination.

    The determinant of a square input is the product of the pivots with the
    sign of the row swaps, 0 below full rank; it is None for a non-square one.
    """
    a = rows_of(m)
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    det = Fraction(1)
    pr = 0
    for pc in range(cols):
        pivot_row = next((i for i in range(pr, rows) if a[i][pc] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != pr:
            det = -det
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        det *= a[pr][pc]
        inv = 1 / a[pr][pc]
        a[pr] = [x * inv for x in a[pr]]
        for i in range(rows):
            if i != pr and a[i][pc] != 0:
                factor = a[i][pc]
                a[i] = [x - factor * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    if not m.is_square:
        det = None
    elif len(pivots) < rows:
        det = Fraction(0)
    return EchelonResult(ExactMatrix(a, cols=cols), len(pivots), tuple(pivots), det)


def fraction_kernel(ech: EchelonResult) -> list[tuple[Fraction, ...]]:
    """The kernel basis read off an RREF entry by entry, one vector per free column
    in increasing order: 1 at that column, minus the pivot rows' entries there."""
    piv = dict(zip(ech.pivot_columns, rows_of(ech.reduced)))
    cols = ech.reduced.cols
    return [tuple(-piv[c][fc] if c in piv else Fraction(int(c == fc)) for c in range(cols))
            for fc in range(cols) if fc not in piv]


def rank_mod_p(rows, p: int) -> int:
    """Rank of integer rows mod a prime p: plain Gauss elimination on lists of
    residues, one entry at a time, with no packing; independent of the package's
    mod-p certificate."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot_row = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(rank + 1, len(a)):
            if factor := a[i][c]:
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# reference operators: M and HL assembled on Fraction entries straight from the
# product table, independent of the package's integer rows over a common
# denominator (these are the bodies build_M and build_HL had before)
# ---------------------------------------------------------------------------

def fraction_build_M(a: SkewAlgebra) -> ExactMatrix:
    n = a.dim
    pairs = list(itertools.combinations(range(1, n + 1), 2))  # 1-based, as a.product
    grid = [[Fraction(0)] * (n * n) for _ in range(n * len(pairs))]
    # column c*n + k (0-based) is the unit endomorphism f: e_{c+1} -> e_{k+1}. Its
    # defect f(e_i) e_j + e_i f(e_j) - f(e_i e_j) is e_{k+1} e_j if c+1 = i, plus
    # e_i e_{k+1} if c+1 = j (never both, as i != j), minus (e_i e_j)_c e_{k+1}.
    for p, (i, j) in enumerate(pairs):
        rows = grid[p * n:(p + 1) * n]
        for k in range(n):
            for c, prod in ((i - 1, a.product(k + 1, j)), (j - 1, a.product(i, k + 1))):
                for m, x in enumerate(prod):
                    if x != 0:
                        rows[m][c * n + k] = x
        for c, x in enumerate(a.product(i, j)):
            if x != 0:
                for k in range(n):
                    rows[k][c * n + k] -= x
    return ExactMatrix(grid, cols=n * n)


def fraction_build_HL(a: SkewAlgebra) -> ExactMatrix:
    n = a.dim
    if n < 3:
        raise UnsupportedDimError("Hom-Jacobi matrix needs dimension >= 3")
    # dp[p, q, l] = (e_p e_q) e_l through multiply twice, for 0-based p != q
    e = [basis_vec(n, i) for i in range(1, n + 1)]
    dp = {(p, q, l): multiply(a, multiply(a, e[p], e[q]), e[l])
          for p, q in itertools.permutations(range(n), 2) for l in range(n)}
    triples = list(itertools.combinations(range(n), 3))
    grid = [[Fraction(0)] * (n * n) for _ in range(n * len(triples))]
    for t, (i, j, k) in enumerate(triples):
        # the three cyclic terms hit distinct r, so no column gets two terms
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(n):
                col = r * n + l  # unit endomorphism e_r -> e_l
                for m, x in enumerate(dp[p, q, l]):
                    if x != 0:
                        grid[t * n + m][col] = x
    return ExactMatrix(grid, cols=n * n)


# ---------------------------------------------------------------------------
# reference Killing form: trace(L_i L_j) through left-multiplication matrices,
# independent of the package's contraction of the structure constants
# ---------------------------------------------------------------------------

def killing_by_trace(a: SkewAlgebra) -> ExactMatrix:
    n = a.dim
    ops = [left_mult(a, basis_vec(n, i)) for i in range(1, n + 1)]
    return ExactMatrix([[sum((li[k, l] * lj[l, k] for k in range(n) for l in range(n)),
                             Fraction(0)) for lj in ops] for li in ops])


# ---------------------------------------------------------------------------
# reference product and transport: Fraction sums over a.product, independent of
# the package's integer kernel
# ---------------------------------------------------------------------------

def fraction_product(a: SkewAlgebra, x, y) -> tuple:
    """x * y as the sum over all i, j of x_i y_j a.product(i, j)."""
    n = a.dim
    out = [Fraction(0)] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k, c in enumerate(a.product(i, j)):
                out[k] += Fraction(x[i - 1]) * Fraction(y[j - 1]) * c
    return tuple(out)


def fraction_transport(a: SkewAlgebra, p: ExactMatrix) -> SkewAlgebra:
    """The algebra with products p^{-1}(p e_i * p e_j), p^{-1} read off the
    rational RREF of [p | I]."""
    n = a.dim
    aug = ExactMatrix([list(p.row(r)) + [int(r == c) for c in range(n)] for r in range(n)])
    pinv = [row[n:] for row in rows_of(fraction_rref(aug).reduced)]
    products = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        v = fraction_product(a, p.column(i - 1), p.column(j - 1))
        products[i, j] = [sum((q * x for q, x in zip(row, v)), Fraction(0)) for row in pinv]
    return SkewAlgebra(n, products)


def full_space(n: int) -> Subspace:
    """The whole space as a ``Subspace``: the identity rows."""
    return Subspace(ExactMatrix.identity(n), n)


# ---------------------------------------------------------------------------
# independent determinant oracle: memoized first-row cofactor expansion
# ---------------------------------------------------------------------------

def cofactor_determinant(rows):
    """Exact determinant by cofactor expansion; independent of the
    elimination-based path in the package."""
    n = len(rows)
    cache: dict[tuple[int, ...], Fraction | int] = {}

    def minor(cols: tuple[int, ...]):
        if not cols:
            return 1
        if cols in cache:
            return cache[cols]
        r = n - len(cols)
        total = 0
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if entry == 0:
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = entry * minor(rest)
            total = total + term if pos % 2 == 0 else total - term
        cache[cols] = total
        return total

    return minor(tuple(range(n)))


# ---------------------------------------------------------------------------
# seeded random objects (plain random.Random instances are passed in)
# ---------------------------------------------------------------------------

def rand_fraction(rng, num=9, den=6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_nonzero_fraction(rng, num=9, den=6) -> Fraction:
    while True:
        x = rand_fraction(rng, num, den)
        if x != 0:
            return x


def rand_algebra(rng, dim=3, height=3) -> SkewAlgebra:
    table = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            table[(i, j)] = [rng.randint(-height, height) for _ in range(dim)]
    return SkewAlgebra(dim, table)


def rand_endo(rng, n, height=3) -> ExactMatrix:
    return ExactMatrix([[rng.randint(-height, height) for _ in range(n)]
                        for _ in range(n)])


def rand_invertible(rng, n, height=3) -> ExactMatrix:
    from skewlie import determinant
    while True:
        p = rand_endo(rng, n, height)
        if determinant(p) != 0:
            return p


def rand_rational_invertible(rng, n) -> ExactMatrix:
    while True:
        p = ExactMatrix([[rand_fraction(rng, 4, 3) for _ in range(n)] for _ in range(n)])
        if cofactor_determinant(rows_of(p)) != 0:
            return p


def rand_vec(rng, n, height=4) -> Vec:
    return tuple(Fraction(rng.randint(-height, height)) for _ in range(n))


# ---------------------------------------------------------------------------
# reference tables (hand-transcribed, independently verified once symbolically)
# ---------------------------------------------------------------------------

def reference_derivation_matrix3(a1, b1, g1, a2, b2, g2, a3, b3, g3):
    """The 9x9 derivation-defect matrix of a dimension-3 algebra, written out
    entry by entry; cross-checks the programmatic assembly in build_M."""
    z = 0
    return [
        [z, z, -a3, -b1, a1, a2, -g1, z, z],
        [b1, -a1, -b3, z, z, b2, z, -g1, z],
        [g1, z, -g3 - a1, z, g1, g2 - b1, z, z, -g1],
        [z, a3, z, -b2, z, z, -g2, a1, a2],
        [b2, -a2 + b3, z, z, -b2, z, z, -g2 + b1, b2],
        [g2, g3, -a2, z, z, -b2, z, g1, z],
        [-a3, z, z, a2 - b3, a3, z, -a1 - g3, z, a3],
        [z, -a3, z, b2, z, z, -b1, -g3, b3],
        [z, z, -a3, g2, g3, -b3, -g1, z, z],
    ]


# Closed-form kernel generators of the derivation matrix for the three
# parametric families. Each satisfies build_M(family) . v = 0 identically in
# the parameters (verified symbolically once; re-verified numerically by the
# tests at every sampled parameter point).

def sol_kernel_generator(b1, g1, b2, g2):
    return (-b2, b2 * (b1 + g2), -b1 * b1 - 2 * b2 * g1 + b1 * g2,
            0, 0, b1, 0, 0, b2)


def sol_kernel_generators_b2_zero(b1, g1, g2):
    return ((0, 0, -g1, 0, 0, 0, 0, 0, 1),
            (0, 0, -b1 + g2, 0, 0, 1, 0, 0, 0))


def ns1_kernel_generator(b2, g2, a3, b3, g3):
    return (-b3 * b3 - b3 * g2 * g3 + b2 * g3 * g3,
            2 * b2 * b3 + b3 * g2 * g2 - b2 * g2 * g3,
            -b3 * g2 + 2 * b2 * g3,
            2 * a3 * b3 + a3 * g2 * g3,
            b3 * b3 - a3 * g2 * g2,
            2 * a3 * g2 + b3 * g3,
            a3 * b3 * g2 - 2 * a3 * b2 * g3,
            2 * a3 * b2 * g2 + b3 * b3 * g2 - b2 * b3 * g3,
            a3 * g2 * g2 + b3 * g2 * g3 - b2 * g3 * g3)


def ns2_kernel_generator(a2, b2, g2, b3, g3):
    return (-a2 * a2 - b2 * g3 * g3 + b3 * b3 + b3 * g2 * g3,
            -2 * a2 * b2 - 2 * b2 * b3 + b2 * g2 * g3 - b3 * g2 * g2,
            -a2 * g2 - 2 * b2 * g3 + b3 * g2,
            a2 * g3 * g3,
            a2 * a2 - a2 * g2 * g3 - b3 * b3,
            g3 * (a2 - b3),
            a2 * g3 * (a2 - b3),
            a2 * b2 * g3 + a2 * b3 * g2 + b2 * b3 * g3 - b3 * b3 * g2,
            g3 * (a2 * g2 + b2 * g3 - b3 * g2))


# Dimension-4 fixtures.

def counterexample4() -> SkewAlgebra:
    """The dimension-4 algebra carrying no Hom-Lie structure."""
    return SkewAlgebra(4, {
        (1, 2): (0, 1, 2, -1),
        (1, 3): (1, 2, -1, 0),
        (1, 4): (2, -1, 0, 1),
        (2, 3): (-1, 0, 1, 2),
        (2, 4): (1, 2, -1, 3),
        (3, 4): (-2, -1, 1, 2),
    })


# Frozen from the cofactor oracle; the Hom-Jacobi matrix of counterexample4.
COUNTEREXAMPLE4_HL_DET = 7574844564


def rigid_dim4() -> SkewAlgebra:
    """Dimension-4 algebra whose derivation matrix has full column rank 16."""
    return SkewAlgebra(4, {
        (1, 2): (1, 0, 0, 1),
        (1, 3): (0, 1, 1, 0),
        (1, 4): (0, 0, 1, 1),
        (2, 3): (1, 0, 1, 0),
        (2, 4): (0, 1, 0, 0),
        (3, 4): (0, 1, 1, 0),
    })


# A published 16x16 integer table related to counterexample4 (it deviates from
# the assembled Hom-Jacobi matrix in 19 entries, so it is used purely as a
# determinant fixture, not as golden data for the builder).
HL16_TABLE = [
    [-5, -1, 3, -4, -1, 1, 1, -6, 0, 3, -3, -3, 0, 0, 0, 0],
    [0, -3, 0, 0, 0, -1, -2, -4, 6, 2, -1, 0, 0, 0, 0, 0],
    [1, 3, -1, 1, 5, -3, -1, 3, 0, -3, 2, 1, 0, 0, 0, 0],
    [-2, -9, -4, 1, -2, -1, -4, -5, -2, -1, 4, 7, 0, 0, 0, 0],
    [-5, -4, 4, 6, 2, 1, -5, -3, 0, 0, 0, 0, 0, 3, -3, -3],
    [3, 3, 4, 4, -2, 0, -5, 4, 0, 0, 0, 0, 6, 2, -1, 0],
    [-5, 6, 1, -3, -2, -5, 4, -1, 0, 0, 0, 0, 0, -3, 2, 1],
    [-1, -8, -3, 5, 2, 5, 4, 1, 0, 0, 0, 0, -2, -1, 4, 7],
    [-5, -1, 3, -7, 0, 0, 0, 0, 2, 1, -5, -3, 1, -1, -1, 6],
    [1, -6, -2, -1, 0, 0, 0, 0, -2, 0, -5, 4, 0, 1, 2, 4],
    [3, -3, -1, 2, 0, 0, 0, 0, -2, -5, 4, -1, -5, 3, 1, -3],
    [-3, -6, -6, -3, 0, 0, 0, 0, 2, 5, 4, 1, 2, 1, 4, 5],
    [0, 0, 0, 0, -5, -1, 3, -7, 5, 4, -4, -6, -5, -1, 3, -4],
    [0, 0, 0, 0, 1, -6, -2, -1, -3, 5, -4, -4, 0, -3, 0, 0],
    [0, 0, 0, 0, 3, -3, -1, 2, 5, -6, -1, 3, 1, 3, -1, 1],
    [0, 0, 0, 0, -3, -6, -6, -3, 1, 8, 3, -5, -2, -9, -4, 1],
]

HL16_TABLE_DET = 11058686421416


def gamma2_family(g2) -> SkewAlgebra:
    """e1*e2 = e2, e1*e3 = g2 e3, e2*e3 = e1; Lie exactly at g2 = -1."""
    return algebra3(0, 1, 0, 0, 0, g2, 1, 0, 0)


# ---------------------------------------------------------------------------
# classification support
# ---------------------------------------------------------------------------

def greedy_extend_with_standard(cols: list[Vec], n: int) -> list[Vec]:
    """Complete to a basis using the lowest-index standard vectors that keep
    the columns independent."""
    chosen = list(cols)
    current = echelonize(ExactMatrix(chosen, cols=n)).rank if chosen else 0
    for i in range(1, n + 1):
        if len(chosen) == n:
            break
        cand = chosen + [basis_vec(n, i)]
        r = echelonize(ExactMatrix(cand, cols=n)).rank
        if r > current:
            chosen, current = cand, r
    return chosen


# Reference dim-3 classification steps on Fraction vectors: the regular-pair
# search by ExactMatrix determinants, the first non-solvable witness through
# inverse, apply and a matrix product, and the Lie-type solver by echelonize.
# These are the bodies classify had before it worked on the integer tensor.

def fraction_vectors_up_to(n: int, height: int) -> list[Vec]:
    """Integer vectors of max-norm 1..height, heights ascending; within one
    height the first coordinate varies fastest through 0, 1, -1, 2, -2, ..."""
    out: list[Vec] = []
    for h in range(1, height + 1):
        vals = [0]
        for v in range(1, h + 1):
            vals.extend((v, -v))
        for tup in itertools.product(vals, repeat=n):
            vec = tup[::-1]
            if max(abs(c) for c in vec) == h:
                out.append(tuple(Fraction(c) for c in vec))
    return out


def _height(v: Vec) -> int:
    return max(abs(int(c)) for c in v)


def fraction_search_pairs(a: SkewAlgebra, want_ns1: bool,
                          max_height: int) -> tuple[Vec, Vec] | None:
    for bound in range(1, max_height + 1):
        vecs = fraction_vectors_up_to(3, bound)
        for x in vecs:
            hx = _height(x)
            for y in vecs:
                if max(hx, _height(y)) != bound:
                    continue
                z = multiply(a, x, y)
                if determinant(ExactMatrix.from_columns([x, y, z])) == 0:
                    continue
                if want_ns1:
                    yz = multiply(a, y, z)
                    if determinant(ExactMatrix.from_columns([y, z, yz])) == 0:
                        continue
                return x, y
    return None


def fraction_ns1_witness(a: SkewAlgebra, x: Vec, y: Vec) -> ExactMatrix:
    """[x, y, xy] sheared so that e1*e3 and e2*e3 lose their e1-components."""
    z = multiply(a, x, y)
    base = ExactMatrix.from_columns([x, y, z])
    # e1-components of e1*e3, e2*e3 in the basis x, y, z, absorbed into the first
    # vector; the check on the final witness also covers e1*e2 = e3
    binv = inverse(base)
    alpha2, alpha3 = (binv.apply(multiply(a, w, z))[0] for w in (x, y))
    shear = ExactMatrix.from_columns(
        [(1, -alpha2 / alpha3, 0), (0, 1, 0), (0, 0, 1)])
    return fraction_matmul(base, shear)


def _cyclic_terms(a: SkewAlgebra) -> tuple[Vec, Vec, Vec]:
    """The three cyclic terms (e1 e2) e3, (e2 e3) e1, (e3 e1) e2, by ``multiply`` twice:
    independent of the package's integer tables."""
    e1, e2, e3 = (basis_vec(3, i) for i in (1, 2, 3))
    return tuple(multiply(a, multiply(a, x, y), z)
                 for x, y, z in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)))


def lie_type_relation_holds(a: SkewAlgebra, coeff_a, coeff_b) -> bool:
    """Directly evaluate the constant-coefficient relation on (e1, e2, e3)."""
    t1, t2, t3 = _cyclic_terms(a)
    total = tuple(p + Fraction(coeff_a) * q + Fraction(coeff_b) * r
                  for p, q, r in zip(t1, t2, t3))
    return not any(total)


def fraction_lie_type_constants(a: SkewAlgebra) -> LieTypeSolution:
    t1, t2, t3 = _cyclic_terms(a)
    ech_a = echelonize(ExactMatrix.from_columns([t2, t3]))
    homogeneous = tuple((v[0], v[1]) for v in ech_a.kernel())
    aug = ExactMatrix([[t2[m], t3[m], -t1[m]] for m in range(3)], cols=3)
    ech_aug = echelonize(aug)
    if ech_aug.rank > ech_a.rank:
        return LieTypeSolution(None, homogeneous, False)
    particular = [Fraction(0), Fraction(0)]
    for row, pc in enumerate(ech_a.pivot_columns):
        particular[pc] = ech_aug.reduced[row, 2]
    part = (particular[0], particular[1])
    admissible = part[0] != 0 or any(h[0] != 0 for h in homogeneous)
    return LieTypeSolution(part, homogeneous, admissible)


def normal_form_of(result):
    """Rebuild the normal-form algebra that a classification result asserts."""
    from skewlie import abelian, heisenberg
    from skewlie.classify import (ABELIAN, HEISENBERG, NS1, NS2,
                                  SOLVABLE_LIE_LINE, SOLVABLE_LIE_PLANE,
                                  SOLVABLE_NON_LIE, ns1_family, ns2_family,
                                  sol_family)
    p = result.params
    if result.tag == ABELIAN:
        return abelian(3)
    if result.tag == HEISENBERG:
        return heisenberg()
    if result.tag == SOLVABLE_LIE_LINE:
        return SkewAlgebra(3, {(1, 3): (0, 0, 1)})
    if result.tag == SOLVABLE_LIE_PLANE:
        return SkewAlgebra(3, {(1, 2): (0, p["beta1"], p["gamma1"]),
                               (1, 3): (0, p["beta2"], p["gamma2"])})
    if result.tag == SOLVABLE_NON_LIE:
        return sol_family(p["beta1"], p["gamma1"], p["beta2"], p["gamma2"])
    if result.tag == NS1:
        return ns1_family(p["beta2"], p["gamma2"], p["alpha3"], p["beta3"],
                          p["gamma3"])
    if result.tag == NS2:
        return ns2_family(p["alpha2"], p["beta2"], p["gamma2"], p["beta3"],
                          p["gamma3"])
    raise AssertionError(result.tag)


# ---------------------------------------------------------------------------
# reference command-line parser: the argparse spec the CLI had before it read
# argv with getopt, kept unchanged as the oracle for the getopt parser
# ---------------------------------------------------------------------------

_PARSER = argparse.ArgumentParser(
    prog="skewlie",
    description="Exact analysis of skew-symmetric algebras given by "
                "rational structure constants")
_sub = _PARSER.add_subparsers(dest="command", required=True)
for _name, (_help, _) in _COMMANDS.items():
    _p = _sub.add_parser(_name, help=_help)
    _p.add_argument("file", help="algebra document (JSON)")
    _p.add_argument("--json", action="store_true", help="emit a JSON report")
_p = _sub.add_parser("sample", help="seeded genericity experiment")
_p.add_argument("--dim", type=int, required=True)
_p.add_argument("--trials", type=int, required=True)
_p.add_argument("--seed", type=int, default=0)
_p.add_argument("--height", type=int, default=2)
_p.add_argument("--json", action="store_true", help="emit a JSON report")


def reference_parse(argv) -> tuple[int | None, dict | None, str]:
    """What the reference parser makes of argv: (None, its values by name, "") when
    it accepts the line, else (its exit code, None, what it printed to stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return None, vars(_PARSER.parse_args(argv)), ""
    except SystemExit as e:
        return e.code, None, out.getvalue()


# ---------------------------------------------------------------------------
# call counter for the compute-once tests
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, names, modules) -> dict[str, int]:
    """Count the calls of each function in names: name -> calls. One counting wrapper per
    name replaces it in every one of modules that binds it, so a caller in any of them
    is counted once; the original is the first module's."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, original=getattr(modules[0], name)):
            counts[name] += 1
            return original(*args)

        for mod in modules:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return counts


# ---------------------------------------------------------------------------
# the ways a value is pickled or copied, each of which must give it back equal
# ---------------------------------------------------------------------------

ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
               "deepcopy": copy.deepcopy}
