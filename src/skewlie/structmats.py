"""Linear systems attached to an algebra: the derivation operator and the
Hom-Jacobi operator as matrices acting on flattened endomorphisms.

Endomorphisms are flattened column-major: ``vec_of_endo`` lists the first
column of f, then the second, and so on, so with 0-based basis indices column
c*n + k of M and HL is the unit endomorphism e_c -> e_k. Rows of the derivation
matrix M are the components of the derivation defect on basis pairs i < j in
lexicographic order (``itertools.combinations``), components innermost; rows
of the Hom-Jacobi matrix HL do the same over basis triples i < j < k.
``_M_rows`` and ``_HL_rows`` assemble integer rows from the constants over one
common denominator den, M (linear in them) scaled by den and HL (quadratic) by
den^2; ``_reduce`` divides each row by its content (the gcd of its entries) and
hands them to ``qlinalg._eliminate``; rank and kernel ignore row scaling.
``build_M`` and ``build_HL`` wrap those rows as ``ExactMatrix``; the
``*_defect`` functions evaluate the same expressions on vectors through
``multiply``, independently.

By rank-nullity on the n^2 columns, one kernel settles every derived number:
orbit dimension rank M = n^2 - (derivation dimension), automorphism dimension
= derivation dimension, Hom-Lie iff ker HL is nonzero, rank HL = n^2 - dim ker
HL. The square 16 x 16 HL of n = 4, the one determinant read, comes off the same
elimination as its kernel: times the row contents and over den^32.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import (Endo, SkewAlgebra, Vec, _check_index, _double_product, basis_vec,
                      multiply, vadd)
from .errors import DimensionMismatchError, UnsupportedDimError
from .qlinalg import ExactMatrix, _Basis, _eliminate


def vec_of_endo(f: Endo) -> Vec:
    """Column-major flattening of a square matrix."""
    if not f.is_square:
        raise DimensionMismatchError(f"{f.rows}x{f.cols} matrix is not an endomorphism")
    n = f.rows
    return tuple(f[r, c] for c in range(n) for r in range(n))


def endo_of_vec(n: int, v: Sequence) -> Endo:
    """Inverse of ``vec_of_endo``."""
    _check_index(n)
    if n < 0:
        raise ValueError(f"negative dimension {n}")
    if len(v) != n * n:
        raise DimensionMismatchError(f"vector of length {len(v)} is not n^2 for n={n}")
    return ExactMatrix([v[r::n] for r in range(n)], cols=n)  # v is column-major


def _check_endo(a: SkewAlgebra, f: Endo) -> None:
    if not (f.is_square and f.rows == a.dim):
        raise DimensionMismatchError(f"{f.rows}x{f.cols} endomorphism on a "
                                     f"dim-{a.dim} algebra")


def derivation_defect(a: SkewAlgebra, f: Endo, x: Sequence, y: Sequence) -> Vec:
    """f(x)*y + x*f(y) - f(x*y); zero for all x, y iff f is a derivation."""
    _check_endo(a, f)
    fx, fy = f.apply(x), f.apply(y)
    fxy = f.apply(multiply(a, x, y))
    return tuple(p + q - r for p, q, r in
                 zip(multiply(a, fx, y), multiply(a, x, fy), fxy))


def hom_jacobi_defect(a: SkewAlgebra, f: Endo,
                      x: Sequence, y: Sequence, z: Sequence) -> Vec:
    """Cyclic sum (xy)f(z) + (yz)f(x) + (zx)f(y)."""
    _check_endo(a, f)
    return vadd(vadd(multiply(a, multiply(a, x, y), f.apply(z)),
                     multiply(a, multiply(a, y, z), f.apply(x))),
                multiply(a, multiply(a, z, x), f.apply(y)))


def _M_rows(a: SkewAlgebra) -> list[list[int]]:
    """Integer rows of den * M (M is linear in the constants)."""
    n, t = a.dim, a._ints[0]
    pairs = list(itertools.combinations(range(n), 2))
    grid = [[0] * (n * n) for _ in range(n * len(pairs))]
    # column c*n + k is the unit endomorphism f: e_c -> e_k. Its defect
    # f(e_i) e_j + e_i f(e_j) - f(e_i e_j) is e_k e_j if c = i, plus e_i e_k if
    # c = j (never both, as i != j), minus (e_i e_j)_c e_k.
    for p, (i, j) in enumerate(pairs):
        rows = grid[p * n:(p + 1) * n]
        for k in range(n):
            for c, prod in ((i, t[k][j]), (j, t[i][k])):
                for m, x in enumerate(prod):
                    if x:
                        rows[m][c * n + k] = x
        for c, x in enumerate(t[i][j]):
            if x:
                for k in range(n):
                    rows[k][c * n + k] -= x
    return grid


def _HL_rows(a: SkewAlgebra) -> list[list[int]]:
    """Integer rows of den^2 * HL (HL is quadratic in the constants)."""
    n, t = a.dim, a._ints[0]
    if n < 3:
        raise UnsupportedDimError("Hom-Jacobi matrix needs dimension >= 3")
    # dp[p, q, l] = (e_p e_q) e_l, once per pair p < q; the reversed pair negates it
    dp = {(p, q, l): _double_product(t, p, q, l)
          for p, q in itertools.combinations(range(n), 2) for l in range(n)}
    dp.update({(q, p, l): tuple(-x for x in v) for (p, q, l), v in dp.items()})
    triples = list(itertools.combinations(range(n), 3))
    grid = [[0] * (n * n) for _ in range(n * len(triples))]
    for row, (i, j, k) in enumerate(triples):
        # the three cyclic terms hit distinct r, so no column gets two terms
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(n):
                col = r * n + l  # unit endomorphism e_r -> e_l
                for m, x in enumerate(dp[p, q, l]):
                    if x:
                        grid[row * n + m][col] = x
    return grid


def build_M(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> derivation defect, acting on flattened endomorphisms:
    (n * C(n,2)) x n^2, kernel the derivation algebra, rank the orbit dimension."""
    return ExactMatrix._of(_M_rows(a), a.dim * a.dim, a._ints[1])


def build_HL(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> Hom-Jacobi defect over basis triples, on flattened f.

    Shape is (n * C(n,3)) x n^2. Requires n >= 3: with no triples the Hom-Jacobi
    condition is vacuous and every dimension-2 algebra is Hom-Lie unconditionally.
    """
    return ExactMatrix._of(_HL_rows(a), a.dim * a.dim, a._ints[1] ** 2)


def _reduce(rows: list[list[int]], cols: int) -> _Basis:
    """Eliminate integer rows, each first divided by its content."""
    return _eliminate([[x // g for x in row] if (g := math.gcd(*row)) > 1 else row
                       for row in rows], cols)


def _kernel_endos(space) -> tuple[Endo, ...]:
    """The integer kernel ``space._kernel = (n, vectors, q)`` as endomorphisms v / q:
    row r of v (column-major) is v[r::n]."""
    n, vecs, q = space._kernel
    return tuple(ExactMatrix._of([v[r::n] for r in range(n)], n, q) for v in vecs)


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of the derivation algebra, one endomorphism per kernel vector: ``basis``
    views the integer kernel (n, vectors, q) of the elimination, built on first read."""

    dim: int
    _kernel: tuple = field(repr=False, hash=False)
    basis = functools.cached_property(_kernel_endos)


@dataclass(frozen=True)
class HomLieSpace:
    """Basis of the Hom-Lie twists, and the determinant of HL when square (n = 4);
    ``basis`` is built on first read, as in ``DerivationSpace``."""

    dim: int
    determinant: Fraction | None
    _kernel: tuple = field(repr=False, hash=False)
    basis = functools.cached_property(_kernel_endos)


def derivation_space(a: SkewAlgebra) -> DerivationSpace:
    """Kernel of the derivation matrix, reshaped to endomorphisms."""
    vecs, q = _reduce(_M_rows(a), a.dim * a.dim).kernel_ints()
    return DerivationSpace(len(vecs), (a.dim, vecs, q))


def aut_dimension(a: SkewAlgebra) -> int:
    """Dimension of the automorphism group (equals the derivation dimension)."""
    return a.dim * a.dim - orbit_dimension(a)


def orbit_dimension(a: SkewAlgebra) -> int:
    """Dimension of the isomorphism orbit: rank of the derivation matrix."""
    return _reduce(_M_rows(a), a.dim * a.dim).rank


def homlie_space(a: SkewAlgebra) -> HomLieSpace:
    """All endomorphisms satisfying the Hom-Jacobi identity with the product.

    For n = 2 the condition is vacuous: the operator has no rows, so the
    space is all of gl(2), listed as the four unit endomorphisms in
    flattening order.
    """
    n = a.dim
    rows = _HL_rows(a) if n > 2 else []
    b = _reduce(rows, n * n)
    vecs, q = b.kernel_ints()
    det = (Fraction(b.det * math.prod(math.gcd(*r) for r in rows), a._ints[1] ** 32)
           if n == 4 else None)  # square HL: b.det is det(den^2 HL) over the row contents
    return HomLieSpace(len(vecs), det, (n, vecs, q))


def is_homlie(a: SkewAlgebra) -> bool:
    """True iff some nonzero endomorphism satisfies the Hom-Jacobi identity.

    The zero map always satisfies it vacuously, so the test is that the
    solution space has dimension at least 1.
    """
    return homlie_space(a).dim >= 1


def hom_check(a: SkewAlgebra, f: Endo) -> bool:
    """Direct evaluation of the Hom-Jacobi identity on all basis triples.

    Independent of the matrix route: useful as an oracle against it.
    """
    _check_endo(a, f)
    n = a.dim
    return not any(any(hom_jacobi_defect(a, f, *(basis_vec(n, i) for i in ijk)))
                   for ijk in itertools.combinations(range(1, n + 1), 3))
