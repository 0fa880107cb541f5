"""Linear systems attached to an algebra: the derivation operator and the
Hom-Jacobi operator as matrices acting on flattened endomorphisms.

Endomorphisms are flattened column-major: ``vec_of_endo`` lists the first
column of f, then the second, and so on. Rows of the derivation matrix are
the components of the derivation defect on basis pairs (i, j), pairs in
lexicographic order with i < j, components innermost. Rows of the Hom-Jacobi
matrix do the same over basis triples i < j < k. ``build_M`` contracts the
product table, read through ``product(i, j)``, and ``build_HL`` the double
products (e_p e_q) e_l of ``algebra._double_product``, straight into their
grids; the ``*_defect`` functions evaluate the same expressions directly on
vectors through ``multiply`` and serve as an independent route for cross-checking.

By rank-nullity on the n^2 columns, one kernel settles every derived number:
the orbit dimension is rank M = n^2 - (derivation dimension), the
automorphism dimension equals the derivation dimension, and the algebra is
Hom-Lie iff ker HL is nonzero, with rank HL = n^2 - dim ker HL. The square
HL of n = 4 yields its determinant off the same elimination as its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (Endo, SkewAlgebra, Vec, _double_product, _pairs, _triples,
                      basis_vec, multiply, vadd, zero_vec)
from .errors import DimensionMismatchError, UnsupportedDimError
from .qlinalg import ExactMatrix, echelonize, kernel_basis


def vec_of_endo(f: Endo) -> Vec:
    """Column-major flattening of a square matrix."""
    n = f.rows
    return tuple(f[r, c] for c in range(n) for r in range(n))


def endo_of_vec(n: int, v: Sequence) -> Endo:
    """Inverse of ``vec_of_endo``."""
    if len(v) != n * n:
        raise DimensionMismatchError(f"vector of length {len(v)} is not n^2 for n={n}")
    return ExactMatrix([[v[c * n + r] for c in range(n)] for r in range(n)])


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


def build_M(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> derivation defect, acting on flattened endomorphisms.

    Shape is (n * C(n,2)) x n^2; the kernel is the derivation algebra, the
    rank the dimension of the isomorphism orbit.
    """
    n = a.dim
    pairs = _pairs(n)
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


def build_HL(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> Hom-Jacobi defect over basis triples, on flattened f.

    Shape is (n * C(n,3)) x n^2. Requires n >= 3: with no triples the
    Hom-Jacobi condition is vacuous and every dimension-2 algebra carries a
    Hom-Lie structure unconditionally.
    """
    n = a.dim
    if n < 3:
        raise UnsupportedDimError("Hom-Jacobi matrix needs dimension >= 3")
    # dp[p, q, l] = (e_p e_q) e_l, once per pair p < q; the reversed pair negates it
    dp = {}
    for p, q in _pairs(n):
        for l in range(1, n + 1):
            dp[p, q, l] = v = _double_product(a, p, q, l)
            dp[q, p, l] = tuple(-x for x in v)
    triples = _triples(n)
    grid = [[Fraction(0)] * (n * n) for _ in range(n * len(triples))]
    for t, (i, j, k) in enumerate(triples):
        # the three cyclic terms hit distinct r, so no column gets two terms
        for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(1, n + 1):
                col = (r - 1) * n + l - 1  # unit endomorphism e_r -> e_l
                for m, x in enumerate(dp[p, q, l]):
                    if x != 0:
                        grid[t * n + m][col] = x
    return ExactMatrix(grid, cols=n * n)


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of the derivation algebra, one endomorphism per kernel vector."""

    basis: tuple[Endo, ...]
    dim: int


@dataclass(frozen=True)
class HomLieSpace:
    """Basis of the Hom-Lie twists, and the determinant of HL when square (n = 4)."""

    basis: tuple[Endo, ...]
    dim: int
    determinant: Fraction | None


def derivation_space(a: SkewAlgebra) -> DerivationSpace:
    """Kernel of the derivation matrix, reshaped to endomorphisms."""
    vecs = kernel_basis(build_M(a))
    return DerivationSpace(tuple(endo_of_vec(a.dim, v) for v in vecs), len(vecs))


def aut_dimension(a: SkewAlgebra) -> int:
    """Dimension of the automorphism group (equals the derivation dimension)."""
    return a.dim * a.dim - orbit_dimension(a)


def orbit_dimension(a: SkewAlgebra) -> int:
    """Dimension of the isomorphism orbit: rank of the derivation matrix."""
    return echelonize(build_M(a)).rank


def homlie_space(a: SkewAlgebra) -> HomLieSpace:
    """All endomorphisms satisfying the Hom-Jacobi identity with the product.

    For n = 2 the condition is vacuous: the operator has no rows, so the
    space is all of gl(2), listed as the four unit endomorphisms in
    flattening order.
    """
    n = a.dim
    ech = echelonize(build_HL(a) if n > 2 else ExactMatrix.zeros(0, 4))
    basis = tuple(endo_of_vec(n, v) for v in ech.kernel())
    return HomLieSpace(basis, len(basis), ech.determinant)


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
    zero = zero_vec(n)
    for (i, j, k) in _triples(n):
        if hom_jacobi_defect(a, f, basis_vec(n, i), basis_vec(n, j),
                             basis_vec(n, k)) != zero:
            return False
    return True
