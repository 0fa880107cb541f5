"""Linear systems attached to an algebra: the derivation operator and the
Hom-Jacobi operator as matrices acting on flattened endomorphisms.

Endomorphisms are flattened column-major: ``vec_of_endo`` lists the first
column of f, then the second, and so on, so with 0-based basis indices column
c*n + k of M and HL is the unit endomorphism e_c -> e_k. Rows of the derivation
matrix M are the components of the derivation defect on basis pairs i < j in
lexicographic order (``itertools.combinations``), components innermost; rows
of the Hom-Jacobi matrix HL do the same over basis triples i < j < k.
``_M_rows`` and ``_HL_rows`` yield the integer rows of den M and den^2 HL (den the constants'
common denominator; M is linear in them, HL quadratic) one at a time, slices of exact tables
between zero blocks, and ``_M_packed`` and ``_HL_packed`` the same rows mod p, from the packed
table (HL's pair blocks made as read). A table is built once per algebra (``algebra._table``).
From n = 4 (no dim-3 orbit is open; for HL from n = 5, as n = 4 reads its det) ``_reduce`` lets
``_full_rank_mod_p`` prove full rank on the packed rows, else ``_eliminate`` reads the exact rows
up to full column rank (rank and kernel ignore row scaling). ``build_M`` and ``build_HL`` wrap
all the rows as ``ExactMatrix``; the ``*_defect`` functions evaluate them via ``multiply``.

By rank-nullity on the n^2 columns, one kernel settles every derived number:
orbit dimension rank M = n^2 - (derivation dimension), automorphism dimension
= derivation dimension, Hom-Lie iff ker HL is nonzero, rank HL = n^2 - dim ker
HL. The square 16 x 16 HL of n = 4, the one determinant read, comes off the same
elimination as its kernel, over den^32.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .algebra import (Endo, SkewAlgebra, Vec, _check_endo, _check_vec, _exact_blocks, _flat,
                      _table, basis_vec, multiply, vadd)
from .errors import DimensionMismatchError, UnsupportedDimError
from .qlinalg import (_FOLD, _P, _SLOT, ExactMatrix, _Basis, _check_index, _check_matrix,
                      _eliminate, _full_rank_mod_p, _pack)


def vec_of_endo(f: Endo) -> Vec:
    """Column-major flattening of a square matrix."""
    _check_matrix(f)
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


def derivation_defect(a: SkewAlgebra, f: Endo, x: Sequence, y: Sequence) -> Vec:
    """f(x)*y + x*f(y) - f(x*y); zero for all x, y iff f is a derivation."""
    _check_endo(a, f)
    x, y = _check_vec(a, x), _check_vec(a, y)
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


def _packed(a: SkewAlgebra) -> tuple[list[int], list[int]]:
    """Table: T[s] with t[s][l][m] mod p in slot m*n + l (``_pack``), and N[s] = -T[s] mod p
    slot by slot, as t[l][s] = -t[s][l]: p minus each slot, then the canonical step of
    ``_full_rank_mod_p`` takes a slot p to 0, so a zero stays the int 0."""
    ones = (1 << _SLOT * a.dim ** 2) // ((1 << _SLOT) - 1)  # 1 in every slot
    T = [_pack([*itertools.chain(*zip(*row))]) for row in a._ints[0]]
    N = [_P * ones - v for v in T]
    return T, [v - ((v + ones) >> _FOLD & ones) * _P for v in N]


def _M_rows(a: SkewAlgebra) -> Iterator[list[int]]:
    """Integer rows of den * M (M is linear in the constants), one at a time."""
    n, t, (flat, neg) = a.dim, a._ints[0], _table(a, _flat)
    # column c*n + k is the unit endomorphism f: e_c -> e_k. Its defect
    # f(e_i) e_j + e_i f(e_j) - f(e_i e_j) is e_k e_j if c = i, plus e_i e_k if
    # c = j (never both, as i != j), minus (e_i e_j)_c e_k. At l*n + m, flat[s]
    # holds (e_s e_l)_m and neg[s] holds (e_l e_s)_m, so their slices [m::n] run over l.
    zeros = [[0] * (w * n) for w in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        z0, z1, z2 = (zeros[w] for w in (i, j - i - 1, n - j - 1))
        for m in range(n):
            row = [*z0, *neg[j][m::n], *z1, *flat[i][m::n], *z2]
            for c, x in enumerate(t[i][j]):
                if x:
                    row[c * n + m] -= x
            yield row


def _HL_rows(a: SkewAlgebra) -> Iterator[list[int]]:
    """Integer rows of den^2 * HL (HL is quadratic in the constants), one at a time;
    none below dimension 3, which has no basis triples."""
    n, dp, zeros = a.dim, _table(a, _exact_blocks), [[0] * (w * a.dim) for w in range(a.dim)]
    for i, j, k in itertools.combinations(range(n), 3):
        # the cyclic terms (e_j e_k) f(e_i), (e_k e_i) f(e_j), (e_i e_j) f(e_k) fill the
        # column blocks i < j < k of the unit endomorphisms e_r -> e_l, over l
        z0, z1, z2, z3 = (zeros[w] for w in (i, j - i - 1, k - j - 1, n - k - 1))
        jk, ki, ij = dp[j, k], dp[k, i], dp[i, j]
        for m in range(n):
            yield [*z0, *jk[m::n], *z1, *ki[m::n], *z2, *ij[m::n], *z3]


def _M_packed(a: SkewAlgebra) -> Iterator[int]:
    """``_M_rows`` mod p, packed as by ``_pack`` but not reduced, slots at most 2 (p - 1): block
    m of T[s] holds t[s][l][m] over l, of N[s] its negation; they fill column blocks j and i."""
    n, w, blk, (T, N) = a.dim, _SLOT * a.dim, (1 << _SLOT * a.dim) - 1, _table(a, _packed)
    diag = ((1 << _SLOT) - 1) * ((1 << w * n) // blk)  # the slots c*n
    for i, j in itertools.combinations(range(n), 2):
        c = N[i] >> _SLOT * j & diag  # -t[i][j][c] at slot c*n, shifted to c*n + m below
        for s in range(0, w, _SLOT):  # _SLOT m for the component m
            yield ((N[j] >> n * s & blk) << w * i | (T[i] >> n * s & blk) << w * j) + (c << s)


def _HL_packed(a: SkewAlgebra) -> Iterator[int]:
    """``_HL_rows`` mod p, packed but not reduced, slots at most n (p - 1)^2: block m of three
    pair blocks D[p, q] = sum of (t[p][q][s] mod p) T[s] (``_exact_blocks`` mod p in the layout
    of T, not reduced), shifted to the column blocks i, j, k; a block is made when first read."""
    n, w, blk, t = a.dim, _SLOT * a.dim, (1 << _SLOT * a.dim) - 1, a._ints[0]
    T, D = _table(a, _packed)[0], {}
    for i, j, k in itertools.combinations(range(n), 3):
        for p, q in ((j, k), (k, i), (i, j)):
            if (p, q) not in D:
                D[p, q] = sum(x % _P * v for x, v in zip(t[p][q], T))
        jk, ki, ij = D[j, k], D[k, i], D[i, j]
        for s in range(0, w * n, w):  # w m for the component m
            yield (jk >> s & blk) << w * i | (ki >> s & blk) << w * j | (ij >> s & blk) << w * k


def build_M(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> derivation defect, acting on flattened endomorphisms:
    (n * C(n,2)) x n^2, kernel the derivation algebra, rank the orbit dimension."""
    return ExactMatrix._of(list(_M_rows(a)), a.dim * a.dim, a._ints[1])


def build_HL(a: SkewAlgebra) -> ExactMatrix:
    """Matrix of f -> Hom-Jacobi defect over basis triples, on flattened f.

    Shape is (n * C(n,3)) x n^2. Requires n >= 3: with no triples the Hom-Jacobi
    condition is vacuous and every dimension-2 algebra is Hom-Lie unconditionally.
    """
    if a.dim < 3:
        raise UnsupportedDimError("Hom-Jacobi matrix needs dimension >= 3")
    return ExactMatrix._of(list(_HL_rows(a)), a.dim * a.dim, a._ints[1] ** 2)


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


def _reduce(a: SkewAlgebra, rows: Callable, packed: Callable, least=4) -> _Basis | None:
    """None if n >= least and ``_full_rank_mod_p`` proves full rank on ``packed(a)``, else
    ``_eliminate`` of ``rows(a)``: one operator, its rows read until full rank or their end."""
    n = a.dim
    if n >= least and _full_rank_mod_p(packed(a), n * n):
        return None
    return _eliminate(rows(a), n * n)


def derivation_space(a: SkewAlgebra) -> DerivationSpace:
    """Kernel of the derivation matrix, reshaped to endomorphisms."""
    b = _reduce(a, _M_rows, _M_packed)
    vecs, q = ([], 1) if b is None else b.kernel_ints()
    return DerivationSpace(len(vecs), (a.dim, vecs, q))


def aut_dimension(a: SkewAlgebra) -> int:
    """Dimension of the automorphism group (equals the derivation dimension)."""
    return a.dim * a.dim - orbit_dimension(a)


def orbit_dimension(a: SkewAlgebra) -> int:
    """Dimension of the isomorphism orbit: rank of the derivation matrix."""
    b = _reduce(a, _M_rows, _M_packed)
    return a.dim ** 2 if b is None else b.rank


def homlie_space(a: SkewAlgebra) -> HomLieSpace:
    """All endomorphisms satisfying the Hom-Jacobi identity with the product.

    For n = 2 the condition is vacuous: the operator has no rows, so the
    space is all of gl(2), listed as the four unit endomorphisms in
    flattening order.
    """
    n = a.dim
    b = _reduce(a, _HL_rows, _HL_packed, least=5)  # n = 4 reads the determinant
    vecs, q = ([], 1) if b is None else b.kernel_ints()
    # square HL: b.det is det(den^2 HL)
    det = Fraction(b.det, a._ints[1] ** 32) if n == 4 else None
    return HomLieSpace(len(vecs), det, (n, vecs, q))


def is_homlie(a: SkewAlgebra) -> bool:
    """True iff some nonzero endomorphism satisfies the Hom-Jacobi identity.

    The zero map always satisfies it vacuously, so the test is that the
    solution space has dimension at least 1: HL has rank below n^2 (for n = 2 it
    has no rows).
    """
    b = _reduce(a, _HL_rows, _HL_packed)
    return b is not None and b.rank < a.dim ** 2


def hom_check(a: SkewAlgebra, f: Endo) -> bool:
    """Direct evaluation of the Hom-Jacobi identity on all basis triples.

    Independent of the matrix route: useful as an oracle against it.
    """
    _check_endo(a, f)
    n = a.dim
    return not any(any(hom_jacobi_defect(a, f, *(basis_vec(n, i) for i in ijk)))
                   for ijk in itertools.combinations(range(1, n + 1), 3))
