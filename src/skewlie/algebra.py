"""Skew-symmetric algebras with exact rational structure constants.

An algebra of dimension n is given by the coefficient vectors of the basis products e_i * e_j
for i < j and stores them once, as one integer tensor t over a common denominator den, built by
``_of`` from integer rows; ``product`` is a ``Fraction`` view. Basis indices are 1-based at the
public boundary and 0-based inside (index p is position p in t), where basis pairs and triples
come from ``itertools.combinations(range(n), k)`` in lexicographic order. One integer kernel,
``_mul``, serves ``multiply``, ``transport``, ``subspace_product`` and the series. What several
readers derive from t (its flat rows, A·A, the operators' blocks) is a per-algebra table, built
by ``_table`` on first read. All of it is pure and exact; ``jacobiator`` keeps the independent
route through ``multiply``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, SingularMapError, UnsupportedDimError
from .qlinalg import (ExactMatrix, _as_fraction, _Basis, _check_index, _check_matrix, _eliminate,
                      _rescale, determinant)

Vec = tuple[Fraction, ...]
Endo = ExactMatrix

MIN_DIM = 2
MAX_DIM = 6


def as_vec(coords: Sequence) -> Vec:
    return tuple(_as_fraction(x) for x in coords)


def basis_vec(n: int, i: int) -> Vec:
    """Standard basis vector e_i for 1-based i in 1..n."""
    _check_index(n, i)
    if not 1 <= i <= n:
        raise IndexError(f"basis index {i} outside 1..{n}")
    return tuple(Fraction(int(k == i - 1)) for k in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


class SkewAlgebra:
    """A skew-symmetric algebra given by structure constants on pairs i < j.

    Every algebra is built by ``_of`` as ``_ints = (t, den)``: den is the lcm of the reduced
    denominators, t[i][j] = den * (e_{i+1} e_{j+1}) and t[j][i] = -t[i][j]. That form is
    canonical: equality, hashing, pickles and copies read it, never the ``_table``s.
    """

    __slots__ = ("dim", "_ints", "_tables")

    def __new__(cls, dim: int, products: Mapping[tuple[int, int], Sequence] | None = None):
        _check_index(dim)
        given = {}
        for (i, j), coeffs in (products or {}).items():
            _check_index(i, j)
            if not (1 <= i < j <= dim):
                raise ValueError(f"pair ({i},{j}) must satisfy 1 <= i < j <= {dim}")
            vec = as_vec(coeffs)
            if len(vec) != dim:
                raise ValueError(f"product ({i},{j}) has {len(vec)} coefficients, "
                                 f"expected {dim}")
            given[i - 1, j - 1] = vec
        den = math.lcm(*(x.denominator for vec in given.values() for x in vec))
        return cls._of(dim, {ij: [x.numerator * (den // x.denominator) for x in vec]
                             for ij, vec in given.items()}, den)

    @classmethod
    def _of(cls, dim: int, upper: Mapping[tuple[int, int], Sequence[int]], den: int) -> SkewAlgebra:
        """The algebra with e_{i+1} e_{j+1} = upper[i, j] / den for valid 0-based pairs
        i < j and den > 0; one gcd divides the fill down to the canonical ``_ints``."""
        if not MIN_DIM <= dim <= MAX_DIM:
            raise UnsupportedDimError(f"dimension {dim} outside supported range "
                                      f"{MIN_DIM}..{MAX_DIM}")
        g = math.gcd(den, *itertools.chain.from_iterable(upper.values()))
        t = [[(0,) * dim] * dim for _ in range(dim)]
        for (i, j), v in upper.items():
            t[i][j] = v = tuple(v) if g == 1 else tuple([x // g for x in v])
            t[j][i] = tuple([-x for x in v])
        a = object.__new__(cls)
        for name, value in zip(cls.__slots__, (dim, (tuple(map(tuple, t)), den // g), {})):
            object.__setattr__(a, name, value)
        return a

    def __setattr__(self, name, value):
        raise AttributeError("SkewAlgebra is immutable")

    def __reduce__(self):
        (t, den), pairs = self._ints, itertools.combinations(range(self.dim), 2)
        return type(self)._of, (self.dim, {(i, j): t[i][j] for i, j in pairs}, den)

    @property
    def products(self) -> dict[tuple[int, int], Vec]:
        """Nonzero product vectors, keyed by 1-based pairs i < j in lexicographic order."""
        t = self._ints[0]
        return {(i + 1, j + 1): self.product(i + 1, j + 1)
                for i, j in itertools.combinations(range(self.dim), 2) if any(t[i][j])}

    def product(self, i: int, j: int) -> Vec:
        """Coefficient vector of e_i * e_j for 1-based i, j in 1..dim."""
        _check_index(i, j)
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"basis indices ({i},{j}) outside 1..{self.dim}")
        t, den = self._ints
        return tuple(Fraction(x, den) for x in t[i - 1][j - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewAlgebra) and self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __repr__(self) -> str:
        terms = ", ".join(f"e{i}e{j}->({', '.join(map(str, v))})"
                          for (i, j), v in self.products.items())
        return f"SkewAlgebra(dim={self.dim}, {terms or 'abelian'})"


def abelian(dim: int) -> SkewAlgebra:
    return SkewAlgebra(dim, {})


def heisenberg() -> SkewAlgebra:
    """The 3-dimensional algebra with e1*e2 = e3 and all other products zero."""
    return SkewAlgebra(3, {(1, 2): (0, 0, 1)})


def algebra3(a1, b1, g1, a2, b2, g2, a3, b3, g3) -> SkewAlgebra:
    """Dimension-3 algebra from the nine structure constants.

    Row k of the argument list gives e1*e2, e1*e3, e2*e3 in that order, each
    as (coefficient of e1, of e2, of e3).
    """
    return SkewAlgebra(3, {(1, 2): (a1, b1, g1),
                           (1, 3): (a2, b2, g2),
                           (2, 3): (a3, b3, g3)})


def filiform5(a, b, c, d) -> SkewAlgebra:
    """The 5-dimensional filiform family: e1*e_i = e_{i+1} for i = 2, 3, 4,
    plus e2*e3 = a e4 + b e5, e2*e4 = c e5, e3*e4 = d e5."""
    return SkewAlgebra(5, {
        (1, 2): (0, 0, 1, 0, 0),
        (1, 3): (0, 0, 0, 1, 0),
        (1, 4): (0, 0, 0, 0, 1),
        (2, 3): (0, 0, 0, a, b),
        (2, 4): (0, 0, 0, 0, c),
        (3, 4): (0, 0, 0, 0, d),
    })


def _check_vec(a: SkewAlgebra, v: Sequence) -> Vec:
    vec = as_vec(v)
    if len(vec) != a.dim:
        raise DimensionMismatchError(f"vector of length {len(vec)} in a "
                                     f"{a.dim}-dimensional algebra")
    return vec


def _check_endo(a: SkewAlgebra, f: Endo) -> None:
    _check_matrix(f)
    if not (f.is_square and f.rows == a.dim):
        raise DimensionMismatchError(f"{f.rows}x{f.cols} endomorphism on a "
                                     f"dim-{a.dim} algebra")


def _table(a: SkewAlgebra, build: Callable[[SkewAlgebra], object]):
    """``build(a)``, made from ``a._ints`` on the first read, then held in ``a._tables``."""
    if (value := a._tables.get(build)) is None:
        value = a._tables[build] = build(a)
    return value


def _flat(a: SkewAlgebra) -> list[list[int]]:
    """Table: the rows of t flattened, (e_s e_l)_m at l*n + m of row s."""
    return [[*itertools.chain(*row)] for row in a._ints[0]]


def _exact_blocks(a: SkewAlgebra) -> dict[tuple[int, int], list[int]]:
    """Table: dp[p, q][l*n + m] = den^2 ((e_p e_q) e_l)_m for p != q, the flat rows of t
    weighted by t[p][q] once per pair p < q; the reversed pair negates it."""
    t, flat, pairs = a._ints[0], _table(a, _flat), itertools.combinations(range(a.dim), 2)
    dp = {(p, q): _double_product(t[p][q], flat) for p, q in pairs}
    return dp | {(q, p): [-x for x in v] for (p, q), v in dp.items()}


def _mul(t, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """den * (x*y) for integer vectors x, y: the sum over pairs r < s of
    (x_r y_s - x_s y_r) t[r][s], skipping zeros."""
    out = [0] * len(t)
    for r, s in itertools.combinations(range(len(t)), 2):
        if c := x[r] * y[s] - x[s] * y[r]:
            for k, v in enumerate(t[r][s]):
                if v:
                    out[k] += c * v
    return out


def multiply(a: SkewAlgebra, x: Sequence, y: Sequence) -> Vec:
    """Bilinear skew-symmetric product of two vectors: ``_mul`` on their integer rescalings."""
    (x, dx), (y, dy) = _rescale(_check_vec(a, x)), _rescale(_check_vec(a, y))
    q = a._ints[1] * dx * dy
    return tuple(Fraction(v, q) for v in _mul(a._ints[0], x, y))


def jacobiator(a: SkewAlgebra, x: Sequence, y: Sequence, z: Sequence) -> Vec:
    """(xy)z + (yz)x + (zx)y; vanishes identically iff the algebra is Lie."""
    x, y, z = _check_vec(a, x), _check_vec(a, y), _check_vec(a, z)
    return vadd(vadd(multiply(a, multiply(a, x, y), z),
                     multiply(a, multiply(a, y, z), x)),
                multiply(a, multiply(a, z, x), y))


def _double_product(c: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """The sum over s of c[s] rows[s], zero weights skipped: the one double-product
    contraction. With c = t[p][q] and rows[s] = t[s][l] it is den^2 (e_p e_q) e_l; with
    rows[s] = t[s] read row by row, the block ((e_p e_q) e_l)_m at l*n + m, all l at once."""
    out = None
    for x, row in zip(c, rows):
        if x:
            out = [x * v for v in row] if out is None else [u + x * v for u, v in zip(out, row)]
    return [0] * len(rows[0]) if out is None else out


def is_lie(a: SkewAlgebra) -> bool:
    """True iff the Jacobiator vanishes on all basis triples i < j < k; the
    integer table scales it by den^2, which leaves the zero test alone. Its three
    double products at (i, j, k) are one contraction: the weights t[i][j], t[j][k],
    t[k][i] against the rows t[s][k], t[s][i], t[s][j]."""
    t = a._ints[0]
    return all(not any(_double_product(t[i][j] + t[j][k] + t[k][i],
                                       [row[l] for l in (k, i, j) for row in t]))
               for i, j, k in itertools.combinations(range(a.dim), 3))


def left_mult(a: SkewAlgebra, x: Sequence) -> Endo:
    """The endomorphism y -> x*y; column j is the product x * e_j."""
    x = _check_vec(a, x)
    n = a.dim
    return ExactMatrix.from_columns(
        [multiply(a, x, basis_vec(n, j)) for j in range(1, n + 1)])


def killing_matrix(a: SkewAlgebra) -> ExactMatrix:
    """Symmetric matrix with entry (i, j) = trace(L_{e_i} L_{e_j}) = sum over k, l of
    c_il^k c_jk^l for e_i e_l = sum_k c_il^k e_k, over den^2: flat row i (c_il^k at l*n + k)
    against the transpose of t[j] (c_jk^l there), on and above the diagonal."""
    (t, den), n, flat = a._ints, a.dim, _table(a, _flat)
    rows, cols = [[0] * n for _ in range(n)], [[*itertools.chain(*zip(*c))] for c in t]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        rows[i][j] = rows[j][i] = sum(map(mul, flat[i], cols[j]))
    return ExactMatrix._of(rows, n, den * den)


def killing_determinant(a: SkewAlgebra) -> Fraction:
    """det of the Killing matrix."""
    return determinant(killing_matrix(a))


def transport(a: SkewAlgebra, p: Endo) -> SkewAlgebra:
    """The algebra in the basis given by the columns of p.

    The new product is x, y -> p^{-1} (p(x) * p(y)); transport by the
    identity is the identity, and transports compose contravariantly. With p's
    integer columns X_i over its den dx and u_ij = ``_mul`` of X_i and X_j, one
    ``_eliminate`` of the rows [X | u_12 ... u_(n-1)n] has pivots 0..n-1 iff p is
    invertible, and its basis over the u columns is d X^{-1} u_ij. So c'_ij =
    X^{-1} u_ij / (den dx) is that basis over den dx d, with the sign of d moved
    into the numerators (``_of`` takes a positive denominator).
    """
    _check_endo(a, p)
    (t, den), (x, dx), n = a._ints, p._ints, a.dim
    cols, pairs = list(zip(*x)), list(itertools.combinations(range(n), 2))
    us = [_mul(t, cols[i], cols[j]) for i, j in pairs]
    b = _eliminate(list(zip(*cols, *us)), n + len(us))
    if b.pivots != list(range(n)):
        raise SingularMapError("basis-change matrix is singular")
    s = -1 if b.d < 0 else 1
    return SkewAlgebra._of(n, {ij: [s * r[m] for r in b.rows] for m, ij in enumerate(pairs)},
                           den * dx * b.d * s)


class Subspace(namedtuple("Subspace", "basis dim")):
    """A subspace in canonical form: the ``basis`` rows (an ``ExactMatrix``) are the RREF
    of any spanning set. ``_make``, and so ``_replace``, checks as the constructor does."""

    __slots__ = ()

    def __new__(cls, basis: ExactMatrix, dim: int) -> Subspace:
        _check_index(dim)
        if dim != basis.rows:
            raise ValueError(f"dim {dim} against a basis of {basis.rows} rows")
        # RREF: each row leads with a 1, right of the row above's, alone in its column
        rows, den = basis._ints
        pivots = [next((c for c, x in enumerate(r) if x), None) for r in rows]
        if None in pivots or pivots != sorted(set(pivots)) or any(
                r[p] != den * (i == k) for i, p in enumerate(pivots) for k, r in enumerate(rows)):
            raise ValueError("basis is not the RREF of its own rows")
        return super().__new__(cls, basis, dim)

    _make = classmethod(lambda cls, fields: cls(*fields))


def span(vectors: Iterable[Sequence], *, dim: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    ``dim`` fixes the ambient dimension (required for an empty list, checked otherwise).
    """
    vecs = [as_vec(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("empty span needs an explicit ambient dimension")
        dim = len(vecs[0])
    _check_index(dim)
    if any(len(v) != dim for v in vecs):
        raise DimensionMismatchError(f"spanning vectors must all have length {dim}")
    if dim < 0:  # reached only with no vectors
        raise ValueError(f"negative ambient dimension {dim}")
    return _subspace(_eliminate([_rescale(v)[0] for v in vecs], dim))


def _subspace(b: _Basis) -> Subspace:
    """The subspace spanned by a reduction's rows: the nonzero rows of its RREF."""
    return Subspace(ExactMatrix._of(b.span_rows(), b.rank + len(b.free), b.d), b.rank)


def subspace_product(a: SkewAlgebra, u: Subspace, w: Subspace) -> Subspace:
    """span{ x*y : x a basis vector of u, y a basis vector of w }: ``_mul`` of the
    bases' integer rows, whose common factors the span ignores."""
    if u.basis.cols != a.dim or w.basis.cols != a.dim:
        raise DimensionMismatchError("subspace from a different ambient space")
    t = a._ints[0]
    xs, ys = u.basis._ints[0], w.basis._ints[0]
    return _subspace(_eliminate([_mul(t, x, y) for x in xs for y in ys], a.dim))


def _derived_algebra(a: SkewAlgebra) -> _Basis:
    """Table: A·A, the span of t's upper-half integer rows, which ignores their factor den."""
    t = a._ints[0]
    return _eliminate([t[i][j] for i, j in itertools.combinations(range(a.dim), 2)], a.dim)


class SeriesReport(namedtuple("SeriesReport", "kind dims")):
    """The ``dims`` along a descending series of ``kind`` "central" or "derived";
    they end at 0 or at the first repeat."""

    __slots__ = ()


def _series(a: SkewAlgebra) -> tuple[SeriesReport, SeriesReport]:
    """The central and the derived series from one A·A: term k+1 is spanned by ``_mul``
    of term k's integer spanning rows with the unit vectors, resp. of its pairs i < j
    of rows (x x = 0 and y x = -x y, so these span term k times itself)."""
    t, n = a._ints[0], a.dim
    first = _table(a, _derived_algebra)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for kind, pairs in (("central", lambda xs: itertools.product(xs, units)),
                        ("derived", lambda xs: itertools.combinations(xs, 2))):
        term, dims = first, [n, first.rank]
        # the terms descend (A^{k+1} ⊆ A^k), so an equal dimension means an equal term
        while 0 < dims[-1] < dims[-2]:
            term = _eliminate([_mul(t, x, y) for x, y in pairs(term.span_rows())], n)
            dims.append(term.rank)
        out.append(SeriesReport(kind, tuple(dims)))
    return out[0], out[1]


def central_series(a: SkewAlgebra) -> SeriesReport:
    """Descending central series: each term is (previous term) * (whole algebra)."""
    return _series(a)[0]


def derived_series(a: SkewAlgebra) -> SeriesReport:
    """Derived series: each term is (previous term) * (previous term)."""
    return _series(a)[1]


def is_nilpotent(a: SkewAlgebra) -> bool:
    return central_series(a).dims[-1] == 0


def is_solvable(a: SkewAlgebra) -> bool:
    return derived_series(a).dims[-1] == 0
