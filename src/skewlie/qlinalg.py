"""Exact rational linear algebra: dense matrices over ``fractions.Fraction``.

Scalars are always reduced fractions with positive denominator, which is
exactly what ``Fraction`` guarantees; no floating point enters anywhere.
One integer routine does all row reduction: fraction-free (Bareiss)
Gauss-Jordan on a copy whose rows are rescaled to integers. The unique RREF
(and with it rank, kernels and inverses) and the determinant are read off it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonSquareError, SingularMapError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the external textual form: ``p/q`` (q > 0) or a bare integer ``p``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical textual form: ``p/q`` with q > 0 and gcd(p, q) = 1, or ``p``."""
    return str(value)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class ExactMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable], *, cols: int | None = None):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in entries)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> ExactMatrix:
        zero = Fraction(0)
        return cls([[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> ExactMatrix:
        cols = [tuple(_as_fraction(x) for x in c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        return cls(zip(*cols))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def row_list(self) -> list[list[Fraction]]:
        """Mutable copy of the entries, row major."""
        return [list(r) for r in self._rows]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(zip(*self._rows), cols=self.rows) if self.rows else \
            ExactMatrix([[Fraction(0)] * 0 for _ in range(self.cols)], cols=0)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise NonSquareError(f"trace of a {self.rows}x{self.cols} matrix")
        return sum((self._rows[i][i] for i in range(self.rows)), Fraction(0))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        v = [_as_fraction(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.cols} columns")
        return tuple(sum((r[j] * v[j] for j in range(self.cols)), Fraction(0))
                     for r in self._rows)

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [other.column(j) for j in range(other.cols)]
        return ExactMatrix(
            [[sum((r[k] * c[k] for k in range(self.cols)), Fraction(0)) for c in cols]
             for r in self._rows],
            cols=other.cols)

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix([[a + b for a, b in zip(r, s)]
                            for r, s in zip(self._rows, other._rows)], cols=self.cols)

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix([[a - b for a, b in zip(r, s)]
                            for r, s in zip(self._rows, other._rows)], cols=self.cols)

    def scale(self, factor) -> ExactMatrix:
        f = _as_fraction(factor)
        return ExactMatrix([[f * x for x in r] for r in self._rows], cols=self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.cols, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class EchelonResult:
    """Unique reduced row-echelon form together with rank and pivot columns."""

    reduced: ExactMatrix
    rank: int
    pivot_columns: tuple[int, ...]

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """Canonical kernel basis read off the RREF.

        One basis vector per free column, in increasing column order, with the
        free variable set to 1 and pivot variables solved from the reduced rows.
        """
        cols = self.reduced.cols
        pivot_set = set(self.pivot_columns)
        basis = []
        for free in range(cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * cols
            v[free] = Fraction(1)
            for r, pc in enumerate(self.pivot_columns):
                v[pc] = -self.reduced[r, free]
            basis.append(tuple(v))
        return basis


def _fraction_free(m: ExactMatrix) -> tuple[list[list[int]], list[int], int, int, int]:
    """Fraction-free Gauss-Jordan on rows rescaled by their denominator lcm.

    For the pivot p at (r, c) every other row i becomes
    (p*a[i] - a[i][c]*a[r]) // prev, prev being the previous pivot; the
    division is exact by the Bareiss identity. At the end every pivot entry
    equals the last pivot d. Returns (rows, pivot columns, d, sign of the row
    swaps, product of the row multipliers).
    """
    a: list[list[int]] = []
    scale = 1
    for row in m._rows:
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        a.append([x.numerator * (mult // x.denominator) for x in row])
    nrows = len(a)
    pivots: list[int] = []
    sign = prev = 1
    r = 0
    for c in range(m.cols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[c]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
    return a, pivots, prev, sign, scale


def echelonize(m: ExactMatrix) -> EchelonResult:
    """Unique RREF, rank and pivot columns: the rank rows of the integer
    elimination divided by the last pivot, padded with zero rows."""
    a, pivots, d, _, _ = _fraction_free(m)
    rank, cols = len(pivots), m.cols
    zero = Fraction(0)
    reduced = [[Fraction(x, d) if x else zero for x in row] for row in a[:rank]]
    reduced.extend([zero] * cols for _ in range(m.rows - rank))
    return EchelonResult(ExactMatrix(reduced, cols=cols), rank, tuple(pivots))


def rank(m: ExactMatrix) -> int:
    return echelonize(m).rank


def kernel_basis(m: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical kernel basis of ``m``; see ``EchelonResult.kernel``."""
    return echelonize(m).kernel()


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant off the integer elimination: zero below full rank,
    else sign * d divided by the product of the row multipliers."""
    if not m.is_square:
        raise NonSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    _, pivots, d, sign, scale = _fraction_free(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, scale)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan on the augmented matrix."""
    if not m.is_square:
        raise NonSquareError(f"inverse of a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ech = echelonize(ExactMatrix(aug, cols=2 * n))
    if ech.pivot_columns[:n] != tuple(range(n)):
        raise SingularMapError("matrix is not invertible")
    red = ech.reduced
    return ExactMatrix([[red[i, n + j] for j in range(n)] for i in range(n)])
