"""Exact rational linear algebra: dense matrices held as integer rows over one
denominator, read as ``fractions.Fraction`` at the public boundary.

No floating point enters. One integer routine, ``_eliminate``, does all exact row
reduction: fraction-free (Bareiss) Gauss-Jordan that adds integer rows one at a time, each
divided by its content, to a basis kept in RREF and stops at full column rank. It returns
that integer basis only (``_Basis``), whose kernel ``kernel_ints`` reads as integer vectors
over d and whose det is that of the rows as given, so no caller undoes a row scaling.
``_det`` computes every determinant, the dim-4 HL's too (a nonzero one proves full rank): Bareiss
on rows packed one per int, in slots Hadamard's bound keeps from overflowing. Past ``_WIDE`` bits
(packed 16 x 16 rows ran 1.9x ``_eliminate``'s speed at 154 bits, 0.77x at 538) it runs that.
``_full_rank_mod_p`` reduces forward mod a prime, on rows ``_pack``ed one residue per slot: its
True proves full column rank over Q with no exact reduction, its False nothing. ``ExactMatrix``
holds ``_ints = (rows, den)`` in lowest terms with den > 0: its constructor coerces entries for
``_of``, the one way in for integer rows and the one place that sets the slots. ``rank``,
``determinant`` and ``inverse`` reduce those rows directly; ``echelonize`` wraps the RREF.
Text holds numbers as integer pairs: ``_parse_ratio`` reads a literal as (p, q), ``_format_ratio``
writes p / q in lowest terms; ``parse_rational`` and ``format_rational`` are their Fraction forms.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import NonSquareError, SingularMapError

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")  # ASCII digits only
# the Mersenne prime's exponent, bits per slot. ``_full_rank_mod_p`` gets slots of at most
_FOLD, _SLOT = 13, 32  # n (p - 1)^2 (HL); they stay below (n + n^2 - 1) (p - 1)^2 < 2^32, n <= 6
_P, _CODE = (1 << _FOLD) - 1, "BHIQ"[_SLOT.bit_length() - 4]  # struct's code for 8 to 64 bits
_WIDE = 256  # ``_det``'s widest slot in bits: wider, ``_eliminate`` is faster


def _parse_ratio(text: str) -> tuple[int, int]:
    """The external textual form ``p/q`` (q > 0) or ``p`` as integers (p, q), unreduced."""
    text = text.strip()
    if not (m := _RATIONAL_RE.match(text)):
        raise ValueError(f"not a rational literal: {text!r}")
    p, q = int(m[1]), int(m[2] or 1)
    if not q:
        raise ValueError(f"zero denominator: {text!r}")
    return p, q


def parse_rational(text: str) -> Fraction:
    """Parse the external textual form: ``p/q`` (q > 0) or a bare integer ``p``."""
    return Fraction(*_parse_ratio(text))


def _format_ratio(p: int, q: int) -> str:
    """Canonical textual form of p / q, q != 0: ``p/q`` with q > 0 and gcd(p, q) = 1, or ``p``."""
    if not p:
        return "0"
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    p, q = p // g, q // g
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:  # raised only past the interpreter's int-to-str digit limit
        raise ValueError(f"exact result too large to print: over {sys.get_int_max_str_digits()}"
                         f" digits, Python's int-to-str limit (PYTHONINTMAXSTRDIGITS)") from None


def format_rational(value: Fraction) -> str:
    """Canonical textual form: ``p/q`` with q > 0 and gcd(p, q) = 1, or ``p``."""
    value = _as_fraction(value)
    return _format_ratio(value.numerator, value.denominator)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def _check_index(*values) -> None:
    """An index or size (of a basis or a matrix) is an int, and no ``bool`` (which Python
    counts as one)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"an index or size must be an int, not {type(v).__name__}")


class ExactMatrix:
    """Immutable dense matrix of exact rationals, held as ``_ints = (rows, den)``:
    integer rows over den > 0, the lcm of the entries' reduced denominators. That
    form is canonical, so equality and hashing compare it; entries read as ``Fraction``."""

    __slots__ = ("_ints", "rows", "cols")

    def __new__(cls, entries: Iterable[Iterable], *, cols: int | None = None) -> ExactMatrix:
        if cols is not None:
            _check_index(cols)
        rows = [[_as_fraction(x) for x in row] for row in entries]
        if rows:
            if cols is not None and len(rows[0]) != cols:
                raise ValueError(f"rows of length {len(rows[0])} against cols={cols}")
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None or cols < 0:
            raise ValueError(f"empty matrix needs an explicit column count >= 0, not {cols}")
        den = math.lcm(*(x.denominator for r in rows for x in r))
        return cls._of([[x.numerator * (den // x.denominator) for x in r] for r in rows], cols, den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):  # pickles and copies rebuild from _ints by _of
        return type(self)._of, (self._ints[0], self.cols, self._ints[1])

    @classmethod
    def _of(cls, rows: Sequence[Sequence[int]], cols: int, den: int = 1) -> ExactMatrix:
        """The matrix rows / den for integer rows the package built and den != 0; one
        gcd takes them to the canonical ``_ints`` (the constructor coerces entries)."""
        g = math.gcd(den, *(x for r in rows for x in r)) * (-1 if den < 0 else 1)
        rows = tuple(map(tuple, rows if g == 1 else [[x // g for x in r] for r in rows]))
        m = object.__new__(cls)
        for name, value in zip(cls.__slots__, ((rows, den // g), len(rows), cols)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> ExactMatrix:
        _check_index(rows, cols)
        if rows < 0:  # a negative cols fails in the constructor
            raise ValueError(f"negative row count {rows}")
        return cls([[0] * cols] * rows, cols=cols)

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        _check_index(n)
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> ExactMatrix:
        if not columns:
            raise ValueError("need at least one column")
        return cls(zip(*columns, strict=True))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        rows, den = self._ints
        return Fraction(rows[i][j], den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        rows, den = self._ints
        return tuple(Fraction(x, den) for x in rows[i])

    def column(self, j: int) -> tuple[Fraction, ...]:
        rows, den = self._ints
        return tuple(Fraction(r[j], den) for r in rows)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        v, k = _rescale([_as_fraction(x) for x in vec])
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.cols} columns")
        rows, den = self._ints
        return tuple(Fraction(sum(x * y for x, y in zip(r, v)), den * k) for r in rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self.cols == other.cols and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self.cols, self._ints))

    def __repr__(self) -> str:
        rows, den = self._ints
        body = "; ".join(" ".join(_format_ratio(x, den) for x in r) for r in rows)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _check_matrix(m) -> None:
    if not isinstance(m, ExactMatrix):
        raise TypeError(f"expected an ExactMatrix, not {type(m).__name__}")


class EchelonResult(namedtuple("EchelonResult", "reduced rank pivot_columns determinant")):
    """Unique reduced row-echelon form (an ``ExactMatrix``), rank and pivot columns,
    plus the determinant of a square input (None for a non-square one)."""

    __slots__ = ()

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """Canonical kernel basis read off the RREF.

        One basis vector per free column, in increasing column order, with the
        free variable set to 1 and pivot variables solved from the reduced rows.
        """
        (rows, den), cols = self.reduced._ints, self.reduced.cols
        piv = dict(zip(self.pivot_columns, rows))
        return [tuple(Fraction(-piv[c][fc], den) if c in piv else Fraction(int(c == fc))
                      for c in range(cols)) for fc in range(cols) if fc not in piv]


class _Basis(namedtuple("_Basis", "rank pivots free rows d det")):
    """What ``_eliminate`` returns, integers only: rank, sorted pivots, free
    columns, d times the RREF rows over the free columns (in pivot order), d,
    and det (a square input's determinant, 0 below full column rank)."""

    __slots__ = ()

    def kernel_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(d times ``EchelonResult.kernel``'s basis, d), d may be negative: per free
        column f, d at f and minus the rows' entries in column f at their pivots."""
        vecs = []
        for f, fc in enumerate(self.free):
            vecs.append(v := [0] * (len(self.free) + self.rank))
            v[fc] = self.d
            for p, row in zip(self.pivots, self.rows):
                v[p] = -row[f]
        return tuple(map(tuple, vecs)), self.d

    def span_rows(self) -> list[list[int]]:
        """d times the nonzero RREF rows, as full integer rows: d at the pivot."""
        spans = []
        for pc, row in zip(self.pivots, self.rows):
            spans.append(v := [0] * (len(self.free) + self.rank))
            v[pc] = self.d
            for fc, x in zip(self.free, row):
                v[fc] = x
        return spans


def _rescale(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their denominator lcm k: (k * v, k)."""
    k = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (k // x.denominator) for x in v], k


def echelonize(m: ExactMatrix) -> EchelonResult:
    """``_eliminate`` the integer rows, and build the RREF (the basis rows over d, then
    zero rows) and a square matrix's det / den^n."""
    _check_matrix(m)
    (rows, den), cols = m._ints, m.cols
    b = _eliminate(rows, cols)
    reduced = ExactMatrix._of(b.span_rows() + [[0] * cols] * (m.rows - b.rank), cols, b.d)
    det = Fraction(b.det, den ** m.rows) if m.is_square else None
    return EchelonResult(reduced, b.rank, tuple(b.pivots), det)


def _eliminate(a: Iterable[Sequence[int]], cols: int) -> _Basis:
    """Fraction-free Gauss-Jordan, row by row, on integer rows. Each row x is divided by
    its content (the gcd of its entries; an all-zero row is skipped) as it is read,
    which keeps the minors small when rows share a wide factor such as a common denominator.
    The basis is d times the RREF of the rows read so far, over the columns not
    yet pivots. Row x reduces there to y = d*x - sum_k x[p_k]*B_k (B_k has pivot
    p_k; entries of y are minors, so nothing is divided); y == 0 is in the span.
    Else y's first nonzero column c is a pivot, e = y[c]: c leaves every row, each
    basis row b becomes (e*b - b[c]*y) // d, exact by Sylvester's identity, y joins
    and d = e. Once no column is free, the later rows are in the span: the loop
    stops before it takes one, so a lazy iterable builds none of them. RREF row k
    is 1 at its pivot and x / d at each free column. det is sign * d times the
    product of the contents at full column rank (sign the parity of the order in
    which the pivots came; no rows swap), else 0: for square rows, the
    determinant of the rows as given. Rank, pivots and RREF ignore row factors.
    """
    free = list(range(cols))
    pivots: list[int] = []
    basis: list[list[int]] = []
    d, flips, contents = 1, 0, 1
    for x in filter(any, a):
        if (g := math.gcd(*x)) > 1:
            x = [v // g for v in x]
            contents *= g
        y = [d * x[c] for c in free] if pivots else list(x)
        for p, b in zip(pivots, basis):
            if g := x[p]:
                y = [u - g * v for u, v in zip(y, b)]
        for pos, e in enumerate(y):
            if e:
                break
        else:
            continue
        del y[pos]
        for i, b in enumerate(basis):
            f = b.pop(pos)
            basis[i] = ([(e * u - f * v) // d for u, v in zip(b, y)] if f
                        else [e * u // d for u in b])
        basis.append(y)
        flips += pos  # r - c + pos earlier pivots exceed c; at full rank r and c cancel
        pivots.append(free.pop(pos))
        d = e
        if not free:
            break
    det = 0 if free else (-d if flips % 2 else d) * contents
    rows = [row for _, row in sorted(zip(pivots, basis))]
    return _Basis(len(pivots), sorted(pivots), free, rows, d, det)


def _det(rows: Sequence[Sequence[int]], n: int) -> int:
    """The determinant of n integer rows of length n, as given: Bareiss by columns on rows x packed
    x[c] at bit w c, w = sum(bits of |x|^2) // 2 + 3, so each entry, a minor, is below 2^(w-2)
    (Hadamard) and the lowest slot reads exactly; (e r - f p) // d >> w is exact: slot 0 cancels."""
    bits = 0  # of the squared row norms, read until the width would pass _WIDE
    for x in rows:
        if (bits := bits + sum([v * v for v in x]).bit_length()) // 2 + 3 > _WIDE:
            return _eliminate(rows, n).det
    half, mask, d, sign, rs = 1 << (w := bits // 2 + 3) - 1, (1 << w) - 1, 1, 1, []
    for x in rows:
        r = 0
        for v in reversed(x):
            r = (r << w) + v
        rs.append(r)
    for _ in range(n):
        for i, p in enumerate(rs):
            if e := ((p + half) & mask) - half:
                break
            sign = -sign  # the pivot row moves up past this one
        else:
            return 0
        del rs[i]
        rs, d = [(e * r - (((r + half) & mask) - half) * p) // d >> w for r in rs], e
    return sign * d


def _pack(x: Sequence[int]) -> int:
    """The integers x mod p as a packed row: x[c]'s residue in [0, p) at bit _SLOT c."""
    return int.from_bytes(struct.pack(f"<{len(x)}{_CODE}", *[v % _P for v in x]), "little")


def _full_rank_mod_p(rows: Iterable[int], cols: int) -> bool:
    """True proves the integer rows have rank cols over Q: a minor nonzero mod p = _P is a
    nonzero integer. False proves nothing; it comes once the rows run out short of cols pivots.
    Rows come packed (``_pack``, or any representatives mod p in the slots). The basis rows, in
    arrival order as (_SLOT c, -1/e, row) with e a row's slot at its pivot c, have slots in [0, p)
    and are zero at earlier pivots. A new row adds w * B per basis row B, w from its slot at B's
    pivot; two folds v -> (v mod 2^_FOLD) + (v >> _FOLD) take any slot (< 2^_SLOT) to [0, 2p], and
    one step subtracts p from any >= p. A slot given below S stays below S + cols (p - 1)^2."""
    ones = (1 << _SLOT * cols) // (mask := (1 << _SLOT) - 1)  # 1 in every slot
    lo, hi, basis = ones * _P, ones * (mask >> _FOLD), []
    for r in rows:
        if r:  # an all-zero row is zero mod p as it stands
            for s, m, b in basis:
                if w := (r >> s & mask) * m % _P:
                    r += w * b
            r = (r & lo) + (r >> _FOLD & hi)
            r = (r & lo) + (r >> _FOLD & hi)
            r -= ((r + ones) >> _FOLD & ones) * _P
        if r:
            s = (r & -r).bit_length() - 1 & -_SLOT  # _SLOT c for the lowest nonzero slot c
            basis.append((s, -pow(r >> s & mask, -1, _P) % _P, r))
            if len(basis) == cols:
                return True
    return False


def rank(m: ExactMatrix) -> int:
    _check_matrix(m)
    return _eliminate(m._ints[0], m.cols).rank


def kernel_basis(m: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical kernel basis of ``m``; see ``EchelonResult.kernel``."""
    return echelonize(m).kernel()


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant: that of the integer rows, over den^n."""
    _check_matrix(m)
    if not m.is_square:
        raise NonSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    return Fraction(_det(m._ints[0], m.cols), m._ints[1] ** m.rows)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse: one ``_eliminate`` of the integer rows [R | den I] of m = R / den.
    It has pivots 0..n-1 iff m is invertible, and its basis is then d m^-1 over d."""
    _check_matrix(m)
    if not m.is_square:
        raise NonSquareError(f"inverse of a {m.rows}x{m.cols} matrix")
    (rows, den), n = m._ints, m.rows
    b = _eliminate([[*r, *(den * (i == j) for j in range(n))] for i, r in enumerate(rows)], 2 * n)
    if b.pivots != list(range(n)):
        raise SingularMapError("matrix is not invertible")
    return ExactMatrix._of(b.rows, n, b.d)
