"""Complete classification of 3-dimensional skew-symmetric algebras.

Every algebra lands in exactly one family, decided by the dimensions of the
derived subalgebra chain: abelian, Heisenberg (nilpotent), the two solvable
Lie shapes, the solvable non-Lie family (with the e2*e3 coefficient scaled
to 1), or the first non-solvable family; the second (``NS2``) is a normal form
that no algebra needs. The returned witness is an
invertible matrix whose columns are the adapted basis; transporting the
input by it reproduces the normal form with the reported parameters exactly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Endo, SkewAlgebra, Vec, _derived_algebra, _exact_blocks, _flat, _mul,
                      _table, is_lie, transport)
from .errors import InvariantError, RegularPairNotFoundError, UnsupportedDimError
from .qlinalg import ExactMatrix, _Basis, _check_index, _eliminate

ABELIAN = "Abelian"
HEISENBERG = "HeisenbergNilpotent"
SOLVABLE_LIE_LINE = "SolvableLieLine"
SOLVABLE_LIE_PLANE = "SolvableLiePlane"
SOLVABLE_NON_LIE = "SolvableNonLie"
NS1 = "NonSolvableNS1"
NS2 = "NonSolvableNS2"

TAGS = (ABELIAN, HEISENBERG, SOLVABLE_LIE_LINE, SOLVABLE_LIE_PLANE,
        SOLVABLE_NON_LIE, NS1, NS2)

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the standard basis, as integer vectors


@dataclass(frozen=True)
class ClassificationResult:
    """Family tag, exact normal-form parameters, and the basis-change witness."""

    tag: str
    params: dict[str, Fraction]
    witness: Endo
    lie: bool


def sol_family(b1, g1, b2, g2) -> SkewAlgebra:
    """Normal form of the solvable non-Lie family: e1*e2 = b1 e2 + g1 e3,
    e1*e3 = b2 e2 + g2 e3, e2*e3 = e3 (nondegenerate when b1 or b2 is nonzero)."""
    return SkewAlgebra(3, {(1, 2): (0, b1, g1), (1, 3): (0, b2, g2),
                           (2, 3): (0, 0, 1)})


def ns1_family(b2, g2, a3, b3, g3) -> SkewAlgebra:
    """First non-solvable normal form: e1*e2 = e3, e1*e3 = b2 e2 + g2 e3,
    e2*e3 = a3 e1 + b3 e2 + g3 e3 (requires a3*b2 != 0)."""
    return SkewAlgebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, b2, g2),
                           (2, 3): (a3, b3, g3)})


def ns2_family(a2, b2, g2, b3, g3) -> SkewAlgebra:
    """Second non-solvable normal form: e1*e2 = e3, e1*e3 = a2 e1 + b2 e2 + g2 e3,
    e2*e3 = b3 e2 + g3 e3 (requires a2*b3 != 0)."""
    return SkewAlgebra(3, {(1, 2): (0, 0, 1), (1, 3): (a2, b2, g2),
                           (2, 3): (0, b3, g3)})


@functools.cache
def _vectors_up_to(n: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Integer vectors of max-norm 1..height, heights ascending; within one height
    the first coordinate varies fastest through 0, 1, -1, 2, -2, ... (built once)."""
    if height == 0:
        return ()
    vals = sorted(range(-height, height + 1), key=lambda v: (abs(v), -v))  # 0, 1, -1, ...
    return _vectors_up_to(n, height - 1) + tuple(
        tup[::-1] for tup in itertools.product(vals, repeat=n) if max(map(abs, tup)) == height)


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _search_pairs(a: SkewAlgebra, want_ns1: bool,
                  max_height: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    # A pair passes iff P(x, y) != 0, P = det[x, y, xy] * det[y, xy, y(xy)] of
    # degree <= 4 in each coordinate of x and <= 6 in each of y (first factor
    # alone: <= 2). A nonzero P cannot vanish on a grid of 7 points per
    # coordinate (Alon, Combinatorial Nullstellensatz, 1999), so height 3
    # suffices and 4 leaves margin; heights ascend, so the bound changes no output.
    # With z = _mul(t, x, y) = den * xy each factor is an integer triple product
    # times a power of den, which leaves its zero test alone.
    t = a._ints[0]
    for bound in range(1, max_height + 1):
        vecs = _vectors_up_to(3, bound)
        low = len(_vectors_up_to(3, bound - 1))  # x or y must reach height bound
        for i, x in enumerate(vecs):
            for y in vecs[low if i < low else 0:]:
                z = _mul(t, x, y)
                if not _dot(x, _cross(y, z)):
                    continue
                if want_ns1 and not _dot(y, _cross(z, _mul(t, y, z))):
                    continue
                return x, y
    return None


def find_regular_pair(a: SkewAlgebra, max_height: int = 4) -> tuple[Vec, Vec]:
    """First pair (x, y) in the deterministic enumeration with x, y, x*y
    linearly independent.

    Exists for every non-solvable dimension-3 algebra and some solvable ones
    (Heisenberg: e1, e2), and then one of height 1 does; raises
    RegularPairNotFoundError once the height bound is exhausted.
    """
    _check_index(max_height)
    if a.dim != 3:
        raise UnsupportedDimError("regular-pair search is a dimension-3 operation")
    found = _search_pairs(a, want_ns1=False, max_height=max_height)
    if found is None:
        raise RegularPairNotFoundError(
            f"no regular pair up to height {max_height}; the algebra is solvable "
            f"or the bound is too small")
    return tuple(map(Fraction, found[0])), tuple(map(Fraction, found[1]))


def _annihilator(a: SkewAlgebra) -> tuple[list[list[int]], int]:
    """Basis of { r : r * x = 0 for all x } (two-sided, since the product is skew),
    as integer vectors over q: ``kernel_ints`` of its elimination."""
    # row j*n + m, column j*n + m of the flat rows, is t[i][j][m] over i (den is ignored)
    return _eliminate(zip(*_table(a, _flat)), a.dim).kernel_ints()


def _classify_dim1_derived(a: SkewAlgebra, line: _Basis) -> ClassificationResult:
    (t, den), wi = a._ints, line.span_rows()[0]  # d * w, w the line's RREF row
    ew = [_mul(t, e, wi) for e in _UNITS]  # den * d * e_i w
    if not any(map(any, ew)):
        # nilpotent: pick the first basis pair with a nonzero product, which
        # together with that product forms a basis
        i, j = next((i, j) for i, j in itertools.combinations(range(3), 2) if any(t[i][j]))
        witness = ExactMatrix.from_columns(
            [_UNITS[i], _UNITS[j], [Fraction(x, den) for x in t[i][j]]])
        return ClassificationResult(HEISENBERG, {}, witness, True)
    # not nilpotent: products span the line, e_lead w = lam w for the first lam != 0
    pivot = next(i for i, c in enumerate(wi) if c)
    lead = next(i for i, v in enumerate(ew) if v[pivot])
    f1 = [c * Fraction(den * wi[pivot], ew[lead][pivot]) for c in _UNITS[lead]]  # e_lead / lam
    vecs, q = _annihilator(a)
    witness = ExactMatrix.from_columns([f1, [Fraction(x, q) for x in vecs[0]],
                                        [Fraction(x, line.d) for x in wi]])
    return ClassificationResult(SOLVABLE_LIE_LINE, {}, witness, True)


def _params(den: int, **entries: int) -> dict[str, Fraction]:
    """The reported parameters x / den; the normal-form checks before them read the
    transported algebra's integer rows ``_ints``, not its ``Fraction`` view."""
    return {name: Fraction(x, den) for name, x in entries.items()}


def _classify_dim2_derived(a: SkewAlgebra, plane: _Basis) -> ClassificationResult:
    (t, den), (u, v) = a._ints, plane.span_rows()  # d times the plane's RREF rows
    w = _mul(t, u, v)  # spans the second derived term, the plane times itself
    line = any(w)  # that term is a line (SolvableNonLie) or 0 (SolvableLiePlane)
    if line:
        # f3 is w with first entry 1, f2 the first plane vector off that line,
        # scaled so that f2 * f3 = f3
        pivot = next(i for i, c in enumerate(w) if c)
        f3 = tuple(Fraction(c, w[pivot]) for c in w)
        r = next(r for r in (u, v) if any(_cross(w, r)))
        f2 = tuple(Fraction(c * den * w[pivot], _mul(t, r, w)[pivot]) for c in r)
    else:
        f2, f3 = ([Fraction(c, plane.d) for c in r] for r in (u, v))
    tag = SOLVABLE_NON_LIE if line else SOLVABLE_LIE_PLANE
    # the first e_i off the plane: det[e_i, f2, f3] = (f2 x f3)_i, a multiple of (u x v)_i
    i = next(i for i, c in enumerate(_cross(u, v)) if c)
    witness = ExactMatrix.from_columns([_UNITS[i], f2, f3])
    bt, d = transport(a, witness)._ints
    p12, p13, p23 = bt[0][1], bt[0][2], bt[1][2]
    if not (p12[0] == p13[0] == 0 and p23 == (0, 0, d if line else 0) and (p12[1] or p13[1])):
        raise InvariantError(f"{tag} witness misses the normal form")
    params = _params(d, beta1=p12[1], gamma1=p12[2], beta2=p13[1], gamma2=p13[2])
    return ClassificationResult(tag, params, witness, not line or is_lie(a))


def _classify_nonsolvable(a: SkewAlgebra) -> ClassificationResult:
    """The first non-solvable form, from the first pair with x, y, z := x*y and
    y, z, y*z independent. Such a pair of height <= 3 exists for every non-solvable
    algebra: both determinants are nonzero polynomials in x, y whenever A·A = A
    (Groebner certificate: ``scripts/ns1_certificate.py``) and the bound in
    ``_search_pairs`` applies. So the tag does not depend on the presenting basis,
    and the second form (``NS2``) is never the answer."""
    pair = _search_pairs(a, want_ns1=True, max_height=4)
    if pair is None:
        raise InvariantError("no NonSolvableNS1 pair up to height 4")
    (t, den), (x, y) = a._ints, pair
    z = _mul(t, x, y)  # den * xy
    # Row 0 of [x, y, xy]^-1 is (y x xy) / det, so the e1-components of e1*e3 and
    # e2*e3 in the basis x, y, xy have the integer ratio below (den cancels; its
    # denominator is det[y, xy, y(xy)] != 0), which the shear x - ratio * y absorbs
    row0 = _cross(y, z)
    ratio = Fraction(_dot(row0, _mul(t, x, z)), _dot(row0, _mul(t, y, z)))
    witness = ExactMatrix.from_columns(
        [[p - ratio * q for p, q in zip(x, y)], y, [Fraction(c, den) for c in z]])
    bt, d = transport(a, witness)._ints
    p12, p13, p23 = bt[0][1], bt[0][2], bt[1][2]
    if not (p12 == (0, 0, d) and p13[0] == 0 and p23[0] * p13[1] != 0):
        raise InvariantError("NonSolvableNS1 witness misses the normal form")
    params = _params(d, beta2=p13[1], gamma2=p13[2],
                     alpha3=p23[0], beta3=p23[1], gamma3=p23[2])
    return ClassificationResult(NS1, params, witness, is_lie(a))


def classify(a: SkewAlgebra) -> ClassificationResult:
    """Family tag, exact parameters, and invertible witness for a dim-3 algebra.

    Decision order: abelian, nilpotent, solvable with 1- resp. 2-dimensional
    derived subalgebra, non-solvable; each algebra receives exactly one tag.
    """
    if a.dim != 3:
        raise UnsupportedDimError("classification covers dimension 3 only")
    derived = _table(a, _derived_algebra)
    if derived.rank == 0:
        return ClassificationResult(ABELIAN, {}, ExactMatrix.identity(3), True)
    if derived.rank == 1:
        return _classify_dim1_derived(a, derived)
    if derived.rank == 2:
        return _classify_dim2_derived(a, derived)
    return _classify_nonsolvable(a)


@dataclass(frozen=True)
class LieTypeSolution:
    """Affine set of coefficient pairs (a, b) satisfying
    (e1 e2) e3 + a (e2 e3) e1 + b (e3 e1) e2 = 0.

    ``particular`` is None when no pair works at all; ``admissible`` is true
    iff some solution has a != 0.
    """

    particular: tuple[Fraction, Fraction] | None
    homogeneous: tuple[tuple[Fraction, Fraction], ...]
    admissible: bool


def _cyclic_ints(a: SkewAlgebra) -> list[list[int]]:
    """den² times the cyclic terms (e1 e2) e3, (e2 e3) e1, (e3 e1) e2, off the HL pair blocks."""
    if a.dim != 3:
        raise UnsupportedDimError("the Lie-type relation lives in dimension 3")
    dp = _table(a, _exact_blocks)
    return [dp[p, q][3 * l:3 * l + 3] for p, q, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]


def lie_type_constants(a: SkewAlgebra) -> LieTypeSolution:
    """Solve for constant coefficients (a, b) of the Lie-type relation on the
    basis triple, with coefficient 1 on the first cyclic term. The integer
    terms carry a common factor den², which changes no solution."""
    t1, t2, t3 = _cyclic_ints(a)
    # the kernel of [t2 t3 | -t1]: its vectors (a, b, 0) are the homogeneous
    # pairs, and the one (-a, -b, 1), if any, is the particular pair negated
    kernel, d = _eliminate([(p, q, -r) for p, q, r in zip(t2, t3, t1)], 3).kernel_ints()
    homogeneous = tuple((Fraction(v[0], d), Fraction(v[1], d)) for v in kernel if not v[2])
    part = next(((Fraction(-v[0], d), Fraction(-v[1], d)) for v in kernel if v[2]), None)
    admissible = part is not None and (part[0] != 0 or any(h[0] != 0 for h in homogeneous))
    return LieTypeSolution(part, homogeneous, admissible)
