"""Complete classification of 3-dimensional skew-symmetric algebras.

Every algebra lands in exactly one family, decided by the dimensions of the
derived subalgebra chain: abelian, Heisenberg (nilpotent), the two solvable
Lie shapes, the solvable non-Lie family (with the e2*e3 coefficient scaled
to 1), or one of the two non-solvable families. The returned witness is an
invertible matrix whose columns are the adapted basis; transporting the
input by it reproduces the normal form with the reported parameters exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Endo, SkewAlgebra, Vec, _derived_algebra, _double_product,
                      basis_vec, is_lie, multiply, subspace_product, transport,
                      vscale, zero_vec)
from .errors import InvariantError, RegularPairNotFoundError, UnsupportedDimError
from .qlinalg import ExactMatrix, determinant, echelonize, inverse, kernel_basis

ABELIAN = "Abelian"
HEISENBERG = "HeisenbergNilpotent"
SOLVABLE_LIE_LINE = "SolvableLieLine"
SOLVABLE_LIE_PLANE = "SolvableLiePlane"
SOLVABLE_NON_LIE = "SolvableNonLie"
NS1 = "NonSolvableNS1"
NS2 = "NonSolvableNS2"

TAGS = (ABELIAN, HEISENBERG, SOLVABLE_LIE_LINE, SOLVABLE_LIE_PLANE,
        SOLVABLE_NON_LIE, NS1, NS2)


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


def _vectors_up_to(n: int, height: int) -> list[Vec]:
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


def _search_pairs(a: SkewAlgebra, want_ns1: bool,
                  max_height: int) -> tuple[Vec, Vec] | None:
    # A pair passes iff P(x, y) != 0, P = det[x, y, xy] * det[y, xy, y(xy)] of
    # degree <= 4 in each coordinate of x and <= 6 in each of y (first factor
    # alone: <= 2). A nonzero P cannot vanish on a grid of 7 points per
    # coordinate (Alon, Combinatorial Nullstellensatz, 1999), so height 3
    # suffices and 4 leaves margin; heights ascend, so the bound changes no output.
    for bound in range(1, max_height + 1):
        vecs = _vectors_up_to(3, bound)
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


def find_regular_pair(a: SkewAlgebra, max_height: int = 4) -> tuple[Vec, Vec]:
    """First pair (x, y) in the deterministic enumeration with x, y, x*y
    linearly independent.

    Exists for every non-solvable dimension-3 algebra; raises
    RegularPairNotFoundError once the height bound is exhausted (solvable
    input, or raise ``max_height``).
    """
    if a.dim != 3:
        raise UnsupportedDimError("regular-pair search is a dimension-3 operation")
    found = _search_pairs(a, want_ns1=False, max_height=max_height)
    if found is None:
        raise RegularPairNotFoundError(
            f"no regular pair up to height {max_height}; the algebra is solvable "
            f"or the bound is too small")
    return found


def _extend_with_standard(cols: list[Vec], n: int) -> list[Vec]:
    """Complete independent columns to a basis using the lowest-index standard
    vectors that keep them independent: the pivot columns of [cols | I] past
    ``cols``, read off one elimination."""
    k, std = len(cols), [basis_vec(n, i) for i in range(1, n + 1)]
    pivots = echelonize(ExactMatrix.from_columns(cols + std)).pivot_columns
    return cols + [std[c - k] for c in pivots if c >= k]


def _annihilator(a: SkewAlgebra) -> list[Vec]:
    """Basis of { r : r * x = 0 for all x } (two-sided, since the product is skew)."""
    n, t = a.dim, a._ints[0]  # the kernel ignores the common factor den
    rows = [[t[i][j][m] for i in range(n)] for j in range(n) for m in range(n)]
    return kernel_basis(ExactMatrix(rows, cols=n))


def _classify_dim1_derived(a: SkewAlgebra, line) -> ClassificationResult:
    w = line.basis_vectors()[0]
    ew = [multiply(a, basis_vec(3, i), w) for i in range(1, 4)]  # e_i w
    if not any(map(any, ew)):
        # nilpotent: pick the first basis pair with a nonzero product, which
        # together with that product forms a basis
        (i, j), uv = next(iter(a.products.items()))
        witness = ExactMatrix.from_columns([basis_vec(3, i), basis_vec(3, j), uv])
        return ClassificationResult(HEISENBERG, {}, witness, True)
    # not nilpotent: products span the line and multiplication by w acts on it
    pivot = next(i for i, c in enumerate(w) if c != 0)
    lam = [v[pivot] / w[pivot] for v in ew]
    lead = next(i for i, l in enumerate(lam) if l != 0)
    f1 = vscale(1 / lam[lead], basis_vec(3, lead + 1))
    f2 = _annihilator(a)[0]
    witness = ExactMatrix.from_columns([f1, f2, w])
    return ClassificationResult(SOLVABLE_LIE_LINE, {}, witness, True)


def _classify_dim2_derived(a: SkewAlgebra, plane) -> ClassificationResult:
    d2 = subspace_product(a, plane, plane)
    if d2.dim == 0:
        f2, f3 = plane.basis_vectors()
        f1 = _extend_with_standard([f2, f3], 3)[2]
        witness = ExactMatrix.from_columns([f1, f2, f3])
        b = transport(a, witness)
        p12, p13 = b.product(1, 2), b.product(1, 3)
        if not (p12[0] == p13[0] == 0 and b.product(2, 3) == zero_vec(3)):
            raise InvariantError("SolvableLiePlane witness misses the normal form")
        params = {"beta1": p12[1], "gamma1": p12[2],
                  "beta2": p13[1], "gamma2": p13[2]}
        return ClassificationResult(SOLVABLE_LIE_PLANE, params, witness, True)
    # second derived term is a line inside the plane
    f3 = d2.basis_vectors()[0]
    f2 = next(v for v in plane.basis_vectors()
              if echelonize(ExactMatrix([f3, v], cols=3)).rank == 2)
    scale = multiply(a, f2, f3)
    pivot = next(i for i, c in enumerate(f3) if c != 0)
    f2 = vscale(f3[pivot] / scale[pivot], f2)
    f1 = _extend_with_standard([f2, f3], 3)[2]
    witness = ExactMatrix.from_columns([f1, f2, f3])
    b = transport(a, witness)
    p12, p13 = b.product(1, 2), b.product(1, 3)
    if not (b.product(2, 3) == (0, 0, 1) and p12[0] == p13[0] == 0
            and (p12[1] != 0 or p13[1] != 0)):
        raise InvariantError("SolvableNonLie witness misses the normal form")
    params = {"beta1": p12[1], "gamma1": p12[2],
              "beta2": p13[1], "gamma2": p13[2]}
    return ClassificationResult(SOLVABLE_NON_LIE, params, witness, is_lie(a))


def _classify_nonsolvable(a: SkewAlgebra) -> ClassificationResult:
    # Prefer a pair landing in the first family: x, y, z := x*y independent
    # AND y, z, y*z independent. Such a pair exists for every non-solvable
    # algebra (if span{y, z} were a subalgebra for every regular pair, the
    # pairs (y, x) and (x, y + s z) force the structure constants into a
    # contradiction with non-solvability), so the tag does not depend on the
    # presenting basis; the second family is an exhausted-search fallback.
    pair = _search_pairs(a, want_ns1=True, max_height=4)
    if pair is not None:
        x, y = pair
        z = multiply(a, x, y)
        base = ExactMatrix.from_columns([x, y, z])
        # e1-components of e1*e3, e2*e3 in the basis x, y, z, absorbed into the first
        # vector; the check on the final witness also covers e1*e2 = e3
        binv = inverse(base)
        alpha2, alpha3 = (binv.apply(multiply(a, w, z))[0] for w in (x, y))
        shear = ExactMatrix.from_columns(
            [(1, -alpha2 / alpha3, 0), (0, 1, 0), (0, 0, 1)])
        witness = base @ shear
        c = transport(a, witness)
        p13, p23 = c.product(1, 3), c.product(2, 3)
        if not (c.product(1, 2) == (0, 0, 1) and p13[0] == 0 and p23[0] * p13[1] != 0):
            raise InvariantError("NonSolvableNS1 witness misses the normal form")
        params = {"beta2": p13[1], "gamma2": p13[2],
                  "alpha3": p23[0], "beta3": p23[1], "gamma3": p23[2]}
        return ClassificationResult(NS1, params, witness, is_lie(a))
    x, y = find_regular_pair(a)
    witness = ExactMatrix.from_columns([x, y, multiply(a, x, y)])
    b = transport(a, witness)
    p13, p23 = b.product(1, 3), b.product(2, 3)
    if not (b.product(1, 2) == (0, 0, 1) and p23[0] == 0 and p13[0] * p23[1] != 0):
        raise InvariantError("NonSolvableNS2 witness misses the normal form")
    params = {"alpha2": p13[0], "beta2": p13[1], "gamma2": p13[2],
              "beta3": p23[1], "gamma3": p23[2]}
    return ClassificationResult(NS2, params, witness, is_lie(a))


def classify(a: SkewAlgebra) -> ClassificationResult:
    """Family tag, exact parameters, and invertible witness for a dim-3 algebra.

    Decision order: abelian, nilpotent, solvable with 1- resp. 2-dimensional
    derived subalgebra, non-solvable; each algebra receives exactly one tag.
    """
    if a.dim != 3:
        raise UnsupportedDimError("classification covers dimension 3 only")
    derived = _derived_algebra(a)
    if derived.dim == 0:
        return ClassificationResult(ABELIAN, {}, ExactMatrix.identity(3), True)
    if derived.dim == 1:
        return _classify_dim1_derived(a, derived)
    if derived.dim == 2:
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


def _cyclic_terms(a: SkewAlgebra) -> tuple[Vec, Vec, Vec]:
    """The three cyclic terms (e1 e2) e3, (e2 e3) e1, (e3 e1) e2, off the integer table."""
    if a.dim != 3:
        raise UnsupportedDimError("the Lie-type relation lives in dimension 3")
    t, den = a._ints
    return tuple(tuple(Fraction(x, den * den) for x in _double_product(t, *p))
                 for p in ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


def lie_type_relation_holds(a: SkewAlgebra, coeff_a, coeff_b) -> bool:
    """Directly evaluate the constant-coefficient relation on (e1, e2, e3)."""
    t1, t2, t3 = _cyclic_terms(a)
    total = tuple(p + Fraction(coeff_a) * q + Fraction(coeff_b) * r
                  for p, q, r in zip(t1, t2, t3))
    return total == zero_vec(3)


def lie_type_constants(a: SkewAlgebra) -> LieTypeSolution:
    """Solve for constant coefficients (a, b) of the Lie-type relation on the
    basis triple, with coefficient 1 on the first cyclic term."""
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
