import math
import random
from pathlib import Path
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlie import (ExactMatrix, SkewAlgebra, abelian, algebra3, aut_dimension,
                     basis_vec, build_HL, build_M, central_series, classify,
                     derivation_space, derived_series, determinant,
                     heisenberg, filiform5, hom_check, homlie_space, inverse,
                     is_homlie, is_lie, killing_matrix, left_mult, lie_type_constants,
                     orbit_dimension, rank, span, transport, vec_of_endo)
from skewlie import structmats as sm
from skewlie.classify import ns1_family, ns2_family, sol_family
from skewlie.cli import parse_algebra
from skewlie.errors import DimensionMismatchError, UnsupportedDimError
from skewlie.qlinalg import _P, _SLOT, _eliminate, _full_rank_mod_p, _pack
from skewlie.sampler import SampleConfig, random_algebra
from skewlie.structmats import (_HL_packed, _HL_rows, _M_packed, _M_rows, derivation_defect,
                                endo_of_vec, hom_check, hom_jacobi_defect)

from helpers import (COUNTEREXAMPLE4_HL_DET, cofactor_determinant,
                     counterexample4, fraction_build_HL, fraction_build_M,
                     fraction_matmul, fraction_rref, gamma2_family, rand_algebra,
                     rand_endo, rand_fraction, rand_invertible, rand_nonzero_fraction,
                     rand_rational_invertible,
                     rank_mod_p, reference_derivation_matrix3, rigid_dim4, rows_of)

GOLDEN = Path(__file__).resolve().parent / "golden"


# --- flattening conventions ---

def test_vec_of_identity():
    assert vec_of_endo(ExactMatrix.identity(3)) == tuple(
        Fraction(x) for x in (1, 0, 0, 0, 1, 0, 0, 0, 1))


def test_vec_of_zero():
    assert vec_of_endo(ExactMatrix.zeros(3, 3)) == (Fraction(0),) * 9


def test_vec_is_column_major():
    f = ExactMatrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # single entry at row 2, col 1
    v = vec_of_endo(f)
    assert v[1] == 1 and sum(1 for x in v if x != 0) == 1


@pytest.mark.parametrize("x,y", [((1, 0), (0, 1, 0)), ((1, 0, 0), (0, 1)),
                                 ((1, 0, 0, 0), (0, 1, 0))])
def test_derivation_defect_rejects_vectors_of_the_wrong_length(x, y):
    # a short x once raised ValueError from ExactMatrix.apply, unlike hom_jacobi_defect
    with pytest.raises(DimensionMismatchError):
        derivation_defect(heisenberg(), ExactMatrix.identity(3), x, y)


@pytest.mark.parametrize("call", [
    lambda f: transport(heisenberg(), f),
    vec_of_endo,
    lambda f: derivation_defect(heisenberg(), f, basis_vec(3, 1), basis_vec(3, 2)),
    lambda f: hom_jacobi_defect(heisenberg(), f, *(basis_vec(3, i) for i in (1, 2, 3))),
    lambda f: hom_check(heisenberg(), f),
], ids=["transport", "vec_of_endo", "derivation_defect", "hom_jacobi_defect", "hom_check"])
def test_endomorphism_functions_reject_what_is_no_exact_matrix(call):
    # a plain list of rows once raised AttributeError: 'list' object has no attribute 'is_square'
    with pytest.raises(TypeError, match="ExactMatrix"):
        call([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_vec_of_endo_rejects_a_non_square_matrix(shape):
    # a 2x3 matrix once flattened to 4 entries, dropping column 3; a 3x2 one
    # raised a bare IndexError
    with pytest.raises(DimensionMismatchError):
        vec_of_endo(ExactMatrix.zeros(*shape))


def test_endo_of_vec_roundtrip():
    rng = random.Random(0)
    for n in (2, 3, 4):
        f = rand_endo(rng, n)
        assert endo_of_vec(n, vec_of_endo(f)) == f


def test_endo_of_vec_rejects_a_negative_size():
    # (-2)^2 = 4 entries once passed the length check and gave a 0x-2 matrix
    with pytest.raises(ValueError):
        endo_of_vec(-2, [1, 2, 3, 4])


# --- derivation matrix ---

def test_build_M_abelian_is_zero():
    assert build_M(abelian(3)) == ExactMatrix.zeros(9, 9)


def test_build_M_shapes():
    assert (build_M(abelian(2)).rows, build_M(abelian(2)).cols) == (2, 4)
    assert (build_M(abelian(3)).rows, build_M(abelian(3)).cols) == (9, 9)
    assert (build_M(abelian(4)).rows, build_M(abelian(4)).cols) == (24, 16)
    assert (build_M(abelian(5)).rows, build_M(abelian(5)).cols) == (50, 25)


def test_build_M_matches_reference_table():
    constants = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    a = algebra3(*constants)
    ref = ExactMatrix(reference_derivation_matrix3(*constants))
    assert build_M(a) == ref


def test_build_M_dim2():
    a = SkewAlgebra(2, {(1, 2): (3, 5)})
    assert build_M(a) == ExactMatrix([[0, 0, -5, 3], [5, -3, 0, 0]])
    assert orbit_dimension(a) == 2


def test_dim3_derivation_matrix_always_singular():
    rng = random.Random(4)
    for _ in range(15):
        assert determinant(build_M(rand_algebra(rng, dim=3))) == 0


def test_rank8_fixture_and_kernel():
    a = algebra3(0, 1, 0, 0, 0, 2, 1, 0, 0)
    assert orbit_dimension(a) == 8
    ders = derivation_space(a)
    assert ders.dim == 1
    f, c = ders.basis[0], ders.basis[0][1, 1]
    assert f == ExactMatrix([[0, 0, 0], [0, c, 0], [0, 0, -c]]) and c != 0


def test_heisenberg_derivations():
    assert orbit_dimension(heisenberg()) == 3
    assert derivation_space(heisenberg()).dim == 6
    assert aut_dimension(heisenberg()) == 6


def test_rigid_dim4_has_no_derivations():
    a = rigid_dim4()
    assert orbit_dimension(a) == 16
    assert aut_dimension(a) == 0
    assert derivation_space(a).dim == 0


def test_derivation_basis_members_have_zero_defect():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_algebra(rng, dim=3)
        for f in derivation_space(a).basis:
            for (i, j) in combinations(range(1, 4), 2):
                assert derivation_defect(a, f, basis_vec(3, i),
                                         basis_vec(3, j)) == (0, 0, 0)


def test_orbit_dimension_bounds_dim3():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_algebra(rng, dim=3)
        assert orbit_dimension(a) <= 8
        assert aut_dimension(a) >= 1
    assert orbit_dimension(abelian(3)) == 0


def test_lie_dim3_rank_at_most_six():
    rng = random.Random(7)
    samples = [heisenberg(), algebra3(0, 1, 0, 0, 0, -1, 1, 0, 0),
               sol_family(1, 2, 0, 3)]  # last one is not Lie; filter below
    samples += [transport(heisenberg(), rand_invertible(rng, 3)) for _ in range(5)]
    samples += [transport(ns1_family(rand_nonzero_fraction(rng), 0,
                                     rand_nonzero_fraction(rng), 0, 0),
                          rand_invertible(rng, 3)) for _ in range(5)]
    for a in samples:
        if is_lie(a):
            assert orbit_dimension(a) <= 6


def test_left_mult_is_derivation_for_lie_algebras():
    rng = random.Random(8)
    lie_samples = [transport(heisenberg(), rand_invertible(rng, 3)) for _ in range(4)]
    lie_samples += [transport(ns2_family(q, rand_fraction(rng), 0, -q, 0),
                              rand_invertible(rng, 3))
                    for q in (Fraction(1), Fraction(-2), Fraction(3, 2))]
    for a in lie_samples:
        assert is_lie(a)
        m = build_M(a)
        for i in (1, 2, 3):
            image = m.apply(vec_of_endo(left_mult(a, basis_vec(3, i))))
            assert all(x == 0 for x in image)


# --- family kernel generators (closed forms, checked at sampled parameters) ---

def test_sol_family_kernel_and_rank():
    rng = random.Random(101)
    from helpers import sol_kernel_generator, sol_kernel_generators_b2_zero
    for _ in range(12):
        b1, g1, g2 = (rand_fraction(rng) for _ in range(3))
        b2 = rand_nonzero_fraction(rng)
        a = sol_family(b1, g1, b2, g2)
        m = build_M(a)
        assert rank(m) == 8
        gen = sol_kernel_generator(b1, g1, b2, g2)
        assert all(x == 0 for x in m.apply(gen))
        # with a one-dimensional kernel the generator spans it
        assert any(x != 0 for x in gen)
    for _ in range(8):
        b1 = rand_nonzero_fraction(rng)
        g1, g2 = rand_fraction(rng), rand_fraction(rng)
        a = sol_family(b1, g1, 0, g2)
        m = build_M(a)
        assert rank(m) == 7
        for gen in sol_kernel_generators_b2_zero(b1, g1, g2):
            assert all(x == 0 for x in m.apply(gen))


def test_ns1_family_kernel_and_rank():
    from helpers import ns1_kernel_generator
    rng = random.Random(102)
    for _ in range(12):
        b2, a3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        g2, b3, g3 = (rand_nonzero_fraction(rng) for _ in range(3))
        a = ns1_family(b2, g2, a3, b3, g3)
        m = build_M(a)
        gen = ns1_kernel_generator(b2, g2, a3, b3, g3)
        assert all(x == 0 for x in m.apply(gen))
        assert rank(m) == 8 and any(x != 0 for x in gen)
    # Lie subcase
    for _ in range(6):
        b2, a3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        a = ns1_family(b2, 0, a3, 0, 0)
        assert is_lie(a)
        assert rank(build_M(a)) == 6


def test_ns2_family_kernel_and_rank():
    from helpers import ns2_kernel_generator
    rng = random.Random(103)
    for _ in range(12):
        a2, b3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        b2, g2, g3 = (rand_nonzero_fraction(rng) for _ in range(3))
        a = ns2_family(a2, b2, g2, b3, g3)
        m = build_M(a)
        gen = ns2_kernel_generator(a2, b2, g2, b3, g3)
        assert all(x == 0 for x in m.apply(gen))
        assert rank(m) == 8 and any(x != 0 for x in gen)
    for _ in range(6):
        a2 = rand_nonzero_fraction(rng)
        b2 = rand_fraction(rng)
        a = ns2_family(a2, b2, 0, -a2, 0)
        assert is_lie(a)
        assert rank(build_M(a)) == 6


# --- Hom-Jacobi matrix ---

def test_build_HL_shapes():
    assert (build_HL(abelian(3)).rows, build_HL(abelian(3)).cols) == (3, 9)
    assert (build_HL(abelian(4)).rows, build_HL(abelian(4)).cols) == (16, 16)
    assert (build_HL(abelian(5)).rows, build_HL(abelian(5)).cols) == (50, 25)


def test_build_HL_rejects_dim2():
    with pytest.raises(UnsupportedDimError):
        build_HL(abelian(2))
    assert list(_HL_rows(abelian(2))) == []  # no basis triples, so no rows


def test_heisenberg_HL_vanishes():
    hl = build_HL(heisenberg())
    assert hl == ExactMatrix.zeros(3, 9)
    assert homlie_space(heisenberg()).dim == 9


def test_dim3_homlie_dimension_at_least_six():
    rng = random.Random(9)
    for _ in range(25):
        a = rand_algebra(rng, dim=3)
        assert homlie_space(a).dim >= 6
        assert is_homlie(a)


def test_identity_twist_iff_lie():
    rng = random.Random(10)
    for _ in range(25):
        a = rand_algebra(rng, dim=3)
        assert hom_check(a, ExactMatrix.identity(3)) == is_lie(a)


def test_counterexample4_is_not_homlie():
    a = counterexample4()
    hl = build_HL(a)
    assert rank(hl) == 16
    det = determinant(hl)
    assert det == COUNTEREXAMPLE4_HL_DET
    assert not is_homlie(a)
    assert homlie_space(a).dim == 0


def test_counterexample4_det_against_cofactor_oracle():
    hl = build_HL(counterexample4())
    assert cofactor_determinant(rows_of(hl)) == COUNTEREXAMPLE4_HL_DET


def test_gamma2_one_kernel_pattern():
    a = gamma2_family(1)
    assert orbit_dimension(a) == 6
    ders = derivation_space(a)
    assert ders.dim == 3
    for f in ders.basis:
        assert f.row(0) == (0, 0, 0)
        assert f.column(0) == (0, 0, 0)
        assert f[2, 2] == -f[1, 1]


def test_gamma2_minus_one_kernel_pattern():
    a = gamma2_family(-1)
    assert orbit_dimension(a) == 6
    for f in derivation_space(a).basis:
        assert f[0, 0] == 0
        assert f[0, 1] == -f[2, 0]
        assert f[1, 0] == -f[0, 2]
        assert f[1, 2] == 0
        assert f[2, 1] == 0
        assert f[2, 2] == -f[1, 1]


def test_filiform_homlie():
    a = filiform5(1, 0, 0, 1)
    assert not is_lie(a)
    assert is_homlie(a)
    space = homlie_space(a)
    assert space.dim == 17
    assert any(f != ExactMatrix.zeros(5, 5) for f in space.basis)


def test_homlie_space_members_pass_direct_check():
    rng = random.Random(12)
    for dim in (3, 4):
        for _ in range(6):
            a = rand_algebra(rng, dim=dim, height=2)
            space = homlie_space(a)
            for f in space.basis:
                assert hom_check(a, f)
            if space.basis:
                coeffs = [rng.randint(-3, 3) for _ in space.basis]
                combo = ExactMatrix([[sum(c * f[i, j] for c, f in zip(coeffs, space.basis))
                                      for j in range(dim)] for i in range(dim)])
                assert hom_check(a, combo)


def test_dim2_homlie_convention():
    a = SkewAlgebra(2, {(1, 2): (1, 1)})
    assert is_homlie(a)
    space = homlie_space(a)
    assert space.dim == 4
    assert len(space.basis) == 4


# --- matrix route versus direct evaluation (the core oracle) ---

@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_matrix_vs_direct_derivation_defect(dim):
    rng = random.Random(200 + dim)
    for _ in range(30):
        a = rand_algebra(rng, dim=dim, height=2)
        f = rand_endo(rng, dim)
        image = build_M(a).apply(vec_of_endo(f))
        direct = []
        for (i, j) in combinations(range(1, dim + 1), 2):
            direct.extend(derivation_defect(a, f, basis_vec(dim, i),
                                            basis_vec(dim, j)))
        assert list(image) == direct


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_matrix_vs_direct_hom_jacobi(dim):
    rng = random.Random(300 + dim)
    for _ in range(30):
        a = rand_algebra(rng, dim=dim, height=2)
        f = rand_endo(rng, dim)
        image = build_HL(a).apply(vec_of_endo(f))
        direct = []
        for (i, j, k) in combinations(range(1, dim + 1), 3):
            direct.extend(hom_jacobi_defect(a, f, basis_vec(dim, i),
                                            basis_vec(dim, j), basis_vec(dim, k)))
        assert list(image) == direct


# --- integer operator rows against the Fraction oracles ---

def _denominator(a):
    return math.lcm(*(x.denominator for v in a.products.values() for x in v))


def _rational_basis_algebra(rng, dim):
    """A random integer algebra moved to a random rational basis: den > 1."""
    a = rand_algebra(rng, dim=dim)
    while True:
        p = ExactMatrix([[rand_fraction(rng, 3, 4) for _ in range(dim)]
                         for _ in range(dim)])
        if determinant(p) != 0:
            b = transport(a, p)
            if _denominator(b) > 1:
                return b


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_public_builders_equal_fraction_oracles(dim):
    rng = random.Random(40 + dim)
    count = 3 if dim <= 4 else 1
    algebras = [abelian(dim)]
    algebras += [rand_algebra(rng, dim=dim) for _ in range(count)]
    algebras += [_rational_basis_algebra(rng, dim) for _ in range(count)]
    algebras += {3: [heisenberg(), gamma2_family(Fraction(1, 2))],
                 4: [counterexample4(), rigid_dim4()],
                 5: [filiform5(Fraction(1, 2), -1, Fraction(2, 3), 0)]}.get(dim, [])
    for a in algebras:
        assert build_M(a) == fraction_build_M(a)
        if dim >= 3:
            assert build_HL(a) == fraction_build_HL(a)
        else:
            with pytest.raises(UnsupportedDimError):
                build_HL(a)
            with pytest.raises(UnsupportedDimError):
                fraction_build_HL(a)


def _golden_algebras(dim):
    """The inputs of the golden corpus of one dimension."""
    docs = (path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*/input.json")))
    return [a for a in map(parse_algebra, docs) if a.dim == dim]


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_operator_reduction_equals_fraction_oracle(dim):
    # the integer route scales rows by den (or den^2) and the elimination divides them
    # by their contents; the Fraction route does neither, so the determinant checks both
    algebras = (random_algebra(SampleConfig(dim=dim, trials=1, seed=dim), 0),
                _rational_basis_algebra(random.Random(dim), dim))
    assert _denominator(algebras[1]) > 1
    golden = _golden_algebras(dim)
    assert golden
    for a in algebras + tuple(golden):
        den = _denominator(a)
        for rows, factor, m in ((_M_rows(a), den, fraction_build_M(a)),
                                (_HL_rows(a), den * den, fraction_build_HL(a))):
            rows = list(rows)
            assert ExactMatrix._of(rows, dim * dim, factor) == m
            if a not in algebras:
                continue
            b, ref = _eliminate(rows, dim * dim), fraction_rref(m)
            assert (b.rank, tuple(b.pivots)) == (ref.rank, ref.pivot_columns)
            # det is that of the rows of factor * (the operator), and a nonzero det
            # reads every row
            det = Fraction(b.det, factor ** len(rows)) if m.is_square else None
            assert det == ref.determinant
            assert (b.det != 0) == (ref.rank == dim * dim)
            assert (ExactMatrix._of(b.span_rows(), dim * dim, b.d)
                    == ExactMatrix(rows_of(ref.reduced)[:ref.rank], cols=dim * dim))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_certificate_agrees_with_exact_rank_on_golden_operators(dim):
    # on no golden input is M or HL of full rank over Q but singular mod p, so the
    # certificate settles exactly the full-rank operators there, on the exact rows packed
    # and on the rows born packed alike
    golden = _golden_algebras(dim)
    assert golden
    for a in golden:
        for rows, packed in ((list(_M_rows(a)), _M_packed), (list(_HL_rows(a)), _HL_packed)):
            assert (_full_rank_mod_p(map(_pack, rows), dim * dim)
                    == (_eliminate(rows, dim * dim).rank == dim * dim)
                    == _full_rank_mod_p(packed(a), dim * dim))


def _unpacked(row, cols):
    return [row >> _SLOT * c & (1 << _SLOT) - 1 for c in range(cols)]


def _row_terms(t, n):
    """Per operator row, in the order of ``_M_rows``/``_HL_rows``, the products it sums: an
    M row (i, j, m) the constants t[j][l][m], t[i][l][m] and t[i][j][c]; an HL row (i, j, k,
    m) the products t[p][q][s] t[s][l][m] over its pairs (p, q) = (j, k), (k, i), (i, j)."""
    m_terms = [[t[j][l][m] for l in range(n)] + [t[i][l][m] for l in range(n)] + list(t[i][j])
               for i, j in combinations(range(n), 2) for m in range(n)]
    hl_terms = [[t[p][q][s] * t[s][l][m] for p, q in ((j, k), (k, i), (i, j))
                 for s in range(n) for l in range(n)]
                for i, j, k in combinations(range(n), 3) for m in range(n)]
    return m_terms, hl_terms


packed_constants = st.one_of(st.just(0), st.integers(-3, 3), st.sampled_from([_P, -_P, _P - 1]),
                             st.integers(-2 ** 80, 2 ** 80),
                             st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def packed_algebras(draw, min_dim=2):
    dim = draw(st.integers(min_dim, 6))
    pairs = list(combinations(range(1, dim + 1), 2))
    return SkewAlgebra(dim, {ij: draw(st.lists(packed_constants, min_size=dim, max_size=dim))
                             for ij in pairs})


@given(packed_algebras())
@example(abelian(4))
@example(filiform5(1, 0, 0, 1))
@example(SkewAlgebra(3, {(1, 2): (1, 0, 0), (2, 3): (0, 0, -1)}))  # a cancelling M row
def test_packed_rows_are_the_exact_rows_mod_p(a):
    # row by row and slot by slot, the packed rows are the exact rows mod p, with slots of
    # at most 2 (p - 1) in M and n (p - 1)^2 in HL, the certificate's input bound; a row
    # whose products all vanish mod p packs to the int 0
    n = a.dim
    m_terms, hl_terms = _row_terms(a._ints[0], n)
    for exact, packed, terms, bound in ((_M_rows, _M_packed, m_terms, 2 * (_P - 1)),
                                        (_HL_rows, _HL_packed, hl_terms, n * (_P - 1) ** 2)):
        rows, packed_rows = list(exact(a)), list(packed(a))
        assert len(rows) == len(packed_rows) == len(terms)
        for row, packed_row, products in zip(rows, packed_rows, terms):
            slots = _unpacked(packed_row, n * n)
            assert packed_row >> _SLOT * n * n == 0 and max(slots) <= bound
            assert [x % _P for x in slots] == [x % _P for x in row]
            if all(x % _P == 0 for x in products):
                assert packed_row == 0


class _CountedIteration(list):
    """A list that counts how often it is iterated: each pair block ``_HL_packed`` builds
    iterates the packed T once, in its sum over s."""

    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _count_pair_blocks(a) -> _CountedIteration:
    """Hand a's ``_HL_packed`` a packed T whose iteration is counted."""
    T, N = sm._table(a, sm._packed)
    a._tables[sm._packed] = counted = _CountedIteration(T), N
    return counted[0]


@given(packed_algebras(min_dim=4))
@example(abelian(5))
@example(filiform5(1, 0, 0, 1))
def test_mod_p_pair_blocks_are_built_once_each_as_their_rows_are_read(a):
    # the pair blocks of (j, k), (k, i) and (i, j) are made when the first row of the triple
    # i < j < k is read: after the first k rows exactly the blocks of those rows' triples are
    # built, each once, and none before the first row. At dim 4 that is all 8 blocks
    n, blocks = a.dim, _count_pair_blocks(a)
    triples, rows, read = list(combinations(range(n), 3)), _HL_packed(a), set()
    assert blocks.iterations == 0
    for r, _ in enumerate(rows):
        i, j, k = triples[r // n]
        read |= {(j, k), (k, i), (i, j)}
        assert blocks.iterations == len(read)
    assert r + 1 == n * len(triples) and len(read) == {4: 8, 5: 15, 6: 24}[n]


@st.composite
def rational_algebras(draw):
    dim = draw(st.integers(2, 6))
    constant = st.one_of(st.just(0), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    return SkewAlgebra(dim, {ij: draw(st.lists(constant, min_size=dim, max_size=dim))
                             for ij in combinations(range(1, dim + 1), 2)})


def _table_readings(a):
    """Everything the per-algebra tables feed: the four row generators, the Killing form
    and both series (which read A·A)."""
    return ([list(rows(a)) for rows in (_M_rows, _HL_rows, _M_packed, _HL_packed)],
            killing_matrix(a), central_series(a), derived_series(a))


@given(rational_algebras(), st.integers(0, 10 ** 6))
@example(abelian(2), 0)
@example(filiform5(1, Fraction(1, 2), 0, -3), 1)
def test_table_readers_agree_with_a_fresh_and_a_transported_equal_algebra(a, seed):
    # the operators, the Killing form, the series and the dim-3 readers build a's tables
    # first; every reader of them then gives what it gives for an equal algebra that has
    # none yet, built from the constants or by transport there and back
    derivation_space(a), orbit_dimension(a), homlie_space(a), is_homlie(a)
    killing_matrix(a), central_series(a)
    if a.dim == 3:
        classify(a), lie_type_constants(a)
    p = rand_rational_invertible(random.Random(seed), a.dim)
    fresh, back = SkewAlgebra(a.dim, a.products), transport(transport(a, p), inverse(p))
    assert fresh == back == a and fresh._tables == back._tables == {}
    assert _table_readings(a) == _table_readings(fresh) == _table_readings(back)
    assert len(a._tables) == 4  # flat rows, exact pair blocks, packed T and N, A·A


def test_a_cancelling_exact_zero_row_packs_to_p_and_reads_as_zero():
    # e1 e2 = e1, e2 e3 = -e3: M row (1, 2) at component 3 is exactly zero, but at column
    # 1*3 + 3 (1-based) it sums the residues of 1 and -1, so its slot there is p. The
    # certificate reduces that slot to 0 and reads the row as zero mod p
    a = SkewAlgebra(3, {(1, 2): (1, 0, 0), (2, 3): (0, 0, -1)})
    rows, packed = list(_M_rows(a)), list(_M_packed(a))
    assert rows[2] == [0] * 9 and _unpacked(packed[2], 9) == [0, 0, _P] + [0] * 6
    assert not _full_rank_mod_p(iter([packed[2]]), 9)
    unit_rows = [_pack([int(c == r) for c in range(9)]) for r in range(9)]
    assert _full_rank_mod_p(iter([packed[2], *unit_rows]), 9)


@pytest.mark.parametrize("dim,trials", [(4, 6), (5, 4), (6, 3)])
def test_operators_build_only_the_rows_the_elimination_reads(dim, trials, monkeypatch):
    # each representation of an operator, exact or packed, is built at most once; at full
    # column rank the certificate stops at the shortest row prefix of rank n^2 mod p, so no
    # packed row past it, no HL pair block of a later triple and no exact row at all is
    # built; below full rank the exact elimination reads every row
    fns = ("_M_rows", "_M_packed", "_HL_rows", "_HL_packed")
    originals = {fn: getattr(sm, fn) for fn in fns}
    built, yielded = dict.fromkeys(fns, 0), dict.fromkeys(fns, 0)
    for fn, original in originals.items():
        def counted(a, fn=fn, original=original):
            built[fn] += 1
            for row in original(a):
                yielded[fn] += 1
                yield row

        monkeypatch.setattr(sm, fn, counted)
    cfg = SampleConfig(dim=dim, trials=trials, seed=42)
    for index in range(trials):
        a = random_algebra(cfg, index)
        for exact, packed, read in (("_M_rows", "_M_packed", orbit_dimension),
                                    ("_HL_rows", "_HL_packed", is_homlie)):
            for fn in fns:
                built[fn] = yielded[fn] = 0
            blocks = _count_pair_blocks(a)
            read(a)
            assert built[packed] == 1 and built[exact] <= 1
            rows, k = list(originals[exact](a)), yielded[packed]
            # the HL pair blocks made are those of the triples of the k rows read, each once
            heads = list(combinations(range(dim), 3))[:-(-k // dim)] if exact == "_HL_rows" else []
            assert blocks.iterations == len({pq for i, j, l in heads
                                             for pq in ((j, l), (l, i), (i, j))})
            if rank(ExactMatrix(rows, cols=dim * dim)) == dim * dim:
                assert built[exact] == yielded[exact] == 0
                assert rank(ExactMatrix(rows[:k], cols=dim * dim)) == dim * dim
                assert rank_mod_p(rows[:k - 1], _P) < dim * dim
                assert rank(ExactMatrix(rows[:k - 1], cols=dim * dim)) < dim * dim
                assert k < len(rows) or (exact, dim) == ("_HL_rows", 4)
            else:
                assert yielded[exact] == len(rows)


def count_eliminations(monkeypatch) -> list[int]:
    """Count the exact eliminations the operator functions run (one list entry)."""
    calls = [0]

    def counted(rows, cols):
        calls[0] += 1
        return _eliminate(rows, cols)

    monkeypatch.setattr(sm, "_eliminate", counted)
    return calls


@pytest.mark.parametrize("dim,trials", [(4, 20), (5, 6), (6, 3)])
def test_full_rank_operators_need_no_exact_elimination(dim, trials, monkeypatch):
    # a generic algebra has trivial derivations and is not Hom-Lie: the mod-p
    # certificate settles M and HL. The square n = 4 HL still eliminates, for its det
    calls = count_eliminations(monkeypatch)
    cfg = SampleConfig(dim=dim, trials=trials, seed=42)
    for index in range(trials):
        a = random_algebra(cfg, index)
        assert orbit_dimension(a) == dim * dim and not is_homlie(a)
        assert derivation_space(a).dim == 0
        space = homlie_space(a)
        assert (space.dim, calls[0]) == (0, index + 1 if dim == 4 else 0)
        assert space.determinant != 0 and (space.determinant is None) == (dim > 4)


@pytest.mark.parametrize("dim", [4, 5])
def test_operators_singular_mod_p_fall_back_to_exact_elimination(dim, monkeypatch):
    # constants scaled by p make every row of M and HL zero mod p: the certificate
    # proves nothing, and the exact elimination gives the answers of the unscaled
    # algebra, which the certificate settles alone
    a = random_algebra(SampleConfig(dim=dim, trials=1, seed=42), 0)
    scaled = SkewAlgebra(dim, {ij: [_P * x for x in a.product(*ij)]
                               for ij in combinations(range(1, dim + 1), 2)})
    calls = count_eliminations(monkeypatch)
    answers = (orbit_dimension(a), is_homlie(a), derivation_space(a).dim)
    assert answers == (dim * dim, False, 0) and calls == [0]
    assert (orbit_dimension(scaled), is_homlie(scaled), derivation_space(scaled).dim) == answers
    assert homlie_space(scaled).dim == 0 and calls == [4]


@settings(max_examples=60)
@given(st.lists(st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9),
                                                          st.integers(1, 7))),
                min_size=9, max_size=9))
def test_no_dim3_orbit_is_open(c):
    """rank M <= 8 < 9 at n = 3, so the certificate is skipped there. Every dim-3 skew
    product is x*y = T(x cross y) for a 3x3 matrix T. A basis change h takes T to
    det(h)^-1 h T h^T, since (h^-1 x) cross (h^-1 y) = det(h)^-1 h^T (x cross y). So
    det(T + T^T) / det(T) is invariant, and it is not constant (8 at T = I, 4 at T = I
    plus a skew 2x2 block of ones). Every orbit lies in one of its level sets or in
    det T = 0, a hypersurface, so no orbit is open: rank M = orbit dimension <= 8."""
    a = SkewAlgebra(3, {(1, 2): c[:3], (1, 3): c[3:6], (2, 3): c[6:]})
    assert orbit_dimension(a) <= 8


@pytest.mark.parametrize("seed", range(4))
def test_dim4_determinant_with_denominators_matches_oracle(seed):
    # the 16 rows of HL reach the elimination scaled by den^2 each, so the
    # determinant is divided by den^32 on the way out
    a = _rational_basis_algebra(random.Random(seed), 4)
    assert _denominator(a) > 1
    expected = fraction_rref(fraction_build_HL(a)).determinant
    assert expected != 0
    assert homlie_space(a).determinant == expected


# --- isomorphism invariance ---

def _conjugated_span(endos, p, pinv):
    """The subspace of End V spanned by p^-1 f p over the given f, in RREF."""
    n = p.rows
    return span((vec_of_endo(fraction_matmul(fraction_matmul(pinv, f), p)) for f in endos),
                dim=n * n)


def _assert_transport_invariants(dim, seed):
    # b is a in the basis of the columns of p, so b(x, y) = p^-1 a(px, py):
    # derivations and Hom-Lie twists conjugate by p, the Killing form is
    # pulled back by p, and at dim 4 det HL has weight 8 (HL goes from End V
    # to V (x) L^3 V*, and L^3 V* = V (x) det^-1 there)
    rng = random.Random(seed)
    a = rand_algebra(rng, dim=dim)
    p = ExactMatrix([[rand_fraction(rng, 3, 2) for _ in range(dim)]
                     for _ in range(dim)])
    if determinant(p) == 0:
        p = rand_invertible(rng, dim)
    pinv = inverse(p)
    b = transport(a, p)
    ders_a, ders_b = derivation_space(a), derivation_space(b)
    assert (span((vec_of_endo(f) for f in ders_b.basis), dim=dim * dim)
            == _conjugated_span(ders_a.basis, p, pinv))
    hom_a, hom_b = homlie_space(a), homlie_space(b)
    assert (span((vec_of_endo(f) for f in hom_b.basis), dim=dim * dim)
            == _conjugated_span(hom_a.basis, p, pinv))
    pt = ExactMatrix([p.column(j) for j in range(dim)])
    assert killing_matrix(b) == fraction_matmul(fraction_matmul(pt, killing_matrix(a)), p)
    if dim == 4:
        assert hom_b.determinant == determinant(p) ** 8 * hom_a.determinant
    assert aut_dimension(b) == aut_dimension(a) == ders_a.dim == ders_b.dim
    assert orbit_dimension(b) == orbit_dimension(a)
    assert hom_b.dim == hom_a.dim


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_invariants_under_transport(seed):
    _assert_transport_invariants(3, seed)


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 10 ** 6))
@example(dim=2, seed=2)
@example(dim=4, seed=4)
@example(dim=5, seed=5)
@example(dim=6, seed=6)
def test_invariants_under_transport_dims_2_to_6(dim, seed):
    _assert_transport_invariants(dim, seed)
