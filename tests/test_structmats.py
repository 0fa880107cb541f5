import math
import random
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlie import (ExactMatrix, SkewAlgebra, abelian, algebra3, aut_dimension,
                     basis_vec, build_HL, build_M, derivation_space, determinant,
                     heisenberg, filiform5, hom_check, homlie_space, inverse,
                     is_homlie, is_lie, killing_matrix, left_mult,
                     orbit_dimension, rank, span, transport, vec_of_endo)
from skewlie.classify import ns1_family, ns2_family, sol_family
from skewlie.errors import DimensionMismatchError, UnsupportedDimError
from skewlie.sampler import SampleConfig, random_algebra
from skewlie.structmats import (_HL_rows, _M_rows, _reduce, derivation_defect, endo_of_vec,
                                hom_jacobi_defect)

from helpers import (COUNTEREXAMPLE4_HL_DET, cofactor_determinant,
                     counterexample4, fraction_build_HL, fraction_build_M,
                     fraction_rref, gamma2_family, rand_algebra, rand_endo,
                     rand_fraction, rand_invertible, rand_nonzero_fraction,
                     reference_derivation_matrix3, rigid_dim4)


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
    assert build_M(abelian(3)).is_zero()


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
    f = ders.basis[0]
    target = ExactMatrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert f == target.scale(f[1, 1]) and f[1, 1] != 0


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


def test_heisenberg_HL_vanishes():
    hl = build_HL(heisenberg())
    assert hl.is_zero()
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
    assert cofactor_determinant(hl.row_list()) == COUNTEREXAMPLE4_HL_DET


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
    assert any(not f.is_zero() for f in space.basis)


def test_homlie_space_members_pass_direct_check():
    rng = random.Random(12)
    for dim in (3, 4):
        for _ in range(6):
            a = rand_algebra(rng, dim=dim, height=2)
            space = homlie_space(a)
            combo = ExactMatrix.zeros(dim, dim)
            for f in space.basis:
                assert hom_check(a, f)
                combo = combo + f.scale(rng.randint(-3, 3))
            if space.basis:
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


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_operator_reduction_equals_fraction_oracle(dim):
    # the integer route divides rows by den (or den^2) and by their contents;
    # the Fraction route does neither, so the determinant checks the scale fold
    algebras = (random_algebra(SampleConfig(dim=dim, trials=1, seed=dim), 0),
                _rational_basis_algebra(random.Random(dim), dim))
    assert _denominator(algebras[1]) > 1
    for a in algebras:
        den = _denominator(a)
        for rows, factor, m in ((_M_rows(a), den, fraction_build_M(a)),
                                (_HL_rows(a), den * den, fraction_build_HL(a))):
            b, ref = _reduce(rows, dim * dim), fraction_rref(m)
            assert (b.rank, tuple(b.pivots)) == (ref.rank, ref.pivot_columns)
            # det is that of the content-divided rows of factor * (the operator)
            contents = math.prod(math.gcd(*row) for row in rows)
            det = Fraction(b.det * contents, factor ** len(rows)) if m.is_square else None
            assert det == ref.determinant
            assert (b.det != 0) == (ref.rank == dim * dim)
            assert (ExactMatrix._of(b.span_rows(), dim * dim, b.d)
                    == ExactMatrix(ref.reduced.row_list()[:ref.rank], cols=dim * dim))


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
    return span((vec_of_endo(pinv @ f @ p) for f in endos), dim=n * n)


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
    assert killing_matrix(b) == pt @ killing_matrix(a) @ p
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
