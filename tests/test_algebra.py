import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewlie import (ExactMatrix, SkewAlgebra, Subspace, abelian, algebra3, basis_vec,
                     central_series, derived_series, endo_of_vec, filiform5, heisenberg,
                     is_lie, is_nilpotent, is_solvable, jacobiator,
                     killing_determinant, killing_matrix, left_mult, multiply,
                     span, subspace_product, transport)
from skewlie.algebra import _derived_algebra, _double_product, _subspace, vadd
from skewlie.classify import classify, find_regular_pair, ns1_family, ns2_family, sol_family
from skewlie.errors import (DimensionMismatchError, SingularMapError,
                            UnsupportedDimError)

from skewlie.qlinalg import _eliminate
from skewlie.structmats import derivation_space, homlie_space
from skewlie.sampler import SampleConfig, random_algebra

from helpers import (counterexample4, fraction_matmul, fraction_product, fraction_transport,
                     full_space, killing_by_trace, rand_algebra, rand_fraction,
                     rand_invertible, rand_rational_invertible, rand_vec, rigid_dim4, rows_of)

algebras3 = st.builds(lambda cs: algebra3(*cs),
                      st.tuples(*([st.integers(-3, 3)] * 9)))


def e(i, n=3):
    return basis_vec(n, i)


# --- construction ---

def test_dimension_bounds():
    for bad in (0, 1, 7):
        with pytest.raises(UnsupportedDimError):
            SkewAlgebra(bad, {})
    SkewAlgebra(6, {})


def test_product_lookup_is_skew():
    h = heisenberg()
    assert h.product(1, 2) == (0, 0, 1)
    assert h.product(2, 1) == (0, 0, -1)
    assert h.product(2, 2) == (0, 0, 0)
    assert h.product(1, 3) == (0, 0, 0)


@pytest.mark.parametrize("i,j", [(1, 7), (0, 2), (5, 5)])
def test_product_rejects_indices_outside_basis(i, j):
    with pytest.raises(IndexError):
        heisenberg().product(i, j)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_basis_vec_rejects_indices_outside_basis(i):
    # each of these once returned (0, 0, 0), which is no basis vector
    with pytest.raises(IndexError):
        basis_vec(3, i)


@pytest.mark.parametrize("call", [
    lambda: SkewAlgebra(3, {(True, 2): (0, 0, 1)}),
    lambda: SkewAlgebra(3, {(1, True): (0, 0, 1)}),
    lambda: heisenberg().product(True, 2),
    lambda: heisenberg().product(1, True),
    lambda: basis_vec(3, True),
    lambda: basis_vec(True, 1),
    lambda: endo_of_vec(True, [1]),
    lambda: basis_vec(3, False),
    lambda: basis_vec(3, 1.5),
    lambda: SkewAlgebra(3, {(1.0, 2): (0, 0, 1)}),
    lambda: heisenberg().product(1, 2.0),
    lambda: endo_of_vec(1.0, [1]),
    lambda: SkewAlgebra(True, {}),
    lambda: SkewAlgebra(3.0, {}),
    lambda: span([], dim=True),
    lambda: Subspace(ExactMatrix([[1, 0]]), True),
    lambda: Subspace(ExactMatrix([[1, 0]]), 1.0),
    lambda: find_regular_pair(heisenberg(), True),
], ids=["init-i", "init-j", "product-i", "product-j", "basis_vec-i", "basis_vec-n",
        "endo_of_vec-n", "basis_vec-false", "basis_vec-float", "init-float", "product-float",
        "endo_of_vec-float", "init-dim-bool", "init-dim-float", "span-dim-bool",
        "subspace-dim-bool", "subspace-dim-float", "max_height-bool"])
def test_bool_or_float_is_no_basis_index_or_size(call):
    # each bool once answered as for index or size 1 (False: 0), basis_vec(3, 1.5) as
    # the zero vector, and the other floats raised an internal indexing error; of the
    # sizes, SkewAlgebra(True, {}) raised UnsupportedDimError, span([], dim=True) gave a
    # 0x1 basis, Subspace took True and 1.0 as dim 1, and find_regular_pair searched
    # to height 1
    with pytest.raises(TypeError, match="must be an int"):
        call()


def test_equal_constants_compare_and_hash_equal():
    # "2/4" and Fraction(1, 2) reduce alike, and an explicit zero pair is absent
    spelled = [SkewAlgebra(3, {(1, 2): ("2/4", 0, 1)}),
               SkewAlgebra(3, {(1, 2): (Fraction(1, 2), 0, 1)}),
               SkewAlgebra(3, {(1, 2): ("1/2", "0", "1"), (1, 3): (0, 0, 0), (2, 3): ("0/5", 0, 0)})]
    assert all(b == spelled[0] and hash(b) == hash(spelled[0]) for b in spelled)
    assert len(set(spelled)) == 1
    assert SkewAlgebra(3, {(1, 2): (1, 0, 0)}) != SkewAlgebra(3, {(1, 2): (2, 0, 0)})
    assert abelian(3) == SkewAlgebra(3, {(2, 3): (0, 0, 0)}) != abelian(4)


def test_zero_products_are_dropped():
    a = SkewAlgebra(3, {(1, 2): (0, 0, 0), (1, 3): (0, 1, 0)})
    b = SkewAlgebra(3, {(1, 3): (0, 1, 0)})
    assert a == b
    assert hash(a) == hash(b)
    assert a.products == b.products == {(1, 3): (0, 1, 0)}


ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
               "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("algebra", [heisenberg(), abelian(2), filiform5(1, "1/2", 0, -3),
                                     ns1_family(1, "2/3", -1, 0, 5)],
                         ids=["heisenberg", "abelian2", "filiform5", "ns1"])
def test_algebras_and_matrices_survive_pickling_and_copying(how, algebra):
    # an algebra and a matrix rebuild from _ints alone: before and after the tables are
    # built, the copy is equal, hashes equal and carries no table, and a classification
    # result travels with its witness
    trip = ROUND_TRIPS[how]
    for _ in range(2):
        for value in (algebra, killing_matrix(algebra), ExactMatrix.zeros(0, 2)):
            other = trip(value)
            assert (other, hash(other), type(other)) == (value, hash(value), type(value))
        other = trip(algebra)
        assert other._tables == {} and other._ints == algebra._ints
        assert killing_matrix(other) == killing_matrix(algebra)
        derivation_space(algebra), homlie_space(algebra), central_series(algebra)
        assert algebra._tables != {}
    if algebra.dim == 3:
        result = classify(algebra)
        assert trip(result) == result and trip(result).witness == result.witness


# --- multiplication ---

def test_multiply_reads_structure_constants():
    assert multiply(heisenberg(), e(1), e(2)) == (0, 0, 1)


def test_multiply_dimension_check():
    with pytest.raises(DimensionMismatchError):
        multiply(heisenberg(), (1, 0), e(2))


def test_multiply_bilinear_on_example():
    a = algebra3(0, 1, 0, 0, 0, 1, 1, 0, 0)  # e1e2=e2, e1e3=e3, e2e3=e1
    assert multiply(a, vadd(e(1), e(2)), e(3)) == (1, 0, 1)  # e3 + e1


@given(algebras3, st.data())
def test_multiply_skew_symmetric(a, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    x, y = rand_vec(rng, 3), rand_vec(rng, 3)
    assert multiply(a, x, y) == tuple(-c for c in multiply(a, y, x))
    assert multiply(a, x, x) == (0, 0, 0)


@given(algebras3, st.data())
def test_multiply_bilinear(a, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    x, x2, y = rand_vec(rng, 3), rand_vec(rng, 3), rand_vec(rng, 3)
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    lhs = multiply(a, vadd([c * v for v in x], x2), y)
    rhs = vadd([c * v for v in multiply(a, x, y)], multiply(a, x2, y))
    assert lhs == rhs


# --- Jacobiator / Lie test ---

def test_heisenberg_is_lie():
    h = heisenberg()
    assert jacobiator(h, e(1), e(2), e(3)) == (0, 0, 0)
    assert is_lie(h)


@pytest.mark.parametrize("g2,expect", [(-1, True), (1, False), (0, False),
                                       (2, False), (Fraction(1, 2), False)])
def test_gamma2_family_lie_condition(g2, expect):
    a = algebra3(0, 1, 0, 0, 0, g2, 1, 0, 0)
    assert is_lie(a) == expect


def test_jacobiator_value_at_gamma2_one():
    a = algebra3(0, 1, 0, 0, 0, 1, 1, 0, 0)
    assert jacobiator(a, e(1), e(2), e(3)) == (2, 0, 0)


# --- table contractions against the multiply routes ---

def route_algebras(dim):
    """Seeded random algebras of one dimension, each also moved to a rational
    basis, plus the abelian one."""
    rng = random.Random(dim)
    out = [abelian(dim)]
    for seed in range(2):
        a = random_algebra(SampleConfig(dim=dim, trials=1, seed=seed, height=3), 0)
        out += [a, transport(a, rand_invertible(rng, dim))]
    return out


# (algebra, is it Lie); the transported ones have rational constants
LIE_FIXTURES = {
    "heisenberg": (heisenberg, True),
    "so3": (lambda: algebra3(0, 0, 1, 0, -1, 0, 1, 0, 0), True),
    "heisenberg-moved": (lambda: transport(heisenberg(), rand_invertible(random.Random(1), 3)),
                         True),
    "gamma2-one": (lambda: algebra3(0, 1, 0, 0, 0, 1, 1, 0, 0), False),
    "filiform5-model": (lambda: filiform5(0, 0, 0, 0), True),
    "filiform5-1010": (lambda: filiform5(1, 0, 1, 0), True),
    "filiform5-2520": (lambda: filiform5(2, 5, 2, 0), True),
    "filiform5-1001": (lambda: filiform5(1, 0, 0, 1), False),
    "filiform5-1000": (lambda: filiform5(1, 0, 0, 0), False),
    "filiform5-moved": (lambda: transport(filiform5(2, 5, 2, 0),
                                          rand_invertible(random.Random(2), 5)), True),
    "counterexample4": (counterexample4, False),
    "abelian6": (lambda: abelian(6), True),
}


def jacobiator_vanishes(a):
    n = a.dim
    return all(jacobiator(a, basis_vec(n, i), basis_vec(n, j), basis_vec(n, k)) == (0,) * n
               for (i, j, k) in itertools.combinations(range(1, n + 1), 3))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_double_product_matches_multiply_twice(dim):
    for a in route_algebras(dim):
        # table[p][q] is e_{p+1} e_{q+1}; the block of (p, q) holds ((e_p e_q) e_l)_m at
        # l*n + m, and the rows table[s][l] alone give its slice l
        table = [[a.product(i, j) for j in range(1, dim + 1)] for i in range(1, dim + 1)]
        flat = [list(itertools.chain.from_iterable(row)) for row in table]
        for p, q in itertools.product(range(dim), repeat=2):
            block = _double_product(table[p][q], flat)
            pq = multiply(a, basis_vec(dim, p + 1), basis_vec(dim, q + 1))
            for l in range(dim):
                expected = list(multiply(a, pq, basis_vec(dim, l + 1)))
                assert block[l * dim:(l + 1) * dim] == expected
                assert _double_product(table[p][q], [row[l] for row in table]) == expected


def kernel_route_algebras(dim, rng):
    """``route_algebras`` plus one with rational constants drawn directly."""
    rational = SkewAlgebra(dim, {(i, j): [rand_fraction(rng) for _ in range(dim)]
                                 for i in range(1, dim + 1) for j in range(i + 1, dim + 1)})
    assert any(c.denominator > 1 for v in rational.products.values() for c in v)
    return route_algebras(dim) + [rational]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_multiply_matches_sum_of_products_on_rational_vectors(dim):
    rng = random.Random(100 + dim)
    for a in kernel_route_algebras(dim, rng):
        for _ in range(4):
            x = [rand_fraction(rng) for _ in range(dim)]
            y = [rand_fraction(rng) for _ in range(dim)]
            assert multiply(a, x, y) == fraction_product(a, x, y)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_transport_matches_fraction_oracle(dim):
    rng = random.Random(200 + dim)
    for a in kernel_route_algebras(dim, rng):
        for p in (rand_invertible(rng, dim), rand_rational_invertible(rng, dim)):
            assert transport(a, p) == fraction_transport(a, p)


def _scale(p):
    """d of ``_eliminate`` on p's rows rescaled to integers, as ``echelonize`` runs it."""
    return _eliminate(p._ints[0], p.cols).d


def negative_scale_maps(dim, rng):
    """Maps whose rows reduce to d < 0 in ``_eliminate``: diag(-1, 1, ...) alone and
    times odd permutations (a plain permutation reduces to d = 1), plus two random
    rational ones."""
    sign = [-1] + [1] * (dim - 1)
    perms = [s for s in itertools.permutations(range(dim))
             if sum(s[i] > s[j] for i, j in itertools.combinations(range(dim), 2)) % 2]
    maps = [ExactMatrix([[sign[i] * int(j == s[i]) for j in range(dim)] for i in range(dim)])
            for s in [tuple(range(dim))] + perms[:3]]
    wanted = len(maps) + 2
    while len(maps) < wanted:
        p = rand_rational_invertible(rng, dim)
        if _scale(p) < 0:
            maps.append(p)
    return maps


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_transport_by_negative_scale_maps_matches_fraction_oracle(dim):
    # transport's elimination basis is over d < 0 here; _of needs a positive
    # denominator, so the sign of d must move into the numerators
    rng = random.Random(300 + dim)
    for p in negative_scale_maps(dim, rng):
        assert _scale(p) < 0
        for a in kernel_route_algebras(dim, rng):
            b = transport(a, p)
            assert b == fraction_transport(a, p) and b._ints[1] > 0


@pytest.mark.parametrize("name", sorted(LIE_FIXTURES))
def test_is_lie_agrees_with_jacobiator_on_fixtures(name):
    build, expect = LIE_FIXTURES[name]
    a = build()
    assert is_lie(a) == jacobiator_vanishes(a) == expect


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_is_lie_agrees_with_jacobiator_on_random_algebras(dim):
    for a in route_algebras(dim):
        assert is_lie(a) == jacobiator_vanishes(a)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_derived_algebra_matches_subspace_product(dim):
    full = full_space(dim)
    for a in route_algebras(dim):
        assert _subspace(_derived_algebra(a)) == subspace_product(a, full, full)


# --- left multiplication ---

def test_left_mult_abelian_is_zero():
    assert left_mult(abelian(3), e(1)) == ExactMatrix.zeros(3, 3)


def test_left_mult_central_element():
    assert left_mult(heisenberg(), e(3)) == ExactMatrix.zeros(3, 3)


def test_left_mult_generic_columns():
    a = algebra3(2, 3, 5, 7, 11, 13, 17, 19, 23)
    l1 = left_mult(a, e(1))
    assert l1.column(0) == (0, 0, 0)
    assert l1.column(1) == (2, 3, 5)
    assert l1.column(2) == (7, 11, 13)


# --- Killing form ---

def test_killing_abelian_zero():
    k = killing_matrix(abelian(3))
    assert k == ExactMatrix.zeros(3, 3)
    assert killing_determinant(abelian(3)) == 0


def test_killing_matrix_closed_form_for_sol():
    b1, g1, b2, g2 = Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(7)
    k = killing_matrix(sol_family(b1, g1, b2, g2))
    expected = ExactMatrix([
        [b1 * b1 + 2 * b2 * g1 + g2 * g2, g2, -b2],
        [g2, 1, 0],
        [-b2, 0, 0],
    ])
    assert k == expected
    assert killing_determinant(sol_family(b1, g1, b2, g2)) == -b2 ** 2


def test_killing_determinant_examples():
    assert killing_determinant(sol_family(0, 0, 1, 0)) == -1
    assert killing_determinant(sol_family(1, 2, 0, 3)) == 0


@given(algebras3)
def test_killing_matrix_symmetric(a):
    k = killing_matrix(a)
    assert k == ExactMatrix.from_columns(rows_of(k))


KILLING_FIXTURES = {
    "abelian4": lambda: abelian(4),
    "heisenberg": heisenberg,
    "filiform5": lambda: filiform5(1, 2, Fraction(-1, 3), 5),
    "sol": lambda: sol_family(2, -3, Fraction(5, 2), 7),
    "ns1": lambda: ns1_family(2, 3, 5, 7, 11),
    "ns2": lambda: ns2_family(Fraction(1, 2), 1, 0, Fraction(-1, 2), 3),
    "counterexample4": counterexample4,
    "rigid4": rigid_dim4,
}


@pytest.mark.parametrize("name", sorted(KILLING_FIXTURES))
def test_killing_matrix_matches_trace_route_on_fixtures(name):
    a = KILLING_FIXTURES[name]()
    assert killing_matrix(a) == killing_by_trace(a)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_killing_matrix_matches_trace_route_on_random_algebras(dim):
    for seed in range(3):
        a = random_algebra(SampleConfig(dim=dim, trials=1, seed=seed, height=3), 0)
        assert killing_matrix(a) == killing_by_trace(a)


# --- transport ---

def test_transport_identity():
    a = algebra3(1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert transport(a, ExactMatrix.identity(3)) == a


def test_transport_heisenberg_scaling():
    p = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    b = transport(heisenberg(), p)
    assert b.product(1, 2) == (0, 0, Fraction(1, 2))


def test_transport_rejects_singular():
    with pytest.raises(SingularMapError):
        transport(heisenberg(), ExactMatrix.zeros(3, 3))


def test_transport_composes():
    rng = random.Random(11)
    a = rand_algebra(rng)
    p, q = rand_invertible(rng, 3), rand_invertible(rng, 3)
    assert transport(transport(a, p), q) == transport(a, fraction_matmul(p, q))


@given(algebras3, st.integers(0, 10 ** 6))
def test_transport_preserves_lie(a, seed):
    p = rand_invertible(random.Random(seed), 3)
    assert is_lie(transport(a, p)) == is_lie(a)


# --- subspaces and series ---

def test_span_empty():
    s = span([], dim=3)
    assert s.dim == 0


def test_span_rejects_a_negative_ambient_dimension():
    # once a Subspace of ambient dimension 0
    with pytest.raises(ValueError):
        span([], dim=-1)


@pytest.mark.parametrize("vectors,dim", [([(1, 2)], 3), ([(1, 2, 3), (4, 5, 6)], 2)])
def test_span_rejects_vectors_not_of_explicit_dim(vectors, dim):
    with pytest.raises(DimensionMismatchError):
        span(vectors, dim=dim)


@pytest.mark.parametrize("dim", [0, 5])
def test_subspace_rejects_a_dim_that_disagrees_with_its_basis(dim):
    # dim 0 once made subspace_product of two whole spaces 0, and dim 5 made
    # reading its basis vectors raise a bare IndexError
    with pytest.raises(ValueError):
        Subspace(ExactMatrix.identity(3), dim)


@pytest.mark.parametrize("rows", [[[1, 0], [2, 0]], [[1, 2], [0, 1]], [[2, 0]], [[0, 1], [1, 0]],
                                  [[0, 0]]], ids=["dependent", "unreduced", "unscaled",
                                                  "unsorted", "zero-row"])
def test_subspace_rejects_a_basis_that_is_not_the_rref_of_its_rows(rows):
    # the dependent basis once gave dim 2, though span of the same rows has dim 1
    with pytest.raises(ValueError, match="RREF"):
        Subspace(ExactMatrix(rows), len(rows))
    assert span(rows).basis != ExactMatrix(rows)


def test_subspace_product_heisenberg():
    full = full_space(3)
    prod = subspace_product(heisenberg(), full, full)
    assert prod.dim == 1
    assert prod.basis.row(0) == (0, 0, 1)


def test_subspace_product_abelian():
    full = full_space(4)
    assert subspace_product(abelian(4), full, full).dim == 0


def test_central_series_heisenberg():
    rep = central_series(heisenberg())
    assert rep.dims == (3, 1, 0)
    assert is_nilpotent(heisenberg())


def test_derived_series_nonsolvable():
    a = ns1_family(1, 0, 1, 0, 0)
    rep = derived_series(a)
    assert rep.dims == (3, 3)
    assert not is_solvable(a)


def test_abelian_series():
    for n in (2, 3, 4):
        assert central_series(abelian(n)).dims == (n, 0)


def test_central_series_stabilizes_nonzero():
    line = SkewAlgebra(3, {(1, 3): (0, 0, 1)})
    assert central_series(line).dims == (3, 1, 1)
    assert not is_nilpotent(line)
    assert derived_series(line).dims == (3, 1, 0)
    assert is_solvable(line)


def series_by_subspace_product(a):
    """Both series' dims with each term formed by ``subspace_product``: the previous
    term times A (central) or times itself (derived), stopping as the package does."""
    full, out = full_space(a.dim), []
    for derived in (False, True):
        term, dims = full, [a.dim]
        while len(dims) < 2 or 0 < dims[-1] < dims[-2]:
            term = subspace_product(a, term, term if derived else full)
            dims.append(term.dim)
        out.append(tuple(dims))
    return out


def strictly_upper_algebra(rng, dim):
    """e_i e_j (i < j) in the span of e_(j+1) .. e_dim, with a share of zero
    constants, so that the series have many terms of each dimension."""
    return SkewAlgebra(dim, {(i, j): [rng.choice((0, 0, 1, -1, 2)) if k > j else 0
                                      for k in range(1, dim + 1)]
                             for i in range(1, dim + 1) for j in range(i + 1, dim + 1)})


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_series_equal_subspace_product_oracle(dim):
    # a derived step multiplies only the pairs i < j of the term's spanning rows
    rng = random.Random(500 + dim)
    algebras = [strictly_upper_algebra(rng, dim) for _ in range(6)]
    if dim == 3:
        algebras += [sol_family(1, 0, 0, 2), sol_family(0, 1, 1, 0), sol_family(2, 3, 0, 0)]
    if dim == 5:
        algebras += [filiform5(0, 0, 0, 0), filiform5(1, 0, 0, 0), filiform5(1, 2, 3, 4)]
    for a in algebras + [transport(a, rand_rational_invertible(rng, dim)) for a in algebras]:
        assert [central_series(a).dims, derived_series(a).dims] == series_by_subspace_product(a)


@given(algebras3, st.integers(0, 10 ** 6))
def test_series_dims_transport_invariant(a, seed):
    p = rand_invertible(random.Random(seed), 3)
    b = transport(a, p)
    assert central_series(b).dims == central_series(a).dims
    assert derived_series(b).dims == derived_series(a).dims


@given(algebras3)
def test_series_dims_descend_and_terminate(a):
    for rep in (central_series(a), derived_series(a)):
        dims = rep.dims
        assert all(x >= y for x, y in zip(dims, dims[1:]))
        assert dims[-1] == 0 or dims[-1] == dims[-2]


@given(algebras3)
def test_first_terms_of_both_series_agree(a):
    assert central_series(a).dims[1] == derived_series(a).dims[1]


@given(algebras3)
def test_nilpotent_implies_solvable(a):
    if is_nilpotent(a):
        assert is_solvable(a)


@given(st.integers(0, 10 ** 6))
def test_dim3_nilpotent_implies_lie(seed):
    # nonabelian nilpotent dim-3 algebras in an adapted basis, then scrambled
    rng = random.Random(seed)
    g1 = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    adapted = SkewAlgebra(3, {(1, 2): (0, 0, g1)})
    a = transport(adapted, rand_invertible(rng, 3))
    assert is_nilpotent(a)
    assert is_lie(a)


# --- filiform family ---

def test_filiform_model_is_nilpotent_lie():
    a = filiform5(0, 0, 0, 0)
    assert is_nilpotent(a)
    assert is_lie(a)


@pytest.mark.parametrize("params,expect", [
    ((1, 0, 0, 1), False),
    ((1, 0, 1, 0), True),
    ((2, 5, 2, 0), True),   # a = c and d = 0
    ((1, 0, 0, 0), False),  # a != c
])
def test_filiform_lie_condition(params, expect):
    assert is_lie(filiform5(*params)) == expect
