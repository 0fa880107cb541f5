import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from skewlie import qlinalg
from skewlie.algebra import MAX_DIM, killing_matrix
from skewlie.errors import NonSquareError, SingularMapError
from skewlie.qlinalg import (_FOLD, _P, _SLOT, _WIDE, ExactMatrix, _det, _eliminate,
                             _full_rank_mod_p, _pack, determinant, echelonize, format_rational,
                             inverse, kernel_basis, parse_rational, rank)
from skewlie.sampler import SampleConfig, random_algebra
from skewlie.structmats import build_HL, build_M

from helpers import (HL16_TABLE, HL16_TABLE_DET, cofactor_determinant, count_calls,
                     fraction_matmul, fraction_rref, rand_algebra, rank_mod_p, rows_of)

fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


def frac_matrix(rows, cols):
    return st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(ExactMatrix)


# --- construction ---

def test_from_columns_coerces_entries_and_rejects_ragged_columns():
    m = ExactMatrix.from_columns([(1, "2/3"), (Fraction(1, 2), 4)])
    assert m == ExactMatrix([[1, Fraction(1, 2)], [Fraction(2, 3), 4]])
    with pytest.raises(ValueError):
        ExactMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError):
        ExactMatrix.from_columns([(1,), (2, 3)])


@pytest.mark.parametrize("entries,cols", [
    ([[1, 2]], 3),
    ([[1, 2], [3, 4]], 1),
    ([[]], 2),
])
def test_matrix_rejects_rows_not_of_explicit_cols(entries, cols):
    with pytest.raises(ValueError):
        ExactMatrix(entries, cols=cols)


@pytest.mark.parametrize("build", [
    lambda: ExactMatrix([], cols=-1),
    lambda: ExactMatrix.identity(-1),
    lambda: ExactMatrix.zeros(-2, 3),
    lambda: ExactMatrix.zeros(0, -3),
    lambda: ExactMatrix.zeros(2, -3),
], ids=["empty-cols-1", "identity-1", "zeros-2x3", "zeros-0x-3", "zeros-2x-3"])
def test_matrix_rejects_a_negative_size(build):
    # these once built "0x-1" and 0x3 matrices
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ExactMatrix.zeros(2, 1.5),
    lambda: ExactMatrix.zeros(True, 2),
    lambda: ExactMatrix.zeros(2, False),
    lambda: ExactMatrix.identity(True),
    lambda: ExactMatrix.identity(2.0),
    lambda: ExactMatrix([], cols=2.5),
    lambda: ExactMatrix([], cols=True),
], ids=["zeros-float-cols", "zeros-bool-rows", "zeros-bool-cols", "identity-bool",
        "identity-float", "empty-float-cols", "empty-bool-cols"])
def test_matrix_rejects_a_bool_or_non_int_size(build):
    # zeros(2, 1.5) once failed inside a list build, zeros(True, 2) gave a 1x2 matrix, and
    # an empty matrix kept cols=2.5 or cols=True
    with pytest.raises(TypeError, match="must be an int"):
        build()


def test_matrix_accepts_rows_of_explicit_cols():
    assert ExactMatrix([[1, 2]], cols=2) == ExactMatrix([[1, 2]])
    assert ExactMatrix([], cols=3).cols == 3


# --- echelon form ---

def test_echelon_zero_matrix():
    res = echelonize(ExactMatrix.zeros(3, 3))
    assert res.rank == 0
    assert res.pivot_columns == ()


def test_echelon_identity():
    res = echelonize(ExactMatrix.identity(3))
    assert res.rank == 3
    assert res.pivot_columns == (0, 1, 2)
    assert res.reduced == ExactMatrix.identity(3)


def test_echelon_proportional_rows():
    res = echelonize(ExactMatrix([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.pivot_columns == (0,)
    assert res.reduced == ExactMatrix([[1, 2], [0, 0]])


@st.composite
def sparse_matrix(draw):
    """Rational matrix up to 12x12 with a drawn share of zeros, so that
    rank-deficient inputs, zero columns and row swaps all occur; 0 rows is
    allowed."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 12))
    zero_share = draw(st.floats(0, 0.9))
    entries = [[draw(fractions) if draw(st.floats(0, 1)) >= zero_share
                else Fraction(0) for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(entries, cols=cols)


@given(sparse_matrix())
@example(ExactMatrix.zeros(0, 5))
@example(ExactMatrix([[0, 0, 1, 2], [0, 3, 1, 0]]))  # wide, zero column, swap
@example(ExactMatrix([[0, 1], [0, 2], [1, 0], [2, 0], [3, 1]]))  # tall, swap
@example(ExactMatrix([[2, 0, 1], [3, 0, 5]]))  # zero column between two pivots
@example(ExactMatrix([[1, 2, 3], [2, 4, 5]]))  # free column left of a pivot, nonzero above
@example(ExactMatrix([[2, 0, 1], [0, 3, 1], [1, 0, 1]]))  # 0 in the pivot column: rescale only
@example(ExactMatrix([[Fraction(1, 2), 2, 3, 4], [0, 3, 5, Fraction(6, 7)]]))  # full row rank early
@example(ExactMatrix([[0, 1], [1, 0]]))  # pivots arrive out of order
@example(ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # 3-cycle: last pivot below two
@example(ExactMatrix([[0, 0, 0], [0, 2, 1], [3, 1, 0]]))  # zero first row
@example(ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))  # dependent middle row
@example(ExactMatrix([[1, 2], [3, 4], [5, 6], [7, Fraction(1, 2)]]))  # tall, rest in the span
def test_echelon_matches_fraction_gauss_jordan(m):
    assert echelonize(m) == fraction_rref(m)


def test_elimination_stops_reading_rows_at_full_column_rank():
    # the rows after a full-column-rank block are in its span: none is read
    b = _eliminate([[0, 2], [3, 1], None, None], 2)
    assert (b.rank, b.pivots, b.det) == (2, [0, 1], cofactor_determinant([[0, 2], [3, 1]]))
    assert ExactMatrix._of(b.span_rows(), 2, b.d) == ExactMatrix([[1, 0], [0, 1]])


def square_int_matrix():
    return st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))


@given(square_int_matrix())
@example([[0, 1], [1, 0]])  # pivots arrive out of order: det -1
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # 3-cycle, an even permutation
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # pivots arrive in reverse
@example([[0, 0, 0], [0, 2, 1], [3, 1, 0]])  # zero first row
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # rank deficient: det 0
@example([[2, 4], [1, 2]])  # rank deficient, no zero row
@example([])  # the 0x0 determinant is 1
def test_eliminate_det_is_the_determinant_of_square_rows(rows):
    assert _eliminate(rows, len(rows)).det == cofactor_determinant(rows)


@st.composite
def rows_and_factors(draw):
    """Integer rows, square about half the time, and a nonzero integer factor per row."""
    cols = draw(st.integers(1, 6))
    n = draw(st.one_of(st.just(cols), st.integers(0, 8)))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                         min_size=n, max_size=n))
    factors = draw(st.lists(st.integers(-40, 40).filter(bool), min_size=n, max_size=n))
    return rows, cols, factors


@given(rows_and_factors())
@example(([[1, 2], [3, 4]], 2, [2, 3]))  # both rows become pivots
@example(([[2, 4], [0, 3]], 2, [-5, 7]))  # a row with content 2, a negative factor
@example(([[0, 0], [1, 1]], 2, [9, 4]))  # a zero row
def test_eliminate_divides_each_row_by_its_content(case):
    # contents are divided as rows are read, so positive row factors change nothing the
    # basis holds, d included; det stays that of the rows as given, signs included
    rows, cols, factors = case
    b = _eliminate(rows, cols)
    scaled = _eliminate([[abs(k) * x for x in r] for k, r in zip(factors, rows)], cols)
    assert (scaled.rank, scaled.pivots, scaled.free, scaled.rows, scaled.d) == (
        b.rank, b.pivots, b.free, b.rows, b.d)
    signed = _eliminate([[k * x for x in r] for k, r in zip(factors, rows)], cols)
    assert (signed.rank, signed.pivots, signed.free) == (b.rank, b.pivots, b.free)
    if len(rows) == cols:
        assert signed.det == math.prod(factors) * b.det


@st.composite
def square_rows_of_mixed_widths(draw):
    """n x n integer rows, n = 1..6, each of its own entry width, from 1 bit to well past
    _WIDE, so the slot width falls on both sides of it; some rows are then zero, a multiple
    of a row (a repeat, or a wide content) or the sum of two rows (singular when they differ)."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        bits = draw(st.one_of(st.integers(1, 12), st.integers(13, 2 * _WIDE)))
        entries = st.integers(-(1 << bits), 1 << bits)
        rows.append(draw(st.lists(entries, min_size=n, max_size=n).filter(any)))
    for i in range(n):
        kind = draw(st.sampled_from(["drawn"] * 12 + ["zero", "multiple", "sum"]))
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "multiple":
            wide = st.integers(-(1 << _WIDE), 1 << _WIDE)
            f = draw(st.one_of(st.integers(-3, 3), wide).filter(bool))
            rows[i] = [f * x for x in rows[j]]
        elif kind == "sum":
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    return rows


@given(square_rows_of_mixed_widths())
@example([])  # the 0x0 determinant is 1
@example([[0]])
@example([[0, 1], [1, 0]])  # the pivot row pops from position 1
@example([[3, 5], [3, 5]])  # a repeated row
@example([[6, 0, 0], [0, 0, 0], [0, 0, 1]])  # a zero row
@example([[1 << 300, 1], [1, 0]])  # past _WIDE
@example([[1, 2, 3], [4, 5, 6], [7, 8, 10]])  # dense, det -3
def test_packed_det_is_the_determinant_of_square_rows(rows):
    assert _det(rows, len(rows)) == cofactor_determinant(rows)


def permutation_sign(perm) -> int:
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


@pytest.mark.parametrize("perm", [p for n in (3, 4) for p in itertools.permutations(range(n))])
def test_packed_det_pops_pivots_from_odd_and_even_positions(perm):
    # row i of a permutation matrix has its entry i + 2 in column perm[i], so the pivot of each
    # column pops from wherever that row stands among the rest: every position, every step
    n = len(perm)
    rows = [[(c == p) * (i + 2) for c in range(n)] for i, p in enumerate(perm)]
    expected = permutation_sign(perm) * math.factorial(n + 1)
    assert _det(rows, n) == expected == cofactor_determinant(rows)


def sylvester_hadamard(k: int) -> list[list[int]]:
    """The Sylvester-Hadamard +-1 matrix of order 2^k: H -> [[H, H], [H, -H]]."""
    h = [[1]]
    for _ in range(k):
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def test_packed_det_on_the_order_16_sylvester_hadamard_matrix():
    # its rows are orthogonal, so |det| = 16^8 = 2^32 is the product of the row norms: it meets
    # Hadamard's bound, the tightest case for the slot width. Negated and permuted rows too
    h = sylvester_hadamard(4)
    det = fraction_rref(ExactMatrix(h)).determinant
    assert abs(det) == 2 ** 32 and _det(h, 16) == det
    rng = random.Random(16)
    for _ in range(30):
        perm, signs = rng.sample(range(16), 16), [rng.choice((-1, 1)) for _ in range(16)]
        rows = [[s * x for x in h[p]] for s, p in zip(signs, perm)]
        assert _det(rows, 16) == permutation_sign(perm) * math.prod(signs) * det
    assert _det([[-x for x in r] for r in h], 16) == det


def random_rows(n: int, bits: int) -> list[list[int]]:
    rng = random.Random(bits)
    return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("rows,eliminations", [
    ([[1 << _WIDE - 4, 1], [1, 0]], 0),  # slot width (2 (_WIDE - 4) + 2) // 2 + 3 = _WIDE
    ([[1 << _WIDE - 3, 1], [1, 0]], 1),  # one bit wider
    (random_rows(16, 9), 0),  # 16 x 16 rows of 10-bit entries: slots of about 170 bits
    (random_rows(16, 40), 1),  # of 41-bit entries: about 660
    ([[x << 300 for x in r] for r in random_rows(16, 9)], 1),  # rows are packed as given
])
def test_packed_det_hands_rows_wider_than_WIDE_to_eliminate(rows, eliminations, monkeypatch):
    expected = _eliminate(rows, len(rows)).det
    calls = count_calls(monkeypatch, ["_eliminate"], [qlinalg])
    assert _det(rows, len(rows)) == expected and calls == {"_eliminate": eliminations}


@pytest.mark.parametrize("dim,seed", [(3, 1), (3, 2), (4, 3), (4, 4), (5, 5), (6, 6)])
def test_echelon_of_operators_matches_fraction_gauss_jordan(dim, seed):
    a = random_algebra(SampleConfig(dim=dim, trials=1, seed=seed), 0)
    for m in (build_M(a), build_HL(a)):
        assert echelonize(m) == fraction_rref(m)


def assert_package_built(m):
    """``_ints`` holds tuple rows of int over a positive den in lowest terms, and m is
    equal to, and hashes like, the same entries passed through the public constructor."""
    rows, den = m._ints
    assert type(den) is int and den > 0 and type(rows) is tuple and len(rows) == m.rows
    assert all(type(row) is tuple and len(row) == m.cols and all(type(x) is int for x in row)
               for row in rows)
    assert math.gcd(den, *(x for row in rows for x in row)) == 1
    public = ExactMatrix(rows_of(m), cols=m.cols)
    assert m == public and hash(m) == hash(public)


def int_matrix(rows, cols):
    return st.lists(st.lists(st.integers(-40, 40), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def exact_matrix(rows, cols):
    return st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=rows,
                    max_size=rows).map(lambda entries: ExactMatrix(entries, cols=cols))


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda rc: st.tuples(int_matrix(*rc), st.just(rc[1]))),
       st.integers(-12, 12).filter(bool), st.integers(1, 6))
@example(([], 3), -4, 1)  # no rows
@example(([[0, 0], [0, 0]], 2), -6, 1)  # zero rows over a negative den
@example(([[2, -4], [6, 8]], 2), -2, 3)  # a common factor and a negative den
@example(([[], []], 0), 5, 1)  # rows of no entries
def test_of_equals_the_public_constructor(shaped, den, factor):
    rows, cols = shaped
    rows, den = [[factor * x for x in row] for row in rows], factor * den
    m = ExactMatrix._of(rows, cols, den)
    public = ExactMatrix([[Fraction(x, den) for x in row] for row in rows], cols=cols)
    assert m == public and hash(m) == hash(public) and repr(m) == repr(public)
    assert_package_built(m)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda rk: st.tuples(exact_matrix(*rk), st.lists(fractions, min_size=rk[1],
                                                     max_size=rk[1]))))
def test_arithmetic_matches_entrywise_fractions(matrix_and_vector):
    a, v = matrix_and_vector
    product = a.apply(v)
    assert product == tuple(sum((s[j] * v[j] for j in range(a.cols)), Fraction(0))
                            for s in rows_of(a))
    assert all(type(p) is Fraction for p in product)


@given(sparse_matrix())
def test_reduced_matrix_is_built_like_a_public_one(m):
    assert_package_built(echelonize(m).reduced)


@pytest.mark.parametrize("dim,seed", [(3, 1), (4, 3), (5, 5), (6, 6)])
def test_operator_matrices_are_built_like_public_ones(dim, seed):
    for a in (random_algebra(SampleConfig(dim=dim, trials=1, seed=seed), 0),
              rand_algebra(random.Random(seed), dim)):  # rational constants, den > 1
        for m in (build_M(a), build_HL(a), killing_matrix(a)):
            assert_package_built(m)
            assert_package_built(echelonize(m).reduced)


@given(frac_matrix(4, 5))
def test_echelon_idempotent(m):
    once = echelonize(m).reduced
    assert echelonize(once).reduced == once


@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_rank_nullity(rows, cols, data):
    m = data.draw(frac_matrix(rows, cols))
    assert echelonize(m).rank + len(kernel_basis(m)) == cols


# --- kernels ---

def test_kernel_of_zero_map_is_everything():
    vecs = kernel_basis(ExactMatrix.zeros(3, 9))
    assert len(vecs) == 9
    # canonical: unit vectors in increasing column order
    for i, v in enumerate(vecs):
        assert v[i] == 1 and sum(1 for x in v if x != 0) == 1


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(ExactMatrix.identity(9)) == []


@given(frac_matrix(4, 6))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


# --- determinants ---

def test_determinant_identity():
    assert determinant(ExactMatrix.identity(4)) == 1


def test_determinant_rejects_non_square():
    with pytest.raises(NonSquareError):
        determinant(ExactMatrix.zeros(2, 3))


def test_determinant_of_reference_16x16_table():
    m = ExactMatrix(HL16_TABLE)
    assert determinant(m) == HL16_TABLE_DET
    # re-derive the frozen value through the independent cofactor oracle
    assert cofactor_determinant(HL16_TABLE) == HL16_TABLE_DET


@given(st.integers(1, 4).flatmap(lambda n: frac_matrix(n, n)))
@example(ExactMatrix([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1]]))  # singular
@example(ExactMatrix([[0, 2, 1], [Fraction(3, 2), 1, 0], [1, 0, 4]]))  # row swap
@example(ExactMatrix([[0, 1], [1, 0]]))  # pivots out of order: det -1
@example(ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # 3-cycle: det +1
@example(ExactMatrix([[0, 0, 0], [0, 2, 1], [3, 1, 0]]))  # zero first row
@example(ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))  # dependent middle row
def test_determinant_matches_cofactor_expansion(m):
    assert determinant(m) == cofactor_determinant(rows_of(m))


@given(st.integers(1, 4).flatmap(lambda n: frac_matrix(n, n)))
def test_determinant_nonzero_iff_full_rank(m):
    assert (determinant(m) != 0) == (echelonize(m).rank == m.rows)


def test_determinant_with_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)],
                     [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)


@pytest.mark.parametrize("seed", range(6))
def test_rank_rref_determinant_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = 2 + seed
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6
             else Fraction(0) for _ in range(n)] for _ in range(n)]
    if seed % 2:
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]  # singular
    m, ref = ExactMatrix(rows), sympy.Matrix(rows)
    ref_rref, ref_pivots = ref.rref()
    ech = echelonize(m)
    assert ech.rank == ref.rank()
    assert ech.pivot_columns == ref_pivots
    assert rows_of(ech.reduced) == [[Fraction(int(x.p), int(x.q)) for x in ref_rref.row(i)]
                                    for i in range(n)]
    det = ref.det()
    assert determinant(m) == Fraction(int(det.p), int(det.q))


# --- inverse ---

def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        m = ExactMatrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        if determinant(m) == 0:
            continue
        assert fraction_matmul(m, inverse(m)) == ExactMatrix.identity(3)
        assert fraction_matmul(inverse(m), m) == ExactMatrix.identity(3)


def test_empty_matrix_identity_inverse_and_determinant():
    empty = ExactMatrix([], cols=0)
    assert ExactMatrix.identity(0) == empty
    assert inverse(empty) == empty
    assert determinant(empty) == 1


def test_inverse_rejects_singular():
    with pytest.raises(SingularMapError):
        inverse(ExactMatrix([[1, 2], [2, 4]]))


# --- scalar plumbing ---

@given(fractions, fractions)
def test_exact_addition_cancels(a, b):
    assert (a + b) - b == a


@given(fractions, fractions.filter(lambda x: x != 0))
def test_exact_multiplication_cancels(a, b):
    assert (a * b) / b == a


@pytest.mark.parametrize("text,value", [
    ("3/4", Fraction(3, 4)),
    ("-3/4", Fraction(-3, 4)),
    ("7", Fraction(7)),
    ("-7", Fraction(-7)),
    ("0", Fraction(0)),
    ("6/4", Fraction(3, 2)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1.5", "1e3", "1/-2", "/3", "a", "", "1 / 2", "3/0",
                                  "\u0661/\u0662", "\uff11\uff12", "1/\u0969"])
def test_parse_rational_rejects_non_rationals(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("value", [0.5, 1.0, None, [1]])
def test_format_rational_rejects_what_is_no_exact_rational(value):
    # a float once raised AttributeError
    with pytest.raises(TypeError):
        format_rational(value)


@given(fractions)
def test_format_parse_roundtrip(q):
    text = format_rational(q)
    assert "/" not in text or int(text.split("/")[1]) > 1
    assert parse_rational(text) == q


def test_matrix_shape_and_access():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    assert m.column(1) == (2, 5)
    assert rank(m) == 2


@pytest.mark.parametrize("value", [[[1, 0], [0, 1]], ((1,),), None],
                         ids=["list", "tuple", "none"])
@pytest.mark.parametrize("fn", [rank, determinant, inverse, kernel_basis, echelonize])
def test_linear_algebra_rejects_what_is_no_exact_matrix(fn, value):
    # a plain list of rows once raised AttributeError: 'list' object has no attribute '_ints'
    with pytest.raises(TypeError, match="ExactMatrix"):
        fn(value)


# --- full-rank certificate mod p ---

# small entries, multiples of p and residues p - 1, and entries far wider than a slot
certificate_entries = st.one_of(st.integers(-3, 3),
                                st.sampled_from([_P, -_P, _P - 1, 2 * _P + 1, _P * _P]),
                                st.integers(-2 ** 80, 2 ** 80))


@st.composite
def certificate_rows(draw):
    """(rows, cols) with cols to cols + 3 rows, often plus a row dependent on two others."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(certificate_entries, min_size=cols, max_size=cols),
                         min_size=cols, max_size=cols + 3))
    if draw(st.booleans()):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        u, v = draw(certificate_entries), draw(certificate_entries)
        rows.insert(draw(st.integers(0, len(rows))),
                    [u * x + v * y for x, y in zip(rows[i], rows[j])])
    return rows, cols


@given(certificate_rows())
@example(([[1, 0], [0, _P]], 2))  # full rank over Q, singular mod p
@example(([[0, 0], [1, 1], [2, 2], [0, 3]], 2))  # an all-zero row and a dependent one
def test_full_rank_mod_p_is_only_true_at_full_rank(shaped):
    rows, cols = shaped
    if _full_rank_mod_p(map(_pack, rows), cols):
        assert _eliminate(rows, cols).rank == cols


@given(certificate_rows())
@example(([[1, 0], [0, _P]], 2))
@example(([[0, 0], [1, 1], [2, 2], [0, 3]], 2))
@example(([[_P - 1, 1, 0], [1, _P - 1, 0], [0, 0, 1]], 3))  # singular mod p only
def test_full_rank_mod_p_is_true_exactly_at_full_rank_mod_p(shaped):
    # equality, not only "True implies full rank": reading rows until cols pivots or their
    # end, the certificate says True iff the rank mod p, by plain list elimination, is cols
    rows, cols = shaped
    assert (_full_rank_mod_p(map(_pack, rows), cols)
            == (rank_mod_p(rows, _P) == cols))


def test_rank_mod_p_oracle_on_small_cases():
    assert rank_mod_p([[1, 0], [0, _P]], _P) == 1
    assert rank_mod_p([[2, 4], [1, 2], [0, 3]], 7) == 2
    assert rank_mod_p([[7, 14], [21, 0]], 7) == 0
    assert rank_mod_p([], _P) == 0


def test_a_row_scaled_by_p_leaves_the_certificate_nothing_to_prove():
    rows = [[2, 1, 0], [_P, 3 * _P, _P], [0, 1, 4]]
    assert _eliminate(rows, 3).rank == 3
    assert not _full_rank_mod_p(map(_pack, rows), 3)
    # a further row that restores the rank mod p
    assert _full_rank_mod_p(map(_pack, rows + [[1, 3, 1]]), 3)


def test_full_rank_mod_p_stops_reading_at_full_rank_and_a_false_reads_every_row():
    read = []

    def rows(entries):
        for row in entries:
            read.append(row)
            yield row

    assert _full_rank_mod_p(map(_pack, rows([[1, 0], [0, 1], [1, 1]])), 2) and len(read) == 2
    read.clear()
    assert not _full_rank_mod_p(map(_pack, rows([[0, 0], [1, 1], [2, 2], [3, 3], [0, _P]])), 2)
    assert len(read) == 5  # no row count ends the reading short of full rank


def _raw(slots):
    """Slots packed as they stand, not reduced mod p (``_pack`` reduces them)."""
    return sum(v << _SLOT * c for c, v in enumerate(slots))


# the widest slot of an operator row: HL's pair blocks sum n = MAX_DIM products of residues,
# in a row of COLS = MAX_DIM^2 columns
WIDEST_INPUT, COLS = MAX_DIM * (_P - 1) ** 2, MAX_DIM ** 2


def _fold(v):
    return (v & _P) + (v >> _FOLD)


@pytest.mark.parametrize("rows,last", [
    ([[0 if i == j else _P - 1 for j in range(COLS)] for i in range(COLS)], None),
    ([[0 if i == j else 1 for j in range(COLS)] for i in range(COLS)], None),
    ([[int(i == j) for j in range(COLS - 1)] + [_P - 1] for i in range(COLS - 1)]
     + [[1] * (COLS - 1) + [_P - 1]], None),
    ([[int(i == j) for j in range(COLS - 1)] + [_P - 1] for i in range(COLS - 1)],
     [(_P - 1) ** 2] * (COLS - 1) + [WIDEST_INPUT]),
], ids=["residues-p-1", "weights-p-1", "weights-and-slots-p-1", "widest-input-slots"])
def test_certificate_slots_hold_at_36_columns(rows, last):
    # the bound at COLS = MAX_DIM^2 = 36 columns: a row's slots, given at most n (p - 1)^2
    # (WIDEST_INPUT, HL's pair blocks at n = 6; M's are 2 (p - 1), ``_pack``'s p - 1), gain
    # at most (COLS - 1) (p - 1)^2 in its reduction: they stay below 41 (p - 1)^2, under
    # 2^_SLOT, and two folds take any slot below 2^_SLOT to [0, 2p], where the canonical step
    # reduces it. Residue p - 1 off the diagonal and 0 on it is -(J - I) mod p, residue 1 there
    # J - I. In the third case the basis rows are 1 at their pivot c < 35 and p - 1 in column
    # 35, and the last row is 1 at every pivot, so it takes 35 weights p - 1, each against a
    # basis slot p - 1. The fourth feeds that last row unreduced, (p - 1)^2 (a residue 1) at
    # each pivot and WIDEST_INPUT in column 35, which so reaches 41 (p - 1)^2. All four are
    # invertible, mod p too; then the last row becomes the sum of the others (in the fourth,
    # slots congruent to it, as wide as the fourth's), whose slots reduce to nonzero multiples
    # of p: a slot that carried, or a fold or the canonical step left out, leaves them nonzero
    assert WIDEST_INPUT + (COLS - 1) * (_P - 1) ** 2 < 2 ** _SLOT
    # one fold takes a slot to at most top; on [0, top] the second fold peaks at top or at
    # the number just below top's last multiple of 2^_FOLD
    top = _fold(2 ** _SLOT - 1)
    assert max(_fold(top), _fold((top >> _FOLD << _FOLD) - 1)) <= 2 * _P
    assert all(0 <= v < 2 ** _SLOT for v in last or [])
    packed = [*map(_pack, rows)] + ([_raw(last)] if last else [])
    full = rows + ([last] if last else [])
    assert rank_mod_p(full, _P) == COLS
    assert _full_rank_mod_p(iter(packed), COLS)
    assert _eliminate(full, COLS).rank == COLS
    k = COLS - 1
    if last:  # congruent to the basis rows' sum: 1 at each pivot, k (p - 1) = -k in column k
        dependent = full[:k] + [last[:k] + [WIDEST_INPUT - MAX_DIM - k]]
        slots = packed[:k] + [_raw(dependent[k])]
    else:
        dependent = full[:k] + [[sum(column) for column in zip(*full[:k])]]
        slots = [*map(_pack, dependent)]
    assert rank_mod_p(dependent, _P) == k
    assert not _full_rank_mod_p(iter(slots), COLS)
    if not last:
        assert _eliminate(dependent, COLS).rank == k
