import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from skewlie import (ExactMatrix, SkewAlgebra, abelian, algebra3, basis_vec,
                     classify, determinant, echelonize, find_regular_pair,
                     heisenberg, homlie_space, is_lie, lie_type_constants, multiply,
                     transport)
from skewlie.classify import (ABELIAN, HEISENBERG, NS1, SOLVABLE_LIE_LINE,
                              SOLVABLE_LIE_PLANE, SOLVABLE_NON_LIE, TAGS,
                              ns1_family, ns2_family, sol_family)
from skewlie.errors import (InvariantError, RegularPairNotFoundError,
                            UnsupportedDimError)

from helpers import (_cyclic_terms, fraction_lie_type_constants,
                     fraction_ns1_witness, fraction_search_pairs,
                     fraction_vectors_up_to, greedy_extend_with_standard,
                     lie_type_relation_holds, normal_form_of, rand_algebra,
                     rand_fraction, rand_invertible, rand_nonzero_fraction,
                     rand_rational_invertible)

# the package attribute ``skewlie.classify`` is the function, not the module
classify_module = importlib.import_module("skewlie.classify")
alg_module = importlib.import_module("skewlie.algebra")


def assert_sound(a, result):
    assert determinant(result.witness) != 0
    assert transport(a, result.witness) == normal_form_of(result)
    assert result.lie == is_lie(a)


# --- worked examples ---

def test_abelian():
    r = classify(abelian(3))
    assert r.tag == ABELIAN and r.params == {}
    assert r.witness == ExactMatrix.identity(3)


def test_heisenberg_adapted_input():
    r = classify(heisenberg())
    assert r.tag == HEISENBERG
    assert r.witness == ExactMatrix.identity(3)
    assert_sound(heisenberg(), r)


def test_heisenberg_permuted_basis():
    a = SkewAlgebra(3, {(2, 3): (1, 0, 0)})  # e2*e3 = e1
    r = classify(a)
    assert r.tag == HEISENBERG
    perm = ExactMatrix.from_columns([(0, 1, 0), (0, 0, 1), (1, 0, 0)])
    assert r.witness == perm
    assert_sound(a, r)


def test_cross_product_like_algebra_is_ns1():
    a = algebra3(0, 0, 1, 0, 1, 0, 1, 0, 0)  # e1e2=e3, e1e3=e2, e2e3=e1
    r = classify(a)
    assert r.tag == NS1
    assert (r.params["beta2"], r.params["alpha3"]) == (1, 1)
    assert (r.params["gamma2"], r.params["beta3"], r.params["gamma3"]) == (0, 0, 0)
    assert r.lie is True
    assert_sound(a, r)


def test_plane_example():
    a = algebra3(0, 1, 0, 0, 0, 1, 0, 0, 0)  # e1e2=e2, e1e3=e3
    r = classify(a)
    assert r.tag == SOLVABLE_LIE_PLANE
    assert r.params == {"beta1": 1, "gamma1": 0, "beta2": 0, "gamma2": 1}
    assert_sound(a, r)


def test_line_example():
    a = SkewAlgebra(3, {(1, 3): (0, 0, 1)})
    r = classify(a)
    assert r.tag == SOLVABLE_LIE_LINE
    assert_sound(a, r)


def test_sol_example_identity_witness():
    a = sol_family(2, 3, 5, 7)
    r = classify(a)
    assert r.tag == SOLVABLE_NON_LIE
    assert r.params == {"beta1": 2, "gamma1": 3, "beta2": 5, "gamma2": 7}
    assert not r.lie
    assert_sound(a, r)


def test_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimError):
        classify(abelian(4))


# --- regular pairs ---

def test_regular_pair_found_at_height_one():
    a = algebra3(0, 0, 1, 2, 3, 5, 7, 11, 13)  # e1*e2 = e3, rest generic
    x, y = find_regular_pair(a)
    assert (x, y) == (basis_vec(3, 1), basis_vec(3, 2))


def test_regular_pair_heisenberg():
    x, y = find_regular_pair(heisenberg())
    assert (x, y) == (basis_vec(3, 1), basis_vec(3, 2))
    z = multiply(heisenberg(), x, y)
    assert determinant(ExactMatrix.from_columns([x, y, z])) != 0


def test_regular_pair_not_found_for_abelian():
    with pytest.raises(RegularPairNotFoundError):
        find_regular_pair(abelian(3), max_height=2)


def test_regular_pair_determinant_property():
    rng = random.Random(21)
    for _ in range(20):
        a = rand_algebra(rng, dim=3)
        try:
            x, y = find_regular_pair(a)
        except RegularPairNotFoundError:
            continue
        z = multiply(a, x, y)
        assert determinant(ExactMatrix.from_columns([x, y, z])) != 0


# --- full sweep: soundness, completeness, invariance ---

def test_classification_sweep():
    rng = random.Random(22)
    seen = set()
    for _ in range(200):
        a = rand_algebra(rng, dim=3, height=2)
        r = classify(a)
        assert r.tag in TAGS
        seen.add(r.tag)
        assert_sound(a, r)
        p = rand_invertible(rng, 3)
        assert classify(transport(a, p)).tag == r.tag
    assert NS1 in seen  # random algebras are overwhelmingly non-solvable


def test_every_family_is_reachable():
    # targeted inputs landing in each solvable tag plus both non-solvable forms
    cases = [
        (abelian(3), ABELIAN),
        (heisenberg(), HEISENBERG),
        (SkewAlgebra(3, {(1, 2): (0, 0, 5)}), HEISENBERG),
        (SkewAlgebra(3, {(1, 3): (0, 0, 1)}), SOLVABLE_LIE_LINE),
        (SkewAlgebra(3, {(1, 2): (0, 0, 2), (1, 3): (0, 0, 3),
                         (2, 3): (0, 0, 5)}), SOLVABLE_LIE_LINE),
        (algebra3(0, 1, 0, 0, 0, 1, 0, 0, 0), SOLVABLE_LIE_PLANE),
        (algebra3(0, 0, 1, 0, 1, 0, 0, 0, 0), SOLVABLE_LIE_PLANE),
        (sol_family(1, 0, 0, 0), SOLVABLE_NON_LIE),
        (sol_family(0, 2, 3, -1), SOLVABLE_NON_LIE),
        (ns1_family(2, 3, 5, 7, 11), NS1),
        (ns2_family(1, 0, 0, -1, 0), NS1),  # ns2 inputs still admit an ns1 basis
    ]
    for a, tag in cases:
        r = classify(a)
        assert r.tag == tag, (a, r.tag, tag)
        assert_sound(a, r)


def test_fractional_constants_sweep():
    rng = random.Random(999)
    for _ in range(40):
        a = algebra3(*[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(9)])
        r = classify(a)
        assert_sound(a, r)
        p = rand_invertible(rng, 3)
        assert classify(transport(a, p)).tag == r.tag


def test_second_family_corner_inputs_stay_stable():
    # inputs built in the second non-solvable shape, including the corner
    # where the e2-coefficient of e1*e3 is exactly twice the e1-coefficient
    rng = random.Random(998)
    corners = [(1, 2, 0, -1, 0), (2, 4, 0, -2, 0), (-3, -6, 0, 3, 0),
               (1, 2, 5, -1, 7), (Fraction(1, 2), 1, 0, Fraction(-1, 2), 0)]
    for params in corners:
        a = ns2_family(*params)
        r = classify(a)
        assert_sound(a, r)
        for _ in range(4):
            b = transport(a, rand_invertible(rng, 3))
            r2 = classify(b)
            assert r2.tag == r.tag
            assert_sound(b, r2)


def _big_nonzero(rng):
    while True:
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        if x != 0:
            return x


def _rational_basis(rng):
    while True:
        p = ExactMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
        if determinant(p) != 0:
            return p


@pytest.mark.parametrize("family", ["ns1", "ns2"])
def test_height_three_finds_ns1_pair_for_large_constants(family):
    # the degree bound in _search_pairs says height 3 always suffices for a
    # non-solvable algebra, however large its structure constants
    rng = random.Random(4242 if family == "ns1" else 4343)
    for _ in range(6):
        params = [_big_nonzero(rng) for _ in range(5)]
        normal = ns1_family(*params) if family == "ns1" else ns2_family(*params)
        a = transport(normal, _rational_basis(rng))
        assert classify_module._search_pairs(a, want_ns1=True, max_height=3) is not None
        r = classify(a)
        assert r.tag == NS1
        assert_sound(a, r)


def test_solvable_families_stable_under_transport():
    rng = random.Random(23)
    for _ in range(15):
        b1 = rand_nonzero_fraction(rng)
        a = sol_family(b1, rand_fraction(rng), rand_fraction(rng),
                       rand_fraction(rng))
        p = rand_invertible(rng, 3)
        r = classify(transport(a, p))
        assert r.tag == SOLVABLE_NON_LIE
        assert_sound(transport(a, p), r)


def test_heisenberg_scrambled():
    rng = random.Random(24)
    for _ in range(10):
        a = transport(heisenberg(), rand_invertible(rng, 3))
        r = classify(a)
        assert r.tag == HEISENBERG
        assert_sound(a, r)


# --- Lie-type relation ---

def test_lie_algebras_admit_unit_coefficients():
    for a in (heisenberg(), algebra3(0, 1, 0, 0, 0, -1, 1, 0, 0),
              ns1_family(3, 0, 2, 0, 0)):
        assert is_lie(a)
        assert lie_type_relation_holds(a, 1, 1)
        sol = lie_type_constants(a)
        assert sol.admissible


def test_lie_type_of_scaling_example():
    a = algebra3(0, 1, 0, 0, 0, 1, 1, 0, 0)  # e1e2=e2, e1e3=e3, e2e3=e1
    sol = lie_type_constants(a)
    assert sol.particular == (0, -1)
    assert sol.homogeneous == ((1, 0),)
    assert sol.admissible
    assert lie_type_relation_holds(a, 5, -1)
    assert not lie_type_relation_holds(a, 5, 1)


def test_generic_ns1_not_lie_type():
    rng = random.Random(25)
    for _ in range(10):
        a = ns1_family(rand_nonzero_fraction(rng), rand_nonzero_fraction(rng),
                       rand_nonzero_fraction(rng), rand_nonzero_fraction(rng),
                       rand_nonzero_fraction(rng))
        sol = lie_type_constants(a)
        assert not sol.admissible


def test_lie_type_solutions_satisfy_relation():
    rng = random.Random(26)
    for _ in range(30):
        a = rand_algebra(rng, dim=3)
        sol = lie_type_constants(a)
        if sol.particular is None:
            continue
        pa, pb = sol.particular
        assert lie_type_relation_holds(a, pa, pb)
        for ha, hb in sol.homogeneous:
            t = Fraction(rng.randint(-4, 4))
            assert lie_type_relation_holds(a, pa + t * ha, pb + t * hb)


def test_cyclic_terms_match_multiply_twice():
    # the package's integer cyclic terms, sliced out of the exact pair blocks, over den²
    # against the helper's, which multiply twice
    rng = random.Random(27)
    cases = [heisenberg(), abelian(3), algebra3(0, 1, 0, 0, 0, 1, 1, 0, 0)]
    cases += [rand_algebra(rng, dim=3) for _ in range(10)]
    cases += [transport(a, rand_invertible(rng, 3)) for a in cases[3:8]]
    e1, e2, e3 = (basis_vec(3, i) for i in (1, 2, 3))
    for a in cases:
        q = a._ints[1] ** 2
        assert tuple(tuple(Fraction(x, q) for x in v)
                     for v in classify_module._cyclic_ints(a)) == _cyclic_terms(a) == (
            multiply(a, multiply(a, e1, e2), e3),
            multiply(a, multiply(a, e2, e3), e1),
            multiply(a, multiply(a, e3, e1), e2))


def test_lie_type_constants_reads_the_pair_blocks_that_homlie_space_built(monkeypatch):
    # a dim-3 analyze runs homlie_space before lie_type_constants; the exact HL pair blocks
    # it built hold the three cyclic terms, so the Lie-type relation forms no double
    # product. On an equal algebra with no tables it forms one per pair p < q
    calls, original = [], alg_module._double_product
    for mod in (alg_module, classify_module):  # each module that could bind it
        monkeypatch.setattr(mod, "_double_product",
                            lambda c, rows: calls.append(1) or original(c, rows), raising=False)
    rng = random.Random(5)
    for a in [heisenberg(), ns1_family(1, "2/3", -1, 0, 5), rand_algebra(rng, dim=3)]:
        expected = fraction_lie_type_constants(a)
        homlie_space(a)
        calls.clear()
        assert lie_type_constants(a) == expected and calls == []
        assert lie_type_constants(SkewAlgebra(3, a.products)) == expected and len(calls) == 3


@pytest.mark.parametrize("tag", [SOLVABLE_LIE_PLANE, SOLVABLE_NON_LIE])
def test_plane_completion_matches_greedy_oracle(tag):
    # the witness completes its plane columns f2, f3 by the lowest-index standard
    # vector off the plane; inputs have integer or rational constants and are
    # also moved by a random rational basis and by a permutation, which puts the
    # derived plane on other coordinate axes
    rng = random.Random(41)
    perms = [ExactMatrix.from_columns([basis_vec(3, i) for i in s])
             for s in ((2, 1, 3), (3, 2, 1), (1, 3, 2))]
    completions = set()
    for k in range(30):
        draw = (lambda: rng.randint(-3, 3)) if k % 2 else (lambda: rand_fraction(rng, 4, 3))
        b1, g1, b2, g2 = (draw() for _ in range(4))
        if tag == SOLVABLE_LIE_PLANE and b1 * g2 != b2 * g1:
            a = SkewAlgebra(3, {(1, 2): (0, b1, g1), (1, 3): (0, b2, g2)})
        elif tag == SOLVABLE_NON_LIE and (b1 or b2):
            a = sol_family(b1, g1, b2, g2)
        else:
            continue
        for b in (a, transport(a, rand_rational_invertible(rng, 3)),
                  transport(a, perms[k % 3])):
            r = classify(b)
            assert r.tag == tag
            f1, f2, f3 = (r.witness.column(j) for j in range(3))
            assert f1 == greedy_extend_with_standard([f2, f3], 3)[2]
            completions.add(f1)
    assert completions == {basis_vec(3, i) for i in (1, 2, 3)}


def test_lie_type_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimError):
        lie_type_constants(abelian(4))


# --- normal-form invariants (explicit checks, kept under python -O) ---

@pytest.mark.parametrize("seed", range(4))
def test_ns1_classify_transports_once(seed, monkeypatch):
    # the shear is read off base^-1; only the final witness is transported
    rng = random.Random(seed)
    a = transport(ns1_family(1, 2, -1, Fraction(1, 2), 3), rand_invertible(rng, 3))
    calls = []
    monkeypatch.setattr(classify_module, "transport",
                        lambda b, p: calls.append(1) or transport(b, p))
    result = classify(a)
    assert result.tag == NS1 and len(calls) == 1
    monkeypatch.undo()
    assert_sound(a, result)


def _without_ns1_pairs(monkeypatch):
    """Make the NS1 pair search come up empty, which scripts/ns1_certificate.py
    rules out for every non-solvable algebra."""
    search = classify_module._search_pairs
    monkeypatch.setattr(classify_module, "_search_pairs",
                        lambda a, want_ns1, max_height:
                        None if want_ns1 else search(a, want_ns1, max_height))


@pytest.mark.parametrize("a,no_ns1_pair", [
    (algebra3(0, 1, 0, 0, 0, 1, 0, 0, 0), False),  # SolvableLiePlane
    (sol_family(1, 0, 0, 2), False),               # SolvableNonLie
    (algebra3(0, 0, 1, 0, 1, 0, 1, 0, 0), False),  # NonSolvableNS1
    (ns2_family(2, 1, 0, 3, 1), True),             # non-solvable, search emptied
])
def test_wrong_normal_form_raises_invariant_error(monkeypatch, a, no_ns1_pair):
    if no_ns1_pair:
        _without_ns1_pairs(monkeypatch)
    wrong = SkewAlgebra(3, {(1, 2): (1, 0, 0), (1, 3): (1, 0, 0), (2, 3): (1, 0, 0)})
    monkeypatch.setattr(classify_module, "transport", lambda a, p: wrong)
    with pytest.raises(InvariantError, match="normal form|e1\\*e2|no NonSolvableNS1 pair"):
        classify(a)


# --- integer routes against their Fraction oracles ---

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
nonzero_fractions = fractions.filter(bool)
integer_algebras = st.builds(lambda cs: algebra3(*cs), st.tuples(*[st.integers(-3, 3)] * 9))
# mostly zero constants, so that the basis pairs fail and later candidates are reached
sparse_algebras = st.builds(lambda cs: algebra3(*cs),
                            st.tuples(*[st.sampled_from((0, 0, 0, 1, -1, 2))] * 9))
rational_algebras = st.builds(lambda cs: algebra3(*cs),
                              st.tuples(*[fractions] * 9)).filter(lambda a: a._ints[1] > 1)


def _lie_plane(draw):
    b1, g1, b2, g2 = (draw(fractions) for _ in range(4))
    assume(b1 * g2 != b2 * g1)  # e1 acts invertibly on the derived plane
    return SkewAlgebra(3, {(1, 2): (0, b1, g1), (1, 3): (0, b2, g2)})


SEVEN_FAMILIES = {
    "abelian": lambda d: abelian(3),
    "heisenberg": lambda d: heisenberg(),
    "line": lambda d: SkewAlgebra(3, {(1, 3): (0, 0, 1)}),
    "plane": _lie_plane,
    "sol": lambda d: sol_family(d(nonzero_fractions), d(fractions), d(fractions), d(fractions)),
    "ns1": lambda d: ns1_family(d(nonzero_fractions), d(fractions), d(nonzero_fractions),
                                d(fractions), d(fractions)),
    "ns2": lambda d: ns2_family(d(nonzero_fractions), d(fractions), d(fractions),
                                d(nonzero_fractions), d(fractions)),
}


@st.composite
def families_in_rational_basis(draw, names=tuple(SEVEN_FAMILIES)):
    """A normal form of one of the families moved to a random rational basis."""
    normal = SEVEN_FAMILIES[draw(st.sampled_from(names))](draw)
    p = ExactMatrix([[draw(fractions) for _ in range(3)] for _ in range(3)])
    assume(determinant(p) != 0)
    return transport(normal, p)


search_inputs = st.one_of(integer_algebras, sparse_algebras, rational_algebras,
                          families_in_rational_basis())


@given(search_inputs)
def test_search_pairs_matches_fraction_oracle(a):
    # An exhausted oracle search takes about a second per height past 1, so the
    # loop stops at the first empty height past 1. The tables agree at every
    # height (test_candidate_tables_match_fraction_enumeration), and
    # test_ns1_search_empty_when_no_ns1_pair_exists covers empty searches.
    for want_ns1 in (False, True):
        for h in range(1, 5):
            got = classify_module._search_pairs(a, want_ns1, h)
            if got is None and h > 1:
                break
            assert got == fraction_search_pairs(a, want_ns1, h)
    # det[x, y, xy] has degree <= 2 in each coordinate, so a regular pair, if
    # any exists, has height 1 (find_regular_pair's docstring)
    search = classify_module._search_pairs
    assert search(a, False, 2) == search(a, False, 1)


@pytest.mark.parametrize("normal", [abelian(3), heisenberg(),
                                    SkewAlgebra(3, {(1, 3): (0, 0, 1)}),
                                    algebra3(0, 1, 0, 0, 0, 1, 0, 0, 0)])
def test_ns1_search_empty_when_no_ns1_pair_exists(normal):
    # y, xy, y(xy) lie in a derived line, or in a plane on which y acts as a
    # scalar, so no NS1 pair exists at any height. (Regular pairs alone exist
    # in some solvable algebras: Heisenberg has e1, e2.)
    a = transport(normal, ExactMatrix([[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1],
                                       [1, 0, Fraction(-1, 3)]]))
    assert fraction_search_pairs(a, True, 1) is None
    for h in (1, 2):
        assert classify_module._search_pairs(a, True, h) is None
    if normal == heisenberg():
        assert classify_module._search_pairs(a, True, 3) is None


@given(st.one_of(integer_algebras, rational_algebras,
                 families_in_rational_basis(names=("ns1", "ns2"))))
def test_ns1_witness_matches_fraction_oracle(a):
    r = classify(a)
    assume(r.tag == NS1)
    x, y = classify_module._search_pairs(a, True, 4)
    assert r.witness == fraction_ns1_witness(a, x, y)
    assert_sound(a, r)


def _dense_algebras(constants):
    return st.builds(lambda cs: algebra3(*cs), st.tuples(*[constants] * 9))


@given(st.one_of(_dense_algebras(st.integers(-5, 5).filter(bool)),
                 _dense_algebras(nonzero_fractions)))
def test_nonsolvable_algebras_classify_as_ns1_with_a_height_3_pair(a):
    # scripts/ns1_certificate.py: every non-solvable algebra has an NS1 pair of
    # height <= 3, so classify never needs the second non-solvable form
    assume(classify_module._derived_algebra(a).rank == 3)
    assert classify_module._search_pairs(a, True, 3) is not None
    r = classify(a)
    assert r.tag == NS1
    assert_sound(a, r)


@given(search_inputs)
def test_lie_type_constants_match_fraction_oracle(a):
    assert lie_type_constants(a) == fraction_lie_type_constants(a)


FAMILY_TAGS = {"abelian": ABELIAN, "heisenberg": HEISENBERG, "line": SOLVABLE_LIE_LINE,
               "plane": SOLVABLE_LIE_PLANE, "sol": SOLVABLE_NON_LIE, "ns1": NS1, "ns2": NS1}


@given(st.sampled_from(sorted(FAMILY_TAGS)), st.data())
def test_families_in_a_rational_basis_keep_their_tag(name, data):
    a = data.draw(families_in_rational_basis(names=(name,)))
    r = classify(a)
    assert r.tag == FAMILY_TAGS[name]
    assert_sound(a, r)


def test_candidate_counts_and_order_are_pinned():
    table = classify_module._vectors_up_to
    counts = [len(table(3, h)) - len(table(3, h - 1)) for h in range(1, 5)]
    assert counts == [26, 98, 218, 386]
    # heights ascend; within one, the first coordinate runs fastest through 0, 1, -1, 2, -2
    assert table(3, 1)[:6] == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 1, 0),
                               (0, -1, 0))
    assert table(3, 2)[26:31] == ((2, 0, 0), (-2, 0, 0), (2, 1, 0), (-2, 1, 0), (2, -1, 0))


def test_candidate_tables_match_fraction_enumeration():
    table = classify_module._vectors_up_to
    for h in range(1, 6):
        assert table(3, h) == tuple(tuple(map(int, v)) for v in fraction_vectors_up_to(3, h))
        assert table(3, h)[:len(table(3, h - 1))] == table(3, h - 1)


def test_candidate_tables_are_kept_and_immutable():
    table = classify_module._vectors_up_to
    assert table(3, 4) is table(3, 4)
    assert type(table(3, 4)) is tuple and all(type(v) is tuple for v in table(3, 4))
    with pytest.raises(TypeError):
        table(3, 1)[0][0] = 5


def test_find_regular_pair_past_the_classifier_bound():
    table = classify_module._vectors_up_to
    assert len(table(3, 5)) - len(table(3, 4)) == 602
    assert find_regular_pair(heisenberg(), max_height=5) == (basis_vec(3, 1), basis_vec(3, 2))
    a = ns1_family(2, 3, 5, 7, 11)
    assert find_regular_pair(a, max_height=5) == find_regular_pair(a)
