"""The integer report path at its boundaries: literals parsed as integer pairs,
exact numbers formatted from integers over a denominator, kernels read as integer
vectors off the elimination, and the ``--json`` writer, each against the
``Fraction`` or stdlib route it replaces."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from skewlie import SkewAlgebra, heisenberg, transport
from skewlie import structmats as sm
from skewlie.cli import _dumps, _endo_rows, main, parse_algebra, serialize_algebra
from skewlie.qlinalg import (ExactMatrix, _eliminate, _format_ratio, _parse_ratio,
                             echelonize, format_rational, parse_rational)

from helpers import (fraction_build_HL, fraction_build_M, fraction_rref,
                     rand_rational_invertible, rows_of)


# --- the writer: byte for byte what json.dumps(indent=2, sort_keys=True) writes ---

# non-ASCII, quotes, backslashes and control characters, besides arbitrary text
awkward_text = st.one_of(st.text(), st.text(alphabet='"\\/\x00\x1f\x7f\n\t é \U0001f600ab'))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), awkward_text)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(awkward_text, max_size=4),
                           st.dictionaries(awkward_text, kids, max_size=4)),
    max_leaves=25)


@given(json_values)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "": None})
@example([True, False, 0, -1, 10 ** 30, "x"])
# lists of lists beside strings, which a writer that joins string rows gets wrong
@example([[], "x"])
@example([["a"], "b"])
@example([["a", 1], ["b"]])
@example([[["a"]]])
# a str first, then something else: the one join raises and the list is written item by item
@example(["a", ["b"]])
@example(["a", 1])
@example(["a", None])
@example(["a", True])
# a first item that is no str, then strings: the one join is not tried
@example([1, "a"])
@example([True, "x"])
@example([None, "x"])
def test_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


GOLDEN = Path(__file__).parent / "golden"


def test_writer_raises_nothing_on_a_golden_report():
    """A list takes the one join only when its first item is a str, so writing a
    report catches no TypeError: no frame of ``_dumps`` sees an exception."""
    code, raised = _dumps.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "exception":
            raised.append(arg[0].__name__)
        return trace

    paths = sorted(GOLDEN.glob("*/analyze.json"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    reports = [json.loads(text) for text in texts]
    saved = sys.gettrace()
    sys.settrace(trace)
    try:
        written = [_dumps(report) + "\n" for report in reports]
    finally:
        sys.settrace(saved)
    assert len(paths) >= 20 and written == texts
    assert raised == []


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": 1, 2: "b"},
                                   {"a": [1, {"b": 0.5}]}, {True: 1}, set()])
def test_writer_raises_type_error_on_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


# --- the formatter ---

@given(st.integers(-10 ** 40, 10 ** 40), st.integers(-10 ** 20, 10 ** 20).filter(bool))
@example(0, 7)
@example(0, -7)
@example(6, -4)
@example(-6, -4)
@example(5, 1)
@example(5, -1)
def test_format_ratio_matches_format_rational(p, q):
    assert _format_ratio(p, q) == format_rational(Fraction(p, q))


@pytest.mark.parametrize("p,q", [(0, 1), (0, -1), (0, 7), (0, -7),
                                 (3, 1), (-3, -1), (6, -4), (-10 ** 30, 7 * 10 ** 29)])
def test_format_ratio_returns_0_for_p_0_before_the_gcd(p, q):
    assert (_format_ratio(p, q) == "0") == (p == 0)
    assert _format_ratio(p, q) == format_rational(Fraction(p, q))


@st.composite
def integer_kernels(draw):
    """(n, vecs, q) as a solution space holds it: column-major n x n integer vectors over
    a q of either sign, with entries 0, q, -q and multiples of q among arbitrary ones."""
    n = draw(st.integers(1, 6))
    q = draw(st.one_of(st.integers(-12, 12), st.integers(-10 ** 12, 10 ** 12)).filter(bool))
    entry = st.one_of(st.sampled_from([0, q, -q]), st.integers(-5, 5).map(lambda k: k * q),
                      st.integers(-10 ** 15, 10 ** 15))
    return n, draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n), max_size=4)), q


@given(integer_kernels())
@example((2, [[0, -3, 3, -6]], -3))  # q < 0: the entry q reads "1" and -q reads "-1"
@example((1, [[5], [0]], 5))
@example((3, [], 1))
def test_endo_rows_match_per_entry_format_ratio(kernel):
    n, vecs, q = kernel
    assert _endo_rows(kernel) == [[[_format_ratio(v[c * n + r], q) for c in range(n)]
                                   for r in range(n)] for v in vecs]


# --- the parser ---

@st.composite
def literals(draw):
    """A literal as a document may hold it: a bare int, or text with an optional
    sign, an unreduced or unit denominator, and surrounding whitespace."""
    p, q = draw(st.integers(-60, 60)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return p
    sign = "+" if p >= 0 and draw(st.booleans()) else ""
    body = f"{sign}{p}/{q}" if draw(st.booleans()) else f"{sign}{p}"
    pad = draw(st.sampled_from(["", " ", "\t", " \n"]))
    return pad + body + pad


@st.composite
def documents(draw):
    dim = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return dim, {ij: [draw(literals()) for _ in range(dim)] for ij in chosen}


def _document(dim, table):
    return json.dumps({"dim": dim, "products": [{"i": i, "j": j, "c": c}
                                                for (i, j), c in table.items()]})


@given(documents())
@example((3, {(1, 2): ["2/4", "+3", "-0"], (2, 3): [" 1/2 ", 4, "-6/8"]}))
@example((2, {(1, 2): ["0/5", "-0"]}))
def test_parse_algebra_equals_the_fraction_constructor(doc):
    dim, table = doc
    a = parse_algebra(_document(dim, table))
    expected = SkewAlgebra(dim, {ij: [Fraction(str(lit).strip()) for lit in c]
                                 for ij, c in table.items()})
    assert a == expected and a._ints == expected._ints
    assert serialize_algebra(a)["products"] == [
        {"i": i, "j": j, "c": [format_rational(x) for x in v]}
        for (i, j), v in expected.products.items()]


@given(documents(), st.integers(1, 50))
def test_of_is_canonical_under_a_common_factor(doc, k):
    a = parse_algebra(_document(*doc))
    t, den = a._ints
    upper = {(i, j): [k * x for x in t[i][j]] for i in range(a.dim) for j in range(i + 1, a.dim)}
    assert SkewAlgebra._of(a.dim, upper, k * den)._ints == a._ints


@pytest.mark.parametrize("text,pair", [("2/4", (2, 4)), ("+3", (3, 1)), ("-0", (0, 1)),
                                       (" 1/2 ", (1, 2)), ("-007/010", (-7, 10))])
def test_parse_ratio_keeps_the_literal_unreduced(text, pair):
    assert _parse_ratio(text) == pair
    assert parse_rational(text) == Fraction(*pair)


# --- integer kernels against the Fraction Gauss-Jordan oracle ---

def _over(vecs, q):
    return [tuple(Fraction(x, q) for x in v) for v in vecs]


def _sparse_algebra(rng, dim):
    """Few nonzero constants, so that the kernels are large."""
    table = {(i, j): [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)]
             for i in range(1, dim + 1) for j in range(i + 1, dim + 1) if rng.random() < 0.4}
    return SkewAlgebra(dim, table)


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
@pytest.mark.parametrize("dim", range(2, 7))
def test_integer_kernels_match_fraction_rref(dim, rational):
    rng = random.Random(100 * dim + rational)
    for _ in range(2):
        a = _sparse_algebra(rng, dim)
        if rational:
            a = transport(a, rand_rational_invertible(rng, dim))
        ders = sm.derivation_space(a)
        n, vecs, q = ders._kernel
        expected = fraction_rref(fraction_build_M(a)).kernel()
        assert n == dim and _over(vecs, q) == expected and ders.dim == len(expected)
        assert ders.basis == tuple(sm.endo_of_vec(dim, v) for v in expected)
        space = sm.homlie_space(a)
        n, vecs, q = space._kernel
        expected = (fraction_rref(fraction_build_HL(a)).kernel() if dim > 2 else
                    [tuple(Fraction(int(k == c)) for k in range(4)) for c in range(4)])
        assert _over(vecs, q) == expected
        assert space.basis == tuple(sm.endo_of_vec(dim, v) for v in expected)


small_ints = st.integers(-4, 4)


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(small_ints, min_size=cols, max_size=cols), min_size=1, max_size=6)))
@example([[-2, 1], [0, 0]])  # the first pivot is negative, so d < 0
def test_eliminate_kernel_ints_match_fraction_rref(rows):
    vecs, d = _eliminate(rows, len(rows[0])).kernel_ints()
    expected = fraction_rref(ExactMatrix(rows)).kernel()
    assert _over(vecs, d) == expected == echelonize(ExactMatrix(rows)).kernel()
    if rows == [[-2, 1], [0, 0]]:
        assert d < 0


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(small_ints, min_size=cols, max_size=cols), min_size=1, max_size=6)))
@example([[-2, 1], [0, 0]])  # the first pivot is negative, so d < 0
def test_eliminate_span_rows_match_fraction_rref(rows):
    b = _eliminate(rows, len(rows[0]))
    expected = fraction_rref(ExactMatrix(rows))
    assert [[Fraction(x, b.d) for x in r] for r in b.span_rows()] == rows_of(
        expected.reduced)[:expected.rank]
    if rows == [[-2, 1], [0, 0]]:
        assert b.d < 0


def test_derivation_basis_is_built_on_first_read_and_kept():
    ders = sm.derivation_space(heisenberg())
    assert "basis" not in vars(ders)
    assert ders.basis is ders.basis and len(ders.basis) == ders.dim == 6


# --- messages and exit codes at the boundary ---

def _run(tmp_path, literal):
    path = tmp_path / "doc.json"
    path.write_text(_document(3, {(1, 2): ["0", literal, "0"]}), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "--json"])
    return code, err.getvalue()


def _limit_message(digits):
    """The interpreter's own message for an over-limit int conversion (its wording varies)."""
    with pytest.raises(ValueError) as e:
        int("1" * digits)
    return str(e.value)


@pytest.fixture
def default_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("literal,message", [
    ("1/0", "zero denominator: '1/0'"),
    (" 0/0 ", "zero denominator: '0/0'"),
    ("١/٢", "not a rational literal: '١/٢'"),
    ("1/2/3", "not a rational literal: '1/2/3'"),
])
def test_literal_errors_keep_their_messages_and_exit_2(tmp_path, literal, message):
    assert _run(tmp_path, literal) == (2, f"error: products[0].c[1]: {message}\n")


def test_over_limit_literal_keeps_its_message_and_exits_2(tmp_path, default_digit_limit):
    for literal, digits in (("1" * 5000, 5000), ("-" + "1" * 5000, 5000),
                            ("1/" + "2" * 4400, 4400), ("3" * 4500 + "/0", 4500),
                            ("3" * 4500 + "/" + "2" * 4400, 4500)):
        assert _run(tmp_path, literal) == (
            2, f"error: products[0].c[1]: {_limit_message(digits)}\n")


def test_oversized_result_keeps_its_message_and_exits_2(tmp_path, default_digit_limit):
    path = tmp_path / "big.json"
    path.write_text(_document(3, {(1, 2): ["0", "7" * 2200, "0"], (1, 3): ["0", "0", "7" * 2200]}),
                    encoding="utf-8")
    for cmd in ("analyze", "killing"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([cmd, str(path), "--json"]) == 2
        assert err.getvalue() == ("error: exact result too large to print: over 4300 digits, "
                                  "Python's int-to-str limit (PYTHONINTMAXSTRDIGITS)\n")
