import contextlib
import getopt
import importlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skewlie import (ExactMatrix, SampleConfig, SkewAlgebra, abelian, aut_dimension,
                     build_HL, build_M, determinant, filiform5, format_rational,
                     heisenberg, is_homlie, is_nilpotent, is_solvable,
                     orbit_dimension, random_algebra, rank, transport)
from skewlie import algebra as alg, qlinalg as ql, structmats as sm
from skewlie import cli
from skewlie.cli import main, parse_algebra, serialize_algebra
from skewlie.errors import InvariantError, ParseError

from helpers import count_calls, counterexample4, fraction_rref, rand_algebra, reference_parse

HEIS_DOC = '{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["0", "0", "1"]}]}'


# --- document parsing ---

def test_parse_heisenberg():
    assert parse_algebra(HEIS_DOC) == heisenberg()


def test_parse_empty_products_is_abelian():
    a = parse_algebra('{"dim": 3, "products": []}')
    assert a.products == {}


def test_parse_fractions_and_bare_integers():
    a = parse_algebra('{"dim": 2, "products": [{"i": 1, "j": 2, "c": ["1/2", -3]}]}')
    assert a.product(1, 2) == (0.5, -3)


@pytest.mark.parametrize("doc,exc", [
    ('{"dim": 3, "products": [{"i": 2, "j": 2, "c": ["1", "0", "0"]}]}', InvariantError),
    ('{"dim": 3, "products": [{"i": 2, "j": 1, "c": ["1", "0", "0"]}]}', InvariantError),
    ('{"dim": 3, "products": [{"i": 1, "j": 4, "c": ["1", "0", "0"]}]}', InvariantError),
    ('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["1", "0", "0"]},'
     ' {"i": 1, "j": 2, "c": ["0", "1", "0"]}]}', InvariantError),
    ('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["1", "0"]}]}', ParseError),
    ('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["1.5", "0", "0"]}]}', ParseError),
    ('{"dim": "three", "products": []}', ParseError),
    ('not json', ParseError),
    ('[1, 2]', ParseError),
    pytest.param('[' * 100000, ParseError, id="deeply-nested-ParseError"),
    pytest.param('{"dim": 1' + '0' * 5000 + '}', ParseError, id="huge-dim-ParseError"),
    pytest.param('{"dim": 3, "products": [{"i": 1, "j": 2, "c": [1' + '0' * 5000
                 + ', 0, 0]}]}', ParseError, id="huge-entry-ParseError"),
    # Arabic-Indic 1/2, fullwidth 12 and Devanagari 3: Unicode digits, not literals
    pytest.param('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["\u0661/\u0662", "0", "0"]}]}',
                 ParseError, id="arabic-indic-digits-ParseError"),
    pytest.param('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["0", "\uff11\uff12", "0"]}]}',
                 ParseError, id="fullwidth-digits-ParseError"),
    pytest.param('{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["0", "0", "1/\u0969"]}]}',
                 ParseError, id="devanagari-denominator-ParseError"),
])
def test_parse_rejects_malformed_documents(doc, exc):
    with pytest.raises(exc):
        parse_algebra(doc)


def test_roundtrip_random_algebras():
    rng = random.Random(31)
    for dim in (2, 3, 4, 5):
        for _ in range(10):
            a = rand_algebra(rng, dim=dim)
            assert parse_algebra(json.dumps(serialize_algebra(a))) == a


# --- command dispatch ---

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_derivations_command(tmp_path, capsys):
    path = write_doc(tmp_path, "h.json", HEIS_DOC)
    assert main(["derivations", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["rank"] == 3
    assert report["result"]["derivation_dim"] == 6
    assert report["input"]["dim"] == 3


def test_classify_command_text(tmp_path, capsys):
    doc = json.dumps(serialize_algebra(
        SkewAlgebra(3, {(1, 2): (0, 2, 3), (1, 3): (0, 5, 7), (2, 3): (0, 0, 1)})))
    path = write_doc(tmp_path, "sol.json", doc)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "SolvableNonLie" in out
    assert "beta1 = 2" in out


def test_homlie_command_on_counterexample(tmp_path, capsys):
    from helpers import counterexample4, COUNTEREXAMPLE4_HL_DET
    path = write_doc(tmp_path, "c4.json",
                     json.dumps(serialize_algebra(counterexample4())))
    assert main(["homlie", path]) == 0
    out = capsys.readouterr().out
    assert "not Hom-Lie" in out
    assert str(COUNTEREXAMPLE4_HL_DET) in out


def test_killing_and_lietype_and_analyze(tmp_path, capsys):
    path = write_doc(tmp_path, "h.json", HEIS_DOC)
    for cmd in ("killing", "lietype", "analyze"):
        assert main([cmd, path, "--json"]) == 0
        json.loads(capsys.readouterr().out)


def test_sample_command(capsys):
    assert main(["sample", "--dim", "3", "--trials", "25", "--seed", "42",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["homlie_count"] == 25
    assert sum(report["result"]["rank_histogram"].values()) == 25


@pytest.mark.parametrize("seed,height", [(42, 2), (0, 1), (7, 1), (5, 3)])
def test_sample_at_dim_2(seed, height, capsys):
    # dim 2 has no basis triple, so every draw is Lie and Hom-Lie; its one product
    # e1 e2 = c gives M rank 2 unless c = 0, and rank 0 then
    assert main(["sample", "--dim", "2", "--trials", "20", "--seed", str(seed),
                 "--height", str(height), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    cfg = SampleConfig(dim=2, trials=20, seed=seed, height=height)
    zero = sum(not any(random_algebra(cfg, i).product(1, 2)) for i in range(20))
    assert result["lie_count"] == result["homlie_count"] == 20
    assert result["rank_histogram"] == {k: v for k, v in (("0", zero), ("2", 20 - zero)) if v}
    if (seed, height) == (42, 2):
        assert result["rank_histogram"] == {"0": 1, "2": 19}


def _sparse_dim6():
    return SkewAlgebra(6, {(1, 2): (0, 0, 1, 0, 0, 0), (1, 3): (0, 0, 0, 1, 0, 0),
                           (2, 5): (0, 0, 0, 0, 0, 1), (4, 6): (1, 0, 0, 0, 2, 0)})


def _seeded(dim, seed):
    return rand_algebra(random.Random(seed), dim=dim)


# counterexample4's square HL is nonsingular and abelian(4)'s is singular, so
# both determinant routes of the homlie payload are covered
PAYLOAD_ALGEBRAS = {
    "counterexample4": counterexample4,
    "abelian4": lambda: abelian(4),
    "heisenberg": heisenberg,
    "filiform5": lambda: filiform5(1, 0, 0, 1),
    "sparse6": _sparse_dim6,
    **{f"random{dim}-{seed}": (lambda dim=dim, seed=seed: _seeded(dim, seed))
       for dim in (2, 3, 4) for seed in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_ALGEBRAS))
def test_payload_fields_match_library(name, tmp_path, capsys):
    a = PAYLOAD_ALGEBRAS[name]()
    path = write_doc(tmp_path, "a.json", json.dumps(serialize_algebra(a)))
    results = {}
    for cmd in ("derivations", "homlie", "analyze"):
        assert main([cmd, path, "--json"]) == 0
        results[cmd] = json.loads(capsys.readouterr().out)["result"]
    ders, hom, full = results["derivations"], results["homlie"], results["analyze"]
    assert full["derivations"] == ders and full["homlie"] == hom

    m = build_M(a)
    assert ders["matrix_shape"] == [m.rows, m.cols]
    assert ders["rank"] == ders["orbit_dim"] == orbit_dimension(a)
    assert ders["aut_dim"] == ders["derivation_dim"] == aut_dimension(a)

    assert hom["is_homlie"] == is_homlie(a)
    assert hom["kernel_dim"] == len(hom["basis"])
    if a.dim >= 3:
        hl = build_HL(a)
        assert hom["matrix_shape"] == [hl.rows, hl.cols]
        assert hom["rank"] == rank(hl)
        if hl.is_square:
            assert hom["determinant"] == format_rational(determinant(hl))
            assert hom["determinant"] == format_rational(fraction_rref(hl).determinant)
        else:
            assert "determinant" not in hom
    else:
        assert hom["matrix_shape"] is None and hom["rank"] == 0
        assert "determinant" not in hom

    assert full["nilpotent"] == is_nilpotent(a)
    assert full["solvable"] == is_solvable(a)


# the operator builders, which every route to M and HL goes through: the exact integer rows
# (the public build_M/build_HL included) and the packed residue rows of the mod-p certificate
BUILDERS = ["_M_rows", "_HL_rows", "_M_packed", "_HL_packed"]


# the per-algebra tables, by the module that defines each builder
TABLES = {"_flat": alg, "_derived_algebra": alg, "_exact_blocks": alg, "_packed": sm}


def count_tables(monkeypatch):
    """Count each table's builds per algebra: (builder, id of the algebra) -> builds. One
    counting wrapper per builder replaces it in every module that binds it, so every reader
    reaches the same table, and the algebras are held, so no id is reused."""
    builds, held = {}, []
    for fn, home in TABLES.items():
        def counted(a, fn=fn, original=getattr(home, fn)):
            builds[fn, id(a)] = builds.get((fn, id(a)), 0) + 1
            held.append(a)
            return original(a)

        for mod in (alg, sm, importlib.import_module("skewlie.classify")):
            if hasattr(mod, fn):
                monkeypatch.setattr(mod, fn, counted)
    return builds


def built_tables(builds) -> dict[str, int]:
    """The number of algebras each table was built for."""
    return {fn: sum(key[0] == fn for key in builds) for fn in TABLES}


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()
                                        and (p / "input.json").is_file()))
def test_analyze_builds_each_table_at_most_once(name, capsys, monkeypatch):
    # derivations, Hom-Lie, Killing form, series and (at dim 3) classify and the Lie-type
    # relation all read one algebra's tables; none is built twice. From n = 4 the mod-p
    # certificate reads the packed T and N on M, so they are built
    builds = count_tables(monkeypatch)
    assert main(["analyze", str(GOLDEN / name / "input.json"), "--json"]) == 0
    capsys.readouterr()
    assert set(builds.values()) == {1}
    n = json.loads((GOLDEN / name / "input.json").read_text())["dim"]
    counts = built_tables(builds)
    assert counts["_flat"] == counts["_derived_algebra"] == 1
    assert counts["_packed"] == (n >= 4)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_sample_builds_each_table_at_most_once_per_trial(dim, capsys, monkeypatch):
    # below n = 4 the exact rows serve M and HL, built from the flat rows and the exact pair
    # blocks; from n = 4 the certificate settles every trial from the packed tables, so no
    # exact table is built. Either way each table is built once per trial, never twice
    builds = count_tables(monkeypatch)
    assert main(["sample", "--dim", str(dim), "--trials", "6", "--seed", "5",
                 "--json"]) == 0
    capsys.readouterr()
    assert set(builds.values()) == {1}
    exact, packed = (6, 0) if dim == 3 else (0, 6)
    assert built_tables(builds) == {"_flat": exact, "_derived_algebra": 0,
                                    "_exact_blocks": exact, "_packed": packed}


# (M, HL) builds of the exact rows and of the packed rows by one analyze
ANALYZE_BUILDS = {"heisenberg": ((1, 1), (0, 0)), "counterexample4": ((0, 1), (1, 0)),
                  "abelian4": ((1, 1), (1, 0)), "filiform5": ((1, 1), (1, 1)),
                  "sparse6": ((1, 1), (1, 1))}


@pytest.mark.parametrize("name", sorted(ANALYZE_BUILDS))
def test_analyze_builds_each_operator_once(name, tmp_path, capsys, monkeypatch):
    # each representation is built at most once. The certificate reads packed rows from
    # n = 4 (HL from n = 5) and proves counterexample4's M of full rank, so it builds no
    # exact M. Its square HL is nonsingular: the determinant must come off the same
    # elimination as the kernel, not off a second build. The rank-deficient operators fall
    # back to one exact build each
    builds = count_calls(monkeypatch, BUILDERS, [sm])
    a = PAYLOAD_ALGEBRAS[name]()
    path = write_doc(tmp_path, "a.json", json.dumps(serialize_algebra(a)))
    assert main(["analyze", path, "--json"]) == 0
    capsys.readouterr()
    (exact_m, exact_hl), (packed_m, packed_hl) = ANALYZE_BUILDS[name]
    assert builds == {"_M_rows": exact_m, "_HL_rows": exact_hl,
                      "_M_packed": packed_m, "_HL_packed": packed_hl}


@pytest.mark.parametrize("command", ["homlie", "derivations", "analyze"])
def test_wide_rational_document_needs_no_exact_elimination(command, capsys, monkeypatch):
    # data/wide6.json is a dense dim-6 document whose 90 literals are random 10-digit
    # fractions (random.Random(6): numerator and denominator each uniform in
    # [10^9, 10^10), the numerator's sign a coin flip). Exact elimination of its M and
    # HL took seconds; the mod-p certificate proves their full rank alone, so none runs
    calls = count_calls(monkeypatch, ["_eliminate"], [sm])
    assert main([command, str(Path(__file__).parent / "data" / "wide6.json"), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    for payload in ((result["homlie"], result["derivations"]) if command == "analyze"
                    else (result,)):
        assert (payload["rank"], payload["basis"]) == (36, [])
    assert calls == {"_eliminate": 0}


@pytest.mark.parametrize("name", ["random3-0", "sol-nonlie", "random4-0", "random5-0",
                                  "random6-0"])
def test_analyze_forms_the_derived_algebra_and_the_lie_flag_once(name, capsys, monkeypatch):
    # both series and, at dim 3, classify read one A·A from the algebra's table, and
    # classify's Lie flag (is_lie on NS1 and SolvableNonLie documents) is the report's
    counts = count_calls(monkeypatch, ["_derived_algebra", "is_lie"],
                         [alg, importlib.import_module("skewlie.classify")])
    assert main(["analyze", str(GOLDEN / name / "input.json"), "--json"]) == 0
    capsys.readouterr()
    assert counts == {"_derived_algebra": 1, "is_lie": 1}


@pytest.mark.parametrize("dim", [3, 4])
def test_sample_builds_each_operator_once_per_trial(dim, capsys, monkeypatch):
    # at dim 4 the certificate proves every trial's M and HL of full rank from the packed
    # rows, so no exact row is built; at dim 3 it does not run
    exact, packed = (6, 0) if dim == 3 else (0, 6)
    builds = count_calls(monkeypatch, BUILDERS, [sm])
    assert main(["sample", "--dim", str(dim), "--trials", "6", "--seed", "5",
                 "--json"]) == 0
    capsys.readouterr()
    assert builds == {"_M_rows": exact, "_HL_rows": exact,
                      "_M_packed": packed, "_HL_packed": packed}


@pytest.mark.parametrize("dim", [3, 4])
def test_sample_converts_each_algebra_to_integers_once_per_trial(dim, capsys, monkeypatch):
    # each trial builds one algebra through _of from its integer draws, never through
    # the Fraction constructor; is_lie, _M_rows and _HL_rows read that tensor, so no
    # vector is rescaled (the rescale helper is counted in every module that could bind it)
    constructed, converted, rescaled = [], [], []
    of, new, rescale = alg.SkewAlgebra._of, alg.SkewAlgebra.__new__, ql._rescale
    monkeypatch.setattr(alg.SkewAlgebra, "_of",
                        classmethod(lambda cls, *args: constructed.append(1) or of(*args)))
    monkeypatch.setattr(alg.SkewAlgebra, "__new__",
                        lambda cls, *args: converted.append(1) or new(cls, *args))
    for mod in (alg, ql, sm):
        monkeypatch.setattr(mod, "_rescale", lambda v: rescaled.append(1) or rescale(v),
                            raising=False)
    assert main(["sample", "--dim", str(dim), "--trials", "6", "--seed", "5",
                 "--json"]) == 0
    capsys.readouterr()
    assert (len(constructed), len(converted), len(rescaled)) == (6, 0, 0)


def test_json_reports_are_byte_stable(tmp_path, capsys):
    path = write_doc(tmp_path, "h.json", HEIS_DOC)
    main(["analyze", path, "--json"])
    first = capsys.readouterr().out
    main(["analyze", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


# --- one parser per process ---

def run_main(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _rational_dim4():
    rng = random.Random(17)
    p = ExactMatrix([[1, Fraction(1, 2), 0, 0], [0, 1, Fraction(-2, 3), 0],
                     [0, 0, 1, 3], [Fraction(1, 5), 0, 0, 1]])
    return transport(rand_algebra(rng, dim=4, height=2), p)


def test_repeated_calls_in_one_process_give_the_same_results(tmp_path):
    # each call runs twice, the repeat only after every other call has run
    good = write_doc(tmp_path, "h.json", HEIS_DOC)
    bad = write_doc(tmp_path, "bad.json", '{"dim": 3, "products": [{"i": 2}]}')
    calls = [[cmd, good, *flag] for cmd in FILE_COMMANDS for flag in ([], ["--json"])]
    calls += [["sample", "--dim", "3", "--trials", "5", "--seed", "7", *flag]
              for flag in ([], ["--json"])]
    calls += [["--help"], ["analyze", "--help"], ["sample", "--help"],
              [], ["no-such-command"], ["sample", "--dim", "x", "--trials", "1"],
              ["analyze", bad], ["killing", bad, "--json"]]
    first = [run_main(argv) for argv in calls]
    assert [run_main(argv) for argv in calls] == first
    codes = [code for code, _, _ in first]
    assert codes == [0] * 14 + [0, 0, 0, 2, 2, 2, 2, 2]
    assert all(out for code, out, _ in first if code == 0)
    assert all(err for code, _, err in first if code == 2)


def test_importing_the_cli_loads_no_argparse():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, skewlie.cli; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("kind", ["analyze", "sample"])
def test_json_output_is_the_same_across_processes(kind, tmp_path):
    if kind == "analyze":
        path = write_doc(tmp_path, "r4.json",
                         json.dumps(serialize_algebra(_rational_dim4())))
        argv = ["analyze", path, "--json"]
    else:
        argv = ["sample", "--dim", "3", "--trials", "20", "--seed", "42", "--json"]
    code, expected, err = run_main(argv)
    assert code == 0 and err == ""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hashseed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed}
        proc = subprocess.run([sys.executable, "-m", "skewlie.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected


# --- exit codes ---

def test_exit_2_on_bad_document(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json",
                     '{"dim": 3, "products": [{"i": 2, "j": 2, "c": ["1", "0", "0"]}]}')
    assert main(["analyze", path]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_2_on_deeply_nested_document(tmp_path, capsys):
    path = write_doc(tmp_path, "deep.json", '[' * 100000)
    assert main(["analyze", path]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_2_on_non_ascii_digits(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json",
                     '{"dim": 3, "products": [{"i": 1, "j": 2, "c": ["\u0661/\u0662", "0", "0"]}]}')
    assert main(["analyze", path]) == 2
    assert "not a rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["sample", "--dim", "3", "--trials", "2", "--json"],
    ["analyze", str(GOLDEN / "counterexample4" / "input.json"), "--json"],
    ["sample", "--help"],
], ids=["sample", "analyze", "help"])
def test_exit_1_and_nothing_on_stderr_when_the_reader_closed_stdout(argv, unbuffered):
    # the read end is closed before the process starts, so nothing can be written: buffered
    # output fails when main flushes it, unbuffered output at its first write
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "skewlie.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, check=False)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter prints integers of any length")
@pytest.mark.parametrize("cmd", ["killing", "analyze"])
def test_exit_2_naming_the_cause_when_a_result_is_too_long_to_print(cmd, tmp_path, capsys):
    # 2,200-digit constants parse, but the Killing form squares them past the limit
    big = "7" * 2200
    doc = {"dim": 3, "products": [{"i": 1, "j": 2, "c": ["0", big, "0"]},
                                  {"i": 1, "j": 3, "c": ["0", "0", big]}]}
    path = write_doc(tmp_path, "big.json", json.dumps(doc))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        assert main([cmd, path, "--json"]) == 2
    finally:
        sys.set_int_max_str_digits(saved)
    err = capsys.readouterr().err
    assert err.startswith("error: exact result too large to print: over 4300 digits")
    assert "Traceback" not in err


def test_exit_2_on_sample_height_beyond_64_bit_draw(capsys):
    assert main(["sample", "--dim", "3", "--trials", "1",
                 "--height", str(2**63)]) == 2
    assert "64-bit" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    assert main(["analyze", "/nonexistent/path.json"]) == 2


def test_exit_2_naming_the_file_that_is_not_utf_8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 text\n"


def test_exit_1_on_analysis_error(tmp_path, capsys):
    doc = '{"dim": 4, "products": [{"i": 1, "j": 2, "c": ["1", "0", "0", "0"]}]}'
    path = write_doc(tmp_path, "d4.json", doc)
    assert main(["classify", path]) == 1
    assert "dimension 3" in capsys.readouterr().err


def test_exit_2_on_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


# --- the command line, against the argparse parser it replaced (tests/helpers.py) ---

OPTION_SPELLINGS = {"dim": ["--dim", "--di", "--d"], "trials": ["--trials", "--tri", "--t"],
                    "seed": ["--seed", "--se", "--s"], "height": ["--height", "--hei"]}
JSON_SPELLINGS = ["--json", "--js", "--j"]
HELP_SPELLINGS = ["-h", "--help", "--hel", "--he", "--h"]  # --h and --he are ambiguous in sample
FILE_NAMES = ["a.json", "doc", "x y.json", "dir/f.json", "5", "\u00e9.json", "a=b"]
NON_INTS = ["x", "1.5", "", "0x10", "1e3", "-", "3x"]
int_values = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                       st.sampled_from(["+7", "007", " 4", "1_000", "1" * 5000]))
FAULTS = ["unknown option", "missing value", "non-int value", "extra operand",
          "missing required", "unknown subcommand", "missing subcommand"]


@st.composite
def command_lines(draw):
    """A well-formed command line with its tokens in any order and each option in
    either form, then at most one fault, or -h or --help, inserted between tokens.
    No ``--`` and no operand that begins with "-": how argparse read those varies
    across Python versions."""
    command = draw(st.sampled_from([*FILE_COMMANDS, "sample"]))
    if command == "sample":
        names = ["dim", "trials", *draw(st.lists(st.sampled_from(["seed", "height"]),
                                                  unique=True))]
        groups = []
        for name in names:
            spelling, value = draw(st.sampled_from(OPTION_SPELLINGS[name])), draw(int_values)
            groups.append([f"{spelling}={value}"] if draw(st.booleans()) else [spelling, value])
        faults = FAULTS
    else:
        groups = [[draw(st.sampled_from(FILE_NAMES))]]
        faults = [f for f in FAULTS if "value" not in f]
    if draw(st.booleans()):
        groups.append([draw(st.sampled_from(JSON_SPELLINGS))])
    groups = [[command], *draw(st.permutations(groups))]
    fault = draw(st.sampled_from(["none", "help", *faults]))
    options = [i for i, g in enumerate(groups) if g[0].startswith("--") and g[0][2] != "j"]
    insert = {"help": HELP_SPELLINGS, "unknown option": ["--bogus", "-x", "--jsonx", "--dims"],
              "extra operand": FILE_NAMES}.get(fault)
    if insert:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(insert))])
    elif fault == "missing value":
        i = draw(st.sampled_from(options))
        groups[i] = [groups[i][0].partition("=")[0]]
    elif fault == "non-int value":
        i, bad = draw(st.sampled_from(options)), draw(st.sampled_from(NON_INTS))
        groups[i] = [groups[i][0], bad] if len(groups[i]) == 2 else [
            groups[i][0].partition("=")[0] + "=" + bad]
    elif fault == "missing required":  # --dim or --trials, or FILE
        del groups[draw(st.sampled_from([i for i, g in enumerate(groups) if i and not
                                         g[0].startswith(("--s", "--h", "--j"))]))]
    elif fault == "unknown subcommand":
        groups[0] = [draw(st.sampled_from(["nosuch", "analyse", "Sample", "samples"]))]
    elif fault == "missing subcommand":
        del groups[0]
    return [token for group in groups for token in group]


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["--h"])  # a prefix of --help, as argparse read it
@example(argv=["sample", "--tri", "5", "--di=3", "--j"])
@example(argv=["sample", "--dim", "3", "--trials", "1", "--seed", "-1"])
@example(argv=["sample", "--dim", "1" * 5000, "--trials", "1"])  # over the int digit limit
@example(argv=["sample", "--dim", "3", "--trials", "1", "--he"])
@example(argv=["analyze", "--j", "a.json"])
@example(argv=["killing", "a.json", "b.json"])
def test_command_line_parses_as_the_argparse_reference_did(argv):
    code, values, help_text = reference_parse(argv)
    if code is None:
        command, args = cli._parse(argv)
        assert {"command": command, **args} == values
        return
    if code == 2:
        with pytest.raises(getopt.GetoptError):
            cli._parse(argv)
    assert code in (0, 2)
    got, out, err = run_main(argv)
    assert got == code
    if code == 0:  # the same help: skewlie's own, or the same subcommand's
        assert err == "" and out.split()[:3] == help_text.split()[:3]
    else:
        assert out == "" and err.splitlines()[0].startswith("usage: skewlie")
        assert err.splitlines()[1].startswith("skewlie: error: ")


# --- fuzz: malformed and near-valid documents ---

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)

good_literals = (st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 6))
                 | st.integers(-9, 9))
bad_literals = (st.sampled_from(["1/0", "1.5", "", "x", "1/-2", "--1", "1e3", "0x10",
                                 "NaN", "1" * 5000])
                | json_values)


@st.composite
def near_valid_documents(draw):
    """A valid dim-2..4 document, then (unless the mutation is "none") one
    defect: a dim outside 2..6, a missing or retyped field, a bad literal, a
    wrong ``c`` length, an out-of-range index or a duplicate pair."""
    dim = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    products = [{"i": i, "j": j, "c": draw(st.lists(good_literals, min_size=dim,
                                                     max_size=dim))}
                for i, j in chosen]
    doc = {"dim": dim, "products": products}
    mutation = draw(st.sampled_from(["none", "dim", "drop", "field", "literal",
                                     "length", "index", "duplicate"]))
    if mutation != "none" and not products:
        products.append({"i": 1, "j": 2, "c": ["1"] * dim})
    item = draw(st.sampled_from(products)) if products else {}
    if mutation == "dim":
        doc["dim"] = draw(st.integers(-2, 9).filter(lambda d: not 2 <= d <= 6))
    elif mutation == "drop":
        target = draw(st.sampled_from([doc, item]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif mutation == "field":
        target = draw(st.sampled_from([doc, item]))
        target[draw(st.sampled_from(sorted(target)))] = draw(json_values)
    elif mutation == "literal":
        item["c"][draw(st.integers(0, dim - 1))] = draw(bad_literals)
    elif mutation == "length":
        item["c"] = item["c"][:-1] if draw(st.booleans()) else item["c"] + ["0"]
    elif mutation == "index":
        item[draw(st.sampled_from(["i", "j"]))] = draw(st.integers(-2, dim + 2))
    elif mutation == "duplicate":
        products.append(dict(item))
    return json.dumps(doc)


documents = st.one_of(near_valid_documents(), json_values.map(json.dumps),
                      st.text(max_size=30))
FILE_COMMANDS = ["analyze", "derivations", "homlie", "classify", "killing", "lietype"]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=documents, cmd=st.sampled_from(FILE_COMMANDS))
@example(text='{"dim": 1' + '0' * 5000 + '}', cmd="analyze")  # over the int digit limit
def test_fuzzed_documents_end_in_an_exit_code(text, cmd, fuzz_path):
    try:
        a = parse_algebra(text)
    except (ParseError, InvariantError):
        a = None
    assert a is None or isinstance(a, SkewAlgebra)
    path = fuzz_path
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, str(path), "--json"])
    assert code in (0, 1, 2)
    assert (code == 2) == (a is None)
