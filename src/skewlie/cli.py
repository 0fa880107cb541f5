"""Command-line front end: parse algebra documents, run analyses, print reports.

An algebra document is a JSON object ``{"dim": n, "products": [{"i": 1,
"j": 2, "c": ["0", "0", "1"]}, ...]}`` with 1-based indices i < j and exact
rational literals ("p/q" or "p"); pairs that are absent multiply to zero.
Reports are plain text by default or a single JSON object with ``--json``;
every number is serialized as an exact rational literal, and identical input
always produces byte-identical JSON. Numbers stay integers over a denominator
from input to output: ``parse_algebra`` puts the literals over their lcm for
``SkewAlgebra._of``, the payloads format the integer tensor, kernels and matrices
with ``_format_ratio``, and ``_dumps`` writes the bytes that ``json.dumps``
with ``indent=2, sort_keys=True`` would, through the C string encoder.

One table, ``_COMMANDS``, maps each document subcommand to its help text and
payload builder, and a second, ``_SAMPLE``, names ``sample``'s options and
their defaults. ``_parse`` reads argv with ``getopt`` over the two, building
no parser, and ``main`` dispatches on the subcommand it names.
"""

from __future__ import annotations

import getopt
import itertools
import json
import math
import os
import sys
from typing import Any, Sequence

from . import algebra as alg
from . import structmats as sm
from .classify import classify as classify_algebra
from .classify import lie_type_constants
from .errors import InvariantError, ParseError, SkewlieError
from .qlinalg import ExactMatrix, _format_ratio, _parse_ratio, determinant, format_rational
from .sampler import SampleConfig, run_experiment


def parse_algebra(text: str) -> alg.SkewAlgebra:
    """Parse an algebra document, validating indices, pairs, and literals."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as e:  # e.g. an integer over the int-to-str digit limit
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("field 'dim' must be an integer")
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise ParseError("field 'products' must be a list")
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}  # 0-based pair -> (p, q)s
    for pos, item in enumerate(products):
        where = f"products[{pos}]"
        if not isinstance(item, dict):
            raise ParseError(f"{where}: must be an object")
        i, j, c = item.get("i"), item.get("j"), item.get("c")
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise ParseError(f"{where}: fields 'i' and 'j' must be integers")
        if i >= j:
            raise InvariantError(f"{where}: requires i < j, got i={i}, j={j}")
        if not (1 <= i and j <= dim):
            raise InvariantError(f"{where}: indices ({i},{j}) outside 1..{dim}")
        if (i - 1, j - 1) in table:
            raise InvariantError(f"{where}: duplicate pair ({i},{j})")
        if not isinstance(c, list):
            raise ParseError(f"{where}: field 'c' must be a list of rational literals")
        if len(c) != dim:
            raise ParseError(f"{where}: 'c' has {len(c)} entries, expected {dim}")
        coeffs = table[i - 1, j - 1] = []
        for k, lit in enumerate(c):
            if isinstance(lit, bool) or not isinstance(lit, (str, int)):
                raise ParseError(f"{where}.c[{k}]: expected a rational literal string")
            try:
                coeffs.append((lit, 1) if isinstance(lit, int) else _parse_ratio(lit))
            except ValueError as e:
                raise ParseError(f"{where}.c[{k}]: {e}") from None
    den = math.lcm(*(q for coeffs in table.values() for _, q in coeffs))
    try:
        return alg.SkewAlgebra._of(dim, {ij: [p * (den // q) for p, q in coeffs]
                                         for ij, coeffs in table.items()}, den)
    except SkewlieError as e:
        raise ParseError(str(e)) from None


def serialize_algebra(a: alg.SkewAlgebra) -> dict[str, Any]:
    """Canonical document for an algebra (nonzero pairs, sorted, exact literals)."""
    t, den = a._ints
    return {
        "dim": a.dim,
        "products": [
            {"i": i + 1, "j": j + 1, "c": [_format_ratio(x, den) for x in t[i][j]]}
            for i, j in itertools.combinations(range(a.dim), 2) if any(t[i][j])
        ],
    }


def _matrix_rows(m: ExactMatrix) -> list[list[str]]:
    rows, den = m._ints
    return [[_format_ratio(x, den) for x in r] for r in rows]


def _endo_rows(kernel: tuple) -> list[list[list[str]]]:
    """Rows of each endomorphism v / q (v column-major) of an integer kernel (n, vs, q)."""
    n, vecs, q = kernel
    flat = [["0" if not x else "1" if x == q else _format_ratio(x, q) for x in v] for v in vecs]
    return [[s[r::n] for r in range(n)] for s in flat]


def _derivations_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    n = a.dim
    ders = sm.derivation_space(a)
    orbit_dim = n * n - ders.dim
    return {
        "matrix_shape": [n * (n * (n - 1) // 2), n * n],
        "rank": orbit_dim,
        "derivation_dim": ders.dim,
        "aut_dim": ders.dim,
        "orbit_dim": orbit_dim,
        "basis": _endo_rows(ders._kernel),
    }


def _homlie_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    n = a.dim
    space = sm.homlie_space(a)
    rows = n * (n * (n - 1) * (n - 2) // 6)
    payload: dict[str, Any] = {
        "is_homlie": space.dim >= 1,
        "kernel_dim": space.dim,
        "basis": _endo_rows(space._kernel),
        "matrix_shape": [rows, n * n] if n >= 3 else None,
        "rank": n * n - space.dim,
    }
    if space.determinant is not None:
        payload["determinant"] = format_rational(space.determinant)
    return payload


def _killing_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    k = alg.killing_matrix(a)
    return {"matrix": _matrix_rows(k), "determinant": format_rational(determinant(k))}


def _classify_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    result = classify_algebra(a)
    return {
        "tag": result.tag,
        "params": {name: format_rational(v) for name, v in sorted(result.params.items())},
        "witness": _matrix_rows(result.witness),
        "lie": result.lie,
    }


def _lietype_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    sol = lie_type_constants(a)
    return {
        "particular": None if sol.particular is None
        else [format_rational(x) for x in sol.particular],
        "homogeneous": [[format_rational(x) for x in h] for h in sol.homogeneous],
        "admissible": sol.admissible,
    }


def _analyze_payload(a: alg.SkewAlgebra) -> dict[str, Any]:
    central, derived = (s.dims for s in alg._series(a))
    payload = {
        "nilpotent": central[-1] == 0,
        "solvable": derived[-1] == 0,
        "central_series": list(central),
        "derived_series": list(derived),
        "derivations": _derivations_payload(a),
        "homlie": _homlie_payload(a),
        "killing": _killing_payload(a),
    }
    if a.dim == 3:  # classify's Lie flag is is_lie(a), computed there at most once
        payload["classify"] = _classify_payload(a)
        payload["lietype"] = _lietype_payload(a)
    payload["lie"] = payload["classify"]["lie"] if a.dim == 3 else alg.is_lie(a)
    return payload


def _print_matrix(m: list[list[str]]) -> None:
    width = max((len(x) for row in m for x in row), default=1)
    for row in m:
        print("  [ " + "  ".join(x.rjust(width) for x in row) + " ]")


def _render_text(command: str, payload: dict[str, Any]) -> None:
    if command == "derivations":
        print(f"derivation matrix rank: {payload['rank']}")
        print(f"derivation space dimension: {payload['derivation_dim']}")
        print(f"automorphism group dimension: {payload['aut_dim']}")
        print(f"orbit dimension: {payload['orbit_dim']}")
        print("derivation basis:")
        for mat in payload["basis"]:
            _print_matrix(mat)
            print()
    elif command == "homlie":
        print("Hom-Lie" if payload["is_homlie"] else "not Hom-Lie")
        print(f"solution space dimension: {payload['kernel_dim']}")
        if payload.get("matrix_shape"):
            print(f"matrix shape: {payload['matrix_shape'][0]}x{payload['matrix_shape'][1]}"
                  f", rank {payload['rank']}")
        if "determinant" in payload:
            print(f"determinant: {payload['determinant']}")
    elif command == "classify":
        print(f"family: {payload['tag']}")
        if payload["params"]:
            print("parameters: " + ", ".join(f"{k} = {v}" for k, v in payload["params"].items()))
        print(f"Lie algebra: {'yes' if payload['lie'] else 'no'}")
        print("basis-change witness (columns are the adapted basis):")
        _print_matrix(payload["witness"])
    elif command == "killing":
        print("Killing form matrix:")
        _print_matrix(payload["matrix"])
        print(f"determinant: {payload['determinant']}")
    elif command == "lietype":
        if payload["particular"] is None:
            print("no coefficient pair (a, b) satisfies the relation")
        else:
            a0, b0 = payload["particular"]
            print(f"particular solution: (a, b) = ({a0}, {b0})")
            for h in payload["homogeneous"]:
                print(f"homogeneous generator: ({h[0]}, {h[1]})")
        print(f"admissible (a != 0 possible): {'yes' if payload['admissible'] else 'no'}")
    elif command == "analyze":
        print(f"Lie: {payload['lie']}  nilpotent: {payload['nilpotent']}  "
              f"solvable: {payload['solvable']}")
        print(f"central series dims: {payload['central_series']}")
        print(f"derived series dims: {payload['derived_series']}")
        print(f"derivation rank/dim: {payload['derivations']['rank']}"
              f"/{payload['derivations']['derivation_dim']}")
        print("Hom-Lie" if payload["homlie"]["is_homlie"] else "not Hom-Lie",
              f"(solution space dim {payload['homlie']['kernel_dim']})")
        print(f"Killing determinant: {payload['killing']['determinant']}")
        if "classify" in payload:
            print(f"family: {payload['classify']['tag']}")
    elif command == "sample":
        print(f"trials: {payload['trials']}  dim: {payload['dim']}  "
              f"seed: {payload['seed']}  height: {payload['height']}")
        for r in sorted(payload["rank_histogram"], key=int):
            print(f"  rank {r}: {payload['rank_histogram'][r]}")
        print(f"Hom-Lie count: {payload['homlie_count']}")
        print(f"Lie count: {payload['lie_count']}")


def _load(path: str) -> alg.SkewAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_algebra(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


# Each document subcommand: name -> (help text, payload builder), in --help order.
_COMMANDS = {
    "analyze": ("run every applicable analysis", _analyze_payload),
    "derivations": ("derivation space and orbit/automorphism dimensions",
                    _derivations_payload),
    "homlie": ("Hom-Lie solution space and decision", _homlie_payload),
    "classify": ("normal form, parameters, and basis-change witness (dim 3)",
                 _classify_payload),
    "killing": ("Killing form matrix and determinant", _killing_payload),
    "lietype": ("constant coefficients of the Lie-type relation (dim 3)",
                _lietype_payload),
}

# sample's options: name -> default, None where the option is required
_SAMPLE = {"dim": None, "trials": None, "seed": 0, "height": 2}
# each subcommand's help text and usage line, in --help order; skewlie's own under None
_ABOUT = {**{name: text for name, (text, _) in _COMMANDS.items()},
          "sample": "seeded genericity experiment"}
_USAGE = {**{name: f"usage: skewlie {name} [-h] [--json] FILE" for name in _COMMANDS},
          "sample": "usage: skewlie sample [-h] --dim N --trials N [--seed N] [--height N] [--json]",
          None: "usage: skewlie [-h] {" + ",".join(_ABOUT) + "} ..."}
_ABOUT[None] = "\n".join(["Exact analysis of skew-symmetric algebras given by rational "
                          "structure constants", "", "subcommands:",
                          *(f"  {name:<12} {text}" for name, text in _ABOUT.items())])


def _parse(argv: Sequence[str]) -> tuple[str | None, dict[str, Any] | None]:
    """The subcommand that argv names and its values: FILE or sample's options, and json.
    The values are None after -h or --help, and so is the subcommand when the help
    comes before it. A usage error raises ``getopt.GetoptError``."""
    opts, rest = getopt.getopt(argv, "h", ["help"])
    if opts:
        return None, None
    if not rest or rest[0] not in _USAGE:
        raise getopt.GetoptError(f"invalid subcommand {rest[0]!r}" if rest
                                 else "a subcommand is required")
    command, *rest = rest
    sample = command == "sample"
    values = dict(_SAMPLE if sample else {"file": None}, json=False)
    opts, operands = getopt.gnu_getopt(rest, "h", ["help", "json",
                                                   *(name + "=" for name in _SAMPLE if sample)])
    if operands and not sample:
        values["file"] = operands.pop(0)
    for opt, value in opts:  # in argv's order, so a help before a bad value wins
        if opt in ("-h", "--help"):
            return command, None
        try:
            values[opt[2:]] = True if opt == "--json" else int(value)
        except ValueError:
            raise getopt.GetoptError(f"option {opt}: invalid int value: {value!r}") from None
    if missing := [name for name, value in values.items() if value is None]:
        raise getopt.GetoptError("the following arguments are required: " + ", ".join(missing))
    if operands:
        raise getopt.GetoptError("unrecognized arguments: " + " ".join(operands))
    return command, values


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder, when built
_LEAVES = {str: _encode_str, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts with ``str`` keys, lists,
    ``str``, ``int``, ``bool`` and None (these exact types; TypeError for any other);
    indent is a newline and the indentation of the value's own line."""
    if (leaf := _LEAVES.get(type(value))) is not None:
        return leaf(value)
    inner = indent + "  "
    if type(value) is list:
        if value and type(value[0]) is str:
            try:  # a list of strings takes one join
                return "[" + inner + ("," + inner).join(map(_encode_str, value)) + indent + "]"
            except TypeError:  # a str, then something else
                pass
        body = ("," + inner).join([_dumps(v, inner) for v in value])
        start, end = "[]"
    elif type(value) is dict:  # a key that is no str fails in sorted or _encode_str
        body = ("," + inner).join([_encode_str(k) + ": " + _dumps(v, inner)
                                   for k, v in sorted(value.items())])
        start, end = "{}"
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON here")
    return start + inner + body + indent + end if value else start + end


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, args = _parse(argv)
    except getopt.GetoptError as e:
        print(_USAGE.get(argv[0] if argv else None, _USAGE[None]), f"skewlie: error: {e}",
              sep="\n", file=sys.stderr)
        return 2
    if args is not None:  # not -h or --help
        try:
            if command == "sample":
                cfg = {name: args[name] for name in _SAMPLE}
                report = run_experiment(SampleConfig(**cfg))
                payload: dict[str, Any] = {
                    **cfg,
                    "rank_histogram": {str(k): v for k, v in
                                       sorted(report.rank_histogram_M.items())},
                    "homlie_count": report.homlie_count,
                    "lie_count": report.lie_count,
                }
                document = {"command": "sample", "result": payload}
            else:
                a = _load(args["file"])
                payload = _COMMANDS[command][1](a)
                document = {"command": command,
                            "input": serialize_algebra(a),
                            "result": payload}
        except (ParseError, InvariantError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except SkewlieError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    try:
        if args is None:
            print(_USAGE[command], _ABOUT[command], sep="\n\n")
        elif args["json"]:
            print(_dumps(document))
        else:
            _render_text(command, payload)
        sys.stdout.flush()  # a closed pipe raises here, not at exit, when the output fits a buffer
    except BrokenPipeError:  # the reader closed stdout early: what is left goes to devnull,
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit flushes quietly
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
