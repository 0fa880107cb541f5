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
payload builder. The argument parser is built from it once per process, at
import, and ``main`` only parses and dispatches.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
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
    return [[[_format_ratio(v[c * n + r], q) for c in range(n)] for r in range(n)]
            for v in vecs]


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


def _print_matrix(m: list[list[str]], indent: str = "  ") -> None:
    width = max((len(x) for row in m for x in row), default=1)
    for row in m:
        print(indent + "[ " + "  ".join(x.rjust(width) for x in row) + " ]")


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

_PARSER = argparse.ArgumentParser(
    prog="skewlie",
    description="Exact analysis of skew-symmetric algebras given by "
                "rational structure constants")
_sub = _PARSER.add_subparsers(dest="command", required=True)
for _name, (_help, _) in _COMMANDS.items():
    _p = _sub.add_parser(_name, help=_help)
    _p.add_argument("file", help="algebra document (JSON)")
    _p.add_argument("--json", action="store_true", help="emit a JSON report")
_p = _sub.add_parser("sample", help="seeded genericity experiment")
_p.add_argument("--dim", type=int, required=True)
_p.add_argument("--trials", type=int, required=True)
_p.add_argument("--seed", type=int, default=0)
_p.add_argument("--height", type=int, default=2)
_p.add_argument("--json", action="store_true", help="emit a JSON report")


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
        try:  # a list of strings takes one join
            body = ("," + inner).join(map(_encode_str, value))
        except TypeError:
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
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "sample":
            cfg = SampleConfig(dim=args.dim, trials=args.trials,
                               seed=args.seed, height=args.height)
            report = run_experiment(cfg)
            payload: dict[str, Any] = {
                "dim": cfg.dim, "trials": cfg.trials, "seed": cfg.seed,
                "height": cfg.height,
                "rank_histogram": {str(k): v for k, v in
                                   sorted(report.rank_histogram_M.items())},
                "homlie_count": report.homlie_count,
                "lie_count": report.lie_count,
            }
            document = {"command": "sample", "result": payload}
        else:
            a = _load(args.file)
            payload = _COMMANDS[args.command][1](a)
            document = {"command": args.command,
                        "input": serialize_algebra(a),
                        "result": payload}
    except (ParseError, InvariantError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SkewlieError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(_dumps(document))
    else:
        _render_text(args.command, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
