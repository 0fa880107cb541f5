"""Span tracing of skewlie's public functions, installed from outside.

Each wrapped call records a span (id, parent id, name, start, end) and the
counters below. Self time is a span's duration minus the time its child spans
cover; the tracer's own bookkeeping after a child returns is counted as
covered by that child, so it lands in no layer's self time. It does show in
the traced run's throughput, which is how the overhead is measured.

A name is patched in every ``skewlie`` module that binds the original
function, because ``from .qlinalg import echelonize`` gives ``algebra``,
``structmats`` and ``classify`` their own binding. Modules come from
``sys.modules``: the package attribute ``skewlie.classify`` is the function.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

WRAPPED = {
    "qlinalg": ("echelonize", "rank", "kernel_basis", "determinant", "inverse"),
    "algebra": ("multiply", "transport", "span", "subspace_product",
                "killing_matrix", "left_mult", "is_lie", "jacobiator",
                "central_series", "derived_series", "is_nilpotent",
                "is_solvable"),
    "structmats": ("build_M", "build_HL", "derivation_space", "orbit_dimension",
                   "aut_dimension", "homlie_space", "is_homlie", "endo_of_vec"),
    "classify": ("classify", "find_regular_pair", "lie_type_constants"),
    "sampler": ("random_algebra", "run_experiment"),
    "cli": ("main", "parse_algebra"),
}

KEEP_SPANS = 50_000  # spans written out; counters cover every op regardless

_now = time.perf_counter_ns


def _max_bits(value) -> int:
    """Largest numerator/denominator bit length inside a returned value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((_max_bits(v) for v in value), default=0)
    rows = getattr(value, "_rows", None)  # ExactMatrix
    if rows is not None:
        return _max_bits(rows)
    reduced = getattr(value, "reduced", None)  # EchelonResult
    return _max_bits(reduced) if reduced is not None else 0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # [span id, covered ns]
        self._next_id = 0
        self._operators: dict[int, tuple[str, object]] = {}
        self._in_classify = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- per op ------------------------------------------------------------

    def end_op(self) -> None:
        """Forget operator identities: an id may be reused by the next op."""
        self._operators.clear()

    # -- install / remove --------------------------------------------------

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        mods = {name: sys.modules[f"skewlie.{name}"] for name in WRAPPED}
        mods["__init__"] = sys.modules["skewlie"]
        patches = []
        for modname, names in WRAPPED.items():
            for name in names:
                original = getattr(mods[modname], name)
                wrapper = self._wrap(f"{modname}.{name}", original)
                for mod in mods.values():
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name: str, fn):
        qlinalg = name.startswith("qlinalg.")
        eliminates = name in ("qlinalg.echelonize", "qlinalg.determinant")
        builds = {"structmats.build_M": "M", "structmats.build_HL": "HL"}.get(name)
        is_classify = name == "classify.classify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = _now()
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            if eliminates:
                m = args[0]
                if name == "qlinalg.echelonize":
                    self.count["echelonize_cells"] += m.rows * m.cols
                if self._in_classify and name == "qlinalg.determinant":
                    self.count["classify_determinants"] += 1
                kind = self._operators.get(id(m))
                if kind is not None:
                    self.count[f"{kind[0]}_reductions"] += 1
            if is_classify:
                self._in_classify += 1
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if is_classify:
                    self._in_classify -= 1
            self.calls[name] += 1
            self.self_ns[name] += end - start - frame[1]
            if builds:
                # keep a reference so the id stays unique for the op
                self._operators[id(result)] = (builds, result)
            if qlinalg:
                bits = _max_bits(result)
                if bits > self.max_bits:
                    self.max_bits = bits
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((span_id, parent, name, start, end))
            if stack:
                stack[-1][1] += _now() - t_enter
            return result

        return wrapper
