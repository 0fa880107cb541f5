#!/usr/bin/env python3
"""Benchmark of the skewlie command line: seeded workloads, checked outputs.

    python3 skewbench/run.py --workload analyze-d3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One process, one thread, one closed-loop
client: each op is an in-process call to ``skewlie.cli.main`` with stdout
captured, and the next op starts when the previous one returns. The last line
of stdout is the result object; the line before it holds the run's inputs,
environment and sample counts. ``--trace 1`` runs each input untraced and
traced back to back, and reports per-layer numbers and the tracing overhead.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import array
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # fresh interpreters before, and again after, the timed loop
PROBE_TIMEOUT_S = 60

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REF_EVERY_NS = 100_000_000  # reference kernel between ops at most this often
# Between long ops the kernel runs several times, for about this share of the
# last op's time: one 10 ms sample is a poor estimate of the speed over a 1 s op.
REF_SHARE = 0.1

PER_LAYER_UNITS = {
    "qlinalg.echelonize.calls": "count/op",
    "qlinalg.echelonize.self_ms": "ms/op",
    "qlinalg.echelonize.cells": "cells/op",
    "qlinalg.kernel_basis.self_ms": "ms/op",
    "qlinalg.determinant.calls": "count/op",
    "qlinalg.determinant.self_ms": "ms/op",
    "qlinalg.inverse.calls": "count/op",
    "qlinalg.inverse.self_ms": "ms/op",
    "qlinalg.out_max_bits": "bits",
    "structmats.build_M.calls": "count/op",
    "structmats.build_M.self_ms": "ms/op",
    "structmats.build_HL.calls": "count/op",
    "structmats.build_HL.self_ms": "ms/op",
    "structmats.M_reductions_per_op": "count/algebra",
    "structmats.HL_reductions_per_op": "count/algebra",
    "algebra.multiply.calls": "count/op",
    "algebra.multiply.self_ms": "ms/op",
    "algebra.transport.calls": "count/op",
    "algebra.transport.self_ms": "ms/op",
    "algebra.span.calls": "count/op",
    "algebra.span.self_ms": "ms/op",
    "algebra.killing_matrix.self_ms": "ms/op",
    "algebra.is_lie.self_ms": "ms/op",
    "classify.classify.calls": "count/op",
    "classify.classify.self_ms": "ms/op",
    "classify.pair_candidates_per_op": "count",
    "classify.lie_type_constants.self_ms": "ms/op",
    "sampler.random_algebra.calls": "count/op",
    "sampler.random_algebra.self_ms": "ms/op",
    "sampler.run_experiment.self_ms": "ms/op",
    "cli.parse_algebra.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.output_bytes": "bytes/op",
}
LAYERS = tuple(tracing.WRAPPED)


def import_program():
    """Import skewlie from this checkout's src/, never from site-packages."""
    if "skewlie.cli" not in sys.modules:
        if not (SRC / "skewlie" / "__init__.py").is_file():
            sys.exit(f"error: no skewlie sources at {SRC}; run from a checkout")
        sys.path.insert(0, str(SRC))
        import skewlie.cli  # noqa: F401
    cli = sys.modules["skewlie.cli"]
    if Path(cli.__file__).resolve().parent != SRC / "skewlie":
        sys.exit(f"error: imported skewlie from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv) -> tuple[int | str, int, str, str]:
    """One op: (exit code or exception, elapsed ns, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as e:  # a traceback counts as a failed op, not a crash
        rc = f"{type(e).__name__}: {e}"
    return rc, time.perf_counter_ns() - t0, out.getvalue(), err.getvalue()


def setup(workload: str, seed: int, workdir: Path):
    """Everything between a fresh process and the first timed op."""
    cli = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.Workload(workload, seed, workdir)
    wl.discard(wl.op(0))
    rc, _, _, err = run_op(cli, workloads.warmup_argv(workload, workdir))
    if rc != 0:
        sys.exit(f"error: warm-up op failed ({rc}): {err.strip()}")
    return cli, wl


def setup_probe(workload: str, seed: int) -> None:
    workdir = BENCH / ".work" / f"probe-{os.getpid()}"
    try:
        setup(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first timed op."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class Phase:
    """The timings of one closed-loop measurement."""

    def __init__(self):
        self.start_ns = array.array("q")
        self.latency_ns = array.array("q")
        self.ref_t: list[int] = []   # when the reference kernel ran
        self.ref_ns: list[int] = []  # and how long it took
        self.out_bytes = 0

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    def timed(self, cli, op) -> tuple[int | str, str, str]:
        """Run one op and keep its timing; return (exit code, stdout, stderr)."""
        rc, ns, out, err = run_op(cli, op.argv)
        self.start_ns.append(time.perf_counter_ns() - ns)
        self.latency_ns.append(ns)
        self.out_bytes += len(out)
        return rc, out, err

    def sample_reference(self, force: bool = False) -> None:
        due = not self.ref_t or time.perf_counter_ns() - self.ref_t[-1] >= REF_EVERY_NS
        if not (force or due):
            return
        repeats = 1
        if self.latency_ns and self.ref_ns:
            repeats = max(1, round(REF_SHARE * self.latency_ns[-1] / self.ref_ns[-1]))
        for _ in range(repeats):
            self.ref_ns.append(reference.kernel_ns())
            self.ref_t.append(time.perf_counter_ns())

    @property
    def throughput(self) -> float:
        """Ops per second of time spent inside ``cli.main``."""
        return self.ops / (sum(self.latency_ns) / 1e9)

    def speed(self, t0: int = 0, t1: int = 1 << 62) -> float:
        """NOMINAL_NS over the median reference time sampled in [t0, t1],
        widened by one sampling interval on each side."""
        lo = bisect.bisect_left(self.ref_t, t0 - REF_EVERY_NS)
        hi = bisect.bisect_right(self.ref_t, t1 + REF_EVERY_NS)
        return reference.NOMINAL_NS / statistics.median(self.ref_ns[lo:hi])

    def nominal_latency_ns(self) -> list[float]:
        """Each op's latency scaled by the host speed measured around it."""
        return [ns * self.speed(t, t + ns) for t, ns in zip(self.start_ns, self.latency_ns)]


class Outputs:
    """Operator shapes and ranks (and dim-3 tags) in the reports produced."""

    def __init__(self):
        self.shapes: Counter = Counter()
        self.tags: Counter = Counter()

    def add(self, out: str) -> None:
        try:
            res = json.loads(out)["result"]
            if "rank_histogram" in res:
                n = res["dim"]
                for r, count in res["rank_histogram"].items():
                    self.shapes[f"M {n * n * (n - 1) // 2}x{n * n} rank {r}"] += count
                self.shapes["HL with nonzero kernel"] += res["homlie_count"]
                return
            d, h = res["derivations"], res["homlie"]
            self.shapes[f"M {d['matrix_shape'][0]}x{d['matrix_shape'][1]} rank {d['rank']}"] += 1
            if h["matrix_shape"]:
                self.shapes[f"HL {h['matrix_shape'][0]}x{h['matrix_shape'][1]} rank {h['rank']}"] += 1
            if "classify" in res:
                self.tags[res["classify"]["tag"]] += 1
        except (KeyError, TypeError, ValueError):
            pass  # already counted as a failure by the checks

    def as_dict(self) -> dict:
        return {"operators": dict(sorted(self.shapes.items())),
                "tags": dict(sorted(self.tags.items()))}


def closed_loop(cli, wl: workloads.Workload, seconds: float,
                checker: checks.Checker, outputs: Outputs) -> Phase:
    """Op k runs input k; its output is checked before op k + 1 starts."""
    phase = Phase()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    k = 0
    while time.perf_counter_ns() < deadline:
        op = wl.op(k)
        phase.sample_reference()
        result = phase.timed(cli, op)
        wl.discard(op)
        checker.check(op, [result])
        outputs.add(result[1])
        k += 1
    phase.sample_reference(force=True)
    return phase


def paired_loop(cli, wl: workloads.Workload, seconds: float, tr: tracing.Tracer,
                checker: checks.Checker, outputs: Outputs) -> tuple[Phase, Phase]:
    """Each input runs untraced and traced back to back, in alternating order,
    so that drift in machine speed cancels out of the overhead. Both outputs
    must be byte-identical."""
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    k = 0
    while time.perf_counter_ns() < deadline:
        op = wl.op(k)
        traced.sample_reference()
        results = []
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tr.install()
                try:
                    results.append(traced.timed(cli, op))
                finally:
                    tr.end_op()
                    tr.uninstall()
            else:
                results.append(plain.timed(cli, op))
        wl.discard(op)
        checker.check(op, results)
        outputs.add(results[0][1])
        k += 1
    traced.sample_reference(force=True)
    return plain, traced


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# --- recorded context -----------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    files = sorted((SRC / "skewlie").glob("*.py"))
    return checks.digest("".join(f.name + f.read_text(encoding="utf-8") for f in files))[:16]


def environment(load_start) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "src_sha256_16": source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def input_properties(wl: workloads.Workload, count: int) -> dict:
    """Measured properties of inputs 0 .. count - 1, the ones the run used."""
    constants: list[Fraction] = []
    dims = set()
    algebras = 0
    for op in map(wl.make, range(count)):
        if op.doc is not None:
            n, given = op.doc["dim"], {(p["i"], p["j"]): p["c"] for p in op.doc["products"]}
            pairs = {(i, j): given.get((i, j), ["0"] * n)
                     for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            constants.extend(Fraction(x) for c in pairs.values() for x in c)
            algebras += 1
        else:  # the sampler draws the algebras from (seed, index)
            sampler = sys.modules["skewlie.sampler"]
            argv = op.argv
            cfg = sampler.SampleConfig(
                dim=int(argv[argv.index("--dim") + 1]),
                trials=int(argv[argv.index("--trials") + 1]),
                seed=int(argv[argv.index("--seed") + 1]),
                height=int(argv[argv.index("--height") + 1]))
            n = cfg.dim
            for t in range(cfg.trials):
                prods = sampler.random_algebra(cfg, t).products
                constants.extend(x for i in range(1, n + 1) for j in range(i + 1, n + 1)
                                 for x in prods.get((i, j), (Fraction(0),) * n))
                algebras += 1
        dims.add(n)
    total = len(constants)
    return {
        "dimension": sorted(dims),
        "distinct_inputs": count,
        "algebras": algebras,
        "zero_share": sum(x == 0 for x in constants) / total,
        "non_integer_share": sum(x.denominator != 1 for x in constants) / total,
        "max_bits": max(max(x.numerator.bit_length(), x.denominator.bit_length())
                        for x in constants),
    }


# --- metrics --------------------------------------------------------------

def run_stats(phase: Phase) -> dict:
    """Throughput and nearest-rank latency percentiles over all of the run's
    ops, at nominal host speed."""
    lat = sorted(phase.nominal_latency_ns())
    return {"throughput": len(lat) / (sum(lat) / 1e9),
            "p50_ms": nearest_rank(lat, 0.5) / 1e6,
            "p90_ms": nearest_rank(lat, 0.9) / 1e6}


def end_to_end(stats: dict, setup_s: float) -> dict:
    values = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": (stats["throughput"], "1/s"),
        "latency_p50_ms": (stats["p50_ms"], "ms"),
        "latency_p90_ms": (stats["p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload: str, tr: tracing.Tracer, plain: Phase, traced: Phase) -> dict:
    ops = traced.ops
    ms_per_op = traced.speed() / 1e6 / ops  # self times at nominal host speed
    values: dict[str, float] = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.endswith(".calls"):
            values[name] = tr.calls[name[:-6]] / ops
        elif name.endswith(".self_ms"):
            values[name] = tr.self_ns[name[:-8]] * ms_per_op
    values["qlinalg.echelonize.cells"] = tr.count["echelonize_cells"] / ops
    values["qlinalg.out_max_bits"] = tr.max_bits
    # per analysed algebra: a trial of a sample op, or the document of an analyze op
    algebras = ops * (workloads.SAMPLE_TRIALS if workload == "sample-d4" else 1)
    values["structmats.M_reductions_per_op"] = tr.count["M_reductions"] / algebras
    values["structmats.HL_reductions_per_op"] = tr.count["HL_reductions"] / algebras
    classified = tr.calls["classify.classify"]
    values["classify.pair_candidates_per_op"] = (
        tr.count["classify_determinants"] / classified if classified else 0.0)
    values["cli.output_bytes"] = traced.out_bytes / ops
    out = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    for layer in LAYERS:
        total = sum(ns for name, ns in tr.self_ns.items() if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = {"value": total * ms_per_op, "unit": "ms/op"}
    out["trace.overhead_pct"] = {
        "value": (plain.throughput / traced.throughput - 1) * 100, "unit": "%"}
    return out


def write_spans(tr: tracing.Tracer, workload: str, seed: int) -> Path:
    path = BENCH / "out" / f"spans-{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans": tr.spans}), encoding="utf-8")
    return path


# --- modes ----------------------------------------------------------------

def benchmark(args) -> None:
    load_start = os.getloadavg()
    import_program()  # fail before any probe when the sources are missing
    # set-up probes before and after the timed loop, so that one slow
    # episode of the host does not set the median
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = BENCH / ".work" / f"run-{os.getpid()}"
    try:
        cli, wl = setup(args.workload, args.seed, workdir)
        frozen = checks.load_digests(args.workload, args.seed)
        checker, outputs = checks.Checker(frozen), Outputs()
        info: dict = {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            tr = tracing.Tracer()
            plain, traced = paired_loop(cli, wl, args.seconds, tr, checker, outputs)
            phases = [plain, traced]
            metrics = per_layer(args.workload, tr, plain, traced)
            info["spans_file"] = str(write_spans(tr, args.workload, args.seed).relative_to(ROOT))
            info["throughput_untraced_traced"] = [plain.throughput, traced.throughput]
        else:
            phases = [closed_loop(cli, wl, args.seconds, checker, outputs)]
            setup_times += measure_setup(args.workload, args.seed)
            stats = run_stats(phases[0])
            # set-up stays unscaled: process start-up slows far less than the
            # reference kernel in the host's slow state
            metrics = end_to_end(stats, statistics.median(setup_times))
            lat = sorted(phases[0].latency_ns)
            raw_thr = phases[0].throughput
            info.update({
                "host_speed": phases[0].speed(),
                "setup_s_samples": setup_times,
                "raw": {"throughput_ops_per_s": raw_thr,
                        "latency_p50_ms": nearest_rank(lat, 0.5) / 1e6,
                        "latency_p90_ms": nearest_rank(lat, 0.9) / 1e6},
            })
            if args.workload == "sample-d4":
                info["trials_per_s"] = {
                    "nominal": stats["throughput"] * workloads.SAMPLE_TRIALS,
                    "raw": raw_thr * workloads.SAMPLE_TRIALS}
        info.update({
            "ops_per_phase": [p.ops for p in phases],
            "digest_table": frozen is not None,
            "ops_checked_against_table": checker.against_table,
            "problems": checker.problems,
            "inputs": input_properties(wl, phases[0].ops),
            "outputs": outputs.as_dict(),
            "env": environment(load_start),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


def self_test() -> int:
    """Show that the checks catch one corrupted output of each kind."""
    workdir = BENCH / ".work" / f"selftest-{os.getpid()}"
    results = []

    def verdict(label: str, frozen, runs, expect_failed: int) -> None:
        checker = checks.Checker(frozen)
        for op, outs in runs:
            checker.check(op, outs)
        seen = checker.problems[0] if checker.problems else "no problem found"
        results.append((f"{label} ({seen})", checker.failed == expect_failed))

    try:
        for workload, seed in (("analyze-d3", DEFAULT_SEED), ("analyze-d3", 7),
                               ("sample-d4", 7)):
            cli, wl = setup(workload, seed, workdir)
            frozen = checks.load_digests(workload, seed)
            clean = []
            for op in map(wl.op, range(14)):  # each dim-3 family, sparse and dense
                rc, _, out, err = run_op(cli, op.argv)
                wl.discard(op)
                clean.append((op, [(rc, out, err)]))
            name = f"{workload} seed {seed}: "
            verdict(name + "clean outputs pass", frozen, clean, 0)
            last_op, [(rc, out, err)] = clean[-1]
            for label, corrupt in _corruptions(workload, frozen is not None):
                verdict(name + label + " caught", frozen,
                        clean[:-1] + [(last_op, [(rc, corrupt(out), err)])], 1)
            verdict(name + "a repeat that differs caught", frozen,
                    clean[:-1] + [(last_op, [(rc, out, err), (rc, out.strip(), err)])], 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, ok in results:
        print(("PASS " if ok else "FAIL ") + label)
    return 0 if all(ok for _, ok in results) else 1


def _edit(path: tuple, change):
    def corrupt(out: str) -> str:
        report = json.loads(out)
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return corrupt


def _corruptions(workload: str, frozen: bool):
    if frozen:
        # still valid JSON with the same content: only the digest can tell
        yield "one added space", lambda out: out.replace("\n", "\n ", 1)
    if workload == "sample-d4":
        yield "histogram off by one", _edit(
            ("result", "rank_histogram"),
            lambda h: {k: v + (i == 0) for i, (k, v) in enumerate(h.items())})
        return
    yield "wrong derivation_dim", _edit(("result", "derivations", "derivation_dim"),
                                        lambda d: d + 1)
    yield "swapped witness rows", _edit(("result", "classify", "witness"),
                                        lambda w: [w[1], w[0], w[2]])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are caught")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
