"""End-to-end and per-layer benchmark of tensorpca.

Usage, from the repository root::

    python3 benchmarks/bench.py --workload solve-large --seed 1 --seconds 55 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1

BENCHMARK.json names the workloads the benchmark gate runs (solve-large and
files-mixed).  sweep-small, the only workload on the experiment thread
pool, runs by name or with ``all``.

Each workload runs in its own process against the package under ``src/``
(nothing is installed).  All workloads are closed loops with one caller:
the next operation starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics: it runs the workload's
instance pool round robin until ``--seconds`` have passed and every
instance ran at least MIN_PASSES times.  The timings are each instance's
fastest run (best of its repeats, as `timeit` reports).  A shared host's
speed drifts by a fifth or more over tens of seconds; repeats spread over
the run find its quiet stretches, so the best of them holds still from run
to run where the median of all runs does not.  The p50, p90 and throughput
of all runs are printed beside the metrics.
``--trace 1`` runs the first few cycles of the pool twice, once with the
span tracer installed and once without, alternating which goes first per
operation; it reports the per-layer metrics and the tracing overhead.
Its counts repeat exactly for a given seed.

Every output is checked after the timed phase by `check.py`, which shares
no code with tensorpca.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its unit and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS reads its thread count when numpy loads, so pin it before the import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import check  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench-out")
SETUP_REPEATS = 5
WARMUP_SEED = 0  # warm-up instances do not depend on --seed, so neither does its cost
MIN_PASSES = 3  # repeats of each instance before the best one counts

# name -> unit; end-to-end metrics, reported with tracing off
END_TO_END = {
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "certified_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better); per-layer metrics, reported with tracing on
PER_LAYER = {}
for _name in ("project_psd", "shrink_nuclear", "project_C", "project_partial_C"):
    PER_LAYER[f"projection.{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"projection.{_name}.s"] = ("s", "lower")
    PER_LAYER[f"projection.{_name}.us_per_call"] = ("us", "lower")
PER_LAYER.update({
    "projection.spectral_dim_p50": ("rows", "lower"),
    "projection.spectral_n3_sum": ("rows3", "lower"),
    "admm.loop_self_s": ("s", "lower"),
    "admm.run_admm.calls": ("count", "lower"),
    "admm.run_admm.s": ("s", "lower"),
    "admm.iterations.total": ("count", "lower"),
    "admm.iterations.p50": ("count", "lower"),
    "admm.ms_per_iter": ("ms", "lower"),
    "admm.iter_cap.count": ("count", "lower"),
    "admm.post_s": ("s", "lower"),
    "extraction.extract.calls": ("count", "lower"),
    "extraction.extract.s": ("s", "lower"),
    "extraction.certified_frac": ("frac", "higher"),
    "extraction.fallback.count": ("count", "lower"),
    "extraction.mbi_refine.calls": ("count", "lower"),
    "extraction.mbi_refine.s": ("s", "lower"),
    "tensors.eval_homogeneous.calls": ("count", "lower"),
    "tensors.eval_homogeneous.s": ("s", "lower"),
    "matricize.rank_one_ratio.calls": ("count", "lower"),
    "matricize.rank_one_ratio.s": ("s", "lower"),
    "extensions.odd_to_even.calls": ("count", "lower"),
    "extensions.odd_to_even.s": ("s", "lower"),
    "extensions.solve_biquadratic.calls": ("count", "lower"),
    "extensions.solve_biquadratic.s": ("s", "lower"),
    "extensions.biquadratic_fallback.count": ("count", "lower"),
    "io.read_tensor.calls": ("count", "lower"),
    "io.read_tensor.s": ("s", "lower"),
    "io.read_tensor.bytes": ("bytes", "lower"),
    "io.write_tensor.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.run_experiment.s": ("s", "lower"),
    "cli.pool.busy_ratio": ("frac", "higher"),
    "cli.pool.scaling_eff": ("frac", "higher"),
    "tensors.warmup_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})


class Op:
    """One closed-loop operation: `run()` calls into tensorpca."""

    def __init__(self, key, run, solves=1, **info):
        self.key, self.run, self.solves, self.info = key, run, solves, info


def _captured(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _starts(rng, n, count=3):
    return [rng.standard_normal(n) for _ in range(count)]


class SolveLarge:
    """`solve_leading_pc` on Gaussian symmetric tensors, sdp and nnp in turn.

    At N = n^d >= 36 the spectral Y-update dominates a solve, so this is
    the workload a faster eigendecomposition or fewer iterations moves.
    The cycle weights (5 x n=6, 8 x n=4 d=3, 6 x n=8, 1 x n=10) put p50
    inside the n=4 d=3 group, not on a gap between shapes.  The pool is
    two cycles, so each instance runs four to six times in a 55 s run.
    """

    name = "solve-large"
    span = "extraction.solve_leading_pc"
    cycle = ((6, 2), (4, 3), (8, 2), (4, 3), (6, 2), (8, 2), (4, 3), (10, 2),
             (6, 2), (4, 3), (8, 2), (4, 3), (6, 2), (8, 2), (4, 3), (8, 2),
             (6, 2), (4, 3), (8, 2), (4, 3))
    pool_cycles = 2
    trace_cycles = 2

    def setup(self, tp, rng, workdir):
        self.raw, ops = {}, []
        for c in range(self.pool_cycles):
            seen = {}
            for n, d in self.cycle:
                k = seen[(n, d)] = seen.get((n, d), -1) + 1
                method = ("sdp", "nnp")[(k + c) % 2]
                key = len(ops)
                raw = rng.standard_normal((n,) * (2 * d))
                F = tp.symmetrize(raw)
                self.raw[key] = raw
                ops.append(Op(key, lambda F=F, m=method: tp.solve_leading_pc(F, m)))
        start = time.perf_counter()
        warm = np.random.default_rng(WARMUP_SEED)
        for n, d in dict.fromkeys(self.cycle):
            F = tp.symmetrize(warm.standard_normal((n,) * (2 * d)))
            tp.solve_leading_pc(F, "sdp", tp.SolverConfig(max_iter=2))
        return ops, {"tensors.warmup_s": time.perf_counter() - start}

    def references(self, rng):
        self.dense = {k: check.symmetrize(raw) for k, raw in self.raw.items()}
        self.lower = {}
        self.check_rng = rng

    def check(self, op, output):
        pc, _ = output
        t = self.dense[op.key]
        if pc.certified and op.key not in self.lower:
            self.lower[op.key] = check.hopm_lower(
                t, _starts(self.check_rng, t.shape[0]))
        problems = check.check_component(
            t, pc.lambda_star, [pc.x_star] * t.ndim, pc.certified,
            lower=self.lower.get(op.key))
        return problems, int(pc.certified)


class SweepSmall:
    """`run_experiment` cells at N <= 25 on the experiment thread pool.

    At this size the loop's own work and the X-projections take a large
    share, and this is the only workload that uses the thread pool.  Each
    operation is one (size, method) cell, with trials chosen so every cell
    costs about the same.  The pool repeats, and a repeated cell must give
    the same counts, since results may not depend on scheduling.
    """

    name = "sweep-small"
    span = "cli.run_experiment"
    cells = (("symmetric", 3, "sdp", 16), ("symmetric", 3, "nnp", 16),
             ("symmetric", 4, "sdp", 8), ("symmetric", 4, "nnp", 8),
             ("symmetric", 5, "sdp", 4), ("symmetric", 5, "nnp", 4),
             ("biquadratic", (4, 4), "sdp", 4), ("biquadratic", (4, 6), "sdp", 2))
    pool_cycles = 4
    trace_cycles = 2

    def setup(self, tp, rng, workdir):
        base = int(rng.integers(1, 2 ** 31)) * 1000
        ops = []
        for c in range(self.pool_cycles):
            for family, size, method, trials in self.cells:
                spec = tp.ExperimentSpec(sizes=(size,), trials=trials,
                                         methods=(method,), family=family,
                                         seed_base=base + 100 * c)
                ops.append(Op((family, size, method, spec.seed_base),
                              lambda spec=spec: tp.run_experiment(spec),
                              solves=trials, spec=spec))
        start = time.perf_counter()
        for family, size in dict.fromkeys((f, s) for f, s, _, _ in self.cells):
            tp.run_experiment(tp.ExperimentSpec(
                sizes=(size,), trials=1, family=family,
                cfg=tp.SolverConfig(max_iter=2)))
        return ops, {"tensors.warmup_s": time.perf_counter() - start}

    def references(self, rng):
        self.check_rng = rng
        self.lower = {}
        self.first = {}

    def _mean_lower(self, spec):
        values = []
        for t in range(spec.trials):
            raw_rng = np.random.default_rng(spec.seed_base + t)
            if spec.family == "symmetric":
                n = spec.sizes[0]
                F = check.symmetrize(raw_rng.standard_normal((n,) * 4))
                values.append(check.hopm_lower(F, _starts(self.check_rng, n)))
            else:
                n, m = spec.sizes[0]
                g = check.partial_symmetrize(raw_rng.standard_normal((n, m, n, m)))
                values.append(check.biquadratic_lower(g, _starts(self.check_rng, m)))
        return sum(values) / len(values)

    def check(self, op, rows):
        spec = op.info["spec"]
        (row,) = rows
        problems = []
        if row["failed"]:
            problems.append(f"{row['failed']} trials raised")
        if row["trials"] != spec.trials:
            problems.append(f"{row['trials']} trials reported, {spec.trials} run")
        certified = row["rank_one_count"]
        # the sdp objective bounds the maximum from above; an nnp objective
        # equals it only when every trial is rank one
        if spec.methods == ("sdp",) or certified == spec.trials:
            cell = (spec.family, spec.sizes, spec.seed_base)
            if cell not in self.lower:
                self.lower[cell] = self._mean_lower(spec)
            lower, mean = self.lower[cell], row["mean_objective"]
            if not mean >= lower - check.OBJECTIVE_TOL * max(1.0, abs(lower)):
                problems.append(f"mean objective {mean!r} below {lower!r}")
        seen = self.first.setdefault(op.key, (certified, row["mean_iter"]))
        if seen != (certified, row["mean_iter"]):
            problems.append(f"repeat gave {(certified, row['mean_iter'])}, "
                            f"first run {seen}")
        return problems, certified


class FilesMixed:
    """`tensorpca solve FILE --json` in-process on every file route.

    The only workload where file parsing, the reductions and the extraction
    fallback do real work.  The tied instances (two orthonormal rank-one
    terms) always miss the certificate and have lambda = 1 exactly.  The
    cycle weights put p50 inside the tied m=4 group.  Each of the pool's
    72 files is read about ten times in a 55 s run.  Dense order
    >= 6 general arrays are left out: their symmetric embedding is too
    large to solve in a run.
    """

    name = "files-mixed"
    span = "cli.main"
    cycle = ("tied3", "trilinear", "tied4", "quadrilinear", "partial",
             "trilinear", "tied4", "odd", "quadrilinear")
    pool_cycles = 8
    trace_cycles = 6

    def _instance(self, tp, rng, kind):
        if kind == "odd":
            raw = rng.standard_normal((6, 6, 6))
            return tp.symmetrize(raw), "super_symmetric", raw
        if kind == "partial":
            g = check.partial_symmetrize(rng.standard_normal((4, 6, 4, 6)))
            return g, "partial_symmetric", g
        if kind == "trilinear":
            raw = rng.standard_normal((4, 4, 4))
            return raw, "general", raw
        if kind == "quadrilinear":
            raw = rng.standard_normal((3, 3, 3, 3))
            return raw, "general", raw
        m, n = (4, 6) if kind == "tied4" else (3, 5)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dense = np.zeros((n,) * m)
        for j in range(2):
            term = q[:, j]
            for _ in range(m - 1):
                term = np.multiply.outer(term, q[:, j])
            dense += term
        return tp.symmetrize(dense), "super_symmetric", dense

    def setup(self, tp, rng, workdir):
        self.raw, ops = {}, []
        write_s = 0.0

        def write(name, data, file_kind):
            nonlocal write_s
            path = os.path.join(workdir, f"{name}.tensor")
            start = time.perf_counter()
            tp.write_tensor(path, data, file_kind)
            write_s += time.perf_counter() - start
            return path

        for c in range(self.pool_cycles):
            for kind in self.cycle:
                key = len(ops)
                data, file_kind, raw = self._instance(tp, rng, kind)
                self.raw[key] = kind, raw
                path = write(f"{key}-{kind}", data, file_kind)
                ops.append(Op(key, lambda p=path: _captured(tp.main, ["solve", p, "--json"]),
                              kind=kind))
        warm = np.random.default_rng(WARMUP_SEED)
        paths = [write(f"warmup-{kind}", *self._instance(tp, warm, kind)[:2])
                 for kind in dict.fromkeys(self.cycle)]
        start = time.perf_counter()
        for path in paths:
            _captured(tp.main, ["solve", path, "--json", "--max-iter", "2"])
        return ops, {"tensors.warmup_s": time.perf_counter() - start,
                     "io.write_tensor.s": write_s}

    def references(self, rng):
        self.dense = {k: check.symmetrize(raw)
                      if kind in ("odd", "tied3", "tied4") else raw
                      for k, (kind, raw) in self.raw.items()}
        self.check_rng = rng
        self.lower = {}

    def _lower(self, key, kind, t):
        if key not in self.lower:
            rng = self.check_rng
            if kind == "partial":
                value = check.biquadratic_lower(t, _starts(rng, t.shape[1]))
            elif kind in ("trilinear", "quadrilinear"):
                value = check.multilinear_lower(
                    t, [[rng.standard_normal(k) for k in t.shape] for _ in range(4)])
            else:
                value = check.hopm_lower(t, _starts(rng, t.shape[0]))
            self.lower[key] = value
        return self.lower[key]

    def check(self, op, output):
        code, text = output
        if code not in (0, 2):
            return [f"exit code {code}"], 0
        out = json.loads(text)
        kind, t = op.info["kind"], self.dense[op.key]
        if "y" in out:
            x, y = np.array(out["x"]), np.array(out["y"])
            vectors = [x, y, x, y]
        elif "x" in out:
            vectors = [np.array(out["x"])] * t.ndim
        else:
            vectors = [np.array(out[f"x{i + 1}"]) for i in range(t.ndim)]
        certified = out["certified"]
        problems = [] if certified == (code == 0) else [
            f"exit code {code} with certified={certified}"]
        lower = self._lower(op.key, kind, t) if certified else None
        problems += check.check_component(
            t, out["lambda"], vectors, certified, lower=lower,
            exact=1.0 if kind.startswith("tied") else None)
        return problems, int(certified)


WORKLOADS = {w.name: w for w in (SolveLarge, SweepSmall, FilesMixed)}


def _fresh_import():
    """Import tensorpca from scratch, so its lru_cache tables start empty."""
    for name in [m for m in sys.modules
                 if m == "tensorpca" or m.startswith("tensorpca.")]:
        del sys.modules[name]
    return importlib.import_module("tensorpca")


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                ref = handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workers):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "tensorpca_workers": workers,
        "commit": _commit(),
        "machine": platform.machine(),
    }


def _execute(op, results):
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # the check counts it as failed
        output = exc
    results.append((op, output, time.perf_counter() - start))


def timed_phase(ops, seconds):
    """Run `ops` round robin until `seconds` passed and MIN_PASSES passes ran."""
    results = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(results) < MIN_PASSES * len(ops)):
        _execute(ops[len(results) % len(ops)], results)
    return results, time.perf_counter() - start


def best_runs(results):
    """Each instance's fastest run in seconds, keyed by operation."""
    best = {}
    for op, _, dt in results:
        best[op.key] = min(dt, best.get(op.key, dt))
    return best


def traced_pass(tp, tracer, ops, span):
    """Run each op traced and untraced, alternating which goes first."""
    results, traced, untraced = [], [], []
    for i, op in enumerate(ops):
        tracer.op = i
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            if on:
                tracer.install(tp)
                run = Op(op.key, tracer.wrap(span, op.run, root=True),
                         op.solves, **op.info)
                try:
                    _execute(run, results)
                finally:
                    tracer.uninstall()
                traced.append(results[-1])
            else:
                _execute(op, results)
                untraced.append(results[-1])
    return results, traced, untraced


def run_workload(name, seed, seconds, trace):
    sys.path.insert(0, SRC)
    workload = WORKLOADS[name]()
    workers = len(os.sched_getaffinity(0)) if name == "sweep-small" else None
    if workers is not None:
        os.environ["TENSORPCA_WORKERS"] = str(workers)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    setups, parts = [], {}
    try:
        for i in range(SETUP_REPEATS):
            path = os.path.join(workdir, str(i))
            os.makedirs(path)
            start = time.perf_counter()
            tp = _fresh_import()
            ops, sub = workload.setup(tp, np.random.default_rng([seed, 0]), path)
            setups.append(time.perf_counter() - start)
            for key, value in sub.items():
                parts.setdefault(key, []).append(value)
        workload.references(np.random.default_rng([seed, 1]))

        tracer = Tracer()
        cycle_len = len(ops) // workload.pool_cycles
        if trace:
            results, traced, untraced = traced_pass(
                tp, tracer, ops[:cycle_len * workload.trace_cycles], workload.span)
        else:
            results, wall = timed_phase(ops, seconds)

        attempted = failed = solves = certified = 0
        for op, output, _ in results:
            attempted += 1
            solves += op.solves
            if isinstance(output, Exception):
                problems, ok = [f"raised {output!r}"], 0
            else:
                problems, ok = workload.check(op, output)
            certified += ok
            if problems:
                failed += 1
                print(f"check failed: {name} op {op.key}: {'; '.join(problems)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(workers)
    print("env " + json.dumps(env))
    if not trace:
        times = [dt for _, _, dt in results]
        best = best_runs(results)
        metrics = {
            "solve_s_p50": statistics.median(best.values()),
            "solves_per_s": sum(op.solves for op in ops) / sum(best.values()),
            "certified_frac": certified / solves,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"samples {len(best)} instances, best of {len(times)} operations "
              f"({solves} solves) in {wall:.3f} s; failed_frac {failed / attempted:.6g}")
        print(f"all operations: p50 {statistics.median(times):.6g} s, "
              f"p90 {statistics.quantiles(times, n=10, method='inclusive')[8]:.6g} s, "
              f"{solves / wall:.6g} solves/s")
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(tracer.spans))
        for key, values in parts.items():
            metrics[key] = statistics.median(values)
        metrics["trace.overhead_frac"] = (sum(dt for *_, dt in traced)
                                          / sum(dt for *_, dt in untraced) - 1)
        if workers is not None:
            metrics.update(_pool_metrics(tracer, untraced, workers))
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _pool_metrics(tracer, untraced, workers):
    """Busy ratio of the traced pass and scaling against one worker."""
    trials = sum(s.seconds for s in tracer.spans if s.name == "cli.trial")
    sweeps = sum(s.seconds for s in tracer.spans if s.name == "cli.run_experiment")
    rate = sum(op.solves for op, *_ in untraced) / sum(dt for *_, dt in untraced)
    os.environ["TENSORPCA_WORKERS"] = "1"
    try:
        single = []
        for op, *_ in untraced:
            _execute(op, single)
    finally:
        os.environ["TENSORPCA_WORKERS"] = str(workers)
    single_rate = sum(op.solves for op, *_ in single) / sum(dt for *_, dt in single)
    return {"cli.pool.busy_ratio": trials / (sweeps * workers),
            "cli.pool.scaling_eff": rate / (workers * single_rate)}


def run_all(args):
    """Run every workload, each in a fresh process; print their results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "tensorpca")):
        print(f"error: no tensorpca package under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
