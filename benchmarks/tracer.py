"""In-memory span tracer that times calls into tensorpca from outside.

Nothing inside the package is instrumented.  Instead, `Tracer.install`
replaces the module attribute each caller looks a function up through (for
example ``tensorpca.admm.project_psd``, which ``solve_sdp`` reads at call
time) with a timing wrapper, and `Tracer.uninstall` puts the originals
back.  With the wrappers removed the program runs exactly as untraced.

Each span records its name, start, end, parent span, operation id and
thread.  A layer's self time is its span minus the part of that interval
its direct children cover (children on other threads included).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time


def _dim(args, result):
    return {"dim": int(args[0].shape[0])}


def _admm_result(args, result):
    return {"iterations": int(result[2]), "converged": bool(result[5])}


def _extract_result(args, result):
    return {"certified": type(result).__name__ == "PrincipalComponent"}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, note) -- one row per lookup site on the
# solve path.  A function imported into several modules appears once per
# module that calls it.  `note(args, result)` attaches values to the span.
PATCHES = (
    ("admm", "project_C", "projection.project_C", None),
    ("admm", "project_psd", "projection.project_psd", _dim),
    ("admm", "shrink_nuclear", "projection.shrink_nuclear", _dim),
    ("extensions", "project_psd", "projection.project_psd", _dim),
    ("extensions", "project_partial_C", "projection.project_partial_C", None),
    ("admm", "run_admm", "admm.run_admm", _admm_result),
    ("extensions", "run_admm", "admm.run_admm", _admm_result),
    ("admm", "solve_sdp", "admm.solve_sdp", None),
    ("admm", "solve_nnp", "admm.solve_nnp", None),
    ("cli", "solve_sdp", "admm.solve_sdp", None),
    ("cli", "solve_nnp", "admm.solve_nnp", None),
    ("extraction", "extract", "extraction.extract", _extract_result),
    ("extraction", "_refine_not_rank_one", "extraction.fallback", None),
    ("extraction", "mbi_refine", "extraction.mbi_refine", None),
    ("extraction", "eval_homogeneous", "tensors.eval_homogeneous", None),
    ("admm", "eval_homogeneous", "tensors.eval_homogeneous", None),
    ("admm", "rank_one_ratio", "matricize.rank_one_ratio", None),
    ("extraction", "rank_one_ratio", "matricize.rank_one_ratio", None),
    ("extensions", "rank_one_ratio", "matricize.rank_one_ratio", None),
    ("extensions", "odd_to_even", "extensions.odd_to_even", None),
    ("extensions", "solve_biquadratic", "extensions.solve_biquadratic", None),
    ("cli", "solve_biquadratic", "extensions.solve_biquadratic", None),
    ("extensions", "_mbi_biquadratic", "extensions.biquadratic_fallback", None),
    ("cli", "read_tensor", "io.read_tensor", _file_bytes),
    ("cli", "solve_leading_pc", "extraction.solve_leading_pc", None),
    ("cli", "_symmetric_trial", "cli.trial", None),
    ("cli", "_biquadratic_trial", "cli.trial", None),
)

PROJECTIONS = ("projection.project_C", "projection.project_partial_C",
               "projection.project_psd", "projection.shrink_nuclear")
SPECTRAL = ("projection.project_psd", "projection.shrink_nuclear")


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end",
                 "attrs")

    def __init__(self, id, name, parent, op, thread, start=0.0, end=0.0,
                 attrs=None):
        self.id, self.name, self.parent, self.op = id, name, parent, op
        self.thread, self.start, self.end = thread, start, end
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # open op-level span; parent of worker-thread spans
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None, root=False):
        """Return fn timed as a span called `name`.

        A `root` span is the operation's own span: spans opened on other
        threads while it runs (the experiment pool) take it as parent.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].id if stack else self._root
            span = Span(next(self._ids), name, parent, self.op,
                        threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            if root:
                self._root = span.id
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
            if note is not None:
                span.attrs.update(note(args, result))
            return result

        return traced

    def install(self, package) -> None:
        """Replace every PATCHES lookup site in `package` with a wrapper."""
        for module_name, attr, name, note in PATCHES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "op": s.op, "thread": s.thread, "start": s.start,
                    "end": s.end, **s.attrs}) + "\n")


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans, child_names=None):
    """Map span id -> duration minus the time its direct children cover.

    With `child_names` only children of those names are subtracted.
    """
    children = {}
    for s in spans:
        if s.parent is not None and (child_names is None
                                     or s.name in child_names):
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - _covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def layer_metrics(spans) -> dict:
    """Per-layer metrics computed from one run's spans.

    Layers the run never entered read as zero.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    out = {}
    for name in ("projection.project_psd", "projection.shrink_nuclear",
                 "projection.project_C", "projection.project_partial_C"):
        n = calls(name)
        out[f"{name}.calls"] = n
        out[f"{name}.s"] = secs(name)
        out[f"{name}.us_per_call"] = secs(name) / n * 1e6 if n else 0.0
    dims = [s.attrs["dim"] for name in SPECTRAL for s in by_name.get(name, ())]
    out["projection.spectral_dim_p50"] = statistics.median(dims) if dims else 0
    out["projection.spectral_n3_sum"] = sum(d ** 3 for d in dims)

    admm_spans = by_name.get("admm.run_admm", [])
    loop_self = self_times(spans, child_names=PROJECTIONS)
    iterations = [s.attrs["iterations"] for s in admm_spans]
    out["admm.run_admm.calls"] = len(admm_spans)
    out["admm.run_admm.s"] = secs("admm.run_admm")
    out["admm.loop_self_s"] = sum(loop_self[s.id] for s in admm_spans)
    out["admm.iterations.total"] = sum(iterations)
    out["admm.iterations.p50"] = statistics.median(iterations) if iterations else 0
    out["admm.ms_per_iter"] = (secs("admm.run_admm") / sum(iterations) * 1e3
                               if iterations else 0.0)
    out["admm.iter_cap.count"] = sum(not s.attrs["converged"] for s in admm_spans)
    solver_spans = by_name.get("admm.solve_sdp", []) + by_name.get("admm.solve_nnp", [])
    post = self_times(spans, child_names=("admm.run_admm",))
    out["admm.post_s"] = sum(post[s.id] for s in solver_spans)

    extracts = by_name.get("extraction.extract", [])
    out["extraction.extract.calls"] = len(extracts)
    out["extraction.extract.s"] = secs("extraction.extract")
    out["extraction.certified_frac"] = (
        sum(s.attrs["certified"] for s in extracts) / len(extracts)
        if extracts else 0.0)
    out["extraction.fallback.count"] = calls("extraction.fallback")
    for name in ("extraction.mbi_refine", "tensors.eval_homogeneous",
                 "matricize.rank_one_ratio", "extensions.odd_to_even",
                 "extensions.solve_biquadratic", "io.read_tensor"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    out["extensions.biquadratic_fallback.count"] = calls(
        "extensions.biquadratic_fallback")
    out["io.read_tensor.bytes"] = sum(s.attrs["bytes"]
                                      for s in by_name.get("io.read_tensor", ()))
    main_self = self_times(spans)
    out["cli.main.self_s"] = sum(main_self[s.id] for s in by_name.get("cli.main", ()))
    out["cli.run_experiment.s"] = secs("cli.run_experiment")
    return out
