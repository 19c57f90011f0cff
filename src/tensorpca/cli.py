"""Command-line front end and the batch experiment harness.

Four subcommands: ``gen`` writes random instances, ``solve`` runs one file
through the chosen relaxation, ``oracle`` prints the reference value, and
``experiment`` sweeps seeded random instances, one trial after another, and
emits one CSV row per (size, method).  ``--method`` picks the relaxation on
every route, bi-quadratic files and the biquadratic family included.
Exit codes: 0 for a certified solve, 2 when the solve finished uncertified,
1 for any error.  lambda is certified iff the iteration cap did not stop
the solve and bound - lambda <= rank_tol * |bound| on the relaxation's
form (`admm.certifies`), whether it came from the polished read-out or the
local-ascent fallback.  `rank_one_ratio` and the experiments'
``rank_one_count`` report the paper's rank-one statistic, which certifies
nothing.  `solve` prints the dual bound and the gap, bound - lambda, on the
scale of the printed lambda on every route (the component's bound);
`termination` is "converged", "gap" (the ADMM stopped once its read-out
value closed the gap to the bound, which `solve` asks for on every route)
or "iter_cap".
"""

from __future__ import annotations

import argparse
import json
import csv
import functools
import logging
import math
import numbers
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .admm import SolverConfig, solve_nnp, solve_sdp
from .extensions import (odd_to_even, random_partial_symmetric,
                         solve_biquadratic, solve_leading_pc)
from .extraction import MultilinearComponent
from .io import TensorFileError, read_tensor, write_tensor
from .oracle import multistart_local, sphere_grid_max
from .tensors import _fix_sign, eval_homogeneous, random_gaussian, random_uniform

__all__ = ["ExperimentSpec", "run_experiment", "main", "CSV_COLUMNS"]

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("n", "method", "trials", "rank_one_count", "mean_iter",
               "mean_objective", "mean_wall_time", "failed")


@dataclass(frozen=True)
class ExperimentSpec:
    """Protocol for one sweep of seeded random instances.

    For the ``symmetric`` family `sizes` holds dimensions n and each trial
    draws a Gaussian order-2d tensor; for ``biquadratic`` it holds (n, m)
    pairs drawn as partial-symmetric arrays.  Trial t of every (size,
    method) cell uses seed ``seed_base + t``, so the instances are identical
    across methods.
    """

    sizes: Tuple
    trials: int
    methods: Tuple[str, ...] = ("sdp",)
    d: int = 2
    family: str = "symmetric"
    cfg: Optional[SolverConfig] = None
    seed_base: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if self.family not in ("symmetric", "biquadratic"):
            raise ValueError(f"unknown family {self.family!r}")
        for method in self.methods:
            if method not in ("nnp", "sdp"):
                raise ValueError(f"unknown method {method!r}")
        if self.family == "biquadratic":
            for size in self.sizes:
                if not isinstance(size, (tuple, list)) or len(size) != 2:
                    raise ValueError("biquadratic sizes are (n, m) pairs")
            dims = [v for size in self.sizes for v in size]
        else:
            dims = [*self.sizes, self.d]
        if not all(isinstance(v, numbers.Integral) for v in dims):
            raise ValueError("n, m and d must be integers")
        if min(dims, default=1) < 1:
            raise ValueError("n, m and d must be at least 1")


def _symmetric_trial(n: int, d: int, method: str, cfg: SolverConfig, seed: int):
    F = random_gaussian(n, 2 * d, seed)
    solver = solve_nnp if method == "nnp" else solve_sdp
    start = time.perf_counter()
    report = solver(F, cfg)
    elapsed = time.perf_counter() - start
    return report.rank_one, report.iterations, report.objective, elapsed


def _biquadratic_trial(n: int, m: int, method: str, cfg: SolverConfig,
                       seed: int):
    G = random_partial_symmetric(n, m, seed)
    start = time.perf_counter()
    _, report = solve_biquadratic(G, method, cfg)
    elapsed = time.perf_counter() - start
    return report.rank_one, report.iterations, report.objective, elapsed


def run_experiment(spec: ExperimentSpec):
    """Run the sweep; returns one row dict per (size, method) cell.

    Trials run one after another in the calling thread.  A trial that
    raises is logged at DEBUG with its traceback, counted in the `failed`
    column and excluded from the means.  When `spec.output` is set the
    rows are also written there as CSV.
    """
    cfg = spec.cfg or SolverConfig()
    rows = []
    for size in spec.sizes:
        for method in spec.methods:
            if spec.family == "symmetric":
                label = str(size)
                trial, args = _symmetric_trial, (size, spec.d, method, cfg)
            else:
                label = f"{size[0]}x{size[1]}"
                trial, args = _biquadratic_trial, (*size, method, cfg)
            done = []
            for t in range(spec.trials):
                seed = spec.seed_base + t
                try:
                    done.append(trial(*args, seed))
                except Exception:
                    logger.debug("trial failed: %s %s method=%s seed=%d",
                                 spec.family, label, method, seed,
                                 exc_info=True)
            rows.append({
                "n": label,
                "method": method,
                "trials": spec.trials,
                "rank_one_count": sum(1 for c, *_ in done if c),
                "mean_iter": (math.fsum(r[1] for r in done) / len(done)
                              if done else math.nan),
                "mean_objective": (math.fsum(r[2] for r in done) / len(done)
                                   if done else math.nan),
                "mean_wall_time": (math.fsum(r[3] for r in done) / len(done)
                                   if done else math.nan),
                "failed": spec.trials - len(done),
            })
    if spec.output is not None:
        with open(spec.output, "w", encoding="utf-8", newline="") as handle:
            write_csv(rows, handle)
    return rows


def write_csv(rows: Sequence[dict], handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row["n"], row["method"], row["trials"],
                         row["rank_one_count"],
                         f"{row['mean_iter']:.10g}",
                         f"{row['mean_objective']:.10g}",
                         f"{row['mean_wall_time']:.6f}",
                         row["failed"]])


def _cfg_from_args(args) -> SolverConfig:
    return SolverConfig(rho=args.rho, mu=args.mu, tol=args.tol,
                        max_iter=args.max_iter, rank_tol=args.rank_tol,
                        seed=args.seed)


def _format_vector(x) -> str:
    return " ".join(f"{v: .10f}" for v in np.asarray(x))


def _plain(value):
    # numpy scalars are not JSON serializable
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _emit_solution(info: dict, vectors: dict, as_json: bool) -> None:
    if as_json:
        payload = {k: _plain(v) for k, v in info.items()}
        payload.update({k: list(map(float, np.asarray(v)))
                        for k, v in vectors.items()})
        print(json.dumps(payload, indent=2))
        return
    width = max(len(k) for k in list(info) + list(vectors))
    for key, value in info.items():
        if isinstance(value, float):
            value = f"{value:.12g}"
        print(f"{key:<{width}}  {value}")
    for key, value in vectors.items():
        print(f"{key:<{width}}  {_format_vector(value)}")


def _cmd_solve(args) -> int:
    cfg = _cfg_from_args(args)
    loaded = read_tensor(args.input)
    if loaded.kind == "partial_symmetric":
        component, report = solve_biquadratic(loaded.data, args.method, cfg,
                                              stop_on_gap=True)
        vectors = {"x": component.x_star, "y": component.y_star}
    else:
        component, report = solve_leading_pc(loaded.data, args.method, cfg)
        if isinstance(component, MultilinearComponent):
            vectors = {f"x{i + 1}": x for i, x in enumerate(component.xs)}
        else:
            vectors = {"x": component.x_star}
    info = {
        "kind": loaded.kind,
        "dims": " ".join(str(d) for d in loaded.dims),
        "method": args.method,
        "lambda": component.lambda_star,
        "certified": component.certified,
        "iterations": report.iterations,
        "objective": report.objective,
        "nuclear_norm": report.nuclear_norm,
        "rank_one_ratio": report.rank_one_ratio,
        "neg_eig_mass": report.neg_eig_mass,
        "primal_residual": report.primal_residual,
        "rel_change": report.rel_change,
        "termination": report.termination,
        "bound": component.bound,
        "gap": component.bound - component.lambda_star,
    }
    _emit_solution(info, vectors, args.json)
    return 0 if component.certified else 2


def _cmd_gen(args) -> int:
    # a flag that cannot apply to the kind is refused, not ignored
    if args.m is not None and args.kind != "partial_symmetric":
        raise ValueError(f"--m applies to partial_symmetric only, not {args.kind}")
    order = 4 if args.order is None else args.order
    if args.kind == "partial_symmetric":
        if args.dist != "gaussian":
            raise ValueError("partial_symmetric generation is gaussian only")
        if order != 4:
            raise ValueError(f"--order {order}: partial_symmetric arrays have order 4")
        data = random_partial_symmetric(args.n, args.m or args.n, args.seed)
    elif args.kind == "super_symmetric":
        maker = random_gaussian if args.dist == "gaussian" else random_uniform
        data = maker(args.n, order, args.seed)
    else:
        rng = np.random.default_rng(args.seed)
        dims = (args.n,) * order
        data = (rng.standard_normal(dims) if args.dist == "gaussian"
                else rng.uniform(-1.0, 1.0, dims))
    write_tensor(args.output, data, args.kind)
    return 0


def _cmd_oracle(args) -> int:
    loaded = read_tensor(args.input)
    if loaded.kind != "super_symmetric":
        raise ValueError("the oracle handles super_symmetric files only")
    F = loaded.data
    target = odd_to_even(F) if F.m % 2 else F
    use_grid = args.mode == "grid" or (args.mode == "auto" and target.n <= 3)
    if use_grid:
        result = sphere_grid_max(target, args.resolution)
    else:
        result = multistart_local(target, args.restarts, args.seed)
    x = result.argmax
    value = result.value
    if F.m % 2:
        x = _fix_sign(F, x)
        value = eval_homogeneous(F, x)
    info = {
        "kind": loaded.kind,
        "dims": " ".join(str(d) for d in loaded.dims),
        "oracle": "sphere_grid" if use_grid else "multistart",
        "value": value,
        "grid_resolution": result.grid_resolution,
        "polished": result.polished,
    }
    _emit_solution(info, {"argmax": x}, args.json)
    return 0


def _cmd_experiment(args) -> int:
    methods = ("nnp", "sdp") if args.method == "both" else (args.method,)
    if args.family == "biquadratic":
        if args.m is None or len(args.m) != len(args.n):
            raise ValueError("biquadratic runs need --m with one value per --n")
        sizes = tuple(zip(args.n, args.m))
    else:
        sizes = tuple(args.n)
    spec = ExperimentSpec(sizes=sizes, trials=args.trials, methods=methods,
                          d=args.d, family=args.family,
                          cfg=_cfg_from_args(args), seed_base=args.seed_base,
                          output=args.output)
    rows = run_experiment(spec)
    if args.output is None:
        write_csv(rows, sys.stdout)
    return 0


def _add_cfg_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=float, default=SolverConfig.rho,
                        help="nuclear-norm penalty weight (nnp only)")
    parser.add_argument("--mu", type=float, default=SolverConfig.mu,
                        help="proximal step length")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="stopping tolerance")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    parser.add_argument("--rank-tol", type=float, default=SolverConfig.rank_tol,
                        help="certify lambda when bound - lambda <= "
                             "rank_tol * |bound| short of the iteration cap")
    parser.add_argument("--seed", type=int, default=SolverConfig.seed,
                        help="seed for fallback restarts")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call
    parser = argparse.ArgumentParser(
        prog="tensorpca",
        description="Leading principal components of symmetric tensors "
                    "via convex relaxations solved by ADMM.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one tensor file")
    p.add_argument("input", help="tensor file to solve")
    p.add_argument("--method", choices=("nnp", "sdp"), default="sdp")
    _add_cfg_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("output", help="destination file")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--order", type=int, default=None,
                   help="tensor order (default 4; partial_symmetric is always 4)")
    p.add_argument("--m", type=int, default=None,
                   help="second block dimension (partial_symmetric only)")
    p.add_argument("--kind", default="super_symmetric",
                   choices=("super_symmetric", "general", "partial_symmetric"))
    p.add_argument("--dist", default="gaussian", choices=("gaussian", "uniform"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force reference value for a file")
    p.add_argument("input")
    p.add_argument("--mode", default="auto", choices=("auto", "grid", "multistart"))
    p.add_argument("--resolution", type=int, default=None,
                   help="grid points per angle")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="sweep seeded instances, emit CSV")
    p.add_argument("--n", type=int, nargs="+", required=True,
                   help="dimensions to sweep")
    p.add_argument("--m", type=int, nargs="+", default=None,
                   help="second block dimensions (biquadratic family)")
    p.add_argument("--d", type=int, default=2, help="half order: tensors have order 2d")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--method", choices=("nnp", "sdp", "both"), default="sdp")
    p.add_argument("--family", choices=("symmetric", "biquadratic"),
                   default="symmetric")
    p.add_argument("--seed-base", type=int, default=0)
    _add_cfg_flags(p)
    p.add_argument("--output", "-o", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TensorFileError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
