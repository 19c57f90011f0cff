"""Turning a solve into a tensor principal component.

Polishes the read-out of a converged solve by `admm.newton_refine` (a gap
stop's value is polished already), certifies its value by
`admm.certifies`, refines solutions that miss the certificate by
block-coordinate ascent, deflates, and runs the even-order step of
`extensions.solve_leading_pc`: solve, extract, fall back.  Both fallbacks
restart by `_ascend_with_restarts`, best of the read-out point and RESTARTS
seeded random starts, and stop at the read-out point's ascent when it
closes the gap to the solve's dual bound.  This module sits above `admm`
and below `extensions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

import numpy as np

from . import admm
from .admm import (SolveReport, SolverConfig, certifies, closes_gap,
                   newton_refine)
from .matricize import rank_one_ratio  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import _moment_tables
from .tensors import (SuperSymmetricTensor, _as_dense, _fix_sign, _unit,
                      eval_homogeneous, eval_multilinear, identity_power,
                      rank_one)

__all__ = [
    "PrincipalComponent",
    "NotRankOne",
    "MultilinearComponent",
    "MbiResult",
    "extract",
    "newton_refine",
    "mbi_refine",
    "deflate",
    "solve_even_order",
]


@dataclass(frozen=True)
class PrincipalComponent:
    """Leading component of a symmetric form: value, unit argmax, certificate.

    bound is the solve's dual bound on the form's maximum, on the scale of
    lambda_star (nan when no solve gave one).
    """
    lambda_star: float
    x_star: np.ndarray
    certified: bool
    bound: float = math.nan


@dataclass(frozen=True)
class NotRankOne:
    """Structured non-result: the solve's value missed the certificate.

    ratio and spectrum describe the solve's X, the paper's rank-one
    statistic; neither decided the certificate.
    """
    ratio: float
    spectrum: np.ndarray


@dataclass(frozen=True)
class MultilinearComponent:
    """Leading component of a multilinear form: value and one unit vector per mode.

    bound: the solve's dual bound, mapped onto lambda_star's scale.
    """
    lambda_star: float
    xs: Tuple[np.ndarray, ...]
    certified: bool
    bound: float = math.nan


@dataclass(frozen=True)
class MbiResult:
    x: np.ndarray
    value: float
    sweeps: int
    converged: bool


def extract(F: SuperSymmetricTensor, report: SolveReport,
            rank_tol: float = SolverConfig.rank_tol
            ) -> Union[PrincipalComponent, NotRankOne]:
    """Recover (lambda*, x*) for the even-order F from a solve of it.

    `report` is a report of solve_nnp or solve_sdp (TypeError for anything
    else: a bare matrix has no dual bound, so nothing could certify it).
    A gap stop carries the polished read-out of its last check, and a
    converged solve's x is polished by `newton_refine` first.  lambda* =
    F(x) is certified iff the iteration cap did not stop the solve and
    bound - lambda* <= rank_tol * |bound| (`admm.certifies`), and the
    certified PrincipalComponent is returned.  Otherwise a NotRankOne
    carrying X's rank-one ratio and spectrum is returned.
    """
    if not isinstance(report, SolveReport):
        raise TypeError("extract takes a SolveReport of solve_nnp or solve_sdp")
    if F.m % 2:
        raise ValueError("extraction needs an even order")
    if report.termination == "converged":
        x = newton_refine(F, report.extracted_x)
        report = replace(report, extracted_lambda=eval_homogeneous(F, x),
                         extracted_x=x)
    if not certifies(report, rank_tol):
        return NotRankOne(report.rank_one_ratio, _spectrum(report))
    return PrincipalComponent(report.extracted_lambda, report.extracted_x,
                              True, report.bound)


def _spectrum(report: SolveReport) -> np.ndarray:
    # X's eigenvalues, ascending.  In moment coordinates X = B M B^T with B
    # an isometry from R^K, so X has M's K eigenvalues and N - K zeros
    if report.moment is None:
        return np.linalg.eigvalsh(report.X)
    n, d = report.moment
    _, _, pair, w = _moment_tables(n, d)
    zeros = np.zeros(n ** d - len(w))
    return np.sort(np.concatenate([np.linalg.eigvalsh(report.values[pair] * w),
                                   zeros]))


def _unfoldings(t, dense: np.ndarray) -> list:
    # mode j moved to the front of `dense`, contiguous, for each mode j.
    # Every unfolding of a symmetric tensor is its dense array, so none is
    # copied; a general array is copied once per mode, bar a contiguous
    # array's mode 0
    if isinstance(t, SuperSymmetricTensor):
        return [dense] * dense.ndim
    return [np.ascontiguousarray(np.moveaxis(dense, j, 0))
            for j in range(dense.ndim)]


def _block_gradient(unfolded: np.ndarray, xs: Sequence[np.ndarray],
                    j: int) -> np.ndarray:
    # the form with every block but j contracted on mode j's unfolding, the
    # last block first: each step is the reshape and np.dot that
    # np.tensordot runs, on an operand that is already contiguous
    n = unfolded.shape[0]
    out = unfolded
    for k in reversed(range(len(xs))):
        if k != j:
            out = np.dot(out.reshape(-1, n), xs[k])
    return out


def mbi_refine(t, x0s: Sequence[np.ndarray], tol: float = 1e-10,
               max_sweeps: int = 1000) -> MbiResult:
    """Block-coordinate ascent on the multilinear form of a cubical tensor.

    Each step replaces one block with its normalized block gradient, which
    maximizes the form over that block and therefore never decreases the
    objective.  Sweeps stop when the relative improvement drops below `tol`
    or the sweep cap is hit (the best iterate is returned flagged either
    way).  The returned x is the block direction whose homogeneous value is
    largest, sign fixed toward the larger value.  The gradients contract
    the m mode unfoldings of `t`, built once: a SuperSymmetricTensor's
    dense array serves every mode, a general array is copied once per mode
    and never written.
    """
    dense = _as_dense(t)
    m = dense.ndim
    if len(set(dense.shape)) != 1:
        raise ValueError("block refinement needs a cubical tensor")
    if len(x0s) != m:
        raise ValueError(f"need {m} start blocks, got {len(x0s)}")
    unfolded = _unfoldings(t, dense)
    xs = [_unit(x) for x in x0s]
    value = eval_multilinear(dense, xs)
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        previous = value
        for j in range(m):
            g = _block_gradient(unfolded[j], xs, j)
            norm_g = float(np.linalg.norm(g))
            if norm_g == 0.0:
                continue
            xs[j] = g / norm_g
            value = norm_g
        if abs(value - previous) <= tol * abs(previous):
            converged = True
            break

    # negation is exact: f(-x) = f(x) at even order and -f(x) at odd order,
    # so the better sign's value is f(x) or |f(x)|, one evaluation per block
    values = [eval_multilinear(dense, [x] * m) for x in xs]
    if m % 2:
        values = [abs(v) for v in values]
    best = max(range(m), key=values.__getitem__)
    return MbiResult(_fix_sign(dense, xs[best]), values[best], sweeps, converged)


RESTARTS = 5


def _ascend_with_restarts(ascend, start, seed: int, bound: float = math.nan,
                          rank_tol: float = 0.0):
    # both fallbacks' restart policy: ascend(*blocks) -> (value, result) from
    # `start` and from RESTARTS tuples of unit blocks, all drawn with `seed`
    # before any ascent; the largest value wins, the earliest on a tie.  The
    # ascent from `start` is returned at once when it closes the gap to
    # `bound`: no restart can beat the bound by more than the tolerance
    rng = np.random.default_rng(seed)
    restarts = [tuple(_unit(rng.standard_normal(b.size)) for b in start)
                for _ in range(RESTARTS)]
    first = ascend(*start)
    if closes_gap(bound, first[0], rank_tol):
        return first[1]
    return max([first] + [ascend(*blocks) for blocks in restarts],
               key=lambda r: r[0])[1]


def _refine_not_rank_one(F: SuperSymmetricTensor, x0: np.ndarray, seed: int,
                         bound: float = math.nan,
                         rank_tol: float = 0.0) -> np.ndarray:
    """Fallback for an uncertified solve: block ascent plus random restarts.

    The ascent runs on F + (||F||_F / 4) (x.x)^(m/2), which on the sphere is
    F's form plus a constant, so the argmax is F's.  The shift scales with
    F, so F and sF give the same x.  It starts from x0 and from the restart
    policy's random unit vectors; the result with the largest F value wins,
    unless the ascent from x0 already closes the gap to `bound`.
    """
    n, m = F.n, F.m
    target = F + (F.norm() / 4.0) * identity_power(n, m // 2)

    def ascend(x):
        x = mbi_refine(target, [x] * m).x
        return eval_homogeneous(F, x), x

    return _fix_sign(F, _ascend_with_restarts(ascend, (x0,), seed, bound,
                                              rank_tol))


def deflate(F: SuperSymmetricTensor, pc: PrincipalComponent) -> SuperSymmetricTensor:
    """Subtract the rank-one component lambda* x*^(x m) from F."""
    if not pc.certified:
        raise ValueError("refusing to deflate an uncertified component")
    return F - pc.lambda_star * rank_one(1.0, pc.x_star, F.m)


def solve_even_order(F: SuperSymmetricTensor, method: str, cfg):
    """Even-order step of solve_leading_pc: solve, extract, refine.

    The solve stops on the duality gap (`stop_on_gap`): once the polished
    value read out of an iterate closes the gap to the dual bound corrected
    at that read-out, the report's termination is "gap" and `extract`
    returns that x.  A
    solve whose value no certificate covers falls back to block ascent from
    the extracted x plus random restarts, and the component is certified
    when that value closes the gap to the solve's bound (`admm.certifies`).
    The returned report carries the returned x and F(x) as extracted_x and
    extracted_lambda, so F(extracted_x) == extracted_lambda.
    """
    # the solvers are looked up on admm, where benchmarks/tracer.py times them
    solver = {"nnp": admm.solve_nnp, "sdp": admm.solve_sdp}.get(method)
    if solver is None:
        raise ValueError(f"unknown method {method!r}")
    report = solver(F, cfg, stop_on_gap=True)
    pc = extract(F, report, cfg.rank_tol)
    if isinstance(pc, NotRankOne):
        x = _refine_not_rank_one(F, report.extracted_x, cfg.seed, report.bound,
                                 cfg.rank_tol)
        report = replace(report, extracted_lambda=eval_homogeneous(F, x))
        pc = PrincipalComponent(report.extracted_lambda, x,
                                certifies(report, cfg.rank_tol), report.bound)
    return pc, replace(report, extracted_lambda=pc.lambda_star,
                       extracted_x=pc.x_star)
