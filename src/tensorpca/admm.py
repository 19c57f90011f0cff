"""One alternating-direction solve for every convex relaxation.

A `Relaxation` describes a problem: its cost matrix, the projection onto
its trace-one affine set and a feasible rank-one start.  `solve` runs it
and reports on X, rank-one certificate included.  `solve_nnp` and
`solve_sdp` build the symmetric-tensor description and recover x; the
bi-quadratic one is in `extensions`.  This module sits above
matricize/projection and below extraction.

The symmetric relaxation runs on K x K moment matrices, K = C(n+d-1, d),
not on n**d x n**d ones: every iterate lies in Sym^d (x) Sym^d, and the
orthonormal basis B of `projection.lift_moment` carries the problem over
with every norm, eigenvalue and iteration unchanged (the moment form of
Nie & Wang, SIAM J. Matrix Anal. Appl. 2014).  The report keeps the K x K
iterate and lifts it to X when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .matricize import _leading_factors, _rank_one_eig, matr
from .matricize import rank_one_ratio  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import _moment_tables, lift_moment, project_moment_C
from .projection import project_C  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import project_psd, shrink_nuclear
from .tensors import (SuperSymmetricTensor, _canonical_sign, _fix_sign,
                      eval_homogeneous)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "Relaxation",
    "solve",
    "solve_nnp",
    "solve_sdp",
    "neg_eig_mass",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    rho is the nuclear-norm penalty weight (penalized model only), mu the
    splitting parameter, tol the stopping threshold on relative change plus
    primal residual, rank_tol the rank-one certification threshold on
    sigma_2/sigma_1, and seed draws the random restarts of the block-ascent
    fallbacks that run when a solve is not certified.
    """
    rho: float = 10.0
    mu: float = 0.5
    tol: float = 1e-6
    max_iter: int = 50_000
    rank_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        floats = (self.rho, self.mu, self.tol, self.rank_tol)
        if not all(math.isfinite(v) for v in floats):
            raise ValueError("rho, mu, tol and rank_tol must be finite")
        if min(floats) <= 0:
            raise ValueError("rho, mu, tol and rank_tol must be positive")
        if self.tol >= 1.0:
            raise ValueError("tol must be below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveReport:
    """Diagnostics of one solve; X is the final feasible primal iterate.

    certified: the solve converged and rank_one_ratio <= cfg.rank_tol.
    `iterate` is X in the solve's own coordinates: the K x K moment matrix
    when `moment` holds the symmetric relaxation's (n, d), X itself when
    `moment` is None.  Reading X lifts a moment iterate to n**d x n**d, so
    a kept report holds K**2 numbers, not n**(2d).
    """
    objective: float
    nuclear_norm: float
    iterations: int
    primal_residual: float
    rel_change: float
    rank_one_ratio: float
    neg_eig_mass: float
    extracted_lambda: float
    extracted_x: np.ndarray
    termination: str  # "converged" | "iter_cap"
    certified: bool
    iterate: np.ndarray = field(repr=False, default=None)
    moment: Optional[Tuple[int, int]] = field(repr=False, default=None)

    @property
    def X(self) -> np.ndarray:
        if self.moment is None:
            return self.iterate
        return lift_moment(self.iterate, *self.moment)


@dataclass(frozen=True)
class Relaxation:
    """One convex relaxation as `solve` runs it.

    Maximize tr(CX) over trace-one X in the affine set `project` maps onto;
    `start` is a feasible rank-one matrix, the ADMM's first Y.  `moment`
    is (n, d) when the matrices are in moment coordinates.
    """
    C: np.ndarray
    project: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    moment: Optional[Tuple[int, int]] = None


def neg_eig_mass(X: np.ndarray) -> float:
    """Absolute sum of the negative eigenvalues of a symmetric matrix."""
    X = np.asarray(X, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (X + X.T))
    return float(-np.sum(w[w < 0.0]))


def run_admm(project_feasible, y_update, Y0: np.ndarray, cfg: SolverConfig):
    """Generic splitting loop shared by all drivers.

    project_feasible maps Y + mu*Lam back onto the affine block; y_update
    maps (X, Lam) to the next spectral block.  Stops when
    ||X_k - X_{k-1}||_F / ||X_{k-1}||_F + ||X_k - Y_k||_F <= tol, with
    X_0 = Y0.  Every X_{k-1} has trace one, so the denominator is at least
    1/sqrt(N).  Returns (X, Y, iterations, rel_change, primal, converged).
    """
    Y = X_prev = Y0
    Lam = np.zeros_like(Y0)
    rel = primal = np.inf
    for iteration in range(1, cfg.max_iter + 1):
        X = project_feasible(Y + cfg.mu * Lam)
        Y = y_update(X, Lam)
        Lam = Lam - (X - Y) / cfg.mu
        rel = float(np.linalg.norm(X - X_prev)) / float(np.linalg.norm(X_prev))
        primal = float(np.linalg.norm(X - Y))
        if rel + primal <= cfg.tol:
            return X, Y, iteration, rel, primal, True
        X_prev = X
    return X, Y, cfg.max_iter, rel, primal, False


def _summarize(X: np.ndarray, C: np.ndarray, rank_tol: float,
              iterations: int = 0, rel: float = 0.0, primal: float = 0.0,
              converged: bool = True,
              moment: Optional[Tuple[int, int]] = None) -> SolveReport:
    # report on X from one eigendecomposition; a bare X counts as converged.
    # Until the caller recovers its factors, extracted_x is the leading
    # eigenvector (lifted to length n**d from moment coordinates, which
    # keep the nonzero spectrum) and extracted_lambda the objective.
    w, ratio, _, v = _rank_one_eig(X)
    if moment is not None:
        v = _canonical_sign(lift_moment(v, *moment))
    objective = float(np.sum(C * X))
    return SolveReport(
        objective=objective, nuclear_norm=float(np.sum(np.abs(w))),
        iterations=iterations, primal_residual=primal, rel_change=rel,
        rank_one_ratio=ratio, neg_eig_mass=float(-np.sum(w[w < 0.0])),
        extracted_lambda=objective, extracted_x=v,
        termination="converged" if converged else "iter_cap",
        certified=bool(converged and ratio <= rank_tol), iterate=X,
        moment=moment)


def solve(problem: Relaxation, method: str, cfg: SolverConfig) -> SolveReport:
    """Run a relaxation through the ADMM and report on its last X.

    X-update: project Y + mu*Lam onto the affine set.  Y-update: "sdp"
    projects X + mu*C - mu*Lam onto the PSD cone; "nnp" shrinks the
    singular values of X - mu*(Lam - C) by mu*rho, for the penalized
    objective tr(CX) - rho*||X||_*.  Multiplier: Lam <- Lam - (X - Y)/mu.
    """
    C = problem.C
    if not C.any():
        raise ValueError("zero tensor is degenerate")
    if method == "sdp":
        def y_update(X, Lam):
            return project_psd(X + cfg.mu * C - cfg.mu * Lam)
    elif method == "nnp":
        tau = cfg.mu * cfg.rho

        def y_update(X, Lam):
            return shrink_nuclear(X - cfg.mu * (Lam - C), tau)
    else:
        raise ValueError(f"unknown method {method!r}")
    X, _, iterations, rel, primal, converged = run_admm(
        problem.project, y_update, problem.start, cfg)
    return _summarize(X, C, cfg.rank_tol, iterations, rel, primal, converged,
                      problem.moment)


def _symmetric_relaxation(F: SuperSymmetricTensor) -> Relaxation:
    if not isinstance(F, SuperSymmetricTensor):
        raise TypeError("solver input must be a SuperSymmetricTensor")
    if F.m % 2:
        raise ValueError("solvers need an even order; square odd orders first")
    n, d = F.n, F.m // 2
    # in moment coordinates: C_K = B^T matr(F) B, read off one row and
    # column per class, and the feasible rank-one start e_k e_k^T at the
    # class k of the best coordinate direction, (best,)*d, alone in it
    cid, rep, _, _, w = _moment_tables(n, d)
    best = max(range(n), key=lambda i: F[(i,) * F.m])
    k = cid[np.ravel_multi_index((best,) * d, (n,) * d)]
    Y0 = np.zeros(w.shape)
    Y0[k, k] = 1.0
    C = matr(F)[np.ix_(rep, rep)] * w
    return Relaxation(C, lambda M: project_moment_C(M, n, d), Y0, (n, d))


def _recover_symmetric(F: SuperSymmetricTensor, report: SolveReport) -> SolveReport:
    # x: the leading eigenvector's left factor, signed by the form; lambda = F(x)
    x = _fix_sign(F, _leading_factors(report.extracted_x, F.n)[0])
    return replace(report, extracted_lambda=eval_homogeneous(F, x), extracted_x=x)


def solve_nnp(F: SuperSymmetricTensor, cfg: SolverConfig = None) -> SolveReport:
    """Maximize tr(FX) - rho*||X||_* over the trace-one symmetric set."""
    cfg = cfg or SolverConfig()
    return _recover_symmetric(F, solve(_symmetric_relaxation(F), "nnp", cfg))


def solve_sdp(F: SuperSymmetricTensor, cfg: SolverConfig = None) -> SolveReport:
    """Maximize tr(FX) over the trace-one symmetric set intersected with PSD."""
    cfg = cfg or SolverConfig()
    return _recover_symmetric(F, solve(_symmetric_relaxation(F), "sdp", cfg))
