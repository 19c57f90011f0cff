"""One alternating-direction solve for every convex relaxation.

A `Relaxation` describes a problem: its cost matrix, the projection onto
its trace-one affine set and a feasible rank-one start.  `solve` runs it
and reports on X, its dual bound included.  `solve_nnp` and `solve_sdp`
build the symmetric-tensor description and recover x; the
partial-symmetric one is in `extensions`.  This module sits above
matricize/projection and below extraction.

Every solve is bounded by its dual.  With L the directions of the affine
set (symmetric, trace zero), any S orthogonal to L gives, for every
trace-one PSD X' in the set, tr(C X') = tr((C + S) X') - <S, X'> <=
lambda_max(C + S) - <S, X> at any X in the set, capped iterates included.
`solve` takes S from the ADMM's last multiplier, so the bound is tight at
a solution, and caps it by the bound at S = 0, lambda_max(C), computed
once per solve: exact on orthogonally decomposable forms, whose unfolding
has their weights as eigenvalues.  `certifies` is the one certificate rule
that reads the bound.  Given the value a route reads out of an iterate,
`solve` also stops the ADMM as soon as that value closes the gap to the
bound at the same iterate.  The routes polish that read-out to a KKT point
of the form first (`newton_refine`, `polish_biquadratic`: Newton steps on
a product of spheres) and hand over its rank-one point u u^T; the bound is
then corrected by the least-norm D orthogonal to L that makes u an
eigenvector of C + S, and is the smaller of the two.  On a tight
relaxation that is the value itself once u is the maximum, so the gap
closes after a few iterations, long before the multiplier converges.

The symmetric relaxation runs on K x K moment matrices, K = C(n+d-1, d),
not on n**d x n**d ones: every iterate lies in Sym^d (x) Sym^d, and the
orthonormal basis B of `projection.lift_moment` carries the problem over
with every norm, eigenvalue and iteration unchanged (the moment form of
Nie & Wang, SIAM J. Matrix Anal. Appl. 2014).  The report keeps the
iterate's one value per 2d-class and lifts it to X when read.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .matricize import _leading_factors, _outer, _rank_one_eig
from .matricize import rank_one_ratio  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import (_moment_tables, lift_blocks, lift_moment,
                         moment_class_values, moment_normal, moment_point,
                         project_moment_C)
from .projection import project_C  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import project_psd, shrink_nuclear
from .tensors import (SuperSymmetricTensor, _class_map, _fix_sign, _unit,
                      eval_homogeneous)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "Relaxation",
    "solve",
    "solve_nnp",
    "solve_sdp",
    "certifies",
    "neg_eig_mass",
    "newton_refine",
    "polish_biquadratic",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    rho is the nuclear-norm penalty weight (penalized model only), mu the
    splitting parameter, tol the stopping threshold on relative change plus
    primal residual, rank_tol the certificate's tolerance (lambda is
    certified iff the iteration cap did not stop the solve and bound -
    lambda <= rank_tol * |bound|, `certifies`) and the rank_one statistic's
    threshold on sigma_2/sigma_1, and seed draws the random restarts of the
    block-ascent fallbacks that run when a solve is not certified.
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
        # a rank_tol of 1 would certify every value >= 0 under a positive
        # bound, and flag every X rank one (sigma_2/sigma_1 <= 1 always)
        if self.tol >= 1.0 or self.rank_tol >= 1.0:
            raise ValueError("tol and rank_tol must be below 1")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass
class SolveReport:
    """Diagnostics of one solve; X is the final feasible primal iterate.

    termination: "converged" when relative change plus primal residual
    reached cfg.tol, "gap" when the ADMM stopped earlier because the value
    read out of X closed the gap to the bound at X (only when the caller
    asked for it, as `extraction.solve_even_order` and the bi-quadratic
    routes of `extensions` do; see `solve`), and "iter_cap"
    when cfg.max_iter ran out first.  rank_one: the paper's statistic, the
    solve converged and rank_one_ratio <= cfg.rank_tol; it certifies
    nothing.  On a relaxation solved in diagonal blocks
    (`Relaxation.blocks`) rank_one_ratio is the largest ratio of a block,
    so rank_one means every block is rank one, and extracted_x is the unit
    read-out z = sum_b sqrt(l_b) u_b of the blocks' top eigenpairs instead
    of the leading eigenvector.  bound: lambda_max(C + S) - <S, X>, an
    upper bound on the relaxation and so on the form's maximum, valid at
    any iterate (nan for a bare matrix, which has no multiplier).  S is the
    last multiplier projected onto the complement of L, and the bound is
    never above lambda_max(C), the bound at S = 0.  On a "gap" stop whose
    route gave a rank-one point, it is also at most the bound at S plus the
    correction that makes the point an eigenvector of C + S, and
    extracted_lambda and extracted_x are that check's polished value and
    point.  extracted_lambda is the value the route
    returns on this relaxation's form, the refinement's or the fallback's
    when one ran, and gap = bound - extracted_lambda.  That value is
    certified iff the iteration cap did not stop the solve and gap <=
    rank_tol * |bound| (`certifies`).  A "gap" iterate's objective is that
    of an unconverged X, about rel_change + primal_residual from the
    optimum.  A feasible X of the symmetric relaxation is fixed by one
    value per 2d-class, so when `moment` holds its (n, d) the report keeps
    those S = C(n+2d-1, 2d) `values` and `X` lifts them to n**d x n**d when
    read.  When `moment` is None (the bi-quadratic relaxation) `values` is
    X itself, the N x N matrix, cross-block zeros included, when the solve
    ran in blocks.
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
    termination: str  # "converged" | "gap" | "iter_cap"
    rank_one: bool
    bound: float = math.nan
    values: np.ndarray = field(repr=False, default=None)
    moment: Optional[Tuple[int, int]] = field(repr=False, default=None)

    @property
    def X(self) -> np.ndarray:
        if self.moment is None:
            return self.values
        n, d = self.moment
        return self.values[_class_map(n, 2 * d)].reshape(n ** d, n ** d)

    @property
    def gap(self) -> float:
        return self.bound - self.extracted_lambda


@dataclass(frozen=True)
class Relaxation:
    """One convex relaxation as `solve` runs it.

    Maximize tr(CX) over trace-one X in the affine set `project` maps onto;
    `start` is a feasible rank-one matrix, the ADMM's first Y.  `moment`
    is (n, d) when the matrices are in moment coordinates.  `blocks`,
    when not None, lists the rows of each diagonal block of a
    block-diagonal N x N problem (a partition of the rows, as
    `projection.stack_blocks` takes it): C, start, `project` and every
    iterate are then the stack of those blocks, zero-padded to the largest,
    and `project` keeps the padding zero.  None is one N x N block.
    `normal`, when not None, maps a unit rank-one point u (u u^T feasible)
    to T(u), the matrix of y -> P(sym(y u^T)) u with P the projection onto
    the complement of the set's directions (`projection.moment_normal`,
    `projection.partial_normal`); `solve` corrects its dual bound with it.
    """
    C: np.ndarray
    project: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    moment: Optional[Tuple[int, int]] = None
    blocks: Optional[Tuple[np.ndarray, ...]] = None
    normal: Optional[Callable[[np.ndarray], np.ndarray]] = None


def neg_eig_mass(X: np.ndarray) -> float:
    """Absolute sum of the negative eigenvalues of a symmetric matrix."""
    X = np.asarray(X, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (X + X.T))
    return float(-np.sum(w[w < 0.0]))


# Anderson acceleration of run_admm: the secant pairs kept, and the
# Tikhonov weight on the Gram matrix's diagonal, relative to its trace plus
# the squared residual.  Without the residual term, pairs whose residual
# differences are rounding noise (where the map only translates Q) got
# weights near 1e5 and threw Q out to where 50 000 plain steps could not
# bring it back.
MEMORY = 5
REGULARIZATION = 1e-10
# the gap checks: at these iterations when the bound is corrected at the
# polished read-out (`solve`), which on a tight relaxation is the maximum
# after a few iterations, then once relative change plus primal residual
# is at most GAP_CHECK_START and each time that sum halves.  A check costs
# three to five iterations (a read-out, its polish and two symmetric
# eigenproblems), so checking every iteration doubled solve times
EARLY_CHECKS = (2, 4, 8)
GAP_CHECK_START = 1e-2


def _change(X: np.ndarray, X_prev: np.ndarray) -> float:
    # run_admm's relative change of X
    return float(np.linalg.norm(X - X_prev)) / float(np.linalg.norm(X_prev))


def _drift_steps(Q: np.ndarray, zero: np.ndarray, band, limit: int) -> int:
    # the largest s <= limit whose Q + s*zero has its spectrum strictly
    # inside band = (lo, hi), 0 when Q's is not.  zero is PSD, so no
    # eigenvalue falls along the line, and with hi I - Q = L L^T the
    # spectrum is below hi while t lambda_max(L^-1 zero L^-T) < 1.  One
    # Cholesky (two with a finite lo) and one eigvalsh, batched over a stack
    lo, hi = band
    eye = np.eye(Q.shape[-1])
    try:
        L = np.linalg.cholesky(hi * eye - Q)
        if lo > -math.inf:
            np.linalg.cholesky(Q - lo * eye)
    except np.linalg.LinAlgError:
        return 0
    half = np.linalg.solve(L, zero)
    M = np.linalg.solve(L, half.swapaxes(-1, -2))
    top = float(np.max(np.linalg.eigvalsh(M)[..., -1]))
    if top * limit < 1.0:
        return limit
    return math.ceil(1.0 / top) - 1


def _passed_schedule(check_at: float, sums, first: int, skip: int,
                     early) -> float:
    # check_at after the gap-check schedule of the iterations first, ...,
    # first + skip - 1, whose rel + primal are sums[0], sums[1], then
    # sums[2] at every later one: an iteration early lists, or one whose
    # sum is at most check_at, sets check_at to at most half its sum.  The
    # later ones share a sum, so the first of them that does so decides
    for j, total in enumerate(sums[:skip]):
        last = first + j if j < 2 else first + skip - 1
        if total <= check_at or any(first + j <= k <= last for k in early):
            check_at = min(check_at, 0.5 * total)
    return check_at


def run_admm(project, prox, C: np.ndarray, Y0: np.ndarray, cfg: SolverConfig,
             *, stop=None, early=(), band=None):
    """The splitting loop shared by all drivers, as an accelerated fixed point.

    With Lam the multiplier, X-update X = project(Y + mu*Lam) and Y-update
    Y = prox(X + mu*C - mu*Lam), the ADMM is the fixed-point iteration
    Q <- Q + X' - Y on Q = X + mu*C - mu*Lam (Douglas-Rachford):

        Y_k = prox(Q_k),  X_{k+1} = project(2 Y_k - Q_k + mu*C),
        Q_{k+1} = Q_k + X_{k+1} - Y_k,  X_1 = project(Y0),  Q_1 = X_1 + mu*C,

    and mu*Lam_k = Y_k - Q_k + mu*C needs no update of its own.  The map is
    averaged, so its residual ||X_{k+1} - Y_k||_F never grows under the
    plain step.  Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer.
    Anal. 2011) extrapolates Q from the last MEMORY secant pairs by the
    weights gamma minimizing ||g - dG gamma||^2 + lam ||gamma||^2, with g
    the residual, dG its differences and lam = REGULARIZATION * (tr(dG^T
    dG) + ||g||^2).  An extrapolated point whose residual exceeds its
    predecessor's is replaced by the plain step from that predecessor and
    the memory is cleared (the safeguard of Zhang, O'Donoghue & Boyd, SIAM
    J. Optim. 2020, as in SCS).

    `band` = (lo, hi), when given, is where the prox is zero: prox(Q) is
    all-zero exactly when Q's spectrum lies in [lo, hi].  There the map is
    an affine drift that needs no prox.  Write project(Z) = P_L(Z) + Z0,
    Z0 = project(0) and P_L the projection onto the set's directions: a
    step at Y = 0 sets P_L(Q) = P_L(mu*C), after which X = Z0 and Q gains
    Z0, which is PSD, at every step until the spectrum leaves the band.
    So at the first all-zero Y of a run of them, after the step, Q jumps
    by s*Z0 with s the last step still strictly inside the band
    (`_drift_steps`), X and X_prev become those the s plain steps give,
    the s steps count as iterations, and the memory is cleared as after a
    safeguard reset.  The jump stops short of cfg.max_iter and of any
    iteration the tolerance would stop, advances the check schedule as
    the steps passed over would have, and is tried once per run of zero
    Ys; the loop then goes on as before.  It needs hi*I - Q positive
    definite, so sdp (hi = 0) does not jump where Q has exact zero rows,
    the padding of a block stack.

    Stops when ||X_k - X_{k-1}||_F / ||X_{k-1}||_F + ||X_k - Y_k||_F <= tol,
    with X_0 = Y0, or at iteration cfg.max_iter.  Every X_{k-1} has trace
    one, so the denominator is at least 1/sqrt(N).  With `stop`, it also
    stops when stop(X_k, mu*Lam_k) holds, asked only after both tests above
    failed (so never at the cap): at the iterations `early` lists, once
    that sum is at most GAP_CHECK_START, and again each time it falls to
    half its value at the last scheduled call that had reached it.  A
    scheduled call is skipped when the prox returned an all-zero Y, with
    the schedule advanced as if it had run: that is nnp's shrinkage phase,
    before any eigenvalue of Q exceeds mu*rho, when the multiplier mu*Lam
    = mu*C - Q is still far from a dual solution.  Every such check of the
    symmetric route failed in measurement, and skipping a check that would
    fail changes no iterate; a bi-quadratic solve that would have closed
    there stops at a later check instead.  Returns (X, Y, iterations, rel_change,
    primal, stopped, mu*Lam) for the X and Y the last check measured;
    stopped is False only when the cap ended the loop.
    """
    mu_C = cfg.mu * C
    dG = np.zeros((MEMORY, Y0.size))  # residual differences, one per row
    dF = np.zeros((MEMORY, Y0.size))  # differences of the plain steps Q + g
    gram = np.zeros((MEMORY, MEMORY))  # dG dG^T, one row and column per push
    eye = np.eye(MEMORY)
    pairs = slot = 0
    anchor = None  # (Q + g, g) at the last accepted point, flattened
    X_prev, X = Y0, project(Y0)
    Q = X + mu_C
    extrapolated, last_residual = False, np.inf
    check_at = GAP_CHECK_START
    jumped = False  # the jump was tried in this run of all-zero Ys
    iteration = 0
    while True:
        iteration += 1
        Y = prox(Q)
        # the first entry answers for almost every nonzero Y, at a
        # twentieth of the cost of any() on every iteration
        idle = not (Y.item(0) or Y.any())
        jumped = jumped and idle
        rel = _change(X, X_prev)
        primal = float(np.linalg.norm(X - Y))
        if rel + primal <= cfg.tol or iteration == cfg.max_iter:
            return (X, Y, iteration, rel, primal, rel + primal <= cfg.tol,
                    Y - Q + mu_C)
        if stop is not None and (rel + primal <= check_at
                                 or iteration in early):
            check_at = min(check_at, 0.5 * (rel + primal))
            if not idle:
                mu_lam = Y - Q + mu_C
                if stop(X, mu_lam):
                    return X, Y, iteration, rel, primal, True, mu_lam
        X_next = project(2.0 * Y - Q + mu_C)
        step = X_next - Y
        g = step.ravel()
        residual = float(g @ g)
        if extrapolated and residual > last_residual:
            Q, extrapolated = plain, False
            pairs = slot = 0
            anchor = None
            continue
        plain = Q + step
        if idle and band is not None and not jumped:
            jumped = True
            zero = project(np.zeros_like(Q))
            # rel + primal at the iterations passed over: the first, the
            # second, then every later one alike.  The jump stops short of
            # the cap and of the first that meets tol, and each it passes
            # takes its turn in the check schedule
            norm = float(np.linalg.norm(zero))
            sums = (_change(X_next, X) + float(np.linalg.norm(X_next)),
                    _change(zero, X_next) + norm, norm)
            limit = min([cfg.max_iter - iteration - 1]
                        + [j for j, s in enumerate(sums) if s <= cfg.tol])
            skip = _drift_steps(plain, zero, band, limit)
            check_at = _passed_schedule(check_at, sums, iteration + 1, skip,
                                        early)
            if skip > 0:
                iteration += skip
                Q = plain + skip * zero
                X_prev, X = (X_next if skip == 1 else zero), zero
                extrapolated = False
                pairs = slot = 0
                anchor = None
                continue
        if anchor is not None:
            dF[slot] = plain.ravel() - anchor[0]
            dG[slot] = g - anchor[1]
            gram[slot] = gram[:, slot] = dG @ dG[slot]
            slot = (slot + 1) % MEMORY
            pairs = min(pairs + 1, MEMORY)
        anchor = (plain.ravel(), g)
        last_residual = residual
        X_prev, X = X, X_next
        H = gram[:pairs, :pairs]
        scale = REGULARIZATION * (float(H.trace()) + residual)
        extrapolated = pairs > 0 and scale > 0.0
        if not extrapolated:
            Q = plain
            continue
        gamma = np.linalg.solve(H + scale * eye[:pairs, :pairs], dG[:pairs] @ g)
        Q = plain - (gamma @ dF[:pairs]).reshape(Q.shape)


def _block_eig(X: np.ndarray, blocks) -> Tuple[np.ndarray, float, np.ndarray]:
    # _rank_one_eig of a block stack, one eigendecomposition per block:
    # every eigenvalue, the largest block ratio (a zero block is rank one)
    # and the read-out.  An X that averages zz^T over the sign flips fixing
    # the blocks has the rank-one block (P_b z)(P_b z)^T for each block's
    # part P_b z of z, so z = sum_b sqrt(l_b) u_b from each block's top
    # eigenpair (l_b, u_b), at its rows; returned as a unit vector
    z = np.zeros(sum(len(rows) for rows in blocks))
    spectra, ratio = [], 0.0
    for b, rows in enumerate(blocks):
        k = len(rows)
        w, V = np.linalg.eigh(X[b, :k, :k])
        mags = np.sort(np.abs(w))
        if mags[-1] > 0.0 and k > 1:
            ratio = max(ratio, float(mags[-2] / mags[-1]))
        z[rows] = math.sqrt(max(float(w[-1]), 0.0)) * V[:, -1]
        spectra.append(w)
    w = np.concatenate(spectra)
    if not w.any():
        raise ValueError("zero matrix has no rank-one ratio")
    return w, ratio, _unit(z)


def _spectral_read_out(X: np.ndarray,
                       moment: Optional[Tuple[int, int]] = None,
                       blocks: Optional[Tuple[np.ndarray, ...]] = None):
    # (eigenvalues, rank-one ratio, read-out) of X from one
    # eigendecomposition (one per block of a stack).  The read-out is the
    # leading eigenvector, lifted to length n**d from moment coordinates
    # (which keep the nonzero spectrum), or a stack's `_block_eig` read-out
    if blocks is None:
        w, ratio, _, v = _rank_one_eig(X)
    else:
        w, ratio, v = _block_eig(X, blocks)
    if moment is not None:
        v = lift_moment(v, *moment)
    return w, ratio, v


def _summarize(X: np.ndarray, C: np.ndarray, rank_tol: float,
              iterations: int = 0, rel: float = 0.0, primal: float = 0.0,
              termination: str = "converged",
              moment: Optional[Tuple[int, int]] = None,
              bound: float = math.nan,
              blocks: Optional[Tuple[np.ndarray, ...]] = None,
              spectrum=None) -> SolveReport:
    # report on X from its `_spectral_read_out`, computed here unless
    # given; a bare X counts as converged.  Until the caller recovers its
    # factors, extracted_x is the read-out and extracted_lambda the
    # objective.
    if spectrum is None:
        spectrum = _spectral_read_out(X, moment, blocks)
    w, ratio, v = spectrum
    objective = float(np.sum(C * X))
    if moment is not None:
        values = moment_class_values(X, *moment)
    elif blocks is not None:
        values = lift_blocks(X, blocks)
    else:
        values = X
    return SolveReport(
        objective=objective, nuclear_norm=float(np.sum(np.abs(w))),
        iterations=iterations, primal_residual=primal, rel_change=rel,
        rank_one_ratio=ratio, neg_eig_mass=float(-np.sum(w[w < 0.0])),
        extracted_lambda=objective, extracted_x=v, termination=termination,
        rank_one=bool(termination == "converged" and ratio <= rank_tol),
        bound=bound,
        values=values, moment=moment)


# a bound below the value it bounds by more than this, relatively, is
# numerically broken: rounding moves a tight bound by about 1e-15
BOUND_ROUNDING = 1e-12


def closes_gap(bound: float, value: float, rank_tol: float) -> bool:
    """value is within rank_tol * |bound| below the bound.

    Never for a nan bound, and never for a bound below the value by more
    than rounding (BOUND_ROUNDING * |bound|): every bound lies above every
    value, so such a bound is broken and closes nothing.
    """
    return (value - bound <= BOUND_ROUNDING * abs(bound)
            and bound - value <= rank_tol * abs(bound))


def certifies(report: SolveReport, rank_tol: float) -> bool:
    """The one certificate of a route's value, report.extracted_lambda.

    The value closes the gap to the report's bound (`closes_gap`) at an
    iterate that convergence or the gap stop ended.  On a gap stop that
    bound was corrected at the polished read-out (`solve`), so it
    certifies that read-out.  An iteration cap certifies nothing, closed
    gap or not, and a rank-one X certifies nothing by itself.
    """
    return (report.termination != "iter_cap"
            and closes_gap(report.bound, report.extracted_lambda, rank_tol))


def _multiplier(problem: Relaxation, Z: np.ndarray,
                zero: np.ndarray) -> np.ndarray:
    # S = Z minus its projection onto L: project(Z) - zero, with zero =
    # project(0), is the affine projection's linear part, which is that
    # projection
    S = Z - (problem.project(Z) - zero)
    return 0.5 * (S + S.swapaxes(-1, -2))


def _bound_at(problem: Relaxation, X: np.ndarray, S: np.ndarray) -> float:
    # lambda_max(C + S) - <S, X>.  A block-diagonal C + S has the largest
    # eigenvalue of its blocks
    M = problem.C + S
    if problem.blocks is None:
        top = np.linalg.eigvalsh(M)[-1]
    else:
        top = max(np.linalg.eigvalsh(M[b, :len(rows), :len(rows)])[-1]
                  for b, rows in enumerate(problem.blocks))
    return float(top - np.sum(S * X))


def _dual_bound(problem: Relaxation, X: np.ndarray, Z: np.ndarray,
                zero: np.ndarray) -> float:
    # the module's bound at the multiplier Z, projected onto L-perp first,
    # so it is a bound whatever Z is
    return _bound_at(problem, X, _multiplier(problem, Z, zero))


# Tikhonov weight of the correction's least squares, relative to the trace
# of its matrix, and the largest correction kept, relative to ||C|| + ||S||
CORRECTION_REGULARIZATION = 1e-10
CORRECTION_CAP = 10.0


def _correction(problem: Relaxation, S: np.ndarray,
                u: np.ndarray) -> Optional[np.ndarray]:
    # M = sym(y u^T) whose projection D = P(M) onto L-perp is the least-norm
    # correction that makes the unit u an eigenvector of C + S + D: y is
    # orthogonal to u and solves Pu T(u) Pu y = -Pu (C + S) u, Pu = I - u u^T,
    # by regularized least squares.  At a KKT point of the form the right
    # side lies in the range (the tangent part of (C + S) u is the form's
    # gradient there).  ||D||^2 = y^T T(u) y.  None when there is nothing
    # to solve or D is out of scale
    T = problem.normal(u)
    Tu = T @ u
    A = T - np.outer(u, Tu) - np.outer(Tu, u) + float(u @ Tu) * np.outer(u, u)
    scale = CORRECTION_REGULARIZATION * float(np.trace(A))
    if not scale > 0.0:
        return None
    r = (problem.C + S) @ u
    A.flat[::len(u) + 1] += scale
    y = np.linalg.solve(A, float(u @ r) * u - r)
    # y is orthogonal to u up to rounding over the regularization; removed
    # exactly, since D(u) u need not be parallel to u (in moment
    # coordinates it is project(0) u)
    y -= float(u @ y) * u
    limit = CORRECTION_CAP * (np.linalg.norm(problem.C) + np.linalg.norm(S))
    if not float(y @ T @ y) <= limit * limit:
        return None
    return 0.5 * (np.outer(y, u) + np.outer(u, y))


def _checked_bound(problem: Relaxation, X: np.ndarray, Z: np.ndarray,
                   u: Optional[np.ndarray], zero: np.ndarray) -> float:
    # min(bound at Z, bound at Z + M), M the correction at the rank-one
    # point u, which `_dual_bound` projects onto L-perp; the bound at Z
    # alone without u or a closed-form T(u).  `solve` caps it by the bound
    # at S = 0
    S = _multiplier(problem, Z, zero)
    bound = _bound_at(problem, X, S)
    if u is None or problem.normal is None:
        return bound
    M = _correction(problem, S, u)
    if M is None:
        return bound
    return min(bound, _dual_bound(problem, X, Z + M, zero))


def solve(problem: Relaxation, method: str, cfg: SolverConfig,
          value: Optional[Callable[[np.ndarray],
                                   Tuple[float, Optional[np.ndarray]]]] = None
          ) -> SolveReport:
    """Run a relaxation through the ADMM and report on its last X.

    X-update: project onto the affine set.  Y-update, the prox of the
    spectral block: "sdp" projects onto the PSD cone; "nnp" shrinks the
    singular values by mu*rho, for the penalized objective
    tr(CX) - rho*||X||_*.  `run_admm` has the iteration.  The report's
    bound takes Z = -Lam, the last multiplier, into the module's dual bound,
    capped by lambda_max(C), the bound at S = 0, which is computed once
    per solve and caps every check's bound too.

    `value(X, v)`, when given, returns (value, point) for an iterate X and
    its read-out v (the leading eigenvector of X, lifted to length n**d in
    moment coordinates, or a block stack's `_block_eig` read-out): the
    value the route reads out of v, polished, and the unit u whose u u^T is
    the feasible rank-one point of that value (None when the route has
    none).  At each of `run_admm`'s checks the bound is then
    min(lambda_max(C), bound at Z, bound at Z + D), D the least-norm
    correction in L-perp that makes u an eigenvector of C + S
    (`problem.normal`).  When u is the maximum of a tight relaxation that
    bound is the value up to rounding, so the first check whose read-out is
    the maximum closes the gap.  The ADMM stops, with termination "gap",
    once closes_gap(bound, value, cfg.rank_tol) holds.  The report then
    reuses that check: its bound and the eigendecomposition that gave v
    (one `eigh` per check and none more for the report), and when u is
    given its extracted_lambda is the value and its extracted_x u (lifted
    to length n**d in moment coordinates).  `run_admm` skips the checks at
    an all-zero Y, nnp's shrinkage phase, and jumps across that phase in
    closed form: `solve` hands it the band where the prox is zero,
    [-mu*rho, mu*rho] for nnp and (-inf, 0] for sdp, and `iterations`
    counts the steps jumped over.
    """
    C = problem.C
    if not C.any():
        raise ValueError("zero tensor is degenerate")
    # both look their operator up on this module at call time, where
    # benchmarks/tracer.py times it, and return an all-zero Y exactly when
    # Q's spectrum lies in their band, which run_admm jumps across
    if method == "sdp":
        band = (-math.inf, 0.0)

        def prox(Q):
            return project_psd(Q)
    elif method == "nnp":
        tau = cfg.mu * cfg.rho
        band = (-tau, tau)

        def prox(Q):
            return shrink_nuclear(Q, tau)
    else:
        raise ValueError(f"unknown method {method!r}")
    zero = problem.project(np.zeros_like(C))
    # the bound at S = 0, lambda_max(C): a dual point held for free and
    # exact on orthogonally decomposable forms, so every bound is capped by it
    cap = _bound_at(problem, zero, 0.0)
    stop, last = None, []
    if value is not None:
        def stop(X, mu_lam):
            spectrum = _spectral_read_out(X, problem.moment, problem.blocks)
            val, u = value(X, spectrum[2])
            bound = min(cap, _checked_bound(problem, X, -mu_lam / cfg.mu, u,
                                            zero))
            last[:] = bound, val, u, spectrum
            return closes_gap(bound, val, cfg.rank_tol)
    X, _, iterations, rel, primal, stopped, mu_lam = run_admm(
        problem.project, prox, C, problem.start, cfg, stop=stop,
        early=EARLY_CHECKS if problem.normal is not None else (), band=band)
    termination = ("converged" if rel + primal <= cfg.tol
                   else "gap" if stopped else "iter_cap")
    if termination == "gap":
        bound, val, u, spectrum = last
    else:
        bound = min(cap, _dual_bound(problem, X, -mu_lam / cfg.mu, zero))
        spectrum = None
    report = _summarize(X, C, cfg.rank_tol, iterations, rel, primal,
                        termination, problem.moment, bound, problem.blocks,
                        spectrum)
    if termination == "gap" and u is not None:
        if problem.moment is not None:
            u = lift_moment(u, *problem.moment)
        report = replace(report, extracted_lambda=val, extracted_x=u)
    return report


# The polish of a read-out: safeguarded Newton steps toward a KKT point of
# a form on a product of unit spheres, each step kept only while the form
# does not fall.  Quadratic convergence takes a read-out near a maximum to
# rounding in a few steps: after a kept step shorter than NEWTON_SETTLED the
# next one would move x by about its square, so the steps stop there.  The
# cap only bounds a slow climb from far away
NEWTON_STEPS = 30
NEWTON_SETTLED = 1e-8
# alternating sweeps before the bi-quadratic Newton steps
POLISH_SWEEPS = 3


def _sphere_newton(xs, contract):
    # xs: unit blocks.  contract(x), x the blocks concatenated, returns
    # (H, g, value) scaled so that the KKT point reads g_b = value x_b on
    # every block b and the Riemannian Hessian is P (H - value I) P, P the
    # projection onto the tangent space.  The Newton step s is tangent with
    # P (H - value I) s = g - value x, the bordered system
    # [[H - value I, N], [N^T, 0]] (s, c) = (g - value x, 0), N holding each
    # x_b in its block's rows (Jaffe, Weiss & Nadler, SIAM J. Matrix Anal.
    # Appl. 2018, for one sphere), and every block moves to unit(x_b - s_b).
    # Returns the blocks and the value
    sizes = [len(b) for b in xs]
    n, k = sum(sizes), len(sizes)
    block = np.repeat(np.arange(k), sizes)
    rows, border = np.arange(n), n + block
    x = np.concatenate(xs)
    H, g, value = contract(x)
    K = np.zeros((n + k, n + k))
    rhs = np.zeros(n + k)
    for _ in range(NEWTON_STEPS):
        K[:n, :n] = H
        K[rows, rows] -= value
        K[rows, border] = K[border, rows] = x
        rhs[:n] = g - value * x
        try:
            s = np.linalg.solve(K, rhs)[:n]
        except np.linalg.LinAlgError:
            break
        candidate = x - s
        norms = np.sqrt(np.bincount(block, weights=candidate * candidate))
        if not norms.all():
            break
        candidate /= norms[block]
        step = contract(candidate)
        if not step[2] >= value:  # fell, or nan from a near-singular system
            break
        rising = step[2] > value
        x, (H, g, value) = candidate, step
        if not rising or float(s @ s) <= NEWTON_SETTLED ** 2:
            break
    return np.split(x, np.cumsum(sizes)[:-1]), value


def newton_refine(F: SuperSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Safeguarded Newton steps on the sphere toward a Z-eigenpair of F.

    x is a unit vector.  With lambda = F(x), H = F x^(m-2) (an n x n
    matrix) and P = I - x x^T, each step solves
    P ((m-1) H - lambda I) P s = F x^(m-1) - lambda x for a tangent s and
    moves to unit(x - s).  Near a local maximum the steps converge
    quadratically.  A step is kept only if F does not fall, and the steps
    stop once F stops rising, once a kept step is shorter than
    NEWTON_SETTLED, or after NEWTON_STEPS, so F(result) >= F(x).  The
    result is signed by the form.
    """
    return _fix_sign(F, _newton_symmetric(F, x)[0])


def _newton_symmetric(F: SuperSymmetricTensor, x: np.ndarray):
    # newton_refine before the sign rule: (x, F(x))
    n, m = F.n, F.m
    # H = F x^(m-2) is x^(x)(m-2) times the n**(m-2) x n**2 unfolding
    t = F.to_dense().reshape(n ** (m - 2), n * n)

    def contract(x):
        power = x
        for _ in range(m - 3):
            power = np.multiply.outer(power, x).ravel()
        H = (power @ t).reshape(n, n) if m > 2 else t.reshape(n, n)
        g = H @ x
        return (m - 1) * H, g, float(g @ x)

    (x,), value = _sphere_newton([np.asarray(x, dtype=float)], contract)
    return x, value


def _pair_form(G: np.ndarray) -> np.ndarray:
    # G as (s_1^2, ..., s_d^2), modes k and k + d side by side in axis k
    d = G.ndim // 2
    order = [a for k in range(d) for a in (k, k + d)]
    return np.transpose(G, order).reshape([s * s for s in G.shape[:d]])


def _sphere_matrix(P: np.ndarray, xs, k: int) -> np.ndarray:
    # A_k, the form as a quadratic in x_k: the pair form P contracted with
    # vec(x_j x_j^T) on every axis j but k, the last first
    for j in range(len(xs) - 1, k, -1):
        P = P.reshape(-1, xs[j].size ** 2) @ np.outer(xs[j], xs[j]).ravel()
    for j in range(k):
        P = np.outer(xs[j], xs[j]).ravel() @ P.reshape(xs[j].size ** 2, -1)
    return P.reshape(xs[k].size, xs[k].size)


def _ascent_sweep(P: np.ndarray, xs: list) -> None:
    # each x_k in turn becomes the top eigenvector of A_k, in place
    for k in range(len(xs)):
        A = _sphere_matrix(P, xs, k)
        xs[k] = np.linalg.eigh(0.5 * (A + A.T))[1][:, -1]


def polish_biquadratic(G: np.ndarray, *xs: np.ndarray):
    """Polish unit (x_1..x_d) toward a KKT point of G(x_1..x_d, x_1..x_d).

    POLISH_SWEEPS alternating sweeps, then Newton steps on the d spheres
    for A_k x_k = lambda x_k, A_k the form as a quadratic in x_k, with the
    Riemannian Hessian built from the A_k and 2 E_kj, E_kj = G(x, x) with
    modes k and j of its first copy open.  Neither stage lowers the form.
    Returns (x_1, ..., x_d, lambda).
    """
    d = len(xs)
    dims = G.shape[:d]
    Gm = np.reshape(G, (math.isqrt(G.size),) * 2)
    P, xs = _pair_form(G), list(xs)
    for _ in range(POLISH_SWEEPS):
        _ascent_sweep(P, xs)
    edges = np.cumsum((0,) + dims)
    rows = [slice(a, b) for a, b in zip(edges, edges[1:])]
    H = np.zeros((edges[-1], edges[-1]))

    def contract(z):
        # fills H in place: `_sphere_newton` reads H only before its next
        # contract call
        us = [z[r] for r in rows]
        Gu = (Gm @ _outer(us)).reshape(dims)
        for k, j in itertools.combinations(range(d), 2):
            E = Gu
            for other in reversed(range(d)):
                if other not in (k, j):
                    E = np.tensordot(E, us[other], axes=(other, 0))
            H[rows[k], rows[j]] = E = 2.0 * E
            H[rows[j], rows[k]] = E.T
        g = []
        for k in range(d):
            H[rows[k], rows[k]] = A = _sphere_matrix(P, us, k)
            g.append(A @ us[k])
        return H, np.concatenate(g), float(us[0] @ g[0])

    xs, value = _sphere_newton(xs, contract)
    return (*xs, value)


def _symmetric_relaxation(F: SuperSymmetricTensor) -> Relaxation:
    if not isinstance(F, SuperSymmetricTensor):
        raise TypeError("solver input must be a SuperSymmetricTensor")
    if F.m % 2:
        raise ValueError("solvers need an even order; square odd orders first")
    n, d = F.n, F.m // 2
    # in moment coordinates: C_K = B^T matr(F) B, whose entry (k, l) is F's
    # value at the class pair[k, l] times w[k, l], and the feasible rank-one
    # start e_k e_k^T at the class k of the best coordinate direction,
    # (best,)*d, alone in it
    cid, _, _, pair, w = _moment_tables(n, d)
    best = max(range(n), key=lambda i: F[(i,) * F.m])
    k = cid[np.ravel_multi_index((best,) * d, (n,) * d)]
    Y0 = np.zeros(w.shape)
    Y0[k, k] = 1.0
    C = F._class_values()[pair] * w
    return Relaxation(C, lambda M: project_moment_C(M, n, d), Y0, (n, d),
                      normal=lambda u: moment_normal(u, n, d))


def _read_out(F: SuperSymmetricTensor, v: np.ndarray) -> np.ndarray:
    # x: the left factor of v, the lifted leading eigenvector of X, signed
    # by the form
    return _fix_sign(F, _leading_factors(v, (F.n, len(v) // F.n))[0])


def _recover_symmetric(F: SuperSymmetricTensor, report: SolveReport) -> SolveReport:
    # the report's x from its read-out, and lambda = F(x)
    x = _read_out(F, report.extracted_x)
    return replace(report, extracted_lambda=eval_homogeneous(F, x), extracted_x=x)


def _solve_symmetric(F: SuperSymmetricTensor, method: str, cfg: SolverConfig,
                     stop_on_gap: bool) -> SolveReport:
    problem = _symmetric_relaxation(F)
    value, checked = None, []
    if stop_on_gap:
        def value(X, v):
            # the read-out x polished by Newton steps, F(x), and its
            # moment vector; x is kept for a gap stop's report
            x, form = _newton_symmetric(F, _read_out(F, v))
            checked[:] = [x]
            return form, moment_point(x, *problem.moment)
    report = solve(problem, method, cfg, value)
    if report.termination != "gap":
        return _recover_symmetric(F, report)
    # the stopping check's x, not read back out of its lifted moment vector
    x = _fix_sign(F, checked[0])
    return replace(report, extracted_lambda=eval_homogeneous(F, x), extracted_x=x)


def solve_nnp(F: SuperSymmetricTensor, cfg: SolverConfig = None, *,
              stop_on_gap: bool = False) -> SolveReport:
    """Maximize tr(FX) - rho*||X||_* over the trace-one symmetric set.

    With stop_on_gap the ADMM also stops once F at the polished read-out x
    closes the gap to the dual bound corrected at x (termination "gap");
    the pipeline sets it.
    """
    return _solve_symmetric(F, "nnp", cfg or SolverConfig(), stop_on_gap)


def solve_sdp(F: SuperSymmetricTensor, cfg: SolverConfig = None, *,
              stop_on_gap: bool = False) -> SolveReport:
    """Maximize tr(FX) over the trace-one symmetric set intersected with PSD.

    stop_on_gap as for `solve_nnp`.
    """
    return _solve_symmetric(F, "sdp", cfg or SolverConfig(), stop_on_gap)
