"""Reductions onto the even-order machinery, and the router for every input.

A bi-quadratic form over (x, y) has its own relaxation, run through
`admm.solve`; the tri-linear and quadri-linear problems reduce to it, a
general even-order multilinear problem embeds into one larger symmetric
tensor, and odd-order symmetric problems square into even ones.
`solve_leading_pc` picks the route; even orders end in `extraction`.
Each reduction scales the maximum by a known map, and maps the solve's dual
bound back onto the returned component's scale with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .admm import (Relaxation, SolverConfig, _top_eigenvector, certifies,
                   polish_biquadratic, solve)
from .admm import run_admm  # noqa: F401  lookup site in benchmarks/tracer.py
from .extraction import (MultilinearComponent, PrincipalComponent,
                         _ascend_with_restarts, solve_even_order)
from .matricize import _leading_factors, matr_partial, partial_symmetrize
from .matricize import rank_one_ratio  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import (partial_block_gathers, partial_normal,
                         project_partial_C, stack_blocks)
from .projection import project_psd  # noqa: F401  lookup site in benchmarks/tracer.py
from .tensors import (SuperSymmetricTensor, _canonical_sign, _finite_array,
                      _fix_last_sign, _fix_sign, _unit, eval_homogeneous,
                      eval_multilinear, symmetrize)

__all__ = [
    "BiquadraticComponent",
    "random_partial_symmetric",
    "solve_biquadratic",
    "trilinear_to_biquadratic",
    "quadrilinear_to_biquadratic",
    "multilinear_embed",
    "odd_to_even",
    "solve_trilinear",
    "solve_quadrilinear",
    "solve_multilinear",
    "solve_leading_pc",
]


@dataclass(frozen=True)
class BiquadraticComponent:
    lambda_star: float
    x_star: np.ndarray
    y_star: np.ndarray
    certified: bool
    bound: float = math.nan


def random_partial_symmetric(n: int, m: int, seed: int) -> np.ndarray:
    """Partial symmetrization of an i.i.d. standard-normal (n, m, n, m) array."""
    rng = np.random.default_rng(seed)
    return partial_symmetrize(rng.standard_normal((n, m, n, m)))


def biquadratic_form(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """g(x, y, x, y)."""
    return eval_multilinear(g, [x, y, x, y])


def _mbi_biquadratic(g: np.ndarray, x0: np.ndarray, y0: np.ndarray,
                     seed: int, bound: float = math.nan, rank_tol: float = 0.0,
                     tol: float = 1e-12, max_sweeps: int = 1000):
    """Alternating eigenvector ascent on g(x, y, x, y), with seeded restarts.

    With one block fixed the form is a quadratic in the other whose matrix
    is symmetric by partial symmetry, so each update is a leading
    eigenvector and the objective never decreases.  The restarts are
    skipped when the ascent from (x0, y0) closes the gap to `bound`.  The
    fallback of an uncertified solve: a certified one is polished by
    `admm.polish_biquadratic`.
    """
    def ascend(x, y):
        value = biquadratic_form(g, x, y)
        for _ in range(max_sweeps):
            previous = value
            x = _top_eigenvector(np.einsum("ijkl,j,l->ik", g, y, y))
            y = _top_eigenvector(np.einsum("ijkl,i,k->jl", g, x, x))
            value = biquadratic_form(g, x, y)
            if abs(value - previous) <= tol * abs(previous):
                break
        return value, (x, y)

    return _ascend_with_restarts(ascend, (x0, y0), seed, bound, rank_tol)


def solve_biquadratic(G: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None, *, stop_on_gap: bool = False,
                      odd_rows: np.ndarray = None):
    """Maximize G(x, y, x, y) over unit x, y via a convex relaxation.

    The relaxation maximizes tr(matr_partial(G) X) over trace-one matrices
    with a partial-symmetric underlying tensor, PSD for "sdp" and with a
    nuclear-norm penalty for "nnp", solved by the same splitting loop as
    the symmetric case.  A rank-one solution factors as
    vec(x y^T) vec(x y^T)^T; the SVD of the reshaped leading eigenvector
    splits it into the two unit blocks.  A read-out the rank-one
    certificate does not cover is polished (`admm.polish_biquadratic`),
    and the component is certified when its value closes the gap to the
    solve's bound (`admm.certifies`); only a value that does not falls
    back to alternating eigenvector ascent with restarts.

    With stop_on_gap the ADMM also stops once the form at the polished
    read-out (x, y) closes the gap to the dual bound corrected at
    vec(x y^T) (termination "gap"), and returns that check's (x, y) as
    they are, not read back out of vec(x y^T); the pipeline routes set it.
    odd_rows is a boolean mask over the n*m rows (row i*m + j) that a sign
    flip D of x and y fixing the form negates (ValueError for another
    shape or dtype, or when the form is not fixed by such a flip).  Every
    iterate is then D-invariant: X averages zz^T with its flip, is
    block-diagonal over the even and the odd rows, and is never rank one
    as a whole.  The ADMM then runs on the stack of the two diagonal
    blocks (`Relaxation.blocks`), with one batched eigendecomposition per
    iteration; each block of a solution is rank one, which the report
    certifies block by block, and the read-out takes z = sqrt(l_even)
    u_even + sqrt(l_odd) u_odd from the top eigenpair of each block, at the
    gap checks and at the end.  Either sign of u_odd gives an optimum.  Its
    checks compare the unpolished read-out with the uncorrected bound, and
    the stopped read-out is polished once.  A mask with one sign declares
    no flip and solves as without it.

    Returns
    -------
    (component, report)
        BiquadraticComponent and the solver report; the report's
        extracted_x is the leading eigenvector of X (length n*m), the
        blocks' read-out z, or the polished vec(x y^T) of a gap stop, its X
        the N x N matrix, and its extracted_lambda the component's value.
    """
    cfg = cfg or SolverConfig()
    G = _finite_array(G)
    Gm = matr_partial(G)
    n, m = G.shape[0], G.shape[1]

    blocks = None
    if odd_rows is not None:
        odd_rows = np.asarray(odd_rows)
        if odd_rows.dtype != bool or odd_rows.shape != (n * m,):
            raise ValueError(f"odd_rows must be a boolean mask of length {n * m}")
        even, odd = np.flatnonzero(~odd_rows), np.flatnonzero(odd_rows)
        if Gm[np.ix_(even, odd)].any():
            raise ValueError("odd_rows: the form is not fixed by the flip")
        if even.size and odd.size:
            blocks = (even, odd)
    # feasible rank-one start at the best coordinate pair: Gm[p, p] is
    # G[i, j, i, j] at p = i*m + j
    p = int(np.argmax(np.diag(Gm)))
    Y0 = np.zeros_like(Gm)
    Y0[p, p] = 1.0
    if blocks is None:
        problem = Relaxation(Gm, lambda Z: project_partial_C(Z, n, m), Y0,
                             normal=lambda u: partial_normal(u, n, m))
    else:
        gathers = partial_block_gathers(n, m, blocks)
        problem = Relaxation(
            stack_blocks(Gm, blocks),
            lambda Z: project_partial_C(Z, n, m, gathers),
            stack_blocks(Y0, blocks), blocks=blocks)

    # (x, y) of the last check, which a gap stop returns
    value, checked = None, []
    if stop_on_gap and blocks is None:
        def value(X, v):
            # the form at (x, y) read from X's leading eigenvector v and
            # polished, and the rank-one point vec(x y^T)
            x, y, form = polish_biquadratic(G, *_leading_factors(v, n))
            checked[:] = x, y
            return form, np.outer(x, y).ravel()
    elif stop_on_gap:
        def value(X, v):
            # the form at (x, y) read from v, the top eigenpairs of X's
            # blocks, as u^T matr_partial(G) u at u = vec(x y^T)
            checked[:] = _leading_factors(v, n)
            u = np.outer(*checked).ravel()
            return float(u @ Gm @ u), None

    report = solve(problem, method, cfg, value)
    if report.termination == "gap":
        x, y = checked
    else:
        x, y = _leading_factors(report.extracted_x, n)
    polished = report.termination == "gap" and blocks is None
    if not (report.certified or polished):
        x, y, _ = polish_biquadratic(G, x, y)
        if not certifies(replace(report,
                                 extracted_lambda=biquadratic_form(G, x, y)),
                         cfg.rank_tol):
            x, y = _mbi_biquadratic(G, x, y, cfg.seed, report.bound,
                                    cfg.rank_tol)
    # the form is even in x and in y: every sign is a tie
    x, y = _canonical_sign(x), _canonical_sign(y)
    report = replace(report, extracted_lambda=biquadratic_form(G, x, y))
    component = BiquadraticComponent(report.extracted_lambda, x, y,
                                     certifies(report, cfg.rank_tol),
                                     report.bound)
    return component, report


def trilinear_to_biquadratic(F: np.ndarray) -> np.ndarray:
    """Partial-symmetric G with G(x, y, x, y) = ||F(x, y, .)||^2.

    Contracting the two copies of F over the last mode and averaging the
    two pairings keeps the required symmetry.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 3:
        raise ValueError(f"expected an order-3 array, got order {F.ndim}")
    return 0.5 * (np.einsum("ijk,uvk->ijuv", F, F)
                  + np.einsum("ivk,ujk->ijuv", F, F))


def quadrilinear_to_biquadratic(F: np.ndarray) -> np.ndarray:
    """Embed an n1 x n2 x n3 x n4 form into a partial-symmetric one.

    Modes 1 and 3 stack into one block, modes 2 and 4 into the other; the
    form sits in the single cross-block corner and partial symmetrization
    spreads it without changing evaluations at stacked arguments:
    T(x1;x3, x2;x4, x1;x3, x2;x4) = F(x1, x2, x3, x4).
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 4:
        raise ValueError(f"expected an order-4 array, got order {F.ndim}")
    n1, n2, n3, n4 = F.shape
    G = np.zeros((n1 + n3, n2 + n4, n1 + n3, n2 + n4))
    G[:n1, :n2, n1:, n2:] = F
    return partial_symmetrize(G)


def multilinear_embed(F: np.ndarray) -> SuperSymmetricTensor:
    """Embed an even-order multilinear form into one symmetric tensor.

    The form is placed in the block of a sum(n_i)-dimensional tensor where
    mode k ranges over its own index block, then symmetrized; evaluations
    at stacked block vectors are unchanged:
    T(y, ..., y) = F(x1, ..., x_2d) for y = (x1; ...; x_2d).
    """
    F = np.asarray(F, dtype=float)
    if F.ndim % 2 or F.ndim == 0:
        raise ValueError(f"expected a positive even order, got {F.ndim}")
    dims = F.shape
    offsets = np.concatenate(([0], np.cumsum(dims[:-1])))
    total = int(np.sum(dims))
    G = np.zeros((total,) * F.ndim)
    G[tuple(slice(o, o + s) for o, s in zip(offsets, dims))] = F
    return symmetrize(G)


def odd_to_even(F: SuperSymmetricTensor) -> SuperSymmetricTensor:
    """Square an odd-order symmetric tensor over its last mode.

    The result G satisfies G(x, ..., x) = ||F(x, ..., x, .)||^2, so the
    leading value of F is the square root of G's and the argmax carries
    over (up to the sign making F's form nonnegative).  Order 1 would
    square to order 0, which no solver takes, so it is refused.
    """
    if F.m % 2 == 0 or F.m < 3:
        raise ValueError(f"expected an odd order of at least 3, got order {F.m}")
    t = F.to_dense()
    h = np.tensordot(t, t, axes=([F.m - 1], [F.m - 1]))
    return symmetrize(h)


def _split_blocks(y: np.ndarray, dims) -> list:
    offsets = np.concatenate(([0], np.cumsum(dims)))
    blocks = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        block = y[int(a):int(b)]
        if float(np.linalg.norm(block)) == 0.0:
            raise ValueError("degenerate solution: a recovered block is zero")
        blocks.append(_unit(block))
    return blocks


def solve_trilinear(F: np.ndarray, method: str = "sdp",
                    cfg: SolverConfig = None):
    """Maximize F(x, y, z) over unit vectors via the bi-quadratic reduction.

    The bi-quadratic solve stops on the duality gap (`stop_on_gap`).
    """
    F = np.asarray(F, dtype=float)
    comp, report = solve_biquadratic(trilinear_to_biquadratic(F), method, cfg,
                                     stop_on_gap=True)
    x, y = comp.x_star, comp.y_star
    z = np.tensordot(F, np.outer(x, y), axes=([0, 1], [0, 1]))
    blocks, value = _fix_last_sign(F, [x, y, _unit(z)])
    # the bi-quadratic maximum is the square of F's
    return MultilinearComponent(value, blocks, comp.certified,
                                math.sqrt(comp.bound)), report


def solve_quadrilinear(F: np.ndarray, method: str = "sdp",
                       cfg: SolverConfig = None):
    """Maximize F(x1, x2, x3, x4) over unit vectors via stacking.

    x = (x1; x3) and y = (x2; x4).  Negating x3 and x4 fixes F, so the
    bi-quadratic relaxation is solved in the two diagonal blocks of that
    flip: the rows i*(n2 + n4) + j with exactly one of i >= n1, j >= n2
    are odd.  X itself is never rank one, but a converged X is rank one in
    each block, which `report.certified` tests.  The solve stops on the
    duality gap (`stop_on_gap`).
    """
    F = np.asarray(F, dtype=float)
    n1, n2, n3, n4 = F.shape
    i, j = np.divmod(np.arange((n1 + n3) * (n2 + n4)), n2 + n4)
    comp, report = solve_biquadratic(quadrilinear_to_biquadratic(F), method,
                                     cfg, stop_on_gap=True,
                                     odd_rows=(i >= n1) != (j >= n2))
    x1, x3 = _split_blocks(comp.x_star, (n1, n3))
    x2, x4 = _split_blocks(comp.y_star, (n2, n4))
    blocks, value = _fix_last_sign(F, [x1, x2, x3, x4])
    # a unit stacked vector splits its norm evenly between its two blocks at
    # the maximum, so the stacked form's maximum is F's over 4
    return MultilinearComponent(value, blocks, comp.certified,
                                4.0 * comp.bound), report


def solve_multilinear(F: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None):
    """Maximize an even-order multilinear form via the symmetric embedding."""
    F = np.asarray(F, dtype=float)
    T = multilinear_embed(F)
    pc, report = solve_leading_pc(T, method, cfg)
    blocks, value = _fix_last_sign(F, _split_blocks(pc.x_star, F.shape))
    # a unit stacked vector puts 1/sqrt(2d) of its norm in each of the 2d
    # blocks at the maximum, so the embedding's maximum is F's over (2d)^d
    scale = F.ndim ** (F.ndim // 2)
    return MultilinearComponent(value, blocks, pc.certified,
                                scale * pc.bound), report


def solve_leading_pc(F, method: str = "sdp", cfg: SolverConfig = None):
    """End-to-end entry point: reduce if needed, solve, extract, refine.

    Parameters
    ----------
    F : SuperSymmetricTensor or ndarray
        Even-order symmetric tensors are solved directly; odd-order
        symmetric tensors are squared first; dense order-3 and order-4
        arrays take the bi-quadratic route; other even-order dense arrays
        are embedded into one larger symmetric tensor.  Dense arrays must
        be finite.
    method : {"sdp", "nnp"}
        Relaxation solved by the ADMM.
    cfg : SolverConfig, optional

    Returns
    -------
    (component, report)
        A PrincipalComponent for symmetric inputs, a MultilinearComponent
        for multilinear ones; the report is the underlying solver's.
    """
    cfg = cfg or SolverConfig()
    if method not in ("nnp", "sdp"):
        raise ValueError(f"unknown method {method!r}")

    if isinstance(F, SuperSymmetricTensor):
        if F.m % 2 == 0:
            return solve_even_order(F, method, cfg)
        # odd order: maximize the squared norm of the once-contracted form
        pc_even, report = solve_leading_pc(odd_to_even(F), method, cfg)
        x = _fix_sign(F, pc_even.x_star)
        # the squared form's maximum is the square of F's
        return PrincipalComponent(eval_homogeneous(F, x), x, pc_even.certified,
                                  math.sqrt(pc_even.bound)), report

    t = _finite_array(F)
    if t.ndim == 3:
        return solve_trilinear(t, method, cfg)
    if t.ndim == 4:
        return solve_quadrilinear(t, method, cfg)
    if t.ndim % 2 == 0:
        return solve_multilinear(t, method, cfg)
    raise ValueError(f"no solve route for a dense order-{t.ndim} array")
