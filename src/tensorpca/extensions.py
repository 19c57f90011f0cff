"""Reductions onto the even-order machinery, and the router for every input.

A bi-quadratic form over (x, y) has its own relaxation, run through
`admm.solve`; the tri-linear and quadri-linear problems reduce to it, a
general even-order multilinear problem embeds into one larger symmetric
tensor, and odd-order symmetric problems square into even ones.
`solve_leading_pc` picks the route; even orders end in `extraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .admm import Relaxation, SolverConfig, solve
from .admm import run_admm  # noqa: F401  lookup site in benchmarks/tracer.py
from .extraction import MultilinearComponent, PrincipalComponent, solve_even_order
from .matricize import _check_biquadratic_shape, matr_partial
from .matricize import rank_one_ratio  # noqa: F401  lookup site in benchmarks/tracer.py
from .projection import project_partial_C
from .projection import project_psd  # noqa: F401  lookup site in benchmarks/tracer.py
from .tensors import (SuperSymmetricTensor, _canonical_sign, _finite_array,
                      _fix_last_sign, _fix_sign, _unit, eval_homogeneous,
                      eval_multilinear, symmetrize)

__all__ = [
    "BiquadraticComponent",
    "partial_symmetrize",
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


def partial_symmetrize(t: np.ndarray) -> np.ndarray:
    """Average over the 4-element orbit {e, (02), (13), (02)(13)}.

    Averaged one generator at a time so the result is bitwise invariant
    under both swaps (float addition commutes even though it does not
    associate).
    """
    t = np.asarray(t, dtype=float)
    _check_biquadratic_shape(t)
    t = 0.5 * (t + t.transpose(2, 1, 0, 3))
    return 0.5 * (t + t.transpose(0, 3, 2, 1))


def random_partial_symmetric(n: int, m: int, seed: int) -> np.ndarray:
    """Partial symmetrization of an i.i.d. standard-normal (n, m, n, m) array."""
    rng = np.random.default_rng(seed)
    return partial_symmetrize(rng.standard_normal((n, m, n, m)))


def biquadratic_form(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """g(x, y, x, y)."""
    return eval_multilinear(g, [x, y, x, y])


def _mbi_biquadratic(g: np.ndarray, x0: np.ndarray, y0: np.ndarray,
                     restarts: int, seed: int, tol: float = 1e-12,
                     max_sweeps: int = 1000):
    """Alternating eigenvector ascent on g(x, y, x, y).

    With one block fixed the form is a quadratic in the other whose matrix
    is symmetric by partial symmetry, so each update is a leading
    eigenvector and the objective never decreases.
    """
    n, m = g.shape[0], g.shape[1]
    rng = np.random.default_rng(seed)
    starts = [(x0, y0)]
    for _ in range(restarts):
        starts.append((_unit(rng.standard_normal(n)), _unit(rng.standard_normal(m))))
    best = None
    for x, y in starts:
        x, y = x.copy(), y.copy()
        value = biquadratic_form(g, x, y)
        for _ in range(max_sweeps):
            previous = value
            Mx = np.einsum("ijkl,j,l->ik", g, y, y)
            w, V = np.linalg.eigh(0.5 * (Mx + Mx.T))
            x = V[:, -1]
            My = np.einsum("ijkl,i,k->jl", g, x, x)
            w, V = np.linalg.eigh(0.5 * (My + My.T))
            y = V[:, -1]
            value = biquadratic_form(g, x, y)
            if abs(value - previous) <= tol * max(1.0, abs(previous)):
                break
        if best is None or value > best[0]:
            best = (value, x, y)
    return best[1], best[2]


def solve_biquadratic(G: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None):
    """Maximize G(x, y, x, y) over unit x, y via a convex relaxation.

    The relaxation maximizes tr(matr_partial(G) X) over trace-one matrices
    with a partial-symmetric underlying tensor, PSD for "sdp" and with a
    nuclear-norm penalty for "nnp", solved by the same splitting loop as
    the symmetric case.  A rank-one solution factors as
    vec(x y^T) vec(x y^T)^T; the SVD of the reshaped leading eigenvector
    splits it into the two unit blocks.  Uncertified solutions fall back to
    alternating eigenvector ascent.

    Returns
    -------
    (component, report)
        BiquadraticComponent and the solver report; the report's
        extracted_x is the leading eigenvector of X (length n*m).
    """
    cfg = cfg or SolverConfig()
    G = _finite_array(G)
    Gm = matr_partial(G)
    if not G.any():
        raise ValueError("zero tensor is degenerate")
    n, m = G.shape[0], G.shape[1]

    # feasible rank-one start at the best coordinate pair: Gm[p, p] is
    # G[i, j, i, j] at p = i*m + j
    p = int(np.argmax(np.diag(Gm)))
    Y0 = np.zeros_like(Gm)
    Y0[p, p] = 1.0

    report = solve(Relaxation(Gm, lambda Z: project_partial_C(Z, n, m), Y0),
                   method, cfg)
    u, _, vt = np.linalg.svd(report.extracted_x.reshape(n, m))
    x, y = _unit(u[:, 0]), _unit(vt[0])
    if not report.certified:
        x, y = _mbi_biquadratic(G, x, y, restarts=5, seed=cfg.seed)
    # the form is even in x and in y: every sign is a tie
    x, y = _canonical_sign(x), _canonical_sign(y)
    value = biquadratic_form(G, x, y)
    return (BiquadraticComponent(value, x, y, report.certified),
            replace(report, extracted_lambda=value))


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
    over (up to the sign making F's form nonnegative).
    """
    if F.m % 2 == 0:
        raise ValueError("expected an odd order")
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
    """Maximize F(x, y, z) over unit vectors via the bi-quadratic reduction."""
    F = np.asarray(F, dtype=float)
    comp, report = solve_biquadratic(trilinear_to_biquadratic(F), method, cfg)
    x, y = comp.x_star, comp.y_star
    z = np.tensordot(F, np.outer(x, y), axes=([0, 1], [0, 1]))
    blocks, value = _fix_last_sign(F, [x, y, _unit(z)])
    return MultilinearComponent(value, blocks, comp.certified), report


def solve_quadrilinear(F: np.ndarray, method: str = "sdp",
                       cfg: SolverConfig = None):
    """Maximize F(x1, x2, x3, x4) over unit vectors via stacking."""
    F = np.asarray(F, dtype=float)
    n1, n2, n3, n4 = F.shape
    comp, report = solve_biquadratic(quadrilinear_to_biquadratic(F), method,
                                     cfg)
    x1, x3 = _split_blocks(comp.x_star, (n1, n3))
    x2, x4 = _split_blocks(comp.y_star, (n2, n4))
    blocks, value = _fix_last_sign(F, [x1, x2, x3, x4])
    return MultilinearComponent(value, blocks, comp.certified), report


def solve_multilinear(F: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None):
    """Maximize an even-order multilinear form via the symmetric embedding."""
    F = np.asarray(F, dtype=float)
    T = multilinear_embed(F)
    pc, report = solve_leading_pc(T, method, cfg)
    blocks, value = _fix_last_sign(F, _split_blocks(pc.x_star, F.shape))
    return MultilinearComponent(value, blocks, pc.certified), report


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
        return PrincipalComponent(eval_homogeneous(F, x), x,
                                  pc_even.certified), report

    t = _finite_array(F)
    if t.ndim == 3:
        return solve_trilinear(t, method, cfg)
    if t.ndim == 4:
        return solve_quadrilinear(t, method, cfg)
    if t.ndim % 2 == 0:
        return solve_multilinear(t, method, cfg)
    raise ValueError(f"no solve route for a dense order-{t.ndim} array")
