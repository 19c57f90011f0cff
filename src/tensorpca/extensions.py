"""Reductions onto the even-order machinery, and the router for every input.

A partial-symmetric form G(x_1..x_d, x_1..x_d) over d spheres has its own
relaxation, run through `admm.solve` (`solve_biquadratic`; d = 2 is the
bi-quadratic form).  Every dense array reduces to it (`solve_multilinear`):
an odd order by squaring out its last mode, an order 2d by stacking its
modes in pairs.  Odd-order symmetric problems square into even ones;
`solve_leading_pc` picks the route, and symmetric even orders end in
`extraction`.  Each reduction scales the maximum by a known map, and maps
the solve's dual bound back onto the returned component's scale with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .admm import (Relaxation, SolverConfig, _ascent_sweep, _pair_form,
                   certifies, polish_biquadratic, solve)
from .admm import run_admm  # noqa: F401  lookup site in benchmarks/tracer.py
from .extraction import (MultilinearComponent, PrincipalComponent,
                         _ascend_with_restarts, solve_even_order)
from .matricize import _leading_factors, _outer, matr_partial, partial_symmetrize
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
    "square_last_mode",
    "stack_multilinear",
    "odd_to_even",
    "solve_multilinear",
    "solve_leading_pc",
]

# the largest relaxation a dense array may pose: the ADMM keeps about 20
# N x N float64 arrays, about 0.67 GB at N = 2048
MAX_ROWS = 2048


@dataclass(frozen=True)
class BiquadraticComponent(MultilinearComponent):
    """A MultilinearComponent of G(x_1..x_d, x_1..x_d); x_star, y_star at d = 2."""
    x_star = property(lambda self: self.xs[0])
    y_star = property(lambda self: self.xs[1])


def random_partial_symmetric(n: int, m: int, seed: int) -> np.ndarray:
    """Partial symmetrization of an i.i.d. standard-normal (n, m, n, m) array."""
    rng = np.random.default_rng(seed)
    return partial_symmetrize(rng.standard_normal((n, m, n, m)))


def biquadratic_form(g: np.ndarray, *xs: np.ndarray) -> float:
    """g(x_1, ..., x_d, x_1, ..., x_d); g(x, y, x, y) for d = 2."""
    return eval_multilinear(g, [*xs, *xs])


def _mbi_biquadratic(g: np.ndarray, x0s, seed: int, bound: float = math.nan,
                     rank_tol: float = 0.0, tol: float = 1e-12,
                     max_sweeps: int = 1000):
    """Alternating eigenvector ascent on g(x_1..x_d, x_1..x_d), with restarts.

    Sweeps of `admm._ascent_sweep` never lower the form.  The restarts are
    skipped when the ascent from the blocks x0s closes the gap to `bound`.
    The fallback of an uncertified solve; a certified one is polished.
    """
    P = _pair_form(g)

    def ascend(*xs):
        xs = list(xs)
        value = biquadratic_form(g, *xs)
        for _ in range(max_sweeps):
            previous = value
            _ascent_sweep(P, xs)
            value = biquadratic_form(g, *xs)
            if abs(value - previous) <= tol * abs(previous):
                break
        return value, tuple(xs)

    return _ascend_with_restarts(ascend, tuple(x0s), seed, bound, rank_tol)


def _sign_choices(labels: np.ndarray) -> list:
    # row signs to try on the blocks' read-out z = sum_b +-sqrt(l_b) u_b.  A
    # flip of the form negates the labels with an odd number of bits in some
    # mask, keeping z's value: only labels of two or more bits need a sign
    free = [c for c in np.unique(labels) if c & (c - 1)]
    return [np.where(np.isin(labels, [c for c, flip in zip(free, flips)
                                      if flip]), -1.0, 1.0)
            for flips in itertools.product((False, True), repeat=len(free))]


def _best_factors(Gm: np.ndarray, z: np.ndarray, dims, choices):
    # (u^T Gm u, blocks) at the rank-one point u of the blocks read from z
    # under the sign choice of the largest value, the first on a tie
    def read(signs):
        xs = _leading_factors(signs * z, dims)
        u = _outer(xs)
        return float(u @ Gm @ u), xs

    return max(map(read, choices), key=lambda r: r[0])


def solve_biquadratic(G: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None, *, stop_on_gap: bool = False,
                      odd_rows: np.ndarray = None):
    """Maximize G(x_1..x_d, x_1..x_d) over unit x_k via a convex relaxation.

    G has shape (s_1..s_d, s_1..s_d) and is fixed by each swap of modes k
    and k + d; d = 2 is the bi-quadratic form G(x, y, x, y).  The
    relaxation maximizes tr(matr_partial(G) X) over trace-one N x N
    matrices with a partial-symmetric tensor, PSD for "sdp" and with a
    nuclear-norm penalty for "nnp".  Successive SVDs of a rank-one
    solution's leading eigenvector give the unit blocks.  A read-out that
    a gap stop did not polish already is polished
    (`admm.polish_biquadratic`).  Its value lambda is certified iff the
    iteration cap did not stop the solve and bound - lambda <= rank_tol *
    |bound| (`admm.certifies`); an uncertified one falls back to
    alternating eigenvector ascent with restarts.

    With stop_on_gap the ADMM also stops once the polished read-out closes
    the gap to the bound corrected at its rank-one point (termination
    "gap"), returning that check's blocks; the pipeline routes set it.
    odd_rows labels the N rows (row-major) by their class under sign flips
    of the x_k that fix the form: integers, or a boolean mask (ValueError
    for another shape or dtype, or when the form couples two classes).  X
    is then block-diagonal over the classes and never rank one as a whole,
    so the ADMM runs on the stack of its diagonal blocks
    (`Relaxation.blocks`), and the report's rank_one tests each block for
    rank one.  The read-out is z = sum_b +-sqrt(l_b) u_b from each block's
    top eigenpair, signed for the largest value; the checks compare it
    unpolished with the uncorrected bound, and the stopped read-out is
    polished once.

    Returns
    -------
    (component, report)
        BiquadraticComponent and the solver report; the report's
        extracted_x is the leading eigenvector of X, the blocks' read-out
        z, or the polished rank-one point of a gap stop, its X the N x N
        matrix, and its extracted_lambda the component's value.
    """
    cfg = cfg or SolverConfig()
    G = _finite_array(G)
    Gm = matr_partial(G)
    dims = G.shape[:G.ndim // 2]

    labels = np.zeros(len(Gm), int) if odd_rows is None else np.asarray(odd_rows)
    if (labels.shape != (len(Gm),) or labels.dtype.kind not in "biu"
            or Gm[labels[:, None] != labels].any()):
        raise ValueError(f"odd_rows must be {len(Gm)} integer labels of "
                         f"classes the form does not couple")
    blocks = tuple(np.flatnonzero(labels == c) for c in np.unique(labels))
    blocks = blocks if len(blocks) > 1 else None
    # feasible rank-one start at the largest diagonal entry of Gm
    p = int(np.argmax(np.diag(Gm)))
    Y0 = np.zeros_like(Gm)
    Y0[p, p] = 1.0
    if blocks is None:
        problem = Relaxation(Gm, lambda Z: project_partial_C(Z, dims), Y0,
                             normal=lambda u: partial_normal(u, dims))
    else:
        gathers = partial_block_gathers(dims, blocks)
        problem = Relaxation(
            stack_blocks(Gm, blocks),
            lambda Z: project_partial_C(Z, dims, gathers),
            stack_blocks(Y0, blocks), blocks=blocks)

    # the blocks of the last check, which a gap stop returns
    value, checked, choices = None, [], _sign_choices(labels)
    if stop_on_gap and blocks is None:
        def value(X, v):
            # the polished blocks read from v, and their rank-one point
            *xs, form = polish_biquadratic(G, *_leading_factors(v, dims))
            checked[:] = xs
            return form, _outer(xs)
    elif stop_on_gap:
        def value(X, v):
            # the blocks read from v, the top eigenpairs of X's blocks
            form, checked[:] = _best_factors(Gm, v, dims, choices)
            return form, None

    report = solve(problem, method, cfg, value)
    xs = (checked if report.termination == "gap"
          else _best_factors(Gm, report.extracted_x, dims, choices)[1])
    if not (report.termination == "gap" and blocks is None):
        *xs, _ = polish_biquadratic(G, *xs)
    if not certifies(replace(report, extracted_lambda=biquadratic_form(G, *xs)),
                     cfg.rank_tol):
        xs = _mbi_biquadratic(G, xs, cfg.seed, report.bound, cfg.rank_tol)
    # the form is even in each block: every sign is a tie
    xs = tuple(_canonical_sign(x) for x in xs)
    report = replace(report, extracted_lambda=biquadratic_form(G, *xs))
    component = BiquadraticComponent(report.extracted_lambda, xs,
                                     certifies(report, cfg.rank_tol),
                                     report.bound)
    return component, report


def square_last_mode(F: np.ndarray) -> np.ndarray:
    """Partial-symmetric G with G(x_1..x_k, x_1..x_k) = ||F(x_1..x_k, .)||^2.

    F has an odd order k + 1 >= 3.  Contracting two copies of F over the
    last mode and averaging over the swaps (i, i + k) keeps the form.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim % 2 == 0 or F.ndim < 3:
        raise ValueError(f"expected an odd order of at least 3, got order {F.ndim}")
    k = F.ndim - 1
    pair = np.einsum(F, [*range(k), 2 * k], F, [*range(k, 2 * k), 2 * k])
    return partial_symmetrize(pair)


def stack_multilinear(F: np.ndarray) -> np.ndarray:
    """Stack an order-2d form into a partial-symmetric one over d spheres.

    Modes k and k + d stack into block u_k = (x_k; x_{k+d}).  F sits in the
    corner of the first halves' modes k < d and the second halves' modes
    k + d, and averaging over the swaps (k, k + d) keeps the form at
    stacked arguments: G(u_1..u_d, u_1..u_d) = F(x_1, ..., x_2d).
    """
    F = np.asarray(F, dtype=float)
    if F.ndim % 2 or F.ndim == 0:
        raise ValueError(f"expected a positive even order, got {F.ndim}")
    first = F.shape[:F.ndim // 2]
    G = np.zeros([a + b for a, b in zip(first, F.shape[len(first):])] * 2)
    G[(*map(slice, first), *(slice(a, None) for a in first))] = F
    return partial_symmetrize(G)


def _flip_classes(shape) -> np.ndarray:
    # each row's class under the flips of the second halves of an even
    # number of blocks: its halves' parity vector mod all-ones, as bits
    d = len(shape) // 2
    index = np.indices([a + b for a, b in zip(shape[:d], shape[d:])])
    parity = index.reshape(d, -1) >= np.array(shape[:d])[:, None]
    return (parity[1:] != parity[0]).T @ (1 << np.arange(d - 1))


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


def solve_multilinear(F: np.ndarray, method: str = "sdp",
                      cfg: SolverConfig = None):
    """Maximize F(x_1, ..., x_k) over unit vectors, for any order k >= 2.

    An odd order squares out its last mode (`square_last_mode`), reads x_k
    as F(x_1..x_{k-1}, .) normalized and maps the bound by a square root.
    An order 2d stacks u_i = (x_i; x_{i+d}) (`stack_multilinear`), solved
    in the 2^(d-1) diagonal blocks of the flips that fix the stacked form,
    where `report.rank_one` tests each block for rank one.  Both stop on
    the duality gap (`stop_on_gap`) and certify by `admm.certifies` at the
    reduced form's value.  A relaxation of N > MAX_ROWS rows is refused.
    """
    F = np.asarray(F, dtype=float)
    k = F.ndim
    rows = math.prod(F.shape[:-1] if k % 2 else
                     map(sum, zip(F.shape[:k // 2], F.shape[k // 2:])))
    if rows > MAX_ROWS:
        raise ValueError(f"the relaxation has N = {rows} rows, above the limit {MAX_ROWS}")
    if k % 2:
        comp, report = solve_biquadratic(square_last_mode(F), method, cfg,
                                         stop_on_gap=True)
        z = np.tensordot(F, _outer(comp.xs).reshape(F.shape[:-1]),
                         axes=(range(k - 1), range(k - 1)))
        xs = [*comp.xs, _unit(z)]
        # the squared form's maximum is the square of F's
        bound = math.sqrt(comp.bound)
    else:
        comp, report = solve_biquadratic(stack_multilinear(F), method, cfg,
                                         stop_on_gap=True,
                                         odd_rows=_flip_classes(F.shape))
        split = [(u[:n], u[n:]) for u, n in zip(comp.xs, F.shape)]
        xs = [_unit(h[0]) for h in split] + [_unit(h[1]) for h in split]
        # a unit stacked vector splits its norm evenly between its two
        # halves at the maximum, so the stacked form's maximum is F's over 2^d
        bound = 2 ** len(comp.xs) * comp.bound
    blocks, value = _fix_last_sign(F, xs)
    return MultilinearComponent(value, blocks, comp.certified, bound), report


def solve_leading_pc(F, method: str = "sdp", cfg: SolverConfig = None):
    """End-to-end entry point: reduce if needed, solve, extract, refine.

    Parameters
    ----------
    F : SuperSymmetricTensor or ndarray
        Even-order symmetric tensors are solved directly; odd-order
        symmetric tensors are squared first; dense arrays of every order
        k >= 2 go to `solve_multilinear`, which squares out the last mode
        of an odd order and stacks an even one.  Dense arrays must be
        finite.
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

    return solve_multilinear(_finite_array(F), method, cfg)
