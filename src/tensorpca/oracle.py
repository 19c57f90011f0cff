"""Ground-truth references for desk-scale checks.

Everything here recomputes answers by brute force: homogeneous forms are
evaluated densely on an angular sphere grid, the feasible-set projection is
solved from explicitly assembled equality constraints, and multistart
shifted symmetric higher-order power iterations (SS-HOPM) give the best
locally attainable value.  None of it shares a code path with the solvers
it is meant to check: the module imports only `tensors`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tensors import SuperSymmetricTensor, _canonical_sign, _unit

__all__ = ["OracleResult", "sphere_grid_max", "kkt_project", "multistart_local"]

# SS-HOPM stops once the form changes by at most this much, relatively,
# or after this many steps
_HOPM_TOL = 1e-12
_HOPM_MAX_STEPS = 10_000


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax: np.ndarray
    grid_resolution: int
    polished: bool


def _dense_eval(t: np.ndarray, x: np.ndarray) -> float:
    for _ in range(t.ndim):
        t = np.tensordot(t, x, axes=([t.ndim - 1], [0]))
    return float(t)


def _dense_gradient(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    m = t.ndim
    g = t
    for _ in range(m - 1):
        g = np.tensordot(g, x, axes=([g.ndim - 1], [0]))
    return m * g


def _polish(t: np.ndarray, x: np.ndarray, value: float, max_steps: int = 200):
    # gradient ascent retracted to the sphere, step halved until it improves
    step = 0.1
    for _ in range(max_steps):
        g = _dense_gradient(t, x)
        improved = False
        while step > 1e-18:
            candidate = _unit(x + step * g)
            cand_value = _dense_eval(t, candidate)
            if cand_value > value:
                x, value, improved = candidate, cand_value, True
                step *= 2.0
                break
            step *= 0.5
        if not improved:
            break
    return x, value


def sphere_grid_max(F: SuperSymmetricTensor, resolution: int = None) -> OracleResult:
    """Maximize the homogeneous form by dense search over the unit sphere.

    The sphere is parameterized by angles with `resolution` points per
    angle (default 720 for n=2, 180 for n=3), the form is evaluated densely
    at every grid point, and the best point is polished by gradient ascent
    retracted to the sphere.  Ties resolve to the lowest grid index.

    Only n <= 3 is accepted; the cost grows too fast beyond that.
    """
    if not isinstance(F, SuperSymmetricTensor):
        raise TypeError("expected a SuperSymmetricTensor")
    if F.m % 2:
        raise ValueError("grid oracle handles even orders only")
    n = F.n
    if n > 3:
        raise ValueError(f"grid search over the sphere in R^{n} is too costly")
    if resolution is None:
        resolution = 720 if n <= 2 else 180
    if resolution < 2:
        raise ValueError("resolution must be at least 2")

    if n == 1:
        points = np.array([[1.0], [-1.0]])
    elif n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        points = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        theta = np.linspace(0.0, np.pi, resolution)
        phi = np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        points = np.column_stack([
            (np.sin(tt) * np.cos(pp)).ravel(),
            (np.sin(tt) * np.sin(pp)).ravel(),
            np.cos(tt).ravel(),
        ])

    t = F.to_dense()
    values = np.tensordot(points, t, axes=([1], [0]))
    for _ in range(F.m - 1):
        values = np.einsum("p...i,pi->p...", values, points)
    best = int(np.argmax(values))
    x, value = _polish(t, points[best], float(values[best]))
    return OracleResult(value, x, resolution, True)


def kkt_project(Z: np.ndarray, n: int, d: int) -> np.ndarray:
    """Project onto the trace-one super-symmetric set by explicit equalities.

    Builds every symmetry equality (chained within each permutation class)
    plus the trace row as a dense system A x = b and applies the standard
    equality-constrained least-distance correction
    x = z - A^T (A A^T)^(-1) (A z - b).  Reference implementation for the
    closed-form projection; sizes are guarded to keep the dense system small.
    """
    N = n**d
    if N > 100:
        raise ValueError(f"dense KKT system too large for n^d = {N}")
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (N, N):
        raise ValueError(f"expected shape {(N, N)}, got {Z.shape}")

    groups: dict = {}
    for flat, idx in enumerate(itertools.product(range(n), repeat=2 * d)):
        groups.setdefault(tuple(sorted(idx)), []).append(flat)

    size = N * N
    rows = []
    b = []
    for members in groups.values():
        for other in members[1:]:
            row = np.zeros(size)
            row[members[0]] = 1.0
            row[other] = -1.0
            rows.append(row)
            b.append(0.0)
    trace_row = np.zeros(size)
    trace_row[np.arange(N) * N + np.arange(N)] = 1.0
    rows.append(trace_row)
    b.append(1.0)

    A = np.array(rows)
    b = np.array(b)
    z = Z.reshape(-1)
    multipliers, *_ = np.linalg.lstsq(A @ A.T, A @ z - b, rcond=None)
    return (z - A.T @ multipliers).reshape(N, N)


def multistart_local(F: SuperSymmetricTensor, restarts: int = 20,
                     seed: int = 0) -> OracleResult:
    """Best stationary value found by SS-HOPM from random starts.

    Each start runs the shifted symmetric higher-order power method of
    Kolda & Mayo (SIAM J. Matrix Anal. Appl. 2011),
    x <- unit(F x^(m-1) + alpha x) with alpha = (m-1) ||F||_F, a shift
    large enough that the form never decreases.  The reported value is
    the form at the best point found; it is a feasible point's value,
    hence a lower bound on the true maximum.
    """
    if not isinstance(F, SuperSymmetricTensor):
        raise TypeError("expected a SuperSymmetricTensor")
    if F.m % 2:
        raise ValueError("multistart oracle handles even orders only")
    n, m = F.n, F.m
    t = F.to_dense()
    alpha = (m - 1) * float(np.linalg.norm(t))
    rng = np.random.default_rng(seed)
    best_x, best_value = None, -np.inf
    for _ in range(max(1, restarts)):
        x = _unit(rng.standard_normal(n))
        previous = None
        for _ in range(_HOPM_MAX_STEPS):
            g = _dense_gradient(t, x) / m  # F x^(m-1); F(x) = g . x
            value = float(g @ x)
            if previous is not None and \
                    abs(value - previous) <= _HOPM_TOL * abs(previous):
                break
            previous = value
            x = _unit(g + alpha * x)
        value = _dense_eval(t, x)
        if value > best_value:
            best_x, best_value = x, value
    return OracleResult(best_value, _canonical_sign(best_x), 0, True)
